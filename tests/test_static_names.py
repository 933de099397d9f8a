"""Every global name a holdemlab function reads must exist.

A missing import only fails when its code path runs (a `NameError` deep in
a session), so this walks the compiled code of every module instead: each
`LOAD_GLOBAL` must name a module global or a builtin.
"""
import ast
import builtins
import dis
import importlib
import pkgutil
import types
from pathlib import Path

import holdemlab


def _code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _unresolved_globals(module: types.ModuleType) -> list[str]:
    path = Path(module.__file__)
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    known = set(vars(module)) | set(dir(builtins))
    missing = []
    for co in _code_objects(code):
        for ins in dis.get_instructions(co):
            if ins.opname == "LOAD_GLOBAL" and ins.argval not in known:
                where = getattr(co, "co_qualname", co.co_name)
                missing.append(f"{module.__name__}.{where} (line {co.co_firstlineno}): {ins.argval}")
    return missing


def _modules():
    yield holdemlab
    for info in pkgutil.iter_modules(holdemlab.__path__, prefix="holdemlab."):
        yield importlib.import_module(info.name)


def test_every_module_is_walked():
    names = {m.__name__ for m in _modules()}
    assert {"holdemlab.table", "holdemlab.cards", "holdemlab.session", "holdemlab.cli"} <= names


def test_every_global_load_resolves():
    missing = [m for module in _modules() for m in _unresolved_globals(module)]
    assert not missing, "names read but never defined or imported:\n" + "\n".join(missing)


def test_all_lists_every_imported_name():
    path = Path(holdemlab.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    assert sorted(holdemlab.__all__) == sorted(imported)
    assert all(hasattr(holdemlab, name) for name in holdemlab.__all__)
