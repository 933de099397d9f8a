"""Every global name a holdemlab function reads must exist, and every
module imports what it needs itself.

A missing import only fails when its code path runs (a `NameError` deep in
a session), so this walks the compiled code of every module instead: each
`LOAD_GLOBAL` must name a module global or a builtin. The package root
imports no module, so each must import on its own, and a command loads only
the modules it runs.
"""
import builtins
import dis
import importlib
import os
import pkgutil
import subprocess
import sys
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


def _fresh(code: str, *args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    """`python -c code args...` in a fresh interpreter that imports the
    program from the tree these tests import."""
    env = dict(os.environ, PYTHONPATH=str(Path(holdemlab.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd, capture_output=True, text=True)


def test_every_module_imports_on_its_own():
    """The package root imports nothing, so no fixed import order hides a
    cycle: each module must import first in a fresh interpreter."""
    for info in pkgutil.iter_modules(holdemlab.__path__, prefix="holdemlab."):
        run = _fresh(f"import {info.name}")
        assert run.returncode == 0, f"{info.name}:\n{run.stderr}"


# The command's exit code and, on stderr, the holdemlab modules it loaded.
_LOADED = """import sys
from holdemlab import cli
code = cli.main(sys.argv[1:])
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "holdemlab")), file=sys.stderr)
sys.exit(code)
"""


def test_a_command_loads_only_the_modules_it_runs(tmp_path):
    from holdemlab.session import SessionConfig, run_fastfold_session
    from holdemlab.table import write_history

    records = []
    run_fastfold_session(SessionConfig(hands=5), on_record=records.append)
    write_history(records, str(tmp_path / "session.hh"))
    (tmp_path / "grid.rng").write_text("AA 1\n", encoding="utf-8")
    loaded = {}
    for command, *args in (["report", "session.hh"], ["heatmap", "grid.rng", "--out", "grid.svg"]):
        run = _fresh(_LOADED, command, *args, cwd=tmp_path)
        assert run.returncode == 0, run.stderr
        loaded[command] = set(run.stderr.split())
    names = lambda *modules: {"holdemlab"} | {f"holdemlab.{m}" for m in modules}  # noqa: E731
    assert loaded["report"] == names("cli", "cards", "events", "rangegrid", "preflop", "table", "metrics")
    assert loaded["heatmap"] == names("cli", "heatmap", "rangegrid", "cards")
