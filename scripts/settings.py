#!/usr/bin/env python3
"""Print every settable value in src/holdemlab, one per line, then the total.

    python3 scripts/settings.py

A settable value is a value a caller may leave out or pass, each counted
once where it is declared:

- a parameter with a default, and a `**kwargs` catch-all, of any function
  or method (`learning:apply_learning.store`);
- a field with a default of a `@dataclass` class (`session:SessionConfig.hands`);
- a command-line `--option`, named after its sub-command
  (`cli:build_parser.simulate.--hands`).

The source is read, not imported. Lines are sorted, so two checkouts can be
compared with diff.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "holdemlab"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _defaulted_params(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    a = fn.args
    positional = a.posonlyargs + a.args
    names = [p.arg for p in positional[len(positional) - len(a.defaults):]] if a.defaults else []
    names += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    if a.kwarg is not None:
        names.append(f"**{a.kwarg.arg}")
    return names


def _subcommands(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> dict[str, str]:
    """Variable -> sub-command name, for `x = sub.add_parser("name", ...)`."""
    out = {}
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "add_parser"
            and node.value.args
            and isinstance(node.value.args[0], ast.Constant)
        ):
            out[node.targets[0].id] = str(node.value.args[0].value)
    return out


def _cli_options(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    commands = _subcommands(fn)
    names = []
    for node in ast.walk(fn):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument"):
            continue
        flags = [a.value for a in node.args if isinstance(a, ast.Constant) and str(a.value).startswith("--")]
        if flags:
            owner = node.func.value
            prefix = commands.get(owner.id, owner.id) + "." if isinstance(owner, ast.Name) else ""
            names.append(prefix + flags[0])
    return names


def settings_of(module: str, tree: ast.Module) -> list[str]:
    found: list[str] = []

    def visit(body: list[ast.stmt], qual: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{qual}{node.name}"
                found.extend(f"{module}:{name}.{p}" for p in _defaulted_params(node))
                found.extend(f"{module}:{name}.{o}" for o in _cli_options(node))
                visit(node.body, f"{name}.")
            elif isinstance(node, ast.ClassDef):
                name = f"{qual}{node.name}"
                if _is_dataclass(node):
                    for item in node.body:
                        if (
                            isinstance(item, ast.AnnAssign)
                            and isinstance(item.target, ast.Name)
                            and item.value is not None
                            and "ClassVar" not in ast.unparse(item.annotation)
                        ):
                            found.append(f"{module}:{name}.{item.target.id}")
                visit(node.body, f"{name}.")

    visit(tree.body, "")
    return found


def main() -> int:
    lines: list[str] = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines.extend(settings_of(path.stem, tree))
    for line in sorted(lines):
        print(line)
    print(f"total {len(lines)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
