#!/usr/bin/env python3
"""Print the lines of src/holdemlab that no command, demo or benchmark
workload runs, grouped by function.

    python3 scripts/reach.py

Each entry point below runs in a fresh interpreter, in one temporary
directory and in this order, with a `sys.settrace` line collector on the
package's code:

    holdemlab simulate --hands 3000 --seed 2023 --trace --out simulate
    holdemlab simulate --config failure.ini --hands 600 --seed 2023 --trace --out failure
    holdemlab report simulate/session_2023.hh --out report.csv
    holdemlab replay hand6.scn --out replay
    holdemlab heatmap replay/hand6_whale_bb_05_turn_RET73.rng --format svg
    holdemlab heatmap replay/hand6_whale_bb_05_turn_RET73.rng --format ppm --grid 1326
    python demos/0N_*.py                                  (each of the five)
    python holdembench/run.py --workload advise --seed 2023 --seconds 2
    python holdembench/run.py --workload report --seed 2023 --seconds 2

failure.ini sets `failure_rate = 0.05`. The executable lines of a module
are those its compiled code maps to (`co_lines`). A line that none of the
runs reached is printed under the function that holds it, in ranges of
lines with no run line between them; a function none of whose lines ran is
marked "never called". Lines of a `raise` statement or an `except` clause
are listed apart, since most of them answer bad input. The last line is
the total. Runs take a few minutes; the output is sorted, so two checkouts
can be compared with diff.
"""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "holdemlab"
FAILURE_INI = "[session]\nfailure_rate = 0.05\n"
SNAPSHOT = "replay/hand6_whale_bb_05_turn_RET73.rng"  # a grid that replay writes

# Each entry point: the module (-m) or script and its arguments, run from
# the output directory.
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "simulate": ("-m", "holdemlab.cli", "simulate", "--hands", "3000", "--seed", "2023", "--trace", "--out", "simulate"),
    "failure": (
        "-m", "holdemlab.cli", "simulate", "--config", "failure.ini", "--hands", "600", "--seed", "2023", "--trace",
        "--out", "failure",
    ),
    "report": ("-m", "holdemlab.cli", "report", "simulate/session_2023.hh", "--out", "report.csv"),
    "replay": ("-m", "holdemlab.cli", "replay", "hand6.scn", "--out", "replay"),
    **{
        f"heatmap-{fmt}": ("-m", "holdemlab.cli", "heatmap", SNAPSHOT, "--format", fmt, *grid, "--out", f"grid.{fmt}")
        for fmt, grid in (("svg", ()), ("ppm", ("--grid", "1326")))
    },
    **{demo.stem: (str(demo),) for demo in sorted((ROOT / "demos").glob("*.py"))},
    **{
        f"bench-{name}": (str(ROOT / "holdembench" / "run.py"), "--workload", name, "--seed", "2023", "--seconds", "2")
        for name in ("advise", "report")
    },
}

# Run in the child interpreter: trace the package's frames line by line,
# run the entry point as __main__, and write as JSON the lines reached and
# the first lines of the code objects called, by file.
_COLLECTOR = r"""
import json, runpy, sys
package, out, target, *argv = sys.argv[1:]
lines, calls = {}, {}

def on_line(frame, event, arg):
    if event == "line":
        lines[frame.f_code.co_filename].add(frame.f_lineno)
    return on_line

def on_call(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(package):
        return None
    lines.setdefault(name, set())
    calls.setdefault(name, set()).add(frame.f_code.co_firstlineno)
    return on_line

code = 0
sys.argv = [target, *argv]
sys.settrace(on_call)
try:
    if target == "-m":
        sys.argv = argv
        runpy.run_module(argv[0], run_name="__main__", alter_sys=True)
    else:
        sys.path.insert(0, target.rsplit("/", 1)[0])
        runpy.run_path(target, run_name="__main__")
except SystemExit as e:
    code = e.code if isinstance(e.code, int) else 1
finally:
    sys.settrace(None)
    with open(out, "w") as f:
        json.dump([{name: sorted(v) for name, v in runs.items()} for runs in (lines, calls)], f)
sys.exit(code)
"""


def collect(argv: tuple[str, ...], cwd: Path) -> tuple[dict[str, set[int]], dict[str, set[int]]]:
    """The package lines one entry point runs and the first lines of the
    functions it calls, each by file, from a fresh interpreter in cwd. An
    entry point that exits non-zero raises."""
    out = cwd / ".reach.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, "-c", _COLLECTOR, str(PACKAGE), str(out), *argv],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    lines, calls = ({name: set(v) for name, v in runs.items()} for runs in json.loads(out.read_text()))
    out.unlink()
    return lines, calls


def _code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _function_name(code: types.CodeType) -> str:
    """The function a code object belongs to; comprehensions and lambdas
    count as part of the function that holds them."""
    parts = [p for p in code.co_qualname.split(".") if p != "<locals>"]
    while parts and parts[-1].startswith("<") and parts[-1] != "<module>":
        parts.pop()
    return ".".join(parts) or "<module>"


def _error_lines(tree: ast.Module) -> set[int]:
    """Lines of a raise statement or of an except clause and its body."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Raise, ast.ExceptHandler)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _ranges(lines: list[int], executable: list[int], ran: set[int]) -> str:
    """Lines as ranges that no run executable line interrupts."""
    parts: list[list[int]] = []
    for line in lines:
        if parts and not any(parts[-1][1] < e < line and e in ran for e in executable):
            parts[-1][1] = line
        else:
            parts.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in parts)


def never_run(lines_run: dict[str, set[int]], calls: dict[str, set[int]]) -> tuple[list[str], list[str], str]:
    """Lines of the never-run code by function, the never-run raise/except
    lines by function, and the summary line, from what collect gives."""
    plain, errors = [], []
    total = missed = missed_errors = 0
    never_called: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        error_lines = _error_lines(tree)
        ran, called = lines_run.get(str(path), set()), calls.get(str(path), set())
        owner: dict[int, str] = {}
        for code in _code_objects(compile(tree, str(path), "exec")):
            name = _function_name(code)
            for *_, line in code.co_lines():
                if line:  # a module's first instruction maps to line 0
                    owner[line] = name  # nested code comes after its holder
            if not code.co_name.startswith("<") and code.co_firstlineno not in called:
                never_called.add(f"{path.name}:{name}")
        executable = sorted(owner)
        by_function: dict[tuple[str, bool], list[int]] = defaultdict(list)
        for line in executable:
            if line not in ran:
                by_function[owner[line], line in error_lines].append(line)
        total += len(executable)
        for (name, is_error), lines in sorted(by_function.items()):
            missed += len(lines)
            label = f"{path.name}:{name}"
            entry = f"  {label:<52} {_ranges(lines, executable, ran)}"
            if is_error:
                missed_errors += len(lines)
                errors.append(entry)
            else:
                mark = "never called, " if label in never_called else ""
                plain.append(f"{entry}  ({mark}{len(lines)} lines)")
    summary = (
        f"total: {missed} of {total} executable lines never run, {missed_errors} of them raise/except lines; "
        f"{len(never_called)} functions never called"
    )
    return plain, errors, summary


def main() -> int:
    lines_run: dict[str, set[int]] = defaultdict(set)
    calls: dict[str, set[int]] = defaultdict(set)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "failure.ini").write_text(FAILURE_INI, encoding="utf-8")
        for name, argv in ENTRY_POINTS.items():
            print(f"running {name}", file=sys.stderr)
            for merged, runs in zip((lines_run, calls), collect(argv, out)):
                for path, found in runs.items():
                    merged[path] |= found
    plain, errors, summary = never_run(lines_run, calls)
    print("never run, by function:")
    print("\n".join(plain))
    print("raise/except lines never run, by function:")
    print("\n".join(errors))
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
