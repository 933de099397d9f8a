#!/usr/bin/env python3
"""Print the sha256 of every output of the seed-2023 run, so that two
checkouts can be shown to write the same bytes.

    python3 scripts/digest.py [--advise-hands 1000] [--keep DIR] [--against REV]

The program is imported from the checkout's src/. Each command runs in a
fresh interpreter in the output directory DIR, as a user would run it:

    holdemlab simulate --hands 10000 --seed 2023 --trace --out simulate
    holdemlab report simulate/session_2023.hh --out report.csv
    holdemlab replay hand6.scn --out replay
    holdemlab simulate --config failure.ini --hands 3000 --seed 2023 --trace --out failure

failure.ini, which the script writes, sets `failure_rate = 0.05`, so that
the timed-out hero decisions and the `fail=1` headers are pinned too. Each
demo in demos/ runs there too (`python demos/01_cards_and_equity.py`
and so on). Every file they write and the stdout of `report`, `replay` and
each demo are hashed. Last come two inputs of the benchmark
(holdembench/workloads.py): the hero's advice, one line per decision, over
its seeded `advise` hands, and the seed-2023 `report` history, which its
scripted seats play through the engine. That history holds pre-flop, flop
and turn all-in locks with short stacks, which `simulate` rarely reaches,
so it is written to DIR and reported on too, pinning the all-in adjusted
line of those locks:

    holdemlab report report_history_2023.hh --out report_history_2023.csv

The report rounds each adjusted result to cents, so the equity of every lock
in that history (`metrics._equity_multiway`, as the report computes it) is
hashed too, one `repr` a line.

One `sha256  name` line is printed per output, sorted by name; diff the
lines of two checkouts. With `--against REV`, REV is checked out with `git
worktree add --detach` into a temporary directory, its own scripts/digest.py
runs there in a fresh interpreter (so each tree's program is imported from
its own src/), and only the lines that differ are printed: `-` for REV's,
`+` for this checkout's. The exit status is 1 if any differ, and the
worktree is removed.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 2023
HANDS = 10000
FAILURE_HANDS = 3000
FAILURE_INI = "[session]\nfailure_rate = 0.05\n"


def run(out: Path, *args: str) -> str:
    """stdout of `python args...` run in `out`, where the relative paths it
    is given and prints resolve."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, *args], cwd=out, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def cli(out: Path, *args: str) -> str:
    return run(out, "-m", "holdemlab.cli", *args)


def bench_workloads():
    """The benchmark's workloads module, importing the program from src/."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "holdembench")]
    import workloads

    return workloads


def advise_lines(workloads, seed: int, hands: int) -> list[str]:
    advise = workloads.Advise(seed, ROOT, ROOT)
    lines: list[str] = []
    m = workloads.Measurement()
    advise.play(advise.new_brain(), [workloads.advise_hand(seed, i) for i in range(hands)], m, lines)
    if m.failed:
        sys.exit("advise failed:\n" + "\n".join(m.failures[:5]))
    return lines


def lock_equities(history: Path) -> str:
    """repr of each all-in lock's equity in the history, in report order."""
    from holdemlab import metrics, table

    records = table.parse_history(str(history))
    equity_multiway, seen = metrics._equity_multiway, []

    def recorded(*args, **kwargs):
        seen.append(equity_multiway(*args, **kwargs))
        return seen[-1]

    metrics._equity_multiway = recorded
    try:
        metrics.ledger_from_records(records, "hero", records[0].bb_cents)
    finally:
        metrics._equity_multiway = equity_multiway
    return "\n".join(map(repr, seen))


def digests(out: Path, advise_hands: int) -> dict[str, str]:
    cli(out, "simulate", "--hands", str(HANDS), "--seed", str(SEED), "--trace", "--out", "simulate")
    (out / "failure.ini").write_text(FAILURE_INI, encoding="utf-8")
    cli(out, "simulate", "--config", "failure.ini", "--hands", str(FAILURE_HANDS), "--seed", str(SEED), "--trace", "--out", "failure")
    workloads = bench_workloads()
    history = f"report_history_{SEED}"
    (out / f"{history}.hh").write_text(workloads.report_history(SEED)[0], encoding="utf-8")
    texts = {
        "report.stdout": cli(out, "report", f"simulate/session_{SEED}.hh", "--out", "report.csv"),
        f"{history}.stdout": cli(out, "report", f"{history}.hh", "--out", f"{history}.csv"),
        "replay.stdout": cli(out, "replay", "hand6.scn", "--out", "replay"),
        f"advise_{SEED}_{advise_hands}.lines": "\n".join(advise_lines(workloads, SEED, advise_hands)),
        f"{history}.lock_equities": lock_equities(out / f"{history}.hh"),
    }
    for demo in sorted((ROOT / "demos").glob("*.py")):
        texts[f"{demo.stem}.stdout"] = run(out, str(demo))
    sums = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}
    for path in out.rglob("*"):
        if path.is_file():
            sums[str(path.relative_to(out))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return sums


def lines_at(rev: str, advise_hands: int) -> list[str]:
    """The digest lines of revision `rev`, from its own scripts/digest.py in
    a fresh interpreter in a temporary worktree."""
    git = ["git", "-C", str(ROOT)]
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        subprocess.run([*git, "worktree", "add", "--detach", "--quiet", str(tree), rev], check=True)
        try:
            done = subprocess.run(
                [sys.executable, str(tree / "scripts" / "digest.py"), "--advise-hands", str(advise_hands)],
                cwd=tmp, capture_output=True, text=True,
            )
        finally:
            subprocess.run([*git, "worktree", "remove", "--force", str(tree)], check=True)
    if done.returncode != 0:
        sys.exit(f"digest of {rev} exited {done.returncode}:\n{done.stderr}")
    return done.stdout.splitlines()


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--advise-hands", type=int, default=1000, help="advised hands")
    p.add_argument("--keep", help="write the outputs here instead of a temporary directory")
    p.add_argument("--against", metavar="REV", help="print only the lines that differ from revision REV's")
    args = p.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(args.keep or tmp).resolve()
        out.mkdir(parents=True, exist_ok=True)
        ours = [f"{digest}  {name}" for name, digest in sorted(digests(out, args.advise_hands).items())]
    if not args.against:
        print("\n".join(ours))
        return
    theirs = lines_at(args.against, args.advise_hands)
    differ = [f"-{line}" for line in theirs if line not in ours] + [f"+{line}" for line in ours if line not in theirs]
    for line in sorted(differ, key=lambda line: (line.split("  ", 1)[1], line[0] == "+")):
        print(line)
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
