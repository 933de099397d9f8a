#!/usr/bin/env python3
"""Build the rank table that holdemlab.cards.rank_table reads.

The table (src/holdemlab/data/rank_table.npy, see the rank-table comment in
cards.py) holds one row per multiset of 3, 4 or 5 ranks. Each row comes from
build_rank_row in tests/reference_rank.py, the reference the rsm tests check
the table against; it scores with its own fold (reference_rank.fold_scores),
classes and counts straight outs. Nothing this script runs reads the shipped table, so a stale,
missing or misshapen file is rebuilt correctly. Run from the repo root
after changing what a row holds:

    python3 scripts/make_rank_table.py           # regenerate the table
    python3 scripts/make_rank_table.py --check   # rebuild and compare only

--check exits 1 on a mismatch and names the first differing row and its
ranks. Either takes a couple of seconds.
"""
from __future__ import annotations

import argparse
import itertools
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from holdemlab.cards import DATA_DIR, RANK_CHARS, RANK_PAIRS, RANK_TABLE_ROWS, rank_table_row  # noqa: E402
from reference_rank import build_rank_row  # noqa: E402

PATH = DATA_DIR / "rank_table.npy"


def build() -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """The table, and the ranks of each of its rows."""
    table = np.zeros((RANK_TABLE_ROWS, len(RANK_PAIRS)), dtype=np.int32)
    ranks_of: list[tuple[int, ...]] = [()] * RANK_TABLE_ROWS
    for k in (3, 4, 5):
        for ranks in itertools.combinations_with_replacement(range(13), k):
            row = rank_table_row(ranks)
            table[row] = build_rank_row(ranks)
            ranks_of[row] = ranks
    assert all(ranks_of), "rows left unbuilt"
    return table, ranks_of


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the shipped table instead of writing it")
    args = parser.parse_args(argv)
    table, ranks_of = build()
    if not args.check:
        np.save(PATH, table)
        print(f"wrote {PATH} ({table.shape[0]} rows)")
        return 0
    if not PATH.exists():
        print(f"{PATH}: missing")
        return 1
    shipped = np.load(PATH)
    if shipped.shape != table.shape or shipped.dtype != table.dtype:
        print(f"{PATH}: shipped {shipped.dtype} {shipped.shape}, built {table.dtype} {table.shape}")
        return 1
    differ = np.flatnonzero((shipped != table).any(axis=1))
    if differ.size:
        row = int(differ[0])
        names = " ".join(RANK_CHARS[r] for r in ranks_of[row])
        print(f"{PATH}: {differ.size} rows differ; first: row {row}, ranks {names}")
        return 1
    print(f"{PATH}: all {table.shape[0]} rows match the builder")
    return 0


if __name__ == "__main__":
    sys.exit(main())
