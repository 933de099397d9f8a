"""Opponent range representation: the 1,326-combo grid and its 169-class view.

A range is a nonnegative weight per two-card combo. Class weights (AKs, 99,
QJo, ...) aggregate member combos: 6 per pair, 4 per suited class, 12 per
offsuit class. Card removal zeroes every combo that intersects the dead set
and renormalizes; an annihilated range degrades to uniform-over-live and is
flagged degenerate rather than left undefined.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .cards import DATA_DIR, DECK_SIZE, N_COMBOS, InvalidCardsError, card_str, parse_cards

RANKS_DESC = "AKQJT98765432"


class RangeConfigError(ValueError):
    """Raised for unknown archetypes / situations or malformed range files."""


# ---------------------------------------------------------------------------
# Combo and class indexing
# ---------------------------------------------------------------------------

COMBO_CARDS = np.array(list(itertools.combinations(range(DECK_SIZE), 2)), dtype=np.int64)
assert COMBO_CARDS.shape == (N_COMBOS, 2)

_COMBO_INDEX = np.full((DECK_SIZE, DECK_SIZE), -1, dtype=np.int64)
for _i, (_a, _b) in enumerate(COMBO_CARDS):
    _COMBO_INDEX[_a, _b] = _i
    _COMBO_INDEX[_b, _a] = _i


def combo_index(c1: int, c2: int) -> int:
    idx = int(_COMBO_INDEX[c1, c2])
    if idx < 0:
        raise InvalidCardsError(f"not a combo: {c1},{c2}")
    return idx


def combo_str(idx: int) -> str:
    a, b = COMBO_CARDS[idx]
    return card_str(int(a)) + card_str(int(b))


def _grid_cell(hi_rank: int, lo_rank: int, suited: bool) -> tuple[int, int]:
    """Map a class to its 13x13 cell: pairs on the diagonal, suited above."""
    row_hi = 14 - hi_rank  # A -> 0 ... 2 -> 12
    row_lo = 14 - lo_rank
    if hi_rank == lo_rank:
        return row_hi, row_hi
    if suited:
        return row_hi, row_lo
    return row_lo, row_hi


def class_name(row: int, col: int) -> str:
    if row == col:
        return RANKS_DESC[row] * 2
    hi, lo = (row, col) if row < col else (col, row)
    return RANKS_DESC[hi] + RANKS_DESC[lo] + ("s" if row < col else "o")


_CLASS_OF_COMBO = np.zeros(N_COMBOS, dtype=np.int64)
for _i, (_a, _b) in enumerate(COMBO_CARDS):
    _r1, _s1 = (_a >> 2) + 2, _a & 3
    _r2, _s2 = (_b >> 2) + 2, _b & 3
    _hi, _lo = max(_r1, _r2), min(_r1, _r2)
    _row, _col = _grid_cell(_hi, _lo, suited=(_s1 == _s2))
    _CLASS_OF_COMBO[_i] = _row * 13 + _col

CLASS_OF_COMBO = _CLASS_OF_COMBO
CLASS_NAMES = [class_name(r, c) for r in range(13) for c in range(13)]
_CLASS_ID = {name: i for i, name in enumerate(CLASS_NAMES)}
CLASS_MEMBER_COUNT = np.bincount(CLASS_OF_COMBO, minlength=169)

# The 51 combos that hold each card.
_COMBOS_OF_CARD = np.array([np.flatnonzero((COMBO_CARDS == c).any(axis=1)) for c in range(DECK_SIZE)])


def combos_with_any(cards: Iterable[int]) -> np.ndarray:
    """Boolean mask over the 1326 combos that contain any of the given cards."""
    mask = np.zeros(N_COMBOS, dtype=bool)
    mask[_COMBOS_OF_CARD[list(cards)]] = True
    return mask


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassGrid169:
    """13x13 aggregation of a combo grid (pairs diagonal, suited above)."""

    weights: np.ndarray  # (13, 13)


@dataclass(frozen=True)
class ComboGrid:
    """Immutable weight vector over all 1,326 combos.

    degenerate marks a grid whose support was annihilated by card removal or
    reshaping and was reset to uniform-over-live as a defined fallback.
    """

    weights: np.ndarray
    degenerate: bool = field(default=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (N_COMBOS,):
            raise RangeConfigError(f"grid needs {N_COMBOS} weights, got {w.shape}")
        if (w < 0).any():
            raise RangeConfigError("negative combo weight")
        object.__setattr__(self, "weights", w)

    @classmethod
    def _trusted(cls, weights: np.ndarray, degenerate: bool = False) -> "ComboGrid":
        """A grid over weights this module computed: a float array of the
        right shape, nonnegative by construction, so not checked again."""
        grid = object.__new__(cls)
        object.__setattr__(grid, "weights", weights)
        object.__setattr__(grid, "degenerate", degenerate)
        return grid

    @classmethod
    def uniform(cls) -> "ComboGrid":
        return cls(np.full(N_COMBOS, 1.0 / N_COMBOS))

    def total(self) -> float:
        return float(self.weights.sum())

    def support_count(self) -> int:
        return int((self.weights > 0).sum())

    def support_fraction(self) -> float:
        return self.support_count() / N_COMBOS

    def weight_of_combo(self, c1: int, c2: int) -> float:
        return float(self.weights[combo_index(c1, c2)])

    def normalized(self) -> "ComboGrid":
        t = self.weights.sum()
        if t <= 0:
            return ComboGrid._trusted(np.zeros(N_COMBOS), degenerate=True)
        return ComboGrid._trusted(self.weights / t, degenerate=self.degenerate)

    def strip(self, dead: Iterable[int]) -> "ComboGrid":
        """Zero every combo that intersects the dead cards, then renormalize.

        Idempotent. If nothing survives, fall back to uniform over combos
        that avoid the dead cards and flag the grid degenerate.
        """
        return self.strip_mask(combos_with_any(set(dead)))

    def strip_mask(self, kill: np.ndarray) -> "ComboGrid":
        """`strip` with the dead combos given as a mask, such as a board's
        `BoardContext.dead_mask`."""
        w = np.where(kill, 0.0, self.weights)
        t = w.sum()
        if t <= 0:
            live = ~kill
            n_live = int(live.sum())
            if n_live == 0:
                raise RangeConfigError("all combos dead; cannot strip")
            return ComboGrid._trusted(live / n_live, degenerate=True)
        return ComboGrid._trusted(w / t, degenerate=self.degenerate)

    def reweighted(self, factors: np.ndarray) -> "ComboGrid":
        """Multiply per-combo factors in, renormalizing; degenerate fallback
        keeps the old support uniform if everything zeroes out. A factor
        that leaves a negative weight raises RangeConfigError."""
        w = self.weights * np.asarray(factors, dtype=float)
        if (w < 0).any():
            raise RangeConfigError("negative combo weight")
        return self._renormalized(w)

    def _renormalized(self, w: np.ndarray) -> "ComboGrid":
        """`reweighted` for weights w = self.weights * factors that are
        nonnegative by construction."""
        t = w.sum()
        if t <= 0:
            support = self.weights > 0
            n = int(support.sum())
            if n == 0:
                raise RangeConfigError("reweighting an empty grid")
            return ComboGrid._trusted(support / n, degenerate=True)
        return ComboGrid._trusted(w / t, degenerate=self.degenerate)

    def class_view(self) -> ClassGrid169:
        agg = np.bincount(CLASS_OF_COMBO, weights=self.weights, minlength=169)
        return ClassGrid169(agg.reshape(13, 13))


# ---------------------------------------------------------------------------
# Range files
# ---------------------------------------------------------------------------


def parse_range_lines(lines: Iterable[str], *, source: str = "<range>") -> ComboGrid:
    """Range text format: one `<class|combo> <weight>` per line, # comments.

    Class lines set every member combo to the weight; combo lines override.
    The loaded grid is normalized.
    """
    class_w = np.zeros(169)
    combo_overrides: list[tuple[int, float]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise RangeConfigError(f"{source}:{lineno}: expected '<class|combo> <weight>'")
        token, weight_s = parts
        try:
            weight = float(weight_s)
        except ValueError:
            raise RangeConfigError(f"{source}:{lineno}: bad weight {weight_s!r}") from None
        if weight < 0:
            raise RangeConfigError(f"{source}:{lineno}: negative weight")
        if len(token) == 4 and token not in _CLASS_ID:
            try:
                idx = combo_index(*parse_cards(token))
            except (InvalidCardsError, ValueError):
                raise RangeConfigError(f"{source}:{lineno}: unknown combo {token!r}") from None
            combo_overrides.append((idx, weight))
        elif token in _CLASS_ID:
            class_w[_CLASS_ID[token]] = weight
        else:
            raise RangeConfigError(f"{source}:{lineno}: unknown class {token!r}")
    w = class_w[CLASS_OF_COMBO]
    for idx, weight in combo_overrides:
        w[idx] = weight
    grid = ComboGrid(w)
    if grid.total() <= 0:
        raise RangeConfigError(f"{source}: range is empty")
    return grid.normalized()


def load_range_file(path) -> ComboGrid:
    with open(path, encoding="utf-8") as f:
        return parse_range_lines(f, source=str(path))


def grid_to_lines(grid: ComboGrid) -> list[str]:
    """Serialize a grid for snapshots, one `<combo> <weight>` line per live combo."""
    lines = []
    for idx in np.flatnonzero(grid.weights > 0):
        lines.append(f"{combo_str(int(idx))} {grid.weights[idx]:.10g}")
    return lines


# ---------------------------------------------------------------------------
# Pre-flop assignment
# ---------------------------------------------------------------------------

ARCHETYPES = (
    "Rock",
    "TightReg",
    "MediumReg",
    "LooseReg",
    "LAG",
    "Fish",
    "CallingStation",
    "Whale",
    "Unknown",
)

# Situations an observed pre-flop action maps onto. A big-blind check is
# involuntary and carries no file: it maps to the uniform live grid.
SITUATIONS = ("open", "call", "threebet")


def _read_shipped(archetype: str, situation: str) -> ComboGrid:
    name = f"{archetype.lower()}/{situation}.rng"
    text = (DATA_DIR / "ranges" / name).read_text(encoding="utf-8")
    return parse_range_lines(text.splitlines(), source=name)


# The shipped range of every (archetype, situation), read once at import.
SHIPPED_RANGES: dict[tuple[str, str], ComboGrid] = {
    (archetype, situation): _read_shipped(archetype, situation) for archetype in ARCHETYPES for situation in SITUATIONS
}


def assign_preflop_range(
    archetype: str, situation: str, *, class_multipliers: Mapping[int, float] | None = None
) -> ComboGrid:
    """Starting grid for an opponent given their archetype and observed
    pre-flop situation: one of SITUATIONS, or "check" (the uniform grid); any
    other word raises RangeConfigError. Per-player class multipliers (learned
    from showdowns) rescale classes before normalization. No dead cards are
    applied here."""
    if situation == "check":
        grid = ComboGrid.uniform()
    elif situation not in SITUATIONS:
        raise RangeConfigError(f"unknown pre-flop action {situation!r}")
    elif archetype not in ARCHETYPES:
        raise RangeConfigError(f"unknown archetype {archetype!r}")
    else:
        grid = SHIPPED_RANGES[archetype, situation]
    if class_multipliers:
        per_class = np.ones(169)
        for cid, mult in class_multipliers.items():
            per_class[cid] = mult
        grid = grid.reweighted(per_class[CLASS_OF_COMBO])
    return grid
