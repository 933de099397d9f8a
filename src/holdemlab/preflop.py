"""Pre-flop hand-class strength ordering and chart helpers.

Classes are scored with the Chen formula (a published expert heuristic:
high-card points, pair doubling, suited and connectedness bonuses) and
ranked into a combo-weighted percentile. Charts express "play the top X%
of hands" rules against that percentile, which is what the bot policies
and the hero baseline style consume.
"""
from __future__ import annotations

import math

import numpy as np

from .rangegrid import CLASS_MEMBER_COUNT, CLASS_NAMES, CLASS_OF_COMBO, RANKS_DESC, combo_index

_RANK_VALUE = {"A": 10.0, "K": 8.0, "Q": 7.0, "J": 6.0, "T": 5.0}
for _i, _ch in enumerate("98765432"):
    _RANK_VALUE[_ch] = (9 - _i) / 2.0


def chen_score(class_name: str) -> float:
    """Chen formula score for a 169-grid class name like 'AKs', '99', 'QJo'."""
    hi, lo = class_name[0], class_name[1]
    suited = class_name.endswith("s")
    pair = hi == lo
    score = _RANK_VALUE[hi]
    if pair:
        return max(5.0, score * 2.0)
    if suited:
        score += 2.0
    gap = RANKS_DESC.index(lo) - RANKS_DESC.index(hi) - 1
    if gap == 1:
        score -= 1.0
    elif gap == 2:
        score -= 2.0
    elif gap == 3:
        score -= 4.0
    elif gap >= 4:
        score -= 5.0
    if gap <= 1 and RANKS_DESC.index(hi) > RANKS_DESC.index("Q"):
        score += 1.0  # straight-making bonus for connected cards below queen
    return math.ceil(score * 2.0) / 2.0


def _build_percentiles() -> np.ndarray:
    scores = np.array([chen_score(name) for name in CLASS_NAMES])
    # Stable tiebreak: higher top rank, then higher second rank, then suited.
    tiebreak = np.array(
        [
            (12 - RANKS_DESC.index(n[0])) * 100
            + (12 - RANKS_DESC.index(n[1])) * 2
            + (1 if n.endswith("s") or len(n) == 2 else 0)
            for n in CLASS_NAMES
        ]
    )
    order = np.lexsort((-tiebreak, -scores))
    pct = np.zeros(169)
    cum = 0.0
    total = CLASS_MEMBER_COUNT.sum()
    for cid in order:
        pct[cid] = cum / total
        cum += CLASS_MEMBER_COUNT[cid]
    return pct


# Percentile of the _start_ of each class in the strength ordering:
# 0.0 for the best class, approaching 1.0 for the worst.
CLASS_PERCENTILE = _build_percentiles()
# The same percentile per combo, as plain floats for the bots' per-decision read.
_COMBO_PERCENTILE = tuple(CLASS_PERCENTILE[CLASS_OF_COMBO].tolist())


def combo_percentile(c1: int, c2: int) -> float:
    return _COMBO_PERCENTILE[combo_index(c1, c2)]
