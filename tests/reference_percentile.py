"""Reference percentile used as an oracle for `rsm.BoardContext.percentile`
on any board, flop, turn or river.

It ranks every combo's score against the sorted scores of all live combos,
one binary search per combo for the scores below and one for the scores
below or equal: the share each combo beats, ties counting half, with dead
combos (score -1, below every live score) at 0.
"""
from __future__ import annotations

import numpy as np


def percentile_by_sorting(scores: np.ndarray, dead_mask: np.ndarray) -> np.ndarray:
    live_scores = np.sort(scores[~dead_mask])
    n_live = max(live_scores.size, 1)
    pos_less = np.searchsorted(live_scores, scores, side="left")
    pos_leq = np.searchsorted(live_scores, scores, side="right")
    ties = pos_leq - pos_less
    return (pos_less + 0.5 * ties) / n_live
