"""Reference builder of the rank table, and the made-hand classifier it uses.

Each row of the shipped table (holdemlab.cards.rank_table) is what
`build_rank_row` makes here: every hole-rank pair scored with the kernel
(`score_cards_batch` by the fold, which never reads the table), classed by
`made_classes` and, below five ranks, given its straight outs by
`straight_outs`. `scripts/make_rank_table.py` builds the table with it, and
the rsm tests use it as the oracle for `BoardContext`'s features on any
board, flushes included.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from holdemlab.cards import (
    RANK_PAIRS,
    STRAIGHT_OUTS,
    STRAIGHT_TOP,
    HandCategory,
    pack_rank_entries,
    score_cards_batch,
)
from holdemlab.rsm import MadeClass


def _board_rank_tables(board: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-board lookup tables over hole ranks: the class of an unpaired
    holding by its higher rank, of a pocket pair by its rank, and of a pair
    made with one hole card by (rank, kicker >= T)."""
    distinct = sorted({c >> 2 for c in board}, reverse=True)
    bt0, bt1 = distinct[0], distinct[1] if len(distinct) > 1 else -1
    high, pocket, hole_pair = [], [], []
    for r in range(13):
        high.append(MadeClass.HIGH_CARD if r > bt0 or r == 12 else MadeClass.NOTHING)
        if r > bt0:
            pocket.append(MadeClass.OVERPAIR_BIG if r >= 11 else MadeClass.OVERPAIR_MID)
        else:
            pocket.append(MadeClass.PAIR_MID if r > bt1 else MadeClass.PAIR_WEAK)
        if r == bt0:
            hole_pair += [MadeClass.PAIR_TOP_WEAK, MadeClass.PAIR_TOP_GOOD]
        else:
            hole_pair += [MadeClass.PAIR_MID if r == bt1 else MadeClass.PAIR_WEAK] * 2
    return tuple(np.array(t, dtype=np.int64) for t in (high, pocket, hole_pair))


_PAIR = int(HandCategory.PAIR)
_TWO_PAIR = int(HandCategory.TWO_PAIR)
_TRIPS = int(HandCategory.TRIPS)
_STRAIGHT = int(HandCategory.STRAIGHT)
_FLUSH = int(HandCategory.FLUSH)
_FULL_HOUSE = int(HandCategory.FULL_HOUSE)
_STRAIGHT_FLUSH = int(HandCategory.STRAIGHT_FLUSH)
_MADE_TWO_PAIR = int(MadeClass.TWO_PAIR)

# Class of a made hand of category >= trips that the hole cards play in,
# by (category, pocket pair): a pocket pair that makes trips is a set.
_BIG_MADE = np.zeros((9, 2), dtype=np.int64)
for _cat, _cls in (
    (HandCategory.TRIPS, MadeClass.TRIPS),
    (HandCategory.STRAIGHT, MadeClass.STRAIGHT),
    (HandCategory.FLUSH, MadeClass.FLUSH),
    (HandCategory.FULL_HOUSE, MadeClass.FULL_HOUSE),
    (HandCategory.QUADS, MadeClass.QUADS),
    (HandCategory.STRAIGHT_FLUSH, MadeClass.STRAIGHT_FLUSH),
):
    _BIG_MADE[_cat] = _cls
_BIG_MADE[HandCategory.TRIPS, 1] = MadeClass.SET
_BIG_MADE = _BIG_MADE.ravel()


def made_classes(holes: np.ndarray, scores: np.ndarray, board: Sequence[int]) -> np.ndarray:
    """The rsm.MadeClass of each two-card holding, from its kernel score
    with the board: which hole cards play in the made hand."""
    suit_counts = np.bincount([c & 3 for c in board], minlength=4)
    board_mask = 0
    for c in board:
        board_mask |= 1 << (c >> 2)
    board_straight = int(STRAIGHT_TOP[board_mask]) if len(board) == 5 else -1
    high_t, pocket_t, hole_pair_t = _board_rank_tables(board)

    r1 = holes[:, 0] >> 2
    r2 = holes[:, 1] >> 2
    s1 = holes[:, 0] & 3
    s2 = holes[:, 1] & 3
    pocket = r1 == r2

    cat = scores >> 20
    nib0 = (scores >> 16) & 0xF
    nib1 = (scores >> 12) & 0xF
    hit1 = r1 == nib0
    hit2 = r2 == nib0
    second1 = r1 == nib1
    second2 = r2 == nib1

    made = high_t[np.maximum(r1, r2)]

    # One pair or two pair: which hole cards pair a paired rank. Both do
    # in a two pair without a pocket pair; a pocket pair is ranked against
    # the board; one hole card pairing is ranked with its kicker.
    two_pair = cat == _TWO_PAIR
    in1 = hit1 | (two_pair & second1)
    in2 = hit2 | (two_pair & second2)
    pr = np.where(in1, r1, r2)
    kick = np.where(in1, r2, r1)
    paired = np.where(in1 & in2, _MADE_TWO_PAIR, hole_pair_t[2 * pr + (kick >= 10)])
    paired = np.where(pocket, pocket_t[r1], paired)
    np.copyto(made, paired, where=((cat == _PAIR) | two_pair) & (in1 | in2))

    # Trips and better count only when a hole card plays: trips/set/quads
    # hold the hole rank, a full house holds it in either part, a straight
    # must beat the board's own, a flush needs a hole card of the suit.
    tot1 = suit_counts[s1] + 1 + (s1 == s2)
    tot2 = suit_counts[s2] + 1 + (s1 == s2)
    plays = hit1 | hit2 | ((cat == _FULL_HOUSE) & (second1 | second2))
    plays |= cat == _STRAIGHT_FLUSH
    plays = np.where(cat == _STRAIGHT, nib0 > board_straight, plays)
    plays = np.where(cat == _FLUSH, (tot1 >= 5) | (tot2 >= 5), plays)
    np.copyto(made, _BIG_MADE[2 * cat + pocket], where=(cat >= _TRIPS) & plays)
    return made


def straight_outs(holes: np.ndarray, board: Sequence[int]) -> np.ndarray:
    """Ranks that complete a straight for each holding, capped at 2. A rank
    counts when it is absent and the straight it makes beats whatever the
    board plus that rank makes alone."""
    board_mask = 0
    for c in board:
        board_mask |= 1 << (c >> 2)
    mask_full = board_mask | (np.int64(1) << (holes[:, 0] >> 2)) | (np.int64(1) << (holes[:, 1] >> 2))
    ranks_out = STRAIGHT_OUTS[mask_full]
    for r in range(13):
        board_with = int(STRAIGHT_TOP[board_mask | (1 << r)])
        if board_with < 0:
            continue
        made_with = STRAIGHT_TOP[mask_full | (1 << r)]
        ranks_out -= ((mask_full >> r) & 1 == 0) & (made_with >= 0) & (made_with <= board_with)
    return np.minimum(ranks_out, 2)


def build_rank_row(ranks: Sequence[int]) -> np.ndarray:
    """The rank table's row for a multiset of 3, 4 or 5 ranks, from the
    kernel: each rank pair's score with the ranks, made_classes and, below
    five ranks, straight_outs, packed by cards.pack_rank_entries.

    The ranks go on a board round-robin over the suits in sorted order (so
    no suit holds more than two), and each pair takes two cards of the suit
    the board holds least (the same card twice for a pocket pair; repeated
    cards count by multiplicity), so nothing makes a flush."""
    board = [r * 4 + i % 4 for i, r in enumerate(sorted(ranks))]
    suit_counts = [sum(c & 3 == s for c in board) for s in range(4)]
    pair_cards = RANK_PAIRS * 4 + suit_counts.index(min(suit_counts))
    scores = score_cards_batch(pair_cards, board)
    outs = straight_outs(pair_cards, board) if len(board) < 5 else 0
    return pack_rank_entries(scores, made_classes(pair_cards, scores, board), outs)
