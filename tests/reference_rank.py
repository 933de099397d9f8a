"""Reference builder of the rank table, and the scorer and made-hand
classifier it uses.

Each row of the shipped table (holdemlab.cards.rank_table) is what
`build_rank_row` makes here: every hole-rank pair scored by `fold_scores`
(a vectorized hand_score that never reads the table), classed by
`made_classes` and, below five ranks, given its straight outs by
`straight_outs`. `scripts/make_rank_table.py` builds the table with it.
The tests use `fold_scores` as the oracle for `cards.score_cards_batch`
and the rest for `BoardContext`'s features on any board, flushes included.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from holdemlab.cards import (
    RANK_PAIRS,
    STRAIGHT_OUTS,
    STRAIGHT_TOP,
    TOP5,
    HandCategory,
    pack_rank_entries,
)
from holdemlab.rsm import MadeClass

# The score layout of cards.hand_score: category << 20 | up to five rank
# nibbles (bit 16 highest).
_CAT_SHIFT = 20


def fold_scores(cards: np.ndarray, board: Sequence[int] = ()) -> np.ndarray:
    """hand_score over the rows of an (n, k) array of card indices, each
    scored with a board shared by every row; each row with the board holds
    5..7 cards. Cards may repeat and then count with multiplicity. The
    board is folded once into rank masks and suit data, then the rows once
    on top of it."""
    cards = np.asarray(cards, dtype=np.int64)
    n, k = cards.shape
    fold = (0, 0, 0, 0, 0, 0)
    for c in board:
        fold = _add_card(fold, int(c))
    # Suit data is kept only when some suit can reach five cards.
    suits = [s for s in range(4) if (fold[4] >> 4 * s & 0xF) + k >= 5]
    fold = tuple(np.full(n, v, dtype=np.int64) for v in fold[: 6 if suits else 4])
    for col in cards.T:
        fold = _add_card(fold, col)
    fmask = np.zeros(n, dtype=np.int64)
    has_flush = np.zeros(n, dtype=bool)
    # At most one suit reaches five cards among seven.
    for s in suits:
        hit = (fold[4] >> 4 * s & 0xF) >= 5
        np.copyto(fmask, fold[5] >> 16 * s & 0x1FFF, where=hit)
        has_flush |= hit
    return _score_masks(*fold[:4], fmask, has_flush)


def _add_card(fold, c):
    """fold with card c added. fold holds rank masks m1..m4 (bit r set when
    rank r is held at least 1..4 times) and, optionally, per-suit card counts
    (4 bits a suit) and rank masks (16 bits a suit) packed four suits to an
    integer. c and the entries are Python ints or arrays of one length."""
    b = 1 << (c >> 2)
    if len(fold) == 4:
        m1, m2, m3, m4 = fold
        return m1 | b, m2 | (m1 & b), m3 | (m2 & b), m4 | (m3 & b)
    m1, m2, m3, m4, cnt, msk = fold
    s = c & 3
    return m1 | b, m2 | (m1 & b), m3 | (m2 & b), m4 | (m3 & b), cnt + (1 << 4 * s), msk | b << 16 * s


# The top rank index of a mask, the top two and top three ranks already
# shifted into the trips and pair kicker slots, and "every rank but r".
_TOP_RANK = TOP5 >> 16
_TRIPS_KICK = (TOP5 >> 12) << 8
_PAIR_KICK = (TOP5 >> 8) << 4
_CLEAR_BIT = ~(np.int64(1) << np.arange(13, dtype=np.int64))


def _score_masks(m1, m2, m3, m4, fmask, has_flush) -> np.ndarray:
    """Scores from per-row rank masks (m_k: ranks held at least k times) and
    the flush suit's rank mask; same layout as hand_score."""
    sf_top = STRAIGHT_TOP[fmask]
    st_top = STRAIGHT_TOP[m1]

    q = _TOP_RANK[m4]
    quads = (7 << _CAT_SHIFT) | (q << 16) | (_TOP_RANK[m1 & _CLEAR_BIT[q]] << 12)

    t = _TOP_RANK[m3]
    t_clear = _CLEAR_BIT[t]
    t_head = t << 16
    fh_rest = m2 & t_clear
    full = (6 << _CAT_SHIFT) | t_head | (_TOP_RANK[fh_rest] << 12)
    trips = (3 << _CAT_SHIFT) | t_head | _TRIPS_KICK[m1 & t_clear]

    p1 = _TOP_RANK[m2]
    p1_clear = _CLEAR_BIT[p1]
    p1_head = p1 << 16
    rest2 = m2 & p1_clear
    p2 = _TOP_RANK[rest2]
    kick1 = m1 & p1_clear
    twopair = (2 << _CAT_SHIFT) | p1_head | (p2 << 12) | (_TOP_RANK[kick1 & _CLEAR_BIT[p2]] << 8)
    pair = (1 << _CAT_SHIFT) | p1_head | _PAIR_KICK[kick1]

    # Lowest category first, so each row ends on its best one.
    out = TOP5[m1]
    np.copyto(out, pair, where=m2 > 0)
    np.copyto(out, twopair, where=rest2 > 0)
    has_trips = m3 > 0
    np.copyto(out, trips, where=has_trips)
    np.copyto(out, (4 << _CAT_SHIFT) | (st_top << 16), where=st_top >= 0)
    np.copyto(out, (5 << _CAT_SHIFT) | TOP5[fmask], where=has_flush)
    np.copyto(out, full, where=has_trips & (fh_rest > 0))
    np.copyto(out, quads, where=m4 > 0)
    np.copyto(out, (8 << _CAT_SHIFT) | (sf_top << 16), where=sf_top >= 0)
    return out


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
    """The rsm.MadeClass of each two-card holding, from its score with the
    board: which hole cards play in the made hand."""
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
    """The rank table's row for a multiset of 3, 4 or 5 ranks: each rank
    pair's score with the ranks by fold_scores, made_classes and, below
    five ranks, straight_outs, packed by cards.pack_rank_entries.

    The ranks go on a board round-robin over the suits in sorted order (so
    no suit holds more than two), and each pair takes two cards of the suit
    the board holds least (the same card twice for a pocket pair; repeated
    cards count by multiplicity), so nothing makes a flush."""
    board = [r * 4 + i % 4 for i, r in enumerate(sorted(ranks))]
    suit_counts = [sum(c & 3 == s for c in board) for s in range(4)]
    pair_cards = RANK_PAIRS * 4 + suit_counts.index(min(suit_counts))
    scores = fold_scores(pair_cards, board)
    outs = straight_outs(pair_cards, board) if len(board) < 5 else 0
    return pack_rank_entries(scores, made_classes(pair_cards, scores, board), outs)
