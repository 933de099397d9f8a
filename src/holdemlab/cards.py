"""Card primitives, deck shuffling, hand evaluation, and equity oracles.

Cards are small value objects; hot paths work on integer card indices
(0..51, rank-major). `hand_score` scores one hand of 5..7 cards from
precomputed rank-mask tables. `score_cards_batch` scores many two-card
hands on many runouts of one board from the rank table, which is what
equity sweeps and all-in locks need. The fold that builds the table's
rows is kept as the reference in tests/reference_rank.py.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # rsm imports this module
    from .rsm import BoardContext

RANK_CHARS = "23456789TJQKA"
SUIT_CHARS = "cdhs"

DECK_SIZE = 52
N_COMBOS = 1326
# The data files shipped beside the modules.
DATA_DIR = Path(__file__).with_name("data")


class InvalidCardsError(ValueError):
    """Raised for malformed, duplicate, or out-of-domain card input."""


class UndefinedRangeError(ValueError):
    """Raised when an equity query is made against an empty-support range."""


@dataclass(frozen=True, order=True)
class Card:
    """A playing card. Ordering is (rank, suit) with suits in c<d<h<s order."""

    rank: int  # 2..14, where 11=J, 12=Q, 13=K, 14=A
    suit: int  # 0..3 indexing into "cdhs"

    def __post_init__(self) -> None:
        if not (2 <= self.rank <= 14) or not (0 <= self.suit <= 3):
            raise InvalidCardsError(f"bad card ({self.rank},{self.suit})")

    @property
    def index(self) -> int:
        return (self.rank - 2) * 4 + self.suit

    @classmethod
    def parse(cls, text: str) -> "Card":
        t = text.strip()
        if len(t) != 2:
            raise InvalidCardsError(f"cannot parse card {text!r}")
        try:
            rank = RANK_CHARS.index(t[0].upper()) + 2
            suit = SUIT_CHARS.index(t[1].lower())
        except ValueError:
            raise InvalidCardsError(f"cannot parse card {text!r}") from None
        return cls(rank, suit)


def card_index(text: str) -> int:
    return Card.parse(text).index


def card_str(idx: int) -> str:
    return RANK_CHARS[idx >> 2] + SUIT_CHARS[idx & 3]


def parse_cards(text: str) -> list[int]:
    """Parse "9h9s" or "9h 9s Kc" into card indices."""
    t = text.replace(",", " ").strip()
    chunks = t.split() if " " in t else [t[i : i + 2] for i in range(0, len(t), 2)]
    return [card_index(c) for c in chunks]


def cards_str(indices: Iterable[int]) -> str:
    return " ".join(card_str(i) for i in indices)


def validate_board(board: Sequence[int]) -> tuple[int, ...]:
    b = tuple(board)
    if len(b) not in (0, 3, 4, 5):
        raise InvalidCardsError(f"board must have 0/3/4/5 cards, got {len(b)}")
    if len(set(b)) != len(b):
        raise InvalidCardsError("duplicate cards on board")
    return b


def _require_distinct(cards: Sequence[int]) -> None:
    if len(set(cards)) != len(cards):
        raise InvalidCardsError(f"duplicate cards in {cards_str(cards)}")


class HandCategory(IntEnum):
    HIGH_CARD = 0
    PAIR = 1
    TWO_PAIR = 2
    TRIPS = 3
    STRAIGHT = 4
    FLUSH = 5
    FULL_HOUSE = 6
    QUADS = 7
    STRAIGHT_FLUSH = 8


# ---------------------------------------------------------------------------
# Rank-mask lookup tables.
#
# Masks are 13-bit integers with bit r set when rank index r (0 = deuce,
# 12 = ace) is present. STRAIGHT_TOP maps a mask to the top rank index of
# the best straight in it (wheel counts, top = 3), or -1. TOP5 packs the
# five highest set bits into nibbles (bits 19..16 hold the highest).
# ---------------------------------------------------------------------------

_WHEEL = (1 << 12) | 0b1111


def _build_luts() -> tuple[np.ndarray, np.ndarray]:
    masks = np.arange(8192, dtype=np.int64)
    straight = np.full(8192, -1, dtype=np.int64)
    straight[masks & _WHEEL == _WHEEL] = 3
    for hi in range(4, 13):  # higher straights overwrite lower ones
        need = 0b11111 << (hi - 4)
        straight[masks & need == need] = hi
    ranks = np.arange(12, -1, -1, dtype=np.int64)  # highest first
    present = masks[:, None] >> ranks & 1
    above = np.cumsum(present, axis=1) - present  # set bits above each rank
    nibble = ranks << 4 * np.maximum(4 - above, 0)
    top5 = np.where((present == 1) & (above < 5), nibble, 0).sum(axis=1)
    return straight, top5


STRAIGHT_TOP, TOP5 = _build_luts()
_STRAIGHT_TOP_PY = STRAIGHT_TOP.tolist()
_TOP5_PY = TOP5.tolist()


def _straight_outs() -> np.ndarray:
    masks = np.arange(8192, dtype=np.int64)
    outs = np.zeros(8192, dtype=np.int64)
    for r in range(13):
        outs += ((masks >> r) & 1 == 0) & (STRAIGHT_TOP[masks | (1 << r)] >= 0)
    return outs


# STRAIGHT_OUTS maps a mask to how many absent ranks would complete a
# straight with it (each rank is four outs).
STRAIGHT_OUTS = _straight_outs()

# Score layout: category << 20 | up to five rank nibbles (bit 16 highest).
_CAT_SHIFT = 20


def hand_score(cards: Sequence[int]) -> int:
    """Score the best five-card hand out of 5..7 card indices (higher wins)."""
    m1 = m2 = m3 = m4 = 0
    scnt = [0, 0, 0, 0]
    smask = [0, 0, 0, 0]
    for c in cards:
        r = c >> 2
        s = c & 3
        b = 1 << r
        if m1 & b:
            if m2 & b:
                if m3 & b:
                    m4 |= b
                else:
                    m3 |= b
            else:
                m2 |= b
        else:
            m1 |= b
        scnt[s] += 1
        smask[s] |= b
    for s in range(4):
        if scnt[s] >= 5:
            fm = smask[s]
            st = _STRAIGHT_TOP_PY[fm]
            if st >= 0:
                return (8 << _CAT_SHIFT) | (st << 16)
            return (5 << _CAT_SHIFT) | _TOP5_PY[fm]
    if m4:
        q = _TOP5_PY[m4] >> 16
        kick = _TOP5_PY[m1 & ~(1 << q)] >> 16
        return (7 << _CAT_SHIFT) | (q << 16) | (kick << 12)
    if m3:
        t = _TOP5_PY[m3] >> 16
        rest = m2 & ~(1 << t)
        if rest:
            p = _TOP5_PY[rest] >> 16
            return (6 << _CAT_SHIFT) | (t << 16) | (p << 12)
    st = _STRAIGHT_TOP_PY[m1]
    if st >= 0:
        return (4 << _CAT_SHIFT) | (st << 16)
    if m3:
        t = _TOP5_PY[m3] >> 16
        k2 = _TOP5_PY[m1 & ~(1 << t)] >> 12
        return (3 << _CAT_SHIFT) | (t << 16) | (k2 << 8)
    if m2:
        pp = _TOP5_PY[m2]
        p1 = pp >> 16
        rest = m2 & ~(1 << p1)
        if rest:
            p2 = _TOP5_PY[rest] >> 16
            kick = _TOP5_PY[m1 & ~(1 << p1) & ~(1 << p2)] >> 16
            return (2 << _CAT_SHIFT) | (p1 << 16) | (p2 << 12) | (kick << 8)
        k3 = _TOP5_PY[m1 & ~(1 << p1)] >> 8
        return (1 << _CAT_SHIFT) | (p1 << 16) | (k3 << 4)
    return _TOP5_PY[m1]


# ---------------------------------------------------------------------------
# The rank table.
#
# Without a flush, what two hole cards make with a board depends only on
# ranks. The table has a row for each sorted multiset of 3, 4 or 5 board
# ranks (455 + 1,820 + 6,188) and a column for each hole-rank pair lo <= hi
# (91, in (lo, hi) order). An entry packs the pair's score with the ranks,
# its rsm.MadeClass and, below five ranks, how many ranks complete a
# straight for it: score | made << 24 | outs << 28 (pack_rank_entries,
# rank_table_entries). Rows run block by block and, within a block, in
# colex order: sorted ranks r_0 <= r_1 <= ... are the set {r_i + i},
# numbered sum C(r_i + i, i + 1).
#
# scripts/make_rank_table.py builds every row with the reference builder in
# tests/reference_rank.py, which scores with its own fold and never reads
# the table. rank_table() reads the file whole on first use; the table is
# never written.
# ---------------------------------------------------------------------------

RANK_PAIRS = np.array([(lo, hi) for lo in range(13) for hi in range(lo, 13)], dtype=np.int64)
# The column of a pair of ranks, in either order.
RANK_PAIR_COLUMN = np.zeros((13, 13), dtype=np.int64)
RANK_PAIR_COLUMN[RANK_PAIRS[:, 0], RANK_PAIRS[:, 1]] = np.arange(len(RANK_PAIRS))
RANK_PAIR_COLUMN[RANK_PAIRS[:, 1], RANK_PAIRS[:, 0]] = np.arange(len(RANK_PAIRS))
RANK_TABLE_ROWS = 455 + 1820 + 6188
_ROW_OFFSET = {3: 0, 4: 455, 5: 455 + 1820}
# _COLEX[i, r] = C(r + i, i + 1), the term of a rank r that is i-th smallest.
_COLEX = np.array([[math.comb(r + i, i + 1) for r in range(13)] for i in range(5)], dtype=np.int64)
_COLEX_PY = _COLEX.tolist()
# _COLEX flat, and where each of its rows starts there.
_COLEX_FLAT = _COLEX.ravel()
_COLEX_AT = 13 * np.arange(5)
# Row sums of up to five int64 columns are taken as a product with ones:
# exact, and faster than .sum(axis=1) at every shape that is scored.
_ONES = np.ones(5, dtype=np.int64)
# Per card, a one in its suit's count (4 bits a suit) and its rank's bit in
# its suit's rank mask (16 bits a suit).
_CARD_COUNT = np.int64(1) << 4 * (np.arange(DECK_SIZE) & 3)
_CARD_BITS = np.int64(1) << 16 * (np.arange(DECK_SIZE) & 3) + (np.arange(DECK_SIZE) >> 2)


def rank_table_row(ranks: Iterable[int]) -> int:
    """The rank table's row of a multiset of 3, 4 or 5 ranks (0 = deuce)."""
    ranks = sorted(ranks)
    return _ROW_OFFSET[len(ranks)] + sum(_COLEX_PY[i][r] for i, r in enumerate(ranks))


_MADE_SHIFT = 24
_OUTS_SHIFT = 28
_SCORE_MASK = (1 << _MADE_SHIFT) - 1


@functools.cache
def rank_table() -> np.ndarray:
    """The rank table, read-only, read from its file on first use."""
    path = DATA_DIR / "rank_table.npy"
    table = np.load(path)
    if table.dtype != np.int32 or table.shape != (RANK_TABLE_ROWS, len(RANK_PAIRS)):
        raise ValueError(f"{path}: want int32 {(RANK_TABLE_ROWS, len(RANK_PAIRS))}, got {table.dtype} {table.shape}")
    table.flags.writeable = False
    return table


def pack_rank_entries(scores: np.ndarray, made: np.ndarray, outs: np.ndarray) -> np.ndarray:
    """Rank-table entries of scores, made classes and straight outs."""
    return scores | made << _MADE_SHIFT | outs << _OUTS_SHIFT


def rank_table_entries(ranks: Iterable[int], columns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scores, made classes and straight outs in the rank table's row of a
    multiset of board ranks, at the given rank-pair columns."""
    packed = rank_table()[rank_table_row(ranks)].astype(np.int64)[columns]
    return packed & _SCORE_MASK, packed >> _MADE_SHIFT & 0xF, packed >> _OUTS_SHIFT


# A flush's score by its suit's rank mask.
FLUSH_SCORE = np.where(STRAIGHT_TOP >= 0, 8 << _CAT_SHIFT | STRAIGHT_TOP << 16, 5 << _CAT_SHIFT | TOP5)


def score_cards_batch(cards: np.ndarray, board: Sequence[int], holes: Sequence[Sequence[int]]) -> np.ndarray:
    """Scores of two-card hands, as hand_score gives them, on each row of an
    (n, k) array of cards that completes the board to five cards (len(board)
    + k == 5: every runout an equity sweep or an all-in lock scores). The
    result is (len(holes), n), hand i scored with row r and the board.
    Cards may repeat and then count with multiplicity. Other shapes raise
    InvalidCardsError.

    The rank table gives each (hand, row) its score without a flush. A
    flush scores in another category than anything without one, so where
    the hand brings a suit to five cards the score is the higher of the
    two."""
    rows = np.asarray(cards, dtype=np.int64)
    n, k = rows.shape
    hands = np.asarray(holes, dtype=np.int64).reshape(len(holes), -1)
    if hands.shape[1] != 2 or len(board) + k != 5:
        raise InvalidCardsError(
            f"holes must be two-card hands on rows that complete the board to five cards,"
            f" not {hands.shape[1]}-card hands on {len(board)} + {k} cards"
        )
    ranks = np.empty((n, 5), dtype=np.int8)  # narrow: the row sort runs faster
    ranks[:, :k] = rows >> 2
    ranks[:, k:] = [c >> 2 for c in board]
    ranks.sort(axis=1)
    table_rows = _COLEX_FLAT[ranks + _COLEX_AT] @ _ONES + _ROW_OFFSET[5]
    columns = RANK_PAIR_COLUMN[hands[:, 0] >> 2, hands[:, 1] >> 2]
    out = rank_table()[table_rows[None, :], columns[:, None]].astype(np.int64)
    out &= _SCORE_MASK

    # Suit counts (4 bits a suit) and rank masks (16 bits a suit), four suits
    # to an integer. Adding 5 (or 3) to a count sets the count's top bit when
    # it holds 3 (or 5) or more.
    # Two hole cards make a flush only with three of a suit among the five
    # other cards, and only one suit can have three of five.
    board_count = board_bits = 0
    for c in board:
        board_count += 1 << 4 * (c & 3)
        board_bits |= 1 << 16 * (c & 3) + (c >> 2)
    count = _CARD_COUNT[rows] @ _ONES[:k] + board_count
    three = (count + 0x5555) & 0x8888
    near = np.flatnonzero(three)
    if near.size:
        hand, at = np.nonzero((count[near] + _CARD_COUNT[hands].sum(axis=1)[:, None] + 0x3333) & 0x8888)
        if hand.size:
            col = near[at]
            bits = np.bitwise_or.reduce(_CARD_BITS[rows[col]], axis=1) | board_bits
            bits |= _CARD_BITS[hands[hand, 0]] | _CARD_BITS[hands[hand, 1]]
            top = three[col]
            suit = (top > 0x8).astype(np.int64) + (top > 0x80) + (top > 0x800)
            flush = FLUSH_SCORE[bits >> 16 * suit & 0x1FFF]
            out[hand, col] = np.maximum(out[hand, col], flush)
    return out


@dataclass(frozen=True)
class HandValue:
    """Evaluated hand: category plus tiebreak ranks (2..14, most significant first)."""

    category: HandCategory
    tiebreak: tuple[int, ...]

    @classmethod
    def from_score(cls, score: int) -> "HandValue":
        cat = HandCategory(score >> _CAT_SHIFT)
        n_ranks = {
            HandCategory.HIGH_CARD: 5,
            HandCategory.PAIR: 4,
            HandCategory.TWO_PAIR: 3,
            HandCategory.TRIPS: 3,
            HandCategory.STRAIGHT: 1,
            HandCategory.FLUSH: 5,
            HandCategory.FULL_HOUSE: 2,
            HandCategory.QUADS: 2,
            HandCategory.STRAIGHT_FLUSH: 1,
        }[cat]
        ranks = tuple(((score >> (16 - 4 * i)) & 0xF) + 2 for i in range(n_ranks))
        return cls(cat, ranks)


def evaluate7(hole: Sequence[int], board: Sequence[int]) -> HandValue:
    """Best five-card hand from two hole cards and a five-card board."""
    if len(hole) != 2 or len(board) != 5:
        raise InvalidCardsError("evaluate7 needs 2 hole cards and a 5-card board")
    cards = tuple(hole) + tuple(board)
    _require_distinct(cards)
    return HandValue.from_score(hand_score(cards))


# ---------------------------------------------------------------------------
# Deterministic dealing
# ---------------------------------------------------------------------------


class DealRng:
    """Seedable card stream. Identical (seed, stream) gives identical deals.

    One instance per simulated table; instances are not safe to share
    across threads.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,)))
        )

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def shuffled_deck(self) -> list[int]:
        return self._gen.permutation(DECK_SIZE).tolist()

    def randint(self, n: int) -> int:
        return int(self._gen.integers(0, n))

    def random(self) -> float:
        return float(self._gen.random())


# ---------------------------------------------------------------------------
# Equity oracles
# ---------------------------------------------------------------------------


# C(n, k) for the deck sizes and runout lengths that are unranked.
_BINOM = np.array([[math.comb(n, k) for k in range(6)] for n in range(DECK_SIZE + 1)], dtype=np.int64)


@functools.cache
def _least_n(k: int) -> np.ndarray:
    """Entry r is the least y with C(y, k) >= r, for r from 1 to C(52, k)
    (entry 0 is unused): y fills the C(y, k) - C(y - 1, k) entries it
    answers. Read-only, one byte an entry: 2.6 MB for k = 5, 2.9 MB for
    k = 2..5."""
    table = np.repeat(np.arange(DECK_SIZE + 1, dtype=np.uint8), np.diff(_BINOM[:, k], prepend=-1))
    table.flags.writeable = False
    return table


def _unrank_combinations(n: int, k: int, ranks: np.ndarray) -> np.ndarray:
    """Row i holds the element positions of combination number ranks[i] of
    range(n) choose k, numbered in itertools.combinations order, so a sample
    of runout numbers becomes runouts without listing every runout.

    This is the combinatorial number system read backwards (Buckles and
    Lybanon, ACM TOMS 3(2), 1977): the combinations whose first element is
    past x are the last C(n - 1 - x, k) of them, so with r = C(n, k) - rank
    counting from the end, the first element is n - y for the least y with
    C(y, k) >= r, and the other k - 1 elements are combination
    r - C(y - 1, k), counted from the end, of the y - 1 positions past it."""
    r = _BINOM[n, k] - np.asarray(ranks, dtype=np.int64)
    out = np.empty((len(r), k), dtype=np.int64)
    for j in range(k - 1):
        y = _least_n(k - j)[r]
        out[:, j] = n - y
        r -= _BINOM[y - 1, k - j]
    if k:  # C(y, 1) = y: the least y is r itself
        out[:, -1] = n - r
    return out


def _pot_shares(holes: Sequence[Sequence[int]], runs: np.ndarray, board: Sequence[int]) -> np.ndarray:
    """Per runout, the first hand's share of the pot against the others:
    1/k when it is one of k best hands, else 0."""
    scores = score_cards_batch(runs, board, holes)  # (hands, runouts)
    best = scores.max(axis=0)
    first_best = scores[0] == best
    n_best = (scores == best).sum(axis=0)
    return np.where(first_best, 1.0 / n_best, 0.0)


def pot_equity(
    holes: Sequence[Sequence[int]], board: Sequence[int], *, samples: int | None = None, seed: int = 0
) -> float:
    """The first hand's expected share of the pot against the others' known
    hands, ties split evenly. Every runout is listed, in
    itertools.combinations order and 200,000 at a time, unless there are
    more than `samples` of them: then `samples` runout numbers drawn with
    PCG64(seed) are unranked straight to their cards, so the result is
    deterministic per seed and the full runout list is never built."""
    used = {c for hole in holes for c in hole} | set(board)
    deck = np.array([c for c in range(DECK_SIZE) if c not in used], dtype=np.int64)
    need = 5 - len(board)
    total = math.comb(len(deck), need)
    if samples is not None and total > samples:
        gen = np.random.Generator(np.random.PCG64(seed))
        chunks, n = [gen.choice(total, size=samples, replace=False)], samples
    else:
        chunks, n = (np.arange(lo, min(lo + 200_000, total)) for lo in range(0, total, 200_000)), total
    points = 0.0
    for picks in chunks:
        runs = deck[_unrank_combinations(len(deck), need, picks)]
        points += float(_pot_shares(holes, runs, board).sum())
    return points / n


def equity_exhaustive(hero: Sequence[int], villain: Sequence[int], board: Sequence[int]) -> float:
    """Exact equity of hero vs one known villain hand: wins plus half of ties,
    enumerating every remaining runout."""
    board = validate_board(board)
    _require_distinct(tuple(hero) + tuple(villain) + board)
    if len(hero) != 2 or len(villain) != 2:
        raise InvalidCardsError("both hands need exactly 2 cards")
    return pot_equity((hero, villain), board)


def _weighted_draws(gen: np.random.Generator, items: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """n draws with replacement from items, each with probability its share
    of the weights: one uniform per draw, read through the weights'
    cumulative distribution. These are the draws and the stream that
    `gen.choice(items, size=n, p=weights / weights.sum())` makes, without
    its checks of the probabilities."""
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    return items[cdf.searchsorted(gen.random(n), side="right")]


def equity_vs_range(
    hero: Sequence[int],
    range_weights: np.ndarray,
    ctx: BoardContext,
    *,
    runout_samples: int | None = None,
    combo_samples: int | None = None,
    rng: DealRng | None = None,
) -> float:
    """Weight-averaged equity of hero against a 1326-combo weighted range on
    a flop, turn or river.

    The runouts are enumerated exhaustively unless runout_samples is given.
    combo_samples optionally subsamples the range support (weighted), which
    is what the decision layer uses to keep per-decision cost flat.

    ctx is the street's `rsm.BoardContext`, as for `rets.chib`, and the
    board is its board. Its `hero_masks` give the
    dead combos, and on a river its `scores` give every combo's hand, so no
    runout is scored.
    """
    from . import rangegrid  # local import; rangegrid depends on cards

    _require_distinct(tuple(hero) + ctx.board)
    dead_mask = ctx.hero_masks(hero)[0]
    w = np.where(dead_mask, 0.0, np.asarray(range_weights, dtype=float))
    total = w.sum()
    if total <= 0:
        raise UndefinedRangeError("range has no live support against this hero/board")
    w = w / total
    support = np.flatnonzero(w > 0)

    gen = (rng or DealRng(0)).generator
    sampled = combo_samples is not None and combo_samples < len(support)
    if sampled:
        picks = _weighted_draws(gen, support, w[support], combo_samples)

    if len(ctx.board) == 5:
        # Every pick's points are 0, 1/2 or 1, so their sum over the picks
        # is exact and equals the count-weighted sum over distinct combos.
        hs = ctx.scores[rangegrid.combo_index(*hero)]
        vscores = ctx.scores[picks if sampled else support]
        pts = np.where(hs > vscores, 1.0, np.where(hs == vscores, 0.5, 0.0))
        if sampled:
            return float(pts.sum()) / combo_samples
        sub_w = w[support]
        return float((pts * sub_w).sum()) / float(sub_w.sum())

    if sampled:
        counts = np.bincount(picks, minlength=N_COMBOS)
        support = np.flatnonzero(counts)
        sub_w = counts[support].astype(float)
    else:
        sub_w = w[support]

    combos = rangegrid.COMBO_CARDS[support]  # (c, 2)
    need = 5 - len(ctx.board)
    dead_cards = np.zeros(DECK_SIZE, dtype=bool)
    dead_cards[[*hero, *ctx.board]] = True
    deck = np.flatnonzero(~dead_cards)
    total = math.comb(len(deck), need)
    if runout_samples is not None and runout_samples < total:
        picks = gen.choice(total, size=runout_samples, replace=False)
    else:
        picks = np.arange(total)
    runs = deck[_unrank_combinations(len(deck), need, picks)]

    m = runs.shape[0]
    scores = score_cards_batch(runs, ctx.board, np.concatenate([np.array([hero], dtype=np.int64), combos]))
    hs, vscores = scores[:1], scores[1:]
    # villain cards colliding with a runout invalidate that runout; the
    # 52-bit card sets of the runouts and combos find them
    run_cards = np.bitwise_or.reduce(np.int64(1) << runs, axis=1)
    combo_cards = (np.int64(1) << combos[:, 0]) | (np.int64(1) << combos[:, 1])
    collide = (combo_cards[:, None] & run_cards[None, :]) != 0
    pts = np.where(hs > vscores, 1.0, np.where(hs == vscores, 0.5, 0.0))
    pts[collide] = 0.0
    valid = m - collide.sum(axis=1)
    eq = pts.sum(axis=1) / np.maximum(valid, 1)
    ok = valid > 0
    total_weight = float(sub_w[ok].sum())
    if total_weight <= 0:
        raise UndefinedRangeError("no combo in range has a legal runout")
    return float((eq[ok] * sub_w[ok]).sum()) / total_weight
