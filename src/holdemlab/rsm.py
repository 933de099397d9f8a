"""Relative hand strength on an 11-point scale, with a learnable overlay.

The base model is rule-derived rather than a literal multi-dimensional
array: a holding is reduced to features (made-hand class relative to the
board, kicker tier, draw tier, board texture) and the rules map those to a
real value in [0, 10], rounded to a category on query. On complete boards
the value is anchored to the holding's percentile among all live opposing
combos, which keeps the scale monotone in absolute strength where draws
are dead. Learning applies clamped additive deltas per feature bucket.

Category meanings, low to high: 0 Niente (nothing), 1 HardlyAnything,
2 Weak, 3 Fair, 4 Decent, 5 Good, 6 Great, 7 Excellent, 8 Monster,
9 Nuts, 10 Alcatraz. Alcatraz is reserved for unbeatable hands such as
quads on a paired board that cripple the board and choke off action.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Sequence

import numpy as np

from .cards import (
    FLUSH_SCORE,
    RANK_PAIR_COLUMN,
    STRAIGHT_TOP,
    HandCategory,
    InvalidCardsError,
    hand_score,
    rank_table_entries,
    validate_board,
)
from .events import STREETS
from .rangegrid import COMBO_CARDS, DATA_DIR, N_COMBOS, combo_index, combos_with_any


class RsCategory(IntEnum):
    NIENTE = 0
    HARDLY_ANYTHING = 1
    WEAK = 2
    FAIR = 3
    DECENT = 4
    GOOD = 5
    GREAT = 6
    EXCELLENT = 7
    MONSTER = 8
    NUTS = 9
    ALCATRAZ = 10

    @property
    def label(self) -> str:
        """The member's name in title case without underscores: HardlyAnything."""
        return self.name.title().replace("_", "")


N_CATEGORIES = 11


class MadeClass(IntEnum):
    """Hole-card participation classes, ascending in typical strength."""

    NOTHING = 0
    HIGH_CARD = 1
    PAIR_WEAK = 2
    PAIR_MID = 3
    PAIR_TOP_WEAK = 4
    PAIR_TOP_GOOD = 5
    OVERPAIR_MID = 6
    OVERPAIR_BIG = 7
    TWO_PAIR = 8
    TRIPS = 9
    SET = 10
    STRAIGHT = 11
    FLUSH = 12
    FULL_HOUSE = 13
    QUADS = 14
    STRAIGHT_FLUSH = 15


class DrawTier(IntEnum):
    NONE = 0
    WEAK = 1  # gutshot-grade, ~4 outs
    STRONG = 2  # flush draw or 7+ straight outs
    COMBO = 3  # flush draw plus straight outs


# Rank windows a straight can use (index 0 = deuce), the wheel included, as
# rank masks; and by a board's rank mask, the most of its ranks one window
# holds.
_STRAIGHT_WINDOWS = np.array([0b11111 << lo for lo in range(9)] + [(1 << 12) | 0b1111])
_BEST_IN_WINDOW = (
    sum((np.arange(8192)[:, None] & _STRAIGHT_WINDOWS) >> r & 1 for r in range(13)).max(axis=1).tolist()
)


# ---------------------------------------------------------------------------
# Feature extraction (vectorized over many combos vs one board)
# ---------------------------------------------------------------------------


# Draw tier by (flush draw, straight-completing ranks capped at 2): a rank
# is 4 outs, so one rank is a gutshot and two are 8 outs.
_DRAW_TIER = np.array(
    [DrawTier.NONE, DrawTier.WEAK, DrawTier.STRONG, DrawTier.STRONG, DrawTier.COMBO, DrawTier.COMBO],
    dtype=np.int64,
)


# Without a flush, a combo's score, made class and straight outs depend only
# on its two hole ranks: the combos share the rank table's 91 columns.
_RANK_PAIR_OF_COMBO = RANK_PAIR_COLUMN[COMBO_CARDS[:, 0] >> 2, COMBO_CARDS[:, 1] >> 2]
_COMBO_OF_RANK_PAIR = np.unique(_RANK_PAIR_OF_COMBO, return_index=True)[1]  # a combo of each rank pair
_NO_COMBOS = np.zeros(0, dtype=np.int64)
_HIGH_RANK = COMBO_CARDS[:, 1] >> 2  # a combo's higher hole rank: its cards are in order
_CARD_IN_SUIT = (COMBO_CARDS & 3)[None, :, :] == np.arange(4)[:, None, None]  # [suit, combo, card]
_IN_SUIT = _CARD_IN_SUIT.sum(axis=2)  # [suit, combo]
_SUIT_BITS = (_CARD_IN_SUIT << (COMBO_CARDS >> 2)).sum(axis=2)  # [suit, combo]: its hole ranks in the suit

# A flush's made class by its suit's rank mask. A combo that makes the flush
# with a card of the suit plays in it, so its class is a flush or a straight
# flush; so is a combo without one on a straight-flush board.
_FLUSH_MADE = np.where(STRAIGHT_TOP >= 0, int(MadeClass.STRAIGHT_FLUSH), int(MadeClass.FLUSH))


# A flush draw, four of a suit with the hole cards, by (suit, board cards
# of the suit - 2): two of the suit in the hole to two on the board, or one
# to three. The mask is 3 where the combo draws, as _DRAW_TIER indexes it.
_FLUSH_DRAW = 3 * (_IN_SUIT[:, None, :] == np.array([2, 1])[None, :, None])


def _combo_features(board: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scores, made classes and draw tiers of all 1,326 combos on the
    board; then the scores of the 91 rank pairs without a flush, and the
    combos whose flush outscores their rank pair, which
    `BoardContext.percentile` ranks. The rank pairs come from the rank
    table. A combo that makes a flush takes its flush's score and class
    from the suit-mask tables, unless its rank-table entry is higher: a
    full house or quads, which a dead combo can make by repeating a board
    card. On a river of five cards of one suit every combo makes the
    flush; one with no card of the suit plays only its high card unless the
    board is a straight flush."""
    suit_counts = [0, 0, 0, 0]
    for c in board:
        suit_counts[c & 3] += 1
    flush_suit = max(range(4), key=suit_counts.__getitem__)
    n_suited = suit_counts[flush_suit]
    scores, made, outs = rank_table_entries([c >> 2 for c in board], _RANK_PAIR_OF_COMBO)
    column_scores = scores[_COMBO_OF_RANK_PAIR]
    flushed = _NO_COMBOS
    if n_suited >= 3:  # only then can two more cards make five
        rows = np.flatnonzero(_IN_SUIT[flush_suit] >= 5 - n_suited)
        board_bits = 0
        for c in board:
            if c & 3 == flush_suit:
                board_bits |= 1 << (c >> 2)
        masks = board_bits | _SUIT_BITS[flush_suit, rows]
        flush, ranked = FLUSH_SCORE[masks], scores[rows]
        won = flush > ranked
        scores[rows] = np.maximum(flush, ranked)
        made[rows] = np.where(won, _FLUSH_MADE[masks], made[rows])
        flushed = rows[won]
        if n_suited == 5 and STRAIGHT_TOP[board_bits] < 0:
            top = max(c >> 2 for c in board)
            high = np.where((_HIGH_RANK > top) | (_HIGH_RANK == 12), int(MadeClass.HIGH_CARD), int(MadeClass.NOTHING))
            np.copyto(made, high, where=_IN_SUIT[flush_suit] == 0)
    if len(board) >= 5:  # no draws on a complete board
        return scores, made, np.zeros(N_COMBOS, dtype=np.int64), column_scores, flushed
    for suit, n in enumerate(suit_counts):
        if n == 2 or n == 3:  # two such suits draw with disjoint combos
            outs += _FLUSH_DRAW[suit, n - 2]
    return scores, made, _DRAW_TIER[outs], column_scores, flushed


class BoardContext:
    """Everything strength-related that depends only on the board: scores,
    features, and the river percentile table for all 1,326 combos. A
    context is a pure function of its board. Its owner builds it once per
    street (`Brain` through `cached`, into a dict it clears each hand) and
    shares it across every grid on that board; nothing holds it at process
    level, so a run's results and speed do not depend on what ran before.

    The no-flush part of a build is one row of the rank table
    (`cards.rank_table`): per rank multiset of the board, the 91 rank
    pairs' scores, made classes and straight outs. The table is complete
    (8,463 rows, 3.1 MB, read whole on first use) and read-only, so what it
    serves cannot depend on which boards came before. On a board
    with three or more cards of one suit, a combo that makes a flush reads
    its flush's score and class from two 8,192-entry tables indexed by the
    suit's rank mask, and keeps its rank-table entry where that is higher.
    Every board is built this way; no combo is scored with its own cards."""

    def __init__(self, board: Sequence[int]):
        self.board = validate_board(board)
        if len(self.board) < 3:
            raise InvalidCardsError("relative strength is undefined pre-flop")
        self.street = STREETS[len(self.board) - 2]
        # The texture the category tables read: a pair, three or more cards
        # of one suit, and wet (suited, or three ranks in one straight window).
        ranks = {c >> 2 for c in self.board}
        suits = [c & 3 for c in self.board]
        self.paired = len(ranks) < len(self.board)
        self.suited = max(map(suits.count, range(4))) >= 3
        self.wet = self.suited or _BEST_IN_WINDOW[sum(1 << r for r in ranks)] >= 3
        self.dead_mask = combos_with_any(self.board)
        self.scores, self.made, self.draw, self._column_scores, self._flushed = _combo_features(self.board)
        self.scores[self.dead_mask] = -1
        self.max_score = int(self.scores.max())
        self._percentile: np.ndarray | None = None
        self._category_cache: dict[tuple[RsmTable, int], np.ndarray] = {}
        self._hero_masks: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}

    def hero_masks(self, hero: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """The combos that hold a hero or a board card, and the combos whose
        made hand beats the hero's: `rets.chib` reads both, and
        `cards.equity_vs_range` reads the first as its dead combos. Kept per
        hero's cards (a brain reads one hero on a board); the arrays are
        read-only."""
        key = tuple(hero)
        masks = self._hero_masks.get(key)
        if masks is None:
            kill = self.dead_mask | combos_with_any(key)
            beats_hero = self.scores > hand_score(key + self.board)
            kill.flags.writeable = beats_hero.flags.writeable = False
            masks = self._hero_masks[key] = (kill, beats_hero)
        return masks

    @property
    def percentile(self) -> np.ndarray:
        """Share of the live-combo pool each combo beats (ties count half);
        0 for dead combos.

        The pool is shared by every combo (no per-combo blocker exclusion),
        which makes the percentile a pure non-decreasing function of the
        hand score: equal scores share a value, better scores never rank
        lower. Card-removal nuance belongs to the grids, not the scale.

        A live combo scores its rank pair's column of the rank table unless
        it makes a flush that outscores it. So the pool is ranked as the
        board's 91 column scores, each counted once per live combo that
        scores it, plus each flush combo's score: a sort of 91 scores and
        the few flushes, not of every live combo. The counts below and
        equal to a score, and so the shares, are the same integers and the
        same floats as counting the live scores one by one."""
        if self._percentile is None:
            columns = self._column_scores
            plain = ~self.dead_mask
            flushed = self._flushed[plain[self._flushed]]  # live flush combos
            plain[flushed] = False
            pool = np.concatenate((columns, self.scores[flushed]))
            counts = np.bincount(_RANK_PAIR_OF_COMBO[plain], minlength=pool.size)
            counts[columns.size :] = 1
            order = np.argsort(pool)
            ranked = pool[order]
            below = np.zeros(pool.size + 1, dtype=np.int64)  # live scores below each sorted slot
            np.cumsum(counts[order], out=below[1:])
            less = below[np.searchsorted(ranked, ranked, side="left")]
            ties = below[np.searchsorted(ranked, ranked, side="right")] - less
            share = np.empty(pool.size)
            share[order] = (less + 0.5 * ties) / max(int(below[-1]), 1)
            percentile = share[_RANK_PAIR_OF_COMBO]
            percentile[flushed] = share[columns.size :]
            percentile[self.dead_mask] = 0.0
            self._percentile = percentile
        return self._percentile

    @classmethod
    def cached(cls, board: Sequence[int], contexts: "dict[tuple[int, ...], BoardContext]") -> "BoardContext":
        """The context of `board` in `contexts`, a dict the caller owns and
        clears, built and added when it is missing. A `Brain` keeps one for
        the current hand, so the board is read once per street and shared by
        every opponent's range on it."""
        key = tuple(board)
        ctx = contexts.get(key)
        if ctx is None:
            ctx = contexts[key] = cls(board)
        return ctx


# ---------------------------------------------------------------------------
# Rules and the queryable table
# ---------------------------------------------------------------------------


class RsmRulesError(ValueError):
    pass


# The draw streets and adjustments the category tables read: the river is
# anchored to the percentile, so it has no draw row.
_READ_ROWS = {"draw": ("flop", "turn"), "adjust": ("wet_pairs", "suited_bigmade")}


@dataclass
class RsmRules:
    made_value: dict[MadeClass, float]
    draw_value: dict[tuple[str, DrawTier], float]
    adjustments: dict[str, float]

    @classmethod
    def parse(cls, lines: Iterable[str], *, source: str = "<rules>") -> "RsmRules":
        made: dict[MadeClass, float] = {}
        draw: dict[tuple[str, DrawTier], float] = {}
        adj: dict[str, float] = {}
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                if parts[0] == "made" and len(parts) == 3:
                    made[MadeClass[parts[1]]] = float(parts[2])
                elif parts[0] == "draw" and len(parts) == 4:
                    draw[(parts[1], DrawTier[parts[2]])] = float(parts[3])
                elif parts[0] == "adjust" and len(parts) == 3:
                    adj[parts[1]] = float(parts[2])
                else:
                    raise KeyError(parts[0])
            except (KeyError, ValueError, IndexError):
                raise RsmRulesError(f"{source}:{lineno}: cannot parse {line!r}") from None
            read = _READ_ROWS.get(parts[0])
            if read is not None and parts[1] not in read:
                raise RsmRulesError(
                    f"{source}:{lineno}: the table never reads {parts[0]} {parts[1]!r}; want {' or '.join(read)}"
                )
        missing = [m.name for m in MadeClass if m not in made]
        if missing:
            raise RsmRulesError(f"{source}: missing made-class values: {missing}")
        return cls(made, draw, adj)

    @classmethod
    def shipped(cls) -> "RsmRules":
        text = (DATA_DIR / "rsm_rules.txt").read_text(encoding="utf-8")
        return cls.parse(text.splitlines(), source="rsm_rules.txt")


def bucket_key(street: str, made: int, draw: int, wet: bool) -> str:
    return f"{street}|{MadeClass(made).name}|{DrawTier(draw).name}|{'wet' if wet else 'dry'}"


_POSTFLOP = STREETS[1:]  # the streets of the overlay's first axis


def _bucket_cell(bucket: str) -> tuple[int, int, int, int]:
    """The overlay cell [street, wet, made, draw] that `bucket_key` writes
    as `bucket`; ValueError for a key it cannot write on a post-flop street."""
    try:
        street, made, draw, wet = bucket.split("|")
        return _POSTFLOP.index(street), ("dry", "wet").index(wet), int(MadeClass[made]), int(DrawTier[draw])
    except (KeyError, ValueError):
        raise ValueError(f"bad bucket {bucket!r}: not a key bucket_key writes for the flop, turn or river") from None


_ONE_PAIR_CLASSES = (
    MadeClass.PAIR_WEAK,
    MadeClass.PAIR_MID,
    MadeClass.PAIR_TOP_WEAK,
    MadeClass.PAIR_TOP_GOOD,
    MadeClass.OVERPAIR_MID,
    MadeClass.OVERPAIR_BIG,
)
_BIG_MADE_CLASSES = (MadeClass.TWO_PAIR, MadeClass.TRIPS, MadeClass.SET)
_IS_ONE_PAIR = np.isin(np.arange(16), [int(c) for c in _ONE_PAIR_CLASSES])
_IS_BIG_MADE = np.isin(np.arange(16), [int(c) for c in _BIG_MADE_CLASSES])

# The axes of a category table: combo state, made class, draw tier. A nut
# combo holds the best live score; a crippled one is a nut of quads or
# better on a paired board.
_NUT, _CRIPPLED = 1, 2
_QUADS = int(HandCategory.QUADS)
_STATE = np.arange(3)[:, None, None]
_MADE = np.arange(16)[None, :, None]
_DRAW = np.arange(4)[None, None, :]


class RsmTable:
    """Rule base plus an additive learned overlay, queried per (hole, board).

    Queries are deterministic for a fixed table state. The overlay is one
    float array of learned deltas indexed [street, wet, made class, draw
    tier]; bucket keys (`bucket_key`) name its cells only where learning
    meets the table: `bucket_for`, `apply_delta` and the profile snapshot's
    `overlay_to_dict`. Deltas are clamped so learning cannot push a bucket
    more than `clamp` categories from its base. Writers must be serialized
    by the owner; concurrent readers are safe.
    """

    clamp = 1.5

    def __init__(self, rules: RsmRules | None = None):
        self.rules = rules or RsmRules.shipped()
        self.version = 0  # bumped on every delta; keys the contexts' category caches
        self._deltas = np.zeros((len(_POSTFLOP), 2, 16, 4))  # [street, wet, made, draw]
        self._made_values = np.array([self.rules.made_value[MadeClass(m)] for m in range(16)])
        self._category_tables: dict[tuple[str, bool, bool], np.ndarray] = {}  # emptied by every delta

    # -- values ------------------------------------------------------------

    def _categories(
        self, vals: np.ndarray, state: np.ndarray, made: np.ndarray, draw: np.ndarray, street: str, wet: bool
    ) -> np.ndarray:
        """Round base values to categories: nut combos are promoted to at
        least Nuts and crippled ones set to Alcatraz, then the overlay of
        their (made, draw) bucket is added and the value clipped to [0, 10]."""
        vals = np.where(state >= _NUT, np.maximum(vals, 9.0), vals)
        vals = np.where(state == _CRIPPLED, 10.0, vals)
        deltas = self._deltas[_POSTFLOP.index(street), int(wet)]
        if deltas.any():  # a slice without a delta adds nothing
            vals = vals + deltas[made, draw]
        vals = np.minimum(np.maximum(vals, 0.0), 10.0)
        return np.floor(vals + 0.5).astype(np.int64)

    def _category_table(self, street: str, wet: bool, suited: bool) -> np.ndarray:
        """Flop or turn category of each (combo state, made class, draw
        tier), flattened to 3 x 16 x 4 entries. A base value is the made
        class's or the draw's, whichever is higher, with the wet-board pair
        and suited-board big-hand adjustments."""
        key = (street, wet, suited)
        table = self._category_tables.get(key)
        if table is None:
            dv = np.array([self.rules.draw_value.get((street, tier), 0.0) for tier in DrawTier])
            vals = np.maximum(self._made_values[_MADE], dv[_DRAW])
            adjust = self.rules.adjustments
            if wet and "wet_pairs" in adjust:
                vals = np.where(_IS_ONE_PAIR[_MADE], vals + adjust["wet_pairs"], vals)
            if suited and "suited_bigmade" in adjust:
                vals = np.where(_IS_BIG_MADE[_MADE], vals + adjust["suited_bigmade"], vals)
            table = self._category_tables[key] = self._categories(vals, _STATE, _MADE, _DRAW, street, wet).ravel()
        return table

    def categories_many(self, ctx: BoardContext) -> np.ndarray:
        """Category per combo; dead combos get -1. The array is read-only
        and cached on the context per (table, overlay version).

        Flop and turn categories are a function of each combo's state
        (normal, nut, or crippled: a nut of quads or better on a paired
        board), made class and draw tier, so they are gathered from a
        category table the RsmTable builds per (street, wet texture, suited
        board) and keeps until the next delta. On the river the base value
        is the combo's percentile among live combos."""
        key = (self, self.version)  # holds the table, so no later table can take its id
        cached = ctx._category_cache.get(key)
        if cached is not None:
            return cached
        is_nut = ctx.scores == ctx.max_score
        state = is_nut.astype(np.int64)
        if ctx.paired:
            state += is_nut & ((ctx.scores >> 20) >= _QUADS)
        if ctx.street == "river":
            # Complete board: anchor to the percentile among live opposing
            # combos, a pure function of absolute strength, so a better made
            # hand can never map lower than a worse one once draws are dead.
            cats = self._categories(ctx.percentile * 9.0, state, ctx.made, ctx.draw, ctx.street, ctx.wet)
        else:
            table = self._category_table(ctx.street, ctx.wet, ctx.suited)  # flattened (3, 16, 4)
            cats = table[state * 64 + ctx.made * 4 + ctx.draw]
        cats = np.where(ctx.dead_mask, -1, cats)
        cats.flags.writeable = False
        ctx._category_cache.clear()
        ctx._category_cache[key] = cats
        return cats

    def query(self, hole: Sequence[int], ctx: BoardContext) -> RsCategory:
        """The hole's category on `ctx`; a hole that holds a board card is refused."""
        idx = combo_index(hole[0], hole[1])
        if ctx.dead_mask[idx]:
            raise InvalidCardsError("hole cards collide with the board")
        cats = self.categories_many(ctx)
        return RsCategory(int(cats[idx]))

    def bucket_for(self, hole: Sequence[int], ctx: BoardContext) -> str:
        idx = combo_index(hole[0], hole[1])
        return bucket_key(ctx.street, int(ctx.made[idx]), int(ctx.draw[idx]), ctx.wet)

    # -- learning ----------------------------------------------------------

    def apply_delta(self, bucket: str, delta: float) -> float:
        """Accumulate a correction for one feature bucket. Each delta and the
        accumulated overlay are bounded by the clamp; violating deltas and
        keys `bucket_key` cannot write are rejected before anything changes.
        Returns the new overlay value."""
        if abs(delta) > self.clamp + 1e-12:
            raise ValueError(f"delta {delta} exceeds clamp {self.clamp}")
        cell = _bucket_cell(bucket)
        new = self._deltas[cell] = float(np.clip(self._deltas[cell] + delta, -self.clamp, self.clamp))
        self.version += 1
        self._category_tables.clear()
        return new

    # -- persistence ---------------------------------------------------------

    def overlay_to_dict(self) -> dict[str, float]:
        """The bucket key and delta of every cell with a delta."""
        return {
            bucket_key(_POSTFLOP[s], m, d, w): float(self._deltas[s, w, m, d])
            for s, w, m, d in np.argwhere(self._deltas).tolist()
        }
