import numpy as np
import pytest

from holdemlab.cards import InvalidCardsError, parse_cards, score_cards_batch
from holdemlab.rangegrid import COMBO_CARDS
from holdemlab.rsm import (
    BoardContext,
    DrawTier,
    MadeClass,
    RsCategory,
    RsmRules,
    RsmRulesError,
    RsmTable,
    bucket_key,
)
from reference_percentile import percentile_by_sorting
from reference_rank import build_rank_row, fold_scores, made_classes, straight_outs


def cards(text):
    return parse_cards(text)


FLOP = cards("9d5s2c")
RIVER = cards("9d5s2c2dKs")
FLOP_CTX = BoardContext(FLOP)
RIVER_CTX = BoardContext(RIVER)


@pytest.fixture(scope="module")
def table():
    return RsmTable()


class TestScale:
    def test_eleven_ordered_categories(self):
        assert len(RsCategory) == 11
        assert RsCategory.NIENTE == 0
        assert RsCategory.NUTS == 9
        assert RsCategory.ALCATRAZ == 10
        assert RsCategory.NIENTE < RsCategory.FAIR < RsCategory.ALCATRAZ

    def test_labels(self):
        assert RsCategory.NIENTE.label == "Niente"
        assert RsCategory(10).label == "Alcatraz"


class TestBoardTexture:
    def test_case_study_flop_is_dry_rainbow(self):
        assert not FLOP_CTX.paired and not FLOP_CTX.suited and not FLOP_CTX.wet

    def test_draw_heavy_board(self):
        ctx = BoardContext(cards("JsTs7c"))  # two-tone, three ranks in one straight window
        assert not ctx.suited and ctx.wet

    def test_dry_board(self):
        ctx = BoardContext(cards("Kd8c2h"))
        assert not ctx.wet

    def test_every_board_maps_to_one_class(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            b = rng.choice(52, size=int(rng.choice([3, 4, 5])), replace=False).tolist()
            ctx = BoardContext(b)
            assert {type(ctx.paired), type(ctx.suited), type(ctx.wet)} == {bool}
            assert ctx.wet or not ctx.suited  # a suited board is wet
            assert ctx.street == ("flop", "turn", "river")[len(b) - 3]


def _reference_texture(board):
    """The texture as first written, with the straight-window count from
    ten frozenset intersections: (paired, flush level, connectivity)."""
    windows = [frozenset(range(lo, lo + 5)) for lo in range(0, 9)] + [frozenset({12, 0, 1, 2, 3})]
    ranks = {c >> 2 for c in board}
    suit_counts = [0, 0, 0, 0]
    for c in board:
        suit_counts[c & 3] += 1
    ms = max(suit_counts)
    flush_level = "rainbow" if ms <= 1 else ("twotone" if ms == 2 else "suited")
    best_in_window = max(len(w & ranks) for w in windows)
    connectivity = "high" if best_in_window >= 3 else ("med" if best_in_window == 2 else "low")
    return len(ranks) < len(board), flush_level, connectivity


class TestBoardTextureTable:
    def test_every_flop_and_seeded_turns_and_rivers_match_the_window_sets(self):
        """A context's paired, suited and wet facts equal the reference's:
        suited is the suited flush level, wet is suited or high connectivity."""
        from itertools import combinations

        rng = np.random.default_rng(2121)
        boards = list(combinations(range(52), 3))
        assert len(boards) == 22100
        boards += [tuple(rng.choice(52, size=n, replace=False).tolist()) for n in (4, 5) for _ in range(3000)]
        seen = set()
        for board in boards:
            ctx = BoardContext(board)
            paired, flush_level, connectivity = _reference_texture(board)
            suited = flush_level == "suited"
            assert (ctx.paired, ctx.suited, ctx.wet) == (paired, suited, suited or connectivity == "high"), board
            seen.add((len(board), connectivity))
        assert len(seen) == 9, seen  # low, med and high on every street


class TestBoardContextFeatures:
    def test_rank_pair_shortcut_equals_per_combo_features(self):
        """BoardContext scores the 91 hole-rank pairs once and rescores only
        combos that make a flush; that must equal scoring every combo."""
        rng = np.random.default_rng(3)
        boards = [cards("AhKhQh"), cards("AhKhQh2h"), cards("AhKhQh2h3h"), cards("5s5d5c5h"), RIVER]
        boards += [tuple(rng.choice(52, size=n, replace=False).tolist()) for n in (3, 4, 5) for _ in range(40)]
        for board in boards:
            ctx = BoardContext(board)
            scores = fold_scores(COMBO_CARDS, board)
            assert (ctx.scores == np.where(ctx.dead_mask, -1, scores)).all()
            assert (ctx.made == made_classes(COMBO_CARDS, scores, board)).all()

    # Boards sharing a rank multiset: a five-suited river with a four-flush
    # and a rainbow one, a four-flush turn, paired, trips and quads boards.
    SAME_RANKS = [
        ("AhKhQh7h2h", "AhKhQh7h2c", "AsKdQc7h2h"),
        ("9h8h6h2h", "9c8d6s2h", "9h8h6h2c"),
        ("KhKd7c", "KsKc7h", "KhKs7h", "7dKsKh"),
        ("7h7d7cKsKh", "7s7h7dKcKs", "7h7d7sKhKd"),
        ("5s5d5c5hKh", "5h5d5c5sKc"),
        ("JhTh9h8h7h", "JhTh9h8h7d", "JcTd9s8h7h"),
    ]

    @pytest.mark.parametrize("group", SAME_RANKS)
    @pytest.mark.parametrize("order", [1, -1])
    def test_rank_table_equals_per_combo_features(self, group, order):
        """Every board of a rank multiset, in either order, is served one
        rank-table row, and matches scoring, classing and drawing each combo
        with its own cards."""
        from holdemlab.cards import rank_table_row

        for text in group[::order]:
            board = cards(text)
            ctx = BoardContext(board)
            scores = fold_scores(COMBO_CARDS, board)
            assert (ctx.scores == np.where(ctx.dead_mask, -1, scores)).all(), text
            assert (ctx.made == made_classes(COMBO_CARDS, scores, board)).all(), text
            assert (ctx.draw == _per_combo_draw_tiers(COMBO_CARDS, board)).all(), text
        # one row, keyed by the sorted ranks whatever order the cards come in
        rows = {rank_table_row(c >> 2 for c in cards(text)) for text in group}
        assert rows == {rank_table_row(sorted(c >> 2 for c in cards(group[0])))}

    def test_percentile_of_one_combo_equals_the_table(self):
        """Counting one combo's live scores below and equal gives exactly
        its entry of the percentile table, ties included: the float that
        learning's realized category reads."""
        for text in ("9d5s2c", "KhKd7h2h", "9d5s2c2dKs", "AhKhQhJhTh", "7c7d7h7s2c"):
            ctx = BoardContext(cards(text))
            table = ctx.percentile
            live = np.flatnonzero(~ctx.dead_mask)
            live_scores = ctx.scores[live]
            assert len(np.unique(live_scores)) < live.size  # tied scores
            for i in live:
                less = int(np.count_nonzero(live_scores < ctx.scores[i]))
                ties = int(np.count_nonzero(live_scores == ctx.scores[i]))
                assert (less + 0.5 * ties) / live.size == table[i], text

    def test_percentile_equals_sorting_every_live_score(self):
        """The percentile ranked from the 91 rank-pair scores and the flush
        combos equals, bit for bit, ranking each combo against the sorted
        live scores: on every five-suited river and every three-suited
        flop, on turns with three or four cards of one suit, and on seeded
        random flops, turns and rivers."""
        from itertools import combinations

        rng = np.random.default_rng(20000)
        rivers = [tuple(4 * r + suit for r in ranks) for suit in range(4) for ranks in combinations(range(13), 5)]
        flops = [tuple(4 * r + suit for r in ranks) for suit in range(4) for ranks in combinations(range(13), 3)]
        assert len(rivers) == 5148 and len(flops) == 1144
        boards = rivers + flops + _suited_boards(rng, 4, 3, 1000) + _suited_boards(rng, 4, 4, 500)
        for size, count in ((3, 3000), (4, 3000), (5, 20000)):
            boards += [tuple(rng.choice(52, size=size, replace=False).tolist()) for _ in range(count)]
        for board in boards:
            ctx = BoardContext(board)
            assert np.array_equal(ctx.percentile, percentile_by_sorting(ctx.scores, ctx.dead_mask)), board

    def test_rank_table_has_a_row_for_every_rank_multiset(self):
        from itertools import combinations_with_replacement

        from holdemlab.cards import rank_table

        assert len(rank_table()) == sum(1 for n in (3, 4, 5) for _ in combinations_with_replacement(range(13), n))

    def test_every_rank_table_row_equals_the_row_builder(self):
        """The shipped table holds, at each multiset's own row, exactly what
        the kernel-backed reference builder makes; every row is some
        multiset's."""
        from itertools import combinations_with_replacement

        from holdemlab.cards import rank_table, rank_table_row

        seen = set()
        for n in (3, 4, 5):
            for ranks in combinations_with_replacement(range(13), n):
                row = rank_table_row(ranks)
                assert (rank_table()[row] == build_rank_row(ranks)).all(), ranks
                seen.add(row)
        assert seen == set(range(len(rank_table())))

    def test_rank_table_is_read_only(self):
        from holdemlab.cards import rank_table

        table = rank_table()
        assert not table.flags.writeable and rank_table() is table  # read once
        with pytest.raises(ValueError):
            table[0, 0] = 1


def _suited_boards(rng, size, n_suited, count):
    """Seeded boards of `size` cards with exactly `n_suited` of one suit."""
    boards = []
    for _ in range(count):
        suit = int(rng.integers(4))
        in_suit = rng.choice(13, size=n_suited, replace=False) * 4 + suit
        rest = rng.choice([c for c in range(52) if c & 3 != suit], size=size - n_suited, replace=False)
        boards.append(tuple(rng.permutation(np.concatenate([in_suit, rest])).tolist()))
    return boards


class TestFlushCombos:
    """On a board with three or more cards of one suit, the combos that make
    a flush: every combo, dead ones included, against the kernel."""

    def _assert_matches_kernel(self, board):
        from holdemlab import rsm

        scores = fold_scores(COMBO_CARDS, board)
        made = made_classes(COMBO_CARDS, scores, board)
        draw = _per_combo_draw_tiers(COMBO_CARDS, board)
        features = rsm._combo_features(board)
        assert (features[0] == scores).all(), board  # dead combos' scores too
        ctx = BoardContext(board)
        assert (ctx.scores == np.where(ctx.dead_mask, -1, scores)).all(), board
        assert (ctx.made == made).all() and (features[1] == made).all(), board
        assert (ctx.draw == draw).all() and (features[2] == draw).all(), board
        return scores

    def test_every_three_suited_flop(self):
        from itertools import combinations

        flops = [b for b in combinations(range(52), 3) if len({c & 3 for c in b}) == 1]
        assert len(flops) == 1144
        for board in flops:
            self._assert_matches_kernel(board)

    def test_seeded_turns_and_rivers(self):
        rng = np.random.default_rng(6060)
        for size, n_suited in ((4, 3), (4, 4), (5, 3), (5, 4), (5, 5)):
            for board in _suited_boards(rng, size, n_suited, 110):
                self._assert_matches_kernel(board)

    def test_every_five_suited_river(self):
        """Every combo plays the board's flush; those without a card of the
        suit are classed by their high card unless the board is a straight
        flush."""
        from itertools import combinations

        rivers = [tuple(r * 4 + suit for r in ranks) for suit in range(4) for ranks in combinations(range(13), 5)]
        assert len(rivers) == 5148
        for board in rivers:
            self._assert_matches_kernel(board)

    def test_boards_are_built_without_the_kernel(self, monkeypatch):
        """A BoardContext reads the rank table and the suit-mask tables on
        every board, whatever its suits: score_cards_batch is never called."""
        import sys

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return score_cards_batch(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("holdemlab") and getattr(module, "score_cards_batch", None) is score_cards_batch:
                monkeypatch.setattr(module, "score_cards_batch", counted)
        rng = np.random.default_rng(7070)
        boards = [b for size in (3, 4, 5) for n in range(3, size + 1) for b in _suited_boards(rng, size, n, 20)]
        for board in boards:
            BoardContext(board)
        assert len(boards) == 6 * 20 and calls == []

    @pytest.mark.parametrize(
        "board, hole, category",
        [
            ("Kh9h9d5h", "9h5h", "FULL_HOUSE"),  # the dead 9h makes nines full
            ("Kh9h9d5h", "9h9c", "QUADS"),
            ("Kh9h5h2h9d", "9h9c", "QUADS"),  # four-flush river, a flush row
            ("Kh9h5h9d9c", "9h2h", "QUADS"),
            ("Kh9h5h7d7c", "7h5h", "FULL_HOUSE"),
            ("9h8h7h2c", "6h5h", "STRAIGHT_FLUSH"),
        ],
    )
    def test_paired_suited_boards(self, board, hole, category):
        """A repeated dead card can make a full house or quads over the
        flush; those combos keep the rank table's entry. A straight flush
        beats both."""
        from holdemlab.cards import HandCategory
        from holdemlab.rangegrid import combo_index

        board = tuple(cards(board))
        scores = self._assert_matches_kernel(board)
        assert scores[combo_index(*cards(hole))] >> 20 == HandCategory[category], (board, hole)


def _per_combo_draw_tiers(holes, board):
    """Draw tier of each combo from its own cards: a flush draw from its
    suits, and the reference's straight outs."""
    from holdemlab.rsm import _DRAW_TIER

    if len(board) >= 5:
        return np.zeros(holes.shape[0], dtype=np.int64)
    suit_counts = np.bincount([c & 3 for c in board], minlength=4)
    s1, s2 = holes[:, 0] & 3, holes[:, 1] & 3
    fd = (suit_counts[s1] + 1 + (s1 == s2) == 4) | (suit_counts[s2] + 1 + (s1 == s2) == 4)
    return _DRAW_TIER[3 * fd + straight_outs(holes, board)]


def _reference_values(table, ctx):
    """The per-combo vector formula the categories were once computed with,
    up to the clip: base value (on the river the percentile, elsewhere the
    made class or draw with the texture adjustments), nut promotion, the
    crippled ceiling and the learned overlay."""
    from holdemlab.cards import HandCategory

    rules, made, draw = table.rules, ctx.made, ctx.draw
    if ctx.street == "river":
        vals = ctx.percentile * 9.0
    else:
        vals = np.array([rules.made_value[MadeClass(m)] for m in range(16)])[made]
        dv = np.zeros(4)
        for tier in DrawTier:
            dv[int(tier)] = rules.draw_value.get((ctx.street, tier), 0.0)
        vals = np.maximum(vals, dv[draw])
        one_pair = [MadeClass.PAIR_WEAK, MadeClass.PAIR_MID, MadeClass.PAIR_TOP_WEAK,
                    MadeClass.PAIR_TOP_GOOD, MadeClass.OVERPAIR_MID, MadeClass.OVERPAIR_BIG]
        if ctx.wet and "wet_pairs" in rules.adjustments:
            vals = np.where(np.isin(made, one_pair), vals + rules.adjustments["wet_pairs"], vals)
        if ctx.suited and "suited_bigmade" in rules.adjustments:
            big = [MadeClass.TWO_PAIR, MadeClass.TRIPS, MadeClass.SET]
            vals = np.where(np.isin(made, big), vals + rules.adjustments["suited_bigmade"], vals)
    is_nut = ctx.scores == ctx.max_score
    vals = np.where(is_nut, np.maximum(vals, 9.0), vals)
    cripple = is_nut & ((ctx.scores >> 20) >= int(HandCategory.QUADS)) & ctx.paired
    vals = np.where(cripple, 10.0, vals)
    overlay = np.zeros(len(made))
    wet_tag = "wet" if ctx.wet else "dry"
    for bucket, delta in table.overlay_to_dict().items():
        street, made_name, draw_name, tag = bucket.split("|")
        if street == ctx.street and tag == wet_tag:
            cell = (made == MadeClass[made_name]) & (draw == DrawTier[draw_name])
            overlay = np.where(cell, overlay + delta, overlay)
    return vals + overlay


def _reference_categories(table, ctx):
    """_reference_values clipped to [0, 10] and rounded, dead combos -1."""
    vals = np.clip(_reference_values(table, ctx), 0.0, 10.0)
    cats = np.clip(np.floor(vals + 0.5).astype(np.int64), 0, 10)
    return np.where(ctx.dead_mask, -1, cats)


class TestCategoryTables:
    def _boards(self):
        rng = np.random.default_rng(8080)
        boards = [cards(t) for t in ("7h7d7c", "7h7d2c", "KhKd7h2h", "JhTh9h", "AhKhQh2h", "9d5s2c", "5s5d5c5h")]
        boards += [tuple(rng.choice(52, size=n, replace=False).tolist()) for n in (3, 4) for _ in range(110)]
        return boards

    def test_categories_equal_the_per_combo_formula(self):
        """The flop and turn categories gathered from the category tables
        equal the per-combo formula: with no overlay, with learned deltas,
        and after one more delta on the same context, which a stale table
        would miss."""
        from holdemlab.cards import HandCategory

        rng = np.random.default_rng(4040)
        plain, learned = RsmTable(), RsmTable()
        for street in ("flop", "turn"):
            for made in MadeClass:
                for draw in DrawTier:
                    for wet in (False, True):
                        if rng.random() < 0.4:
                            learned.apply_delta(bucket_key(street, made, draw, wet), float(rng.uniform(-1.5, 1.5)))
        seen = {"wet": 0, "suited": 0, "nut": 0, "crippled": 0, "moved": 0}
        for board in self._boards():
            ctx = BoardContext(board)
            seen["wet"] += ctx.wet
            seen["suited"] += ctx.suited
            nut = ctx.scores == ctx.max_score
            seen["nut"] += int(nut.sum())
            seen["crippled"] += int((nut & ((ctx.scores >> 20) >= int(HandCategory.QUADS)) & ctx.paired).sum())
            for table in (plain, learned):
                assert np.array_equal(table.categories_many(ctx), _reference_categories(table, ctx)), board
            live = np.flatnonzero(~ctx.dead_mask)
            hole = [int(c) for c in COMBO_CARDS[live[rng.integers(live.size)]]]
            before = learned.categories_many(ctx)
            learned.apply_delta(learned.bucket_for(hole, ctx), 1.0 if rng.random() < 0.5 else -1.0)
            after = learned.categories_many(ctx)
            assert np.array_equal(after, _reference_categories(learned, ctx)), board
            seen["moved"] += not np.array_equal(before, after)
        assert all(seen.values()), seen

    def test_river_categories_with_overlays_beyond_the_scale(self):
        """River values pushed below 0 by a negative overlay and above 10 by
        a positive one on nut and crippled combos clip as the reference."""
        rng = np.random.default_rng(5151)
        table = RsmTable()
        for made in MadeClass:
            for wet in (False, True):
                delta = -1.5 if made <= MadeClass.PAIR_MID else 1.5
                table.apply_delta(bucket_key("river", made, DrawTier.NONE, wet), delta)
        boards = [cards(t) for t in ("7c7d7h7s2c", "AhKhQhJhTh", "KhKd7h2h2c", "9d5s2c2dKs")]
        boards += [tuple(rng.choice(52, size=5, replace=False).tolist()) for _ in range(60)]
        below = above = 0
        for board in boards:
            ctx = BoardContext(board)
            vals = _reference_values(table, ctx)[~ctx.dead_mask]
            below += int((vals < 0).sum())
            above += int((vals > 10).sum())
            assert np.array_equal(table.categories_many(ctx), _reference_categories(table, ctx)), board
        assert below and above, (below, above)

    def test_categories_are_read_only(self):
        cats = RsmTable().categories_many(BoardContext(FLOP))
        with pytest.raises(ValueError):
            cats[0] = 3


class TestQueries:
    def test_top_set_is_nuts(self, table):
        assert table.query(cards("9h9s"), FLOP_CTX) == RsCategory.NUTS

    def test_set_of_fives_is_nuts(self, table):
        assert table.query(cards("5h5d"), FLOP_CTX) == RsCategory.NUTS

    def test_big_overpair_excellent_medium_overpair_great(self, table):
        assert table.query(cards("AhAd"), FLOP_CTX) == RsCategory.EXCELLENT
        assert table.query(cards("JcJd"), FLOP_CTX) == RsCategory.GREAT

    def test_busted_draw_on_river_is_nothing(self, table):
        assert table.query(cards("4d3d"), RIVER_CTX) <= RsCategory.HARDLY_ANYTHING

    def test_quads_on_paired_board_alcatraz(self, table):
        assert table.query(cards("2h2s"), RIVER_CTX) == RsCategory.ALCATRAZ

    def test_open_ended_draw_scores_as_valuable(self, table):
        assert table.query(cards("4h3h"), FLOP_CTX) >= RsCategory.FAIR

    def test_preflop_unsupported(self):
        """Relative strength needs a flop: no context exists before one."""
        for board in ((), cards("9d5s")):
            with pytest.raises(InvalidCardsError):
                BoardContext(board)

    def test_board_collision_rejected(self, table):
        with pytest.raises(InvalidCardsError):
            table.query(cards("9d5s"), FLOP_CTX)

    def test_pure_function_of_state(self, table):
        a = table.query(cards("Ah9c"), FLOP_CTX)
        b = table.query(cards("Ah9c"), FLOP_CTX)
        assert a == b


class TestMonotonicity:
    def test_weak_monotone_in_absolute_strength_on_complete_boards(self):
        """Better made hand never maps to a lower category, fixed river."""
        table = RsmTable()
        rng = np.random.default_rng(99)
        for _ in range(40):
            board = rng.choice(52, size=5, replace=False).tolist()
            ctx = BoardContext(board)
            cats = table.categories_many(ctx)
            live = ~ctx.dead_mask
            scores = ctx.scores[live]
            got = cats[live]
            # category must be a non-decreasing function of the hand score
            by_score: dict[int, int] = {}
            for s, c in zip(scores.tolist(), got.tolist()):
                by_score.setdefault(s, c)
                assert by_score[s] == c, "equal scores must share a category"
            ordered = [by_score[s] for s in sorted(by_score)]
            assert all(a <= b for a, b in zip(ordered, ordered[1:]))

    def test_literal_nuts_maps_at_least_nuts(self):
        table = RsmTable()
        rng = np.random.default_rng(5)
        for _ in range(30):
            board = rng.choice(52, size=5, replace=False).tolist()
            ctx = BoardContext(board)
            cats = table.categories_many(ctx)
            nut_idx = int(np.argmax(ctx.scores))
            assert cats[nut_idx] >= 9


class TestDeltas:
    def test_zero_delta_identity(self):
        table = RsmTable()
        before = table.query(cards("Ah9c"), FLOP_CTX)
        bucket = table.bucket_for(cards("Ah9c"), FLOP_CTX)
        table.apply_delta(bucket, 0.0)
        assert table.query(cards("Ah9c"), FLOP_CTX) == before

    def test_repeated_deltas_cross_one_boundary(self):
        table = RsmTable()
        hole = cards("Ah9c")
        bucket = table.bucket_for(hole, FLOP_CTX)
        start = int(table.query(hole, FLOP_CTX))
        delta = 0.1
        k = int(np.ceil(1.0 / delta))
        for _ in range(k):
            table.apply_delta(bucket, delta)
        assert int(table.query(hole, FLOP_CTX)) >= start + 1

    def test_reinforce_then_equal_correction_nets_zero(self):
        table = RsmTable()
        bucket = bucket_key("flop", MadeClass.PAIR_TOP_GOOD, DrawTier.NONE, False)
        table.apply_delta(bucket, 0.3)
        table.apply_delta(bucket, -0.3)
        assert table.overlay_to_dict() == {}

    def test_clamp_rejects_oversized_delta(self):
        table = RsmTable()
        with pytest.raises(ValueError):
            table.apply_delta("flop|SET|NONE|dry", 2.0)

    def test_overlay_accumulation_clamped(self):
        table = RsmTable()
        b = "flop|SET|NONE|dry"
        for _ in range(5):
            table.apply_delta(b, 0.5)
        assert table.overlay_to_dict()[b] == pytest.approx(1.5)

    @pytest.mark.parametrize(
        "bucket",
        ["flop|SETT|NONE|dry", "preflop|SET|NONE|dry", "flop|SET|NONE", "flop|SET|NONE|damp", "flop|SET|NONE|dry|x",
         "Flop|SET|NONE|dry", "flop|10|NONE|dry", ""],
    )
    def test_malformed_bucket_is_refused_before_anything_changes(self, bucket):
        """A key bucket_key cannot write for a post-flop street raises at
        apply_delta, not at the next query, and leaves the table as it was."""
        table = RsmTable()
        table.apply_delta("flop|SET|NONE|dry", 0.5)
        before = table.query(cards("5h5d"), FLOP_CTX)
        with pytest.raises(ValueError, match="bad bucket"):
            table.apply_delta(bucket, 0.5)
        assert table.version == 1 and table.overlay_to_dict() == {"flop|SET|NONE|dry": 0.5}
        assert table.query(cards("5h5d"), FLOP_CTX) == before

    def test_every_overlay_key_parses_back_to_its_own_cell(self):
        """With a distinct delta in every cell, each key overlay_to_dict
        writes is the bucket_key of its cell and parses back to that cell."""
        from holdemlab.rsm import _bucket_cell

        table = RsmTable()
        cells = {}
        for s, street in enumerate(("flop", "turn", "river")):
            for w, wet in enumerate((False, True)):
                for made in MadeClass:
                    for draw in DrawTier:
                        key = bucket_key(street, made, draw, wet)
                        cells[key] = (s, w, int(made), int(draw)), table.apply_delta(key, (1 + len(cells)) / 1000)
        overlay = table.overlay_to_dict()
        assert len(overlay) == 3 * 2 * 16 * 4 == len(cells)
        for key, value in overlay.items():
            cell, delta = cells[key]
            assert _bucket_cell(key) == cell and value == delta, key

    def test_new_table_in_a_freed_tables_place_gets_its_own_categories(self):
        # One context outlives many tables. A table created where a freed one
        # lived, at the same overlay version, must not be served the freed
        # table's cached categories.
        rules = RsmRules.shipped()
        hole = cards("Ah9h")
        ctx = BoardContext(FLOP)
        own = RsmTable(rules).query(hole, ctx)
        for _ in range(200):
            a = RsmTable(rules)
            a.apply_delta("flop|PAIR_TOP_GOOD|NONE|dry", -1.5)
            assert a.query(hole, ctx) < own
            del a
            b = RsmTable(rules)
            b.apply_delta("river|PAIR_WEAK|NONE|dry", 0.5)
            assert b.query(hole, ctx) == own


class TestRules:
    def test_shipped_rules_parse(self):
        rules = RsmRules.shipped()
        assert rules.made_value[MadeClass.SET] >= 8.5

    def test_missing_class_rejected(self):
        with pytest.raises(RsmRulesError):
            RsmRules.parse(["made SET 9.0"])

    def test_bad_line_reports_number(self):
        with pytest.raises(RsmRulesError, match=":1:"):
            RsmRules.parse(["banana 3"])

    @pytest.mark.parametrize(
        "row, want",
        [
            ("adjust wet_pair -0.45", "the table never reads adjust 'wet_pair'; want wet_pairs or suited_bigmade"),
            ("draw river WEAK 1.0", "the table never reads draw 'river'; want flop or turn"),
        ],
    )
    def test_a_row_the_table_never_reads_is_refused(self, row, want):
        """A row that would change nothing, such as a misspelt adjustment or
        a river draw, fails at its line rather than being ignored."""
        from holdemlab.rangegrid import DATA_DIR

        lines = (DATA_DIR / "rsm_rules.txt").read_text(encoding="utf-8").splitlines() + [row]
        with pytest.raises(RsmRulesError, match=f"^rules.txt:{len(lines)}: {want}$"):
            RsmRules.parse(lines, source="rules.txt")
