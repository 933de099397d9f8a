import itertools

import numpy as np
import pytest

from holdemlab.cards import (
    Card,
    DealRng,
    HandCategory,
    InvalidCardsError,
    UndefinedRangeError,
    card_index,
    card_str,
    equity_exhaustive,
    equity_vs_range,
    evaluate7,
    hand_score,
    parse_cards,
    score_cards_batch,
)
from holdemlab.rangegrid import COMBO_CARDS, ComboGrid, combo_index
from holdemlab.rsm import BoardContext

from reference_eval import ref_eval7
from reference_rank import fold_scores
from test_rsm import _suited_boards


def cards(text):
    return parse_cards(text)


class TestCardBasics:
    def test_52_distinct_cards(self):
        deck = {Card.parse(card_str(i)) for i in range(52)}
        assert len(deck) == 52 and {c.index for c in deck} == set(range(52))

    def test_text_round_trip(self):
        for i in range(52):
            assert card_index(card_str(i)) == i

    def test_parse_examples(self):
        assert card_str(card_index("As")) == "As"
        assert card_str(card_index("Td")) == "Td"
        assert card_str(card_index("9h")) == "9h"

    def test_ordering_is_rank_then_suit(self):
        assert Card.parse("2c") < Card.parse("2d") < Card.parse("3c") < Card.parse("As")

    def test_bad_cards_rejected(self):
        with pytest.raises(InvalidCardsError):
            Card.parse("Xx")
        with pytest.raises(InvalidCardsError):
            Card(15, 0)


class TestEvaluate7:
    def test_case_study_full_house(self):
        hv = evaluate7(cards("9h9s"), cards("9d5s2c2dKs"))
        assert hv.category == HandCategory.FULL_HOUSE
        assert hv.tiebreak == (9, 2)  # nines full of twos

    def test_busted_draw_plays_board_pair(self):
        hv = evaluate7(cards("4d3d"), cards("9d5s2c2dKs"))
        assert hv.category == HandCategory.PAIR
        assert hv.tiebreak == (2, 13, 9, 5)  # pair of twos, K/9/5 kickers

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            seven = rng.choice(52, size=7, replace=False).tolist()
            base = evaluate7(seven[:2], seven[2:])
            perm = rng.permutation(seven).tolist()
            assert evaluate7(perm[:2], perm[2:]) == base

    def test_duplicate_cards_rejected(self):
        with pytest.raises(InvalidCardsError):
            evaluate7(cards("AsAs"), cards("2c3c4c5c6c"))
        with pytest.raises(InvalidCardsError):
            evaluate7(cards("AsKs"), cards("As3c4c5c6c"))

    def test_matches_best_of_21_brute_force(self):
        rng = np.random.default_rng(303)
        order = [
            HandCategory.HIGH_CARD,
            HandCategory.PAIR,
            HandCategory.TWO_PAIR,
            HandCategory.TRIPS,
            HandCategory.STRAIGHT,
            HandCategory.FLUSH,
            HandCategory.FULL_HOUSE,
            HandCategory.QUADS,
            HandCategory.STRAIGHT_FLUSH,
        ]
        for _ in range(2000):
            seven = rng.choice(52, size=7, replace=False).tolist()
            mine = evaluate7(seven[:2], seven[2:])
            ref = ref_eval7(seven[:2], seven[2:])
            assert int(mine.category) == ref[0]
            assert order[ref[0]] == mine.category
            assert tuple(mine.tiebreak)[: len(ref) - 1] == ref[1:]

    def test_wheel_straights(self):
        hv = evaluate7(cards("Ah2c"), cards("3d4s5h9cKd"))
        assert hv.category == HandCategory.STRAIGHT
        assert hv.tiebreak == (5,)
        sf = evaluate7(cards("Ac2c"), cards("3c4c5c9dKh"))
        assert sf.category == HandCategory.STRAIGHT_FLUSH
        assert sf.tiebreak == (5,)

    def test_batch_agrees_with_scalar(self):
        # the reference fold, the oracle of the rank-table scorer below
        rng = np.random.default_rng(7)
        for k in (5, 6, 7):
            deals = np.array([rng.choice(52, size=k, replace=False) for _ in range(500)])
            batch = fold_scores(deals)
            scalar = np.array([hand_score(tuple(int(x) for x in row)) for row in deals])
            assert (batch == scalar).all()

    def test_shared_board_agrees_with_scalar_and_with_the_plain_batch(self):
        rng = np.random.default_rng(8)
        for n_board in (0, 1, 2, 3, 4, 5):
            for k in range(max(2, 5 - n_board), 8 - n_board):
                board = rng.choice(52, size=n_board, replace=False).tolist()
                rest = [c for c in range(52) if c not in board]
                rows = np.array([rng.choice(rest, size=k, replace=False) for _ in range(300)])
                shared = fold_scores(rows, board)
                scalar = np.array([hand_score(tuple(int(x) for x in row) + tuple(board)) for row in rows])
                assert (shared == scalar).all()
                # rows may repeat board cards (dead combos in a range sweep):
                # they count by multiplicity exactly as in the plain batch
                dup = np.array([rng.choice(52, size=k, replace=False) for _ in range(300)])
                full = np.concatenate([dup, np.broadcast_to(np.array(board, dtype=np.int64), (300, n_board))], axis=1)
                assert (fold_scores(dup, board) == fold_scores(full)).all()
        # with holes, every hand is scored on every row: (hands, rows)
        for n_board in (0, 3, 4, 5):
            board = rng.choice(52, size=n_board, replace=False).tolist()
            rest = [c for c in range(52) if c not in board]
            n = 1 if n_board == 5 else 200  # the river has one, empty, runout
            for n_hands in (1, 2, 3, 4):
                picked = rng.choice(rest, size=2 * n_hands, replace=False)
                holes = picked.reshape(n_hands, 2).tolist()
                live = [c for c in rest if c not in picked]
                rows = np.array([rng.choice(live, size=5 - n_board, replace=False) for _ in range(n)])
                rows = rows.reshape(n, 5 - n_board)
                got = score_cards_batch(rows, board, holes)
                assert got.shape == (n_hands, n)
                for hole, line in zip(holes, got):
                    scalar = [hand_score((*hole, *(int(x) for x in row), *board)) for row in rows]
                    assert line.tolist() == scalar
                # hands that repeat a row or board card count it twice, as
                # the rows with the hand's cards appended do
                dup = rng.choice(52, size=(n_hands, 2)) if n_board else rows[:n_hands, :2]
                self._check_holes_against_joined_rows(rows, board, dup)
        # a pre-flop lock's 12,000 runouts, and a whole range on a flop
        deck = [c for c in range(52) if c not in (0, 5, 10, 15, 20, 25)]
        runs = np.array([rng.choice(deck, size=5, replace=False) for _ in range(12_000)])
        self._check_holes_against_joined_rows(runs, (), [[0, 5], [10, 15], [20, 25]])
        flop = [3, 22, 47]
        deck = [c for c in range(52) if c not in flop]
        runs = np.array([rng.choice(deck, size=2, replace=False) for _ in range(40)])
        self._check_holes_against_joined_rows(runs, flop, COMBO_CARDS)

    @staticmethod
    def _check_holes_against_joined_rows(rows, board, holes):
        got = score_cards_batch(rows, board, holes)
        assert got.shape == (len(holes), len(rows))
        holes = np.asarray(holes)
        joined = np.concatenate([np.repeat(holes, len(rows), axis=0), np.tile(rows, (len(holes), 1))], axis=1)
        assert (got == fold_scores(joined, board).reshape(len(holes), len(rows))).all()


class TestRankTablePath:
    """Two-card hands on rows that complete the board to five cards are
    scored from the rank table; the fold over the rows with the hands'
    cards appended is the oracle."""

    @staticmethod
    def _check(rows, board, holes):
        rows = np.asarray(rows, dtype=np.int64).reshape(len(rows), 5 - len(board))
        holes = np.asarray(holes, dtype=np.int64)
        TestEvaluate7._check_holes_against_joined_rows(rows, board, holes)

    def test_other_shapes_with_holes_are_refused(self):
        # only the table's shape is served: two-card hands on five-card boards
        with pytest.raises(InvalidCardsError, match="3-card hands on 3 \\+ 2 cards"):
            score_cards_batch(np.zeros((4, 2)), cards("KhKd7c"), [[0, 1, 2]])
        with pytest.raises(InvalidCardsError, match="2-card hands on 3 \\+ 1 cards"):
            score_cards_batch(np.zeros((4, 1)), cards("KhKd7c"), [[0, 1]])

    @staticmethod
    def _runouts(board, count=None, rng=None):
        """Every runout of the board, or `count` seeded ones."""
        deck = [c for c in range(52) if c not in board]
        if count is None:
            runs = list(itertools.combinations(deck, 5 - len(board)))
        else:
            runs = [rng.choice(deck, size=5 - len(board), replace=False) for _ in range(count)]
        return np.array(runs, dtype=np.int64).reshape(len(runs), 5 - len(board))

    @pytest.mark.parametrize("n_suited", [5, 4, 3])
    def test_suited_rivers_every_combo(self, n_suited):
        # every combo, dead ones included, on the river's one empty runout
        rng = np.random.default_rng(400 + n_suited)
        for board in _suited_boards(rng, 5, n_suited, 60):
            self._check(np.zeros((1, 0)), board, COMBO_CARDS)

    @pytest.mark.parametrize(
        "board", ["KhKd7c2s9h", "7h7d7cKs2h", "7h7d7sKhKd", "5s5d5c5hKh", "KhKd7c", "5s5d5c", "KhKd7h7c", "5s5d5c5h"]
    )
    def test_paired_trips_and_quads_boards(self, board):
        board = cards(board)
        if len(board) == 5:
            self._check(np.zeros((1, 0)), board, COMBO_CARDS)
        elif len(board) == 4:
            self._check(self._runouts(board), board, COMBO_CARDS)
        else:
            rng = np.random.default_rng(len(board))
            self._check(self._runouts(board), board, COMBO_CARDS[rng.choice(len(COMBO_CARDS), 40, replace=False)])

    def test_boards_of_zero_three_and_four_cards_with_runouts(self):
        rng = np.random.default_rng(77)
        hands = COMBO_CARDS[rng.choice(len(COMBO_CARDS), 30, replace=False)]
        self._check(self._runouts((), 3000, rng), (), hands)
        for size in (3, 4):
            for n_suited in range(size + 1):
                for board in _suited_boards(rng, size, n_suited, 4):
                    self._check(self._runouts(board, 200 if size == 3 else None, rng), board, hands)

    def test_hands_that_repeat_a_row_or_board_card(self):
        # repeated cards count by multiplicity in both paths, flushes too
        rng = np.random.default_rng(78)
        for size in (0, 3, 4, 5):
            for n_suited in range(min(size, 4) + 1):
                for board in _suited_boards(rng, size, n_suited, 3):
                    runs = self._runouts(board, 1 if size == 5 else 60, rng)
                    used = np.concatenate([np.array(board, dtype=np.int64), runs.ravel()])
                    holes = [rng.choice(used, 2) for _ in range(20)]  # pocket copies of one card too
                    holes += [[rng.choice(used), rng.integers(52)] for _ in range(20)]
                    self._check(runs, board, holes)


class TestDealRng:
    def test_same_seed_same_sequence(self):
        a = DealRng(123, stream=4)
        b = DealRng(123, stream=4)
        for _ in range(5):
            assert a.shuffled_deck() == b.shuffled_deck()

    def test_streams_differ(self):
        assert DealRng(123, 0).shuffled_deck() != DealRng(123, 1).shuffled_deck()


class TestEquityExhaustive:
    def test_nuts_on_complete_board(self):
        eq = equity_exhaustive(cards("AsKs"), cards("2h2d"), cards("QsJsTs3c3d"))
        assert eq == 1.0

    def test_tie_on_complete_board(self):
        eq = equity_exhaustive(cards("2c2d"), cards("2h2s"), cards("AsKsQsJd9d"))
        assert eq == 0.5

    def test_case_study_turn_is_a_lock(self):
        # full house vs busted combo draw: every one of the 44 rivers loses
        eq = equity_exhaustive(cards("9h9s"), cards("4d3d"), cards("9d5s2c2d"))
        assert eq == 1.0

    def test_complement(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            seven = rng.choice(52, size=8, replace=False).tolist()
            hero, villain, board = seven[:2], seven[2:4], seven[4:8]
            a = equity_exhaustive(hero, villain, board)
            b = equity_exhaustive(villain, hero, board)
            assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_river_enumeration_against_reference(self):
        hero, villain, board = cards("AhKh"), cards("QcQd"), cards("2h7h8sJc")
        eq = equity_exhaustive(hero, villain, board)
        wins = ties = 0
        dead = set(hero + villain + board)
        rivers = [c for c in range(52) if c not in dead]
        for r in rivers:
            h = ref_eval7(hero, board + [r])
            v = ref_eval7(villain, board + [r])
            wins += h > v
            ties += h == v
        assert eq == pytest.approx((wins + 0.5 * ties) / len(rivers), abs=1e-12)

    def test_collision_rejected(self):
        with pytest.raises(InvalidCardsError):
            equity_exhaustive(cards("AsKs"), cards("AsQd"), cards("2c3c4c"))


class TestEquityVsRange:
    def test_single_combo_equals_exhaustive(self):
        hero = cards("9h9s")
        villain = cards("4d3d")
        board = cards("9d5s2c")
        w = np.zeros(1326)
        w[combo_index(*villain)] = 1.0
        assert equity_vs_range(hero, w, BoardContext(board)) == pytest.approx(
            equity_exhaustive(hero, villain, board), abs=1e-12
        )

    def test_nuts_vs_any_range_on_complete_board(self):
        hero = cards("AsKs")
        board = cards("QsJsTs3c3d")
        grid = ComboGrid.uniform().strip(hero + board)
        assert equity_vs_range(hero, grid.weights, BoardContext(board)) == 1.0

    def test_three_combo_weighted_average(self):
        hero = cards("AhKd")
        board = cards("Ad7s2c5h")
        combos = [cards("QsQc"), cards("7h7d"), cards("KsQs")]
        weights = [0.5, 0.3, 0.2]
        w = np.zeros(1326)
        for c, wt in zip(combos, weights):
            w[combo_index(*c)] = wt
        expected = sum(wt * equity_exhaustive(hero, c, board) for c, wt in zip(combos, weights))
        got = equity_vs_range(hero, w, BoardContext(board))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_empty_support_raises(self):
        hero = cards("AsKs")
        w = np.zeros(1326)
        w[combo_index(*cards("AsQs"))] = 1.0  # collides with hero
        with pytest.raises(UndefinedRangeError):
            equity_vs_range(hero, w, BoardContext(cards("2c3c4c")))

    @pytest.mark.parametrize("seed,spot", [(1, "9d5s2c"), (2, "Ks7h7c2d"), (3, "AhTh6h5c2s"), (4, "QdJd3s")])
    def test_sampled_equity_equals_a_scalar_reference(self, seed, spot):
        # the decision layer's budget: 40 combos, 40 runouts
        hero, board = cards("AcKd"), cards(spot)
        weights = np.random.default_rng(seed).random(1326)
        want = self._sampled_reference(hero, weights, board, 40, 40, DealRng(seed).generator)
        got = equity_vs_range(hero, weights, BoardContext(board), combo_samples=40, runout_samples=40, rng=DealRng(seed))
        assert got == want

    def test_a_river_range_under_the_sample_budget_is_weighed_whole(self):
        hero, board = cards("AcKd"), cards("AhTh6h5c2s")
        gen = np.random.default_rng(5)
        weights = np.zeros(1326)
        weights[gen.choice(1326, size=30, replace=False)] = gen.random(30)
        want = self._sampled_reference(hero, weights, board, 40, 40, DealRng(5).generator)
        got = equity_vs_range(hero, weights, BoardContext(board), combo_samples=40, runout_samples=40, rng=DealRng(5))
        assert got == want

    def test_weighted_draws_are_the_generators_choice(self):
        """The combo draws read the generator as `Generator.choice` with
        probabilities does: the same picks, and the stream left in step."""
        from holdemlab.cards import _weighted_draws

        rng = np.random.default_rng(11)
        for seed in range(300):
            support = np.sort(rng.choice(1326, size=int(rng.integers(1, 1326)), replace=False))
            weights = rng.random(support.size) ** 4
            ours, numpys = DealRng(seed).generator, DealRng(seed).generator
            got = _weighted_draws(ours, support, weights, 40)
            assert np.array_equal(got, numpys.choice(support, size=40, p=weights / weights.sum()))
            assert ours.random() == numpys.random()

    @staticmethod
    def _sampled_reference(hero, weights, board, combo_samples, runout_samples, gen):
        """The same draws from the same generator, each runout scored with
        hand_score and skipped where it holds a villain card."""
        dead = set(hero) | set(board)
        w = np.where([bool(dead & set(c)) for c in COMBO_CARDS.tolist()], 0.0, weights)
        w = w / w.sum()
        support = np.flatnonzero(w > 0)
        if combo_samples < len(support):
            picks = gen.choice(support, size=combo_samples, p=w[support] / w[support].sum())
            combos, counts = np.unique(picks, return_counts=True)
        else:
            combos, counts = support, w[support]
        deck = [c for c in range(52) if c not in dead]
        runouts = list(itertools.combinations(deck, 5 - len(board)))
        if runout_samples < len(runouts):
            runouts = [runouts[i] for i in gen.choice(len(runouts), size=runout_samples, replace=False)]
        eqs, wts = [], []
        for combo, count in zip(combos, counts):
            villain = COMBO_CARDS[combo].tolist()
            pts = []
            for run in runouts:
                if set(villain) & set(run):
                    continue
                h = hand_score((*hero, *board, *run))
                v = hand_score((*villain, *board, *run))
                pts.append(1.0 if h > v else 0.5 if h == v else 0.0)
            if pts:
                eqs.append(sum(pts) / len(pts))
                wts.append(float(count))
        return float((np.array(eqs) * np.array(wts)).sum()) / float(np.array(wts).sum())
