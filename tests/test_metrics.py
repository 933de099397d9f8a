import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from holdemlab.cards import DealRng, _unrank_combinations, hand_score, parse_cards
from holdemlab import metrics
from holdemlab.metrics import (
    FailureCostModel,
    LedgerError,
    ResultLedger,
    TrialReport,
    Z_95,
    _adjusted_at_seat,
    _equity_multiway,
    all_in_adjusted,
    bb100,
    failure_cost,
    ledger_from_records,
    segment_analysis,
)
from holdemlab.table import SeatConfig, play_hand
from holdemlab.events import ActionType
from reference_allin import adjusted_at_seat_by_walk


class TestBB100:
    def test_trial_rows(self):
        # the published trial's input rows, in cents at 2c a blind
        assert bb100(17792, 64267, 2) == pytest.approx(13.8, abs=0.05)
        assert bb100(-13870, 64267, 2) == pytest.approx(-10.8, abs=0.05)
        assert bb100(959, 64267, 2) == pytest.approx(0.7, abs=0.05)
        assert bb100(4781, 64267, 2) == pytest.approx(3.7, abs=0.05)

    def test_zero_amount(self):
        assert bb100(0, 1234, 2) == 0.0

    def test_zero_hands_undefined(self):
        with pytest.raises(LedgerError):
            bb100(100, 0, 2)

    def test_linearity(self):
        assert bb100(2000, 500, 2) == pytest.approx(2 * bb100(1000, 500, 2))
        assert bb100(1000, 1000, 2) == pytest.approx(bb100(1000, 500, 2) / 2)


class TestLedger:
    def test_identity_exact_in_cents(self):
        rng = np.random.default_rng(0)
        ledger = ResultLedger(bb_cents=2, rakeback_rate=0.069)
        for h in range(1, 501):
            net = int(rng.integers(-400, 400))
            rake = int(rng.integers(0, 7))
            ledger.add_hand(h, net, rake)
        t = ledger.totals()
        assert t["pre_rake"] - t["rake"] == t["net"]
        assert t["final"] == pytest.approx(t["net"] + 0.069 * t["rake"])
        for row in ledger.rows:
            assert row.pre_rake_cents - row.rake_cents == row.net_cents

    def test_rakeback_rate_matches_trial_back_solve(self):
        # 9.59 / 138.70 = 6.91%: the shipped default is the rounded rate
        assert ResultLedger(bb_cents=2).rakeback_rate == pytest.approx(0.069, abs=0.001)


class TestFailureCost:
    def test_model_point_values_exact(self):
        direct, total = failure_cost(FailureCostModel(0.8, 7.35, 0.45))
        assert direct == 1.47
        assert total == 1.92

    def test_always_fold_costs_nothing_direct(self):
        direct, total = failure_cost(FailureCostModel(1.0, 7.35, 0.45))
        assert direct == 0.0
        assert total == 0.45

    def test_no_secondary(self):
        direct, total = failure_cost(FailureCostModel(0.8, 7.35, 0.0))
        assert total == direct

    def test_invalid_probability(self):
        with pytest.raises(LedgerError):
            FailureCostModel(1.4, 1.0, 0.0)


class TestSegments:
    def test_constant_winner_zero_spread(self):
        ledger = ResultLedger(bb_cents=2)
        for h in range(1, 40_001):
            ledger.add_hand(h, 2, 0)  # +1 BB every hand
        seg = segment_analysis(ledger, segment_size=10_000)
        assert seg.spread_bb100 == 0.0
        assert seg.segment_bb100 == [100.0] * 4

    def test_ci_matches_closed_form(self):
        rng = np.random.default_rng(42)
        sigma_bb = 8.0
        nets = rng.normal(0.0, sigma_bb * 2, size=50_000).astype(int)  # cents
        ledger = ResultLedger(bb_cents=2)
        for h, n in enumerate(nets, start=1):
            ledger.add_hand(h, int(n), 0)
        seg = segment_analysis(ledger, 10_000)
        expected = Z_95 * (np.std(nets / 2, ddof=1)) / math.sqrt(len(nets)) * 100
        assert seg.ci_half_width_bb100 == pytest.approx(expected, rel=0.05)

    def test_partial_segment_flag(self):
        ledger = ResultLedger(bb_cents=2)
        for h in range(1, 5001):
            ledger.add_hand(h, 0, 0)
        seg = segment_analysis(ledger, segment_size=10_000)
        assert seg.partial_segment


class Script:
    """Takes its planned action the first time it acts on a street; otherwise
    calls any bet and checks."""

    def __init__(self, **plan):
        self.plan = plan  # street -> (ActionType, to cents)
        self.done = set()

    def __call__(self, view):
        if view.street in self.plan and view.street not in self.done:
            self.done.add(view.street)
            return self.plan[view.street]
        return (ActionType.CALL, 0) if view.to_call_cents > 0 else (ActionType.CHECK, 0)


JAM = (ActionType.ALL_IN, 0)


def allin_record(hero_equity_high: bool):
    """Money goes in on the turn: a full house against a dead combo draw."""
    hero_hole = parse_cards("9h9s") if hero_equity_high else parse_cards("4d3d")
    vill_hole = parse_cards("4d3d") if hero_equity_high else parse_cards("9h9s")
    deck = hero_hole + vill_hole + parse_cards("9d5s2c2dKs")
    deck += [c for c in range(52) if c not in set(deck)]
    seats = [SeatConfig("hero", 120, Script(turn=JAM)), SeatConfig("villain", 120, Script(turn=JAM))]
    return play_hand(1, "t", seats, 0, 1, 2, deck)


class TestAllInAdjusted:
    def test_no_allin_equals_actual(self):
        deck = DealRng(3).shuffled_deck()
        seats = [SeatConfig("hero", 200, Script()), SeatConfig("villain", 200, Script())]
        record = play_hand(1, "t", seats, 0, 1, 2, deck)
        assert all_in_adjusted(record, "hero") == record.net[record.hero_seat_of("hero")]

    def test_hundred_percent_equity_lock_equals_actual(self):
        # hero's full house vs the drawing-dead combo draw: adjusted == actual
        record = allin_record(hero_equity_high=True)
        seat = record.hero_seat_of("hero")
        assert record.net[seat] > 0
        assert all_in_adjusted(record, "hero") == record.net[seat]

    def test_zero_equity_lock_flips_to_full_loss(self):
        record = allin_record(hero_equity_high=False)
        adjusted = all_in_adjusted(record, "hero")
        # hero was drawing dead when the money went in: expectation is -invested
        assert adjusted == -120

    @pytest.mark.parametrize(
        "hero, villains, board, seed, equity",
        [
            # pre-flop locks sample 12,000 runouts; flop and turn locks list theirs
            ("AsAh", ["KdKc"], "", 7, 0.81625),
            ("AsAh", ["KdKc", "7h6h"], "", 11, 0.6148055555555555),
            ("9h9s", ["4d3d"], "9d5s2c", 0, 0.7262626262626263),
            ("9h9s", ["4d3d", "AcKc"], "9d5s2c", 3, 0.7131782945736435),
            ("JhTh", ["AdAc"], "9h8c2h3s", 5, 0.3409090909090909),
            ("2c2d", ["AsQh", "KcJc", "9h8h"], "", 3, 0.21177083333333332),
        ],
    )
    def test_lock_equity_is_pinned(self, hero, villains, board, seed, equity):
        got = _equity_multiway(parse_cards(hero), [parse_cards(v) for v in villains], tuple(parse_cards(board)), seed=seed)
        assert got == equity

    def test_ledger_yellow_equals_green_without_allins(self):
        class Meek:
            def __call__(self, view):
                return (ActionType.CHECK, 0) if view.to_call_cents <= 0 else (
                    (ActionType.CALL, 0) if view.to_call_cents < 20 else (ActionType.FOLD, 0)
                )

        records = []
        for seed in range(30):
            deck = DealRng(seed, 3).shuffled_deck()
            seats = [SeatConfig("hero", 200, Meek()), SeatConfig("villain", 200, Meek())]
            records.append(play_hand(seed + 1, "t", seats, 0, 1, 2, deck))
        ledger = ledger_from_records(records, "hero", 2)
        t = ledger.totals()
        assert t["adjusted"] == t["net"]


def scripted_hand(*seats, button=0, deck_seed=5):
    """One engine hand; each seat is (player id, stack cents, Script)."""
    deck = DealRng(deck_seed).shuffled_deck()
    return play_hand(1, "t", [SeatConfig(*s) for s in seats], button, 1, 2, deck)


def assert_matches_walk(record):
    """all_in_adjusted equals the action-by-action reference for every seat."""
    for _, pid, _ in record.seats:
        assert all_in_adjusted(record, pid) == adjusted_at_seat_by_walk(record, record.hero_seat_of(pid)), pid


class TestLockFinderOracle:
    def test_fastfold_session_every_seat(self):
        from holdemlab.session import SessionConfig, run_fastfold_session

        records = []
        run_fastfold_session(SessionConfig(hands=2000, seed=31), on_record=records.append)
        adjusted = 0
        for record in records:
            assert_matches_walk(record)
            adjusted += sum(_adjusted_at_seat(record, s) != record.net[s] for s, _, _ in record.seats)
        assert adjusted > 0

    @pytest.mark.parametrize(
        "seats",
        [
            # heads-up, the villain's big blind is its whole stack
            (("hero", 400, Script()), ("villain", 2, Script())),
            # heads-up, the hero's big blind is its whole stack
            (("villain", 400, Script()), ("hero", 2, Script())),
        ],
    )
    def test_preflop_lock_from_a_blind(self, seats):
        record = scripted_hand(*seats)
        assert len(record.showdown) == 2 and len(record.actions) == 1
        assert_matches_walk(record)
        assert all_in_adjusted(record, "hero") != record.net[record.hero_seat_of("hero")]

    def test_blinds_covering_both_stacks_never_lock(self):
        # both seats are all-in from posting, so no action is ever taken and
        # the walk never tests for a lock
        record = scripted_hand(("hero", 1, Script()), ("villain", 2, Script()))
        assert len(record.showdown) == 2 and record.actions == ()
        assert_matches_walk(record)
        assert all_in_adjusted(record, "hero") == record.net[0]

    def test_flop_lock_with_a_small_blind_all_in_from_posting(self):
        # seat 1 posts its whole stack as the small blind and never acts;
        # seat 2 jams the flop and the hero covers both
        record = scripted_hand(("hero", 500, Script()), ("sb", 1, Script()), ("bb", 300, Script(flop=JAM)))
        assert len(record.showdown) == 3 and not any(seat == 1 for _, seat, _, _ in record.actions)
        assert_matches_walk(record)
        assert all_in_adjusted(record, "hero") != record.net[0]

    def test_flop_lock_with_a_listed_seat_of_no_chips(self):
        # seat 1 is listed with no chips, so the engine deals it out and
        # seat 3 posts the big blind with its only chip; seat 2 jams the
        # flop and the hero covers both. The flop-lock value is counted here
        # without the walk: the hero's pot share over every turn and river,
        # with the scalar evaluator and exact fractions.
        record = scripted_hand(
            ("hero", 500, Script()), ("busted", 0, Script()), ("v", 300, Script(flop=JAM)), ("short", 1, Script())
        )
        holes = dict(record.showdown)
        assert set(holes) == {0, 2, 3} and not any(seat == 3 for _, seat, _, _ in record.actions)
        flop = record.board[:3]
        live = [c for c in range(52) if c not in {*flop, *holes[0], *holes[2], *holes[3]}]
        runs = list(itertools.combinations(live, 2))
        share = Fraction(0)
        for run in runs:
            scores = [hand_score((*holes[seat], *flop, *run)) for seat in (0, 2, 3)]
            if scores[0] == max(scores):
                share += Fraction(1, scores.count(scores[0]))
        pot = sum(record.awards.values()) - record.total_rake()
        invested = 300  # 2 pre-flop and the 298 of the flop jam
        expected = round(share / len(runs) * pot) - invested
        assert all_in_adjusted(record, "hero") == expected != record.net[0]

    def test_button_listed_with_no_chips_is_a_ledger_error(self, tmp_path, capsys):
        # the hand above, hand-edited so that the button is the 0-chip seat
        from holdemlab.cli import main as cli_main
        from holdemlab.table import parse_history, write_history

        record = scripted_hand(
            ("hero", 500, Script()), ("busted", 0, Script()), ("v", 300, Script(flop=JAM)), ("short", 1, Script())
        )
        path = tmp_path / "edited.hh"
        write_history([record], str(path))
        path.write_text(path.read_text().replace(" btn=0 ", " btn=1 ", 1))
        (edited,) = parse_history(str(path))
        with pytest.raises(LedgerError, match="hand 1: btn 1 is not a listed seat with chips"):
            all_in_adjusted(edited, "hero")
        assert cli_main(["report", str(path), "--hero", "hero"]) == 2
        assert capsys.readouterr().err == f"error: {path}: hand 1: btn 1 is not a listed seat with chips\n"

    def test_flop_lock_by_a_short_call(self):
        # the villain calls a 200 bet with its last 148, recorded as a call
        record = scripted_hand(("hero", 500, Script(flop=(ActionType.BET, 200))), ("villain", 150, Script()))
        assert ("flop", 1, "call", 148) in record.actions
        assert_matches_walk(record)
        assert all_in_adjusted(record, "hero") != record.net[0]

    def test_turn_lock_three_way_side_pot_hero_covers(self):
        record = scripted_hand(
            ("hero", 600, Script()), ("v1", 100, Script(turn=JAM)), ("v2", 250, Script(turn=JAM))
        )
        # both villains are all-in for different amounts: a main and a side pot
        assert len(record.showdown) == 3
        assert {seat for street, seat, action, _ in record.actions if action == "allin"} == {1, 2}
        assert_matches_walk(record)
        assert all_in_adjusted(record, "hero") != record.net[0]

    @pytest.mark.parametrize("street", ["preflop", "flop", "turn"])
    def test_hero_jam_locks(self, street):
        record = scripted_hand(("hero", 300, Script(**{street: JAM})), ("villain", 400, Script()))
        assert (street, 0, "allin", 300 if street == "preflop" else 298) in record.actions
        assert_matches_walk(record)
        assert all_in_adjusted(record, "hero") != record.net[0]

    def test_river_allin_keeps_the_actual_net(self):
        record = scripted_hand(("hero", 300, Script(river=JAM)), ("villain", 300, Script()))
        assert len(record.showdown) == 2 and record.actions[-2][2] == "allin"
        assert_matches_walk(record)
        assert all_in_adjusted(record, "hero") == record.net[0]


class TestRiverExit:
    """A showdown in which every showdown seat acted on the river keeps the
    actual net without a lock search."""

    def test_short_stack_hands_match_the_walk(self):
        # 2-6 seats of 1-400 cents, some listing a seat with no chips; each
        # seat jams on a random street or never
        rng = np.random.default_rng(26)
        plans = [{}, {"preflop": JAM}, {"flop": JAM}, {"turn": JAM}, {"river": JAM}]
        exits = locks = 0
        for hand_id in range(1, 301):
            n = int(rng.integers(2, 7))
            stacks = [int(s) for s in rng.integers(1, 401, size=n)]
            if n > 2 and rng.random() < 0.25:
                stacks[int(rng.integers(n))] = 0
            seats = [SeatConfig(f"p{i}", stack, Script(**plans[int(rng.integers(5))])) for i, stack in enumerate(stacks)]
            button = int(rng.choice([i for i, stack in enumerate(stacks) if stack > 0]))
            record = play_hand(hand_id, "t", seats, button, 1, 2, DealRng(hand_id).shuffled_deck())
            on_river = {seat for street, seat, _, _ in record.actions if street == "river"}
            exits += len(record.showdown) > 1 and on_river >= dict(record.showdown).keys()
            for seat, _, _ in record.seats:
                adjusted = _adjusted_at_seat(record, seat)
                assert adjusted == adjusted_at_seat_by_walk(record, seat), (hand_id, seat)
                locks += adjusted != record.net[seat]
        assert exits > 0 and locks > 0

    @pytest.mark.parametrize(
        "seats",
        [
            (("hero", 300, Script()), ("v1", 300, Script()), ("v2", 300, Script())),  # checked down three-way
            (("hero", 300, Script(river=JAM)), ("villain", 300, Script())),  # all in on the river
        ],
    )
    def test_no_lock_search_when_every_showdown_seat_acted_on_the_river(self, monkeypatch, seats):
        record = scripted_hand(*seats)
        assert len(record.showdown) == len(seats)
        assert {seat for street, seat, _, _ in record.actions if street == "river"} == dict(record.showdown).keys()

        def unreachable(*args, **kwargs):
            raise AssertionError("the lock search ran")

        for name in ("_equity_multiway", "positions_for", "bisect_left"):
            monkeypatch.setattr(metrics, name, unreachable)
        for seat, _, _ in record.seats:
            assert _adjusted_at_seat(record, seat) == record.net[seat]


class TestZeroSum:
    def test_per_hand_net_plus_rake_is_zero(self):
        from holdemlab.session import SessionConfig, run_fastfold_session

        collected = []
        run_fastfold_session(SessionConfig(hands=60, seed=13), on_record=collected.append)
        for record in collected:
            assert sum(record.net.values()) + record.total_rake() == 0


class TestTrialReport:
    def test_report_identity_and_text(self):
        ledger = ResultLedger(bb_cents=2)
        rng = np.random.default_rng(1)
        for h in range(1, 2001):
            ledger.add_hand(h, int(rng.integers(-40, 44)), int(rng.integers(0, 4)))
        report = TrialReport.from_ledger(ledger)
        assert report.pre_rake_cents - report.rake_cents == report.post_rake_cents
        text = report.to_text()
        assert "BB/100" in text and "rake" in text
        csv = report.to_csv()
        assert csv.startswith("metric,cash_cents,bb100")


class TestRunoutUnranking:
    """Sampled runouts are unranked straight to cards; they must be the
    very combinations itertools would list at those positions."""

    def test_every_rank_matches_itertools_on_a_small_deck(self):
        deck = list(range(12))
        for k in range(0, 6):
            combos = list(itertools.combinations(deck, k))
            got = _unrank_combinations(len(deck), k, np.arange(len(combos)))
            assert got.shape == (len(combos), k)
            assert [tuple(row) for row in got.tolist()] == combos

    @pytest.mark.parametrize("n", range(44, 48))
    def test_every_rank_matches_itertools_for_one_and_two_cards(self, n):
        # the turn and river runouts of an equity sweep or a lock
        for k in (0, 1, 2):
            combos = list(itertools.combinations(range(n), k))
            got = _unrank_combinations(n, k, np.arange(len(combos)))
            assert [tuple(row) for row in got.tolist()] == combos

    @pytest.mark.parametrize("n", range(44, 51))
    def test_five_card_ranks_match_the_block_count(self, n):
        """Pre-flop runouts from every deck size a lock can leave: the rank
        of a combination is the number of combinations before it, counted
        block by block (those with a smaller element where it first
        differs), so each unranked row must count back to its pick."""
        total = math.comb(n, 5)
        picks = np.random.Generator(np.random.PCG64(n)).choice(total, size=300, replace=False)
        picks = np.concatenate([[0, total - 1], picks])
        got = _unrank_combinations(n, 5, picks)
        assert got[0].tolist() == [0, 1, 2, 3, 4] and got[1].tolist() == list(range(n - 5, n))
        for row, pick in zip(got.tolist(), picks.tolist()):
            assert row == sorted(set(row)) and 0 <= row[0] and row[-1] < n
            before, prev = 0, -1
            for j, x in enumerate(row):
                before += sum(math.comb(n - 1 - y, 4 - j) for y in range(prev + 1, x))
                prev = x
            assert before == pick

    def test_seeded_preflop_sample_matches_the_listed_runouts(self):
        deck = [c for c in range(52) if c not in (0, 13, 26, 39)]  # 48 cards, as heads-up pre-flop
        runouts = list(itertools.combinations(deck, 5))
        gen = np.random.Generator(np.random.PCG64(2023))
        picks = gen.choice(len(runouts), size=12_000, replace=False)
        got = np.array(deck)[_unrank_combinations(len(deck), 5, picks)]
        assert [tuple(row) for row in got.tolist()] == [runouts[i] for i in picks]
