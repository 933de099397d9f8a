import re

import numpy as np
import pytest

from holdemlab.cards import DealRng, hand_score, parse_cards
from holdemlab.events import ActionType
from holdemlab.table import (
    ARCHETYPE_TARGETS,
    BotPolicy,
    HistoryFormatError,
    IllegalActionError,
    PolicyView,
    RakeModel,
    SeatConfig,
    parse_history,
    play_hand,
    positions_for,
    record_to_lines,
    replay_hand,
    settle_pots,
    write_history,
)

from reference_eval import ref_eval7, ref_settle
from reference_view import ref_view


class AlwaysFold:
    def __call__(self, view):
        return (ActionType.CHECK, 0) if view.to_call_cents <= 0 else (ActionType.FOLD, 0)


class Station:
    def __call__(self, view):
        return (ActionType.CHECK, 0) if view.to_call_cents <= 0 else (ActionType.CALL, 0)


class Shover:
    def __call__(self, view):
        if view.stack_cents == 0:
            return (ActionType.CHECK, 0)
        if view.to_call_cents >= view.stack_cents:
            return (ActionType.CALL, 0)
        return (ActionType.ALL_IN, 0)


def six_seats(policy_factory, stacks=None):
    stacks = stacks or [200] * 6
    return [SeatConfig(f"p{i}", stacks[i], policy_factory()) for i in range(6)]


class TestPositions:
    def test_six_max_ring(self):
        pos = positions_for(range(6), button=2)
        assert pos == {3: "sb", 4: "bb", 5: "utg", 0: "hj", 1: "co", 2: "btn"}

    def test_heads_up_button_is_sb(self):
        pos = positions_for([0, 1], button=0)
        assert pos == {0: "sb", 1: "bb"}

    def test_seven_seats_have_no_names(self):
        with pytest.raises(ValueError, match="^7 players dealt in; a table seats at most 6$"):
            positions_for(range(7), button=0)

    def test_engine_deals_in_two_to_six(self):
        seats = [SeatConfig(f"p{i}", 200, Station()) for i in range(7)]
        with pytest.raises(ValueError, match="^7 players dealt in; a table seats at most 6$"):
            play_hand(1, "t", seats, 0, 1, 2, DealRng(0, 2).shuffled_deck())
        seats[3].stack_cents = 0  # a seat without chips is not dealt in
        record = play_hand(1, "t", seats, 0, 1, 2, DealRng(0, 2).shuffled_deck())
        assert len(record.seats) == 7 and 3 not in record.holes
        for seat in seats[1:]:
            seat.stack_cents = 0
        with pytest.raises(ValueError, match="^need at least two seated players with chips$"):
            play_hand(1, "t", seats, 0, 1, 2, DealRng(0, 2).shuffled_deck())

    @pytest.mark.parametrize("stack", [200, 0])
    def test_engine_refuses_two_seats_with_one_player_id(self, stack):
        """The record lists every seat, one without chips too, and
        `hero_seat_of` finds a player by id."""
        seats = six_seats(Station)
        seats[4] = SeatConfig("p1", stack, Station())
        with pytest.raises(ValueError, match="^two seats have one player id$"):
            play_hand(1, "t", seats, 0, 1, 2, DealRng(0, 2).shuffled_deck())


class TestPlayHand:
    def test_walk_when_everyone_folds(self):
        record = play_hand(1, "t", six_seats(AlwaysFold), 0, 1, 2, DealRng(1).shuffled_deck())
        nets = record.net
        # big blind wins the small blind, no rake without a flop
        assert record.total_rake() == 0
        assert sum(nets.values()) == 0
        assert nets[2] == 1 and nets[1] == -1

    def test_chip_conservation(self):
        for seed in range(30):
            record = play_hand(seed, "t", six_seats(Shover), seed % 6, 1, 2, DealRng(seed).shuffled_deck())
            assert sum(record.net.values()) + record.total_rake() == 0

    def test_showdown_awards_best_hand(self):
        record = play_hand(3, "t", six_seats(Station, [100] * 6), 1, 1, 2, DealRng(3).shuffled_deck())
        if len(record.showdown) > 1:
            scores = {s: hand_score(h + record.board) for s, h in record.showdown}
            best = max(scores.values())
            winners = {s for s, v in scores.items() if v == best}
            paid = {s for s, amt in record.awards.items() if amt > 0}
            assert paid <= winners | {s for s, _, _ in record.seats}
            assert winners & paid

    def test_illegal_action_aborts(self):
        class Cheat:
            def __call__(self, view):
                return (ActionType.CHECK, 0)  # checks facing the blind

        seats = six_seats(AlwaysFold)
        seats[3] = SeatConfig("cheat", 200, Cheat())
        with pytest.raises(IllegalActionError):
            play_hand(1, "t", seats, 0, 1, 2, DealRng(5).shuffled_deck())

    def test_rake_cap_and_no_flop_no_drop(self):
        model = RakeModel(percentage=0.05, cap_bb=3.0, no_flop_no_drop=True)
        assert model.rake_for(10_000, 2, saw_flop=True) == 6  # capped at 3 BB
        assert model.rake_for(40, 2, saw_flop=True) == 2
        assert model.rake_for(10_000, 2, saw_flop=False) == 0


class TestSettlement:
    def test_side_pots_match_reference_on_randomized_allins(self):
        rng = np.random.default_rng(2024)
        for case in range(1000):
            n = int(rng.integers(2, 7))
            contributions = {i: int(rng.integers(0, 120)) for i in range(n)}
            if sum(contributions.values()) == 0:
                continue
            live = {i for i in range(n) if rng.random() < 0.7}
            if not live:
                live = {int(rng.integers(n))}
            # random strict-or-tied rankings
            ranking = {i: (int(rng.integers(1, 5)),) for i in range(n)}
            scores = {i: ranking[i][0] for i in range(n)}
            odd_order = sorted(range(n))
            mine = settle_pots(contributions, live, scores, odd_order)
            ref = ref_settle(contributions, live, ranking)
            assert mine == ref, f"case {case}: {contributions} live={live} ranks={ranking}"
            assert sum(mine.values()) == sum(contributions.values())

    def test_split_pot_odd_cent_goes_left_of_button(self):
        contributions = {0: 50, 1: 50, 2: 1}
        awards = settle_pots(contributions, {0, 1}, {0: 5, 1: 5, 2: 0}, [1, 2, 0])
        assert awards[1] == 51 and awards[0] == 50


class RandomLegalTable:
    """Seats that pick a random legal action, and the observer that checks
    every view the engine builds against `ref_view`. Bets and raises are
    sized anywhere from the minimum to all-in, and all-ins are pushed
    whatever the price, so short all-ins that only call come up too."""

    def __init__(self, rng):
        self.rng = rng
        self.engine = None
        self.views = 0

    def seat(self, player_id):
        return lambda view: self.act(player_id, view)

    def act(self, player_id, view):
        engine = self.engine
        seat = next(s for s in engine.seats if s.player_id == player_id)
        assert seat.in_hand and not seat.all_in, f"{player_id} asked to act but cannot"
        others_act = any(s.in_hand and not s.all_in for s in engine.seats if s is not seat)
        assert view.to_call_cents > 0 or others_act, f"{player_id} asked with nothing to contest"
        if engine.street != "preflop":
            assert self.can_act_at_deal[engine.street] >= 2, f"betting on a {engine.street} nobody can contest"
        ref = ref_view(engine, seat)
        for name in PolicyView.__dataclass_fields__:
            assert getattr(view, name) == getattr(ref, name), (
                f"hand {view.hand_id} {view.street} {player_id}: {name} {getattr(view, name)!r} != {getattr(ref, name)!r}"
            )
        self.views += 1
        r = self.rng.random()
        if r < 0.1:
            return (ActionType.FOLD, 0)
        if r < 0.22:
            return (ActionType.ALL_IN, 0)
        cap = view.street_committed_cents + view.stack_cents
        if r < 0.45 and view.legal[-1] in ("bet", "raise"):
            low = min(view.min_raise_to_cents, cap)
            target = int(self.rng.integers(low, cap + 1))
            return (ActionType.BET if view.legal[-1] == "bet" else ActionType.RAISE, target)
        return (ActionType.CHECK, 0) if view.to_call_cents <= 0 else (ActionType.CALL, 0)

    # -- observer ---------------------------------------------------------------

    def on_begin(self, engine):
        self.engine = engine
        self.can_act_at_deal = {}

    def on_action(self, *args):
        pass

    def on_street(self, street, board):
        self.can_act_at_deal[street] = sum(1 for s in self.engine.seats if s.in_hand and not s.all_in)

    def on_showdown(self, reveals):
        pass

    def on_end(self, record):
        pass


def random_stack(rng, bb):
    kind = rng.random()
    if kind < 0.1:
        return 0
    if kind < 0.35:
        return int(rng.integers(1, 3 * bb + 1))
    if kind < 0.75:
        return int(rng.integers(1, 100 * bb))
    return int(rng.integers(100 * bb, 2000 * bb))


class TestViews:
    def test_views_and_awards_match_the_reference_on_random_hands(self):
        """Random legal play at 2-6 seats with stacks from one cent to deep
        and some seats with no chips: every view equals the one computed from
        scratch, and every hand's awards equal the settlement oracle's."""
        rng = np.random.default_rng(424242)
        tbl = RandomLegalTable(rng)
        blinds_all_in = calls_all_in = showdowns = 0
        for hand_id in range(1, 1501):
            n = int(rng.integers(2, 7))
            sb, bb = ((1, 2), (5, 10))[int(rng.integers(2))]
            stacks = [random_stack(rng, bb) for _ in range(n)]
            while sum(1 for c in stacks if c > 0) < 2:
                stacks[int(rng.integers(n))] = random_stack(rng, bb) or bb
            button = int(rng.choice([i for i, c in enumerate(stacks) if c > 0]))
            seats = [SeatConfig(f"p{i}", stacks[i], tbl.seat(f"p{i}")) for i in range(n)]
            deck = [int(c) for c in rng.permutation(52)]
            record = play_hand(hand_id, "t", seats, button, sb, bb, deck, observer=tbl)
            engine = tbl.engine

            contributions = {s.idx: s.total_committed for s in engine.seats}
            live = {s.idx for s in engine.seats if s.in_hand}
            # ref_settle gives odd cents to the lowest seat; the engine gives
            # them clockwise from the button's left, so relabel seats that way.
            dealt = sorted(s.idx for s in engine.seats if s.hole)
            start = dealt.index(button)
            order = [dealt[(start + 1 + i) % len(dealt)] for i in range(len(dealt))]
            order += [s.idx for s in engine.seats if not s.hole]
            label = {seat: i for i, seat in enumerate(order)}
            ranking = {label[s]: (0,) for s in live}
            if len(live) > 1:
                ranking = {label[s]: ref_eval7(engine.seats[s].hole, record.board) for s in live}
                showdowns += 1
            ref = ref_settle({label[s]: c for s, c in contributions.items()}, {label[s] for s in live}, ranking)
            assert {s: record.awards.get(s, 0) for s in contributions} == {s: ref[label[s]] for s in contributions}, (
                f"hand {hand_id}"
            )
            assert sum(record.net.values()) + record.total_rake() == 0
            blinds_all_in += sum(1 for s in engine.seats if s.all_in and not any(a[1] == s.idx for a in record.actions))
            calls_all_in += sum(1 for st, s, a, c in record.actions if a == "call" and engine.seats[s].all_in)
        # The hands reach the cases the running counts must follow.
        assert tbl.views > 5000
        assert blinds_all_in > 50 and calls_all_in > 500 and showdowns > 500


class TestReplay:
    def test_replay_reproduces_every_hand(self):
        rng = DealRng(99)
        for seed in range(40):
            record = play_hand(
                seed, "t", six_seats(Shover if seed % 3 else Station), seed % 6, 1, 2,
                DealRng(seed, 1).shuffled_deck(),
            )
            again = replay_hand(record)
            assert again.actions == record.actions
            assert again.board == record.board
            assert again.net == record.net
            assert again.awards == record.awards
            assert again.rake_paid == record.rake_paid

    def test_replay_raises_when_its_script_runs_out(self):
        record = play_hand(1, "t", six_seats(Station), 0, 1, 2, DealRng(1, 1).shuffled_deck())
        record.actions = record.actions[:-1]
        with pytest.raises(IllegalActionError, match="script exhausted"):
            replay_hand(record)


class TestHistoryFormat:
    def make_records(self, n=10):
        out = []
        for seed in range(n):
            out.append(
                play_hand(seed + 1, "t", six_seats(Station), seed % 6, 1, 2, DealRng(seed, 2).shuffled_deck())
            )
        return out

    def test_round_trip_byte_identical(self, tmp_path):
        records = self.make_records()
        path = tmp_path / "hh.txt"
        write_history(records, str(path))
        first = path.read_bytes()
        parsed = parse_history(str(path))
        path2 = tmp_path / "hh2.txt"
        write_history(parsed, str(path2))
        assert path2.read_bytes() == first
        assert parsed == records
        for record in records + parsed:
            assert all(type(seq) is tuple for seq in (record.seats, record.actions, record.showdown))

    def test_parsed_records_replay(self, tmp_path):
        records = self.make_records(5)
        path = tmp_path / "hh.txt"
        write_history(records, str(path))
        for record in parse_history(str(path)):
            again = replay_hand(record)
            assert again.net == record.net

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("HHv1 hand=1 table=t btn=0 sb=1 bb=2 flop=0 fail=0\nGARBAGE here\n")
        with pytest.raises(HistoryFormatError, match="line 2"):
            parse_history(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(HistoryFormatError):
            parse_history(str(path))


class TestHistoryParser:
    """Each malformed line fails with its own line number; accepted input
    parses as before."""

    @staticmethod
    def lines():
        # one checked-down six-way hand: every tag, showdown included
        record = play_hand(1, "t", six_seats(Station), 0, 1, 2, DealRng(0, 2).shuffled_deck())
        return record_to_lines(record)

    @staticmethod
    def parse(tmp_path, lines):
        path = tmp_path / "hh.txt"
        path.write_text("\n".join(lines) + "\n")
        return parse_history(str(path))

    @staticmethod
    def line_of(lines, prefix):
        return next(i for i, line in enumerate(lines) if line.startswith(prefix))

    def test_body_line_before_any_header(self, tmp_path):
        lines = self.lines()
        with pytest.raises(HistoryFormatError, match=r"^line 1: record body before header"):
            self.parse(tmp_path, lines[1:2] + lines)

    def test_body_line_between_records(self, tmp_path):
        lines = self.lines()
        with pytest.raises(HistoryFormatError, match=rf"^line {len(lines) + 1}: record body before header"):
            self.parse(tmp_path, lines + ["NET 0 0"] + lines)

    def test_act_line_seen_before_is_still_checked_between_records(self, tmp_path):
        lines = self.lines()
        act = lines[self.line_of(lines, "ACT")]
        with pytest.raises(HistoryFormatError, match=rf"^line {len(lines) + 1}: record body before header"):
            self.parse(tmp_path, lines + [act] + lines)

    @pytest.mark.parametrize("tag", ["HOLE", "BOARD", "SHOW"])
    def test_bad_card(self, tmp_path, tag):
        lines = self.lines()
        i = self.line_of(lines, tag)
        lines[i] = lines[i][:-2] + "Zz"
        with pytest.raises(HistoryFormatError, match=rf"^line {i + 1}: cannot parse card 'Zz'"):
            self.parse(tmp_path, lines)

    def test_non_integer_act_amount(self, tmp_path):
        lines = self.lines()
        i = self.line_of(lines, "ACT flop")
        lines[i] = "ACT flop 1 bet 4x"
        with pytest.raises(HistoryFormatError, match=rf"^line {i + 1}: invalid literal for int"):
            self.parse(tmp_path, lines)

    @pytest.mark.parametrize("tag", ["SEAT", "HOLE", "BOARD", "ACT", "SHOW", "AWARD", "NET", "END"])
    def test_field_too_many(self, tmp_path, tag):
        lines = self.lines()
        i = self.line_of(lines, tag)
        lines[i] += " 7"
        with pytest.raises(HistoryFormatError, match=rf"^line {i + 1}: too many values"):
            self.parse(tmp_path, lines)

    @pytest.mark.parametrize("tag", ["SEAT", "HOLE", "BOARD", "ACT", "SHOW", "AWARD", "NET"])
    def test_field_too_few(self, tmp_path, tag):
        lines = self.lines()
        i = self.line_of(lines, tag)
        lines[i] = lines[i].rsplit(" ", 1)[0]
        with pytest.raises(HistoryFormatError, match=rf"^line {i + 1}: not enough values"):
            self.parse(tmp_path, lines)

    @pytest.mark.parametrize("edit", ["unknown", "repeated", "missing", "reordered"])
    def test_header_keys_exact(self, tmp_path, edit):
        lines = self.lines()
        lines[0] = {
            "unknown": lines[0] + " junk=1",
            "repeated": lines[0] + " hand=2",
            "missing": re.sub(" flop=.", "", lines[0]),
            "reordered": re.sub(r"hand=(\S+) table=(\S+)", r"table=\2 hand=\1", lines[0]),
        }[edit]
        with pytest.raises(HistoryFormatError, match=r"^line 1: header keys must be"):
            self.parse(tmp_path, lines)

    def test_header_fail_optional(self, tmp_path):
        lines = self.lines()
        assert lines[0].endswith(" fail=0")
        assert self.parse(tmp_path, [lines[0][: -len(" fail=0")]] + lines[1:]) == self.parse(tmp_path, lines)

    def test_header_whitespace_runs(self, tmp_path):
        lines = self.lines()
        spaced = " " + lines[0].replace(" ", "  ").replace("table=", "\ttable=") + " \t"
        assert self.parse(tmp_path, [spaced] + lines[1:]) == self.parse(tmp_path, lines)

    def test_non_integer_header_value(self, tmp_path):
        lines = self.lines()
        lines[0] = lines[0].replace(" btn=0 ", " btn=x ")
        with pytest.raises(HistoryFormatError, match=r"^line 1: invalid literal for int\(\) with base 10: 'x'"):
            self.parse(tmp_path, lines)

    @pytest.mark.parametrize("edit", ["net-missing", "net-twice", "net-unseated", "seat-renumbered"])
    def test_net_lines_name_each_seat_once(self, tmp_path, edit):
        lines = self.lines()
        net = self.line_of(lines, "NET 0 ")
        seat = self.line_of(lines, "SEAT 0 ")
        if edit == "net-missing":
            del lines[net]
        elif edit == "net-twice":
            lines.insert(net, lines[net])
        elif edit == "net-unseated":
            lines[net] = lines[net].replace("NET 0 ", "NET 9 ")
        else:
            lines[seat] = lines[seat].replace("SEAT 0 ", "SEAT 1 ")
        with pytest.raises(HistoryFormatError, match=r"^line 1: the NET lines must name each SEAT line's seat once$"):
            self.parse(tmp_path, lines)
        good = self.lines()  # the error names the header of the record at fault
        with pytest.raises(HistoryFormatError, match=rf"^line {len(good) + 1}: the NET lines"):
            self.parse(tmp_path, good + lines)

    @pytest.mark.parametrize("prefix, unseated", [("AWARD 0 ", "AWARD 7 "), ("HOLE 1 ", "HOLE 8 "), ("SHOW 5 ", "SHOW 8 ")])
    def test_award_hole_and_show_lines_name_a_listed_seat(self, tmp_path, prefix, unseated):
        lines = self.lines()
        i = self.line_of(lines, prefix)
        lines[i] = lines[i].replace(prefix, unseated)
        with pytest.raises(HistoryFormatError, match=r"^line 1: AWARD, HOLE and SHOW lines must name a SEAT line's seat$"):
            self.parse(tmp_path, lines)
        good = self.lines()
        with pytest.raises(HistoryFormatError, match=rf"^line {len(good) + 1}: AWARD, HOLE and SHOW"):
            self.parse(tmp_path, good + lines)

    @pytest.mark.parametrize("at, line, added, why", [
        ("SEAT 1 ", "SEAT 1 p0 200", False, "the SEAT lines must name each player once"),
        ("HOLE 0 ", "HOLE 0 2c3c", True, "AWARD, HOLE and SHOW lines must name a seat once each"),
        ("SHOW 0 ", "SHOW 0 KcKs", True, "AWARD, HOLE and SHOW lines must name a seat once each"),
        ("AWARD 0 ", "AWARD 0 10 2", True, "AWARD, HOLE and SHOW lines must name a seat once each"),
        ("SHOW 0 ", "SHOW 0 AcAd", False, "a SHOW line must show its seat's HOLE cards"),
    ], ids=["player-on-two-seats", "hole-twice", "show-twice", "award-twice", "show-not-hole"])
    def test_a_seat_or_player_named_twice_is_refused(self, tmp_path, capsys, at, line, added, why):
        """A record writes a seat's HOLE, SHOW and AWARD line once, and each
        player on one seat; a second line would be lost or counted twice.
        `holdemlab report` exits 2 naming the record's header."""
        from holdemlab.cli import main as cli_main

        lines = self.lines()
        i = self.line_of(lines, at)
        lines[i : i + 1] = [lines[i], line] if added else [line]
        with pytest.raises(HistoryFormatError, match=rf"^line 1: {why}$"):
            self.parse(tmp_path, lines)
        good = self.lines()
        with pytest.raises(HistoryFormatError, match=rf"^line {len(good) + 1}: {why}$"):
            self.parse(tmp_path, good + lines)
        assert cli_main(["report", str(tmp_path / "hh.txt"), "--hero", "p0"]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'hh.txt'}: line {len(good) + 1}: {why}\n"

    def test_unterminated_record_at_end(self, tmp_path):
        lines = self.lines()
        with pytest.raises(HistoryFormatError, match=rf"^line {len(lines) + 1}: unterminated record"):
            self.parse(tmp_path, lines + lines[:-1])

    def test_header_inside_unterminated_record(self, tmp_path):
        lines = self.lines()
        with pytest.raises(HistoryFormatError, match=rf"^line {len(lines)}: header inside the unterminated record of line 1"):
            self.parse(tmp_path, lines[:-1] + lines)

    def test_blank_lines_skipped(self, tmp_path):
        lines = self.lines()
        spaced = ["", *lines[:5], "   ", "\t", *lines[5:], ""]
        assert self.parse(tmp_path, spaced) == self.parse(tmp_path, lines)

    def test_other_card_spellings_parse_as_parse_cards(self, tmp_path):
        lines = self.lines()
        hole, board, show = (self.line_of(lines, tag) for tag in ("HOLE 0", "BOARD", "SHOW 0"))
        lines[hole] = "HOLE 0 kCkS"
        lines[board] = "BOARD 5H6dah6h9S"
        lines[show] = "SHOW 0 kcKS"
        (record,) = self.parse(tmp_path, lines)
        assert record.holes[0] == tuple(parse_cards("kCkS"))
        assert record.board == tuple(parse_cards("5H6dah6h9S"))
        assert record.showdown[0] == (0, tuple(parse_cards("kcKS")))

    def test_fast_fold_session_round_trips(self, tmp_path):
        from holdemlab.session import SessionConfig, run_fastfold_session

        records = []
        run_fastfold_session(SessionConfig(hands=300), on_record=records.append)
        path = tmp_path / "session.hh"
        write_history(records, str(path))
        parsed = parse_history(str(path))
        assert len(parsed) == len(records) == 300
        assert parsed == records
        for record in records + parsed:
            assert all(type(seq) is tuple for seq in (record.seats, record.actions, record.showdown))
        all_ins = [r for r in parsed if any(action == "allin" for _, _, action, _ in r.actions)]
        assert any(len(r.showdown) >= 2 for r in parsed)
        assert any(sum(1 for won in r.awards.values() if won) >= 2 for r in all_ins)  # a side pot
        for written, record in zip(records, parsed):
            assert record_to_lines(record) == record_to_lines(written)
            assert replay_hand(record).net == record.net
        assert "".join("\n".join(record_to_lines(r)) + "\n" for r in parsed) == path.read_text()


class TestBots:
    def test_bot_strength_reasonable(self):
        from holdemlab.table import quick_strength

        assert quick_strength(parse_cards("9h9s"), parse_cards("9d5s2c")) > 7
        assert quick_strength(parse_cards("7h3c"), parse_cards("9d5s2cKs")) < 1.5
        assert quick_strength(parse_cards("4h3h"), parse_cards("9d5s2c")) >= 3.0

    @pytest.mark.slow
    def test_realized_vpip_tracks_target(self):
        """Law-of-large-numbers check: each archetype's realized VPIP lands
        within 2 percentage points of its target over 20,000+ hands."""
        from holdemlab.profiles import ProfileStore
        from holdemlab.events import ActionEvent

        rng = DealRng(77, 5)
        bots = {
            arch: BotPolicy(arch.lower(), arch, DealRng(77, 10 + i))
            for i, arch in enumerate(ARCHETYPE_TARGETS)
        }
        store = ProfileStore()

        class Recorder:
            def on_begin(self, engine):
                self.hand_id = engine.hand_id

            def on_action(self, street, seat, pid, action, committed, pot_before, position, all_in):
                store.record_event(
                    ActionEvent(
                        self.hand_id, pid, street, action,
                        committed / 2, pot_before / 2, position, 0.0,
                    )
                )

            def on_street(self, street, board):
                pass

            def on_showdown(self, reveals):
                pass

            def on_end(self, record):
                pass

        recorder = Recorder()
        names = list(bots)
        hands = 22_000
        for h in range(1, hands + 1):
            picks = [names[int(i)] for i in rng.generator.choice(len(names), size=6, replace=False)]
            seats = [SeatConfig(bots[a].player_id, 200, bots[a]) for a in picks]
            play_hand(h, "t", seats, h % 6, 1, 2, rng.shuffled_deck(), observer=recorder)
        for arch, bot in bots.items():
            stats = store.player_stats(bot.player_id)
            target = ARCHETYPE_TARGETS[arch].vpip
            realized = stats.vpip.rate
            assert abs(realized - target) <= 0.02, f"{arch}: {realized:.3f} vs {target:.3f}"
