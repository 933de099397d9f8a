import re

import numpy as np
import pytest

from holdemlab.cards import DealRng, hand_score, parse_cards
from holdemlab.events import ActionType, from_key
from holdemlab.table import (
    ARCHETYPE_TARGETS,
    BotPolicy,
    HistoryFormatError,
    IllegalActionError,
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

from reference_eval import ref_settle


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
        lines[hole] = "HOLE 0 ahKD"
        lines[board] = "BOARD 5H6dah6h9S"
        lines[show] = "SHOW 0 kcKS"
        (record,) = self.parse(tmp_path, lines)
        assert record.holes[0] == tuple(parse_cards("ahKD"))
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
        from holdemlab.events import Street
        from holdemlab.profiles import ProfileStore
        from holdemlab.events import ActionEvent

        rng = DealRng(77, 5)
        bots = {
            arch: BotPolicy(arch.lower(), arch, DealRng(77, 10 + i))
            for i, arch in enumerate(ARCHETYPE_TARGETS)
        }
        store = ProfileStore()

        class Recorder:
            def __init__(self):
                self.hand_id = 0

            def on_action(self, street, seat, pid, action, committed, pot_before, position, all_in):
                store.record_event(
                    ActionEvent(
                        self.hand_id, pid, from_key(Street, street), from_key(ActionType, action),
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
            recorder.hand_id = h
            picks = [names[int(i)] for i in rng.generator.choice(len(names), size=6, replace=False)]
            seats = [SeatConfig(bots[a].player_id, 200, bots[a]) for a in picks]
            play_hand(h, "t", seats, h % 6, 1, 2, rng.shuffled_deck(), observer=recorder)
        for arch, bot in bots.items():
            stats = store.player_stats(bot.player_id)
            target = ARCHETYPE_TARGETS[arch].vpip
            realized = stats.vpip.rate
            assert abs(realized - target) <= 0.02, f"{arch}: {realized:.3f} vs {target:.3f}"
