import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import holdemlab
from holdemlab.brain import Brain
from holdemlab.cli import main as cli_main
from holdemlab.heatmap import render_ppm, render_svg
from holdemlab.rangegrid import CLASS_NAMES, ComboGrid, parse_range_lines
from holdemlab.session import SessionConfig, run_fastfold_session
from holdemlab.metrics import all_in_adjusted
from holdemlab.profiles import ProfileStore
from holdemlab.table import parse_history, replay_hand, write_history


def run_and_write(tmp_path, name, hands=80, seed=21, **kw):
    cfg = SessionConfig(hands=hands, seed=seed, **kw)
    records = []
    result = run_fastfold_session(cfg, on_record=records.append)
    path = tmp_path / name
    write_history(records, str(path))
    return cfg, result, records, path


class TestSessionDeterminism:
    def test_same_seed_byte_identical_history(self, tmp_path):
        _, r1, _, p1 = run_and_write(tmp_path, "a.hh")
        _, r2, _, p2 = run_and_write(tmp_path, "b.hh")
        assert p1.read_bytes() == p2.read_bytes()
        assert r1.report.rates() == r2.report.rates()

    def test_different_seed_differs(self, tmp_path):
        _, _, _, p1 = run_and_write(tmp_path, "a.hh", seed=21)
        _, _, _, p2 = run_and_write(tmp_path, "b.hh", seed=22)
        assert p1.read_bytes() != p2.read_bytes()

    def test_every_record_replays(self, tmp_path):
        _, _, records, _ = run_and_write(tmp_path, "a.hh", hands=50)
        for record in records:
            again = replay_hand(record)
            assert again.net == record.net
            assert again.actions == record.actions

    def test_hero_rebuys_to_exact_buyin(self):
        cfg = SessionConfig(hands=400, seed=5, hero_buyin_bb=100.0)
        seen = []

        def watch(record):
            seat = record.hero_seat_of("hero")
            for s, pid, stack in record.seats:
                if pid == "hero":
                    seen.append(stack)

        result = run_fastfold_session(cfg, on_record=watch)
        if result.rebuys:
            # after every bust the hero sits back down with exactly 100 BB
            rebuy_stacks = [s for s in seen if s == int(100 * cfg.bb_cents)]
            assert rebuy_stacks

    def test_a_brain_given_alone_observes_through_its_own_store(self):
        brain = Brain(ProfileStore(), seed=5)
        run_fastfold_session(SessionConfig(hands=200, seed=5), brain=brain)
        assert brain.store.events

    def test_a_store_that_is_not_the_brains_is_rejected(self):
        with pytest.raises(ValueError, match="brain's own store"):
            run_fastfold_session(SessionConfig(hands=1), brain=Brain(ProfileStore()), store=ProfileStore())

    def test_failure_injection_forces_passive_lines(self):
        cfg = SessionConfig(hands=120, seed=9, failure_rate=0.4)
        records = []
        run_fastfold_session(cfg, on_record=records.append)
        assert any(r.failure_injected for r in records)


class _RecordingBrain:
    """A fake brain that is its own store: it records each observe_* call
    an observer makes, and each profile-store call, in order."""

    def __init__(self):
        self.calls = []
        self.store = self

    def __getattr__(self, name):
        if not name.startswith(("observe_", "record_", "finish_")):
            raise AttributeError(name)
        return lambda *args, **kwargs: self.calls.append((name, args, kwargs))


class _BothObservers:
    """Forwards each engine call to a HeroSeatPolicy and to the reference
    observer, each over its own recording brain, and notes which of the
    rules' harder cases the hands reached."""

    def __init__(self):
        from reference_observer import ReferenceObserver
        from holdemlab.session import HeroSeatPolicy

        self.new = HeroSeatPolicy(_RecordingBrain())
        self.ref = ReferenceObserver(_RecordingBrain())
        self.cases = set()

    def _forward(self, method, *args):
        n = len(self.new.brain.calls)
        getattr(self.new, method)(*args)
        getattr(self.ref, method)(*args)
        return self.new.brain.calls[n:]

    def on_begin(self, engine):
        self.engine = engine
        self._forward("on_begin", engine)

    def on_action(self, *args):
        for name, call_args, kw in self._forward("on_action", *args):
            if name != "observe_villain_action":
                continue
            action = call_args[1]
            flop = [a for s, _, a, _ in self.engine.actions if s == "flop"]
            if action == "donk" and args[0] == "turn" and flop and set(flop) == {"check"}:
                self.cases.add("turn donk after a checked-through flop")
            if action == "call" and kw["aggressor"] == "hero_agg":
                self.cases.add("call under hero_agg")

    def on_street(self, street, board):
        hero = next(s for s in self.engine.seats if s.player_id == "hero")
        if not any(c[0] == "observe_new_street" for c in self._forward("on_street", street, board)) and hero.in_hand:
            self.cases.add("frozen by a hero all-in" if hero.all_in else "frozen by all-in villains")

    def on_showdown(self, reveals):
        self._forward("on_showdown", reveals)

    def on_end(self, record):
        self._forward("on_end", record)


class TestHeroObservation:
    def test_same_calls_as_the_reference_bookkeeping(self):
        """The observer reads the betting state from the engine; the old
        bookkeeping copied it action by action. Over every hand of two
        seeded sessions, one with timed-out hero decisions, both make the
        same brain and store calls in the same order."""
        both = _BothObservers()
        differ = []
        for seed, failure_rate in ((2023, 0.0), (7, 0.05)):
            records = []
            run_fastfold_session(SessionConfig(hands=2000, seed=seed, failure_rate=failure_rate), on_record=records.append)
            for record in records:
                replay_hand(record, both)
                if both.new.brain.calls != both.ref.brain.calls:
                    differ.append((seed, record.hand_id))
                both.new.brain.calls.clear()
                both.ref.brain.calls.clear()
        assert not differ, f"{len(differ)} hands differ, first {differ[:5]}"
        assert both.cases == {
            "turn donk after a checked-through flop",
            "call under hero_agg",
            "frozen by a hero all-in",
            "frozen by all-in villains",
        }

    def test_read_freezes_after_the_hero_is_all_in(self):
        """Once the hero shoves the flop no decision can follow, so villain
        actions on later streets must not reshape the flop read."""
        from holdemlab.cards import parse_cards
        from holdemlab.session import HeroSeatPolicy
        from holdemlab.table import SeatConfig, _ScriptedSeatPolicy, _stacked_deck, play_hand

        steps = {}

        class Watched(HeroSeatPolicy):
            def on_street(self, street, board):
                steps[street] = {pid: len(t.history) for pid, t in self.brain.trackers.items()}
                super().on_street(street, board)

        store = ProfileStore()
        brain = Brain(store, seed=1)
        holes = [tuple(parse_cards(h)) for h in ("AsKs", "QhJh", "8c8d")]
        board = tuple(parse_cards("9d5s2cKd7h"))
        scripts = {  # seat 2 has the button: the hero posts the small blind and acts first after the flop
            "hero": [("preflop", "call", 0), ("flop", "allin", 0)],
            "v1": [("preflop", "check", 0), ("flop", "call", 0), ("turn", "bet", 50), ("river", "bet", 50)],
            "v2": [("preflop", "call", 0), ("flop", "call", 0), ("turn", "call", 0), ("river", "fold", 0)],
        }
        seats = [SeatConfig(pid, stack, _ScriptedSeatPolicy(scripts[pid])) for pid, stack in (("hero", 202), ("v1", 1000), ("v2", 1000))]
        brain.begin_hand(1, holes[0], [("v1", "Fish"), ("v2", "Fish")])
        record = play_hand(1, "t", seats, 2, 1, 2, _stacked_deck(holes, board), observer=Watched(brain))
        assert record.actions[3] == ("flop", 0, "allin", 200)
        assert set(steps["turn"]) == {"v1", "v2"}
        assert {pid: len(t.history) for pid, t in brain.trackers.items()} == steps["turn"]
        assert len(store.events) == len(record.actions) == 10  # the profile store still sees every action


class TestHistoryRoundTrip:
    def test_parse_write_round_trip(self, tmp_path):
        _, _, records, path = run_and_write(tmp_path, "a.hh", hands=40)
        parsed = parse_history(str(path))
        path2 = tmp_path / "b.hh"
        write_history(parsed, str(path2))
        assert path2.read_bytes() == path.read_bytes()

    def test_report_from_history_matches_live(self, tmp_path):
        from holdemlab.metrics import TrialReport, ledger_from_records

        cfg, result, records, path = run_and_write(tmp_path, "a.hh", hands=60)
        ledger = ledger_from_records(parse_history(str(path)), "hero", cfg.bb_cents, cfg.rakeback_rate)
        rebuilt = TrialReport.from_ledger(ledger)
        assert rebuilt.rates() == result.report.rates()


class TestHeatmaps:
    def test_svg_valid_and_monotone(self):
        g = parse_range_lines(["AA 1.0", "KK 0.5", "72o 0.05"])
        svg = render_svg(g, mode="169")
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        # the 169 cells come first, in class order: a heavier class is darker
        fills = re.findall(r'<rect [^>]*fill="rgb\((\d+),(\d+),(\d+)\)"', svg)[:169]
        lightness = [sum(map(int, fills[CLASS_NAMES.index(name)])) for name in ("AA", "KK", "72o", "32o")]
        assert lightness == sorted(lightness) and len(set(lightness)) == 4

    def test_zero_grid_uniform_minimum(self):
        svg = render_svg(ComboGrid(np.zeros(1326)), mode="169")
        assert svg.count("rgb(247,251,255)") >= 169  # everything at the light end

    def test_ppm_shape(self):
        g = parse_range_lines(["AA 1.0"])
        ppm = render_ppm(g, mode="169", cell_px=2)
        head = ppm.splitlines()[:3]
        assert head[0] == "P3" and head[1] == "26 26" and head[2] == "255"

    def test_title_is_escaped(self):
        import xml.etree.ElementTree as ET

        svg = render_svg(parse_range_lines(["AA 1.0"]), mode="169", title="a&b<c")
        texts = [el.text for el in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
        assert "a&b<c" in texts

    def test_1326_mode(self):
        g = ComboGrid.uniform()
        svg = render_svg(g, mode="1326")
        assert svg.count("<rect") >= 1326


class TestCli:
    def test_simulate_twice_identical_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["simulate", "--hands", "40", "--seed", "77", "--out", str(a)]) == 0
        assert cli_main(["simulate", "--hands", "40", "--seed", "77", "--out", str(b)]) == 0
        assert (a / "session_77.hh").read_bytes() == (b / "session_77.hh").read_bytes()
        assert (a / "report_77.csv").read_bytes() == (b / "report_77.csv").read_bytes()

    def test_simulate_zero_hands(self, tmp_path):
        out = tmp_path / "z"
        assert cli_main(["simulate", "--hands", "0", "--seed", "1", "--out", str(out)]) == 0
        assert (out / "session_1.hh").read_text() == ""

    def test_replay_shipped_scenario(self, tmp_path, capsys):
        out = tmp_path / "snaps"
        assert cli_main(["replay", "hand6.scn", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "RET18" in printed and "RET73" in printed
        assert list(out.glob("*.rng"))

    def test_replay_failing_assertion_exits_1(self, tmp_path):
        from importlib import resources

        text = resources.files("holdemlab").joinpath("data/hand6.scn").read_text()
        bad = text.replace("assert chib turn <= 0.05", "assert chib turn <= 0.000001")
        path = tmp_path / "bad.scn"
        path.write_text(bad)
        assert cli_main(["replay", str(path)]) == 1

    def test_replay_unknown_action_word_exits_2_naming_the_line(self, tmp_path, capsys):
        from importlib import resources

        text = resources.files("holdemlab").joinpath("data/hand6.scn").read_text()
        path = tmp_path / "bad.scn"
        path.write_text(text.replace("act reg_sb call", "act reg_sb jump"))
        lineno = path.read_text().splitlines().index("act reg_sb jump") + 1
        assert cli_main(["replay", str(path)]) == 2
        assert f"{path}:{lineno}: unknown ActionType 'jump'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("act reg_sb call", "act ghost call", "act names 'ghost', which has no scripted seat"),
            ("act whale_bb bet 4", "act whale_bb bet", "whale_bb: bet needs an amount"),
        ],
        ids=["unknown-player", "bet-without-amount"],
    )
    def test_replay_script_error_exits_2_naming_the_line(self, tmp_path, capsys, old, new, message):
        from importlib import resources

        text = resources.files("holdemlab").joinpath("data/hand6.scn").read_text()
        path = tmp_path / "x.scn"
        path.write_text(text.replace(old, new))
        lineno = path.read_text().splitlines().index(new) + 1
        assert cli_main(["replay", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:{lineno}: {message}\n"

    @pytest.mark.parametrize(
        "seats, bad_line, message",
        [
            (
                ["seat 0 v1 MediumReg 100 AhKd", "seat 1 v2 Fish 100 QcQd"],
                1,
                "no seat is the hero's: one must read 'seat <idx> hero hero <stack_bb> <hole>'",
            ),
            (
                ["seat 0 hero hero 100 AhKd", "seat 1 hero hero 100 QcQd"],
                2,
                "player 'hero' already sits on line 1",
            ),
            (
                ["seat 0 hero hero 100 AhKd", "seat 1 v1 Fish 100 QcQd", "seat 2 v1 Whale 100 7s2c"],
                3,
                "player 'v1' already sits on line 2",
            ),
            (["seat 0 hero hero 100 AhKd", "seat 0 v1 Fish 100 QcQd"], 2, "seat 0 is taken by line 1"),
            (
                ["seat 0 hero hero 100 AhKd", "seat 5 v1 Fish 100 QcQd", "button 5"],
                2,
                "seat 5: 2 seats are numbered 0 to 1",
            ),
            (["seat 1 hero hero 100 AhKd", "seat -1 v1 Fish 100 QcQd"], 2, "seat -1: 2 seats are numbered 0 to 1"),
            (["seat 0 hero hero 100 AhKd", "button 2", "seat 1 v1 Fish 100 QcQd"], 2, "button 2 names no seat"),
        ],
        ids=["no-hero", "two-heroes", "one-id-twice", "one-seat-twice", "seat-past-the-end", "negative-seat", "button"],
    )
    def test_replay_refuses_bad_seats_naming_the_line(self, tmp_path, capsys, seats, bad_line, message):
        path = tmp_path / "seats.scn"
        path.write_text("\n".join([*seats, "board 9d 5s 2c 2d Ks"]) + "\n")
        assert cli_main(["replay", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:{bad_line}: {message}\n"

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("9h9s", "9h9s9c", "hole 9h9s9c is not two cards"),
            ("board 9d 5s 2c 2d Ks", "board 9d 5s", "board must have 0/3/4/5 cards, got 2"),
            ("board 9d 5s 2c 2d Ks", "board 9d 5s 9d", "duplicate cards on board"),
            ("blinds 1 2", "blinds 5 2", "small blind 5 is not in [0, 2]"),
            ("blinds 1 2", "blinds 0 0", "big blind 0 is not >= 1"),
            ("Whale 60", "Whale -5", "stack -5 is not a positive number"),
            ("Whale 60", "Whale 0.1", "stack 0.1 is under one cent at a big blind of 2"),
            ("act whale_bb bet 4", "act whale_bb bet -4", "whale_bb: bet amount -4 is not a positive number"),
            ("act whale_bb bet 4", "act whale_bb bet inf", "whale_bb: bet amount inf is not a positive number"),
            ("seed 42", "seed -1", "seed -1 is not >= 0"),
        ],
        ids=["hole-of-three", "board-of-two", "board-card-twice", "sb-over-bb", "bb-zero", "negative-stack",
             "sub-cent-stack", "negative-bet", "infinite-bet", "negative-seed"],
    )
    def test_replay_refuses_bad_deals_and_numbers_naming_the_line(self, tmp_path, capsys, old, new, message):
        from importlib import resources

        lines = resources.files("holdemlab").joinpath("data/hand6.scn").read_text().splitlines()
        (lineno,) = [i for i, line in enumerate(lines, start=1) if old in line]
        lines[lineno - 1] = lines[lineno - 1].replace(old, new)
        path = tmp_path / "bad.scn"
        path.write_text("\n".join(lines) + "\n")
        assert cli_main(["replay", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:{lineno}: {message}\n"

    def test_replay_refused_scripted_action_exits_2_naming_the_file(self, tmp_path, capsys):
        from importlib import resources

        text = resources.files("holdemlab").joinpath("data/hand6.scn").read_text()
        path = tmp_path / "bad.scn"
        path.write_text(text.replace("act reg_sb call", "act reg_sb check", 1))
        assert cli_main(["replay", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: the engine refused an action: reg_sb checked facing a bet\n"
        )

    @pytest.mark.parametrize("rate", ["-1", "5", "nan", "inf"])
    def test_report_refuses_rakeback_rate_outside_0_1(self, tmp_path, capsys, rate):
        *_, path = run_and_write(tmp_path, "session.hh", hands=5)
        assert cli_main(["report", str(path), "--rakeback-rate", rate]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --rakeback-rate: {float(rate)} is not in [0, 1]\n" and captured.out == ""

    def test_report_round_trip(self, tmp_path, capsys):
        out = tmp_path / "sim"
        cli_main(["simulate", "--hands", "50", "--seed", "5", "--out", str(out)])
        live = (out / "report_5.csv").read_text()
        assert cli_main(["report", str(out / "session_5.hh"), "--out", str(tmp_path / "re.csv")]) == 0
        assert (tmp_path / "re.csv").read_text() == live

    def test_heatmap_from_snapshot(self, tmp_path):
        out = tmp_path / "snaps"
        cli_main(["replay", "hand6.scn", "--out", str(out)])
        snap = sorted(out.glob("hand6_whale_bb_*.rng"))[-1]
        target = tmp_path / "grid.ppm"
        assert cli_main(["heatmap", str(snap), "--format", "ppm", "--out", str(target)]) == 0
        assert target.read_text().startswith("P3")

    def test_bad_inputs_exit_2(self, tmp_path):
        assert cli_main(["report", str(tmp_path / "missing.hh")]) == 2
        bad = tmp_path / "bad.rng"
        bad.write_text("banana banana banana\n")
        assert cli_main(["heatmap", str(bad)]) == 2

    @pytest.mark.parametrize("kind", ["directory", "random-bytes"])
    @pytest.mark.parametrize("command", ["simulate", "replay", "report", "heatmap"])
    def test_unreadable_input_exits_2_naming_the_file(self, tmp_path, capsys, command, kind):
        """An input path that is a directory, or a file that is not UTF-8
        text, is an input error that names the file, not a traceback."""
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
            why = "Is a directory"
        else:
            path.write_bytes(b"\xff" + np.random.default_rng(5).bytes(255))  # 0xff starts no UTF-8 character
            why = "not UTF-8 text (invalid start byte at byte 0)"
        argv = {
            "simulate": ["simulate", "--config", str(path), "--out", str(tmp_path / "sim")],
            "replay": ["replay", str(path)],
            "report": ["report", str(path)],
            "heatmap": ["heatmap", str(path), "--out", str(tmp_path / "grid.svg")],
        }[command]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        prefix = "bad config: " if command == "simulate" else ""
        assert captured.err == f"error: {prefix}{path}: {why}\n" and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["input"]

    def test_malformed_history_names_file_and_line(self, tmp_path, capsys):
        *_, path = run_and_write(tmp_path, "session.hh", hands=5)
        lines = path.read_text().splitlines()
        lines[3] = "GARBAGE here"
        bad = tmp_path / "bad.hh"
        bad.write_text("\n".join(lines) + "\n")
        assert cli_main(["report", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: line 4: unknown tag 'GARBAGE'")

    def test_report_hero_in_no_hand_exits_2(self, tmp_path, capsys):
        *_, path = run_and_write(tmp_path, "session.hh", hands=5)
        assert cli_main(["report", str(path), "--hero", "nobody"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: hero 'nobody' is in no hand\n" and captured.out == ""

    def test_config_file(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text(
            "[session]\nhands = 25\nseed = 8\nrake_percentage = 0.05\ntable_id = t7\n"
            "[bots]\nwhale = 0.5\nrock = 0.5\n"
        )
        out = tmp_path / "sim"
        assert cli_main(["simulate", "--config", str(ini), "--out", str(out)]) == 0
        history = out / "session_8.hh"
        assert " table=t7 " in history.read_text().splitlines()[0]
        # the history it writes, table id included, is one that report reads
        assert cli_main(["report", str(history), "--out", str(tmp_path / "re.csv")]) == 0
        assert (tmp_path / "re.csv").read_text() == (out / "report_8.csv").read_text()

    @pytest.mark.parametrize(
        "text, names",
        [
            ("[session]\nhnads = 5\n", "[session] unknown key 'hnads'"),
            ("[DEFAULT]\nhands = 5\n[bots]\nrock = 1\n", "[DEFAULT] hands would also be read as an archetype"),
            ("[session]\nhands = 5\n[bots]\nMaiden = 1\n", "[bots] unknown archetype 'maiden'"),
            ("hands = 5\n[session]\nseed = 3\n", "File contains no section headers. file: "),
            ("[session]\nhands = ten\n", "[session] hands: invalid literal for int()"),
            ("[sesion]\nhands = 5\n", "unknown section [sesion]"),
            ("[bots]\nrock = 0\nfish = -1\n", "[bots] fish: weight -1.0 is not >= 0"),
            ("[bots]\nrock = 0\n", "[bots] gives no archetype a positive weight"),
        ],
        ids=["misspelt-key", "default-key-in-bots", "unknown-archetype", "no-section-header", "bad-int",
             "unknown-section", "negative-weight", "no-positive-weight"],
    )
    def test_bad_config_exits_2_before_writing(self, tmp_path, capsys, text, names):
        """A config the session cannot read is a ValueError naming the file
        and the section or key; simulate exits 2 and writes nothing."""
        ini = tmp_path / "cfg.ini"
        ini.write_text(text)
        with pytest.raises(ValueError, match=re.escape(names)):
            SessionConfig.from_ini(str(ini))
        out = tmp_path / "sim"
        assert cli_main(["simulate", "--config", str(ini), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad config: {ini}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, want",
        [
            ("pool_size", "0", "0 is not >= 5 (five opponents a hand)"),
            ("pool_size", "4", "4 is not >= 5 (five opponents a hand)"),
            ("bb_cents", "0", "0 is not >= 1"),
            ("hero_buyin_bb", "0", "0.0 is not a buy-in of at least one cent at bb_cents=2"),
            ("hands", "-5", "-5 is not >= 0"),
            ("--hands", "-3", "-3 is not >= 0"),
            ("seed", "-1", "-1 is not >= 0"),
            ("--seed", "-1", "-1 is not >= 0"),
            ("sb_cents", "3", "3 is not in [0, bb_cents=2]"),
            ("rakeback_rate", "-1", "-1.0 is not in [0, 1]"),
            ("rake_percentage", "-0.5", "-0.5 is not in [0, 1]"),
            ("failure_rate", "1.5", "1.5 is not in [0, 1]"),
            ("rake_cap_bb", "-1", "-1.0 is not >= 0"),
            ("table_id", "my table", "'my table' is not an id without whitespace"),
        ],
    )
    def test_out_of_range_value_exits_2_before_writing(self, tmp_path, capsys, key, value, want):
        """A session value out of its range is a ValueError naming the file
        and the key, or the option; simulate exits 2 and writes nothing."""
        out = tmp_path / "sim"
        if key.startswith("--"):
            names = f"{key}: {want}"
            argv = ["simulate", key, value, "--out", str(out)]
        else:
            ini = tmp_path / "cfg.ini"
            ini.write_text(f"[session]\n{key} = {value}\n")
            names = f"{ini}: [session] {key}: {want}"
            with pytest.raises(ValueError, match=re.escape(names)):
                SessionConfig.from_ini(str(ini))
            argv = ["simulate", "--config", str(ini), "--out", str(out)]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == f"error: bad config: {names}\n"
        assert not out.exists()

    def test_config_from_default_section_and_rake_keys(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[DEFAULT]\nhands = 7\nrake_cap_bb = 2.5\nlearning = no\ntable_id = t1\n")
        config = SessionConfig.from_ini(str(ini))
        assert (config.hands, config.seed, config.learning, config.table_id) == (7, 1, False, "t1")
        assert (config.rake.percentage, config.rake.cap_bb) == (0.05, 2.5)
        assert config.bot_mix == SessionConfig().bot_mix


class TestReportAcrossProcesses:
    def test_report_same_under_two_hash_seeds(self, tmp_path):
        # `holdemlab report` in fresh interpreters: set and dict order must
        # not leak into the text or the CSV, the all-in adjusted column
        # included.
        _, _, records, history = run_and_write(tmp_path, "session.hh", hands=500, seed=1)
        assert any(all_in_adjusted(r, "hero") != r.net[r.hero_seat_of("hero")] for r in records)
        src = str(Path(holdemlab.__file__).resolve().parent.parent)
        outputs = []
        for hash_seed in ("0", "1"):
            csv = tmp_path / f"report_{hash_seed}.csv"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-m", "holdemlab.cli", "report", str(history), "--out", str(csv)],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.append((run.stdout, csv.read_bytes()))
        assert outputs[0] == outputs[1]
        assert "all-in adjusted" in outputs[0][0]

    def test_simulate_same_under_two_hash_seeds(self, tmp_path):
        # `holdemlab simulate --trace` in fresh interpreters: every file it
        # writes (history, report, trace, profile log and snapshot) must
        # not depend on set or dict order.
        src = str(Path(holdemlab.__file__).resolve().parent.parent)
        files = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"hash{hash_seed}"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            subprocess.run(
                [sys.executable, "-m", "holdemlab.cli", "simulate", "--hands", "300", "--seed", "2023",
                 "--trace", "--out", str(out)],
                env=env, capture_output=True, text=True, check=True,
            )
            files.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert sorted(files[0]) == [
            "profile_events_2023.log", "profile_snapshot_2023.json", "report_2023.csv",
            "report_2023.txt", "session_2023.hh", "trace_2023.txt",
        ]
        assert files[0] == files[1]
