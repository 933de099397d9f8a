import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import holdemlab
from holdemlab.brain import Brain
from holdemlab.cli import main as cli_main
from holdemlab.heatmap import render_ppm, render_svg
from holdemlab.rangegrid import ComboGrid, class_id, parse_range_lines
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


class TestHeroObservation:
    def test_read_freezes_after_the_hero_is_all_in(self):
        """Once the hero shoves the flop no decision can follow, so villain
        actions on later streets must not reshape the flop read."""
        from holdemlab.brain import Brain
        from holdemlab.cards import DealRng, parse_cards
        from holdemlab.profiles import ProfileStore
        from holdemlab.session import HeroSeatPolicy

        store = ProfileStore()
        brain = Brain(store, seed=1)
        hero = HeroSeatPolicy(brain, store, SessionConfig(), DealRng(1))
        hero.new_hand_reset(1, 0)
        brain.begin_hand(1, tuple(parse_cards("AsKs")), [("v1", "Fish"), ("v2", "Fish")])
        board = tuple(parse_cards("9d5s2cKd7h"))
        hero.on_action("preflop", 1, "v1", "call", 2, 3, "utg", False)
        hero.on_action("preflop", 2, "v2", "call", 2, 5, "btn", False)
        hero.on_action("preflop", 0, "hero", "check", 2, 7, "bb", False)
        hero.on_street("flop", board[:3])
        hero.on_action("flop", 0, "hero", "allin", 200, 7, "bb", True)
        hero.on_action("flop", 1, "v1", "call", 200, 207, "utg", False)
        hero.on_action("flop", 2, "v2", "call", 200, 407, "btn", False)
        steps = {pid: len(t.history) for pid, t in brain.trackers.items()}
        assert set(steps) == {"v1", "v2"}
        hero.on_street("turn", board[:4])
        hero.on_action("turn", 1, "v1", "bet", 50, 607, "utg", False)
        hero.on_action("turn", 2, "v2", "call", 50, 657, "btn", False)
        hero.on_street("river", board)
        hero.on_action("river", 1, "v1", "check", 0, 707, "utg", False)
        assert {pid: len(t.history) for pid, t in brain.trackers.items()} == steps
        assert len(store.events) == 9  # the profile store still sees every action


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
        lightness = [sum(map(int, fills[class_id(name)])) for name in ("AA", "KK", "72o", "32o")]
        assert lightness == sorted(lightness) and len(set(lightness)) == 4

    def test_zero_grid_uniform_minimum(self):
        svg = render_svg(ComboGrid.zeros(), mode="169")
        assert svg.count("rgb(247,251,255)") >= 169  # everything at the light end

    def test_ppm_shape(self):
        g = parse_range_lines(["AA 1.0"])
        ppm = render_ppm(g, mode="169", cell_px=2)
        head = ppm.splitlines()[:3]
        assert head[0] == "P3" and head[1] == "26 26" and head[2] == "255"

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
            "[session]\nhands = 25\nseed = 8\nrake_percentage = 0.05\n"
            "[bots]\nwhale = 0.5\nrock = 0.5\n"
        )
        out = tmp_path / "sim"
        assert cli_main(["simulate", "--config", str(ini), "--out", str(out)]) == 0
        assert (out / "session_8.hh").exists()


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
