import json

import numpy as np
import pytest

from holdemlab.cards import parse_cards
from holdemlab.events import ActionEvent, ActionType, Street
from holdemlab.profiles import (
    EventOrderError,
    PlayerStats,
    ProfileStore,
    classify,
    conviction_score,
    recount_stats,
)
from holdemlab.rangegrid import ComboGrid, class_id


def ev(hand_id, pid, street, action, amount=0.0, pot=1.5, pos="utg", ts=0.0):
    return ActionEvent(hand_id, pid, street, action, amount, pot, pos, ts)


P, F, C, B, R = Street.PREFLOP, ActionType.FOLD, ActionType.CALL, ActionType.BET, ActionType.RAISE


class TestRecording:
    def test_first_call_gives_full_vpip(self):
        store = ProfileStore()
        store.record_event(ev(1, "a", P, C, 1.0))
        store.finish_hand()
        s = store.player_stats("a")
        assert s.vpip.rate == 1.0 and s.hands == 1

    def test_always_folding_gives_zero_vpip(self):
        store = ProfileStore()
        for h in range(1, 51):
            store.record_event(ev(h, "a", P, F, 0.0))
        store.finish_hand()
        s = store.player_stats("a")
        assert s.vpip.rate == 0.0 and s.hands == 50

    def test_bb_check_then_later_call_upgrades_vpip(self):
        store = ProfileStore()
        store.record_event(ev(1, "a", P, ActionType.CHECK, 0.0, pos="bb"))
        store.record_event(ev(1, "b", P, R, 3.0))
        store.record_event(ev(1, "a", P, C, 3.0, pos="bb"))
        store.finish_hand()
        s = store.player_stats("a")
        assert s.vpip.as_tuple() == (1, 1)

    def test_limp_reraise_counts_pfr(self):
        store = ProfileStore()
        store.record_event(ev(1, "a", P, C, 1.0))
        store.record_event(ev(1, "b", P, R, 3.0))
        store.record_event(ev(1, "a", P, R, 9.0))
        store.finish_hand()
        assert store.player_stats("a").pfr.as_tuple() == (1, 1)

    def test_out_of_order_hand_rejected(self):
        store = ProfileStore()
        store.record_event(ev(5, "a", P, F))
        with pytest.raises(EventOrderError):
            store.record_event(ev(3, "a", P, F))

    def test_backwards_street_rejected(self):
        store = ProfileStore()
        store.record_event(ev(1, "a", Street.FLOP, ActionType.CHECK))
        with pytest.raises(EventOrderError):
            store.record_event(ev(1, "a", P, C))

    def test_af_counts_postflop_only(self):
        store = ProfileStore()
        store.record_event(ev(1, "a", P, R, 3.0))
        store.record_event(ev(1, "a", Street.FLOP, B, 2.0))
        store.record_event(ev(1, "a", Street.TURN, C, 4.0))
        store.finish_hand()
        s = store.player_stats("a")
        assert s.postflop_aggressive == 1 and s.postflop_calls == 1
        assert s.af == 1.0


def synthetic_log(rng, hands=100, players=("a", "b", "c")):
    """A plausible multi-hand action log exercising all the stat paths."""
    events = []
    for h in range(1, hands + 1):
        order = list(players)
        aggressor = None
        for i, pid in enumerate(order):
            roll = rng.random()
            pos = ("utg", "sb", "bb")[i % 3]
            if roll < 0.3:
                events.append(ev(h, pid, P, F, 0, 1.5, pos))
            elif roll < 0.7:
                events.append(ev(h, pid, P, C, 1.0, 1.5, pos))
            else:
                events.append(ev(h, pid, P, R, 3.0, 1.5, pos))
                aggressor = pid
        if rng.random() < 0.6 and aggressor:
            events.append(ev(h, aggressor, Street.FLOP, B, 2.0, 6.0, "utg"))
            for pid in order:
                if pid != aggressor:
                    act = C if rng.random() < 0.5 else F
                    events.append(ev(h, pid, Street.FLOP, act, 2.0 if act == C else 0, 8.0, "sb"))
    return events


class TestIncrementalVsBatch:
    def test_hundred_hand_log_matches_recount(self):
        rng = np.random.default_rng(50)
        events = synthetic_log(rng)
        store = ProfileStore()
        for e in events:
            store.record_event(e)
        store.finish_hand()
        again = recount_stats(events)
        for pid, stats in store.stats.items():
            assert stats.snapshot() == again[pid].snapshot()

    def test_classify_depends_only_on_aggregates(self):
        rng = np.random.default_rng(51)
        events = synthetic_log(rng, hands=60)
        store = ProfileStore()
        for e in events:
            store.record_event(e)
        store.finish_hand()
        for pid in ("a", "b", "c"):
            assert classify(store.player_stats(pid)) == classify(recount_stats(events)[pid])


class TestClassify:
    def make(self, vpip, af, hands=100):
        s = PlayerStats()
        s.hands = hands
        s.vpip.opportunities = hands
        s.vpip.hits = int(vpip * hands)
        s.postflop_calls = 10
        s.postflop_aggressive = int(af * 10)
        return s

    def test_rock(self):
        assert classify(self.make(0.10, 1.0)) == "Rock"

    def test_whale_band(self):
        assert classify(self.make(0.65, 0.4)) == "Whale"

    def test_calling_station(self):
        assert classify(self.make(0.50, 0.4)) == "CallingStation"

    def test_lag(self):
        assert classify(self.make(0.35, 4.0)) == "LAG"

    def test_below_sample_is_unknown(self):
        assert classify(self.make(0.10, 1.0, hands=5)) == "Unknown"


class TestExploits:
    def station(self, n=40):
        store = ProfileStore()
        s = store.player_stats("v")
        s.hands = n
        s.vpip.opportunities = n
        s.vpip.hits = int(0.6 * n)
        s.postflop_calls = 30
        s.postflop_aggressive = 10
        return store

    def test_turn_overfolder_triggers_double_barrel(self):
        store = ProfileStore()
        s = store.player_stats("v")
        s.hands = 40
        s.fold_to_cbet["turn"].opportunities = 40
        s.fold_to_cbet["turn"].hits = 34  # 85%
        exploits = store.search_exploits("v")
        assert any(e.rule_id == "double_barrel" for e in exploits)
        db = next(e for e in exploits if e.rule_id == "double_barrel")
        assert db.conviction >= 0.8

    def test_population_mean_stats_fire_nothing(self):
        store = ProfileStore()
        s = store.player_stats("v")
        s.hands = 100
        s.vpip.opportunities = 100
        s.vpip.hits = 30
        s.fold_to_cbet["turn"].opportunities = 50
        s.fold_to_cbet["turn"].hits = 20  # 40% = baseline
        s.fold_to_steal.opportunities = 50
        s.fold_to_steal.hits = 27
        s.postflop_calls = 20
        s.postflop_aggressive = 36
        assert store.search_exploits("v") == []

    def test_blind_overfolder_triggers_steal(self):
        store = ProfileStore()
        s = store.player_stats("v")
        s.hands = 60
        s.fold_to_steal.opportunities = 30
        s.fold_to_steal.hits = 27
        assert any(e.rule_id == "steal_raise" for e in store.search_exploits("v"))

    def test_small_sample_blocks(self):
        store = ProfileStore()
        s = store.player_stats("v")
        s.hands = 10
        s.fold_to_cbet["turn"].opportunities = 5
        s.fold_to_cbet["turn"].hits = 5
        assert store.search_exploits("v") == []

    def test_conviction_nondecreasing_in_sample(self):
        values = [conviction_score(0.85, 0.7, 0.4, n) for n in (20, 40, 80, 200, 10_000)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert max(values) <= 0.95


class TestShowdownRefine:
    def test_miss_widens_player_and_archetype(self):
        store = ProfileStore()
        grid = ComboGrid.from_class_weights({"AA": 1.0})
        revealed = parse_cards("7h2c")
        out = store.showdown_refine("v", revealed, grid, "Whale")
        assert not out["inside_support"]
        cid = class_id("72o")
        assert store.player_class_multipliers["v"][cid] == pytest.approx(1.5)
        assert store.archetype_class_multipliers["Whale"][cid] == pytest.approx(1.02)

    def test_hit_reinforces_player_only(self):
        store = ProfileStore()
        grid = ComboGrid.from_class_weights({"AA": 1.0})
        out = store.showdown_refine("v", parse_cards("AhAs"), grid, "Rock")
        assert out["inside_support"]
        assert store.player_class_multipliers["v"][class_id("AA")] == pytest.approx(1.05)
        assert "Rock" not in store.archetype_class_multipliers

    def test_contradictory_showdowns_compose_in_log_space(self):
        store = ProfileStore()
        grid = ComboGrid.from_class_weights({"AA": 1.0})
        revealed = parse_cards("7h2c")
        store.showdown_refine("v", revealed, grid, "Whale")
        store.showdown_refine("v", revealed, grid, "Whale")
        cid = class_id("72o")
        assert store.player_class_multipliers["v"][cid] == pytest.approx(1.5 * 1.5)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        events = synthetic_log(rng, hands=40)
        store = ProfileStore()
        for e in events:
            store.record_event(e)
        store.record_showdown(40, "a", "AhKh")
        store.finish_hand()
        store.showdown_refine("a", parse_cards("7h2c"), ComboGrid.from_class_weights({"AA": 1.0}), "Fish")
        log, snap = tmp_path / "events.log", tmp_path / "snap.json"
        store.save(str(log), str(snap), rsm_overlay={"flop|SET|NONE|dry": 0.2})
        loaded, overlay = ProfileStore.load(str(log), str(snap))
        for pid, stats in store.stats.items():
            assert stats.snapshot() == loaded.player_stats(pid).snapshot()
        assert loaded.player_class_multipliers == store.player_class_multipliers
        assert overlay == {"flop|SET|NONE|dry": 0.2}

    def test_missing_files_raise_naming_the_path(self, tmp_path):
        store = ProfileStore()
        log, snap = tmp_path / "events.log", tmp_path / "snap.json"
        store.save(str(log), str(snap))
        missing = tmp_path / "absent"
        with pytest.raises(FileNotFoundError, match="absent"):
            ProfileStore.load(str(missing), str(snap))
        with pytest.raises(FileNotFoundError, match="absent"):
            ProfileStore.load(str(log), str(missing))

    @pytest.mark.parametrize("bad", ["act\t1\ta\tpreflop\tjump\t1\t1.5\tutg\t0", "act\t1\ta", "bet\t1\ta"])
    def test_malformed_log_line_raises_naming_file_and_line(self, tmp_path, bad):
        store = ProfileStore()
        store.record_event(ev(1, "a", Street.PREFLOP, ActionType.CALL, amount=1.0))
        log, snap = tmp_path / "events.log", tmp_path / "snap.json"
        store.save(str(log), str(snap))
        log.write_text(log.read_text() + bad + "\n")
        with pytest.raises(ValueError, match=f"^{log}:3: "):
            ProfileStore.load(str(log), str(snap))

    @pytest.mark.parametrize("version", [2, None])
    def test_snapshot_of_another_version_raises(self, tmp_path, version):
        log, snap = tmp_path / "events.log", tmp_path / "snap.json"
        ProfileStore().save(str(log), str(snap))
        data = json.loads(snap.read_text())
        if version is None:
            del data["version"]
        else:
            data["version"] = version
        snap.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"{snap}: snapshot version {version!r}"):
            ProfileStore.load(str(log), str(snap))
