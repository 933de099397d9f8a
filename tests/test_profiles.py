import json

import numpy as np
import pytest

from holdemlab.cards import parse_cards
from holdemlab.events import ActionEvent, ActionType, Street, from_key
from holdemlab.profiles import (
    EventOrderError,
    PlayerStats,
    ProfileStore,
    classify,
    conviction_score,
)
from holdemlab.rangegrid import CLASS_NAMES, parse_range_lines


def recount_stats(events, reveals=()):
    """From-scratch recomputation; must equal the incremental state."""
    store = ProfileStore()
    for e in events:
        store.record_event(e)
    for hand_id, pid, cards in reveals:
        store.record_showdown(hand_id, pid, cards)
    store.finish_hand()
    return store.stats


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
        grid = parse_range_lines(["AA 1"])
        revealed = parse_cards("7h2c")
        out = store.showdown_refine("v", revealed, grid, "Whale")
        assert not out["inside_support"]
        cid = CLASS_NAMES.index("72o")
        assert store.player_class_multipliers["v"][cid] == pytest.approx(1.5)
        assert store.archetype_class_multipliers["Whale"][cid] == pytest.approx(1.02)

    def test_hit_reinforces_player_only(self):
        store = ProfileStore()
        grid = parse_range_lines(["AA 1"])
        out = store.showdown_refine("v", parse_cards("AhAs"), grid, "Rock")
        assert out["inside_support"]
        assert store.player_class_multipliers["v"][CLASS_NAMES.index("AA")] == pytest.approx(1.05)
        assert "Rock" not in store.archetype_class_multipliers

    def test_contradictory_showdowns_compose_in_log_space(self):
        store = ProfileStore()
        grid = parse_range_lines(["AA 1"])
        revealed = parse_cards("7h2c")
        store.showdown_refine("v", revealed, grid, "Whale")
        store.showdown_refine("v", revealed, grid, "Whale")
        cid = CLASS_NAMES.index("72o")
        assert store.player_class_multipliers["v"][cid] == pytest.approx(1.5 * 1.5)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        """The saved log recounts to the store's statistics, and the
        snapshot holds them with the multipliers and the RSM overlay."""
        rng = np.random.default_rng(9)
        events = synthetic_log(rng, hands=40)
        store = ProfileStore()
        for e in events:
            store.record_event(e)
        store.record_showdown(40, "a", "AhKh")
        store.finish_hand()
        store.showdown_refine("a", parse_cards("7h2c"), parse_range_lines(["AA 1"]), "Fish")
        log, snap = tmp_path / "events.log", tmp_path / "snap.json"
        store.save(str(log), str(snap), rsm_overlay={"flop|SET|NONE|dry": 0.2})
        acts, reveals = [], []
        for line in log.read_text().splitlines()[1:]:
            kind, *f = line.split("\t")
            if kind == "act":
                street, action = from_key(Street, f[2]), from_key(ActionType, f[3])
                acts.append(ActionEvent(int(f[0]), f[1], street, action, float(f[4]), float(f[5]), f[6], float(f[7])))
            else:
                assert kind == "reveal"
                reveals.append((int(f[0]), f[1], f[2]))
        assert reveals == [(40, "a", "AhKh")]
        recounted = recount_stats(acts, reveals)
        saved = json.loads(snap.read_text())
        assert saved["version"] == 1
        assert recounted.keys() == store.stats.keys() == saved["stats"].keys()
        for pid, stats in store.stats.items():
            assert stats.snapshot() == recounted[pid].snapshot()
            assert json.loads(json.dumps(stats.snapshot())) == saved["stats"][pid]
        for key in ("player_class_multipliers", "archetype_class_multipliers"):
            assert {who: {int(k): v for k, v in m.items()} for who, m in saved[key].items()} == getattr(store, key)
        assert saved["rsm_overlay"] == {"flop|SET|NONE|dry": 0.2}
