import numpy as np
import pytest

from holdemlab import brain as brain_module
from holdemlab.brain import (
    CALL_CURVE,
    CONTINUE_CURVE,
    Brain,
    DecisionContext,
    Recommendation,
    required_strength,
)
from holdemlab.cards import DealRng, parse_cards
from holdemlab.events import ActionType
from holdemlab.profiles import ProfileStore
from holdemlab.rsm import BoardContext


def cards(text):
    return parse_cards(text)


FLOP = cards("9d5s2c")


def make_brain(seed=0):
    return Brain(ProfileStore(), seed=seed)


def ctx_for(brain, hero, board, *, pot=10.0, to_call=0.0, ali=0.0, street=None, legal=None,
            stack=100.0, position="btn", aggressor=False, live=(), facing_allin=False):
    street = street or {3: "flop", 4: "turn", 5: "river", 0: "preflop"}[len(board)]
    if legal is None:
        legal = ("fold", "call", "raise") if to_call > 0 else ("fold", "check", "bet")
    c = DecisionContext(
        hand_id=1,
        street=street,
        hero_hole=tuple(hero),
        board=tuple(board),
        pot_bb=pot,
        to_call_bb=to_call,
        min_raise_to_bb=max(2.0, 2 * to_call),
        hero_stack_bb=stack,
        effective_stack_bb=stack,
        spr=stack / pot,
        pot_odds=to_call / (pot + to_call) if to_call else 0.0,
        action_level=ali,
        position=position,
        in_position=True,
        hero_is_aggressor=aggressor,
        legal=tuple(legal),
        live_player_ids=tuple(live),
        facing_allin=facing_allin,
    )
    c.board_ctx = BoardContext(board) if len(board) >= 3 else None
    return c


class TestCurves:
    def test_call_curve_monotone_in_price(self):
        prices = np.linspace(0.01, 0.9, 60)
        reqs = [required_strength(CALL_CURVE, p) for p in prices]
        assert all(a <= b for a, b in zip(reqs, reqs[1:]))

    def test_continue_curve_monotone_in_pressure(self):
        levels = np.linspace(0.0, 12.0, 60)
        reqs = [required_strength(CONTINUE_CURVE, x) for x in levels]
        assert all(a <= b for a, b in zip(reqs, reqs[1:]))

    def test_cheap_call_needs_little(self):
        assert required_strength(CALL_CURVE, 0.05) <= 3  # Fair or less

    def test_heavy_action_needs_a_monster(self):
        assert required_strength(CONTINUE_CURVE, 4.0) >= 7  # Excellent up


class TestStyle:
    def test_zero_jitter_keeps_baseline(self, monkeypatch):
        monkeypatch.setattr(brain_module, "VPIP_JITTER", 0.0)
        monkeypatch.setattr(brain_module, "AGGR_JITTER", 0.0)
        brain = make_brain()
        st = brain.begin_hand(1, cards("AhKh"), [])
        assert st.vpip_delta == 0.0 and st.aggr_delta == 0.0 and st.mode == "normal"

    def test_three_bad_beats_trigger_camouflage(self):
        brain = make_brain()
        for i in range(3):
            st = brain.begin_hand(i + 1, cards("AhKh"), [], bad_beat_last_hand=True)
        assert st.bad_beat_streak == 3
        assert st.mode == "tilt_camouflage"

    def test_fixed_seed_reproduces_perturbations(self):
        a, b = make_brain(seed=5), make_brain(seed=5)
        for i in range(10):
            sa = a.begin_hand(i, cards("AhKh"), [])
            sb = b.begin_hand(i, cards("AhKh"), [])
            assert (sa.vpip_delta, sa.aggr_delta) == (sb.vpip_delta, sb.aggr_delta)

    def test_mode_only_changes_at_hand_boundaries(self):
        brain = make_brain()
        brain.begin_hand(1, cards("9h9s"), [])
        mode = brain.style.mode
        ctx = ctx_for(brain, cards("9h9s"), FLOP)
        brain.decide(ctx)
        assert brain.style.mode == mode


class TestGA:
    def test_value_raises_the_nuts_facing_a_bet(self):
        brain = make_brain()
        brain.begin_hand(1, cards("9h9s"), [])
        ctx = ctx_for(brain, cards("9h9s"), FLOP, pot=13.0, to_call=4.0)
        rec = brain.ga_recommend(ctx)
        assert rec.action == ActionType.RAISE
        assert rec.size_bb > 4.0

    def test_folds_air_to_heavy_action(self):
        brain = make_brain()
        brain.begin_hand(1, cards("7h3c"), [])
        ctx = ctx_for(brain, cards("7h3c"), FLOP, pot=30.0, to_call=20.0, ali=4.0)
        rec = brain.ga_recommend(ctx)
        assert rec.action == ActionType.FOLD

    def test_draw_price_call(self):
        brain = make_brain()
        brain.begin_hand(1, cards("4h3h"), [])
        # open-ended: 8 outs, two streets; a small price is worth chasing
        ctx = ctx_for(brain, cards("4h3h"), FLOP, pot=20.0, to_call=2.0)
        rec = brain.ga_recommend(ctx)
        assert rec.action == ActionType.CALL

    def test_ev_tie_flips_a_seeded_coin(self, monkeypatch):
        monkeypatch.setattr(brain_module, "EV_EPSILON_BB", 1e9)  # force every bet/check comparison into the tie band
        picks = set()
        for seed in range(12):
            brain = make_brain(seed=seed)
            brain.begin_hand(1, cards("9h9s"), [])
            ctx = ctx_for(brain, cards("9h9s"), FLOP, pot=10.0)
            picks.add(brain.ga_recommend(ctx).action)
        assert picks == {ActionType.BET, ActionType.CHECK}

    def test_preflop_opens_premiums(self):
        brain = make_brain()
        brain.begin_hand(1, cards("9h9s"), [])
        ctx = ctx_for(brain, cards("9h9s"), (), pot=1.5, to_call=1.0, position="utg",
                      legal=("fold", "call", "raise"))
        rec = brain.decide(ctx)
        assert rec.action == ActionType.RAISE

    def test_preflop_folds_trash_utg(self, monkeypatch):
        monkeypatch.setattr(brain_module, "VPIP_JITTER", 0.0)
        brain = make_brain()
        brain.begin_hand(1, cards("8c3d"), [])
        ctx = ctx_for(brain, cards("8c3d"), (), pot=1.5, to_call=1.0, position="utg",
                      legal=("fold", "call", "raise"))
        rec = brain.decide(ctx)
        assert rec.action == ActionType.FOLD


class TestMA:
    def rec(self, action, conviction, source, size=0.0):
        return Recommendation(ActionType[action], size, conviction, source, "test")

    def test_exploit_outranks_baseline(self):
        brain = make_brain()
        ctx = ctx_for(brain, cards("9h9s"), FLOP, to_call=4.0, pot=13.0)
        ga = self.rec("CALL", 0.5, "GA")
        sad = self.rec("RAISE", 0.9, "SAD", size=12.0)
        final = brain.ma_decide([ga, sad], ctx)
        assert final.action == ActionType.RAISE and final.source == "SAD"

    def test_low_conviction_exploit_gets_no_premium(self):
        brain = make_brain()
        ctx = ctx_for(brain, cards("9h9s"), FLOP, to_call=4.0, pot=13.0)
        ga = self.rec("CALL", 0.6, "GA")
        sad = self.rec("RAISE", 0.55, "SAD", size=12.0)  # below threshold
        final = brain.ma_decide([ga, sad], ctx)
        assert final.source == "GA"

    def test_single_recommendation_passes_through(self):
        brain = make_brain()
        ctx = ctx_for(brain, cards("9h9s"), FLOP, to_call=4.0, pot=13.0)
        ga = self.rec("CALL", 0.5, "GA")
        assert brain.ma_decide([ga], ctx).action == ActionType.CALL

    def test_argmax_scale_invariance(self):
        brain = make_brain()
        ctx = ctx_for(brain, cards("9h9s"), FLOP, to_call=4.0, pot=13.0)
        recs = [self.rec("CALL", 0.4, "GA"), self.rec("RAISE", 0.8, "SAD", size=12.0)]
        a = brain.ma_decide(recs, ctx).action
        scaled = [Recommendation(r.action, r.size_bb, min(1.0, r.conviction * 1.2), r.source, r.rationale) for r in recs]
        b = brain.ma_decide(scaled, ctx).action
        assert a == b

    def test_empty_list_is_contract_violation(self):
        brain = make_brain()
        ctx = ctx_for(brain, cards("9h9s"), FLOP)
        with pytest.raises(ValueError):
            brain.ma_decide([], ctx)

    def test_low_spr_commits(self):
        brain = make_brain()
        ctx = ctx_for(brain, cards("9h9s"), FLOP, pot=80.0, stack=40.0)
        ga = self.rec("BET", 0.8, "GA", size=10.0)
        final = brain.ma_decide([ga], ctx)
        assert final.size_bb == pytest.approx(40.0)  # committed: bet the stack

    def test_no_bankroll_field_exists(self):
        from dataclasses import fields

        names = {f.name for f in fields(DecisionContext)}
        assert not any("bankroll" in n or "winnings" in n or "result" in n for n in names)

    def test_deterministic_replay(self):
        decisions = []
        for _ in range(2):
            brain = make_brain(seed=9)
            brain.begin_hand(1, cards("9h9s"), [])
            ctx = ctx_for(brain, cards("9h9s"), FLOP, pot=10.0)
            decisions.append(brain.decide(ctx))
        assert decisions[0] == decisions[1]


class TestSadIntegration:
    def test_double_barrel_fires_from_profile(self):
        store = ProfileStore()
        s = store.player_stats("victim")
        s.hands = 40
        s.fold_to_cbet["turn"].opportunities = 40
        s.fold_to_cbet["turn"].hits = 34
        brain = Brain(store, seed=1)
        brain.begin_hand(1, cards("7h6h"), [("victim", None)])
        turn = cards("9d5s2cKd")
        brain.observe_villain_preflop("victim", "call")
        brain.observe_new_street(turn)
        ctx = ctx_for(brain, cards("7h6h"), turn, pot=10.0, aggressor=True, live=("victim",))
        rec = brain.decide(ctx)
        assert rec.source == "SAD"
        assert rec.action == ActionType.BET

    def test_nuts_vs_whale_defers_to_exploit_not_slowplay(self):
        """The deception engine skips non-modeling opponents; with a station
        read, the exploit engine value-bets instead."""
        store = ProfileStore()
        s = store.player_stats("fishy")
        s.hands = 50
        s.vpip.opportunities = 50
        s.vpip.hits = 30
        s.postflop_calls = 30
        s.postflop_aggressive = 9
        brain = Brain(store, seed=1)
        brain.begin_hand(1, cards("9h9s"), [("fishy", "Whale")])
        brain.observe_villain_preflop("fishy", "call")
        brain.observe_new_street(FLOP)
        ctx = ctx_for(brain, cards("9h9s"), FLOP, pot=10.0, live=("fishy",))
        rec = brain.decide(ctx)
        assert rec.source in ("SAD", "GA")
        assert rec.action == ActionType.BET
        lawn = brain.lawnmower_recommend(ctx)
        assert lawn is None


class TestLawnmower:
    def make_reg_spot(self, hero, fold_rate=0.85):
        store = ProfileStore()
        s = store.player_stats("reg")
        s.hands = 60
        s.fold_to_cbet["turn"].opportunities = 30
        s.fold_to_cbet["turn"].hits = int(30 * fold_rate)
        brain = Brain(store, seed=3)
        brain.begin_hand(1, hero, [("reg", "MediumReg")])
        brain.observe_villain_preflop("reg", "call")
        brain.observe_hero_action("raise", "preflop")
        brain.observe_new_street(FLOP)
        brain.observe_hero_action("bet", "flop")
        turn = cards("9d5s2cAd")  # scare card: hero's story got stronger
        brain.observe_new_street(turn)
        return brain, turn

    def test_scare_card_bluff_with_air(self):
        brain, turn = self.make_reg_spot(cards("7h6h"))
        ctx = ctx_for(brain, cards("7h6h"), turn, pot=12.0, aggressor=True, live=("reg",))
        rec = brain.lawnmower_recommend(ctx)
        assert rec is not None and rec.action == ActionType.BET

    def test_no_conditions_no_recommendation(self):
        brain, turn = self.make_reg_spot(cards("7h6h"), fold_rate=0.2)
        ctx = ctx_for(brain, cards("7h6h"), turn, pot=12.0, aggressor=True, live=("reg",))
        assert brain.lawnmower_recommend(ctx) is None

    def test_middling_hand_reads_no_perceived_strength(self, monkeypatch):
        """At rS 5 neither a story bluff nor a slow-play can fire, so the
        perceived range is not read; the think-time draw still happens once
        for the modeling opponent."""
        hero = cards("AhKc")
        brain, turn = self.make_reg_spot(hero)
        ctx = ctx_for(brain, hero, turn, pot=12.0, aggressor=True, live=("reg",))
        assert int(brain.rsm.query(hero, ctx.board_ctx)) == 5
        calls = []
        monkeypatch.setattr("holdemlab.brain.rs_distribution", lambda *a, **k: calls.append(a))
        want = DealRng(0)
        want.generator.bit_generator.state = brain.rng.generator.bit_generator.state
        want.randint(1200)
        assert brain.lawnmower_recommend(ctx) is None
        assert calls == []
        assert brain.rng.generator.bit_generator.state == want.generator.bit_generator.state

    def test_perceived_range_shifts_weak_after_checks(self):
        brain = make_brain()
        brain.begin_hand(1, cards("9h9s"), [("reg", "MediumReg")])
        brain.observe_villain_preflop("reg", "call")
        brain.observe_hero_action("raise", "preflop")
        brain.observe_new_street(FLOP)
        from holdemlab.rets import rs_distribution

        before = rs_distribution(brain.perceived["MediumReg"], brain.board_contexts[tuple(FLOP)], brain.rsm)
        brain.observe_hero_action("check", "flop")
        brain.observe_hero_action("check", "flop")
        after = rs_distribution(brain.perceived["MediumReg"], brain.board_contexts[tuple(FLOP)], brain.rsm)
        assert after[:3].sum() > before[:3].sum()

    def test_hero_raise_polarizes_perceived_range(self):
        brain = make_brain()
        brain.begin_hand(1, cards("9h9s"), [("reg", "MediumReg")])
        brain.observe_villain_preflop("reg", "call")
        brain.observe_hero_action("raise", "preflop")
        brain.observe_new_street(FLOP)
        from holdemlab.rets import rs_distribution

        before = rs_distribution(brain.perceived["MediumReg"], brain.board_contexts[tuple(FLOP)], brain.rsm)
        brain.observe_hero_action("raise", "flop")
        after = rs_distribution(brain.perceived["MediumReg"], brain.board_contexts[tuple(FLOP)], brain.rsm)
        assert after[8:].sum() > before[8:].sum()

    def test_flat_template_leaves_perceived_unchanged(self):
        brain = make_brain()
        brain.begin_hand(1, cards("9h9s"), [("reg", "MediumReg")])
        brain.observe_villain_preflop("reg", "call")
        brain.observe_hero_action("raise", "preflop")
        brain.observe_new_street(FLOP)
        from holdemlab.rets import FLAT_RET_ID, reshape

        grid = brain.perceived["MediumReg"]
        cats = brain.rsm.categories_many(brain.board_contexts[tuple(FLOP)])
        out = reshape(grid, brain.rets[FLAT_RET_ID], cats)
        assert np.allclose(out.weights, grid.weights, atol=1e-9)


class TestFailsLoudly:
    def _spot(self):
        brain = make_brain()
        brain.begin_hand(1, cards("9h9s"), [("v", "Fish")])
        brain.observe_villain_preflop("v", "call")
        brain.observe_new_street(FLOP)
        return brain, ctx_for(brain, cards("9h9s"), FLOP, live=("v",))

    def test_unexpected_chib_error_propagates_out_of_decide(self, monkeypatch):
        brain, ctx = self._spot()

        def broken(*args, **kwargs):
            raise RuntimeError("chib broke")

        monkeypatch.setattr("holdemlab.brain.chib", broken)
        with pytest.raises(RuntimeError, match="chib broke"):
            brain.decide(ctx)

    def test_degenerate_range_reads_without_chib(self, monkeypatch):
        from holdemlab.rets import DegenerateRangeError

        brain, ctx = self._spot()

        def degenerate(*args, **kwargs):
            raise DegenerateRangeError("no live combos")

        monkeypatch.setattr("holdemlab.brain.chib", degenerate)
        brain.decide(ctx)
        assert [(r.player_id, r.chib) for r in ctx.opponents] == [("v", None)]


class TestChibOnRead:
    def test_a_decision_without_equity_computes_no_chib(self, monkeypatch):
        from holdemlab import rets

        hero = cards("7h6h")
        brain = make_brain()
        brain.begin_hand(1, hero, [("a", "Fish"), ("b", "Whale")])
        for pid in ("a", "b"):
            brain.observe_villain_preflop(pid, "call")
        brain.observe_new_street(FLOP)
        ctx = ctx_for(brain, hero, FLOP, to_call=5.0, live=("a", "b"))
        calls = []

        def counted(*args):
            calls.append(args)
            return rets.chib(*args)

        monkeypatch.setattr("holdemlab.brain.chib", counted)
        brain.decide(ctx)
        assert calls == []
        for read in ctx.opponents:
            want = rets.chib(hero, brain.trackers[read.player_id].grid, ctx.board_ctx)
            assert read.chib == want
            assert read.chib == want  # computed once, kept
        assert len(calls) == 2


class TestRangesOnRead:
    def test_a_hand_without_equity_estimates_computes_no_range(self, monkeypatch):
        """An advised hand in which every post-flop decision faces a bet, so
        none estimates equity: the trackers record every strip and
        reshape, and the decisions and their snapshots read none of them.
        A later read computes them."""
        from holdemlab.rets import PipelineStep

        computed, estimates = [], []
        compute, estimate = PipelineStep._compute, Brain._equity_estimate
        monkeypatch.setattr(PipelineStep, "_compute", lambda step: computed.append(step) or compute(step))
        monkeypatch.setattr(Brain, "_equity_estimate", lambda b, c: estimates.append(c) or estimate(b, c))
        hero, board = cards("Ah7c"), cards("Kd9s4hQc2d")
        brain = make_brain(seed=3)
        brain.begin_hand(1, hero, [("a", "TightReg"), ("b", "Whale")])
        brain.observe_villain_preflop("a", "raise")
        brain.observe_villain_preflop("b", "call")
        brain.decide(ctx_for(brain, hero, (), pot=7.5, to_call=3.0, street="preflop", live=("a", "b")))
        brain.observe_hero_action("call", "preflop")
        for n in (3, 4, 5):
            brain.observe_new_street(board[:n])
            brain.observe_villain_action("a", "bet", aggressor="villain_agg")
            brain.observe_villain_action("b", "call", aggressor="villain_agg")
            ctx = ctx_for(brain, hero, board[:n], pot=20.0, to_call=6.0, live=("a", "b"))
            ctx.board_ctx = None  # the brain's own context of the street
            brain.decide(ctx)
            brain.observe_hero_action("call", ctx.street)
        assert estimates == [] and len(brain.snapshots) == 6
        assert computed == []
        assert all(len(t.history) == 7 for t in brain.trackers.values())
        brain.trackers["a"].grid
        assert len(computed) == 7  # the hero's strip and six steps, once each


class TestBoardContexts:
    @pytest.mark.parametrize(
        "entry",
        [
            lambda brain, ctx: brain.decide(ctx),
            lambda brain, ctx: brain.ga_recommend(ctx),
            lambda brain, ctx: brain.lawnmower_recommend(ctx),
            lambda brain, ctx: brain.record_snapshot(ctx),
        ],
        ids=["decide", "ga_recommend", "lawnmower_recommend", "record_snapshot"],
    )
    def test_deciding_on_another_board_than_observed_raises(self, entry):
        brain = make_brain()
        brain.begin_hand(1, cards("9h9s"), [("v", "Fish")])
        brain.observe_villain_preflop("v", "call")
        brain.observe_new_street(FLOP)
        ctx = ctx_for(brain, cards("9h9s"), cards("9d5s2cKc"), live=("v",))
        ctx.board_ctx = None  # the brain supplies the flop's context it holds
        with pytest.raises(ValueError, match="board 9d 5s 2c Kc with the context of 9d 5s 2c$"):
            entry(brain, ctx)
        assert brain.snapshots == []

    def test_each_brain_holds_its_own_contexts_for_one_hand(self):
        a, b = make_brain(), make_brain()
        for brain in (a, b):
            brain.begin_hand(1, cards("AhKh"), [("v", "Fish")])
            brain.observe_new_street(FLOP)
        ctx = a.board_contexts[tuple(FLOP)]
        assert ctx is not b.board_contexts[tuple(FLOP)]
        a.observe_new_street(FLOP)
        assert a.board_contexts == {tuple(FLOP): ctx}
        a.begin_hand(2, cards("AhKh"), [("v", "Fish")])
        assert a.board_contexts == {}
        a.observe_new_street(FLOP)
        assert a.board_contexts[tuple(FLOP)] is not ctx
