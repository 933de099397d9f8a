import itertools

import numpy as np
import pytest

from holdemlab.cards import parse_cards
from holdemlab.rangegrid import ComboGrid, combo_index, combos_with_any
from holdemlab.rets import (
    FLAT_RET_ID,
    RET,
    DegenerateRangeError,
    DispatchRule,
    OpponentRangeTracker,
    PipelineStep,
    RetDispatch,
    RetFileError,
    chib,
    load_ret_set,
    parse_ret_lines,
    reshape,
    rs_distribution,
)
from holdemlab.rsm import BoardContext, RsmTable

from reference_eval import ref_eval7


def cards(text):
    return parse_cards(text)


FLOP = cards("9d5s2c")
FLOP_CTX = BoardContext(FLOP)
HERO = cards("9h9s")


@pytest.fixture(scope="module")
def rsm():
    return RsmTable()


@pytest.fixture(scope="module")
def rets():
    return load_ret_set()


def random_grid(rng, dead):
    w = rng.random(1326) * (rng.random(1326) < 0.5)
    w[combos_with_any(dead)] = 0.0
    if w.sum() <= 0:
        w[combo_index(*cards("8h7h"))] = 1.0 if not (set(cards("8h7h")) & set(dead)) else 0.0
    return ComboGrid(w).normalized()


class TestRetFiles:
    def test_shipped_defaults_contain_case_study_templates(self, rets):
        for rid in ("RET11", "RET18", "RET33", "RET73"):
            assert rid in rets
        assert rets["RET11"].is_flat

    def test_empty_file_rejected(self):
        with pytest.raises(RetFileError):
            parse_ret_lines(["# nothing here"])

    def test_duplicate_id_rejected(self):
        line = "RET11; flat; 1 1 1 1 1 1 1 1 1 1 1; x"
        with pytest.raises(RetFileError, match=":2:"):
            parse_ret_lines([line, line])

    def test_wrong_arity_reports_line(self):
        with pytest.raises(RetFileError, match=":1:"):
            parse_ret_lines(["RET11; flat; 1 2 3; short"])

    def test_missing_flat_rejected(self):
        with pytest.raises(RetFileError, match="RET11"):
            parse_ret_lines(["RET99; x; 1 1 1 1 1 1 1 1 1 1 2; y"])

    def test_uneven_flat_rejected(self):
        # a street step strips without reshaping, which only an even RET11 allows
        with pytest.raises(RetFileError, match="mine.txt: .*RET11"):
            parse_ret_lines(["RET11; flat; 1 1 1 1 1 1 1 1 1 1 2; y"], source="mine.txt")
        assert parse_ret_lines(["RET11; flat; 3 3 3 3 3 3 3 3 3 3 3; y"])["RET11"].is_flat


class TestReshape:
    def test_flat_is_identity(self, rsm, rets):
        rng = np.random.default_rng(21)
        g = random_grid(rng, FLOP)
        out = reshape(g, rets[FLAT_RET_ID], rsm.categories_many(FLOP_CTX))
        assert np.allclose(out.weights, g.weights, atol=1e-9)

    def test_nuts_only_template_collapses_support(self, rsm):
        only_nuts = RET("X", "nuts only", np.array([0] * 9 + [1.0, 1.0]))
        g = ComboGrid.uniform().strip(FLOP + HERO)
        cats = rsm.categories_many(FLOP_CTX)
        out = reshape(g, only_nuts, cats)
        assert all(cats[i] >= 9 for i in np.flatnonzero(out.weights > 0))
        assert out.support_count() < g.support_count()

    def test_donk_template_cuts_air(self, rsm, rets):
        g = ComboGrid.uniform().strip(FLOP + HERO)
        cats = rsm.categories_many(FLOP_CTX)
        flat = rs_distribution(reshape(g, rets[FLAT_RET_ID], cats), FLOP_CTX, rsm)
        led = rs_distribution(reshape(g, rets["RET18"], cats), FLOP_CTX, rsm)
        assert led[0] < flat[0]

    def test_scale_invariance(self, rsm, rets):
        rng = np.random.default_rng(4)
        g = random_grid(rng, FLOP)
        ret = rets["RET18"]
        scaled = RET("S", "scaled", ret.weights * 7.3)
        cats = rsm.categories_many(FLOP_CTX)
        a = reshape(g, ret, cats)
        b = reshape(g, scaled, cats)
        assert np.allclose(a.weights, b.weights, atol=1e-12)

    def test_support_never_grows(self, rsm, rets):
        rng = np.random.default_rng(31)
        g = random_grid(rng, FLOP)
        for rid in ("RET18", "RET33", "RET73", "GCALL"):
            out = reshape(g, rets[rid], rsm.categories_many(FLOP_CTX))
            assert out.support_count() <= g.support_count()
            g = out

    def test_sequential_applications_commute(self, rsm, rets):
        rng = np.random.default_rng(6)
        g = random_grid(rng, FLOP)
        cats = rsm.categories_many(FLOP_CTX)
        ab = reshape(reshape(g, rets["RET18"], cats), rets["RET33"], cats)
        ba = reshape(reshape(g, rets["RET33"], cats), rets["RET18"], cats)
        assert np.allclose(ab.weights, ba.weights, atol=1e-12)

    def test_annihilation_flags_degenerate(self, rsm):
        zero_everything = RET("Z", "niente only", np.array([1.0] + [0.0] * 10))
        w = np.zeros(1326)
        w[combo_index(*cards("AhAc"))] = 1.0  # big overpair, never Niente
        out = reshape(ComboGrid(w), zero_everything, rsm.categories_many(FLOP_CTX))
        assert out.degenerate


class TestRsDistribution:
    def test_single_combo_unit_mass(self, rsm):
        w = np.zeros(1326)
        w[combo_index(*cards("AhAc"))] = 1.0
        dist = rs_distribution(ComboGrid(w), FLOP_CTX, rsm)
        assert dist.sum() == pytest.approx(1.0)
        assert dist[7] == pytest.approx(1.0)  # big overpair: Excellent

    def test_normalization(self, rsm):
        rng = np.random.default_rng(12)
        for _ in range(10):
            g = random_grid(rng, FLOP)
            assert rs_distribution(g, FLOP_CTX, rsm).sum() == pytest.approx(1.0, abs=1e-9)


class TestChiB:
    def test_current_nuts_gives_zero(self, rsm):
        g = ComboGrid.uniform().strip(FLOP + HERO)
        assert chib(HERO, g, FLOP_CTX) == 0.0

    def test_single_beating_combo_gives_one(self):
        hero = cards("8h8c")
        w = np.zeros(1326)
        w[combo_index(*cards("AhAc"))] = 1.0
        assert chib(hero, ComboGrid(w), FLOP_CTX) == 1.0

    def test_bounds_and_self_best(self, rsm):
        rng = np.random.default_rng(40)
        for _ in range(20):
            board = rng.choice(52, size=4, replace=False).tolist()
            g = random_grid(rng, board)
            support = np.flatnonzero(g.weights > 0)
            from holdemlab.rangegrid import COMBO_CARDS

            ctx = BoardContext(board)
            best = support[np.argmax(ctx.scores[support])]
            hero = [int(c) for c in COMBO_CARDS[best]]
            value = chib(hero, g, ctx)
            assert 0.0 <= value <= 1.0
            assert value == 0.0

    def test_matches_brute_force_per_combo(self, rsm):
        rng = np.random.default_rng(77)
        board = cards("Jh8d3c2s")
        hero = cards("AcKc")
        g = random_grid(rng, board + hero)
        got = chib(hero, g, BoardContext(board))
        from holdemlab.rangegrid import COMBO_CARDS

        w = g.weights.copy()
        w[combos_with_any(hero)] = 0.0
        hv = ref_eval7(hero, board)
        total = beat = 0.0
        for idx in np.flatnonzero(w > 0):
            c = [int(x) for x in COMBO_CARDS[idx]]
            total += w[idx]
            if ref_eval7(c, board) > hv:
                beat += w[idx]
        assert got == pytest.approx(beat / total, abs=1e-9)

    def test_two_heroes_on_one_context_match_the_reference(self):
        """chib with the context's cached hero masks equals copying the
        grid, zeroing the hero's and the board's combos and summing, bit
        for bit, for each of two heroes read in turn on one context."""
        from holdemlab.cards import hand_score

        rng = np.random.default_rng(5150)
        for text in ("Jh8d3c2s", "9d5s2c", "KhKd7h2h6h"):
            board = cards(text)
            ctx = BoardContext(board)
            g = random_grid(rng, board)
            for hero in (cards("AcKc"), cards("8h8c"), cards("AcKc")):
                w = g.weights.copy()
                w[combos_with_any(hero)] = 0.0
                w[ctx.dead_mask] = 0.0
                want = float(w[ctx.scores > hand_score(tuple(hero) + tuple(board))].sum() / w.sum())
                assert chib(hero, g, ctx) == want

    def test_empty_support_raises(self):
        w = np.zeros(1326)
        w[combo_index(*cards("Ah9d"))] = 1.0
        with pytest.raises(DegenerateRangeError):
            chib(cards("Ah9d"), ComboGrid(w), BoardContext(cards("2c3c4c")))  # only combo collides with hero


class TestDispatch:
    def test_case_study_routes(self, rets):
        d = RetDispatch.shipped(rets)
        assert d.select("flop", "Whale", "donk", "none", "oop") == "RET18"
        assert d.select("flop", "Whale", "call", "hero_agg", "oop") == "RET33"
        assert d.select("turn", "Whale", "allin", "none", "oop") == "RET73"
        assert d.select("river", "MediumReg", "bet", "none", "ip") == "RET7"

    def test_wildcard_fallbacks(self, rets):
        d = RetDispatch.shipped(rets)
        assert d.select("flop", "Rock", "check", "none", "ip") == "GCHECK"
        assert d.select("turn", "LAG", "raise", "villain_agg", "ip") == "GRAISE"

    def test_most_specific_wins(self, rets):
        d = RetDispatch.parse(
            ["* * bet * * -> GBET", "flop Whale bet * * -> RET18"], rets
        )
        assert d.select("flop", "Whale", "bet", "none", "oop") == "RET18"
        assert d.select("turn", "Rock", "bet", "none", "oop") == "GBET"

    def test_unknown_template_rejected(self, rets):
        with pytest.raises(RetFileError):
            RetDispatch.parse(["* * bet * * -> NOPE"], rets)

    @pytest.mark.parametrize(
        "line, field",
        [
            ("flpo * call hero_agg * -> RET33", "street"),
            ("flop * calls hero_agg * -> RET33", "action"),
            ("flop * call hero * -> RET33", "aggressor"),
            ("flop * call hero_agg IP -> RET33", "position"),
        ],
    )
    def test_value_outside_the_vocabulary_rejected(self, rets, line, field):
        with pytest.raises(RetFileError, match=rf"^<dispatch>:2: {field} "):
            RetDispatch.parse(["# header", line], rets)

    def test_archetype_is_free(self, rets):
        d = RetDispatch.parse(["river Calling_Station bet villain_agg oop -> RET7"], rets)
        assert d.select("river", "Calling_Station", "bet", "villain_agg", "oop") == "RET7"

    def test_shipped_file_parses_unchanged(self, rets):
        from importlib import resources

        text = resources.files("holdemlab").joinpath("data/ret_dispatch.txt").read_text(encoding="utf-8")
        rows = [line for line in text.splitlines() if line.split("#", 1)[0].strip()]
        d = RetDispatch.parse(text.splitlines(), rets, source="ret_dispatch.txt")
        assert len(d.rules) == len(rows) == 11

    def test_every_shipped_row_decides_a_selection(self, rets):
        """Removing any one shipped row changes the template of at least one
        situation, over every street, archetype, action, aggressor and
        position: no row repeats what another row already selects."""
        from holdemlab.rangegrid import ARCHETYPES
        from holdemlab.rets import _DISPATCH_VOCABULARY as V

        situations = list(itertools.product(V["street"], ARCHETYPES, V["action"], V["aggressor"], V["position"]))
        shipped = RetDispatch.shipped(rets)
        selected = [shipped.select(*s) for s in situations]
        for i, rule in enumerate(shipped.rules):
            without = RetDispatch(shipped.rules[:i] + shipped.rules[i + 1 :], rets)
            assert any(without.select(*s) != ret_id for s, ret_id in zip(situations, selected)), rule


class TestTracker:
    def test_hand6_pipeline_order(self, rsm, rets):
        d = RetDispatch.shipped(rets)
        g = ComboGrid.uniform()
        t = OpponentRangeTracker("w", "Whale", g, rsm, rets, d)
        t.strip_hero(HERO)
        t.on_new_street(FLOP_CTX)
        t.on_action("donk", FLOP_CTX)
        t.on_action("call", FLOP_CTX, aggressor="hero_agg")
        turn = BoardContext(cards("9d5s2c2d"))
        t.on_new_street(turn)
        t.on_action("allin", turn)
        assert t.applied_ret_ids() == ["RET11", "RET18", "RET33", "RET11", "RET73"]
        supports = [s.support for s in t.history]
        assert all(b <= a for a, b in zip(supports[1:], supports[2:]))

    def test_street_step_only_strips(self, rsm, rets):
        rng = np.random.default_rng(8)
        g = random_grid(rng, HERO)
        t = OpponentRangeTracker("w", "Whale", g, rsm, rets, RetDispatch.shipped(rets))
        for board in (FLOP, cards("9d5s2c2d"), cards("9d5s2c2dKh")):
            before = t.grid
            ctx = BoardContext(board)
            step = t.on_new_street(ctx)
            assert step.ret_id == FLAT_RET_ID
            assert np.array_equal(step.grid.weights, before.strip_mask(ctx.dead_mask).weights)
            t.on_action("call", ctx)

    def test_steps_computed_on_read_equal_the_eager_chain(self, rets):
        """Seeded random pipelines: the hero's strip, street strips and
        action reshapes, some of them annihilating (a template that keeps
        only Alcatraz combos, small grids that a board kills). Every step's
        grid, read in a random order after the table has learned, has the
        bytes of the eager strip_mask / reshape chain at record time, and a
        computed step keeps none of what it applied."""
        rng = np.random.default_rng(2024)
        zap = RET("ZAP", "keeps only Alcatraz", np.array([0.0] * 10 + [1.0]))
        all_rets = {**rets, "ZAP": zap}
        shipped = RetDispatch.shipped(rets)
        dispatch = RetDispatch([*shipped.rules, DispatchRule("*", "Zapper", "raise", "*", "*", "ZAP")], all_rets)
        actions = ("check", "call", "bet", "donk", "raise", "allin")
        degenerate = 0
        for _ in range(60):
            rsm = RsmTable()
            deck = rng.permutation(52).tolist()
            hero, board = deck[:2], deck[2:7]
            if rng.random() < 0.3:  # a few combos, often all dead on the board
                w = np.zeros(1326)
                w[rng.choice(1326, size=3, replace=False)] = 1.0
                grid = ComboGrid(w).normalized()
            else:
                grid = random_grid(rng, ())
            archetype = ["Whale", "Fish", "Zapper"][int(rng.integers(3))]
            t = OpponentRangeTracker("v", archetype, grid, rsm, all_rets, dispatch)
            if grid.weights[combos_with_any(hero)].sum() < grid.total():
                t.strip_hero(hero)
                eager = [grid.strip(hero)]
            else:
                eager = [grid]
            want = [grid]
            for n in (3, 4, 5):
                ctx = BoardContext(board[:n])
                t.on_new_street(ctx)
                eager.append(eager[-1].strip_mask(ctx.dead_mask))
                want.append(eager[-1])
                for _ in range(int(rng.integers(4))):
                    action = actions[int(rng.integers(len(actions)))]
                    step = t.on_action(action, ctx, aggressor="villain_agg", position="ip")
                    eager.append(reshape(eager[-1], all_rets[step.ret_id], rsm.categories_many(ctx)))
                    want.append(eager[-1])
                rsm.apply_delta(rsm.bucket_for(hero, ctx), 1.5 * float(rng.choice([-1, 1])))
            for i in rng.permutation(len(t.history)).tolist():
                got = t.history[i].grid
                assert got.weights.tobytes() == want[i].weights.tobytes(), i
                assert got.degenerate == want[i].degenerate
                degenerate += got.degenerate
            assert all(s._prior is None and s._kill is None and s._ret is None for s in t.history)
            assert t.grid is t.history[-1].grid
        assert degenerate > 0

    def test_recording_computes_no_grid(self, rsm, rets, monkeypatch):
        computed = []
        compute = PipelineStep._compute
        monkeypatch.setattr(PipelineStep, "_compute", lambda step: computed.append(step) or compute(step))
        t = OpponentRangeTracker("w", "Whale", ComboGrid.uniform(), rsm, rets, RetDispatch.shipped(rets))
        t.strip_hero(HERO)
        t.on_new_street(FLOP_CTX)
        t.on_action("donk", FLOP_CTX)
        assert computed == []
        t.grid
        assert len(computed) == 3  # the hero's strip, the street, the action: once each
        t.grid
        assert len(computed) == 3

    def test_property_suite_thousand_instances(self, rsm, rets):
        """Randomized pipeline invariants: normalization, flat identity,
        scale invariance, narrowing."""
        rng = np.random.default_rng(123)
        flat = rets[FLAT_RET_ID]
        ids = [r for r in rets if r != FLAT_RET_ID]
        boards = []
        for _ in range(25):
            boards.append(rng.choice(52, size=int(rng.choice([3, 4, 5])), replace=False).tolist())
        contexts = [BoardContext(board) for board in boards]
        checked = 0
        for i in range(1000):
            board, ctx = boards[i % len(boards)], contexts[i % len(boards)]
            g = random_grid(rng, board)
            if g.total() <= 0:
                continue
            rid = ids[int(rng.integers(len(ids)))]
            ret = rets[rid]
            cats = rsm.categories_many(ctx)
            out = reshape(g, ret, cats)
            assert abs(out.total() - 1.0) <= 1e-9
            assert out.support_count() <= g.support_count()
            flat_out = reshape(g, flat, cats)
            assert np.allclose(flat_out.weights, g.weights, atol=1e-9)
            scaled = RET("S", "s", ret.weights * (0.5 + float(rng.random()) * 5))
            assert np.allclose(reshape(g, scaled, cats).weights, out.weights, atol=1e-9)
            checked += 1
        assert checked >= 990
