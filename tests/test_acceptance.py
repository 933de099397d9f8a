"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 1 contains an
arithmetic contradiction inherited from the published results table (its
cash column is internally inconsistent by exactly $1.00); the test asserts
the stated values faithfully and is expected to stay red on those
sub-assertions. Everything it can honestly check, it checks.
"""
import itertools
import math
import time

import numpy as np
import pytest

from holdemlab.cards import evaluate7, hand_score, parse_cards
from holdemlab.metrics import (
    FailureCostModel,
    ResultLedger,
    Z_95,
    bb100,
    failure_cost,
    segment_analysis,
)
from holdemlab.rangegrid import COMBO_CARDS, ComboGrid, assign_preflop_range, combos_with_any
from holdemlab.rets import FLAT_RET_ID, RET, chib, load_ret_set, reshape, rs_distribution
from holdemlab.rsm import BoardContext, RsmTable
from holdemlab.scenario import load_scenario, run_scenario
from holdemlab.session import SessionConfig, run_fastfold_session
from holdemlab.table import parse_history, replay_hand, settle_pots, write_history
from importlib import resources

from reference_eval import closed_form_category_counts, ref_eval5, ref_eval7, ref_settle


def report(n: int, description: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"\nacceptance {n:>2}: {status} - {description}{tail}")
    return ok


def cards(text):
    return parse_cards(text)


pytestmark = pytest.mark.acceptance


class TestCriterion1:
    def test_trial_table_arithmetic_reproduction(self):
        """Trial-table accounting: BB/100 rows within 0.05 and the exact
        cents identity. The published cash column itself is off by $1.00
        (177.92 - 138.70 = 39.22, yet it prints 38.22), so the identity and
        the two derived rows cannot all hold as stated; see the companion
        test for the machinery's own exactness."""
        pre, rake, rakeback, hands, bb = 17792, 13870, 959, 64_267, 2
        failures = []
        rows = {
            "pre_rake": (bb100(pre, hands, bb), 13.8),
            "rake": (bb100(-rake, hands, bb), -10.8),
            "rakeback": (bb100(rakeback, hands, bb), 0.7),
            "post_rake": (bb100(pre - rake, hands, bb), 3.0),
            "final": (bb100(pre - rake + rakeback, hands, bb), 3.7),
        }
        for name, (got, want) in rows.items():
            if abs(got - want) > 0.05:
                failures.append(f"{name}: {got:.4f} vs {want} (off {abs(got - want):.4f})")
        net = pre - rake + rakeback
        if net != 4781:
            failures.append(f"identity: {pre} - {rake} + {rakeback} = {net} cents, stated 4781")
        ok = report(1, "published-trial arithmetic reproduction", not failures, "; ".join(failures))
        assert ok, failures

    def test_companion_ledger_machinery_is_exact(self):
        """Not the criterion: proof the pipeline itself is exact. A consistent
        cash column (pre-rake 176.92) satisfies every row and the identity."""
        pre, rake, rakeback, hands, bb = 17692, 13870, 959, 64_267, 2
        assert pre - rake + rakeback == 4781  # exact cents identity
        assert bb100(pre, hands, bb) == pytest.approx(13.8, abs=0.05)
        assert bb100(-rake, hands, bb) == pytest.approx(-10.8, abs=0.05)
        assert bb100(rakeback, hands, bb) == pytest.approx(0.7, abs=0.05)
        assert bb100(pre - rake, hands, bb) == pytest.approx(3.0, abs=0.05)
        assert bb100(pre - rake + rakeback, hands, bb) == pytest.approx(3.7, abs=0.05)
        # and the published column's internal inconsistency is exactly $1.00
        assert (17792 - 13870) - 3822 == 100


class TestCriterion2:
    def test_evaluator_oracle_equivalence(self):
        t0 = time.time()
        counts = [0] * 9
        for five in itertools.combinations(range(52), 5):
            counts[hand_score(five) >> 20] += 1
        expected = closed_form_category_counts()
        exact = all(counts[cat] == n for cat, n in expected.items())
        rng = np.random.default_rng(12345)
        mismatches = 0
        for _ in range(10_000):
            seven = rng.choice(52, size=7, replace=False).tolist()
            mine = evaluate7(seven[:2], seven[2:])
            best21 = max(ref_eval5(c) for c in itertools.combinations(seven, 5))
            if int(mine.category) != best21[0] or tuple(mine.tiebreak)[: len(best21) - 1] != best21[1:]:
                mismatches += 1
        ok = report(
            2,
            "evaluator equals enumeration oracle",
            exact and mismatches == 0,
            f"2,598,960 hands tallied, 10,000 deals cross-checked in {time.time() - t0:.1f}s",
        )
        assert ok


class TestCriterion3:
    def test_hand6_structural(self):
        sc = load_scenario(resources.files("holdemlab").joinpath("data/hand6.scn"))
        res = run_scenario(sc)
        tracker = None
        failures = list(res.failures)
        ids = None
        if "whale_bb" in {s.player_id for s in sc.seats}:
            import holdemlab.scenario as _  # noqa: F401

        applied = [s.ret_id for s in res.steps if s.player_id == "whale_bb" and s.ret_id]
        if applied != ["RET11", "RET18", "RET33", "RET11", "RET73"]:
            failures.append(f"template order {applied}")
        supports = [s.support for s in res.steps if s.player_id == "whale_bb"]
        if any(b > a for a, b in zip(supports, supports[1:])):
            failures.append(f"support grew: {supports}")
        final = [s for s in res.steps if s.player_id == "whale_bb"][-1]
        chib_turn = res.hero_chib.get("turn", 1.0)
        if chib_turn > 0.05:
            failures.append(f"turn ChiB {chib_turn:.4f}")
        ok = report(
            3,
            "case-study replay structure",
            not failures,
            f"templates {applied}, turn ChiB {chib_turn:.4f}",
        )
        assert ok, failures


class TestCriterion4:
    def test_hand6_calibration_targets(self):
        rsm = RsmTable()
        board = cards("9d5s2c")
        ctx = BoardContext(board)
        dead = board + cards("9h9s")
        whale = assign_preflop_range("Whale", "call").strip(dead)
        reg = assign_preflop_range("MediumReg", "call").strip(dead)
        dw = rs_distribution(whale, ctx, rsm)
        dr = rs_distribution(reg, ctx, rsm)
        failures = []
        weak_mass = dw[0] + dw[1]
        if not (0.51 <= weak_mass <= 0.71):
            failures.append(f"whale Niente+HardlyAnything {weak_mass:.3f} outside 0.61+-0.10")
        fair_up = dw[3:].sum()
        if not (0.07 <= fair_up <= 0.17):
            failures.append(f"whale Fair-or-better {fair_up:.3f} outside 0.12+-0.05")
        if dr[0] != 0.0:
            failures.append(f"regular Niente {dr[0]:.4f} != 0")
        reg_nuts = dr[9]
        if not (0.04 <= reg_nuts <= 0.10):
            failures.append(f"regular Nuts {reg_nuts:.3f} outside 0.07+-0.03")
        if not reg_nuts > 3 * dw[9]:
            failures.append(f"regular nuts {reg_nuts:.3f} not > 3x whale {dw[9]:.3f}")
        ok = report(
            4,
            "case-study baseline calibration",
            not failures,
            f"whale weak {weak_mass:.2f}, fair+ {fair_up:.2f}; reg Niente {dr[0]:.3f}, nuts {reg_nuts:.3f} vs whale {dw[9]:.3f}",
        )
        assert ok, failures


class TestCriterion5:
    def test_chib_oracle_equivalence(self):
        rng = np.random.default_rng(555)
        rsm = RsmTable()
        worst = 0.0
        for case in range(100):
            board_n = int(rng.choice([3, 4, 5]))
            deal = rng.choice(52, size=board_n + 2, replace=False).tolist()
            board, hero = deal[:board_n], deal[board_n:]
            dead = combos_with_any(board + hero)
            live = np.flatnonzero(~dead)
            size = int(rng.integers(5, len(live) + 1)) if case % 10 else len(live)
            support = rng.choice(live, size=min(size, len(live)), replace=False)
            w = np.zeros(1326)
            w[support] = rng.random(len(support)) + 1e-6
            grid = ComboGrid(w).normalized()
            got = chib(hero, grid, BoardContext(board))
            hv = ref_eval7(hero, board)
            beat = total = 0.0
            for idx in support:
                c = [int(x) for x in COMBO_CARDS[idx]]
                total += w[idx]
                if ref_eval7(c, board) > hv:
                    beat += w[idx]
            worst = max(worst, abs(got - beat / total))
        ok = report(5, "ChiB equals per-combo brute force", worst <= 1e-9, f"worst |diff| {worst:.2e} over 100 cases")
        assert ok


class TestCriterion6:
    @pytest.mark.slow
    def test_exploitation_at_desk_scale(self):
        config = SessionConfig(hands=100_000, seed=2023)
        t0 = time.time()
        result = run_fastfold_session(config)
        elapsed = time.time() - t0
        pre_rake = np.array([r.pre_rake_cents for r in result.ledger.rows]) / config.bb_cents
        mean = pre_rake.mean()
        half = Z_95 * pre_rake.std(ddof=1) / math.sqrt(len(pre_rake))
        lo, hi = (mean - half) * 100, (mean + half) * 100
        seg = segment_analysis(result.ledger, 10_000)
        failures = []
        if not lo > 0:
            failures.append(f"CI [{lo:.2f}, {hi:.2f}] does not exclude zero")
        if elapsed >= 300:
            failures.append(f"runtime {elapsed:.0f}s over the 5-minute budget")
        ok = report(
            6,
            "positive win rate at desk scale",
            not failures,
            f"pre-rake {mean * 100:.1f} BB/100, CI [{lo:.1f}, {hi:.1f}], "
            f"10k-segment spread {seg.spread_bb100:.1f} BB/100, {elapsed:.0f}s / 100k hands",
        )
        assert ok, failures


class TestCriterion7:
    def test_variance_machinery(self):
        rng = np.random.default_rng(777)
        sigma_bb = 11.0
        hands = 60_000
        nets_bb = rng.normal(0.05, sigma_bb, size=hands)
        ledger = ResultLedger(bb_cents=2)
        for h, n in enumerate(nets_bb, start=1):
            ledger.add_hand(h, int(round(n * 2)), 0)
        seg = segment_analysis(ledger, 10_000)
        sample = np.array([r.net_cents for r in ledger.rows]) / 2.0
        closed = Z_95 * sample.std(ddof=1) / math.sqrt(hands) * 100
        rel = abs(seg.ci_half_width_bb100 - closed) / closed
        ok = report(
            7,
            "confidence interval matches closed form",
            rel <= 0.05,
            f"CI {seg.ci_half_width_bb100:.3f} vs z*sigma/sqrt(n) {closed:.3f} BB/100; "
            f"segment spread {seg.spread_bb100:.1f} BB/100 (reported, not asserted)",
        )
        assert ok


class TestCriterion8:
    def test_failure_cost_arithmetic(self):
        direct, total = failure_cost(FailureCostModel(p_fold=0.8, mean_equity_loss_bb=7.35, secondary_cost_bb=0.45))
        ok = report(8, "failure cost model point values", direct == 1.47 and total == 1.92, f"direct {direct}, total {total}")
        assert ok


class TestCriterion9:
    def test_conservation_and_determinism(self, tmp_path):
        failures = []
        # byte-identical histories under a fixed seed
        paths = []
        for name in ("a.hh", "b.hh"):
            records = []
            run_fastfold_session(SessionConfig(hands=1500, seed=31), on_record=records.append)
            for r in records:
                if sum(r.net.values()) + r.total_rake() != 0:
                    failures.append(f"hand {r.hand_id}: chips leaked")
                    break
            p = tmp_path / name
            write_history(records, str(p))
            paths.append(p)
        if paths[0].read_bytes() != paths[1].read_bytes():
            failures.append("same seed produced different histories")
        # every recorded hand replays to the identical outcome
        replays = 0
        for record in parse_history(str(paths[0]))[:400]:
            again = replay_hand(record)
            if again.net != record.net or again.actions != record.actions or again.board != record.board:
                failures.append(f"hand {record.hand_id} replays differently")
                break
            replays += 1
        # side pots vs the independent settlement oracle
        rng = np.random.default_rng(909)
        for case in range(1000):
            n = int(rng.integers(2, 7))
            contributions = {i: int(rng.integers(0, 200)) for i in range(n)}
            if sum(contributions.values()) == 0:
                continue
            live = {i for i in range(n) if rng.random() < 0.65} or {0}
            ranking = {i: (int(rng.integers(1, 6)),) for i in range(n)}
            scores = {i: ranking[i][0] for i in range(n)}
            mine = settle_pots(contributions, live, scores, sorted(range(n)))
            if mine != ref_settle(contributions, live, ranking):
                failures.append(f"settlement case {case} diverged")
                break
        ok = report(
            9,
            "conservation, determinism, settlement oracle",
            not failures,
            f"1500-hand histories byte-identical, {replays} replays exact, 1000 settlements matched",
        )
        assert ok, failures


class TestCriterion10:
    def test_learning_convergence_and_financial_invariance(self):
        import dataclasses

        from holdemlab.learning import (
            DELTA_CORRECT,
            apply_learning,
            realized_category,
            replay_with_perfect_info,
        )
        from holdemlab.learning import PredictionRecord
        from holdemlab.rsm import MadeClass, RsmRules

        failures = []
        # convergence: a mis-set bucket reaches the realized category in time
        hole, board = cards("Ah9c"), cards("9d5s2c")
        ctx = BoardContext(board)
        rules = RsmRules.shipped()
        probe = RsmTable(rules)
        bucket = probe.bucket_for(hole, ctx)
        realized = realized_category(hole, ctx)
        bad = RsmRules(dict(rules.made_value), dict(rules.draw_value), dict(rules.adjustments))
        bad.made_value[MadeClass[bucket.split("|")[1]]] = realized - 1.0
        rsm = RsmTable(bad)
        dist = np.zeros(11)
        dist[0] = 1.0
        bound = int(np.ceil(1.0 / DELTA_CORRECT))
        took = None
        for i in range(bound + 1):
            if int(rsm.query(hole, ctx)) == realized:
                took = i
                break
            rec = PredictionRecord(
                hand_id=i, street="flop", board_ctx=ctx, player_id="v", archetype="Whale",
                grid=ComboGrid.uniform().strip(board), distribution=dist,
                predicted_top=0, revealed_hole=tuple(hole), realized_category=realized,
                realized_beat_hero=False, bucket=bucket, in_support=True,
            )
            apply_learning([rec], rsm)
        if took is None or took > bound:
            failures.append(f"no convergence within ceil(width/delta)={bound} showdowns")

        # financial invariance: flipping the money changes no deltas
        sc = load_scenario(resources.files("holdemlab").joinpath("data/hand6.scn"))
        record = run_scenario(sc).record
        arch = {s.player_id: s.archetype for s in sc.seats if s.archetype != "hero"}
        ra = replay_with_perfect_info(record, "hero", RsmTable(), archetypes=arch)
        flipped = dataclasses.replace(record, net={s: -v for s, v in record.net.items()})
        rb = replay_with_perfect_info(flipped, "hero", RsmTable(), archetypes=arch)
        da = [(e.bucket, e.delta) for e in apply_learning(ra, RsmTable())]
        db = [(e.bucket, e.delta) for e in apply_learning(rb, RsmTable())]
        if da != db or not da:
            failures.append("delta sets differ between won and lost versions")
        ok = report(
            10,
            "learning convergence and result-blindness",
            not failures,
            f"converged in {took} showdowns (bound {bound}); {len(da)} deltas identical under flipped money",
        )
        assert ok, failures


class TestCriterion11:
    def test_property_suites_standalone(self):
        rng = np.random.default_rng(1111)
        rsm = RsmTable()
        rets = load_ret_set()
        flat = rets[FLAT_RET_ID]
        ids = [r for r in rets if r != FLAT_RET_ID]
        boards = [rng.choice(52, size=int(rng.choice([3, 4, 5])), replace=False).tolist() for _ in range(20)]
        contexts = [BoardContext(board) for board in boards]
        checked = 0
        failures = []
        for i in range(1000):
            board, ctx = boards[i % len(boards)], contexts[i % len(boards)]
            w = rng.random(1326) * (rng.random(1326) < 0.6)
            w[combos_with_any(board)] = 0.0
            if w.sum() <= 0:
                continue
            grid = ComboGrid(w).normalized()
            if abs(grid.total() - 1.0) > 1e-9:
                failures.append("normalization")
            stripped = grid.strip(board)
            if not np.allclose(stripped.strip(board).weights, stripped.weights, atol=1e-12):
                failures.append("strip idempotence")
            cats = rsm.categories_many(ctx)
            if np.abs(reshape(grid, flat, cats).weights - grid.weights).max() > 1e-9:
                failures.append("flat identity")
            ret = rets[ids[int(rng.integers(len(ids)))]]
            out = reshape(grid, ret, cats)
            scaled = RET("S", "s", ret.weights * (0.3 + 4 * float(rng.random())))
            if np.abs(reshape(grid, scaled, cats).weights - out.weights).max() > 1e-9:
                failures.append("scale invariance")
            if out.support_count() > grid.support_count():
                failures.append("monotone narrowing")
            if failures:
                break
            checked += 1
        ok = report(11, "grid/template property suite", not failures and checked >= 900, f"{checked} randomized instances")
        assert ok, failures
