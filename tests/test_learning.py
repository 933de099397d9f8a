import numpy as np

from holdemlab.cards import parse_cards
from holdemlab.learning import (
    DELTA_CORRECT,
    DELTA_REINFORCE,
    PredictionRecord,
    apply_learning,
    realized_category,
    records_from_snapshots,
    replay_with_perfect_info,
)
from holdemlab.profiles import ProfileStore
from holdemlab.rangegrid import ComboGrid, parse_range_lines
from holdemlab.rsm import BoardContext, MadeClass, RsmRules, RsmTable
from holdemlab.scenario import load_scenario, run_scenario
from holdemlab.session import HERO_ID, SessionConfig, run_fastfold_session
from importlib import resources

from reference_eval import ref_eval7


def cards(text):
    return parse_cards(text)


class TestRealizedCategory:
    def test_matches_brute_force_percentile(self):
        board = cards("Jh8d3c2s")
        hole = cards("JdTd")
        got = realized_category(hole, BoardContext(board))
        from holdemlab.rangegrid import COMBO_CARDS, combos_with_any

        dead = combos_with_any(board)
        hv = ref_eval7(hole, board)
        less = ties = total = 0
        for idx in np.flatnonzero(~dead):
            c = [int(x) for x in COMBO_CARDS[idx]]
            v = ref_eval7(c, board)
            total += 1
            less += v < hv
            ties += v == hv
        q = (less + 0.5 * ties) / total
        assert got == int(np.floor(q * 9.0 + 0.5))

    def test_nut_hand_is_at_least_nuts(self):
        board = cards("9d5s2c2dKs")
        assert realized_category(cards("2h2s"), BoardContext(board)) >= 9


class TestSnapshots:
    def test_distribution_is_the_one_read_at_snapshot_time(self):
        """A snapshot keeps the categories it was read with, so a learning
        delta that lands after it does not move the distribution the
        showdown record computes from it."""
        from holdemlab.brain import Brain, DecisionContext
        from holdemlab.rets import rs_distribution

        rsm = RsmTable()
        brain = Brain(ProfileStore(), rsm_table=rsm, seed=1)
        hero, board, villain = cards("AhKh"), cards("Jh8d3c"), cards("JdTd")
        brain.begin_hand(1, hero, [("v1", "Fish")])
        brain.observe_villain_preflop("v1", "call")
        brain.observe_new_street(board)
        brain.observe_villain_action("v1", "bet")
        ctx = DecisionContext(
            hand_id=1, street="flop", hero_hole=tuple(hero), board=tuple(board), pot_bb=6.0, to_call_bb=3.0,
            min_raise_to_bb=6.0, hero_stack_bb=97.0, effective_stack_bb=97.0, spr=16.0, pot_odds=0.33,
            action_level=1.0, position="btn", in_position=True, hero_is_aggressor=False,
            legal=("fold", "call", "raise"), live_player_ids=("v1",), facing_allin=False,
        )
        ctx.board_ctx = BoardContext(board)
        brain.record_snapshot(ctx)
        (snap,) = brain.snapshots
        at_snapshot = rs_distribution(snap["read"].grid, ctx.board_ctx, rsm)
        version = rsm.version
        rsm.apply_delta(rsm.bucket_for(villain, ctx.board_ctx), -1.5)
        assert rsm.version > version
        assert not np.array_equal(rs_distribution(snap["read"].grid, ctx.board_ctx, rsm), at_snapshot)
        (rec,) = records_from_snapshots(brain.snapshots, {"v1": tuple(villain)}, tuple(hero), rsm)
        assert rec.distribution.tobytes() == at_snapshot.tobytes()


def synthetic_record(dist, realized, bucket, hole=None, board=None, pid="v", hand_id=1):
    board = board or tuple(cards("9d5s2c"))
    hole = hole or tuple(cards("8h7h"))
    return PredictionRecord(
        hand_id=hand_id,
        street="flop",
        board_ctx=BoardContext(board),
        player_id=pid,
        archetype="Whale",
        grid=ComboGrid.uniform().strip(board),
        distribution=np.asarray(dist, dtype=float),
        predicted_top=int(np.argmax(dist)),
        revealed_hole=tuple(hole),
        realized_category=realized,
        realized_beat_hero=False,
        bucket=bucket,
        in_support=True,
    )


class TestApplyLearning:
    def test_correct_prediction_small_reinforcement(self):
        rsm = RsmTable()
        hole, ctx = cards("Ah9c"), BoardContext(cards("9d5s2c"))
        bucket = rsm.bucket_for(hole, ctx)
        query = int(rsm.query(hole, ctx))
        dist = np.zeros(11)
        dist[query] = 0.6
        dist[max(0, query - 1)] += 0.4
        realized = query + 1 if query < 10 else query - 1
        dist2 = dist.copy()
        dist2[realized] = 0.7  # realized inside top-2
        rec = synthetic_record(dist2 / dist2.sum(), realized, bucket, hole=tuple(hole))
        events = apply_learning([rec], rsm)
        assert len(events) == 1
        assert events[0].reason == "reinforce"
        assert abs(events[0].delta) == DELTA_REINFORCE

    def test_wrong_prediction_larger_correction(self):
        rsm = RsmTable()
        hole, ctx = cards("Ah9c"), BoardContext(cards("9d5s2c"))
        bucket = rsm.bucket_for(hole, ctx)
        query = int(rsm.query(hole, ctx))
        dist = np.zeros(11)
        dist[0] = 0.6
        dist[1] = 0.4  # realized far outside top-2
        rec = synthetic_record(dist, min(10, query + 2), bucket, hole=tuple(hole))
        events = apply_learning([rec], rsm)
        assert events[0].reason == "correct"
        assert abs(events[0].delta) == DELTA_CORRECT
        assert DELTA_CORRECT > DELTA_REINFORCE

    def test_convergence_within_bound(self):
        """A deliberately mis-set bucket converges to the realized category
        within ceil(gap / corrective-delta) showdowns."""
        rules = RsmRules.shipped()
        hole, ctx = cards("Ah9c"), BoardContext(cards("9d5s2c"))
        probe = RsmTable(rules)
        bucket = probe.bucket_for(hole, ctx)
        realized = realized_category(hole, ctx)
        # mis-set the bucket's made-class one category below the truth
        made_name = bucket.split("|")[1]
        bad_rules = RsmRules(dict(rules.made_value), dict(rules.draw_value), dict(rules.adjustments))
        bad_rules.made_value[MadeClass[made_name]] = realized - 1.0
        rsm = RsmTable(bad_rules)
        assert int(rsm.query(hole, ctx)) == realized - 1
        dist = np.zeros(11)
        dist[0] = 1.0  # prediction always wrong -> corrective deltas
        bound = int(np.ceil(1.0 / DELTA_CORRECT))
        for i in range(bound):
            if int(rsm.query(hole, ctx)) == realized:
                break
            apply_learning([synthetic_record(dist, realized, bucket, hole=tuple(hole), hand_id=i)], rsm)
        assert int(rsm.query(hole, ctx)) == realized

    def test_all_correct_bounded_overlay(self):
        rsm = RsmTable()
        hole, ctx = cards("Ah9c"), BoardContext(cards("9d5s2c"))
        bucket = rsm.bucket_for(hole, ctx)
        query = int(rsm.query(hole, ctx))
        dist = np.zeros(11)
        dist[query] = 0.7
        dist[min(10, query + 1)] += 0.3
        n = 14
        recs = [
            synthetic_record(dist, min(10, query + 1), bucket, hole=tuple(hole), hand_id=i)
            for i in range(n)
        ]
        events = apply_learning(recs, rsm)
        assert all(e.reason == "reinforce" for e in events)
        assert abs(rsm.overlay_to_dict().get(bucket, 0.0)) <= n * DELTA_REINFORCE + 1e-12

    def test_range_miss_dispatches_to_profiles(self):
        rsm = RsmTable()
        store = ProfileStore()
        board = cards("9d5s2c")
        grid = parse_range_lines(["AA 1"]).strip(board)
        dist = np.zeros(11)
        dist[0] = 1.0
        rec = synthetic_record(dist, 2, "flop|NOTHING|NONE|dry", hole=tuple(cards("8h7h")))
        rec.grid = grid
        rec.in_support = False
        apply_learning([rec], rsm, store)
        assert store.player_class_multipliers["v"]  # widened


class TestFinancialInvariance:
    def test_won_and_lost_versions_produce_identical_deltas(self):
        """Same cards, same actions, different money: identical learning."""
        sc = load_scenario(resources.files("holdemlab").joinpath("data/hand6.scn"))
        res = run_scenario(sc)
        record = res.record
        rsm_a, rsm_b = RsmTable(), RsmTable()
        arch = {s.player_id: s.archetype for s in sc.seats if s.archetype != "hero"}
        recs_a = replay_with_perfect_info(record, HERO_ID if False else "hero", rsm_a, archetypes=arch)
        # flip the monetary outcome: pretend the pot went the other way
        import dataclasses

        flipped = dataclasses.replace(record, net={s: -v for s, v in record.net.items()})
        recs_b = replay_with_perfect_info(flipped, "hero", rsm_b, archetypes=arch)
        assert len(recs_a) == len(recs_b) > 0
        ev_a = apply_learning(recs_a, rsm_a)
        ev_b = apply_learning(recs_b, rsm_b)
        assert [(e.bucket, e.delta, e.reason) for e in ev_a] == [(e.bucket, e.delta, e.reason) for e in ev_b]


class TestReplayPerfectInfo:
    def _hand6(self):
        sc = load_scenario(resources.files("holdemlab").joinpath("data/hand6.scn"))
        res = run_scenario(sc)
        arch = {s.player_id: s.archetype for s in sc.seats if s.archetype != "hero"}
        return sc, res.record, arch

    def test_replay_is_deterministic(self):
        sc, record, arch = self._hand6()
        a = replay_with_perfect_info(record, "hero", RsmTable(), archetypes=arch)
        b = replay_with_perfect_info(record, "hero", RsmTable(), archetypes=arch)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra.bucket == rb.bucket
            assert ra.realized_category == rb.realized_category
            assert np.allclose(ra.distribution, rb.distribution)

    def test_hand6_whale_draw_realized_and_in_support(self):
        sc, record, arch = self._hand6()
        recs = replay_with_perfect_info(record, "hero", RsmTable(), archetypes=arch)
        turn_recs = [r for r in recs if r.street == "turn" and r.player_id == "whale_bb"]
        assert turn_recs, "expected a turn decision point against the whale"
        final = turn_recs[-1]
        assert final.revealed_hole == tuple(cards("4d3d"))
        assert final.in_support  # the final grid still contains the revealed combo
        assert final.bucket.split("|")[2] == "COMBO"  # busted-to-be combo draw

    def test_hand_without_showdown_yields_nothing(self):
        from holdemlab.table import HandRecord

        record = HandRecord(
            hand_id=1, table_id="t", button=0, sb_cents=1, bb_cents=2,
            seats=[(0, "hero", 200), (1, "v", 200)], holes={0: (0, 5), 1: (8, 12)},
            board=(), actions=[("preflop", 0, "raise", 6), ("preflop", 1, "fold", 0)],
            showdown=[], awards={0: 3}, rake_paid={}, net={0: 1, 1: -1}, saw_flop=False,
        )
        assert replay_with_perfect_info(record, "hero", RsmTable()) == []

    def test_replay_reproduces_the_live_records(self):
        """Replaying a session hand gives exactly the records the live
        snapshots gave: same order, bit-equal grids and distributions."""
        from holdemlab.brain import Brain

        def fields(rec):
            return (
                rec.hand_id, rec.street, rec.board_ctx.board, rec.player_id, rec.archetype,
                rec.grid.weights.tobytes(), rec.distribution.tobytes(), rec.predicted_top,
                rec.revealed_hole, rec.realized_category, rec.realized_beat_hero, rec.bucket, rec.in_support,
            )

        store = ProfileStore()
        rsm = RsmTable()
        brain = Brain(store, rsm_table=rsm, seed=2023)
        compared, differ = [], []

        def check(record):
            hero_seat = record.hero_seat_of(HERO_ID)
            if hero_seat not in dict(record.showdown) or len(record.showdown) < 2:
                return
            reveals = {record.player_of(s): h for s, h in record.showdown if s != hero_seat}
            live = records_from_snapshots(brain.snapshots, reveals, record.holes[hero_seat], rsm)
            # archetypes as the live brain read them, before this hand's events
            archetypes = {snap["read"].player_id: snap["read"].archetype for snap in brain.snapshots}
            replayed = replay_with_perfect_info(record, HERO_ID, rsm, archetypes=archetypes)
            compared.append(len(live))
            if [fields(r) for r in replayed] != [fields(r) for r in live]:
                differ.append(record.hand_id)

        run_fastfold_session(SessionConfig(hands=300, seed=2023, learning=False), brain=brain, store=store, on_record=check)
        assert len(compared) >= 15 and sum(compared) >= 30
        assert differ == []


class TestSessionLearning:
    def test_session_accumulates_overlay_without_money_inputs(self):
        cfg = SessionConfig(hands=300, seed=11, learning=True)
        store = ProfileStore()
        from holdemlab.brain import Brain

        rsm = RsmTable()
        brain = Brain(store, rsm_table=rsm, seed=cfg.seed)
        result = run_fastfold_session(cfg, brain=brain, store=store)
        assert result.learning_deltas > 0
        overlay = rsm.overlay_to_dict()
        assert overlay  # deltas landed in buckets
        assert all(abs(v) <= rsm.clamp for v in overlay.values())

    def test_learned_overlay_is_pinned(self):
        """The overlay a 2,000-hand seed-2023 session learns, as the profile
        snapshot writes it: 64 buckets after 430 deltas."""
        import hashlib
        import json

        from holdemlab.brain import Brain

        store, rsm = ProfileStore(), RsmTable()
        brain = Brain(store, rsm_table=rsm, seed=2023)
        run_fastfold_session(SessionConfig(hands=2000, seed=2023, learning=True), brain=brain, store=store)
        overlay = rsm.overlay_to_dict()
        assert (len(overlay), rsm.version) == (64, 430)
        digest = hashlib.sha256(json.dumps(overlay, sort_keys=True).encode()).hexdigest()
        assert digest == "dd80bf3134dc8a88a5c5f621d3aa07e6b7b87d73f7ac4ce58a1389ec1fe1d4b3"

    def test_showdown_records_carry_their_snapshots_context(self, monkeypatch):
        """Each record reads its board under the context its snapshot was
        taken with, the brain's own for the hand, so learning builds no
        BoardContext of its own."""
        from holdemlab import session
        from holdemlab.brain import Brain

        brain = Brain(ProfileStore(), seed=11)
        learned = []

        def no_build(self, board):
            raise AssertionError("apply_learning built a BoardContext")

        def learn(records, rsm, store=None):
            assert all(rec.board_ctx is brain.board_contexts[rec.board_ctx.board] for rec in records)
            learned.extend(records)
            with monkeypatch.context() as m:
                m.setattr(BoardContext, "__init__", no_build)
                return apply_learning(records, rsm, store)

        monkeypatch.setattr(session, "apply_learning", learn)
        result = run_fastfold_session(SessionConfig(hands=150, seed=11), brain=brain)
        assert len(learned) >= 10 and result.learning_deltas > 0

    def test_every_context_is_built_by_a_brains_hand(self, monkeypatch):
        """Every BoardContext that a session with learning, the replay of
        one of its showdowns and the shipped scenario build is built through
        `BoardContext.cached`, into a brain's contexts for the hand."""
        import sys

        from holdemlab.brain import Brain

        init, cached = BoardContext.__init__, BoardContext.cached.__func__.__code__
        builders = []

        def recording(self, board):
            builders.append(sys._getframe(1).f_code)
            init(self, board)

        monkeypatch.setattr(BoardContext, "__init__", recording)
        brain = Brain(ProfileStore(), seed=2023)
        showdowns = []

        def keep(record):
            if len(record.showdown) >= 2 and record.hero_seat_of(HERO_ID) in dict(record.showdown):
                showdowns.append(record)

        result = run_fastfold_session(SessionConfig(hands=1000, seed=2023, learning=True), brain=brain, on_record=keep)
        assert result.learning_deltas > 0 and showdowns
        built = len(builders)
        assert replay_with_perfect_info(showdowns[0], HERO_ID, RsmTable())
        assert len(builders) > built
        built = len(builders)
        assert not run_scenario(load_scenario(resources.files("holdemlab").joinpath("data/hand6.scn"))).failures
        assert len(builders) > built
        assert all(code is cached for code in builders)
