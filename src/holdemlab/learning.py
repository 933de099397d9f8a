"""Prediction-anchored learning from showdowns.

After a showdown the hand is re-run with perfect information: at every
post-flop decision point the system pairs the range snapshot it actually
held with the ground truth the reveal makes available. Predictions judged
correct (the realized category landed in the two highest-mass predicted
categories) earn a small reinforcement delta; misses earn a larger
corrective delta toward the realized category. The hand's monetary result
is not an input anywhere in this loop, so two hands with identical cards
and actions produce identical delta sets regardless of who won the pot.

Ground truth for the realized category is the revealed hand's standing
among all live opposing combos at that point (share beaten, ties half),
mapped onto the same 11-point scale. Range misses (a revealed hand the
final grid had at zero) are dispatched to the profiling layer, which
widens that player's pre-flop model substantially and the archetype's
model minusculely.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .profiles import ProfileStore
from .rangegrid import ComboGrid, PreflopContext, assign_preflop_range, combo_index
from .rets import RET, OpponentRangeTracker, RetDispatch, rs_distribution
from .rsm import BoardContext, RsmTable
from .table import HandRecord

DELTA_REINFORCE = 0.02
DELTA_CORRECT = 0.10


@dataclass
class PredictionRecord:
    """One decision point's prediction paired with its ground truth."""

    hand_id: int
    street: str
    board: tuple[int, ...]
    player_id: str
    archetype: str
    grid: ComboGrid
    distribution: np.ndarray
    chib: float | None
    predicted_top: int
    revealed_hole: tuple[int, int]
    realized_category: int
    realized_beat_hero: bool | None
    bucket: str
    in_support: bool


@dataclass
class DeltaEvent:
    bucket: str
    delta: float
    hand_id: int
    player_id: str
    reason: str  # "reinforce" / "correct"


def realized_category(hole: Sequence[int], board: Sequence[int], ctx: BoardContext | None = None) -> int:
    """Ground-truth category: the revealed hand's percentile among live
    opposing combos on this board, independent of the learned table."""
    ctx = ctx or BoardContext.cached(board)
    idx = combo_index(hole[0], hole[1])
    q = ctx.percentile[idx]
    cat = int(np.floor(q * 9.0 + 0.5))
    if ctx.scores[idx] == ctx.max_score:
        cat = max(cat, 9)
    return min(cat, 10)


def _top2(distribution: np.ndarray) -> tuple[int, int]:
    order = np.argsort(-distribution, kind="stable")
    return int(order[0]), int(order[1])


def records_from_snapshots(
    snapshots: Iterable[Mapping],
    reveals: Mapping[str, tuple[int, int]],
    hero_hole: tuple[int, int],
    rsm: RsmTable,
) -> list[PredictionRecord]:
    """Pair live decision-point snapshots (captured during play) with the
    showdown ground truth."""
    from .cards import hand_score

    out: list[PredictionRecord] = []
    ctx_cache: dict[tuple, BoardContext] = {}
    for snap in snapshots:
        pid = snap["player_id"]
        if pid not in reveals:
            continue
        board = tuple(snap["board"])
        if board not in ctx_cache:
            ctx_cache[board] = BoardContext.cached(board)
        ctx = ctx_cache[board]
        hole = reveals[pid]
        dist = snap["distribution"]
        top1, top2 = _top2(dist)
        realized = realized_category(hole, board, ctx)
        hero_score = hand_score(tuple(hero_hole) + board)
        vill_score = hand_score(tuple(hole) + board)
        out.append(
            PredictionRecord(
                hand_id=snap["hand_id"],
                street=snap["street"],
                board=board,
                player_id=pid,
                archetype=snap.get("archetype", "Unknown"),
                grid=snap["grid"],
                distribution=dist,
                chib=snap.get("chib"),
                predicted_top=top1,
                revealed_hole=hole,
                realized_category=realized,
                realized_beat_hero=vill_score > hero_score,
                bucket=rsm.bucket_for(hole, board, ctx),
                in_support=snap["grid"].weights[combo_index(*hole)] > 0,
            )
        )
    return out


def replay_with_perfect_info(
    record: HandRecord,
    hero_id: str,
    rsm: RsmTable,
    rets: Mapping[str, RET],
    dispatch: RetDispatch,
    store: ProfileStore | None = None,
    archetypes: Mapping[str, str] | None = None,
    library=None,
) -> list[PredictionRecord]:
    """Deterministically re-run the range pipeline over a finished hand and
    pair each hero decision point with the showdown ground truth. Players
    whose cards were never revealed are skipped."""
    hero_seat = record.hero_seat_of(hero_id)
    if hero_seat is None or not record.showdown:
        return []
    reveals = {record.player_of(seat): hole for seat, hole in record.showdown if seat != hero_seat}
    if not reveals:
        return []
    hero_hole = record.holes.get(hero_seat)
    if hero_hole is None:
        return []

    def archetype_of(pid: str) -> str:
        if archetypes and pid in archetypes:
            return archetypes[pid]
        if store is not None:
            return store.archetype_of(pid)
        return "Unknown"

    from .table import positions_for

    seat_player = {seat: pid for seat, pid, _ in record.seats}
    positions = positions_for(sorted(seat_player), record.button)

    trackers: dict[str, OpponentRangeTracker] = {}
    folded: set[str] = set()
    street_board = {"preflop": 0, "flop": 3, "turn": 4, "river": 5}
    cur_street = "preflop"
    ctx: BoardContext | None = None
    snapshots: list[dict] = []
    aggressor: str | None = None
    street_aggr: dict[str, str | None] = {}
    street_has_bet = False
    aggressor_acted: set[str] = set()

    for street, seat, action, committed in record.actions:
        pid = seat_player[seat]
        if street != cur_street:
            cur_street = street
            board = record.board[: street_board[street]]
            ctx = BoardContext.cached(board) if len(board) >= 3 else None
            street_has_bet = False
            aggressor_acted = set()
            if ctx is not None:
                for tracker in trackers.values():
                    if tracker.player_id not in folded:
                        tracker.on_new_street(board, ctx)
        if pid == hero_id:
            # A hero decision point: snapshot every live tracked villain.
            if ctx is not None:
                for tracker in trackers.values():
                    if tracker.player_id in folded or tracker.player_id not in reveals:
                        continue
                    dist = rs_distribution(tracker.grid, ctx.board, rsm, ctx)
                    try:
                        from .rets import chib as chib_fn

                        cb = chib_fn(hero_hole, tracker.grid, ctx.board, ctx)
                    except Exception:
                        cb = None
                    snapshots.append(
                        {
                            "hand_id": record.hand_id,
                            "street": street,
                            "board": tuple(ctx.board),
                            "player_id": tracker.player_id,
                            "archetype": tracker.archetype,
                            "grid": tracker.grid,
                            "distribution": dist,
                            "chib": cb,
                        }
                    )
        else:
            if street == "preflop":
                if action != "fold" and pid not in trackers:
                    arch = archetype_of(pid)
                    situation = "open" if action in ("bet", "raise", "allin") else "call"
                    grid = assign_preflop_range(arch, PreflopContext(positions.get(seat, "any"), situation), library=library)
                    tracker = OpponentRangeTracker(pid, arch, grid, rsm, rets, dispatch)
                    tracker.strip_dead(hero_hole)
                    trackers[pid] = tracker
            elif pid in trackers and pid not in folded and ctx is not None:
                name = action
                if action == "bet" and aggressor is not None and aggressor != pid and aggressor not in aggressor_acted and not street_has_bet:
                    name = "donk"
                agg_state = "hero_agg" if aggressor == hero_id else ("villain_agg" if aggressor else "none")
                trackers[pid].on_action(name, ctx.board, aggressor=agg_state, position="oop", ctx=ctx)
        if action == "fold":
            folded.add(pid)
        aggressor_acted.add(pid)
        if action in ("bet", "raise", "allin"):
            street_has_bet = True
            street_aggr[street] = pid
            aggressor = pid
    return records_from_snapshots(snapshots, reveals, hero_hole, rsm)


def apply_learning(
    records: Sequence[PredictionRecord],
    rsm: RsmTable,
    store: ProfileStore | None = None,
    *,
    delta_reinforce: float = DELTA_REINFORCE,
    delta_correct: float = DELTA_CORRECT,
    audit: bool = False,
) -> list[DeltaEvent]:
    """Turn prediction records into strength-table deltas (and range-model
    refinements). audit=True computes the deltas without applying anything,
    so re-running over the same log is idempotent."""
    if delta_correct <= delta_reinforce:
        raise ValueError("corrective delta must exceed the reinforcement delta")
    events: list[DeltaEvent] = []
    for rec in records:
        top1, top2 = _top2(rec.distribution)
        correct = rec.realized_category in (top1, top2)
        query_cat = int(rsm.query(rec.revealed_hole, rec.board))
        direction = float(np.sign(rec.realized_category - query_cat))
        magnitude = delta_reinforce if correct else delta_correct
        if direction != 0.0:
            events.append(
                DeltaEvent(
                    bucket=rec.bucket,
                    delta=direction * magnitude,
                    hand_id=rec.hand_id,
                    player_id=rec.player_id,
                    reason="reinforce" if correct else "correct",
                )
            )
    if not audit:
        for ev in events:
            try:
                rsm.apply_delta(ev.bucket, ev.delta)
            except ValueError:
                continue
    # Range misses: judge each revealed player once, on their final snapshot.
    if store is not None:
        final_by_player: dict[tuple[int, str], PredictionRecord] = {}
        for rec in records:
            final_by_player[(rec.hand_id, rec.player_id)] = rec
        for (hand_id, pid), rec in final_by_player.items():
            if not audit:
                store.showdown_refine(pid, rec.revealed_hole, rec.grid, rec.archetype)
    return events


def write_audit_log(events: Iterable[DeltaEvent], path: str) -> None:
    with open(path, "a", encoding="utf-8") as f:
        for ev in events:
            f.write(f"{ev.hand_id}\t{ev.player_id}\t{ev.bucket}\t{ev.delta:+.3f}\t{ev.reason}\n")
