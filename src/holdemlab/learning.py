"""Prediction-anchored learning from showdowns.

At every post-flop decision the hero's brain keeps a snapshot of each
live range read (`Brain.record_snapshot`); after a showdown
`records_from_snapshots` pairs those snapshots with the ground truth the
reveal makes available. A finished hand can be re-run with perfect
information too: `replay_with_perfect_info` plays its record through the
engine under the hero's live observer, so it takes the snapshots a
session took. Predictions judged correct (the realized category landed in
the two highest-mass predicted categories) earn a small reinforcement
delta; misses earn a larger corrective delta toward the realized
category. The hand's monetary result is not an input anywhere in this
loop, so two hands with identical cards and actions produce identical
delta sets regardless of who won the pot.

Ground truth for the realized category is the revealed hand's standing
among all live opposing combos at that point (share beaten, ties half),
mapped onto the same 11-point scale. Range misses (a revealed hand the
final grid had at zero) are dispatched to the profiling layer, which
widens that player's pre-flop model substantially and the archetype's
model minusculely.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .brain import Brain
from .profiles import ProfileStore
from .rangegrid import ComboGrid, combo_index
from .rets import _category_mass
from .rsm import BoardContext, RsmTable
from .table import HandRecord, replay_hand

DELTA_REINFORCE = 0.02
DELTA_CORRECT = 0.10


@dataclass
class PredictionRecord:
    """One decision point's prediction paired with its ground truth."""

    hand_id: int
    street: str
    # The context the snapshot was read under: its board, and what
    # apply_learning queries without building it again.
    board_ctx: BoardContext = field(compare=False, repr=False)
    player_id: str
    archetype: str
    grid: ComboGrid
    distribution: np.ndarray
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


def realized_category(hole: Sequence[int], ctx: BoardContext) -> int:
    """Ground-truth category: the revealed hand's percentile among live
    opposing combos on `ctx`'s board, independent of the learned table."""
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
    showdown ground truth. A snapshot's grid is computed here, through its
    read, and its strength distribution from the grid and the categories
    it was read with."""
    out: list[PredictionRecord] = []
    for snap in snapshots:
        read = snap["read"]
        pid = read.player_id
        if pid not in reveals:
            continue
        ctx = read.board_ctx
        hole = reveals[pid]
        grid = read.grid
        dist = _category_mass(grid, snap["categories"])
        top1, top2 = _top2(dist)
        realized = realized_category(hole, ctx)
        # Both holdings are live on the board, so ctx.scores holds their scores.
        beat_hero = bool(ctx.scores[combo_index(*hole)] > ctx.scores[combo_index(*hero_hole)])
        out.append(
            PredictionRecord(
                hand_id=snap["hand_id"],
                street=snap["street"],
                board_ctx=ctx,
                player_id=pid,
                archetype=read.archetype,
                grid=grid,
                distribution=dist,
                predicted_top=top1,
                revealed_hole=hole,
                realized_category=realized,
                realized_beat_hero=beat_hero,
                bucket=rsm.bucket_for(hole, ctx),
                in_support=grid.weights[combo_index(*hole)] > 0,
            )
        )
    return out


def replay_with_perfect_info(
    record: HandRecord, hero_id: str, rsm: RsmTable, archetypes: Mapping[str, str] | None = None
) -> list[PredictionRecord]:
    """Re-run a finished hand through the engine and pair each range
    snapshot the hero took with the showdown ground truth.

    `table.replay_hand` plays the record while a `HeroSeatPolicy` over a
    fresh `Brain`, with a throwaway `ProfileStore`, observes it as it
    observes a live hand, reading the blinds and the betting state from the
    replaying engine. At each of the hero's scripted decisions the brain takes
    the snapshot `Brain.decide` takes, from `derive_context` of the same
    view, so the records equal those a live session pairs, in the same
    order. The brain reads the shipped templates. A villain's archetype
    comes from `archetypes`, else is "Unknown"; learned class multipliers
    are not applied. A decision the session timed out (`failure_rate`) took
    no live snapshot; the replay cannot tell which one that was and
    snapshots it. Players whose cards were never revealed are skipped."""
    # imported here because session imports this module
    from .session import HERO_ID, HeroSeatPolicy, derive_context

    hero_seat = record.hero_seat_of(hero_id)
    if hero_seat is None or not record.showdown:
        return []
    reveals = {record.player_of(seat): hole for seat, hole in record.showdown if seat != hero_seat}
    hero_hole = record.holes.get(hero_seat)
    if not reveals or hero_hole is None:
        return []
    if hero_id != HERO_ID:  # the observer knows the hero by the session's id
        if any(pid == HERO_ID for _, pid, _ in record.seats):
            raise ValueError(f"a villain is named {HERO_ID!r}")
        record = replace(record, seats=tuple([(s, HERO_ID if s == hero_seat else pid, st) for s, pid, st in record.seats]))

    archetypes = archetypes or {}
    brain = Brain(ProfileStore(), rsm_table=rsm)
    brain.begin_hand(record.hand_id, hero_hole, [(pid, archetypes.get(pid, "Unknown")) for s, pid, _ in record.seats if s != hero_seat])

    def snapshotting(scripted):
        def act(view):
            move = scripted(view)
            brain.record_snapshot(derive_context(view))
            return move

        return act

    replay_hand(record, HeroSeatPolicy(brain), {hero_seat: snapshotting})
    return records_from_snapshots(brain.snapshots, reveals, hero_hole, rsm)


def apply_learning(records: Sequence[PredictionRecord], rsm: RsmTable, store: ProfileStore | None = None) -> list[DeltaEvent]:
    """Turn prediction records into strength-table deltas, applied to
    `rsm`: DELTA_REINFORCE toward the realized category for a correct
    prediction, DELTA_CORRECT for a miss. With a `store`, each revealed
    player's final snapshot also refines their pre-flop range model."""
    events: list[DeltaEvent] = []
    for rec in records:
        top1, top2 = _top2(rec.distribution)
        correct = rec.realized_category in (top1, top2)
        query_cat = int(rsm.query(rec.revealed_hole, rec.board_ctx))
        direction = float(np.sign(rec.realized_category - query_cat))
        magnitude = DELTA_REINFORCE if correct else DELTA_CORRECT
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
    for ev in events:  # DELTA_CORRECT is within RsmTable.clamp, so none is refused
        rsm.apply_delta(ev.bucket, ev.delta)
    # Range misses: judge each revealed player once, on their final snapshot.
    if store is not None:
        final_by_player: dict[tuple[int, str], PredictionRecord] = {}
        for rec in records:
            final_by_player[(rec.hand_id, rec.player_id)] = rec
        for (_, pid), rec in final_by_player.items():
            store.showdown_refine(pid, rec.revealed_hole, rec.grid, rec.archetype)
    return events
