"""Perfect-recall opponent memory: statistics, archetypes, and exploits.

Every witnessed action is appended to a per-store event log and folded into
per-player statistics incrementally; the incremental state always equals a
from-scratch recount of the log (the tests recount it). `save` writes the
log and a snapshot of the statistics and multipliers; nothing in the
program loads them back. Archetype classification is a pure
threshold lookup on (VPIP, AF). The exploit search fires configured rules
whose statistic clears its trigger with enough samples, with conviction
discounted for small samples. Showdown reveals refine per-player (and
faintly, per-archetype) pre-flop range multipliers.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping

from .events import ActionEvent, ActionType, Street
from .rangegrid import CLASS_OF_COMBO, ComboGrid, combo_index


class EventOrderError(ValueError):
    """Out-of-order event within a hand, or a hand id moving backwards."""


@dataclass
class _Counter:
    hits: int = 0
    opportunities: int = 0

    @property
    def rate(self) -> float:
        return self.hits / self.opportunities if self.opportunities else 0.0

    def add(self, hit: bool) -> None:
        self.opportunities += 1
        if hit:
            self.hits += 1

    def as_tuple(self) -> tuple[int, int]:
        return (self.hits, self.opportunities)


@dataclass
class PlayerStats:
    """Derived statistics with sample counts; all recomputable from the log."""

    hands: int = 0
    vpip: _Counter = field(default_factory=_Counter)
    pfr: _Counter = field(default_factory=_Counter)
    postflop_aggressive: int = 0
    postflop_calls: int = 0
    fold_to_cbet: dict[str, _Counter] = field(
        default_factory=lambda: {"flop": _Counter(), "turn": _Counter(), "river": _Counter()}
    )
    donk: _Counter = field(default_factory=_Counter)
    fold_to_steal: _Counter = field(default_factory=_Counter)
    wtsd: _Counter = field(default_factory=_Counter)

    @property
    def af(self) -> float:
        """Post-flop aggression factor: (bets + raises) / calls."""
        if self.postflop_calls == 0:
            return float(self.postflop_aggressive) if self.postflop_aggressive else 0.0
        return self.postflop_aggressive / self.postflop_calls

    def snapshot(self) -> dict:
        return {
            "hands": self.hands,
            "vpip": self.vpip.as_tuple(),
            "pfr": self.pfr.as_tuple(),
            "postflop_aggressive": self.postflop_aggressive,
            "postflop_calls": self.postflop_calls,
            "fold_to_cbet": {k: v.as_tuple() for k, v in self.fold_to_cbet.items()},
            "donk": self.donk.as_tuple(),
            "fold_to_steal": self.fold_to_steal.as_tuple(),
            "wtsd": self.wtsd.as_tuple(),
        }


# The (VPIP, AF) class bands: a conventional reading of the loose/aggro plane.
MIN_HANDS = 30
ROCK_VPIP = 0.15
TIGHT_VPIP = 0.25
MEDIUM_VPIP = 0.32
LOOSE_VPIP = 0.45
WHALE_VPIP = 0.60
PASSIVE_AF = 1.0
LAG_AF = 3.0


def classify(stats: PlayerStats) -> str:
    if stats.hands < MIN_HANDS:
        return "Unknown"
    vpip = stats.vpip.rate
    af = stats.af
    if vpip < ROCK_VPIP:
        return "Rock"
    if vpip < TIGHT_VPIP:
        return "TightReg"
    if vpip < LOOSE_VPIP:
        if af > LAG_AF:
            return "LAG"
        return "MediumReg" if vpip < MEDIUM_VPIP else "LooseReg"
    if af < PASSIVE_AF:
        return "Whale" if vpip >= WHALE_VPIP else "CallingStation"
    return "Fish"


MODELING_CAPABLE = frozenset({"Rock", "TightReg", "MediumReg", "LooseReg", "LAG"})


# ---------------------------------------------------------------------------
# Exploit rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exploit:
    target: str
    rule_id: str
    stat: str
    value: float
    threshold: float
    pattern: str
    conviction: float
    sample: int


@dataclass(frozen=True)
class ExploitRule:
    rule_id: str
    stat: str  # dotted path into PlayerStats
    threshold: float
    baseline: float  # population prior the deviation is scored against
    min_sample: int
    pattern: str
    direction: int = 1  # +1 fires when stat >= threshold, -1 when <=
    extra: tuple[tuple[str, float, int], ...] = ()  # (stat, threshold, direction)


DEFAULT_EXPLOIT_RULES: tuple[ExploitRule, ...] = (
    ExploitRule("double_barrel", "fold_to_cbet.turn", 0.70, 0.40, 20, "double-barrel bluff the turn"),
    ExploitRule("cbet_wide", "fold_to_cbet.flop", 0.65, 0.45, 20, "continuation-bet any two"),
    ExploitRule("steal_raise", "fold_to_steal", 0.75, 0.55, 20, "raise to steal the blinds"),
    ExploitRule(
        "value_thin",
        "vpip",
        0.55,
        0.30,
        20,
        "value bet thin, never bluff",
        extra=(("af", 1.0, -1),),
    ),
    ExploitRule("trap_aggro", "af", 4.0, 1.8, 20, "trap with strong hands, let them barrel"),
)


def _stat_value(stats: PlayerStats, path: str) -> tuple[float, int]:
    if path == "vpip":
        return stats.vpip.rate, stats.vpip.opportunities
    if path == "af":
        return stats.af, stats.postflop_aggressive + stats.postflop_calls
    if path == "fold_to_steal":
        return stats.fold_to_steal.rate, stats.fold_to_steal.opportunities
    if path.startswith("fold_to_cbet."):
        c = stats.fold_to_cbet[path.split(".", 1)[1]]
        return c.rate, c.opportunities
    raise KeyError(path)


def conviction_score(value: float, threshold: float, baseline: float, n: int, direction: int = 1) -> float:
    """Deviation score times a small-sample discount, capped at 0.95."""
    span = (threshold - baseline) * direction
    if span <= 0:
        return 0.0
    deviation = max(0.0, min(1.0, (value - baseline) * direction / span))
    discount = 1.0 - 1.0 / math.sqrt(max(n, 1))
    return min(0.95, deviation * discount)


# ---------------------------------------------------------------------------
# Per-hand stat derivation
# ---------------------------------------------------------------------------


class _HandTracker:
    """Folds one hand's event stream into stat updates as it arrives."""

    def __init__(self, hand_id: int):
        self.hand_id = hand_id
        self.players: set[str] = set()
        self.vpip_done: set[str] = set()
        self.vpip_hit: set[str] = set()
        self.pfr_done: set[str] = set()
        self.pfr_hit: set[str] = set()
        self.street = Street.PREFLOP
        self.aggressor: dict[Street, str | None] = {s: None for s in Street}
        self.street_has_bet = False
        self.street_actors_before_aggressor: set[str] = set()
        self.preflop_raises = 0
        self.preflop_first_raiser: str | None = None
        self.steal_situation = False
        self.saw_flop: set[str] = set()
        self.folded: set[str] = set()

    def cbet_street_aggressor(self) -> str | None:
        prev = Street(self.street - 1) if self.street > Street.PREFLOP else None
        return self.aggressor[prev] if prev is not None else None


class ProfileStore:
    """Single-writer store of events, stats, overlays, and range multipliers;
    archetypes by `classify`'s bands, exploits by DEFAULT_EXPLOIT_RULES."""

    def __init__(self):
        self.stats: dict[str, PlayerStats] = {}
        self.events: list[ActionEvent] = []
        self.reveals: list[tuple[int, str, str]] = []  # (hand_id, player_id, cards text)
        self.player_class_multipliers: dict[str, dict[int, float]] = {}
        self.archetype_class_multipliers: dict[str, dict[int, float]] = {}
        self._hand: _HandTracker | None = None
        self._last_hand_id = -1

    # -- event ingestion -----------------------------------------------------

    def _stats_for(self, player_id: str) -> PlayerStats:
        if player_id not in self.stats:
            self.stats[player_id] = PlayerStats()
        return self.stats[player_id]

    def record_event(self, event: ActionEvent) -> None:
        if event.hand_id < self._last_hand_id:
            raise EventOrderError(f"hand id {event.hand_id} after {self._last_hand_id}")
        if self._hand is None or event.hand_id != self._hand.hand_id:
            self._hand = _HandTracker(event.hand_id)
            self._last_hand_id = event.hand_id
        if event.street < self._hand.street:
            raise EventOrderError(f"street went backwards within hand {event.hand_id}")
        self.events.append(event)
        self._apply(event)

    def _apply(self, ev: ActionEvent) -> None:
        h = self._hand
        assert h is not None
        stats = self._stats_for(ev.player_id)
        if ev.player_id not in h.players:
            h.players.add(ev.player_id)
            stats.hands += 1

        if ev.street != h.street:
            # New street: players still in the hand saw it.
            if ev.street == Street.FLOP:
                h.saw_flop = set(h.players) - set(h.folded)
                for pid in h.saw_flop:
                    self._stats_for(pid).wtsd.opportunities += 1
            h.street = ev.street
            h.street_has_bet = False
            h.street_actors_before_aggressor = set()

        facing_bet = h.street_has_bet
        prev_aggressor = h.cbet_street_aggressor()

        if ev.street == Street.PREFLOP:
            voluntary = ev.action in (ActionType.CALL, ActionType.BET, ActionType.RAISE, ActionType.ALL_IN)
            raised = ev.action in (ActionType.RAISE, ActionType.ALL_IN)
            # First action opens the opportunity; a later voluntary action can
            # still flip the hit (big-blind check, then call of a raise).
            if ev.player_id not in h.vpip_done:
                h.vpip_done.add(ev.player_id)
                stats.vpip.add(voluntary)
                if voluntary:
                    h.vpip_hit.add(ev.player_id)
            elif voluntary and ev.player_id not in h.vpip_hit:
                h.vpip_hit.add(ev.player_id)
                stats.vpip.hits += 1
            if ev.player_id not in h.pfr_done:
                h.pfr_done.add(ev.player_id)
                stats.pfr.add(raised)
                if raised:
                    h.pfr_hit.add(ev.player_id)
            elif raised and ev.player_id not in h.pfr_hit:
                h.pfr_hit.add(ev.player_id)
                stats.pfr.hits += 1
            if ev.action in (ActionType.RAISE, ActionType.ALL_IN):
                h.preflop_raises += 1
                if h.preflop_first_raiser is None:
                    h.preflop_first_raiser = ev.player_id
                    h.steal_situation = ev.position in ("co", "btn", "sb")
            if h.steal_situation and h.preflop_raises == 1 and ev.position in ("sb", "bb"):
                if ev.player_id != h.preflop_first_raiser:
                    stats.fold_to_steal.add(ev.action == ActionType.FOLD)
        else:
            if ev.action in (ActionType.BET, ActionType.RAISE, ActionType.ALL_IN):
                stats.postflop_aggressive += 1
            elif ev.action == ActionType.CALL:
                stats.postflop_calls += 1
            # Donk: leading into the previous street's aggressor before they act.
            if (
                not facing_bet
                and prev_aggressor is not None
                and prev_aggressor != ev.player_id
                and prev_aggressor not in h.street_actors_before_aggressor
                and ev.player_id != prev_aggressor
            ):
                if ev.action in (ActionType.BET, ActionType.ALL_IN):
                    stats.donk.add(True)
                elif ev.action == ActionType.CHECK:
                    stats.donk.add(False)
            # Fold-to-cbet: facing the previous aggressor's continuation bet.
            if facing_bet and prev_aggressor is not None and h.aggressor[ev.street] == prev_aggressor:
                key = ev.street.key
                if key in stats.fold_to_cbet and ev.player_id != prev_aggressor:
                    stats.fold_to_cbet[key].add(ev.action == ActionType.FOLD)

        h.street_actors_before_aggressor.add(ev.player_id)
        if ev.action in (ActionType.BET, ActionType.RAISE, ActionType.ALL_IN):
            h.street_has_bet = True
            h.aggressor[ev.street] = ev.player_id
        if ev.action == ActionType.FOLD:
            h.folded.add(ev.player_id)

    def record_showdown(self, hand_id: int, player_id: str, cards_text: str) -> None:
        self.reveals.append((hand_id, player_id, cards_text))
        stats = self._stats_for(player_id)
        stats.wtsd.hits += 1
        # All-in runouts reach showdown without post-flop action events.
        if stats.wtsd.hits > stats.wtsd.opportunities:
            stats.wtsd.opportunities = stats.wtsd.hits

    def finish_hand(self) -> None:
        """Mark the current hand complete (idempotent)."""
        self._hand = None

    # -- queries ---------------------------------------------------------------

    def player_stats(self, player_id: str) -> PlayerStats:
        return self._stats_for(player_id)

    def archetype_of(self, player_id: str) -> str:
        return classify(self._stats_for(player_id))

    def search_exploits(self, player_id: str) -> list[Exploit]:
        stats = self._stats_for(player_id)
        found: list[Exploit] = []
        for rule in DEFAULT_EXPLOIT_RULES:
            value, n = _stat_value(stats, rule.stat)
            if n < rule.min_sample:
                continue
            if (value - rule.threshold) * rule.direction < 0:
                continue
            ok = True
            for extra_stat, extra_thr, extra_dir in rule.extra:
                ev, en = _stat_value(stats, extra_stat)
                if en < rule.min_sample or (ev - extra_thr) * extra_dir < 0:
                    ok = False
                    break
            if not ok:
                continue
            conviction = conviction_score(value, rule.threshold, rule.baseline, n, rule.direction)
            if conviction <= 0:
                continue
            found.append(
                Exploit(player_id, rule.rule_id, rule.stat, value, rule.threshold, rule.pattern, conviction, n)
            )
        found.sort(key=lambda e: (-e.conviction, e.rule_id))
        return found

    # -- showdown refinement ------------------------------------------------

    F_PLAYER = 1.5
    F_ARCH = 1.02
    F_REINFORCE = 1.05

    def class_multipliers_for(self, player_id: str, archetype: str) -> dict[int, float]:
        merged: dict[int, float] = dict(self.archetype_class_multipliers.get(archetype, {}))
        for cid, m in self.player_class_multipliers.get(player_id, {}).items():
            merged[cid] = merged.get(cid, 1.0) * m
        return merged

    def showdown_refine(self, player_id: str, revealed_hole, assigned_grid: ComboGrid, archetype: str) -> dict:
        """Compare a revealed hand with the grid the system held at showdown.
        Outside the support: widen that class substantially for the player and
        minusculely for the archetype. Inside: reinforce faintly. Multipliers
        compose multiplicatively, i.e. additively in log space."""
        idx = combo_index(revealed_hole[0], revealed_hole[1])
        cid = int(CLASS_OF_COMBO[idx])
        inside = assigned_grid.weights[idx] > 0
        pmult = self.player_class_multipliers.setdefault(player_id, {})
        if inside:
            pmult[cid] = pmult.get(cid, 1.0) * self.F_REINFORCE
        else:
            pmult[cid] = pmult.get(cid, 1.0) * self.F_PLAYER
            amult = self.archetype_class_multipliers.setdefault(archetype, {})
            amult[cid] = amult.get(cid, 1.0) * self.F_ARCH
        return {"player_id": player_id, "class_id": cid, "inside_support": bool(inside)}

    # -- persistence ----------------------------------------------------------

    def save(self, log_path: str, snapshot_path: str, rsm_overlay: Mapping[str, float] | None = None) -> None:
        with open(log_path, "w", encoding="utf-8") as f:
            f.write("# holdemlab event log v1\n")
            for ev in self.events:
                f.write(
                    "\t".join(
                        [
                            "act",
                            str(ev.hand_id),
                            ev.player_id,
                            ev.street.key,
                            ev.action.key,
                            f"{ev.amount_bb:.6g}",
                            f"{ev.pot_before_bb:.6g}",
                            ev.position,
                            f"{ev.timestamp:.6g}",
                        ]
                    )
                    + "\n"
                )
            for hand_id, pid, cards in self.reveals:
                f.write(f"reveal\t{hand_id}\t{pid}\t{cards}\n")
        snap = {
            "version": 1,
            "stats": {pid: s.snapshot() for pid, s in self.stats.items()},
            "player_class_multipliers": {
                pid: {str(k): v for k, v in m.items()} for pid, m in self.player_class_multipliers.items()
            },
            "archetype_class_multipliers": {
                a: {str(k): v for k, v in m.items()} for a, m in self.archetype_class_multipliers.items()
            },
            "rsm_overlay": dict(rsm_overlay or {}),
        }
        with open(snapshot_path, "w", encoding="utf-8") as f:
            json.dump(snap, f, indent=1, sort_keys=True)
