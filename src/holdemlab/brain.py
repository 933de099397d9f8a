"""The decision layer: style control, baseline strategy, targeted exploits,
level-2 deception, and final arbitration.

Four voices feed one arbiter. The baseline engine (GA) plays sound poker
from required-strength curves: the cheaper the call, the weaker a hand may
continue; the heavier the action, the stronger it must be. The exploit
engine (SAD) fires high-conviction lines at profiled weaknesses. The
deception engine (Lawnmower) models how a thinking opponent reads the
hero's own line and occasionally tells a deliberate lie with it. The
master arbiter (MA) scores every recommendation by conviction times a
source weight and picks the winner; past financial results are never an
input.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .cards import DealRng, UndefinedRangeError, cards_str, equity_vs_range
from .events import ActionType
from .preflop import combo_percentile
from .profiles import MODELING_CAPABLE, ProfileStore
from .rangegrid import ComboGrid, assign_preflop_range, combo_index
from .rets import (
    DegenerateRangeError,
    OpponentRangeTracker,
    PipelineStep,
    RetDispatch,
    chib,
    load_ret_set,
    reshape,
    rs_distribution,
)
from .rsm import BoardContext, DrawTier, RsCategory, RsmTable


@dataclass(frozen=True)
class Recommendation:
    action: ActionType
    size_bb: float  # bet amount or raise-to total, 0 for non-bets
    conviction: float
    source: str  # GA / SAD / Lawnmower
    rationale: str

    def __post_init__(self):
        if (self.size_bb > 0) != (self.action in (ActionType.BET, ActionType.RAISE)):
            raise ValueError("size must be positive exactly for bet/raise")
        if not (0.0 <= self.conviction <= 1.0):
            raise ValueError("conviction out of bounds")


@dataclass
class StyleState:
    """Per-hand style: a perturbed TMAG baseline plus the rare tilt
    camouflage mode."""

    vpip_delta: float
    aggr_delta: float
    mode: str  # normal / tilt_camouflage
    bad_beat_streak: int


@dataclass(frozen=True)
class OpponentRead:
    """One live opponent at a decision: the tracker's step that holds the
    range at the decision, and the hero's cards and the street's context.
    The grid is computed from the step, and ChiB from the grid, on first
    read, since only equity estimates, showdown learning and scenarios
    read them."""

    player_id: str
    archetype: str
    step: PipelineStep | None = field(repr=False, compare=False)
    hero: tuple[int, int] | None = None
    board_ctx: BoardContext | None = field(default=None, repr=False, compare=False)

    @property
    def grid(self) -> ComboGrid | None:
        return None if self.step is None else self.step.grid

    @functools.cached_property
    def chib(self) -> float | None:
        """`rets.chib` of the hero against the grid; None without a range or
        against a range with no live combos."""
        if self.step is None or self.board_ctx is None:
            return None
        try:
            return chib(self.hero, self.step.grid, self.board_ctx)
        except DegenerateRangeError:
            return None


@dataclass
class DecisionContext:
    """Everything a decision needs. Deliberately carries no bankroll or
    session-results field; the decision layer cannot see money won."""

    hand_id: int
    street: str  # preflop/flop/turn/river
    hero_hole: tuple[int, int]
    board: tuple[int, ...]
    pot_bb: float
    to_call_bb: float
    min_raise_to_bb: float
    hero_stack_bb: float
    effective_stack_bb: float
    spr: float
    pot_odds: float  # to_call / (pot + to_call); 0 when nothing to call
    action_level: float  # accumulated raise pressure this hand
    position: str
    in_position: bool
    hero_is_aggressor: bool
    legal: tuple[str, ...]
    live_player_ids: tuple[str, ...]
    num_limpers: int = 0
    facing_allin: bool = False
    opponents: list[OpponentRead] = field(default_factory=list)
    board_ctx: BoardContext | None = None


# Required relative strength to call, keyed by pot-odds fraction
# to_call/(pot+to_call): cheap calls demand little, expensive ones a lot.
CALL_CURVE: tuple[tuple[float, int], ...] = (
    (0.08, 1),
    (0.15, 2),
    (0.25, 3),
    (0.33, 4),
    (0.42, 5),
    (0.55, 6),
    (2.0, 7),
)
# Required strength to continue, keyed by accumulated betting pressure.
CONTINUE_CURVE: tuple[tuple[float, int], ...] = (
    (0.75, 0),
    (1.5, 3),
    (2.5, 5),
    (3.5, 6),
    (5.0, 7),
    (float("inf"), 8),
)
VALUE_BET_RS = 6
VALUE_RAISE_MARGIN = 2
EV_EPSILON_BB = 0.25
# The arbiter's premium per source; an exploit source earns it only at or
# above EXPLOIT_THRESHOLD conviction.
SOURCE_WEIGHTS = {"GA": 1.0, "SAD": 1.3, "Lawnmower": 1.1}
EXPLOIT_THRESHOLD = 0.7
SPR_COMMIT = 1.5
BET_SIZES_POT = (0.33, 0.5, 0.75, 1.0)
BIG_BLIND_BB = 1.0  # sizes are in big blinds; no bet is smaller than one
# HAA perturbation bounds and the camouflage trigger
VPIP_JITTER = 0.03
AGGR_JITTER = 0.15
TILT_TRIGGER_BAD_BEATS = 3
# hero baseline pre-flop chart (fraction of hands opened per position)
OPEN_PCT = {"utg": 0.13, "hj": 0.16, "co": 0.23, "btn": 0.31, "sb": 0.27, "bb": 0.30}
THREEBET_PCT = 0.045
CALL_VS_RAISE_PCT = 0.11
BB_DEFEND_PCT = 0.32
CONTINUE_VS_THREEBET_PCT = 0.05
# sampled-equity budget per decision
EQUITY_COMBO_SAMPLES = 40
EQUITY_RUNOUT_SAMPLES = 40


_DRAW_OUTS = {DrawTier.NONE: 0.0, DrawTier.WEAK: 4.0, DrawTier.STRONG: 8.5, DrawTier.COMBO: 12.0}


def required_strength(curve: Sequence[tuple[float, float]], x: float) -> int:
    for upper, req in curve:
        if x < upper:
            return int(req)
    return int(curve[-1][1])


class Brain:
    """One table's strategist. Holds per-opponent range trackers, perceived
    hero ranges for modeling-capable archetypes, the style state, and a
    seeded RNG; a fixed seed replays every decision identically. Its
    templates are the shipped ones (`load_ret_set`, `RetDispatch.shipped`)."""

    def __init__(
        self,
        store: ProfileStore,
        rsm_table: RsmTable | None = None,
        seed: int = 0,
        trace: bool = False,
    ):
        self.store = store
        self.rsm = rsm_table or RsmTable()
        self.rets = load_ret_set()
        self.dispatch = RetDispatch.shipped(self.rets)
        self.rng = DealRng(seed, stream=7)
        self.style = StyleState(0.0, 0.0, "normal", 0)
        self.trace = trace
        self.trace_lines: list[str] = []
        self._declared: dict[str, str] = {}
        self.reset_hand_state()

    # ------------------------------------------------------------------ hand

    def reset_hand_state(self) -> None:
        self.trackers: dict[str, OpponentRangeTracker] = {}
        self.perceived: dict[str, ComboGrid] = {}
        self.folded: set[str] = set()
        self.hero_hole: tuple[int, int] | None = None
        self.snapshots: list[dict] = []
        # This hand's board contexts, by board: at most one per street.
        self.board_contexts: dict[tuple[int, ...], BoardContext] = {}
        self._board_ctx: BoardContext | None = None

    def begin_hand(
        self,
        hand_id: int,
        hero_hole: Sequence[int],
        opponents: Sequence[tuple[str, str | None]],
        *,
        bad_beat_last_hand: bool = False,
    ) -> StyleState:
        """Start-of-hand housekeeping plus the style pass: draw a bounded
        perturbation of the baseline and enter/leave tilt camouflage. Mode
        changes happen only here, never mid-hand."""
        self.reset_hand_state()
        self.hand_id = hand_id
        self.hero_hole = (hero_hole[0], hero_hole[1])
        streak = self.style.bad_beat_streak + 1 if bad_beat_last_hand else 0
        mode = "tilt_camouflage" if streak >= TILT_TRIGGER_BAD_BEATS else "normal"
        vpip_delta = (self.rng.random() * 2 - 1) * VPIP_JITTER
        aggr_delta = (self.rng.random() * 2 - 1) * AGGR_JITTER
        if mode == "tilt_camouflage":
            vpip_delta += 0.08
            aggr_delta += 0.8
        self.style = StyleState(vpip_delta, aggr_delta, mode, streak)
        self._declared = {pid: arch for pid, arch in opponents if arch}
        return self.style

    def archetype_of(self, player_id: str) -> str:
        if player_id in self._declared:
            return self._declared[player_id]
        return self.store.archetype_of(player_id)

    # --------------------------------------------------------------- observe

    def observe_villain_preflop(self, player_id: str, action: str) -> None:
        """First voluntary pre-flop action creates the range tracker; a fold marks the player folded."""
        if action == "fold":
            self.folded.add(player_id)
        if player_id in self.trackers or action == "fold":
            return
        archetype = self.archetype_of(player_id)
        situation = {"bet": "open", "raise": "open", "allin": "threebet", "threebet": "threebet"}.get(
            action, "call" if action != "check" else "check"
        )
        mults = self.store.class_multipliers_for(player_id, archetype)
        grid = assign_preflop_range(archetype, situation, class_multipliers=mults or None)
        tracker = OpponentRangeTracker(player_id, archetype, grid, self.rsm, self.rets, self.dispatch)
        if self.hero_hole:
            tracker.strip_hero(self.hero_hole)
        self.trackers[player_id] = tracker

    def observe_new_street(self, board: Sequence[int]) -> None:
        self._board_ctx = BoardContext.cached(board, self.board_contexts)
        for pid, tracker in self.trackers.items():
            if pid not in self.folded:
                tracker.on_new_street(self._board_ctx)
        for arch in list(self.perceived):
            self.perceived[arch] = self.perceived[arch].strip_mask(self._board_ctx.dead_mask)

    def observe_villain_action(
        self, player_id: str, action: str, *, aggressor: str = "none", position: str = "oop"
    ) -> str | None:
        if action == "fold":
            self.folded.add(player_id)
            return None
        tracker = self.trackers.get(player_id)
        if tracker is None or self._board_ctx is None or player_id in self.folded:
            return None
        step = tracker.on_action(action, self._board_ctx, aggressor=aggressor, position=position)
        return step.ret_id

    def observe_hero_action(self, action: str, street: str) -> None:
        """Maintain perceived hero ranges: apply the villain-perspective
        template for hero's public action, per modeling-capable archetype.
        A thinking villain models the hero as a solid regular."""
        if street == "preflop":
            situation = {"bet": "open", "raise": "open", "allin": "open", "call": "call"}.get(action)
            for arch in {self.archetype_of(pid) for pid in self.trackers} & MODELING_CAPABLE:
                if arch not in self.perceived and situation:
                    self.perceived[arch] = assign_preflop_range("MediumReg", situation)
            return
        if self._board_ctx is None:
            return
        ret_id = {
            "check": "VPCHECK",
            "call": "VPCALL",
            "bet": "VPBET",
            "donk": "VPBET",
            "raise": "VPRAISE",
            "allin": "VPRAISE",
        }.get(action)
        if ret_id is None or ret_id not in self.rets:
            return
        categories = self.rsm.categories_many(self._board_ctx)
        for arch, grid in self.perceived.items():
            self.perceived[arch] = reshape(grid, self.rets[ret_id], categories)

    # ---------------------------------------------------------------- decide

    def _reads_for(self, ctx: DecisionContext) -> list[OpponentRead]:
        reads = []
        for pid in ctx.live_player_ids:
            tracker = self.trackers.get(pid)
            if tracker is None or ctx.board_ctx is None:
                reads.append(OpponentRead(pid, self.archetype_of(pid), None))
            else:
                reads.append(OpponentRead(pid, tracker.archetype, tracker.current, ctx.hero_hole, ctx.board_ctx))
        return reads

    def decide(self, ctx: DecisionContext) -> Recommendation:
        self._ensure_reads(ctx)
        if ctx.street == "preflop":
            recs = [self._ga_preflop(ctx)]
            sad = self._sad_preflop(ctx)
            if sad:
                recs.append(sad)
        else:
            recs = [self.ga_recommend(ctx)]
            sad = self._sad_postflop(ctx)
            if sad:
                recs.append(sad)
            lawn = self.lawnmower_recommend(ctx)
            if lawn:
                recs.append(lawn)
        final = self.ma_decide(recs, ctx)
        self.record_snapshot(ctx)
        if self.trace:
            opts = "; ".join(f"{r.source}:{r.action.key}{f'({r.size_bb:g})' if r.size_bb else ''}@{r.conviction:.2f}" for r in recs)
            self.trace_lines.append(
                f"hand={ctx.hand_id} {ctx.street} pot={ctx.pot_bb:g} call={ctx.to_call_bb:g} "
                f"[{opts}] -> {final.action.key}{f'({final.size_bb:g})' if final.size_bb else ''} [{final.source}] {final.rationale}"
            )
        return final

    # -- GA ------------------------------------------------------------------

    def _hero_rs(self, ctx: DecisionContext) -> RsCategory:
        assert ctx.board_ctx is not None
        return self.rsm.query(ctx.hero_hole, ctx.board_ctx)

    def _hero_draw(self, ctx: DecisionContext) -> DrawTier:
        assert ctx.board_ctx is not None
        idx = combo_index(*ctx.hero_hole)
        return DrawTier(int(ctx.board_ctx.draw[idx]))

    def _equity_estimate(self, ctx: DecisionContext) -> float:
        """Sampled equity against the primary live read; falls back to a
        ChiB-based proxy when no grid exists."""
        ranged = [r for r in ctx.opponents if r.step is not None]
        if not ranged:
            return 0.5
        primary = max(ranged, key=lambda r: r.chib if r.chib is not None else 0.0)
        try:
            return equity_vs_range(
                ctx.hero_hole,
                primary.grid.weights,
                ctx.board_ctx,
                combo_samples=EQUITY_COMBO_SAMPLES,
                runout_samples=EQUITY_RUNOUT_SAMPLES,
                rng=self.rng,
            )
        except UndefinedRangeError:
            return max(0.0, 1.0 - (primary.chib or 0.5))

    def _fold_equity(self, ctx: DecisionContext) -> float:
        """Chance everyone folds to a bet, from profiled fold-to-cbet stats."""
        fe = 1.0
        for read in ctx.opponents:
            stats = self.store.player_stats(read.player_id)
            ctr = stats.fold_to_cbet.get(ctx.street)
            fe *= ctr.rate if ctr is not None and ctr.opportunities >= 10 else 0.45
        return fe

    def _size_from_menu(self, ctx: DecisionContext, pot_fraction: float) -> float:
        pick = min(BET_SIZES_POT, key=lambda m: abs(m - pot_fraction))
        return max(BIG_BLIND_BB, round(pick * ctx.pot_bb, 2))

    def _ensure_reads(self, ctx: DecisionContext) -> None:
        """Give a decision the street's BoardContext and its live reads;
        a post-flop context read on another board than the decision's is
        refused."""
        ctx.board_ctx = ctx.board_ctx or self._board_ctx
        if ctx.street != "preflop" and ctx.board_ctx is not None and ctx.board_ctx.board != tuple(ctx.board):
            raise ValueError(
                f"deciding on board {cards_str(ctx.board)} with the context of {cards_str(ctx.board_ctx.board)}"
            )
        if not ctx.opponents and ctx.live_player_ids:
            ctx.opponents = self._reads_for(ctx)

    def ga_recommend(self, ctx: DecisionContext) -> Recommendation:
        """Baseline post-flop line from the two required-strength curves,
        with a seeded coin flip when betting and checking have near-equal
        expected value."""
        self._ensure_reads(ctx)
        rs = int(self._hero_rs(ctx))
        req_call = required_strength(CALL_CURVE, ctx.pot_odds) if ctx.to_call_bb > 0 else 0
        req_cont = required_strength(CONTINUE_CURVE, ctx.action_level)
        req = max(req_call, req_cont)
        aggr = self.style.aggr_delta

        if ctx.to_call_bb > 0:
            if (
                rs >= max(min(10, req + VALUE_RAISE_MARGIN), VALUE_BET_RS)
                and "raise" in ctx.legal
                and not ctx.facing_allin
            ):
                raise_to = min(
                    ctx.hero_stack_bb,
                    max(ctx.min_raise_to_bb, round(ctx.to_call_bb * 3 + ctx.pot_bb * 0.35, 2)),
                )
                conviction = min(0.85, 0.5 + 0.06 * (rs - req) + 0.05 * aggr)
                return Recommendation(ActionType.RAISE, raise_to, conviction, "GA", f"value raise: rS {rs} over {req}")
            if rs >= req:
                return Recommendation(
                    ActionType.CALL, 0.0, min(0.8, 0.5 + 0.04 * (rs - req)), "GA", f"call: rS {rs} meets {req}"
                )
            draw = self._hero_draw(ctx)
            outs = _DRAW_OUTS[draw]
            streets_left = 2 if ctx.street == "flop" else 1
            draw_equity = min(0.45, outs * 0.02 * streets_left + 0.02 * streets_left)
            if outs > 0 and draw_equity > ctx.pot_odds:
                return Recommendation(
                    ActionType.CALL, 0.0, 0.45, "GA", f"draw price: {outs:g} outs vs pO {ctx.pot_odds:.2f}"
                )
            return Recommendation(
                ActionType.FOLD, 0.0, min(0.9, 0.5 + 0.05 * (req - rs)), "GA", f"fold: rS {rs} under {req}"
            )

        # Unopened: value bet, or check; near-equal EVs flip a seeded coin.
        if rs >= VALUE_BET_RS or (rs >= 4 and aggr > 0.4):
            eq = self._equity_estimate(ctx)
            fe = self._fold_equity(ctx)
            frac = 0.5 if rs < 8 else 0.75
            bet = self._size_from_menu(ctx, frac + 0.1 * aggr)
            ev_bet = fe * ctx.pot_bb + (1 - fe) * (eq * (ctx.pot_bb + 2 * bet) - bet)
            ev_check = eq * ctx.pot_bb
            if abs(ev_bet - ev_check) < EV_EPSILON_BB:
                if self.rng.random() < 0.5:
                    return Recommendation(ActionType.BET, bet, 0.5, "GA", "coin flip: EVs within epsilon")
                return Recommendation(ActionType.CHECK, 0.0, 0.5, "GA", "coin flip: EVs within epsilon")
            if ev_bet > ev_check:
                return Recommendation(
                    ActionType.BET, bet, min(0.8, 0.5 + 0.05 * (rs - req)), "GA", f"value bet: rS {rs}"
                )
        return Recommendation(ActionType.CHECK, 0.0, 0.5, "GA", f"check: rS {rs}")

    def _ga_preflop(self, ctx: DecisionContext) -> Recommendation:
        pct = combo_percentile(*ctx.hero_hole)
        vdelta = self.style.vpip_delta
        raised = ctx.to_call_bb > 0 and ctx.pot_bb > 2.6  # beyond blind-vs-blind limp pots
        if not raised:
            threshold = OPEN_PCT.get(ctx.position, 0.2) + vdelta
            if pct < threshold:
                size = min(ctx.hero_stack_bb, 3.0 + ctx.num_limpers)
                return Recommendation(ActionType.RAISE, size, 0.6, "GA", f"open {ctx.position}: pct {pct:.2f}")
            if ctx.position == "bb" and ctx.to_call_bb <= 0:
                return Recommendation(ActionType.CHECK, 0.0, 0.6, "GA", "free play")
            if ctx.position in ("sb", "bb") and ctx.to_call_bb <= 0.5 and pct < BB_DEFEND_PCT + vdelta:
                return Recommendation(ActionType.CALL, 0.0, 0.5, "GA", "complete")
            return Recommendation(ActionType.FOLD, 0.0, 0.7, "GA", f"below chart: pct {pct:.2f}")
        # Facing a raise (or more)
        if ctx.action_level >= 4.0 or ctx.facing_allin:
            if pct < 0.02:
                return Recommendation(ActionType.CALL, 0.0, 0.8, "GA", "premium vs heavy action")
            if pct < CONTINUE_VS_THREEBET_PCT and ctx.pot_odds < 0.4:
                return Recommendation(ActionType.CALL, 0.0, 0.55, "GA", "continue vs pressure")
            return Recommendation(ActionType.FOLD, 0.0, 0.8, "GA", "heavy action")
        if pct < THREEBET_PCT:
            size = min(ctx.hero_stack_bb, max(ctx.min_raise_to_bb, round(3 * (ctx.to_call_bb + ctx.pot_bb * 0.4), 1)))
            return Recommendation(ActionType.RAISE, size, 0.7, "GA", f"reraise: pct {pct:.2f}")
        defend = BB_DEFEND_PCT if ctx.position == "bb" else CALL_VS_RAISE_PCT
        if pct < defend + vdelta and ctx.pot_odds < 0.45:
            return Recommendation(ActionType.CALL, 0.0, 0.55, "GA", f"flat: pct {pct:.2f}")
        return Recommendation(ActionType.FOLD, 0.0, 0.7, "GA", "out of range vs raise")

    # -- SAD -------------------------------------------------------------------

    def _sad_preflop(self, ctx: DecisionContext) -> Recommendation | None:
        if ctx.to_call_bb > 0 and ctx.pot_bb > 2.6:
            return None
        if ctx.position not in ("co", "btn", "sb"):
            return None
        blinds = [r for r in ctx.opponents]
        if not blinds:
            return None
        convictions = []
        for read in blinds:
            for e in self.store.search_exploits(read.player_id):
                if e.rule_id == "steal_raise":
                    convictions.append(e.conviction)
        if not convictions:
            return None
        conviction = min(c for c in convictions)
        if conviction < EXPLOIT_THRESHOLD:
            return None
        size = min(ctx.hero_stack_bb, 2.5)
        return Recommendation(ActionType.RAISE, size, conviction, "SAD", "steal: blinds overfold")

    def _sad_postflop(self, ctx: DecisionContext) -> Recommendation | None:
        self._ensure_reads(ctx)
        rs = int(self._hero_rs(ctx))
        best: Recommendation | None = None
        for read in ctx.opponents:
            for e in self.store.search_exploits(read.player_id):
                rec: Recommendation | None = None
                if e.rule_id == "double_barrel" and ctx.street == "turn" and ctx.hero_is_aggressor and ctx.to_call_bb == 0:
                    rec = Recommendation(
                        ActionType.BET,
                        self._size_from_menu(ctx, 0.66),
                        e.conviction,
                        "SAD",
                        f"double barrel: {read.player_id} folds turns {e.value:.0%}",
                    )
                elif e.rule_id == "cbet_wide" and ctx.street == "flop" and ctx.hero_is_aggressor and ctx.to_call_bb == 0:
                    rec = Recommendation(
                        ActionType.BET,
                        self._size_from_menu(ctx, 0.5),
                        e.conviction,
                        "SAD",
                        f"auto c-bet: {read.player_id} overfolds flops",
                    )
                elif e.rule_id == "value_thin" and rs >= 4:
                    if ctx.to_call_bb == 0:
                        rec = Recommendation(
                            ActionType.BET,
                            self._size_from_menu(ctx, 0.5),
                            e.conviction,
                            "SAD",
                            f"thin value vs station {read.player_id}",
                        )
                    elif rs >= 6 and "raise" in ctx.legal and not ctx.facing_allin:
                        raise_to = min(ctx.hero_stack_bb, max(ctx.min_raise_to_bb, round(ctx.to_call_bb * 3.5, 2)))
                        rec = Recommendation(
                            ActionType.RAISE,
                            raise_to,
                            e.conviction,
                            "SAD",
                            f"pot-commit the station {read.player_id}",
                        )
                elif e.rule_id == "trap_aggro" and rs >= 8 and ctx.to_call_bb > 0:
                    rec = Recommendation(
                        ActionType.CALL, 0.0, e.conviction, "SAD", f"trap: let {read.player_id} keep barreling"
                    )
                if rec and (best is None or rec.conviction > best.conviction):
                    best = rec
        return best

    # -- Lawnmower ---------------------------------------------------------------

    def _perceived_strong_mass(self, grid: ComboGrid, ctx: DecisionContext) -> float:
        """Mass of the hero's perceived range at Good or better: how credible
        a strength story the hero's public line currently tells."""
        dist = rs_distribution(grid, ctx.board_ctx, self.rsm)
        return float(dist[5:].sum())

    def lawnmower_recommend(self, ctx: DecisionContext) -> Recommendation | None:
        """Level-2 lines: bluff when the hero's own story looks strong and the
        victim can both read it and fold; slow-play monsters when the story
        already looks scary. Non-modeling opponents are someone else's job."""
        self._ensure_reads(ctx)
        rs = int(self._hero_rs(ctx))
        for read in ctx.opponents:
            if read.archetype not in MODELING_CAPABLE:
                continue
            grid = self.perceived.get(read.archetype)
            if grid is None or ctx.board_ctx is None:
                continue
            stats = self.store.player_stats(read.player_id)
            fold_stat = stats.fold_to_cbet.get(ctx.street)
            folds_enough = fold_stat is not None and fold_stat.opportunities >= 10 and fold_stat.rate >= 0.6
            # A think-time draw, kept though nothing reads it: it advances the
            # brain's stream, and removing it would change every later draw
            # (ROADMAP: common random numbers).
            self.rng.randint(1200)
            if 2 < rs < 9:
                continue  # neither a story bluff nor a slow-play: no story to read
            strong_mass = self._perceived_strong_mass(grid, ctx)
            if rs <= 2 and strong_mass >= 0.15 and folds_enough and ctx.to_call_bb == 0 and ctx.street in ("turn", "river"):
                return Recommendation(
                    ActionType.BET,
                    self._size_from_menu(ctx, 0.75),
                    min(0.9, 0.55 + strong_mass * 0.6),
                    "Lawnmower",
                    f"story bluff: perceived strong {strong_mass:.0%}, {read.player_id} folds {fold_stat.rate:.0%}",
                )
            if rs >= 9 and strong_mass >= 0.35 and ctx.to_call_bb == 0:
                return Recommendation(
                    ActionType.CHECK,
                    0.0,
                    0.75,
                    "Lawnmower",
                    f"slow-play: perceived range already strong ({strong_mass:.0%})",
                )
        return None

    # -- MA --------------------------------------------------------------------

    def ma_decide(self, recs: Sequence[Recommendation], ctx: DecisionContext) -> Recommendation:
        """Final arbiter: conviction times source weight, exploit sources only
        earning their premium above the conviction threshold; argmax with a
        seeded tiebreak, then sizing sanity and commit-or-fold under low SPR."""
        if not recs:
            raise ValueError("the baseline engine always emits a recommendation")

        def score(r: Recommendation) -> float:
            w = SOURCE_WEIGHTS.get(r.source, 1.0)
            if r.source != "GA" and r.conviction < EXPLOIT_THRESHOLD:
                w = 1.0
            return r.conviction * w

        scores = [score(r) for r in recs]
        best = max(scores)
        tied = [r for r, s in zip(recs, scores) if abs(s - best) < 1e-12]
        chosen = tied[0] if len(tied) == 1 else tied[self.rng.randint(len(tied))]
        chosen = self._legalize(chosen, ctx)
        if ctx.spr < SPR_COMMIT and chosen.action in (ActionType.BET, ActionType.RAISE):
            # Committed: stop leaving chips behind.
            chosen = replace(chosen, size_bb=ctx.hero_stack_bb if chosen.action == ActionType.BET else ctx.hero_stack_bb + ctx.to_call_bb, rationale=chosen.rationale + "; committed (SPR)")
            chosen = self._legalize(chosen, ctx)
        return chosen

    def _legalize(self, rec: Recommendation, ctx: DecisionContext) -> Recommendation:
        legal = set(ctx.legal)
        act, size = rec.action, rec.size_bb
        if act == ActionType.BET and "bet" not in legal:
            act = ActionType.RAISE if "raise" in legal else ActionType.CALL
            size = max(ctx.min_raise_to_bb, size) if act == ActionType.RAISE else 0.0
        if act == ActionType.RAISE and "raise" not in legal:
            act, size = (ActionType.CALL, 0.0) if "call" in legal else (ActionType.CHECK, 0.0)
        if act == ActionType.CALL and "call" not in legal:
            act = ActionType.CHECK if "check" in legal else ActionType.FOLD
        if act == ActionType.CHECK and "check" not in legal:
            act = ActionType.FOLD
        if act == ActionType.BET:
            size = min(size, ctx.hero_stack_bb)
            size = max(size, min(BIG_BLIND_BB, ctx.hero_stack_bb))
        elif act == ActionType.RAISE:
            max_to = ctx.hero_stack_bb + 0.0  # engine treats raise-to beyond stack as all-in
            size = min(size, max_to + ctx.to_call_bb + ctx.pot_bb)  # loose cap; engine clamps exactly
            size = max(size, ctx.min_raise_to_bb)
        else:
            size = 0.0
        if act != rec.action or size != rec.size_bb:
            return replace(rec, action=act, size_bb=size)
        return rec

    # -- learning capture ------------------------------------------------------

    def record_snapshot(self, ctx: DecisionContext) -> None:
        """Keep each live read of a post-flop decision for showdown learning:
        the read (`read`: its range's step, from which the grid is computed
        when first read, and the BoardContext it was read under) and the
        strength categories it was read with (`categories`, the table's
        read-only array, from which `learning.records_from_snapshots`
        computes the strength distribution when a showdown needs it). A
        showdown record or a scenario reads the grid and ChiB through the
        read, for the snapshots it uses. `decide` takes one per post-flop
        decision, and a replay of a finished hand one per decision that was
        played."""
        if ctx.street == "preflop":
            return
        self._ensure_reads(ctx)
        if ctx.board_ctx is None:
            return
        categories = self.rsm.categories_many(ctx.board_ctx)
        for read in ctx.opponents:
            if read.step is None:
                continue
            snapshot = {"hand_id": ctx.hand_id, "street": ctx.street, "read": read, "categories": categories}
            self.snapshots.append(snapshot)
