"""Fast-fold session orchestration.

Every hand seats the hero with fresh opponents drawn from a seeded bot
pool, runs one hand, and moves on (folding ends the hero's involvement,
as the format teleports the player away; the bots still finish the pot).
The hero's strategist observes only what it could witness while seated.
Sessions are deterministic under a fixed seed: same seed, byte-identical
history files and decision traces.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from typing import Callable

from .brain import Brain, DecisionContext
from .cards import DealRng, card_str
from .events import ActionEvent, ActionType, Street, from_key
from .learning import apply_learning, records_from_snapshots
from .metrics import ResultLedger, TrialReport, all_in_adjusted
from .profiles import ProfileStore
from .rsm import BoardContext, RsmTable
from .table import (
    ARCHETYPE_TARGETS,
    BotPolicy,
    HandRecord,
    PolicyView,
    RakeModel,
    SeatConfig,
    play_hand,
)

HERO_ID = "hero"

DEFAULT_BOT_MIX = {
    "Whale": 0.10,
    "CallingStation": 0.14,
    "Fish": 0.20,
    "LooseReg": 0.12,
    "MediumReg": 0.22,
    "TightReg": 0.12,
    "LAG": 0.05,
    "Rock": 0.05,
}


@dataclass
class SessionConfig:
    hands: int = 1000
    seed: int = 1
    sb_cents: int = 1
    bb_cents: int = 2
    hero_buyin_bb: float = 100.0
    bot_mix: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_BOT_MIX))
    pool_size: int = 60
    bot_stack_bb: tuple[float, float] = (60.0, 220.0)
    rake: RakeModel = field(default_factory=RakeModel)
    rakeback_rate: float = 0.069
    learning: bool = True
    trace: bool = False
    failure_rate: float = 0.0
    table_id: str = "fastfold"

    @classmethod
    def from_ini(cls, path: str) -> "SessionConfig":
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise FileNotFoundError(path)
        s = parser["session"] if "session" in parser else parser["DEFAULT"]
        mix = dict(DEFAULT_BOT_MIX)
        if "bots" in parser:
            mix = {k.strip(): float(v) for k, v in parser["bots"].items()}
            mix = {_canonical_archetype(k): v for k, v in mix.items()}
        rake = RakeModel(
            percentage=s.getfloat("rake_percentage", 0.05),
            cap_bb=s.getfloat("rake_cap_bb", 3.0),
            no_flop_no_drop=s.getboolean("no_flop_no_drop", True),
        )
        return cls(
            hands=s.getint("hands", 1000),
            seed=s.getint("seed", 1),
            sb_cents=s.getint("sb_cents", 1),
            bb_cents=s.getint("bb_cents", 2),
            hero_buyin_bb=s.getfloat("hero_buyin_bb", 100.0),
            bot_mix=mix,
            pool_size=s.getint("pool_size", 60),
            rake=rake,
            rakeback_rate=s.getfloat("rakeback_rate", 0.069),
            learning=s.getboolean("learning", True),
            trace=s.getboolean("trace", False),
            failure_rate=s.getfloat("failure_rate", 0.0),
            table_id=s.get("table_id", "fastfold"),
        )


def _canonical_archetype(name: str) -> str:
    lookup = {a.lower(): a for a in ARCHETYPE_TARGETS}
    return lookup.get(name.lower(), name)


def build_bot_pool(config: SessionConfig) -> list[BotPolicy]:
    """Deterministic pool: archetype counts by largest remainder, one seeded
    RNG stream per bot. Player ids are anonymous; the hero has to profile
    archetypes from behavior, not names."""
    total = sum(config.bot_mix.values())
    quotas = {a: config.pool_size * w / total for a, w in sorted(config.bot_mix.items())}
    counts = {a: int(q) for a, q in quotas.items()}
    rem = config.pool_size - sum(counts.values())
    for a in sorted(quotas, key=lambda a: -(quotas[a] - counts[a]))[:rem]:
        counts[a] += 1
    pool: list[BotPolicy] = []
    i = 0
    for archetype in sorted(counts):
        for _ in range(counts[archetype]):
            rng = DealRng(config.seed, stream=1000 + i)
            pool.append(BotPolicy(f"p{i:04d}", archetype, rng))
            i += 1
    return pool


class HeroSeatPolicy:
    """Adapter between the engine's per-seat policy protocol and the brain.
    Also the hero's sensorium: it forwards witnessed events into the profile
    store and the range pipeline, and stops observing once the hero folds."""

    def __init__(self, brain: Brain, store: ProfileStore, config: SessionConfig, fail_rng: DealRng):
        self.brain = brain
        self.store = store
        self.config = config
        self.fail_rng = fail_rng
        self.new_hand_reset(0, 0)

    def new_hand_reset(self, hand_id: int, hero_seat: int) -> None:
        self.hand_id = hand_id
        self.hero_seat = hero_seat
        self.hero_folded = False
        self.hero_all_in = False
        self.street = "preflop"
        self.aggressor: str | None = None
        self.prev_street_aggressor: str | None = None
        self.aggressor_acted_this_street = False
        self.villains_live: set[str] = set()
        self.villains_all_in: set[str] = set()
        self.failed = False
        self._seq = 0

    # -- observation (wired as the engine observer) -------------------------

    def on_action(self, street, seat, player_id, action, committed_cents, pot_before_cents, position, all_in):
        if self.hero_folded:
            return
        self._seq += 1
        bb = self.config.bb_cents
        self.store.record_event(
            ActionEvent(
                hand_id=self.hand_id,
                player_id=player_id,
                street=from_key(Street, street),
                action=from_key(ActionType, action),
                amount_bb=committed_cents / bb,
                pot_before_bb=pot_before_cents / bb,
                position=position,
                timestamp=float(self.hand_id) + self._seq / 1000.0,
            )
        )
        is_hero = player_id == HERO_ID
        if not is_hero:
            if action == "fold":
                self.villains_live.discard(player_id)
            else:
                self.villains_live.add(player_id)
                if all_in:
                    self.villains_all_in.add(player_id)
        elif all_in:
            self.hero_all_in = True
        if street != self.street:
            return  # the read froze on an earlier street (see on_street)
        if street == "preflop":
            if not is_hero:
                self.brain.observe_villain_preflop(player_id, action)
                if action == "fold":
                    self.brain.folded.add(player_id)
            else:
                self.brain.observe_hero_action(action, "preflop")
        else:
            if not is_hero:
                name = action
                # A lead into the prior aggressor is a donk bet; all-ins keep
                # their own (more specific) template.
                if (
                    action == "bet"
                    and self.prev_street_aggressor is not None
                    and self.prev_street_aggressor != player_id
                    and not self.aggressor_acted_this_street
                ):
                    name = "donk"
                agg = "hero_agg" if self.aggressor == HERO_ID else ("villain_agg" if self.aggressor else "none")
                self.brain.observe_villain_action(player_id, name, aggressor=agg, position="oop")
            else:
                self.brain.observe_hero_action(action, street)
        if player_id == self.prev_street_aggressor:
            self.aggressor_acted_this_street = True
        if action in ("bet", "raise", "allin"):
            self.aggressor = player_id
        if is_hero and action == "fold":
            self.hero_folded = True

    def on_street(self, street, board):
        if self.hero_folded:
            return
        # Once no decision can follow (hero all-in, or every live villain is),
        # the read is final: the pipeline freezes rather than rebaselining.
        if self.hero_all_in or (self.villains_live and self.villains_live <= self.villains_all_in):
            return
        self.prev_street_aggressor = self.aggressor
        self.aggressor_acted_this_street = False
        self.street = street
        self.brain.observe_new_street(board)

    def on_showdown(self, reveals):
        if self.hero_folded:
            return
        for seat, player_id, hole in reveals:
            self.store.record_showdown(self.hand_id, player_id, card_str(hole[0]) + card_str(hole[1]))

    def on_end(self, record):
        self.store.finish_hand()

    # -- acting ----------------------------------------------------------------

    def __call__(self, view: PolicyView):
        if self.config.failure_rate > 0 and self.fail_rng.random() < self.config.failure_rate:
            # Injected operational failure: the interface times the hero out.
            self.failed = True
            return (ActionType.CHECK, 0) if view.to_call_cents <= 0 else (ActionType.FOLD, 0)
        ctx = derive_context(view, self.config.bb_cents)
        rec = self.brain.decide(ctx)
        bb = self.config.bb_cents
        if rec.action == ActionType.BET:
            cents = int(round(rec.size_bb * bb))
            cents = max(min(cents, view.stack_cents), min(bb, view.stack_cents))
            return (ActionType.BET, view.street_committed_cents + cents)
        if rec.action == ActionType.RAISE:
            target = int(round(rec.size_bb * bb))
            cap = view.street_committed_cents + view.stack_cents
            target = min(max(target, view.min_raise_to_cents), cap)
            return (ActionType.RAISE, target)
        return (rec.action, 0)


def derive_context(view: PolicyView, bb_cents: int) -> DecisionContext:
    """Translate raw table state into the decision layer's variables:
    stack-to-pot ratio, pot odds, accumulated betting pressure, legality."""
    bb = float(bb_cents)
    pot_bb = view.pot_cents / bb
    to_call_bb = view.to_call_cents / bb
    spr_pot = max(pot_bb, 0.5)
    eff_stack_bb = view.stack_cents / bb
    pot_odds = to_call_bb / (pot_bb + to_call_bb) if to_call_bb > 0 else 0.0
    return DecisionContext(
        hand_id=view.hand_id,
        street=view.street,
        hero_hole=view.hole,
        board=view.board,
        pot_bb=pot_bb,
        to_call_bb=to_call_bb,
        min_raise_to_bb=view.min_raise_to_cents / bb,
        hero_stack_bb=view.stack_cents / bb,
        effective_stack_bb=eff_stack_bb,
        spr=eff_stack_bb / spr_pot if spr_pot > 0 else float("inf"),
        pot_odds=pot_odds,
        action_level=view.action_level,
        position=view.position,
        in_position=view.position in ("btn", "co"),
        hero_is_aggressor=view.is_prev_street_aggressor,
        legal=view.legal,
        live_player_ids=view.live_player_ids,
        big_blind_bb=1.0,
        num_limpers=view.num_limpers,
        facing_allin=view.facing_allin,
    )


@dataclass
class SessionResult:
    config: SessionConfig
    ledger: ResultLedger
    report: TrialReport
    hands_played: int
    showdowns_seen: int
    learning_deltas: int
    trace_lines: list[str]
    final_hero_stack_bb: float
    rebuys: int


def run_fastfold_session(
    config: SessionConfig,
    brain: Brain | None = None,
    store: ProfileStore | None = None,
    on_record: Callable[[HandRecord], None] | None = None,
) -> SessionResult:
    """Play config.hands of seeded fast-fold poker and account for them.
    A given brain observes through its own store; a `store` given with it
    must be that store."""
    if brain is None:
        store = store or ProfileStore()
        brain = Brain(store, rsm_table=RsmTable(), seed=config.seed, trace=config.trace)
    elif store is None:
        store = brain.store
    elif store is not brain.store:
        raise ValueError("store must be the brain's own store")
    rsm = brain.rsm
    pool = build_bot_pool(config)
    deal_rng = DealRng(config.seed, stream=0)
    seat_rng = DealRng(config.seed, stream=1)
    fail_rng = DealRng(config.seed, stream=2)
    hero_policy = HeroSeatPolicy(brain, store, config, fail_rng)
    ledger = ResultLedger(bb_cents=config.bb_cents, rakeback_rate=config.rakeback_rate)

    hero_stack = int(round(config.hero_buyin_bb * config.bb_cents))
    rebuys = 0
    showdowns = 0
    deltas = 0
    bad_beat_last = False

    for hand_id in range(1, config.hands + 1):
        if hero_stack < 2 * config.bb_cents:
            hero_stack = int(round(config.hero_buyin_bb * config.bb_cents))
            rebuys += 1
        opponents = [pool[int(i)] for i in seat_rng.generator.choice(len(pool), size=5, replace=False)]
        hero_seat = seat_rng.randint(6)
        button = seat_rng.randint(6)
        seats: list[SeatConfig] = []
        bot_iter = iter(opponents)
        lo, hi = config.bot_stack_bb
        for idx in range(6):
            if idx == hero_seat:
                seats.append(SeatConfig(HERO_ID, hero_stack, hero_policy))
            else:
                bot = next(bot_iter)
                stack_bb = lo + (hi - lo) * seat_rng.random()
                seats.append(SeatConfig(bot.player_id, int(round(stack_bb * config.bb_cents)), bot))
        hero_policy.new_hand_reset(hand_id, hero_seat)
        deck = deal_rng.shuffled_deck()
        brain.begin_hand(
            hand_id,
            _hero_hole(deck, hero_seat, seats),
            [(s.player_id, None) for s in seats if s.player_id != HERO_ID],
            bad_beat_last_hand=bad_beat_last,
        )
        record = play_hand(
            hand_id,
            config.table_id,
            seats,
            button,
            config.sb_cents,
            config.bb_cents,
            deck,
            rake=config.rake,
            observer=hero_policy,
        )
        record.failure_injected = hero_policy.failed
        net = record.net[hero_seat]
        hero_stack += net
        rake_hero = record.rake_paid.get(hero_seat, 0)
        adjusted = all_in_adjusted(record, HERO_ID)
        ledger.add_hand(hand_id, net, rake_hero, adjusted)

        bad_beat_last = _was_bad_beat(record, hero_seat, brain)
        hero_showed = any(s == hero_seat for s, _ in record.showdown)
        if hero_showed and len(record.showdown) > 1:
            showdowns += 1
            if config.learning:
                reveals = {
                    record.player_of(s): h for s, h in record.showdown if s != hero_seat
                }
                recs = records_from_snapshots(brain.snapshots, reveals, record.holes[hero_seat], rsm)
                events = apply_learning(recs, rsm, store)
                deltas += len(events)
        if on_record:
            on_record(record)

    report = TrialReport.from_ledger(ledger)
    return SessionResult(
        config=config,
        ledger=ledger,
        report=report,
        hands_played=config.hands,
        showdowns_seen=showdowns,
        learning_deltas=deltas,
        trace_lines=list(brain.trace_lines),
        final_hero_stack_bb=hero_stack / config.bb_cents,
        rebuys=rebuys,
    )


def _hero_hole(deck: list[int], hero_seat: int, seats) -> tuple[int, int]:
    """The hero's hole cards in the shuffled deck, dealt as the engine deals
    them (two cards per seat with chips, in seat order), so begin_hand can
    see them before play starts."""
    dealt = 0
    hole = None
    for idx in range(len(seats)):
        if seats[idx].stack_cents > 0:
            pair = (deck[dealt], deck[dealt + 1])
            if idx == hero_seat:
                hole = pair
            dealt += 2
    assert hole is not None
    return hole


def _was_bad_beat(record: HandRecord, hero_seat: int, brain: Brain) -> bool:
    """Lost a showdown while holding a monster at the river. The river's
    context comes from the brain's hand, which read it if the hero decided
    there."""
    if hero_seat not in dict(record.showdown):
        return False
    if record.net.get(hero_seat, 0) >= 0:
        return False
    if len(record.board) < 5:
        return False
    ctx = BoardContext.cached(record.board, brain.board_contexts)
    return int(brain.rsm.query(record.holes[hero_seat], record.board, ctx)) >= 8
