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
    HandEngine,
    HandRecord,
    PolicyView,
    RakeModel,
    SeatConfig,
    play_hand,
)

HERO_ID = "hero"
BOT_STACK_BB = (60.0, 220.0)  # a bot's stack is drawn uniformly from this, in big blinds

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
    rake: RakeModel = field(default_factory=RakeModel)
    rakeback_rate: float = 0.069
    learning: bool = True
    trace: bool = False
    failure_rate: float = 0.0
    table_id: str = "fastfold"

    @classmethod
    def from_ini(cls, path: str) -> "SessionConfig":
        """The config an INI file gives: the keys of [session] (or of
        [DEFAULT] when there is no [session]) and archetype weights in
        [bots]. A section, key, archetype or value it cannot read, or a
        value out of range (see check), raises ValueError naming the file
        and the section or key. A file that cannot be read raises OSError
        or UnicodeDecodeError."""
        parser = configparser.ConfigParser()
        with open(path, encoding="utf-8") as f:
            try:
                parser.read_file(f)
            except configparser.Error as e:
                raise ValueError(f"{path}: {' '.join(str(e).split())}") from None
        for section in parser.sections():
            if section not in ("session", "bots"):
                raise ValueError(f"{path}: unknown section [{section}]; want [session] or [bots]")

        def read(section: str, key: str, how: str):
            try:
                return getattr(parser[section], how)(key)
            except (ValueError, configparser.Error) as e:
                raise ValueError(f"{path}: [{section}] {key}: {e}") from None

        name = "session" if parser.has_section("session") else "DEFAULT"
        values = {}
        for key in parser[name]:
            if key not in _INI_KEYS:
                raise ValueError(f"{path}: [{name}] unknown key {key!r}")
            values[key] = read(name, key, _INI_KEYS[key])
        rake = RakeModel(**{attr: values.pop(key) for key, attr in _INI_RAKE_KEYS.items() if key in values})
        if parser.has_section("bots"):
            archetypes = {a.lower(): a for a in ARCHETYPE_TARGETS}
            mix = {}
            for key in parser["bots"]:
                if key in parser.defaults():  # configparser gives every section the [DEFAULT] keys
                    raise ValueError(f"{path}: [DEFAULT] {key} would also be read as an archetype; set it in [session]")
                if key not in archetypes:
                    raise ValueError(f"{path}: [bots] unknown archetype {key!r}; want one of {', '.join(ARCHETYPE_TARGETS)}")
                weight = mix[archetypes[key]] = read("bots", key, "getfloat")
                if not weight >= 0:
                    raise ValueError(f"{path}: [bots] {key}: weight {weight} is not >= 0")
            if not sum(mix.values()) > 0:
                raise ValueError(f"{path}: [bots] gives no archetype a positive weight")
            values["bot_mix"] = mix
        config = cls(rake=rake, **values)
        config.check(lambda key: f"{path}: [{name}] {key}")
        return config

    def check(self, name_of: Callable[[str], str]) -> None:
        """Raise ValueError at the first value out of range, naming its INI key as name_of(key)."""
        buyin = self.hero_buyin_bb * self.bb_cents  # in cents; rounds to at least 1 above 0.5
        for key, value, ok, want in (
            ("hands", self.hands, self.hands >= 0, ">= 0"),
            ("seed", self.seed, self.seed >= 0, ">= 0"),
            ("pool_size", self.pool_size, self.pool_size >= 5, ">= 5 (five opponents a hand)"),
            ("bb_cents", self.bb_cents, self.bb_cents >= 1, ">= 1"),
            ("sb_cents", self.sb_cents, 0 <= self.sb_cents <= self.bb_cents, f"in [0, bb_cents={self.bb_cents}]"),
            ("hero_buyin_bb", self.hero_buyin_bb, 0.5 < buyin < float("inf"), f"a buy-in of at least one cent at bb_cents={self.bb_cents}"),
            ("rakeback_rate", self.rakeback_rate, 0 <= self.rakeback_rate <= 1, "in [0, 1]"),
            ("rake_percentage", self.rake.percentage, 0 <= self.rake.percentage <= 1, "in [0, 1]"),
            ("failure_rate", self.failure_rate, 0 <= self.failure_rate <= 1, "in [0, 1]"),
            ("rake_cap_bb", self.rake.cap_bb, self.rake.cap_bb >= 0, ">= 0"),
            # a history header holds the id as one word
            ("table_id", repr(self.table_id), not any(c.isspace() for c in self.table_id), "an id without whitespace"),
        ):
            if not ok:
                raise ValueError(f"{name_of(key)}: {value} is not {want}")


# The [session] keys of an INI config, by the parser method that reads each.
# The rake keys become RakeModel fields.
_INI_KEYS = {
    **dict.fromkeys(("hands", "seed", "sb_cents", "bb_cents", "pool_size"), "getint"),
    **dict.fromkeys(("hero_buyin_bb", "rake_percentage", "rake_cap_bb", "rakeback_rate", "failure_rate"), "getfloat"),
    **dict.fromkeys(("no_flop_no_drop", "learning", "trace"), "getboolean"),
    "table_id": "get",
}
_INI_RAKE_KEYS = {"rake_percentage": "percentage", "rake_cap_bb": "cap_bb", "no_flop_no_drop": "no_flop_no_drop"}


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
    """Adapter between the engine's per-seat policy protocol and the brain,
    and the hero's sensorium: it forwards what the hero witnesses into the
    profile store (`brain.store`) and the range pipeline until the hero
    folds. It keeps no copy of the betting state. From the engine that
    `on_begin` hands it, it reads the hand id, the blinds, the seats'
    `in_hand` and `all_in`, and the action log; never `hole` or the deck.
    The read freezes once the hero or every live villain is all-in. A
    villain acts under the initiative: the seat of the hand's last bet,
    raise or all-in. A villain's bet is a donk when the initiative is
    another seat's, carried into this street, that has not yet acted on
    it. An all-in from posting a blind freezes the read too; sessions
    never reach one (the hero rebuys below 2 bb, bots sit with 60)."""

    def __init__(self, brain: Brain):
        self.brain = brain

    # -- observation (wired as the engine observer) -------------------------

    def on_begin(self, engine: HandEngine) -> None:
        self.engine = engine
        self.hero = next(s for s in engine.seats if s.player_id == HERO_ID)
        self.street = "preflop"

    def on_action(self, street, seat, player_id, action, committed_cents, pot_before_cents, position, all_in):
        is_hero = player_id == HERO_ID
        if not (self.hero.in_hand or is_hero):
            return  # the hero folded earlier; its own fold is the last action it sees
        engine = self.engine
        bb = engine.bb
        self.brain.store.record_event(
            ActionEvent(
                hand_id=engine.hand_id,
                player_id=player_id,
                street=from_key(Street, street),
                action=from_key(ActionType, action),
                amount_bb=committed_cents / bb,
                pot_before_bb=pot_before_cents / bb,
                position=position,
                timestamp=float(engine.hand_id) + len(engine.actions) / 1000.0,
            )
        )
        if street != self.street:
            return  # the read froze on an earlier street (see on_street)
        if is_hero:
            self.brain.observe_hero_action(action, street)
        elif street == "preflop":
            self.brain.observe_villain_preflop(player_id, action)
        else:
            earlier = engine.actions[-2::-1]  # newest first; the log ends with this action
            holder = next((s for _, s, a, _ in earlier if a in ("bet", "raise", "allin")), None)
            name = action
            # Nobody bet or raised on this street before a bet, so the holder
            # carried the initiative in. Leading into it is a donk; all-ins
            # keep their own (more specific) template.
            if action == "bet" and holder not in (None, seat) and all(s != holder for st, s, _, _ in earlier if st == street):
                name = "donk"
            agg = "none" if holder is None else ("hero_agg" if holder == self.hero.idx else "villain_agg")
            self.brain.observe_villain_action(player_id, name, aggressor=agg, position="oop")

    def on_street(self, street, board):
        hero = self.hero
        if not hero.in_hand:
            return
        # Once no decision can follow, the pipeline freezes rather than
        # rebaselining. At least one villain is live when a street is dealt.
        if hero.all_in or all(s.all_in for s in self.engine.seats if s.in_hand and s is not hero):
            return
        self.street = street
        self.brain.observe_new_street(board)

    def on_showdown(self, reveals):
        if not self.hero.in_hand:
            return
        for seat, player_id, hole in reveals:
            self.brain.store.record_showdown(self.engine.hand_id, player_id, card_str(hole[0]) + card_str(hole[1]))

    def on_end(self, record):
        self.brain.store.finish_hand()

    # -- acting ----------------------------------------------------------------

    def __call__(self, view: PolicyView):
        rec = self.brain.decide(derive_context(view))
        bb = view.bb_cents
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


def derive_context(view: PolicyView) -> DecisionContext:
    """Translate raw table state into the decision layer's variables:
    stack-to-pot ratio, pot odds, accumulated betting pressure, legality."""
    bb = float(view.bb_cents)
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
    showdowns_seen: int
    learning_deltas: int
    trace_lines: list[str]
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
    hero_policy = HeroSeatPolicy(brain)

    def hero_or_timeout(view: PolicyView):
        # Injected operational failure: the interface times the hero out.
        nonlocal timed_out
        if config.failure_rate > 0 and fail_rng.random() < config.failure_rate:
            timed_out = True
            return (ActionType.CHECK, 0) if view.to_call_cents <= 0 else (ActionType.FOLD, 0)
        return hero_policy(view)
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
        lo, hi = BOT_STACK_BB
        for idx in range(6):
            if idx == hero_seat:
                seats.append(SeatConfig(HERO_ID, hero_stack, hero_or_timeout))
            else:
                bot = next(bot_iter)
                stack_bb = lo + (hi - lo) * seat_rng.random()
                seats.append(SeatConfig(bot.player_id, int(round(stack_bb * config.bb_cents)), bot))
        deck = deal_rng.shuffled_deck()
        brain.begin_hand(
            hand_id,
            _hero_hole(deck, hero_seat, seats),
            [(s.player_id, None) for s in seats if s.player_id != HERO_ID],
            bad_beat_last_hand=bad_beat_last,
        )
        timed_out = False
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
        record.failure_injected = timed_out
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
        showdowns_seen=showdowns,
        learning_deltas=deltas,
        trace_lines=list(brain.trace_lines),
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
    return int(brain.rsm.query(record.holes[hero_seat], ctx)) >= 8
