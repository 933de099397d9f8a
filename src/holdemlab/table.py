"""Six-max no-limit hold'em table: dealing, betting, side pots, rake,
archetype bots, fast-fold sessions, and a replayable hand-history format.

Money is integer cents throughout the engine; big-blind units exist only at
the policy/metrics boundary, which keeps chip conservation exact. One
simplification against full casino rules: any bet increase reopens the
action (a short all-in re-raise does not normally reopen betting for a
player who already acted). Bots never exploit it and settlement is
unaffected.
"""
from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .cards import STRAIGHT_OUTS, DealRng, card_str, hand_score, parse_cards
from .events import ActionType, from_key
from .preflop import combo_percentile

STREET_NAMES = ("preflop", "flop", "turn", "river")
_PREV_STREET = {"flop": "preflop", "turn": "flop", "river": "turn"}
STREET_CARDS = {"flop": 3, "turn": 4, "river": 5}


class IllegalActionError(RuntimeError):
    """A policy emitted an action the rules forbid; the hand is aborted."""


class HistoryFormatError(ValueError):
    """Malformed hand-history text; message carries the line number."""


@dataclass(frozen=True)
class RakeModel:
    """Site commission: a percentage of the raked pot up to a cap, waived
    when no flop was dealt (no flop, no drop)."""

    percentage: float = 0.05
    cap_bb: float = 3.0
    no_flop_no_drop: bool = True

    def rake_for(self, pot_cents: int, bb_cents: int, saw_flop: bool) -> int:
        if self.no_flop_no_drop and not saw_flop:
            return 0
        cap = int(self.cap_bb * bb_cents)
        return min(int(pot_cents * self.percentage), cap)


@dataclass
class SeatConfig:
    player_id: str
    stack_cents: int
    policy: Callable | None = None  # None folds/checks


@dataclass(eq=False)  # a seat is compared by identity, never field by field
class _Seat:
    idx: int
    player_id: str
    stack: int
    policy: Callable | None
    hole: tuple[int, int] | None = None
    in_hand: bool = True
    all_in: bool = False
    street_committed: int = 0
    total_committed: int = 0

    @property
    def can_act(self) -> bool:
        return self.in_hand and not self.all_in


@dataclass(slots=True)
class PolicyView:
    """What a seat sees when asked to act."""

    hand_id: int
    street: str
    position: str
    hole: tuple[int, int]
    board: tuple[int, ...]
    pot_cents: int
    to_call_cents: int
    current_bet_cents: int
    street_committed_cents: int
    stack_cents: int
    min_raise_to_cents: int
    bb_cents: int
    num_limpers: int
    facing_allin: bool
    preflop_raised: bool
    prev_street_aggressor: int | None
    is_prev_street_aggressor: bool
    action_level: float
    live_player_ids: tuple[str, ...]
    legal: tuple[str, ...]


@dataclass(slots=True)
class HandRecord:
    """Full perfect-information record of one hand; replayable. The engine
    and the history parser build its sequences once, as tuples: CPython's
    cyclic collector stops tracking a tuple of atomic values, so parsed
    records add little to what each collection walks."""

    hand_id: int
    table_id: str
    button: int
    sb_cents: int
    bb_cents: int
    seats: tuple[tuple[int, str, int], ...]  # (seat, player_id, starting stack cents)
    holes: dict[int, tuple[int, int]]
    board: tuple[int, ...]
    actions: tuple[tuple[str, int, str, int], ...]  # (street, seat, action, committed-to cents)
    showdown: tuple[tuple[int, tuple[int, int]], ...]
    awards: dict[int, int]  # seats that won chips or paid rake, as the history lists them
    rake_paid: dict[int, int]
    net: dict[int, int]
    saw_flop: bool
    failure_injected: bool = False

    def player_of(self, seat: int) -> str:
        for s, pid, _ in self.seats:
            if s == seat:
                return pid
        raise KeyError(seat)

    def hero_seat_of(self, hero_id: str) -> int | None:
        for s, pid, _ in self.seats:
            if pid == hero_id:
                return s
        return None

    def total_rake(self) -> int:
        return sum(self.rake_paid.values())


def positions_for(active_seats: Sequence[int], button: int) -> dict[int, str]:
    """Position names clockwise from the button; heads-up button posts sb."""
    seats = sorted(active_seats)
    n = len(seats)
    if button not in seats:
        raise ValueError("button must be an active seat")
    start = seats.index(button)
    ring = [seats[(start + 1 + i) % n] for i in range(n)]  # starts left of button
    if n == 2:
        return {button: "sb", ring[0]: "bb"}
    names = ["sb", "bb"] + ["utg", "hj", "co"][: max(0, n - 3)] + ["btn"]
    return {seat: name for seat, name in zip(ring, names)}


# ---------------------------------------------------------------------------
# Settlement
# ---------------------------------------------------------------------------


def settle_pots(
    contributions: dict[int, int],
    live: set[int],
    scores: dict[int, int],
    odd_chip_order: Sequence[int],
) -> dict[int, int]:
    """Layered side-pot settlement. Every chip contributed lands in exactly
    one award; uncalled money layers fall back to their lone contributor.
    Odd cents go to winners earliest in odd_chip_order."""
    awards = {s: 0 for s in contributions}
    levels = sorted({c for c in contributions.values() if c > 0})
    prev = 0
    for level in levels:
        amount = sum(min(c, level) - min(c, prev) for c in contributions.values())
        if amount == 0:
            prev = level
            continue
        eligible = [s for s in live if contributions[s] >= level]
        if not eligible:
            # Money above every live stack: return to its contributors.
            payers = [s for s, c in contributions.items() if c >= level]
            for s in payers:
                awards[s] += min(contributions[s], level) - prev
            prev = level
            continue
        best = max(scores[s] for s in eligible)
        winners = [s for s in eligible if scores[s] == best]
        share, rem = divmod(amount, len(winners))
        ordered = [s for s in odd_chip_order if s in winners]
        for s in winners:
            awards[s] += share
        for s in ordered[:rem]:
            awards[s] += 1
        prev = level
    return awards


def apportion_rake(awards: dict[int, int], rake_total: int) -> dict[int, int]:
    """Deduct rake from winners proportionally to what they dragged,
    largest-remainder rounding, deterministic by seat order."""
    pot = sum(awards.values())
    paid = {s: 0 for s in awards}
    if rake_total <= 0 or pot <= 0:
        return paid
    quotas = {s: awards[s] * rake_total / pot for s in awards}
    base = {s: int(quotas[s]) for s in awards}
    rem = rake_total - sum(base.values())
    order = sorted(awards, key=lambda s: (-(quotas[s] - base[s]), s))
    for s in order[:rem]:
        base[s] += 1
    for s in awards:
        paid[s] = min(base[s], awards[s])
    shortfall = rake_total - sum(paid.values())
    if shortfall:
        for s in sorted(awards, key=lambda s: -awards[s]):
            take = min(shortfall, awards[s] - paid[s])
            paid[s] += take
            shortfall -= take
            if not shortfall:
                break
    return paid


# ---------------------------------------------------------------------------
# The hand engine
# ---------------------------------------------------------------------------


class HandEngine:
    def __init__(
        self,
        hand_id: int,
        table_id: str,
        seats: Sequence[SeatConfig],
        button: int,
        sb_cents: int,
        bb_cents: int,
        deck: Sequence[int],
        rake: RakeModel,
        observer=None,
    ):
        if len(seats) < 2:
            raise ValueError("need at least two seated players")
        self.hand_id = hand_id
        self.table_id = table_id
        self.button = button
        self.sb = sb_cents
        self.bb = bb_cents
        self.deck = list(deck)
        self.rake_model = rake
        self.observer = observer
        self.seats = [_Seat(i, cfg.player_id, cfg.stack_cents, cfg.policy) for i, cfg in enumerate(seats)]
        for s in self.seats:
            if s.stack <= 0:
                s.in_hand = False
        self.board: list[int] = []
        self.actions: list[tuple[str, int, str, int]] = []
        self.positions = positions_for([s.idx for s in self.seats if s.in_hand], button)
        # Seats dealt in, clockwise from the one left of the button.
        ring = sorted(self.positions)
        start = ring.index(button)
        self._clockwise = [ring[(start + 1 + i) % len(ring)] for i in range(len(ring))]
        self.current_bet = 0
        self.min_raise_inc = bb_cents
        self.action_level = 0.0
        self.street = "preflop"
        self.saw_flop = False
        self.num_limpers = 0
        self.preflop_raised = False
        self.street_aggressor: dict[str, int | None] = {s: None for s in STREET_NAMES}
        # Running state, kept in step with every commit and fold.
        self._pot = 0
        self._live = [s for s in self.seats if s.in_hand]
        self._board_view: tuple[int, ...] = ()

    # -- helpers --------------------------------------------------------------

    def _commit(self, seat: _Seat, pay: int) -> None:
        seat.stack -= pay
        seat.street_committed += pay
        seat.total_committed += pay
        self._pot += pay

    def _order(self, street: str) -> list[_Seat]:
        clockwise = self._clockwise
        if street == "preflop":
            # first to act is left of the big blind
            clockwise = clockwise[2:] + clockwise[:2] if len(clockwise) > 2 else clockwise[::-1]
        return [self.seats[i] for i in clockwise if self.seats[i].in_hand]

    def _emit_action(self, seat: _Seat, action: ActionType, pot_before: int) -> None:
        name = action.key
        self.actions.append((self.street, seat.idx, name, seat.street_committed))
        if self.observer:
            self.observer.on_action(
                self.street,
                seat.idx,
                seat.player_id,
                name,
                seat.street_committed,
                pot_before,
                self.positions.get(seat.idx, "?"),
                seat.all_in,
            )

    def legal_actions(self, seat: _Seat) -> tuple[str, ...]:
        to_call = self.current_bet - seat.street_committed
        if to_call <= 0:
            return ("fold", "check", "bet") if seat.stack > 0 else ("fold", "check")
        return ("fold", "call", "raise") if seat.stack > to_call else ("fold", "call")

    def build_view(self, seat: _Seat) -> PolicyView:
        to_call = max(0, self.current_bet - seat.street_committed)
        others = [s for s in self._live if s is not seat]
        prev = self.street_aggressor.get(_PREV_STREET.get(self.street))
        # Positional, in field order: a view is built for every action, and
        # binding two dozen keywords costs more than the rest of this method.
        return PolicyView(
            self.hand_id,  # hand_id
            self.street,  # street
            self.positions.get(seat.idx, "?"),  # position
            seat.hole,  # hole
            self._board_view,  # board
            self._pot,  # pot_cents
            min(to_call, seat.stack),  # to_call_cents
            self.current_bet,  # current_bet_cents
            seat.street_committed,  # street_committed_cents
            seat.stack,  # stack_cents
            self.current_bet + self.min_raise_inc,  # min_raise_to_cents
            self.bb,  # bb_cents
            self.num_limpers,  # num_limpers
            to_call > 0 and any([s.all_in for s in others]),  # facing_allin
            self.preflop_raised,  # preflop_raised
            prev,  # prev_street_aggressor
            prev == seat.idx,  # is_prev_street_aggressor
            self.action_level,  # action_level
            tuple([s.player_id for s in others]),  # live_player_ids
            self.legal_actions(seat),  # legal
        )

    # -- betting ----------------------------------------------------------------

    def _apply(self, seat: _Seat, action: ActionType, amount_cents: int) -> bool:
        """Apply a validated action; returns True if the bet level rose."""
        pot_before = self._pot
        to_call = self.current_bet - seat.street_committed
        raised = False
        if action == ActionType.FOLD:
            seat.in_hand = False
            self._live.remove(seat)
        elif action == ActionType.CHECK:
            if to_call > 0:
                raise IllegalActionError(f"{seat.player_id} checked facing a bet")
        elif action == ActionType.CALL:
            if to_call <= 0:
                raise IllegalActionError(f"{seat.player_id} called with nothing to call")
            self._commit(seat, min(to_call, seat.stack))
            if seat.stack == 0:
                seat.all_in = True
        elif action in (ActionType.BET, ActionType.RAISE, ActionType.ALL_IN):
            target = amount_cents
            if action == ActionType.ALL_IN:
                target = seat.street_committed + seat.stack
            if action == ActionType.BET and to_call > 0:
                raise IllegalActionError(f"{seat.player_id} bet into a live bet")
            pay = target - seat.street_committed
            if pay <= 0 or pay > seat.stack:
                raise IllegalActionError(f"{seat.player_id} sized {target} illegally (stack {seat.stack})")
            all_in = pay == seat.stack
            if target <= self.current_bet:
                if not (all_in and to_call > 0):
                    raise IllegalActionError(f"{seat.player_id} raise to {target} does not exceed {self.current_bet}")
                # short all-in that cannot even match: acts as a call
                self._commit(seat, pay)
                seat.all_in = True
                self._emit_action(seat, ActionType.CALL, pot_before)
                return False
            min_to = self.current_bet + self.min_raise_inc
            if target < min_to and not all_in:
                raise IllegalActionError(f"{seat.player_id} raise to {target} below minimum {min_to}")
            was_opening = self.current_bet == 0
            inc = target - self.current_bet
            if was_opening:
                self.min_raise_inc = max(self.bb, inc)
            elif inc >= self.min_raise_inc:
                self.min_raise_inc = inc
            self._commit(seat, pay)
            if pot_before > 0:
                self.action_level += pay / pot_before
            self.current_bet = target
            seat.all_in = all_in
            if self.street == "preflop":
                self.preflop_raised = True
            self.street_aggressor[self.street] = seat.idx
            if all_in:
                name = ActionType.ALL_IN
            else:
                name = ActionType.BET if was_opening else ActionType.RAISE
            self._emit_action(seat, name, pot_before)
            return True
        else:
            raise IllegalActionError(f"unknown action {action}")
        self._emit_action(seat, action, pot_before)
        return raised

    def _betting_round(self) -> None:
        order = self._order(self.street)
        live = self._live
        if len(live) <= 1:
            return
        if self.street != "preflop":
            self.current_bet = 0
            self.min_raise_inc = self.bb
            for s in self.seats:
                s.street_committed = 0
            if sum(1 for s in order if s.can_act) <= 1:
                return  # nothing left to contest, run the board out
        pending = deque(s for s in order if s.can_act)
        guard = 0
        while pending:
            guard += 1
            if guard > 500:
                raise IllegalActionError("betting round failed to close")
            seat = pending.popleft()
            # A seat that can act is live, so a second live seat is an opponent.
            if not seat.can_act or len(live) <= 1:
                continue
            to_call = self.current_bet - seat.street_committed
            if to_call <= 0 and not any(o.can_act for o in live if o is not seat):
                continue  # everyone else is all-in and matched; betting is moot
            if seat.policy is None:
                act = (ActionType.CHECK, 0) if to_call <= 0 else (ActionType.FOLD, 0)
            else:
                act = seat.policy(self.build_view(seat))
            action, amount = act
            if self.street == "preflop" and action == ActionType.CALL and not self.preflop_raised:
                self.num_limpers += 1
            reopened = self._apply(seat, action, amount)
            if reopened:
                start = order.index(seat)
                pending = deque(
                    order[(start + k) % len(order)]
                    for k in range(1, len(order))
                    if order[(start + k) % len(order)].can_act
                )

    def _deal_holes(self) -> None:
        it = iter(self.deck)
        for s in self.seats:
            if s.in_hand:
                a, b = next(it), next(it)
                s.hole = (a, b)
        self._deck_pos = 2 * len([s for s in self.seats if s.hole])

    def _deal_board(self, upto: int) -> None:
        while len(self.board) < upto:
            self.board.append(self.deck[self._deck_pos])
            self._deck_pos += 1
        self._board_view = tuple(self.board)

    def _post_blinds(self) -> None:
        sb_seat = next(s for s in self.seats if self.positions.get(s.idx) == "sb")
        bb_seat = next(s for s in self.seats if self.positions.get(s.idx) == "bb")
        for seat, amount in ((sb_seat, self.sb), (bb_seat, self.bb)):
            self._commit(seat, min(amount, seat.stack))
            if seat.stack == 0:
                seat.all_in = True
        self.current_bet = self.bb
        self.min_raise_inc = self.bb

    def run(self) -> HandRecord:
        start_stacks = {s.idx: s.stack for s in self.seats}
        self._deal_holes()
        self._post_blinds()
        for street in STREET_NAMES:
            self.street = street
            if street != "preflop":
                self._deal_board(STREET_CARDS[street])
                if street == "flop":
                    self.saw_flop = True
                if self.observer:
                    self.observer.on_street(street, tuple(self.board))
                self.street_aggressor.setdefault(street, None)
            if len(self._live) <= 1:
                break
            if sum(1 for s in self._live if s.can_act) >= 2 or street == "preflop":
                self._betting_round()
            if len(self._live) <= 1:
                break
        live = self._live
        showdown: list[tuple[int, tuple[int, int]]] = []
        scores: dict[int, int] = {}
        if len(live) > 1:
            self._deal_board(5)
            self.street = "river"
            for s in live:
                scores[s.idx] = hand_score(s.hole + tuple(self.board))
                showdown.append((s.idx, s.hole))
            if self.observer:
                self.observer.on_showdown([(s.idx, s.player_id, s.hole) for s in live])
        else:
            scores[live[0].idx] = 1
        contributions = {s.idx: s.total_committed for s in self.seats}
        awards = settle_pots(contributions, {s.idx for s in live}, scores, self._clockwise)
        # Uncalled excess above the second-highest contribution is not raked.
        levels = sorted(contributions.values())
        callable_cap = levels[-2] if len(levels) >= 2 else 0
        raked_pot = sum(min(c, callable_cap) for c in contributions.values())
        rake_total = self.rake_model.rake_for(raked_pot, self.bb, self.saw_flop)
        rake_paid = apportion_rake(awards, rake_total)
        net: dict[int, int] = {}
        for s in self.seats:
            gain = awards.get(s.idx, 0) - rake_paid.get(s.idx, 0)
            s.stack += gain
            net[s.idx] = s.stack - start_stacks[s.idx]
        assert sum(net.values()) + sum(rake_paid.values()) == 0, "chip conservation violated"
        paid = [s for s in awards if awards[s] or rake_paid[s]]  # the seats an AWARD line lists
        record = HandRecord(
            hand_id=self.hand_id,
            table_id=self.table_id,
            button=self.button,
            sb_cents=self.sb,
            bb_cents=self.bb,
            seats=tuple([(s.idx, s.player_id, start_stacks[s.idx]) for s in self.seats]),
            holes={s.idx: s.hole for s in self.seats if s.hole},
            board=tuple(self.board),
            actions=tuple(self.actions),
            showdown=tuple(showdown),
            awards={s: awards[s] for s in paid},
            rake_paid={s: rake_paid[s] for s in paid},
            net=net,
            saw_flop=self.saw_flop,
        )
        if self.observer:
            self.observer.on_end(record)
        return record


def play_hand(
    hand_id: int,
    table_id: str,
    seats: Sequence[SeatConfig],
    button: int,
    sb_cents: int,
    bb_cents: int,
    deck: Sequence[int],
    rake: RakeModel | None = None,
    observer=None,
) -> HandRecord:
    engine = HandEngine(hand_id, table_id, seats, button, sb_cents, bb_cents, deck, rake or RakeModel(), observer)
    return engine.run()


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


class _ScriptedSeatPolicy:
    """Plays a scripted action stream for one seat: (street, action, amount
    in cents) moves, where street None matches any street and the amount
    counts only for bets, raises and all-ins. Past the end of the script the
    seat checks when free and folds facing a bet if fallback is set, so
    action-light scenarios still run to completion; replays set no fallback
    and raise instead."""

    def __init__(self, moves: Iterable[tuple[str | None, str, int]], fallback: bool = False):
        self.moves = deque(moves)
        self.fallback = fallback

    def __call__(self, view: PolicyView):
        if not self.moves:
            if not self.fallback:
                raise IllegalActionError("script exhausted")
            return (ActionType.CHECK, 0) if view.to_call_cents <= 0 else (ActionType.FOLD, 0)
        street, action, amount = self.moves.popleft()
        if street is not None and street != view.street:
            raise IllegalActionError(f"script expected street {street}, engine at {view.street}")
        at = from_key(ActionType, action)
        if at in (ActionType.BET, ActionType.RAISE, ActionType.ALL_IN):
            return (at, amount)
        return (at, 0)


def _stacked_deck(holes: Iterable[Sequence[int]], board: Sequence[int]) -> list[int]:
    """A deck that deals the holes in seat order, then the board; the other
    cards follow in index order."""
    deck = [c for hole in holes for c in hole]
    deck.extend(board)
    used = set(deck)
    deck.extend(c for c in range(52) if c not in used)
    return deck


def replay_hand(
    record: HandRecord, observer=None, wrappers: Mapping[int, Callable[[Callable], Callable]] | None = None
) -> HandRecord:
    """Re-run a recorded hand through the engine; the result must reproduce
    the record exactly (same actions, board, awards, and net). A seat listed
    in wrappers plays wrappers[seat](its scripted policy) instead."""
    per_seat: dict[int, list[tuple[str, str, int]]] = {}
    for street, seat, action, committed in record.actions:
        per_seat.setdefault(seat, []).append((street, action, committed))
    wrappers = wrappers or {}
    seats = []
    for seat, pid, stack in record.seats:
        policy = _ScriptedSeatPolicy(per_seat.get(seat, []))
        seats.append(SeatConfig(pid, stack, wrappers[seat](policy) if seat in wrappers else policy))
    holes = [record.holes[seat] for seat, _, _ in record.seats if seat in record.holes]
    engine = HandEngine(
        record.hand_id,
        record.table_id,
        seats,
        record.button,
        record.sb_cents,
        record.bb_cents,
        _stacked_deck(holes, record.board),
        _FixedRake(record.total_rake()),
        observer,
    )
    return engine.run()


class _FixedRake:
    """Replays reuse the recorded rake total instead of re-deriving it."""

    def __init__(self, total: int):
        self.total = total

    def rake_for(self, pot_cents: int, bb_cents: int, saw_flop: bool) -> int:
        return self.total


# ---------------------------------------------------------------------------
# Archetype bots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BotTargets:
    vpip: float
    pfr: float
    af: float
    fold_to_cbet: float
    donk: float
    # Chart widening that compensates big-blind free checks and folds to
    # raises, so realized VPIP lands on target (tuned empirically at the
    # default blind structure).
    chart_widen: float = 1.10


ARCHETYPE_TARGETS: dict[str, BotTargets] = {
    "Rock": BotTargets(0.11, 0.08, 1.6, 0.68, 0.02, 1.33),
    "TightReg": BotTargets(0.19, 0.15, 2.2, 0.55, 0.03, 1.16),
    "MediumReg": BotTargets(0.24, 0.18, 2.4, 0.48, 0.04, 1.09),
    "LooseReg": BotTargets(0.30, 0.22, 2.2, 0.42, 0.06, 1.12),
    "LAG": BotTargets(0.36, 0.29, 3.8, 0.35, 0.10, 1.19),
    "Fish": BotTargets(0.52, 0.18, 1.4, 0.38, 0.12, 1.05),
    "CallingStation": BotTargets(0.58, 0.10, 0.5, 0.16, 0.08, 1.09),
    "Whale": BotTargets(0.68, 0.12, 0.55, 0.12, 0.18, 1.06),
}


def quick_strength(hole: Sequence[int], board: Sequence[int]) -> float:
    """Cheap 0..10 strength heuristic for bot policies (not the hero model)."""
    cards = tuple(hole) + tuple(board)
    score = hand_score(cards)
    cat = score >> 20
    branks = [c >> 2 for c in board]
    bt0 = max(branks)
    r1, r2 = hole[0] >> 2, hole[1] >> 2
    made = 0.3
    if cat >= 6:
        made = 9.2
    elif cat == 5:
        made = 8.6
    elif cat == 4:
        made = 8.2
    elif cat == 3:
        made = 8.0
    elif cat == 2:
        pairs = {(score >> 16) & 0xF, (score >> 12) & 0xF}
        made = 6.8 if (r1 in pairs or r2 in pairs) else 1.0
    elif cat == 1:
        pp = (score >> 16) & 0xF
        distinct = sorted(set(branks), reverse=True)
        second = distinct[1] if len(distinct) > 1 else distinct[0]
        if r1 == r2 == pp:
            made = 6.3 if pp > bt0 else (3.0 if pp > second else 2.2)
        elif pp in (r1, r2):
            kick = r2 if r1 == pp else r1
            made = (5.2 + kick / 25.0) if pp == bt0 else (3.2 if pp >= second else 2.2)
        else:
            made = 0.8 if max(r1, r2) > bt0 else 0.3
    else:
        made = 1.0 if max(r1, r2) > bt0 else 0.3
    if len(board) < 5:
        suits = [c & 3 for c in cards]
        flushy = [s for s in range(4) if suits.count(s) == 4]
        fd = bool(flushy) and (hole[0] & 3 in flushy or hole[1] & 3 in flushy)
        mask = 0
        for c in cards:
            mask |= 1 << (c >> 2)
        outs = 4 * int(STRAIGHT_OUTS[mask])
        draw = 0.0
        if fd and outs >= 4:
            draw = 4.2
        elif fd or outs >= 7:
            draw = 3.4
        elif outs >= 4:
            draw = 1.5
        made = max(made, draw)
    return made


# How far each bot's tendencies stray from its archetype's targets.
BOT_JITTER = 0.02


class BotPolicy:
    """Archetype-shaped policy: pre-flop chart from the hand's strength
    percentile, post-flop mixed responses parameterized by aggression and
    fold tendencies. All randomness comes from the bot's own seeded stream,
    so sessions replay identically."""

    def __init__(self, player_id: str, archetype: str, rng: DealRng):
        self.player_id = player_id
        self.archetype = archetype
        t = ARCHETYPE_TARGETS[archetype]
        j = lambda: (rng.random() * 2 - 1) * BOT_JITTER
        self.vpip = min(0.95, t.vpip + j())
        self.pfr = max(0.01, t.pfr + j())
        self.af = max(0.1, t.af * (1 + j()))
        self.fold_to_cbet = min(0.95, max(0.02, t.fold_to_cbet + j()))
        self.donk = max(0.0, t.donk + j() / 2)
        self.chart_widen = t.chart_widen
        self.rng = rng

    def __call__(self, view: PolicyView):
        if view.street == "preflop":
            return self._preflop(view)
        return self._postflop(view)

    def _preflop(self, view: PolicyView):
        pct = combo_percentile(*view.hole)
        vpip_chart = min(0.97, self.vpip * self.chart_widen)
        to_call = view.to_call_cents
        free = to_call <= 0
        if not view.preflop_raised:
            if pct < self.pfr:
                target = min(view.street_committed_cents + view.stack_cents, 3 * view.bb_cents + view.num_limpers * view.bb_cents)
                if target > view.current_bet_cents:
                    return (ActionType.RAISE, target)
                return (ActionType.CALL, 0) if not free else (ActionType.CHECK, 0)
            if pct < vpip_chart:
                return (ActionType.CHECK, 0) if free else (ActionType.CALL, 0)
            return (ActionType.CHECK, 0) if free else (ActionType.FOLD, 0)
        # facing a raise (or reraise)
        heavy = view.current_bet_cents > 4 * view.bb_cents
        if pct < self.pfr * 0.22 and not view.facing_allin:
            target = min(
                view.street_committed_cents + view.stack_cents,
                max(view.min_raise_to_cents, 3 * view.current_bet_cents),
            )
            return (ActionType.RAISE, target)
        discipline = 0.70 if self.af >= 1.5 else 0.92
        cont = vpip_chart * discipline * (0.5 if heavy else 1.0)
        if pct < cont:
            return (ActionType.CALL, 0)
        return (ActionType.CHECK, 0) if free else (ActionType.FOLD, 0)

    def _postflop(self, view: PolicyView):
        s = quick_strength(view.hole, view.board)
        r = self.rng.random()
        pot = view.pot_cents
        if view.to_call_cents > 0:
            price = view.to_call_cents / (pot + view.to_call_cents)
            if s >= 6.5:
                if r < min(0.75, self.af / 4.5) and "raise" in view.legal:
                    target = min(
                        view.street_committed_cents + view.stack_cents,
                        max(view.min_raise_to_cents, view.current_bet_cents * 3),
                    )
                    return (ActionType.RAISE, target)
                return (ActionType.CALL, 0)
            if s >= 3.0:
                stickiness = 1.0 - self.fold_to_cbet * (1.0 - s / 9.0)
                if r < stickiness or price < 0.2:
                    return (ActionType.CALL, 0)
                return (ActionType.FOLD, 0)
            if r < 0.03 * self.af and "raise" in view.legal and not view.facing_allin:
                target = min(
                    view.street_committed_cents + view.stack_cents,
                    max(view.min_raise_to_cents, view.current_bet_cents * 3),
                )
                return (ActionType.RAISE, target)
            if r < (1.0 - self.fold_to_cbet) * 0.6 and price < 0.34:
                return (ActionType.CALL, 0)
            return (ActionType.FOLD, 0)
        # unopened
        can_donk = view.prev_street_aggressor is not None and not view.is_prev_street_aggressor
        bet_cents = max(view.bb_cents, int(pot * (0.5 + 0.25 * min(1.0, self.af / 3))))
        bet_cents = min(bet_cents, view.stack_cents)
        if can_donk and (s >= 2.5 or s >= 1.4) and r < self.donk:
            return (ActionType.BET, bet_cents)
        if s >= 5.5 and r < 0.35 + self.af / 6:
            return (ActionType.BET, bet_cents)
        if s >= 3.0 and r < self.af / 12:
            return (ActionType.BET, bet_cents)
        if s < 1.4 and r < 0.035 * self.af:
            return (ActionType.BET, bet_cents)
        return (ActionType.CHECK, 0)


# ---------------------------------------------------------------------------
# History file format (versioned, round-trips byte-identically)
# ---------------------------------------------------------------------------

HISTORY_VERSION = "HHv1"
# The header as record_to_lines writes it: these keys in this order, each
# once, "fail" optional, any whitespace run between fields.
_HEADER = re.compile(
    rf"\s*{HISTORY_VERSION}\s+hand=(\S*)\s+table=(\S*)\s+btn=(\S*)\s+sb=(\S*)\s+bb=(\S*)\s+flop=(\S*)"
    r"(?:\s+fail=(\S*))?\s*"
)


def record_to_lines(record: HandRecord) -> list[str]:
    lines = [
        f"{HISTORY_VERSION} hand={record.hand_id} table={record.table_id} btn={record.button} "
        f"sb={record.sb_cents} bb={record.bb_cents} flop={int(record.saw_flop)} fail={int(record.failure_injected)}"
    ]
    for seat, pid, stack in record.seats:
        lines.append(f"SEAT {seat} {pid} {stack}")
    for seat in sorted(record.holes):
        a, b = record.holes[seat]
        lines.append(f"HOLE {seat} {card_str(a)}{card_str(b)}")
    if record.board:
        lines.append("BOARD " + "".join(card_str(c) for c in record.board))
    for street, seat, action, committed in record.actions:
        lines.append(f"ACT {street} {seat} {action} {committed}")
    for seat, (a, b) in record.showdown:
        lines.append(f"SHOW {seat} {card_str(a)}{card_str(b)}")
    for seat in sorted(record.awards):
        if record.awards[seat] or record.rake_paid.get(seat, 0):
            lines.append(f"AWARD {seat} {record.awards[seat]} {record.rake_paid.get(seat, 0)}")
    for seat in sorted(record.net):
        lines.append(f"NET {seat} {record.net[seat]}")
    lines.append("END")
    return lines


def write_history(records: Iterable[HandRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write("\n".join(record_to_lines(record)) + "\n")


# Every two-card string of canonical spellings ("AhKd"), to its indices:
# most card fields are HOLE and SHOW pairs, seven a hand. Reading those two
# characters at a time too makes parse_history take 1.2x as long on a
# 10,000-hand simulate history; the table costs 0.5 ms and 0.2 MB at import.
# Board fields are read two characters at a time through the one-card
# entries. A field the tables miss goes through parse_cards, which accepts
# more spellings ("ah", "AH") and words the errors.
_CARD_OF = {card_str(i): i for i in range(52)}
_TWO_CARDS_OF = {a + b: (i, j) for a, i in _CARD_OF.items() for b, j in _CARD_OF.items()}


def _field_cards(text: str) -> tuple[int, ...]:
    pair = _TWO_CARDS_OF.get(text)
    if pair is not None:
        return pair
    try:
        return tuple([_CARD_OF[text[i : i + 2]] for i in range(0, len(text), 2)])
    except KeyError:
        return tuple(parse_cards(text))


def parse_history(path: str) -> list[HandRecord]:
    """Records of a history file, read line by line. A malformed line,
    including one with a field too many or too few, raises
    HistoryFormatError naming it. Tags are tested most common first, and
    repeated street, action, player and table names share one string. The
    header must match _HEADER; each record's seats, actions and showdown
    become tuples at its END line.

    An ACT line seen before reuses its parsed tuple. At fixed blinds bet
    sizes repeat: a 10,000-hand simulate history (seed 2023) has 121k ACT
    lines, of which 5.4k are distinct (15.9k at 200-cent blinds). There
    the reuse makes parsing about 1.18x faster (median of six paired runs
    at each blind size) and the records 26-29% smaller (20.4 against
    28.7 MiB by tracemalloc at 1/2-cent blinds). A copy whose ACT lines
    all differ parses 1.24x slower for it and peaks at 45 against 32 MiB."""
    records: list[HandRecord] = []
    names: dict[str, str] = {}
    intern = names.setdefault
    act_of: dict[str, tuple[str, int, str, int]] = {}
    cards = _field_cards
    header_of = _HEADER.fullmatch
    opened = 0  # line of the open record's header; 0 when none is open
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            act = act_of.get(raw)
            if act is not None and opened:
                actions.append(act)
                continue
            parts = raw.split()
            if not parts:
                continue
            tag = parts[0]
            if not opened and tag != HISTORY_VERSION:
                raise HistoryFormatError(f"line {lineno}: record body before header")
            try:
                if tag == "ACT":
                    _, street, seat, action, committed = parts
                    act = act_of[raw] = (intern(street, street), int(seat), intern(action, action), int(committed))
                    actions.append(act)
                elif tag == "SEAT":
                    _, seat, pid, stack = parts
                    seats.append((int(seat), intern(pid, pid), int(stack)))
                elif tag == "HOLE":
                    _, seat, pair = parts
                    holes[int(seat)] = cards(pair)
                elif tag == "NET":
                    _, seat, amount = parts
                    net[int(seat)] = int(amount)
                elif tag == "END":
                    (_,) = parts
                    records.append(
                        HandRecord(
                            *head, tuple(seats), holes, board, tuple(actions), tuple(showdown), awards, rake_paid, net, *flags
                        )
                    )
                    opened = 0
                elif tag == "AWARD":
                    _, seat, amount, rake = parts
                    seat = int(seat)
                    awards[seat] = int(amount)
                    rake_paid[seat] = int(rake)
                elif tag == "BOARD":
                    _, dealt = parts
                    board = cards(dealt)
                elif tag == "SHOW":
                    _, seat, pair = parts
                    showdown.append((int(seat), cards(pair)))
                elif tag == HISTORY_VERSION:
                    if opened:
                        raise HistoryFormatError(
                            f"line {lineno}: header inside the unterminated record of line {opened}"
                        )
                    header = header_of(raw)
                    if header is None:
                        raise HistoryFormatError(
                            f"line {lineno}: header keys must be hand, table, btn, sb, bb, flop"
                            " and an optional fail, each once, in that order"
                        )
                    hand_id, table_id, btn, sb, bb, flop, fail = header.groups()
                    head = (int(hand_id), intern(table_id, table_id), int(btn), int(sb), int(bb))
                    flags = (bool(int(flop)), fail is not None and bool(int(fail)))
                    seats, holes, board, actions, showdown, awards, rake_paid, net = [], {}, (), [], [], {}, {}, {}
                    opened = lineno
                else:
                    raise HistoryFormatError(f"line {lineno}: unknown tag {tag!r}")
            except HistoryFormatError:  # a ValueError already naming its line
                raise
            except (ValueError, KeyError, IndexError) as e:
                raise HistoryFormatError(f"line {lineno}: {e}") from None
    if opened:
        raise HistoryFormatError(f"line {opened}: unterminated record at end of file")
    if not records:
        raise HistoryFormatError("empty history file")
    return records
