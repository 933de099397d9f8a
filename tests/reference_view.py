"""Reference policy view: what a seat sees when asked to act, computed from
scratch from the engine's seats and action log at that moment.

`HandEngine.build_view` builds the same view from running values (the pot,
the live seats, the all-in count, the previous street's aggressor); this
rescans everything instead, so the tests can compare the two field by
field at every action.
"""
from __future__ import annotations

from holdemlab.table import PolicyView

_PREV_STREET = {"flop": "preflop", "turn": "flop", "river": "turn"}


def ref_view(engine, seat) -> PolicyView:
    others = [s for s in engine.seats if s.in_hand and s is not seat]
    to_call = max(0, engine.current_bet - seat.street_committed)
    # The previous street's aggressor: the seat whose bet, raise or all-in
    # last raised the bet level there (a short all-in is logged as a call).
    prev_street = _PREV_STREET.get(engine.street)
    prev = None
    for street, idx, action, _ in engine.actions:
        if street == prev_street and action in ("bet", "raise", "allin"):
            prev = idx
    if to_call <= 0:
        legal = ("fold", "check", "bet") if seat.stack > 0 else ("fold", "check")
    else:
        legal = ("fold", "call", "raise") if seat.stack > to_call else ("fold", "call")
    return PolicyView(
        hand_id=engine.hand_id,
        street=engine.street,
        position=engine.positions.get(seat.idx, "?"),
        hole=seat.hole,
        board=tuple(engine.board),
        pot_cents=sum(s.total_committed for s in engine.seats),
        to_call_cents=min(to_call, seat.stack),
        current_bet_cents=engine.current_bet,
        street_committed_cents=seat.street_committed,
        stack_cents=seat.stack,
        min_raise_to_cents=engine.current_bet + engine.min_raise_inc,
        bb_cents=engine.bb,
        num_limpers=engine.num_limpers,
        facing_allin=to_call > 0 and any(s.all_in for s in others),
        preflop_raised=engine.preflop_raised,
        prev_street_aggressor=prev,
        is_prev_street_aggressor=prev == seat.idx,
        action_level=engine.action_level,
        live_player_ids=tuple(s.player_id for s in others),
        legal=legal,
    )
