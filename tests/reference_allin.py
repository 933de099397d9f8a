"""Reference all-in adjustment used as an oracle for `metrics.all_in_adjusted`.

It finds the lock point the slow way: it replays the action stream,
rebuilding blinds, commitments and live seats, and tests the lock condition
after every action. The equity and the formula are the program's own, so a
difference can only come from where the lock falls or from what the hero is
counted as having invested.
"""
from __future__ import annotations

from holdemlab.metrics import _equity_multiway
from holdemlab.table import HandRecord, positions_for


def adjusted_at_seat_by_walk(record: HandRecord, hero_seat: int) -> int:
    """The hero seat's all-in adjusted net, with the lock point found by
    replaying every action."""
    actual = record.net.get(hero_seat, 0)
    if len(record.showdown) < 2 or hero_seat not in dict(record.showdown):
        return actual

    # Walk the action stream to find the lock point: the first moment the
    # hero is all-in (or every opponent is) while the hand is still live.
    street_board_len = {"preflop": 0, "flop": 3, "turn": 4, "river": 5}
    stacks = {seat: stack for seat, _, stack in record.seats}
    committed = {seat: 0 for seat, _, _ in record.seats}
    live = {seat for seat, _, stack in record.seats if stack > 0}  # the engine deals in seats with chips
    pos = positions_for(sorted(live), record.button)
    for seat, name in pos.items():
        if name == "sb":
            committed[seat] = min(record.sb_cents, stacks[seat])
        elif name == "bb":
            committed[seat] = min(record.bb_cents, stacks[seat])
    street_b = dict(committed)
    cur_street = "preflop"
    lock_board_len: int | None = None
    showdown_seats = {s for s, _ in record.showdown}

    def allin(seat: int) -> bool:
        return committed[seat] >= stacks[seat]

    for street, seat, action, to_amount in record.actions:
        if street != cur_street:
            cur_street = street
            street_b = {s: 0 for s in street_b}
        if action == "fold":
            live.discard(seat)
        elif action in ("call", "bet", "raise", "allin"):
            committed[seat] += to_amount - street_b[seat]
            street_b[seat] = to_amount
        live_sd = live & showdown_seats
        # Lock at the first moment the hero's chips are fully committed with
        # a live caller, or every live opponent's are (hero merely covers).
        if (
            lock_board_len is None
            and hero_seat in live
            and len(live_sd) >= 2
            and (allin(hero_seat) or all(allin(s) for s in live_sd if s != hero_seat))
        ):
            lock_board_len = street_board_len[cur_street]
    if lock_board_len is None or lock_board_len >= 5:
        return actual

    board = record.board[:lock_board_len]
    villains = [h for s, h in record.showdown if s != hero_seat]
    hero_hole = dict(record.showdown)[hero_seat]
    equity = _equity_multiway(hero_hole, villains, board, seed=record.hand_id)
    pot = sum(record.awards.values())
    rake = record.total_rake()
    invested = committed[hero_seat]
    return int(round(equity * (pot - rake))) - invested
