"""Shared action/street vocabulary and the witnessed-event record."""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum


class Street(IntEnum):
    PREFLOP = 0
    FLOP = 1
    TURN = 2
    RIVER = 3

    @property
    def key(self) -> str:
        return self.name.lower()


class ActionType(IntEnum):
    FOLD = 0
    CHECK = 1
    CALL = 2
    BET = 3
    RAISE = 4
    ALL_IN = 5

    @property
    def key(self) -> str:
        return _ACTION_KEYS[self]


_ACTION_KEYS = tuple({"ALL_IN": "allin"}.get(a.name, a.name.lower()) for a in ActionType)


@dataclass(frozen=True)
class ActionEvent:
    """One witnessed table action. Amounts are in big blinds; the event log
    is append-only, so derived statistics stay recomputable from scratch."""

    hand_id: int
    player_id: str
    street: Street
    action: ActionType
    amount_bb: float  # total committed by this action, 0 for fold/check
    pot_before_bb: float
    position: str
    timestamp: float = 0.0

    def __post_init__(self):
        if self.amount_bb < 0 or self.pot_before_bb < 0:
            raise ValueError("amounts must be nonnegative")
