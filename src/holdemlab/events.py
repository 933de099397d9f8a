"""Shared action/street vocabulary and the witnessed-event record."""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import TypeVar


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

_Keyed = TypeVar("_Keyed", Street, ActionType)
_BY_KEY = {kind: {m.key: m for m in kind} for kind in (Street, ActionType)}


def from_key(kind: type[_Keyed], word: str) -> _Keyed:
    """The `Street` or `ActionType` member whose `key` is `word`, in any
    case ("flop", "allin"). An unknown word raises ValueError naming it."""
    member = _BY_KEY[kind].get(word.lower())
    if member is None:
        raise ValueError(f"unknown {kind.__name__} {word!r}")
    return member


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
