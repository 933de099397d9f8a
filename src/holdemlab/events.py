"""The street and action vocabulary, in the engine's words, and the
witnessed-event record.

A witnessed action keeps the words the engine logs ("flop", "allin") from
the table to the profile store and its event log. `ActionType` names the
same actions for the policies that emit them; `from_key` reads an action
word from outside text (scenario scripts, scripted seats).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

STREETS = ("preflop", "flop", "turn", "river")  # in the order they are dealt
STREET_CARDS = {"flop": 3, "turn": 4, "river": 5}  # board cards out once the street is dealt
ACTIONS = ("fold", "check", "call", "bet", "raise", "allin")  # ActionType's words, in its order


class ActionType(IntEnum):
    FOLD = 0
    CHECK = 1
    CALL = 2
    BET = 3
    RAISE = 4
    ALL_IN = 5

    @property
    def key(self) -> str:
        return ACTIONS[self]


_ACTION_OF = {word: ActionType(i) for i, word in enumerate(ACTIONS)}


def from_key(word: str) -> ActionType:
    """The `ActionType` whose word is `word`, in any case ("call", "ALLIN").
    An unknown word raises ValueError naming it."""
    action = _ACTION_OF.get(word.lower())
    if action is None:
        raise ValueError(f"unknown ActionType {word!r}")
    return action


@dataclass(frozen=True)
class ActionEvent:
    """One witnessed table action, in the engine's words. Amounts are in big
    blinds; the event log is append-only, so derived statistics stay
    recomputable from scratch."""

    hand_id: int
    player_id: str
    street: str  # one of STREETS
    action: str  # one of ACTIONS
    amount_bb: float  # total committed by this action, 0 for fold/check
    pot_before_bb: float
    position: str
    timestamp: float

    def __post_init__(self):
        if self.street not in STREETS:
            raise ValueError(f"unknown street {self.street!r}")
        if self.action not in ACTIONS:
            raise ValueError(f"unknown action {self.action!r}")
        if self.amount_bb < 0 or self.pot_before_bb < 0:
            raise ValueError("amounts must be nonnegative")
