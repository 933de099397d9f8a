"""Reference hero observer used as an oracle for `session.HeroSeatPolicy`.

It is the observer's old bookkeeping: eight fields of hand state (whether
the hero folded or is all-in, the street of the read, who holds the
initiative, who held it as the street began and whether that player has
acted on it, and which villains are live or all-in), copied action by
action from the engine's calls instead of read from the engine. It calls
the brain and the profile store as the program's observer does, so two
runs over the same hands can differ only where the two keep the state
differently.
"""
from __future__ import annotations

from holdemlab.cards import card_str
from holdemlab.events import ActionEvent
from holdemlab.session import HERO_ID


class ReferenceObserver:
    def __init__(self, brain):
        self.brain = brain
        self.store = brain.store

    def on_begin(self, engine) -> None:
        self.hand_id = engine.hand_id
        self.bb = engine.bb
        self.hero_folded = False
        self.hero_all_in = False
        self.street = "preflop"
        self.aggressor: str | None = None
        self.prev_street_aggressor: str | None = None
        self.aggressor_acted_this_street = False
        self.villains_live: set[str] = set()
        self.villains_all_in: set[str] = set()
        self._seq = 0

    def on_action(self, street, seat, player_id, action, committed_cents, pot_before_cents, position, all_in):
        if self.hero_folded:
            return
        self._seq += 1
        bb = self.bb
        self.store.record_event(
            ActionEvent(
                hand_id=self.hand_id,
                player_id=player_id,
                street=street,
                action=action,
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
            return
        if street == "preflop":
            if not is_hero:
                self.brain.observe_villain_preflop(player_id, action)
            else:
                self.brain.observe_hero_action(action, "preflop")
        else:
            if not is_hero:
                name = action
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
