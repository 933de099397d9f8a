"""Range reshaping templates and the strength-distribution pipeline.

A template is an 11-entry nonnegative weighting over relative-strength
categories. After an opponent acts, the template selected for that action
multiplies into their combo weights (per each combo's current category)
and the grid renormalizes; support can only shrink. The grid also yields
the 11-point strength distribution and ChiB, the probability mass of the
range whose current made hand beats the hero's.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .rangegrid import DATA_DIR, ComboGrid, combos_with_any
from .rsm import BoardContext, N_CATEGORIES, RsmTable


class RetFileError(ValueError):
    """Malformed template file; message carries the line number."""


class DegenerateRangeError(ValueError):
    """A query hit a range with no live support."""


@dataclass(frozen=True)
class RET:
    """One reshaping template."""

    ret_id: str
    label: str
    weights: np.ndarray  # (11,) nonnegative
    description: str = ""
    # [*weights, 0.0]: the factor of each category, and last the factor of
    # dead combos, whose category -1 indexes it from the end
    factors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (N_CATEGORIES,):
            raise RetFileError(f"{self.ret_id}: needs {N_CATEGORIES} weights")
        if (w < 0).any() or w.sum() <= 0:
            raise RetFileError(f"{self.ret_id}: weights must be nonnegative, not all zero")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "factors", np.append(w, 0.0))

    @property
    def is_flat(self) -> bool:
        return bool(np.all(self.weights == self.weights[0]))


FLAT_RET_ID = "RET11"


def parse_ret_lines(lines: Iterable[str], *, source: str = "<rets>") -> dict[str, RET]:
    rets: dict[str, RET] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(";")]
        if len(parts) < 3:
            raise RetFileError(f"{source}:{lineno}: expected 'id; label; w0..w10; description'")
        ret_id, label = parts[0], parts[1]
        try:
            weights = np.array([float(x) for x in parts[2].split()])
        except ValueError:
            raise RetFileError(f"{source}:{lineno}: bad weight list") from None
        description = parts[3] if len(parts) > 3 else ""
        if ret_id in rets:
            raise RetFileError(f"{source}:{lineno}: duplicate template id {ret_id!r}")
        try:
            rets[ret_id] = RET(ret_id, label, weights, description)
        except RetFileError as e:
            raise RetFileError(f"{source}:{lineno}: {e}") from None
    if not rets:
        raise RetFileError(f"{source}: no templates found")
    if FLAT_RET_ID not in rets:
        raise RetFileError(f"{source}: flat template {FLAT_RET_ID} must be present")
    if not rets[FLAT_RET_ID].is_flat:
        raise RetFileError(f"{source}: flat template {FLAT_RET_ID} needs equal weights")
    return rets


def load_ret_set() -> dict[str, RET]:
    """The shipped templates, data/rets.txt, by id."""
    text = (DATA_DIR / "rets.txt").read_text(encoding="utf-8")
    return parse_ret_lines(text.splitlines(), source="rets.txt")


# ---------------------------------------------------------------------------
# Dispatch: (street, archetype, action, aggressor, position) -> template id
# ---------------------------------------------------------------------------


# What each match field but the archetype may hold besides "*", as the
# header of data/ret_dispatch.txt documents. Archetypes are declared freely.
_DISPATCH_VOCABULARY = {
    "street": ("flop", "turn", "river"),
    "action": ("check", "call", "bet", "donk", "raise", "allin"),
    "aggressor": ("hero_agg", "villain_agg", "none"),
    "position": ("ip", "oop"),
}


@dataclass(frozen=True)
class DispatchRule:
    street: str
    archetype: str
    action: str
    aggressor: str
    position: str
    ret_id: str

    def specificity(self) -> int:
        return sum(f != "*" for f in (self.street, self.archetype, self.action, self.aggressor, self.position))

    def matches(self, street: str, archetype: str, action: str, aggressor: str, position: str) -> bool:
        return all(
            pat == "*" or pat == val
            for pat, val in (
                (self.street, street),
                (self.archetype, archetype),
                (self.action, action),
                (self.aggressor, aggressor),
                (self.position, position),
            )
        )


class RetDispatch:
    def __init__(self, rules: Sequence[DispatchRule], rets: Mapping[str, RET]):
        for rule in rules:
            if rule.ret_id not in rets:
                raise RetFileError(f"dispatch references unknown template {rule.ret_id!r}")
        self.rules = tuple(rules)
        self._selected: dict[tuple[str, str, str, str, str], str] = {}

    @classmethod
    def parse(cls, lines: Iterable[str], rets: Mapping[str, RET], *, source: str = "<dispatch>") -> "RetDispatch":
        rules = []
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "->" not in line:
                raise RetFileError(f"{source}:{lineno}: missing '->'")
            lhs, ret_id = (s.strip() for s in line.split("->", 1))
            fields = lhs.split()
            if len(fields) != 5:
                raise RetFileError(f"{source}:{lineno}: expected 5 match fields")
            rule = DispatchRule(*fields, ret_id=ret_id)
            for name, allowed in _DISPATCH_VOCABULARY.items():
                value = getattr(rule, name)
                if value != "*" and value not in allowed:
                    raise RetFileError(f"{source}:{lineno}: {name} {value!r} is not * or one of {', '.join(allowed)}")
            rules.append(rule)
        return cls(rules, rets)

    @classmethod
    def shipped(cls, rets: Mapping[str, RET]) -> "RetDispatch":
        text = (DATA_DIR / "ret_dispatch.txt").read_text(encoding="utf-8")
        return cls.parse(text.splitlines(), rets, source="ret_dispatch.txt")

    def select(self, street: str, archetype: str, action: str, aggressor: str, position: str) -> str:
        """Template id of the most specific matching rule (the first one on
        a specificity tie); memoized per situation, as the rules are fixed."""
        key = (street, archetype, action, aggressor, position)
        ret_id = self._selected.get(key)
        if ret_id is None:
            ret_id = self._selected[key] = self._select(*key)
        return ret_id

    def _select(self, street: str, archetype: str, action: str, aggressor: str, position: str) -> str:
        best: DispatchRule | None = None
        for rule in self.rules:
            if rule.matches(street, archetype, action, aggressor, position):
                if best is None or rule.specificity() > best.specificity():
                    best = rule
        if best is None:
            return FLAT_RET_ID
        return best.ret_id


# ---------------------------------------------------------------------------
# Pipeline operations
# ---------------------------------------------------------------------------


def reshape(grid: ComboGrid, ret: RET, categories: np.ndarray) -> ComboGrid:
    """Multiply the template weight of each combo's category into the grid
    and renormalize. `categories` are the combos' categories on the
    street's board (`RsmTable.categories_many` of its context), -1 where
    dead. Support never grows; an annihilated grid falls back
    degenerate-uniform over its prior support."""
    return grid._renormalized(grid.weights * ret.factors[categories])


def rs_distribution(grid: ComboGrid, ctx: BoardContext, rsm: RsmTable) -> np.ndarray:
    """Probability mass over the 11 categories for a normalized grid on `ctx`."""
    return _category_mass(grid, rsm.categories_many(ctx))


def _category_mass(grid: ComboGrid, cats: np.ndarray) -> np.ndarray:
    w = grid.weights
    live = (cats >= 0) & (w > 0)
    w_live = w[live]
    total = w_live.sum()
    if total <= 0:
        return np.zeros(N_CATEGORIES)
    mass = np.bincount(cats[live], weights=w_live, minlength=N_CATEGORIES)
    return mass / total


def chib(hero: Sequence[int], grid: ComboGrid, ctx: BoardContext) -> float:
    """Chance the hero is beaten right now: the normalized mass of combos
    whose current made hand outranks the hero's on the street's board
    (`ctx`). Combos that hold a hero card or a board card weigh nothing;
    both masks come from `ctx.hero_masks`, kept per hero."""
    kill, beats_hero = ctx.hero_masks(hero)
    w = np.where(kill, 0.0, grid.weights)
    total = w.sum()
    if total <= 0:
        raise DegenerateRangeError("no live combos against this hero")
    return float(w[beats_hero].sum() / total)


# ---------------------------------------------------------------------------
# Per-opponent tracking through a hand
# ---------------------------------------------------------------------------


class PipelineStep:
    """One stage of a tracker's range. A step holds what it applies to the
    step before it: a board's dead combos (`kill`), or a template (`ret`)
    under the categories it was dispatched with; the first step holds its
    grid instead. A later step's grid is computed on first read, from the
    prior step's grid, with `ComboGrid.strip_mask` or `reshape`; most steps
    are never read, as only equity estimates, showdown learning and
    scenarios read a grid. A computed step drops its prior and what it
    applied, so a chain of steps pins no memory.
    `support` and `distribution` are computed on read as well, from the
    grid and the categories."""

    __slots__ = ("stage", "street", "ret_id", "categories", "_grid", "_prior", "_kill", "_ret")

    def __init__(
        self,
        stage: str,  # "assign" / "street" / "action"; "hero" stays out of the history
        street: str,  # preflop/flop/turn/river
        ret_id: str | None,
        categories: np.ndarray | None,  # None before the flop
        *,
        grid: ComboGrid | None,
        prior: "PipelineStep | None",
        kill: np.ndarray | None,
        ret: RET | None,
    ):
        self.stage, self.street, self.ret_id, self.categories = stage, street, ret_id, categories
        self._grid, self._prior, self._kill, self._ret = grid, prior, kill, ret

    @property
    def grid(self) -> ComboGrid:
        if self._grid is None:
            self._grid = self._compute()
            self._prior = self._kill = self._ret = None
        return self._grid

    def _compute(self) -> ComboGrid:
        prior = self._prior.grid
        if self._ret is None:
            return prior.strip_mask(self._kill)
        return reshape(prior, self._ret, self.categories)

    @property
    def support(self) -> int:
        return self.grid.support_count()

    @property
    def distribution(self) -> np.ndarray | None:
        if self.categories is None:
            return None
        return _category_mass(self.grid, self.categories)


class OpponentRangeTracker:
    """Carries one opponent's range through a hand, recording every
    template application as a step. New community cards strip the range;
    observed actions reshape it through the dispatched template. `current`
    is the step that holds the range now; `grid` reads it."""

    def __init__(
        self,
        player_id: str,
        archetype: str,
        grid: ComboGrid,
        rsm: RsmTable,
        rets: Mapping[str, RET],
        dispatch: RetDispatch,
    ):
        self.player_id, self.archetype = player_id, archetype
        self.rsm, self.rets, self.dispatch = rsm, rets, dispatch
        self.current = PipelineStep("assign", "preflop", None, None, grid=grid, prior=None, kill=None, ret=None)
        self.history: list[PipelineStep] = [self.current]

    @property
    def grid(self) -> ComboGrid:
        return self.current.grid

    def strip_hero(self, hole: Sequence[int]) -> None:
        """Strip the hero's cards from the range, outside the history, which
        keeps the archetype's grid as assigned."""
        self.current = PipelineStep(
            "hero", "preflop", None, None, grid=None, prior=self.current, kill=combos_with_any(hole), ret=None
        )

    def on_new_street(self, ctx: BoardContext) -> PipelineStep:
        """Strip the cards of `ctx`, the new street's board. The step is
        labelled with the flat template, whose reshape would leave the grid as
        it is: `parse_ret_lines` rejects a flat template with unequal weights."""
        categories = self.rsm.categories_many(ctx)
        return self._record(
            PipelineStep(
                "street", ctx.street, FLAT_RET_ID, categories, grid=None, prior=self.current, kill=ctx.dead_mask, ret=None
            )
        )

    def on_action(self, action: str, ctx: BoardContext, *, aggressor: str = "none", position: str = "oop") -> PipelineStep:
        ret_id = self.dispatch.select(ctx.street, self.archetype, action, aggressor, position)
        categories = self.rsm.categories_many(ctx)
        return self._record(
            PipelineStep(
                "action", ctx.street, ret_id, categories, grid=None, prior=self.current, kill=None, ret=self.rets[ret_id]
            )
        )

    def _record(self, step: PipelineStep) -> PipelineStep:
        self.current = step
        self.history.append(step)
        return step

    def applied_ret_ids(self) -> list[str]:
        return [s.ret_id for s in self.history if s.ret_id is not None]
