"""Scripted-hand scenarios: fixed deals, declared archetypes, scripted
villain actions, and checkable assertions over the range pipeline.

The hero's seat is driven by the live decision layer; every other seat
replays its script. The run emits a decision trace per reshaping step
(template id, strength distribution, ChiB) plus per-street grid snapshots
suitable for the heatmap renderer.

A scenario seats two to six players on `seat <idx> <player_id>
<archetype|hero> <stack_bb> <hole>` lines numbered 0 to n - 1, each number
and each player id once; one seat is the hero's (`seat <idx> hero hero
...`), every other names one of `rangegrid.ARCHETYPES`, and `button <idx>`
names a seat. A hole is two cards, and `board` names 0, 3, 4
or 5 distinct cards; no card is dealt twice. `blinds <sb> <bb>` are cents
with bb >= 1 and 0 <= sb <= bb, a stack is a positive number of big
blinds (at least one cent), `seed` is >= 0, and an `act` amount is a
positive number of big blinds. `parse_scenario` refuses a file that
breaks one of these rules, naming the line that breaks it.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .brain import Brain
from .cards import card_str, parse_cards, validate_board
from .events import from_key
from .profiles import ProfileStore
from .rangegrid import ARCHETYPES, grid_to_lines
from .rsm import RsmTable
from .session import HERO_ID, HeroSeatPolicy
from .table import MAX_SEATS, HandRecord, SeatConfig, _ScriptedSeatPolicy, _stacked_deck, play_hand

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge, "==": operator.eq}


class ScenarioError(ValueError):
    """Malformed scenario file; message carries the line number."""


@dataclass
class ScenarioSeat:
    seat: int
    player_id: str
    archetype: str  # "hero" marks the brain-driven seat
    stack_bb: float
    hole: tuple[int, int]


@dataclass
class Assertion:
    kind: str
    args: tuple[str, ...]
    line: int


@dataclass
class ScenarioFile:
    name: str
    sb_cents: int
    bb_cents: int
    button: int
    seed: int
    seats: list[ScenarioSeat]
    board: tuple[int, ...]
    script: list[tuple[str, str, float | None]]  # (player_id, action key, amount_bb)
    assertions: list[Assertion]

    @property
    def hero(self) -> ScenarioSeat:
        """The hero's seat; `parse_scenario` refuses a scenario without one."""
        return next(seat for seat in self.seats if seat.archetype == "hero")


def parse_scenario(text: str, *, source: str = "<scenario>") -> ScenarioFile:
    name = "scenario"
    sb, bb = 1, 2
    button, button_line = 0, 0
    seed = 1
    seats: list[ScenarioSeat] = []
    seat_lines: list[int] = []
    board: tuple[int, ...] = ()
    script: list[tuple[str, str, float | None]] = []
    script_lines: list[int] = []
    assertions: list[Assertion] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "name":
                name = parts[1]
            elif parts[0] == "blinds":
                sb, bb = int(parts[1]), int(parts[2])
                if bb < 1:
                    raise ValueError(f"big blind {bb} is not >= 1")
                if not 0 <= sb <= bb:
                    raise ValueError(f"small blind {sb} is not in [0, {bb}]")
            elif parts[0] == "button":
                button, button_line = int(parts[1]), lineno
            elif parts[0] == "seed":
                seed = int(parts[1])
                if seed < 0:
                    raise ValueError(f"seed {seed} is not >= 0")
            elif parts[0] == "seat":
                if len(seats) == MAX_SEATS:
                    raise ValueError(f"too many seats: a table seats at most {MAX_SEATS} players")
                if parts[3] == "hero" and parts[2] != HERO_ID:
                    raise ValueError(f"the hero seat's player id must be {HERO_ID!r}")
                if parts[3] != "hero" and parts[3] not in ARCHETYPES:
                    raise ValueError(f"unknown archetype {parts[3]!r}; want hero or one of {', '.join(ARCHETYPES)}")
                stack_bb = _positive(parts[4], "stack")
                hole = tuple(parse_cards(parts[5]))
                if len(hole) != 2:
                    raise ValueError(f"hole {parts[5]} is not two cards")
                seats.append(ScenarioSeat(int(parts[1]), parts[2], parts[3], stack_bb, hole))
                seat_lines.append(lineno)
            elif parts[0] == "board":
                board = validate_board(parse_cards("".join(parts[1:])))
            elif parts[0] == "act":
                action = from_key(parts[2]).key
                amount = _positive(parts[3], f"{parts[1]}: {action} amount") if len(parts) > 3 else None
                if amount is None and action in ("bet", "raise"):
                    raise ValueError(f"{parts[1]}: {action} needs an amount")
                script.append((parts[1], action, amount))
                script_lines.append(lineno)
            elif parts[0] == "assert":
                assertions.append(Assertion(parts[1], tuple(parts[2:]), lineno))
            else:
                raise ValueError(f"unknown directive {parts[0]!r}")
        except (IndexError, ValueError) as e:
            raise ScenarioError(f"{source}:{lineno}: {e}") from None
    if len(seats) < 2:
        raise ScenarioError(f"{source}: need at least two seated players, found {len(seats)}")
    _check_seats(seats, seat_lines, source)
    for seat, lineno in zip(seats, seat_lines):
        if round(seat.stack_bb * bb) < 1:
            raise ScenarioError(f"{source}:{lineno}: stack {seat.stack_bb:g} is under one cent at a big blind of {bb}")
    if button not in range(len(seats)):
        raise ScenarioError(f"{source}:{button_line}: button {button} names no seat")
    scripted = {s.player_id for s in seats if s.archetype != "hero"}
    for (pid, _, _), lineno in zip(script, script_lines):
        if pid not in scripted:
            raise ScenarioError(f"{source}:{lineno}: act names {pid!r}, which has no scripted seat")
    all_cards = [c for s in seats for c in s.hole] + list(board)
    if len(set(all_cards)) != len(all_cards):
        raise ScenarioError(f"{source}: deal contains duplicate cards")
    return ScenarioFile(name, sb, bb, button, seed, seats, board, script, assertions)


def _positive(text: str, what: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise ValueError(f"{what} {text} is not a positive number")
    return value


def _check_seats(seats: list[ScenarioSeat], lines: list[int], source: str) -> None:
    """Seats are numbered 0 to n - 1, one line each, with one player id
    each, and one of them is the hero's."""
    numbers: dict[int, int] = {}
    ids: dict[str, int] = {}
    for seat, lineno in zip(seats, lines):
        where = f"{source}:{lineno}"
        if seat.seat in numbers:
            raise ScenarioError(f"{where}: seat {seat.seat} is taken by line {numbers[seat.seat]}")
        if seat.seat not in range(len(seats)):
            raise ScenarioError(f"{where}: seat {seat.seat}: {len(seats)} seats are numbered 0 to {len(seats) - 1}")
        if seat.player_id in ids:
            raise ScenarioError(f"{where}: player {seat.player_id!r} already sits on line {ids[seat.player_id]}")
        numbers[seat.seat] = ids[seat.player_id] = lineno
    if not any(seat.archetype == "hero" for seat in seats):
        raise ScenarioError(
            f"{source}:{lines[0]}: no seat is the hero's: one must read 'seat <idx> hero hero <stack_bb> <hole>'"
        )


def load_scenario(path) -> ScenarioFile:
    return parse_scenario(Path(path).read_text(encoding="utf-8"), source=str(path))


@dataclass
class StepTrace:
    player_id: str
    stage: str
    street: str
    ret_id: str | None
    support: int
    distribution: np.ndarray | None


@dataclass
class ScenarioResult:
    scenario: ScenarioFile
    record: HandRecord
    steps: list[StepTrace]
    hero_chib: dict[str, float]  # street -> max ChiB among live reads
    failures: list[str]
    snapshots: dict[tuple[str, str], list[str]]  # (player, stage) -> range lines

    @property
    def passed(self) -> bool:
        return not self.failures

    def trace_text(self) -> str:
        lines = [f"scenario {self.scenario.name}: board {' '.join(card_str(c) for c in self.scenario.board)}"]
        for step in self.steps:
            dist = ""
            if step.distribution is not None:
                dist = " dist=[" + " ".join(f"{x:.3f}" for x in step.distribution) + "]"
            ret = step.ret_id or "-"
            lines.append(
                f"{step.player_id:>12} {step.street:<7} {step.stage:<7} ret={ret:<7} support={step.support:<5}{dist}"
            )
        for street, cb in sorted(self.hero_chib.items()):
            lines.append(f"hero ChiB on {street}: {cb:.4f}")
        lines.append("assertions: " + ("all passed" if self.passed else f"{len(self.failures)} FAILED"))
        lines.extend(f"  FAIL {f}" for f in self.failures)
        return "\n".join(lines)


def run_scenario(scenario: ScenarioFile) -> ScenarioResult:
    brain = Brain(ProfileStore(), rsm_table=RsmTable(), seed=scenario.seed)
    hero = scenario.hero
    policy = HeroSeatPolicy(brain)
    brain.begin_hand(
        1,
        hero.hole,
        [(s.player_id, s.archetype) for s in scenario.seats if s.archetype != "hero"],
    )
    moves: dict[str, list[tuple[None, str, int]]] = {
        s.player_id: [] for s in scenario.seats if s.archetype != "hero"
    }
    for pid, action, amount_bb in scenario.script:
        # the engine ignores the amount of an all-in
        cents = 0 if amount_bb is None else int(round(amount_bb * scenario.bb_cents))
        moves[pid].append((None, action, cents))
    scripts = {pid: _ScriptedSeatPolicy(m, fallback=True) for pid, m in moves.items()}
    seats = [
        SeatConfig(
            s.player_id,
            int(round(s.stack_bb * scenario.bb_cents)),
            policy if s.archetype == "hero" else scripts[s.player_id],
        )
        for s in sorted(scenario.seats, key=lambda x: x.seat)
    ]
    record = play_hand(
        1,
        scenario.name,
        seats,
        scenario.button,
        scenario.sb_cents,
        scenario.bb_cents,
        _stacked_deck((s.hole for s in sorted(scenario.seats, key=lambda s: s.seat)), scenario.board),
        observer=policy,
    )
    leftovers = [pid for pid, sp in scripts.items() if sp.moves]
    failures: list[str] = []
    if leftovers:
        failures.append(f"unconsumed script actions for: {', '.join(sorted(leftovers))}")

    steps: list[StepTrace] = []
    snapshots: dict[tuple[str, str], list[str]] = {}
    for pid, tracker in brain.trackers.items():
        for i, step in enumerate(tracker.history):
            steps.append(StepTrace(pid, step.stage, step.street, step.ret_id, step.support, step.distribution))
            snapshots[(pid, f"{i:02d}_{step.street}_{step.ret_id or 'assign'}")] = grid_to_lines(step.grid)

    hero_chib: dict[str, float] = {}
    for snap in brain.snapshots:
        cb = snap["read"].chib
        if cb is not None:
            street = snap["street"]
            hero_chib[street] = max(hero_chib.get(street, 0.0), float(cb))

    for a in scenario.assertions:
        fail = _check_assertion(a, brain, hero_chib, record)
        if fail:
            failures.append(fail)

    return ScenarioResult(scenario, record, steps, hero_chib, failures, snapshots)


def _check_assertion(a: Assertion, brain: Brain, hero_chib: dict[str, float], record: HandRecord) -> str | None:
    try:
        if a.kind == "ret_sequence":
            pid, expected = a.args[0], a.args[1].split(",")
            got = brain.trackers[pid].applied_ret_ids()
            if got != expected:
                return f"line {a.line}: ret_sequence {pid}: expected {expected}, got {got}"
        elif a.kind == "grid_weight":
            pid, combo, op, value = a.args
            c1, c2 = parse_cards(combo)
            w = brain.trackers[pid].grid.weight_of_combo(c1, c2)
            if not _OPS[op](w, float(value)):
                return f"line {a.line}: grid_weight {pid} {combo}: {w:.6g} !{op} {value}"
        elif a.kind == "chib":
            street, op, value = a.args
            got = hero_chib.get(street)
            if got is None:
                return f"line {a.line}: no hero ChiB recorded on {street}"
            if not _OPS[op](got, float(value)):
                return f"line {a.line}: chib on {street}: {got:.4f} !{op} {value}"
        elif a.kind == "support_monotone":
            pid = a.args[0]
            supports = [s.support for s in brain.trackers[pid].history]
            if any(b > a_ for a_, b in zip(supports, supports[1:])):
                return f"line {a.line}: support grew for {pid}: {supports}"
        elif a.kind == "winner":
            pid = a.args[0]
            seat = record.hero_seat_of(pid)
            if seat is None or record.net.get(seat, 0) <= 0:
                return f"line {a.line}: expected {pid} to win the pot"
        else:
            return f"line {a.line}: unknown assertion {a.kind!r}"
    except KeyError as e:
        return f"line {a.line}: unknown player {e}"
    return None
