"""Win-rate accounting: net/adjusted ledgers, BB/100, rake and rakeback,
variance segmentation, confidence intervals, and the failure cost model.

Ledger arithmetic is integer cents; the identity
    net = pre-rake - rake + rakeback
holds exactly per hand and cumulatively. The all-in adjusted column swaps a
hand's actual result for its expectation at the moment the money went in:
the street on which the hero, or every opponent who reached showdown, had
put in a whole stack. That expectation ignores uncalled excess and side
pots, so with unequal stakes the column is approximate (see
`all_in_adjusted`). Only hands that could lock are searched: if every
showdown seat acted on the river, the hand keeps its actual net.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Iterable

import numpy as np

from .cards import card_str, pot_equity
from .table import HandRecord, positions_for

Z_95 = 1.959963984540054


class LedgerError(ValueError):
    pass


def bb100(amount_cents: int | float, hands: int, bb_cents: int | float) -> float:
    """Big blinds won per 100 hands."""
    if hands <= 0:
        raise LedgerError("win rate undefined for zero hands")
    return (amount_cents / bb_cents) / (hands / 100.0)


@dataclass(slots=True)
class LedgerRow:
    hand_id: int
    net_cents: int
    rake_cents: int  # rake attributed to the hero this hand
    adjusted_cents: int  # all-in adjusted net
    rakeback_cents: float

    @property
    def pre_rake_cents(self) -> int:
        return self.net_cents + self.rake_cents


@dataclass
class ResultLedger:
    bb_cents: int
    rakeback_rate: float = 0.069
    rows: list[LedgerRow] = field(default_factory=list)

    def add_hand(self, hand_id: int, net_cents: int, rake_cents: int, adjusted_cents: int | None = None) -> LedgerRow:
        row = LedgerRow(
            hand_id,
            net_cents,
            rake_cents,
            net_cents if adjusted_cents is None else adjusted_cents,
            self.rakeback_rate * rake_cents,
        )
        self.rows.append(row)
        return row

    @property
    def hands(self) -> int:
        return len(self.rows)

    def totals(self) -> dict[str, float]:
        net = sum(r.net_cents for r in self.rows)
        rake = sum(r.rake_cents for r in self.rows)
        adjusted = sum(r.adjusted_cents for r in self.rows)
        rakeback = sum(r.rakeback_cents for r in self.rows)
        return {
            "net": net,
            "rake": rake,
            "pre_rake": net + rake,
            "adjusted": adjusted,
            "rakeback": rakeback,
            "final": net + rakeback,
        }


@dataclass(frozen=True)
class FailureCostModel:
    """Cost of an operational failure mid-hand. Most failures happen when the
    correct action was folding anyway (zero direct cost); the rest forfeit
    the hand's equity, and every incident carries secondary costs (forced
    blinds on re-entry, reset stack)."""

    p_fold: float
    mean_equity_loss_bb: float
    secondary_cost_bb: float

    def __post_init__(self):
        if not (0.0 <= self.p_fold <= 1.0):
            raise LedgerError("p_fold must be a probability")


def failure_cost(model: FailureCostModel) -> tuple[float, float]:
    """(direct BB per incident, total BB per incident), exact decimal math."""
    p = Decimal(str(model.p_fold))
    loss = Decimal(str(model.mean_equity_loss_bb))
    secondary = Decimal(str(model.secondary_cost_bb))
    direct = (Decimal(1) - p) * loss
    total = direct + secondary
    return float(direct), float(total)


# ---------------------------------------------------------------------------
# All-in adjustment
# ---------------------------------------------------------------------------


# Runouts sampled per pre-flop lock. Flop and turn locks have at most 990
# runouts and are listed; a pre-flop lock has at least 201,376, even with
# ten players.
ALL_IN_RUNOUT_SAMPLES = 12_000


def _equity_multiway(hero_hole, villain_holes, board, seed: int = 0) -> float:
    """Hero's expected share of the pot vs revealed hands (ties split
    evenly), deterministic per seed."""
    return pot_equity([hero_hole, *villain_holes], board, samples=ALL_IN_RUNOUT_SAMPLES, seed=seed)


def all_in_adjusted(record: HandRecord, hero_id: str) -> int:
    """Adjusted net for the hero: if the hand locked all-in before the river,
    equity x (pot - rake) minus what the hero invested; otherwise the actual
    net.

    Only showdown seats count. Each is all-in from the first street by whose
    end its total reaches its starting stack (from the start of the hand if
    a blind covered it). The hand locks on the earlier of the hero's street
    and the last opponent's; the equity is taken against every showdown hand
    on the board dealt by then. When every showdown seat acted on the river,
    none was all-in before it, and the actual net is returned without the
    search. Only a record in which a seat acts after all its chips are in,
    which no engine writes, reads differently for that exit.

    Known limit: `pot` is every chip awarded, uncalled excess included, and
    one equity is applied to every side pot, so the value is off whenever the
    stakes differ. Hero 4d3d with 300 cents against 9h9s with 120, jam and
    call pre-flop, gives -213 against an actual -123.

    A locked hand whose showdown hands and board repeat a card raises
    LedgerError: its equity would be taken on a deck short of that card."""
    hero_seat = record.hero_seat_of(hero_id)
    if hero_seat is None:
        raise LedgerError(f"{hero_id} not in hand {record.hand_id}")
    return _adjusted_at_seat(record, hero_seat)


# Board cards dealt when a hand locks pre-flop, on the flop or on the turn;
# a river lock, or none, keeps the actual net.
_LOCK_BOARD_LEN = (0, 3, 4)


def _adjusted_at_seat(record: HandRecord, hero_seat: int) -> int:
    """all_in_adjusted for the hero's seat, once it is found."""
    actual = record.net.get(hero_seat, 0)
    if len(record.showdown) < 2 or hero_seat not in (holes := dict(record.showdown)) or not record.actions:
        return actual
    # A seat all-in before the river cannot act on it: if every showdown seat
    # acts in the trailing run of river actions, nothing locked earlier.
    on_river = set()
    for street, seat, _, _ in reversed(record.actions):
        if street != "river":
            break
        on_river.add(seat)
    if on_river >= holes.keys():
        return actual
    # Every action carries its seat's street total, so the last one per seat
    # and street is what the seat put in on that street.
    street_total = {(seat, street): to for street, seat, _, to in record.actions}
    stacks = {seat: stack for seat, _, stack in record.seats}

    def running_totals(seat: int) -> tuple[int, int, int, int]:
        """What the seat has put in by the end of each street."""
        preflop = street_total.get((seat, "preflop"))
        if preflop is None:  # never acted pre-flop: what it posted, if a blind
            # named among the seats dealt in, as the engine names them: a
            # seat with no chips is listed but not dealt in
            dealt = sorted(s for s, stack in stacks.items() if stack > 0)
            if record.button not in dealt:
                raise LedgerError(f"hand {record.hand_id}: btn {record.button} is not a listed seat with chips")
            try:
                position = positions_for(dealt, record.button).get(seat)
            except ValueError as e:  # more seats dealt in than a table has
                raise LedgerError(f"hand {record.hand_id}: {e}") from None
            preflop = min({"sb": record.sb_cents, "bb": record.bb_cents}.get(position, 0), stacks[seat])
        flop = preflop + street_total.get((seat, "flop"), 0)
        turn = flop + street_total.get((seat, "turn"), 0)
        return preflop, flop, turn, turn + street_total.get((seat, "river"), 0)

    totals = {seat: running_totals(seat) for seat in holes}
    # The index of the first street by whose end the seat is all-in; 4 if never.
    all_in_from = {seat: bisect_left(totals[seat], stacks[seat]) for seat in holes}
    lock = min(all_in_from.pop(hero_seat), max(all_in_from.values()))
    if lock >= len(_LOCK_BOARD_LEN):
        return actual

    dealt = [c for _, hole in record.showdown for c in hole] + list(record.board)
    if len(set(dealt)) < len(dealt):
        repeated = next(c for c in dealt if dealt.count(c) > 1)
        raise LedgerError(f"hand {record.hand_id}: {card_str(repeated)} repeats among the showdown hands and the board")
    board = record.board[: _LOCK_BOARD_LEN[lock]]
    villains = [h for s, h in record.showdown if s != hero_seat]
    equity = _equity_multiway(holes[hero_seat], villains, board, seed=record.hand_id)
    pot = sum(record.awards.values())
    rake = record.total_rake()
    invested = totals[hero_seat][-1]
    return int(round(equity * (pot - rake))) - invested


def ledger_from_records(
    records: Iterable[HandRecord], hero_id: str, bb_cents: int, rakeback_rate: float = 0.069
) -> ResultLedger:
    ledger = ResultLedger(bb_cents=bb_cents, rakeback_rate=rakeback_rate)
    for record in records:
        seat = record.hero_seat_of(hero_id)
        if seat is None:
            continue
        net = record.net.get(seat, 0)
        rake = record.rake_paid.get(seat, 0)
        ledger.add_hand(record.hand_id, net, rake, _adjusted_at_seat(record, seat))
    return ledger


# ---------------------------------------------------------------------------
# Variance and reporting
# ---------------------------------------------------------------------------


@dataclass
class SegmentReport:
    segment_size: int
    segment_bb100: list[float]
    spread_bb100: float
    per_hand_std_bb: float
    ci_half_width_bb100: float
    partial_segment: bool


# A report splits its hands into segments of this many (one, if it has fewer).
SEGMENT_HANDS = 10_000


def segment_analysis(ledger: ResultLedger, segment_size: int) -> SegmentReport:
    if ledger.hands == 0:
        raise LedgerError("empty ledger")
    nets = np.array([r.net_cents for r in ledger.rows], dtype=float) / ledger.bb_cents
    segments = []
    for lo in range(0, len(nets) - segment_size + 1, segment_size):
        chunk = nets[lo : lo + segment_size]
        segments.append(float(chunk.sum() / (segment_size / 100.0)))
    partial = len(nets) % segment_size != 0 or len(nets) < segment_size
    spread = (max(segments) - min(segments)) if len(segments) >= 2 else 0.0
    std = float(nets.std(ddof=1)) if len(nets) > 1 else 0.0
    ci = Z_95 * std / math.sqrt(len(nets)) * 100.0
    return SegmentReport(segment_size, segments, spread, std, ci, partial)


@dataclass
class TrialReport:
    hands: int
    bb_cents: int
    pre_rake_cents: int
    rake_cents: int
    rakeback_cents: float
    post_rake_cents: int
    adjusted_cents: int
    final_cents: float
    segment: SegmentReport | None

    @classmethod
    def from_ledger(cls, ledger: ResultLedger) -> "TrialReport":
        t = ledger.totals()
        seg = None
        if ledger.hands >= 2:
            seg = segment_analysis(ledger, min(SEGMENT_HANDS, ledger.hands))
        return cls(
            hands=ledger.hands,
            bb_cents=ledger.bb_cents,
            pre_rake_cents=int(t["pre_rake"]),
            rake_cents=int(t["rake"]),
            rakeback_cents=float(t["rakeback"]),
            post_rake_cents=int(t["net"]),
            adjusted_cents=int(t["adjusted"]),
            final_cents=float(t["final"]),
            segment=seg,
        )

    def rates(self) -> dict[str, float]:
        if self.hands == 0:
            return {k: 0.0 for k in ("pre_rake", "rake", "rakeback", "post_rake", "adjusted", "final")}
        return {
            "pre_rake": bb100(self.pre_rake_cents, self.hands, self.bb_cents),
            "rake": bb100(-self.rake_cents, self.hands, self.bb_cents),
            "rakeback": bb100(self.rakeback_cents, self.hands, self.bb_cents),
            "post_rake": bb100(self.post_rake_cents, self.hands, self.bb_cents),
            "adjusted": bb100(self.adjusted_cents, self.hands, self.bb_cents),
            "final": bb100(self.final_cents, self.hands, self.bb_cents),
        }

    def to_text(self) -> str:
        r = self.rates()
        dollars = lambda c: f"${c / 100:,.2f}"
        lines = [
            f"hands played: {self.hands}",
            "",
            f"{'metric':<42}{'cash':>12}{'BB/100':>10}",
            f"{'won excluding rake and rakeback':<42}{dollars(self.pre_rake_cents):>12}{r['pre_rake']:>10.1f}",
            f"{'rake attributed':<42}{dollars(-self.rake_cents):>12}{r['rake']:>10.1f}",
            f"{'rakeback':<42}{dollars(self.rakeback_cents):>12}{r['rakeback']:>10.1f}",
            f"{'won incl. rake, excl. rakeback (green)':<42}{dollars(self.post_rake_cents):>12}{r['post_rake']:>10.1f}",
            f"{'all-in adjusted, excl. rakeback (yellow)':<42}{dollars(self.adjusted_cents):>12}{r['adjusted']:>10.1f}",
            f"{'bank balance (true amount won)':<42}{dollars(self.final_cents):>12}{r['final']:>10.1f}",
        ]
        if self.segment and self.segment.segment_bb100:
            lines += [
                "",
                f"{self.segment.segment_size}-hand segments: "
                + ", ".join(f"{x:+.1f}" for x in self.segment.segment_bb100)
                + f"  (spread {self.segment.spread_bb100:.1f} BB/100)",
            ]
        if self.segment:
            lines.append(f"95% CI half-width: {self.segment.ci_half_width_bb100:.2f} BB/100")
        return "\n".join(lines)

    def to_csv(self) -> str:
        r = self.rates()
        rows = ["metric,cash_cents,bb100"]
        rows.append(f"pre_rake,{self.pre_rake_cents},{r['pre_rake']:.4f}")
        rows.append(f"rake,{-self.rake_cents},{r['rake']:.4f}")
        rows.append(f"rakeback,{self.rakeback_cents:.2f},{r['rakeback']:.4f}")
        rows.append(f"post_rake,{self.post_rake_cents},{r['post_rake']:.4f}")
        rows.append(f"all_in_adjusted,{self.adjusted_cents},{r['adjusted']:.4f}")
        rows.append(f"final,{self.final_cents:.2f},{r['final']:.4f}")
        rows.append(f"hands,{self.hands},")
        if self.segment:
            rows.append(f"ci_half_width_bb100,,{self.segment.ci_half_width_bb100:.4f}")
            rows.append(f"segment_spread_bb100,,{self.segment.spread_bb100:.4f}")
        return "\n".join(rows) + "\n"
