"""The three holdemlab workloads: input generators, closed-loop runners and
the checks on their outputs.

Every workload calls the program through module attributes at call time
(`table.play_hand`, not a name bound at import), so the layer clock in
layers.py sees each call when it is installed and nothing changes when it
is not. Inputs come only from the workload seed.
"""
from __future__ import annotations

import hashlib
import math
import itertools
import random
import shutil
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from holdemlab import brain, cards, events, metrics, profiles, rsm, session, table

clock = time.perf_counter_ns

HERO = "hero"
# The eight archetypes the bots and the shipped range files share.
ARCHETYPES = tuple(sorted(table.ARCHETYPE_TARGETS))
SB_CENTS, BB_CENTS = 1, 2
RAKEBACK_RATE = 0.069

# A report history has REPORT_HANDS hands. Exactly this many of them lock
# all-in (hero plus live callers) on each street, with 1 or 2 callers, at
# seeded positions, so every seed costs the same to account. The counts are
# the lock shares of default fast-fold sessions (seeds 2023, 1 and 2, 4,000
# hands each: 20 pre-flop, 16 flop and 27 turn locks in 12,000 hands, about
# 70% of them heads-up). The history is long so that the slowest ordinary
# hands, which set the latency tail, vary little from seed to seed.
REPORT_HANDS = 6000
REPORT_LOCKS = {
    ("preflop", 1): 7, ("preflop", 2): 3,
    ("flop", 1): 6, ("flop", 2): 2,
    ("turn", 1): 10, ("turn", 2): 4,
}
# On hands that do not lock, the hero continues pre-flop this much less
# often than the other seats, so that it reaches showdown on about 10% of
# hands, as in those sessions.
HERO_PREFLOP_CONTINUE = 0.4
# Random runouts per pre-flop lock in the check's reference equity.
REFERENCE_PREFLOP_RUNOUTS = 3000

# Hands a fastfold run requests per second of --seconds; fixed so that a
# seed always asks for the same session.
FASTFOLD_HANDS_PER_SECOND = 300


@dataclass
class Measurement:
    """What one closed-loop pass over a workload produced."""

    hands: int = 0
    attempted: int = 0
    failed: int = 0
    elapsed_ns: int = 0
    op_ns: list[int] = field(default_factory=list)  # latency of each operation that completed
    op_at: list[int] = field(default_factory=list)  # and when it ended
    busy: list[tuple[int, int]] = field(default_factory=list)  # (end, ns) of the timed stretches
    digest: str = ""
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)


def spent(m: Measurement, ns: int) -> None:
    """Count a timed stretch of program work that has just ended."""
    m.elapsed_ns += ns
    m.busy.append((clock(), ns))


def where(exc: BaseException, root: Path) -> str:
    """Exception type and the innermost program frame as file:line."""
    frames = traceback.extract_tb(exc.__traceback__)
    frame = frames[-1]
    for f in reversed(frames):
        if "holdemlab" in Path(f.filename).parts:
            frame = f
            break
    path = Path(frame.filename)
    try:
        path = path.resolve().relative_to(root)
    except ValueError:
        pass
    return f"{type(exc).__name__} at {path}:{frame.lineno}: {exc}"


def seeded(seed: int, *keys: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, *keys]))


# ---------------------------------------------------------------------------
# advise: the hero strategist as an advisor
# ---------------------------------------------------------------------------


@dataclass
class Segment:
    """Observe calls since the previous decision, then one decision."""

    calls: list[tuple[str, tuple, dict]]
    ctx: dict


def advise_hand(seed: int, index: int) -> list[Segment]:
    """One advised hand: a fresh deal, 1-3 villains with declared
    archetypes, and villain actions that keep everyone in to the river.
    The hero acts last on every street; after each decision the hero's
    observed action is a call or a check, whatever the advice was."""
    rng = seeded(seed, 0xAD, index)
    hand_id = index + 1
    deck = [int(c) for c in rng.permutation(52)]
    k = int(rng.integers(1, 4))
    hero = (deck[0], deck[1])
    board = tuple(deck[2 + 2 * k : 7 + 2 * k])
    villains = [(f"v{j + 1}", ARCHETYPES[int(rng.integers(len(ARCHETYPES)))]) for j in range(k)]
    ids = tuple(pid for pid, _ in villains)
    position = ("btn", "co", "hj")[int(rng.integers(3))]
    opened = bool(rng.random() < 0.7)

    def ctx(street, cards, pot, to_call, min_raise_to, stack, level, limpers, legal):
        return dict(
            hand_id=hand_id,
            street=street,
            hero_hole=hero,
            board=cards,
            pot_bb=pot,
            to_call_bb=to_call,
            min_raise_to_bb=min_raise_to,
            hero_stack_bb=stack,
            effective_stack_bb=stack,
            spr=stack / max(pot, 0.5),
            pot_odds=to_call / (pot + to_call) if to_call > 0 else 0.0,
            action_level=level,
            position=position,
            in_position=position in ("btn", "co"),
            hero_is_aggressor=False,
            legal=legal,
            live_player_ids=ids,
            num_limpers=limpers,
        )

    open_to = 3.0 if opened else 1.0
    calls = [("begin_hand", (hand_id, hero, villains), {})]
    calls += [("observe_villain_preflop", (pid, "raise" if opened and j == 0 else "call"), {}) for j, pid in enumerate(ids)]
    pot, stack = 1.5 + open_to * k, 100.0
    level = open_to / 1.5 if opened else 0.0
    segments = [
        Segment(calls, ctx("preflop", (), pot, open_to, 2 * open_to, stack, level, 0 if opened else k, ("fold", "call", "raise")))
    ]
    aggressor = ids[0] if opened else None
    pot += open_to
    stack -= open_to
    hero_action = ("call", "preflop")
    for street, n in (("flop", 3), ("turn", 4), ("river", 5)):
        calls = [("observe_hero_action", hero_action, {}), ("observe_new_street", (board[:n],), {})]
        bets = bool(rng.random() < 0.4)
        size = round(max(1.0, min((0.33 + 0.42 * rng.random()) * pot, stack / 4)), 2)
        for j, pid in enumerate(ids):
            agg = "villain_agg" if aggressor else "none"
            action = ("bet" if j == 0 else "call") if bets else "check"
            calls.append(("observe_villain_action", (pid, action), {"aggressor": agg, "position": "oop"}))
            if action == "bet":
                aggressor = pid
        if bets:
            level += size / pot
            pot += size * k
            seg_ctx = ctx(street, board[:n], pot, size, 2 * size, stack, level, 0, ("fold", "call", "raise"))
            pot += size
            stack -= size
            hero_action = ("call", street)
        else:
            seg_ctx = ctx(street, board[:n], pot, 0.0, 1.0, stack, level, 0, ("fold", "check", "bet"))
            hero_action = ("check", street)
        segments.append(Segment(calls, seg_ctx))
    return segments


def illegal(rec, ctx) -> str | None:
    """Why a recommendation is not a legal action in its context, or None."""
    key = rec.action.key
    if key not in ctx.legal:
        return f"{key} not in {ctx.legal}"
    if key == "bet" and not 0 < rec.size_bb <= ctx.hero_stack_bb + 1e-9:
        return f"bet {rec.size_bb} outside (0, {ctx.hero_stack_bb}]"
    if key == "raise" and rec.size_bb < ctx.min_raise_to_bb - 1e-9:
        return f"raise to {rec.size_bb} below {ctx.min_raise_to_bb}"
    if key not in ("bet", "raise") and rec.size_bb != 0:
        return f"{key} carries size {rec.size_bb}"
    return None


class Advise:
    REPLAY_HANDS = 50  # prefix replayed by a fresh brain to check determinism

    def __init__(self, seed: int, root: Path, out: Path):
        self.seed = seed
        self.root = root

    def new_brain(self):
        store = profiles.ProfileStore()
        return brain.Brain(store, rsm_table=rsm.RsmTable(), seed=self.seed)

    def prepare(self):
        """Input generation (the first hands' plans) and a warm-up hand."""
        plans = [advise_hand(self.seed, i) for i in range(self.REPLAY_HANDS)]
        self.play(self.new_brain(), plans[:1], Measurement())
        return plans

    def play(self, b, plans, m: Measurement, lines: list[str] | None = None) -> None:
        """Drive one brain through the plans. Only the calls into the program
        are timed (building the DecisionContext, the observe calls and
        `decide`); they make up the decision latencies and `elapsed_ns`."""
        for segments in plans:
            for pos, seg in enumerate(segments):
                m.attempted += 1
                t0 = clock()
                try:
                    ctx = brain.DecisionContext(**seg.ctx)
                    for fn, args, kwargs in seg.calls:
                        getattr(b, fn)(*args, **kwargs)
                    rec = b.decide(ctx)
                except Exception as e:  # a program fault fails this and the hand's later decisions
                    spent(m, clock() - t0)
                    m.attempted += len(segments) - pos - 1
                    m.failed += len(segments) - pos
                    m.failures.append(f"hand {seg.ctx['hand_id']} {seg.ctx['street']}: {where(e, self.root)}")
                    break
                t1 = clock()
                m.op_ns.append(t1 - t0)
                m.op_at.append(t1)
                spent(m, t1 - t0)
                bad = illegal(rec, ctx)
                if bad:
                    m.failed += 1
                    m.failures.append(f"hand {ctx.hand_id} {ctx.street}: illegal advice: {bad}")
                if lines is not None:
                    lines.append(f"{ctx.hand_id}:{ctx.street}:{rec.action.key}:{rec.size_bb:.6g}:{rec.source}")
            else:
                m.hands += 1

    def measure(self, plans, *, seconds: float | None = None, hands: int | None = None, tracer=None, speed=None) -> Measurement:
        """Advise hand after hand until the deadline passes (or for a fixed
        number of hands) with one brain, as a live advisor would. Plans past
        the prepared ones are generated between hands, outside the timing,
        and so are the host-speed calibration units (hostspeed.HostSpeed):
        between hands, where they delay only the next hand's pre-flop
        decision, which is never in the tail."""
        m = Measurement()
        b = self.new_brain()
        lines: list[str] = []
        deadline = clock() + int(seconds * 1e9) if seconds is not None else None
        i = 0
        while (deadline is None or clock() < deadline) and (hands is None or i < hands):
            plan = plans[i] if i < len(plans) else advise_hand(self.seed, i)
            if tracer is not None:
                tracer.hand_id = i + 1
            busy = m.elapsed_ns
            self.play(b, [plan], m, lines if i < self.REPLAY_HANDS else None)
            if speed is not None:
                speed.after(m.elapsed_ns - busy)
            i += 1
        m.digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        m.info = {"replay_lines": lines}
        return m

    def check(self, plans, m: Measurement) -> None:
        """A fresh brain replaying the first hands must give the same advice."""
        lines: list[str] = []
        prefix = m.info["replay_lines"]
        replay = Measurement()
        self.play(self.new_brain(), plans[: min(len(plans), m.hands)], replay, lines)
        diff = sum(a != b for a, b in zip(lines, prefix)) + abs(len(lines) - len(prefix))
        if diff:
            m.failed += diff
            m.failures.append(f"replay: {diff} of {len(prefix)} recommendations differ")
        m.info["digest_hands"] = min(len(plans), m.hands)


# ---------------------------------------------------------------------------
# report: re-deriving the trial report from a hand history
# ---------------------------------------------------------------------------


class ScriptedTable:
    """Seat policies for the report history. On most hands the seats play
    small: one pre-flop raise to 3 bb at most, then bets of at most 8 bb and
    no raises, so nobody commits 60 bb, the shortest stack. On the
    scheduled lock hands the hero and its callers stay in, the rest fold,
    and one of them shoves on the lock street for the others to call."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.plan: dict = {}

    def new_hand(self, kind: str, callers: int, players: list[str]) -> None:
        if kind == "normal":
            self.plan = {"kind": kind}
            return
        others = [p for p in players if p != HERO]
        picked = [others[int(i)] for i in self.rng.choice(len(others), size=callers, replace=False)]
        # With two callers only a hero shove locks the hand for certain.
        shover = HERO if callers > 1 or self.rng.random() < 0.5 else picked[0]
        self.plan = {"kind": kind, "in": {HERO, *picked}, "shover": shover, "shoved": False}

    def seat(self, player_id: str):
        def policy(view):
            return self.act(player_id, view)

        return policy

    def act(self, pid: str, view):
        plan, r = self.plan, self.rng.random()
        to_call = view.to_call_cents
        A = events.ActionType
        if plan["kind"] != "normal":
            if pid not in plan["in"]:
                return (A.FOLD, 0) if to_call > 0 else (A.CHECK, 0)
            if view.street == plan["kind"] and pid == plan["shover"] and not plan["shoved"]:
                plan["shoved"] = True
                return (A.ALL_IN, 0)
            return (A.CALL, 0) if to_call > 0 else (A.CHECK, 0)
        if view.street == "preflop":
            if to_call <= 0:
                return (A.CHECK, 0)
            go = HERO_PREFLOP_CONTINUE if pid == HERO else 1.0
            if not view.preflop_raised and r < 0.12 * go and "raise" in view.legal:
                return (A.RAISE, 3 * view.bb_cents)
            return (A.CALL, 0) if r < (0.45 if not view.preflop_raised else 0.35) * go else (A.FOLD, 0)
        if to_call > 0:
            return (A.CALL, 0) if r < 0.55 else (A.FOLD, 0)
        if r < 0.3:
            return (A.BET, max(view.bb_cents, min(view.pot_cents // 2, 8 * view.bb_cents)))
        return (A.CHECK, 0)


def lock_street(record, hero_seat: int) -> str | None:
    """The street a scripted hand locked on: the first all-in, if the hero
    and at least one caller reached showdown. None for every other hand."""
    if len(record.showdown) > 1 and hero_seat in dict(record.showdown):
        return next((a[0] for a in record.actions if a[2] == "allin"), None)
    return None


def report_history(seed: int, hands: int = REPORT_HANDS, tracer=None) -> tuple[str, dict]:
    """History text in the `simulate` format, played by `table.play_hand`
    with the scripted seats, plus the lock shares as played. With a tracer,
    the seat policies and the history writing are recorded as spans."""
    rng = seeded(seed, 0x8E)
    tbl = ScriptedTable(seeded(seed, 0x8E, 1))
    players = [HERO] + [f"p{i}" for i in range(1, 6)]
    kinds = [("normal", 0)] * hands
    slots = iter(rng.permutation(hands))
    for kind, n in REPORT_LOCKS.items():
        for _ in range(n * hands // REPORT_HANDS):
            kinds[int(next(slots))] = kind
    parts: list[str] = []

    def write(record):
        parts.append("\n".join(table.record_to_lines(record)) + "\n")

    seat_policy = tbl.seat
    if tracer is not None:
        write = tracer.wrap("table.history_write", write)
        seat_policy = lambda pid: tracer.wrap("bench.seat_policy", tbl.seat(pid))  # noqa: E731
    locked = {"preflop": 0, "flop": 0, "turn": 0}
    for hand_id in range(1, hands + 1):
        if tracer is not None:
            tracer.hand_id = hand_id
        order = [players[int(i)] for i in rng.permutation(6)]
        seats = [
            table.SeatConfig(pid, int(rng.integers(60 * BB_CENTS, 220 * BB_CENTS + 1)), seat_policy(pid)) for pid in order
        ]
        tbl.new_hand(*kinds[hand_id - 1], players)
        deck = [int(c) for c in rng.permutation(52)]
        record = table.play_hand(hand_id, "bench", seats, int(rng.integers(6)), SB_CENTS, BB_CENTS, deck, rake=table.RakeModel())
        write(record)
        street = lock_street(record, record.hero_seat_of(HERO))
        if street in locked:
            locked[street] += 1
    shares = {
        "preflop_lock_share": locked["preflop"] / hands,
        "flop_turn_lock_share": (locked["flop"] + locked["turn"]) / hands,
    }
    return "".join(parts), shares


class Report:
    def __init__(self, seed: int, root: Path, out: Path):
        self.seed = seed
        self.root = root
        self.path = out / "history.hh"

    def prepare(self):
        """Generate the history file, then warm up on its first hands."""
        text, shares = report_history(self.seed)
        self.path.write_text(text, encoding="utf-8")
        records = table.parse_history(str(self.path))
        metrics.TrialReport.from_ledger(metrics.ledger_from_records(records[:200], HERO, BB_CENTS)).to_text()
        return shares

    def trace_inputs(self, tracer, m: Measurement) -> int:
        """Play the history again under the tracer, for the engine's layers;
        it must come out byte for byte the same. Returns the hands played."""
        text, _ = report_history(self.seed, tracer=tracer)
        if text.encode("utf-8") != self.path.read_bytes():
            m.failed += REPORT_HANDS
            m.failures.append("the history played under the tracer differs from the untraced one")
        return REPORT_HANDS

    def one_pass(self, m: Measurement, tracer=None, speed=None) -> tuple[list, object, str]:
        """`holdemlab report`'s path over the whole file, timed in stretches:
        parsing, each hand (from the ledger pulling it to pulling the next:
        one operation) and the report. Host-speed calibration units run
        between the stretches, outside the timing; run only between passes,
        seconds apart, they tracked the host's speed worse."""

        def timed(ns):
            spent(m, ns)
            if speed is not None:
                speed.after(ns)

        def stream(records):
            for r in records:
                if tracer is not None:
                    tracer.hand_id = r.hand_id
                t0 = clock()
                yield r
                t1 = clock()
                m.op_ns.append(t1 - t0)
                m.op_at.append(t1)
                timed(t1 - t0)

        t0 = clock()
        records = table.parse_history(str(self.path))
        timed(clock() - t0)
        ledger = metrics.ledger_from_records(stream(records), HERO, records[0].bb_cents, rakeback_rate=RAKEBACK_RATE)
        t0 = clock()
        rep = metrics.TrialReport.from_ledger(ledger)
        text = rep.to_text() + "\n" + rep.to_csv()
        timed(clock() - t0)
        m.hands += len(records)
        m.attempted += len(records)
        return records, (ledger, rep), text

    def measure(self, shares, *, seconds: float | None = None, passes: int | None = None, tracer=None, speed=None) -> Measurement:
        """Passes over the history until the deadline passes (or a fixed
        number of them)."""
        m = Measurement(info=dict(shares))
        deadline = clock() + int(seconds * 1e9) if seconds is not None else None
        digests = []
        first = None
        n = 0
        while (deadline is None or clock() < deadline) and (passes is None or n < passes):
            records, result, text = self.one_pass(m, tracer, speed)
            digests.append(hashlib.sha256(text.encode()).hexdigest())
            if first is None:
                first = (records, *result)
            n += 1
        m.digest = digests[0]
        bad = sum(d != digests[0] for d in digests)
        if bad:
            m.failed += bad * len(first[0])
            m.failures.append(f"{bad} of {len(digests)} passes gave a different report")
        m.info.update(passes=n, first=first)
        return m

    def check(self, shares, m: Measurement) -> None:
        records, ledger, rep = m.info.pop("first")
        passes = m.info["passes"]
        lines = "".join("\n".join(table.record_to_lines(r)) + "\n" for r in records)
        if lines.encode("utf-8") != self.path.read_bytes():
            m.failed += len(records) * passes
            m.failures.append("record_to_lines(parse_history(file)) differs from the file")
        bad = (
            conservation_failures(records)
            + ledger_failures(records, ledger, rep, RAKEBACK_RATE)
            + adjusted_failures(records, ledger)
        )
        m.failed += failed_ops(bad, len(records)) * passes
        m.failures += bad[:5]


def failed_ops(bad: list[str], hands: int) -> int:
    """Hands a list of failed checks fails: one per "hand N" entry, every
    hand for a check on the whole history or report."""
    if any(not b.startswith("hand ") for b in bad):
        return hands
    return len({b.split(":")[0] for b in bad})


def conservation_failures(records) -> list[str]:
    return [
        f"hand {r.hand_id}: chips not conserved"
        for r in records
        if sum(r.net.values()) + sum(r.rake_paid.values()) != 0
    ]


def ledger_failures(records, ledger, rep, rakeback_rate: float) -> list[str]:
    """The ledger's rows and the report's totals against sums taken straight
    from the records: net, rake, pre-rake = net + rake, rakeback = rate x
    rake and the true amount won = pre-rake - rake + rakeback."""
    bad = []
    net = rake = 0
    rows = iter(ledger.rows)
    for r in records:
        seat = r.hero_seat_of(HERO)
        if seat is None:
            continue
        row = next(rows, None)
        net += r.net[seat]
        rake += r.rake_paid.get(seat, 0)
        if row is None or (row.hand_id, row.net_cents, row.rake_cents) != (r.hand_id, r.net[seat], r.rake_paid.get(seat, 0)):
            bad.append(f"hand {r.hand_id}: ledger row differs from the record")
    rakeback = rakeback_rate * rake
    want = {
        "hands": len(ledger.rows),
        "post_rake_cents": net,
        "rake_cents": rake,
        "pre_rake_cents": net + rake,
        "adjusted_cents": sum(row.adjusted_cents for row in ledger.rows),
    }
    for key, value in want.items():
        if getattr(rep, key) != value:
            bad.append(f"report {key} is {getattr(rep, key)}, the records give {value}")
    tol = 1e-9 * max(1.0, abs(net) + abs(rakeback))
    if abs(rep.rakeback_cents - rakeback) > tol:
        bad.append(f"report rakeback is {rep.rakeback_cents}, rate x rake is {rakeback}")
    if abs(rep.final_cents - ((net + rake) - rake + rakeback)) > tol:
        bad.append(f"report amount won is {rep.final_cents}, pre-rake - rake + rakeback is {net + rakeback}")
    return bad


def runout_equity(hero, villains, board, samples: int = 0, seed: int = 0) -> Fraction:
    """Hero's share of the pot over every runout of `board` (ties split),
    or over `samples` seeded random runouts, scored hand by hand with the
    scalar evaluator `cards.hand_score`."""
    used = {*hero, *board, *(c for v in villains for c in v)}
    deck = [c for c in range(52) if c not in used]
    need = 5 - len(board)
    if samples:
        rng = random.Random(seed)
        runs = (rng.sample(deck, need) for _ in range(samples))
    else:
        runs = itertools.combinations(deck, need)
    won, n = Fraction(0), 0
    for run in runs:
        full = (*board, *run)
        scores = [cards.hand_score((*h, *full)) for h in (hero, *villains)]
        best = max(scores)
        if scores[0] == best:
            won += Fraction(1, scores.count(best))
        n += 1
    return won / n


def adjusted_failures(records, ledger) -> list[str]:
    """Each hand's all-in adjusted net against a slow reference. A hand
    that locked (see `lock_street`) is worth equity x (pot - rake) minus
    what the hero put in; every other hand its actual net. Flop and turn
    locks enumerate every runout, so they must agree to the cent. The
    program samples pre-flop runouts, so a pre-flop lock is checked against
    REFERENCE_PREFLOP_RUNOUTS random ones, to within five standard errors
    of the two samples together."""
    board_len = {"preflop": 0, "flop": 3, "turn": 4}
    preflop_se = math.sqrt(0.25 / 12_000 + 0.25 / REFERENCE_PREFLOP_RUNOUTS)
    bad = []
    rows = {row.hand_id: row for row in ledger.rows}
    for r in records:
        seat = r.hero_seat_of(HERO)
        row = rows.get(r.hand_id)
        if seat is None or row is None:
            continue
        street = lock_street(r, seat)
        if street not in board_len:
            want, slack = r.net[seat], 0.0
        else:
            holes = dict(r.showdown)
            villains = [h for s, h in r.showdown if s != seat]
            board = r.board[: board_len[street]]
            samples = REFERENCE_PREFLOP_RUNOUTS if street == "preflop" else 0
            equity = runout_equity(holes[seat], villains, board, samples=samples, seed=r.hand_id)
            pot = sum(r.awards.values()) - r.total_rake()
            invested = r.awards.get(seat, 0) - r.rake_paid.get(seat, 0) - r.net[seat]
            want = float(equity * pot) - invested
            slack = 5 * preflop_se * pot if samples else 0.5
        if abs(row.adjusted_cents - want) > slack + 1e-9:
            bad.append(f"hand {r.hand_id}: all-in adjusted {row.adjusted_cents}, reference {want:.1f}")
    return bad


# ---------------------------------------------------------------------------
# fastfold: a seeded session written out as `holdemlab simulate` does
# ---------------------------------------------------------------------------


class Fastfold:
    def __init__(self, seed: int, root: Path, out: Path):
        self.seed = seed
        self.root = root
        self.out = out

    def prepare(self):
        """Build a session's objects once (bot pool, brain, range data)."""
        config = session.SessionConfig(seed=self.seed, hands=1)
        session.build_bot_pool(config)
        self.new_brain(config)
        return None

    def new_brain(self, config):
        store = profiles.ProfileStore()
        return store, brain.Brain(store, rsm_table=rsm.RsmTable(), seed=config.seed, trace=config.trace)

    def measure(
        self, _, *, seconds: float | None = None, hands: int | None = None, tracer=None, speed=None, run_session=None
    ) -> Measurement:
        """One session of a fixed number of hands (set by --seconds), default
        config, learning on, trace off; one operation is one hand."""
        requested = hands if hands is not None else max(1, round(FASTFOLD_HANDS_PER_SECOND * seconds))
        config = session.SessionConfig(seed=self.seed, hands=requested)
        m = Measurement(attempted=requested)
        run_dir = self.out / ("traced" if tracer is not None else "session")
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        history_path = run_dir / f"session_{config.seed}.hh"
        done: list[int] = []

        def on_record(record):
            history.write("\n".join(table.record_to_lines(record)) + "\n")
            done.append(clock())
            if tracer is not None:
                tracer.hand_id = record.hand_id + 1

        if tracer is not None:
            tracer.hand_id = 1
            on_record = tracer.wrap("table.history_write", on_record)
        store, b = self.new_brain(config)
        run_session = run_session or session.run_fastfold_session
        start = clock()
        result = None
        history = open(history_path, "w", encoding="utf-8")
        try:
            result = run_session(config, brain=b, store=store, on_record=on_record)
        except Exception as e:  # the session dies with the hand that raised
            m.failures.append(f"hand {len(done) + 1}: {where(e, self.root)}")
        finally:
            history.close()
        if result is not None:
            (run_dir / f"report_{config.seed}.txt").write_text(result.report.to_text() + "\n", encoding="utf-8")
            (run_dir / f"report_{config.seed}.csv").write_text(result.report.to_csv(), encoding="utf-8")
            store.save(
                str(run_dir / f"profile_events_{config.seed}.log"),
                str(run_dir / f"profile_snapshot_{config.seed}.json"),
                rsm_overlay=b.rsm.overlay_to_dict(),
            )
        spent(m, clock() - start)
        if speed is not None:  # the session is one call: calibrate after it
            speed.after(m.elapsed_ns)
        m.hands = len(done)
        m.failed = requested - len(done)
        if result is not None:  # a session that died measured no throughput or latency
            m.op_ns = [b_ - a for a, b_ in zip([start] + done, done)]
            m.op_at = done
        else:
            m.busy = []
        text = result.report.to_text() if result is not None else ""
        m.digest = hashlib.sha256(history_path.read_bytes() + text.encode()).hexdigest()
        m.info = {"result": result, "history": history_path, "events_held_end": len(store.events)}
        return m

    def check(self, _, m: Measurement) -> None:
        result = m.info.pop("result")
        if result is None:
            return
        records = table.parse_history(str(m.info["history"]))
        ledger = metrics.ledger_from_records(records, HERO, records[0].bb_cents, rakeback_rate=result.config.rakeback_rate)
        rederived = metrics.TrialReport.from_ledger(ledger)
        text = result.report.to_text()
        bad = conservation_failures(records) + ledger_failures(records, ledger, result.report, result.config.rakeback_rate)
        if rederived.to_text() != text:
            bad.append("report re-derived from the history differs from the session's report")
        m.failed += failed_ops(bad, m.hands)
        m.failures += bad[:5]


WORKLOADS = {"fastfold": Fastfold, "advise": Advise, "report": Report}
