"""holdemlab benchmark: one workload per process, end-to-end or traced.

    python3 holdembench/run.py --workload advise --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): `fastfold` plays a seeded fast-fold session
and writes it out as `holdemlab simulate` does; `advise` drives the hero
strategist decision by decision; `report` re-derives the trial report from
a generated history as `holdemlab report` does. `--workload all` runs the
three one after another, each in a fresh interpreter, because the
program's process-global caches and the peak-RSS counter would otherwise
carry over from one workload to the next.

`--trace 0` measures the end-to-end metrics with the program untouched.
`--trace 1` runs a fixed amount of work twice, untraced then traced, and
prints the per-layer metrics and the tracing overhead; `report`, whose
hands are played in set-up, also plays its history once more under the
tracer for the engine's layers. Both print a table
for people, then one JSON line: correct, attempted, failed, metrics.
Run from the repository root; the program is imported from ./src.
"""
from __future__ import annotations

import os

# One thread per process: the timings must not depend on idle cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# Fixed work of a traced run, per second of --seconds, done once untraced
# and once traced so that the two halves see the same inputs.
TRACE_ADVISE_HANDS_PER_SECOND = 30
TRACE_REPORT_SECONDS_PER_PASS = 10
TRACE_FASTFOLD_HANDS_PER_SECOND = 100


def percentile(samples, q: float):
    """Nearest-rank q-th percentile and the sample count. The value is None
    when fewer than ten samples lie above it: that percentile is not
    measured by so few samples."""
    n = len(samples)
    rank = max(1, math.ceil(q / 100 * n))
    if n == 0 or n - rank < 10:
        return None, n
    return sorted(samples)[rank - 1], n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(m, setup_s: float, speed=None) -> list[tuple[str, str, object, int]]:
    """The gated metrics. With `speed` (hostspeed.HostSpeed), each latency
    and each timed stretch is scaled by the host's speed at its moment, so
    that the figures are those of the reference host."""
    import numpy as np

    lat, busy = np.asarray(m.op_ns, dtype=float), np.asarray([ns for _, ns in m.busy], dtype=float)
    if speed is not None:
        lat = lat / speed.local(m.op_at)
        busy = busy / speed.local([t for t, _ in m.busy])
    p50, n = percentile(lat.tolist(), 50)
    p99, _ = percentile(lat.tolist(), 99)
    ms = lambda v: None if v is None else v / 1e6  # noqa: E731
    return [
        ("setup_s", "s", setup_s, SETUP_REPEATS),
        ("ops_per_s", "1/s", n / (busy.sum() / 1e9) if n and busy.sum() else None, n),
        ("op_ms_p50", "ms", ms(p50), n),
        ("op_ms_p99", "ms", ms(p99), n),
        ("peak_rss_mb", "MB", peak_rss_mb(), 1),
    ]


EMPTY = {"dur": [], "self": [], "rows": []}


def per_layer(agg: dict, hands: int, overhead_pct, engine: tuple[dict, int] | None = None) -> list[tuple[str, str, object, int]]:
    """Per-layer metrics from the traced half's spans (layers.Tracer.by_name):
    call counts, and the time per hand spent in each layer. A layer the
    workload never calls reads 0 calls and 0 time per hand, which is what
    was measured. `engine` gives the spans and hands of the run that played
    the hands when that is not the measured run (report's history)."""
    sp = lambda name, a=agg: a.get(name, EMPTY)  # noqa: E731
    count = lambda name: len(sp(name)["dur"])  # noqa: E731

    def per_hand(names, scale, field="dur", a=agg, n=hands):
        total = sum(sum(sp(name, a)[field]) for name in names)
        return (total / scale / n if n else None), sum(len(sp(name, a)["dur"]) for name in names)

    eng, eng_hands = engine or (agg, hands)
    rows = sum(sp("cards.score_cards_batch")["rows"])
    score_s = sum(sp("cards.score_cards_batch")["dur"]) / 1e9
    return [
        ("table.engine_self_ms_per_hand", "ms", *per_hand(["table.play_hand"], 1e6, "self", eng, eng_hands)),
        ("table.history_write_us_per_hand", "us", *per_hand(["table.history_write"], 1e3, "dur", eng, eng_hands)),
        ("table.parse_history_us_per_hand", "us", *per_hand(["table.parse_history"], 1e3)),
        ("brain.decisions", "count", count("brain.Brain.decide"), count("brain.Brain.decide")),
        ("brain.decide_us_per_hand", "us", *per_hand(["brain.Brain.decide"], 1e3)),
        ("brain.observe_street_us_per_hand", "us", *per_hand(["brain.Brain.observe_new_street"], 1e3)),
        ("brain.observe_action_us_per_hand", "us",
         *per_hand(["brain.Brain.observe_villain_action", "brain.Brain.observe_hero_action"], 1e3)),
        ("brain.observe_preflop_us_per_hand", "us", *per_hand(["brain.Brain.observe_villain_preflop"], 1e3)),
        ("brain.begin_hand_us_per_hand", "us", *per_hand(["brain.Brain.begin_hand"], 1e3)),
        ("rsm.board_ctx_calls", "count", count("rsm.BoardContext.cached"), count("rsm.BoardContext.cached")),
        ("rsm.board_ctx_builds", "count", count("rsm.BoardContext.__init__"), count("rsm.BoardContext.__init__")),
        ("rsm.board_ctx_build_ms_per_hand", "ms", *per_hand(["rsm.BoardContext.__init__"], 1e6)),
        ("rsm.query_us_per_hand", "us", *per_hand(["rsm.RsmTable.query"], 1e3)),
        ("rets.reshape_calls", "count", count("rets.reshape"), count("rets.reshape")),
        ("rets.reshape_us_per_hand", "us", *per_hand(["rets.reshape"], 1e3)),
        ("rets.chib_us_per_hand", "us", *per_hand(["rets.chib"], 1e3)),
        ("cards.equity_vs_range_us_per_hand", "us", *per_hand(["cards.equity_vs_range"], 1e3)),
        ("cards.score_rows_per_s", "1/s", rows / score_s if score_s else None, count("cards.score_cards_batch")),
        ("rangegrid.assign_preflop_us_per_hand", "us", *per_hand(["rangegrid.assign_preflop_range"], 1e3)),
        ("metrics.all_in_calls", "count", count("metrics._equity_multiway"), count("metrics._equity_multiway")),
        ("metrics.all_in_us_per_hand", "us", *per_hand(["metrics._equity_multiway"], 1e3)),
        ("metrics.ledger_self_us_per_hand", "us",
         *per_hand(["metrics.ledger_from_records", "metrics.all_in_adjusted"], 1e3, "self")),
        ("metrics.report_us_per_hand", "us", *per_hand(["metrics.TrialReport.from_ledger"], 1e3)),
        ("trace.overhead_pct", "%", overhead_pct, hands),
    ]


def fastfold_layers(agg: dict, hands: int, events_held_end: int) -> list[tuple[str, str, object, int]]:
    """The layers only a fast-fold session calls: bots, the hero's seat,
    the profile store and learning. Printed for `fastfold` only."""
    sp = lambda name: agg.get(name, EMPTY)  # noqa: E731
    count = lambda name: len(sp(name)["dur"])  # noqa: E731

    def pct(name, q, field="dur"):
        v, n = percentile(sp(name)[field], q)
        return (None if v is None else v / 1e3), n

    observers = [f"session.HeroSeatPolicy.{m}" for m in ("on_action", "on_street", "on_showdown", "on_end")]
    observe_ns = sum(sum(sp(n)["self"]) for n in observers)
    bots, events = count("table.BotPolicy.__call__"), count("profiles.ProfileStore.record_event")
    showdowns = count("learning.records_from_snapshots")
    learn_ns = sum(sum(sp(n)["dur"]) for n in ("learning.records_from_snapshots", "learning.apply_learning"))
    per = lambda x: x / hands if hands else None  # noqa: E731
    return [
        ("table.bot_decisions_per_hand", "count", per(bots), bots),
        ("table.bot_us_p50", "us", *pct("table.BotPolicy.__call__", 50)),
        ("session.hero_observe_us_per_hand", "us", per(observe_ns / 1e3), sum(count(n) for n in observers)),
        ("session.hero_act_us_p50", "us", *pct("session.HeroSeatPolicy.__call__", 50, "self")),
        ("profiles.record_event_us_p50", "us", *pct("profiles.ProfileStore.record_event", 50)),
        ("profiles.events_per_hand", "count", per(events), events),
        ("profiles.events_held_end", "count", events_held_end, 1),
        ("learning.showdowns", "count", showdowns, showdowns),
        ("learning.ms_per_showdown", "ms", learn_ns / 1e6 / showdowns if showdowns else None, showdowns),
    ]


def span_table(agg: dict, hands: int) -> None:
    """Per traced function: calls, per-call p50/p99 and self time per hand."""
    print(f"  {'span':<44} {'calls':>8} {'p50 us':>10} {'p99 us':>10} {'self us/hand':>13}")
    for name in sorted(agg):
        d = agg[name]
        p50, _ = percentile(d["dur"], 50)
        p99, _ = percentile(d["dur"], 99)
        cell = lambda v: "-" if v is None else f"{v / 1e3:.1f}"  # noqa: E731
        self_per_hand = sum(d["self"]) / 1e3 / hands if hands else 0.0
        print(f"  {name:<44} {len(d['dur']):>8} {cell(p50):>10} {cell(p99):>10} {self_per_hand:>13.1f}")


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def show(rows) -> dict:
    """Print one line per metric with its sample count and return the JSON
    metrics. A value that could not be measured is null."""
    out = {}
    for name, unit, value, n in rows:
        if value is None:
            text = "not measured"
        elif n == 0:
            text = f"{value:.6g} {unit} (not called by this workload)"
        else:
            text = f"{value:.6g} {unit}"
        print(f"  {name:<34} {text:<44} n={n}")
        out[name] = {"value": value, "unit": unit}
    return out


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


# ---------------------------------------------------------------------------
# running one workload
# ---------------------------------------------------------------------------


def run_one(args, import_s: float) -> int:
    import hostspeed
    import layers
    import workloads

    out_base = ROOT / ".bench_out"
    run_dir = out_base / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, run_dir)
        times = []
        setup_speed, speed = hostspeed.HostSpeed(), hostspeed.HostSpeed()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = wl.prepare()
            times.append(time.perf_counter() - t0)
            setup_speed.after(int(times[-1] * 1e9))
        setup_s = import_s + statistics.median(times)
        print(f"{args.workload}: seed {args.seed}, {args.seconds} s, trace {args.trace}; "
              f"import {import_s:.3f} s, set-up runs {', '.join(f'{t:.3f}' for t in times)} s")
        before = layers.snapshot_targets()
        if not args.trace:
            m = wl.measure(state, seconds=args.seconds, speed=speed)
        else:
            work = {
                "advise": {"hands": max(1, round(TRACE_ADVISE_HANDS_PER_SECOND * args.seconds))},
                "report": {"passes": max(1, round(args.seconds / TRACE_REPORT_SECONDS_PER_PASS))},
                "fastfold": {"hands": max(1, round(TRACE_FASTFOLD_HANDS_PER_SECOND * args.seconds))},
            }[args.workload]
            m = wl.measure(state, **work)
            tracer = layers.Tracer()
            with tracer:
                traced = wl.measure(state, tracer=tracer, **work)
            engine = None
            if hasattr(wl, "trace_inputs"):  # report plays its hands in set-up: trace that once more
                gen_tracer = layers.Tracer()
                with gen_tracer:
                    gen_hands = wl.trace_inputs(gen_tracer, m)
                engine = (gen_tracer.by_name(), gen_hands)
        after = layers.snapshot_targets()
        wl.check(state, m)
        if before.keys() != after.keys() or any(before[k] is not after[k] for k in before):
            m.failed = m.attempted
            m.failures.append("the run left a program function replaced")
        for key in ("preflop_lock_share", "flop_turn_lock_share"):
            if key in m.info:
                print(f"  history: {key} {m.info[key]:.4f}")
        if args.trace:
            m.attempted += traced.attempted
            if traced.digest == m.digest:
                m.failed += traced.failed
            else:
                m.failed += traced.attempted
                m.failures.append("the traced run's output differs from the untraced run's")
            per_op = lambda x: x.elapsed_ns / x.hands if x.hands else None
            overhead = None
            if per_op(m) and per_op(traced):
                overhead = (per_op(traced) / per_op(m) - 1) * 100
            print(f"  untraced half: {m.hands} hands in {m.elapsed_ns / 1e9:.3f} s; "
                  f"traced half: {traced.hands} hands in {traced.elapsed_ns / 1e9:.3f} s, {len(tracer.spans)} spans")
            print("  wait time: none in any layer (one thread, no queues)")
            agg = tracer.by_name()
            span_table(agg, traced.hands)
            if engine is not None:
                print(f"  input generation, {engine[1]} hands played under the tracer:")
                span_table(*engine)
            rows = per_layer(agg, traced.hands, overhead, engine)
            if args.workload == "fastfold":
                rows += fastfold_layers(agg, traced.hands, traced.info.get("events_held_end", 0))
            tracer.write(out_base / f"spans-{args.workload}-{args.seed}.tsv")
        else:
            host, setup_host = speed.factor(), setup_speed.factor()
            print(f"  host speed factor {host:.4f} over {len(speed.unit_ns)} calibration units "
                  f"(set-up {setup_host:.4f}); raw: set-up {setup_s:.4f} s, {len(m.op_ns)} operations "
                  f"and {m.hands} hands in {m.elapsed_ns / 1e9:.4f} s")
            rows = end_to_end(m, setup_s / setup_host, speed)
        for f in m.failures[:10]:
            print(f"  FAILED: {f}")
        print(f"  ops attempted {m.attempted}, failed {m.failed}; output digest {m.digest[:16]}"
              + (f" over the first {m.info['digest_hands']} hands" if "digest_hands" in m.info else ""))
        metrics = show(rows)
        result_line(m.failed == 0 and not m.failures, m.attempted, m.failed, metrics)
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one at a time."""
    merged, correct, attempted, failed = {}, True, 0, 0
    for name in ("fastfold", "advise", "report"):
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        merged.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    result_line(correct, attempted, failed, merged)
    return 0


def main(argv=None) -> int:
    t0 = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("fastfold", "advise", "report", "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "holdemlab" / "__init__.py").is_file():
        print(f"error: no holdemlab sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import holdemlab  # noqa: F401  (timed: part of set-up)
    import workloads  # noqa: F401

    if Path(holdemlab.__file__).resolve().parent != ROOT / "src" / "holdemlab":
        print(f"error: imported holdemlab from {holdemlab.__file__}, not this checkout", file=sys.stderr)
        return 2
    return run_one(args, time.perf_counter() - t0)


if __name__ == "__main__":
    sys.exit(main())
