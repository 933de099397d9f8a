"""Command-line surface: simulate sessions, replay scenarios, re-derive
reports from histories, and render range heatmaps.

Exit codes: 0 success, 1 assertion failure, 2 input error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_INPUT = 2


def _err(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_INPUT


def _unreadable(path, e: OSError | UnicodeDecodeError) -> str:
    """`path: why` for an input file that could not be read."""
    if isinstance(e, UnicodeDecodeError):
        return f"{path}: not UTF-8 text ({e.reason} at byte {e.start})"
    return f"{path}: {e.strerror}"


def _unwritable(e: OSError) -> int:
    """The input error for an output path that could not be written (a
    directory that is a file, a missing parent): `path: why`."""
    return _err(f"{e.filename}: {e.strerror}")


def cmd_simulate(args) -> int:
    from .brain import Brain
    from .profiles import ProfileStore
    from .rsm import RsmTable
    from .session import SessionConfig, run_fastfold_session
    from .table import record_to_lines

    try:
        config = SessionConfig.from_ini(args.config) if args.config else SessionConfig()
        if args.hands is not None:
            config.hands = args.hands
        if args.seed is not None:
            config.seed = args.seed
        config.check(lambda key: f"--{key}")  # from_ini checked the file's values
    except (OSError, UnicodeDecodeError) as e:
        return _err(f"bad config: {_unreadable(args.config, e)}")
    except (KeyError, ValueError) as e:
        return _err(f"bad config: {e}")
    if args.trace:
        config.trace = True
    out = Path(args.out or ".")
    history_path = out / f"session_{config.seed}.hh"
    report_txt = out / f"report_{config.seed}.txt"
    try:
        out.mkdir(parents=True, exist_ok=True)
        history = open(history_path, "w", encoding="utf-8")
    except OSError as e:
        return _unwritable(e)
    if config.hands == 0:
        history.close()
        try:
            report_txt.write_text("hands played: 0\n", encoding="utf-8")
        except OSError as e:
            return _unwritable(e)
        print("0 hands simulated")
        return EXIT_OK

    with history:
        store = ProfileStore()
        rsm = RsmTable()
        brain = Brain(store, rsm_table=rsm, seed=config.seed, trace=config.trace)
        result = run_fastfold_session(
            config, brain=brain, store=store,
            on_record=lambda r: history.write("\n".join(record_to_lines(r)) + "\n"),
        )
    try:
        report_txt.write_text(result.report.to_text() + "\n", encoding="utf-8")
        (out / f"report_{config.seed}.csv").write_text(result.report.to_csv(), encoding="utf-8")
        store.save(
            str(out / f"profile_events_{config.seed}.log"),
            str(out / f"profile_snapshot_{config.seed}.json"),
            rsm_overlay=rsm.overlay_to_dict(),
        )
        if config.trace:
            (out / f"trace_{config.seed}.txt").write_text("\n".join(brain.trace_lines) + "\n", encoding="utf-8")
    except OSError as e:
        return _unwritable(e)
    print(result.report.to_text())
    print(f"\nhistory: {history_path}\nreport:  {report_txt}")
    return EXIT_OK


def cmd_replay(args) -> int:
    from .rangegrid import DATA_DIR
    from .scenario import ScenarioError, load_scenario, run_scenario
    from .table import IllegalActionError

    path = args.scenario
    if path == "hand6.scn":
        path = DATA_DIR / "hand6.scn"
    try:
        scenario = load_scenario(path)
    except (OSError, UnicodeDecodeError) as e:
        return _err(_unreadable(path, e))
    except (ScenarioError, ValueError) as e:
        return _err(str(e))
    out = Path(args.out) if args.out else None
    if out:
        try:  # before playing, so that a bad path fails before the trace
            out.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            return _unwritable(e)
    try:
        result = run_scenario(scenario)
    except (ScenarioError, ValueError) as e:
        return _err(str(e))
    except IllegalActionError as e:
        return _err(f"{path}: the engine refused an action: {e}")
    print(result.trace_text())
    if out:
        try:
            for (pid, stage), lines in result.snapshots.items():
                (out / f"{scenario.name}_{pid}_{stage}.rng").write_text("\n".join(lines) + "\n", encoding="utf-8")
        except OSError as e:
            return _unwritable(e)
        print(f"grid snapshots written under {out}")
    if not result.passed:
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_report(args) -> int:
    from .metrics import LedgerError, TrialReport, ledger_from_records
    from .table import HistoryFormatError, parse_history

    if not 0 <= args.rakeback_rate <= 1:
        return _err(f"--rakeback-rate: {args.rakeback_rate} is not in [0, 1]")
    try:
        records = parse_history(args.history)
    except HistoryFormatError as e:
        return _err(f"{args.history}: {e}")
    except (OSError, UnicodeDecodeError) as e:
        return _err(_unreadable(args.history, e))
    if not any(r.hero_seat_of(args.hero) is not None for r in records):
        return _err(f"{args.history}: hero {args.hero!r} is in no hand")
    bb = records[0].bb_cents
    odd = next((r for r in records if r.bb_cents != bb), None)
    if odd is not None:  # BB/100 needs one big blind
        return _err(f"{args.history}: hand {odd.hand_id} has bb={odd.bb_cents}, the first hand bb={bb}")
    try:
        ledger = ledger_from_records(records, args.hero, bb, rakeback_rate=args.rakeback_rate)
    except LedgerError as e:
        return _err(f"{args.history}: {e}")
    report = TrialReport.from_ledger(ledger)
    print(report.to_text())
    if args.out:
        try:
            Path(args.out).write_text(report.to_csv(), encoding="utf-8")
        except OSError as e:
            return _unwritable(e)
    return EXIT_OK


def cmd_heatmap(args) -> int:
    from .heatmap import HeatmapError, render_ppm, render_svg
    from .rangegrid import RangeConfigError, load_range_file

    try:
        grid = load_range_file(args.snapshot)
    except RangeConfigError as e:
        return _err(str(e))
    except (OSError, UnicodeDecodeError) as e:
        return _err(_unreadable(args.snapshot, e))
    fmt = args.format.lower()
    try:
        if fmt == "svg":
            content = render_svg(grid, mode=args.grid, title=Path(args.snapshot).stem)
        elif fmt == "ppm":
            content = render_ppm(grid, mode=args.grid)
        else:
            return _err(f"unknown format {args.format!r} (svg or ppm)")
    except HeatmapError as e:
        return _err(str(e))
    out = args.out or (Path(args.snapshot).stem + "." + fmt)
    try:
        Path(out).write_text(content, encoding="utf-8")
    except OSError as e:
        return _unwritable(e)
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="holdemlab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a fast-fold session against the bot field")
    sim.add_argument("--config", help="INI config (session/bots sections)")
    sim.add_argument("--hands", type=int, help="number of hands")
    sim.add_argument("--seed", type=int, help="session seed")
    sim.add_argument("--trace", action="store_true", help="write the decision trace")
    sim.add_argument("--out", help="output directory")
    sim.set_defaults(func=cmd_simulate)

    rep = sub.add_parser("replay", help="replay a scripted scenario with assertions")
    rep.add_argument("scenario", help="scenario file (hand6.scn is shipped)")
    rep.add_argument("--out", help="directory for per-step grid snapshots")
    rep.set_defaults(func=cmd_replay)

    rpt = sub.add_parser("report", help="re-derive the trial report from a hand history")
    rpt.add_argument("history", help="hand-history file written by simulate")
    rpt.add_argument("--hero", default="hero", help="hero player id")
    rpt.add_argument("--rakeback-rate", type=float, default=0.069)
    rpt.add_argument("--out", help="write the CSV report here")
    rpt.set_defaults(func=cmd_report)

    heat = sub.add_parser("heatmap", help="render a grid snapshot as an image")
    heat.add_argument("snapshot", help="range-format grid snapshot file")
    heat.add_argument("--grid", choices=("169", "1326"), default="169")
    heat.add_argument("--format", default="svg", help="svg or ppm")
    heat.add_argument("--out", help="output file")
    heat.set_defaults(func=cmd_heatmap)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
