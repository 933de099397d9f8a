"""Tests of the benchmark's own code.

    python3 -m pytest holdembench -q
"""
import copy
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from holdemlab import brain, metrics, rets, session, table  # noqa: E402


def same(a, b):
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


# -- percentile helper ----------------------------------------------------------


def test_percentile_gives_the_sample_count_and_refuses_thin_tails():
    data = list(range(1, 101))
    assert run.percentile(data, 50) == (50, 100)
    assert run.percentile(data, 90) == (90, 100)  # ten samples beyond
    assert run.percentile(data, 95) == (None, 100)  # five beyond: refused
    assert run.percentile([], 50) == (None, 0)
    assert run.percentile(list(range(1000)), 99) == (989, 1000)
    assert run.percentile(list(range(999)), 99) == (None, 999)
    assert run.percentile([3, 1, 2] * 10, 50) == (2, 30)


def test_host_speed_calibrates_in_proportion_and_scales_each_moment():
    speed = hostspeed.HostSpeed()
    speed.after(0)
    assert len(speed.unit_ns) == 1  # always at least one unit
    speed.after(int(40 * speed.unit_ns[0] / hostspeed.SHARE))
    assert 20 <= len(speed.unit_ns) <= 60
    assert speed.factor() == statistics.mean(speed.unit_ns) / hostspeed.REFERENCE_NS
    # A host that halves its speed halfway: each moment gets its own factor.
    speed.unit_at = list(range(100, 3300, 100))
    speed.unit_ns = [hostspeed.REFERENCE_NS] * 16 + [2 * hostspeed.REFERENCE_NS] * 16
    assert speed.local([0, 150, 3000, 5000]).tolist() == [1.0, 1.0, 2.0, 2.0]
    m = workloads.Measurement(hands=2, elapsed_ns=int(4e6), op_ns=[int(1e6), int(3e6)], op_at=[150, 3000],
                              busy=[(150, int(1e6)), (3000, int(3e6))])
    raw = {name: value for name, _, value, _ in run.end_to_end(m, 1.0)}
    scaled = {name: value for name, _, value, _ in run.end_to_end(m, 1.0, speed)}
    assert raw["ops_per_s"] == 2 / 4e-3 and scaled["ops_per_s"] == 2 / 2.5e-3


# -- generators -------------------------------------------------------------------


def test_advise_hands_repeat_for_a_seed_and_differ_across_seeds():
    a = [workloads.advise_hand(7, i) for i in range(20)]
    assert a == [workloads.advise_hand(7, i) for i in range(20)]
    assert a != [workloads.advise_hand(8, i) for i in range(20)]
    villains = [len(h[0].calls[0][1][2]) for h in a]
    assert set(villains) <= {1, 2, 3} and len(set(villains)) > 1
    assert all([s.ctx["street"] for s in h] == ["preflop", "flop", "turn", "river"] for h in a)


@pytest.fixture(scope="module")
def report_run(tmp_path_factory):
    """One report pass over a seed's history, with its records, ledger and report."""
    wl = workloads.Report(3, ROOT, tmp_path_factory.mktemp("report"))
    shares = wl.prepare()
    m = wl.measure(shares, passes=1)
    return wl, shares, m


def test_report_history_repeats_for_a_seed_with_exact_lock_shares(report_run):
    wl, shares, _ = report_run
    text = wl.path.read_text(encoding="utf-8")
    assert (text, shares) == workloads.report_history(3)
    assert text[:5000] != workloads.report_history(4, hands=20)[0][:5000]
    locks = {street: sum(n for (s, _), n in workloads.REPORT_LOCKS.items() if s == street) for street in ("preflop", "flop", "turn")}
    assert shares == {
        "preflop_lock_share": locks["preflop"] / workloads.REPORT_HANDS,
        "flop_turn_lock_share": (locks["flop"] + locks["turn"]) / workloads.REPORT_HANDS,
    }


def test_advise_times_only_the_calls_into_the_program(tmp_path):
    wl = workloads.Advise(4, ROOT, tmp_path)
    m = wl.measure(wl.prepare(), hands=3)
    assert m.elapsed_ns == sum(m.op_ns) > 0 and len(m.op_ns) == 4 * m.hands == 12


# -- failure accounting -------------------------------------------------------------


def _record(hand_id):
    return table.HandRecord(
        hand_id=hand_id, table_id="t", button=0, sb_cents=1, bb_cents=2,
        seats=[(0, "hero", 200), (1, "p1", 200)], holes={}, board=(), actions=[], showdown=[],
        awards={0: 3, 1: 0}, rake_paid={}, net={0: 1, 1: -1}, saw_flop=False,
    )


def test_fastfold_fails_the_raising_hand_and_every_hand_never_reached(tmp_path):
    def dies_on_hand_4(config, brain, store, on_record):
        for hand_id in (1, 2, 3):
            on_record(_record(hand_id))
        raise NameError("name 'X' is not defined")

    wl = workloads.Fastfold(1, ROOT, tmp_path)
    m = wl.measure(None, hands=10, run_session=dies_on_hand_4)
    wl.check(None, m)
    assert (m.attempted, m.hands, m.failed, len(m.op_ns)) == (10, 3, 7, 0)
    assert m.failures[0].startswith("hand 4: NameError at ")
    assert "test_holdembench.py:" in m.failures[0]
    rows = {name: value for name, _, value, _ in run.end_to_end(m, 0.5)}
    assert rows["ops_per_s"] is None and rows["op_ms_p50"] is None and rows["op_ms_p99"] is None


def test_failed_checks_count_hands():
    assert workloads.failed_ops([], 50) == 0
    assert workloads.failed_ops(["hand 3: chips not conserved", "hand 3: ledger row differs"], 50) == 1
    assert workloads.failed_ops(["hand 3: x", "report totals break y"], 50) == 50


def test_chip_conservation_check_finds_a_leaking_hand():
    good, bad = _record(1), _record(2)
    bad.net = {0: 2, 1: -1}
    assert workloads.conservation_failures([good, bad]) == ["hand 2: chips not conserved"]


def test_report_checks_pass_on_the_program_and_catch_a_wrong_ledger(report_run):
    wl, shares, m = report_run
    records, ledger, rep = m.info["first"]
    assert workloads.ledger_failures(records, ledger, rep, workloads.RAKEBACK_RATE) == []
    assert workloads.adjusted_failures(records, ledger) == []
    wrong = copy.deepcopy(rep)
    wrong.rakeback_cents += 1
    wrong.final_cents += 1
    assert len(workloads.ledger_failures(records, ledger, wrong, workloads.RAKEBACK_RATE)) == 2
    assert workloads.ledger_failures(records, ledger, rep, 0.07)  # rakeback at another rate
    hero = [r.hero_seat_of(workloads.HERO) for r in records]
    locks = {r.hand_id: workloads.lock_street(r, s) for r, s in zip(records, hero)}
    row_of = {row.hand_id: row for row in ledger.rows}
    for street, delta in (("turn", 1), ("flop", 1), (None, 1)):
        bent = copy.deepcopy(ledger)
        hand = next(h for h, s in locks.items() if s == street)
        next(row for row in bent.rows if row.hand_id == hand).adjusted_cents += delta
        bad = workloads.adjusted_failures(records, bent)
        assert len(bad) == 1 and bad[0].startswith(f"hand {hand}: all-in adjusted {row_of[hand].adjusted_cents + delta},")
    bent = copy.deepcopy(ledger)
    hand = next(h for h, s in locks.items() if s == "preflop")
    rec = next(r for r in records if r.hand_id == hand)
    pot = sum(rec.awards.values()) - rec.total_rake()
    row = next(row for row in bent.rows if row.hand_id == hand)
    row.adjusted_cents += round(0.1 * pot)  # ten points of equity
    assert len(workloads.adjusted_failures(records, bent)) == 1


def test_scalar_runout_equity_matches_known_spots():
    c = lambda text: tuple(table.parse_cards(text))  # noqa: E731
    # Aces against kings with every board card known but the river.
    assert workloads.runout_equity(c("AsAh"), [c("KsKh")], c("2c7d9cJs")) == workloads.Fraction(44 - 2, 44)
    # The same ranks split every river: both play the board.
    assert workloads.runout_equity(c("2s3h"), [c("2d3c")], c("AhKhQdJc")) == workloads.Fraction(1, 2)


# -- tracing ---------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    t = layers.Tracer()
    t.spans += [["a", 0, 100, -1, 1, 0], ["b", 10, 40, 0, 1, 0], ["c", 15, 25, 1, 1, 0], ["b", 50, 60, 0, 1, 0]]
    agg = t.by_name()
    assert agg["a"]["self"] == [60]
    assert agg["b"]["self"] == [20, 10]
    assert agg["c"]["self"] == [10]


def test_tracer_patches_every_from_import_binding_and_restores_it():
    before = layers.snapshot_targets()
    original = rets.reshape
    assert brain.reshape is original and session.all_in_adjusted is metrics.all_in_adjusted
    with layers.Tracer():
        assert brain.reshape is rets.reshape and rets.reshape.__wrapped__ is original
        assert session.all_in_adjusted is metrics.all_in_adjusted
        assert metrics.all_in_adjusted.__wrapped__ is before[("holdemlab.metrics", "all_in_adjusted")]
        assert not same(before, layers.snapshot_targets())
    assert same(before, layers.snapshot_targets())


def test_untraced_run_leaves_every_wrapped_attribute_identical(tmp_path):
    before = layers.snapshot_targets()
    wl = workloads.Advise(1, ROOT, tmp_path)
    m = wl.measure(wl.prepare(), hands=3)
    assert same(before, layers.snapshot_targets())
    assert (m.attempted, m.failed, m.hands) == (12, 0, 3)


def test_traced_run_nests_spans_per_hand_and_changes_no_output(tmp_path):
    wl = workloads.Advise(2, ROOT, tmp_path)
    plans = wl.prepare()
    tracer = layers.Tracer()
    with tracer:  # first: the process-global board cache holds only the warm-up hand
        traced = wl.measure(plans, hands=2, tracer=tracer)
    assert traced.digest == wl.measure(plans, hands=2).digest
    names = {s[layers.NAME] for s in tracer.spans}
    assert {"brain.Brain.decide", "rets.reshape", "rsm.BoardContext.__init__", "cards.score_cards_batch"} <= names
    assert {s[layers.HAND] for s in tracer.spans} == {1, 2}
    builds = [s for s in tracer.spans if s[layers.NAME] == "rsm.BoardContext.__init__"]
    assert builds and all(tracer.spans[s[layers.PARENT]][layers.NAME] == "rsm.BoardContext.cached" for s in builds)
    assert all(s[layers.ROWS] > 0 for s in tracer.spans if s[layers.NAME] == "cards.score_cards_batch")


# -- the command -------------------------------------------------------------------------


def _advise(seed, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "advise", "--seed", str(seed), "--seconds", "1"]
    out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120).stdout
    digest = next(line for line in out.splitlines() if "output digest" in line).split("output digest")[1]
    return digest, json.loads(out.splitlines()[-1])


def test_same_seed_gives_the_same_output_digest_in_fresh_processes():
    a, res_a = _advise(5, 0)
    b, res_b = _advise(5, 12345)
    assert a == b
    assert res_a["correct"] and res_b["correct"] and res_a["failed"] == 0


def test_exits_nonzero_and_prints_no_result_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "holdembench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "holdembench/run.py", "--workload", "advise", "--seed", "1", "--seconds", "1"]
    p = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert p.returncode != 0 and p.stdout.strip() == ""


def test_benchmark_json_names_the_metrics_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(n, u) for n, u, *_ in run.end_to_end(workloads.Measurement(), 0.0)]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == e2e
    layer = [(n, u) for n, u, *_ in run.per_layer({}, 0, None)]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layer
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
