"""scripts/settings.py lists every settable value of the package."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Settings that became constants, each caller passing the one value, and
# settings that no caller reached, deleted with what they set.
REMOVED = (
    "brain:Brain.__init__.config",
    "brain:Brain.__init__.dispatch",
    "brain:Brain.__init__.rets",
    "brain:Brain.begin_hand.table_score",
    "brain:BrainConfig.aggr_jitter",
    "brain:BrainConfig.bb_defend_pct",
    "brain:BrainConfig.bet_sizes_pot",
    "brain:BrainConfig.call_curve",
    "brain:BrainConfig.call_vs_raise_pct",
    "brain:BrainConfig.continue_curve",
    "brain:BrainConfig.continue_vs_threebet_pct",
    "brain:BrainConfig.equity_combo_samples",
    "brain:BrainConfig.equity_runout_samples",
    "brain:BrainConfig.ev_epsilon_bb",
    "brain:BrainConfig.exploit_threshold",
    "brain:BrainConfig.lag_table_score_threshold",
    "brain:BrainConfig.open_pct",
    "brain:BrainConfig.source_weights",
    "brain:BrainConfig.spr_commit",
    "brain:BrainConfig.threebet_pct",
    "brain:BrainConfig.tilt_trigger_bad_beats",
    "brain:BrainConfig.value_bet_rs",
    "brain:BrainConfig.value_raise_margin",
    "brain:BrainConfig.vpip_jitter",
    "brain:Recommendation.think_time_ms",
    "brain:StyleState.aggr_delta",
    "brain:StyleState.bad_beat_streak",
    "brain:StyleState.baseline",
    "brain:StyleState.mode",
    "brain:StyleState.vpip_delta",
    "cards:score_cards_batch.board",
    "cards:score_cards_batch.holes",
    "learning:apply_learning.audit",
    "learning:apply_learning.delta_correct",
    "learning:apply_learning.delta_reinforce",
    "learning:replay_with_perfect_info.store",
    "profiles:ArchetypeThresholds.lag_af",
    "profiles:ArchetypeThresholds.loose_vpip",
    "profiles:ArchetypeThresholds.medium_vpip",
    "profiles:ArchetypeThresholds.min_hands",
    "profiles:ArchetypeThresholds.passive_af",
    "profiles:ArchetypeThresholds.rock_vpip",
    "profiles:ArchetypeThresholds.tight_vpip",
    "profiles:ArchetypeThresholds.whale_vpip",
    "profiles:ProfileStore.__init__.exploit_rules",
    "profiles:ProfileStore.__init__.thresholds",
    "profiles:ProfileStore.load.**kwargs",
    "profiles:classify.thresholds",
    "profiles:recount_stats.reveals",
    "rets:PipelineStep.__init__.categories",
    "rets:PipelineStep.__init__.grid",
    "rets:PipelineStep.__init__.kill",
    "rets:PipelineStep.__init__.prior",
    "rets:PipelineStep.__init__.ret",
    "rets:load_ret_set.path",
    "rsm:RsmTable.__init__.clamp",
    "scenario:run_scenario.trace",
    "session:SessionConfig.bot_stack_bb",
    "table:SeatConfig.policy",
)


def test_settings_script_lists_each_value_once():
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "settings.py")], capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    *names, total = run.stdout.splitlines()
    assert total == f"total {len(names)}"
    assert names == sorted(set(names))
    # one of each kind: a defaulted parameter, a dataclass field, a CLI option
    assert {"rsm:RsmTable.__init__.rules", "session:SessionConfig.hands", "cli:build_parser.simulate.--hands"} <= set(
        names
    )
    assert not set(REMOVED) & set(names)
