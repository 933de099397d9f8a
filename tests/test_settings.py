"""scripts/settings.py lists every settable value of the package."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Settings that became constants: each caller passed the one value.
REMOVED = (
    "brain:Brain.__init__.dispatch",
    "brain:Brain.__init__.rets",
    "learning:apply_learning.audit",
    "learning:apply_learning.delta_correct",
    "learning:apply_learning.delta_reinforce",
    "learning:replay_with_perfect_info.store",
    "profiles:ProfileStore.__init__.exploit_rules",
    "profiles:ProfileStore.__init__.thresholds",
    "profiles:ProfileStore.load.**kwargs",
    "rets:load_ret_set.path",
    "rsm:RsmTable.__init__.clamp",
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
