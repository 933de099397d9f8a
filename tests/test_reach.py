"""scripts/reach.py collects the package lines an entry point runs."""
import importlib.util
from pathlib import Path

from holdemlab import cli, scenario

ROOT = Path(__file__).resolve().parents[1]


def _first_body_line(fn) -> int:
    """The first line after the `def` that the function's code runs."""
    code = fn.__code__
    return min(line for *_, line in code.co_lines() if line and line > code.co_firstlineno)


def test_replay_alone_marks_what_it_runs(tmp_path):
    spec = importlib.util.spec_from_file_location("reach", ROOT / "scripts" / "reach.py")
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    lines, calls = reach.collect(reach.ENTRY_POINTS["replay"], tmp_path)
    scenario_py, cli_py = (str(reach.PACKAGE / name) for name in ("scenario.py", "cli.py"))
    ran, called = lines[scenario_py], calls[scenario_py]
    assert _first_body_line(scenario.run_scenario) in ran
    assert scenario.run_scenario.__code__.co_firstlineno in called
    # replay never simulates: cmd_simulate is listed as never called
    assert _first_body_line(cli.cmd_simulate) not in lines[cli_py]
    plain, errors, summary = reach.never_run(lines, calls)
    assert any(entry.split()[0] == "cli.py:cmd_simulate" and "never called" in entry for entry in plain)
    assert summary.startswith("total: ")
