"""Every benchmark command, run at the default workload seed, reproduces the
golden outputs in perfbench/golden within the benchmark's own tolerance.

The commands and the comparison are the benchmark's (perfbench/run.py and
perfbench/checks.py), imported as they are.
"""

import sys
from pathlib import Path

import pytest

import rblab
import rblab.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

COMMANDS = [
    (workload, command)
    for workload, make_commands in workloads.WORKLOADS.items()
    for command in make_commands(workloads.DEFAULT_SEED)
]


@pytest.mark.parametrize(
    "workload, command", COMMANDS, ids=[f"{workload}/{command.label}" for workload, command in COMMANDS]
)
def test_outputs_match_golden(tmp_path, workload, command):
    out = tmp_path / command.label
    run.execute(rblab, command, out)
    assert checks.compare_dirs(out, run.GOLDEN / workload / command.label) == []
