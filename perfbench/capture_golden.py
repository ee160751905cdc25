"""Capture the golden outputs that checks.py compares against.

Runs every workload's commands once at the default seed, writing their
output files into golden/<workload>/<command label>/. The CLI embeds the
output directory in every file; it is written relative to the repository
root, and checks.py ignores it. Run on the commit whose outputs are the
reference:

    python3 perfbench/capture_golden.py
"""

from __future__ import annotations

import os
import shutil

import startup
from run import GOLDEN, ROOT, SRC, execute
from workloads import DEFAULT_SEED, WORKLOADS, first_model


def main() -> None:
    os.chdir(ROOT)
    for workload, make_commands in WORKLOADS.items():
        commands = make_commands(DEFAULT_SEED)
        _, rblab = startup.start(SRC, first_model(commands))
        for command in commands:
            target = (GOLDEN / workload / command.label).relative_to(ROOT)
            shutil.rmtree(target, ignore_errors=True)
            execute(rblab, command, target)
            print(f"captured {target}")


if __name__ == "__main__":
    main()
