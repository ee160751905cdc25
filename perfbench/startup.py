"""Timed set-up: import rblab and its CLI, build the Clifford group and the
compilation table, and build a workload's first gateset.

Run as a script in a fresh interpreter it prints the set-up time in
seconds; run.py reports the median over several such runs as `setup_s`:

    python3 perfbench/startup.py <src dir> '<error model JSON>'
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def start(src: Path, model: dict):
    """Set up from `src`; returns (seconds taken, the rblab package)."""
    t0 = time.perf_counter()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import rblab
    import rblab.cli

    group = rblab.generate_clifford_group()
    table = rblab.compile_cliffords(group)
    rblab.build_gateset(error_model(rblab, model), group, table)
    return time.perf_counter() - t0, rblab


def error_model(rblab, model: dict):
    """The rblab error model for one of the model dicts the workloads use."""
    name = model["name"]
    if name == "coherent_z":
        return rblab.CoherentZ(float(model["theta"]))
    if name == "general":
        return rblab.GeneralPrimitive.from_error_vectors(
            model["rotation_x"], model["rotation_y"], float(model["lambda"])
        )
    if name == "depolarizing":
        return rblab.GateIndependent.depolarizing(float(model["lambda"]))
    raise ValueError(f"no benchmark workload uses error model {name!r}")


if __name__ == "__main__":
    seconds, _ = start(Path(sys.argv[1]), json.loads(sys.argv[2]))
    print(repr(seconds))
