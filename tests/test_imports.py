"""What a fresh interpreter loads: `import rblab` and the commands
`simulate`, `sweep`, `theory`, `gauge-demo` and `counterexample` load no
scipy module (the fit solves with numpy's `dgelsd` and polishes with
`protocol._bounded_brent`), and `epsilon_min_search` imports
`scipy.optimize` before its workers fork, so that they inherit it."""

import json
import subprocess
import sys
from pathlib import Path

import rblab

_CHILD = """
import json
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import rblab
import rblab.cli
from rblab import gauge

out = Path(sys.argv[2])
rb = {"lengths": [1, 51, 101, 151], "k_per_length": 10}
general = {"name": "general", "rotation_x": [0.001, 0.005, 0.1], "rotation_y": [0.004, 0.003, 0.1], "lambda": 1.0 - 5e-5}
configs = {
    "simulate": {
        "command": "simulate",
        "seed": 7,
        "error_model": {"name": "depolarizing", "lambda": 0.99},
        "rb": dict(rb, repeats=2),
    },
    "sweep": {
        "command": "sweep",
        "seed": 5,
        "rb": rb,
        "sweep": {"parameter": "theta", "grid": [0.1, 0.2], "repeats": 2},
    },
    "theory-general": {"command": "theory", "seed": 0, "error_model": general},
    "theory-depolarizing": {"command": "theory", "seed": 0, "error_model": {"name": "depolarizing", "lambda": 0.99}},
    "gauge-demo": {"command": "gauge-demo", "seed": 0, "error_model": {"name": "coherent_z", "theta": 0.1}},
    "counterexample": {
        "command": "counterexample",
        "seed": 0,
        "counterexample": {"lambda": 0.99, "alpha_grid": {"start": 0.9, "stop": 1.1, "num": 5}},
    },
}
scipy_after = {}
for name, config in configs.items():
    rblab.cli.run(config, out / name)
    scipy_after[name] = sorted(module for module in sys.modules if module.split(".")[0] == "scipy")

at_fork = []
fork_map = gauge._fork_map


def spy(func, items):
    at_fork.append("scipy.optimize" in sys.modules)
    return fork_map(func, items)


gauge._fork_map = spy
gauge.epsilon_min_search(rblab.build_gateset(rblab.GateIndependent.depolarizing(0.99)), restarts=2)
print(json.dumps({"scipy_after": scipy_after, "at_fork": at_fork}))
"""


def test_simulate_and_sweep_leave_scipy_optimize_unloaded(tmp_path):
    src = str(Path(rblab.__file__).resolve().parent.parent)
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, src, str(tmp_path)], capture_output=True, text=True, check=True
    )
    loaded = json.loads(child.stdout.splitlines()[-1])
    assert (tmp_path / "simulate" / "rb_fit.json").exists() and (tmp_path / "sweep" / "sweep.csv").exists()
    names = ["simulate", "sweep", "theory-general", "theory-depolarizing", "gauge-demo", "counterexample"]
    assert loaded == {"scipy_after": dict.fromkeys(names, []), "at_fork": [True]}
