"""What a fresh interpreter loads: `simulate` and `sweep` never import
`scipy.optimize` (the fit polishes with `protocol._bounded_brent`), and
`epsilon_min_search` imports it before its workers fork, so that they
inherit it."""

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
rblab.cli.run({
    "command": "simulate",
    "seed": 7,
    "error_model": {"name": "depolarizing", "lambda": 0.99},
    "rb": dict(rb, repeats=2),
}, out / "simulate")
rblab.cli.run({
    "command": "sweep",
    "seed": 5,
    "rb": rb,
    "sweep": {"parameter": "theta", "grid": [0.1, 0.2], "repeats": 2},
}, out / "sweep")
after_runs = "scipy.optimize" in sys.modules

at_fork = []
fork_map = gauge._fork_map


def spy(func, items):
    at_fork.append("scipy.optimize" in sys.modules)
    return fork_map(func, items)


gauge._fork_map = spy
gauge.epsilon_min_search(rblab.build_gateset(rblab.GateIndependent.depolarizing(0.99)), restarts=2)
print(json.dumps({"after_runs": after_runs, "at_fork": at_fork}))
"""


def test_simulate_and_sweep_leave_scipy_optimize_unloaded(tmp_path):
    src = str(Path(rblab.__file__).resolve().parent.parent)
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, src, str(tmp_path)], capture_output=True, text=True, check=True
    )
    loaded = json.loads(child.stdout.splitlines()[-1])
    assert (tmp_path / "simulate" / "rb_fit.json").exists() and (tmp_path / "sweep" / "sweep.csv").exists()
    assert loaded == {"after_runs": False, "at_fork": [True]}
