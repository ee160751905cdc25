"""rblab runs without scipy: a fresh interpreter in which `import scipy`
fails imports `rblab` and `rblab.cli`, runs every command, the gauge search
`epsilon_min_search` on its worker processes and a diamond bracket that
polishes, and loads no scipy module. The fit solves with numpy's `dgelsd`
and polishes with `protocol._bounded_brent`; both Nelder-Mead searches run
`superop._nelder_mead`."""

import json
import subprocess
import sys
from pathlib import Path

import rblab

_CHILD = """
import json
import sys
from pathlib import Path

import numpy as np

sys.modules["scipy"] = None  # any `import scipy...` now raises ImportError
sys.path.insert(0, sys.argv[1])
import rblab
import rblab.cli
from rblab import gauge


def loaded():
    return sorted(name for name, module in sys.modules.items() if name.split(".")[0] == "scipy" and module is not None)


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
scipy_after = {"import": loaded()}
for name, config in configs.items():
    rblab.cli.run(config, out / name)
    scipy_after[name] = loaded()

gauge.epsilon_min_search(rblab.build_gateset(rblab.GateIndependent.depolarizing(0.99)), restarts=2)
scipy_after["epsilon_min_search"] = loaded()
damping = rblab.as_channel([[1, 0, 0, 0], [0, 0.7**0.5, 0, 0], [0, 0, 0.7**0.5, 0], [0.3, 0, 0, 0.7]])
lower, upper = rblab.diamond_bracket(damping, np.eye(4))
scipy_after["diamond_bracket"] = loaded()
print(json.dumps({"scipy_after": scipy_after, "polished": upper - lower > 1e-3}))
"""


def test_rblab_runs_with_scipy_blocked(tmp_path):
    src = str(Path(rblab.__file__).resolve().parent.parent)
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, src, str(tmp_path)], capture_output=True, text=True, check=True
    )
    loaded = json.loads(child.stdout.splitlines()[-1])
    assert (tmp_path / "simulate" / "rb_fit.json").exists() and (tmp_path / "sweep" / "sweep.csv").exists()
    names = [
        "import",
        "simulate",
        "sweep",
        "theory-general",
        "theory-depolarizing",
        "gauge-demo",
        "counterexample",
        "epsilon_min_search",
        "diamond_bracket",
    ]
    assert loaded == {"scipy_after": dict.fromkeys(names, []), "polished": True}
