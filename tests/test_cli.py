import json
import re
from pathlib import Path

import numpy as np
import pytest

from rblab.cli import main, validate


def _write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


BASE_SIMULATE = {
    "command": "simulate",
    "seed": 7,
    "error_model": {"name": "depolarizing", "lambda": 0.99},
    "rb": {"lengths": [1, 51, 101, 151, 201], "k_per_length": 10, "repeats": 2},
}


def test_validate_accepts_well_formed_config():
    assert validate(BASE_SIMULATE) == []


def test_validate_rejects_unknown_model():
    config = dict(BASE_SIMULATE, error_model={"name": "warp-drive"})
    problems = validate(config)
    assert any("unknown model" in p for p in problems)


def test_validate_rejects_bad_k_per_length():
    config = json.loads(json.dumps(BASE_SIMULATE))
    config["rb"]["k_per_length"] = -5
    problems = validate(config)
    assert any("k_per_length" in p for p in problems)


def test_validate_rejects_unknown_keys():
    config = dict(BASE_SIMULATE, shots=100)
    problems = validate(config)
    assert any("unknown key 'shots'" in p for p in problems)


def _with(config, **sections):
    out = json.loads(json.dumps(config))
    for section, values in sections.items():
        out[section] = dict(out.get(section, {}), **values)
    return out


BASE_SWEEP = {
    "command": "sweep",
    "seed": 5,
    "rb": {"lengths": [1, 101, 201, 301, 401], "k_per_length": 20},
    "sweep": {"parameter": "theta", "grid": [0.2, 0.3], "repeats": 2},
}
SWEEP_WITHOUT_REPEATS = dict(BASE_SWEEP, sweep={"parameter": "theta", "grid": [0.2, 0.3]})
BASE_COUNTER = {"command": "counterexample", "seed": 2, "counterexample": {"lambda": 0.99}}
BASE_GAUGE = {"command": "gauge-demo", "seed": 11, "error_model": {"name": "depolarizing", "lambda": 0.99}}
NOT_CP_PTM = np.diag([1.0, 1.5, 1.5, 1.5]).tolist()


@pytest.mark.parametrize(
    "config, field",
    [
        (_with(BASE_SIMULATE, rb={"repeats": 1}), "rb.repeats"),
        (_with(SWEEP_WITHOUT_REPEATS, rb={"repeats": 1}), "sweep.repeats"),
        (_with(BASE_SIMULATE, rb={"lengths": [1, 51, 101], "fit_model": "first"}), "rb.lengths"),
        (_with(BASE_SIMULATE, rb={"lengths": [51, 51, 51, 51]}), "rb.lengths"),
        (_with(BASE_SIMULATE, rb={"lengths": {"start": 1, "stop": 201, "step": 0}}), "rb.lengths"),
        (_with(BASE_SIMULATE, rb={"lengths": {"start": 0, "stop": 201, "step": 10}}), "rb.lengths"),
        (_with(BASE_SIMULATE, rb={"lengths": {"start": 301, "stop": 201, "step": 10}}), "rb.lengths"),
        (_with(BASE_SIMULATE, theory={"lengths": {"start": 1, "stop": 201, "step": 0}}), "theory.lengths"),
        (_with(BASE_COUNTER, counterexample={"alpha_grid": [0.0, 1.0]}), "counterexample.alpha_grid"),
        (_with(BASE_COUNTER, counterexample={"alpha_grid": ["a"]}), "counterexample.alpha_grid"),
        (_with(BASE_COUNTER, counterexample={"alpha_grid": {"start": -1, "stop": 1, "num": "x"}}),
         "counterexample.alpha_grid"),
        (_with(BASE_GAUGE, gauge={"scale": "big"}), "gauge.scale"),
        (dict(BASE_SIMULATE, seed=True), "seed"),
        (_with(BASE_SIMULATE, rb={"k_per_length": True}), "rb.k_per_length"),
        (_with(BASE_SWEEP, rb={"repeats": True}), "rb.repeats"),
        (_with(BASE_SIMULATE, rb={"lengths": [True, 51, 101, 151, 201]}), "rb.lengths"),
        (dict(BASE_SIMULATE, error_model={"name": "coherent_z", "theta": True}), "error_model.theta"),
        (dict(BASE_SIMULATE, error_model={"name": "depolarizing", "lambda": True}), "error_model.lambda"),
        (dict(BASE_SIMULATE, error_model={"name": "general", "rotation_x": [True, 0, 0], "rotation_y": [0, 0.01, 0]}),
         "error_model.rotation_x"),
        (_with(BASE_SWEEP, sweep={"grid": [True, 0.3]}), "sweep.grid"),
        (_with(BASE_SIMULATE, sweep={"bogus": 1}), "sweep: unknown key"),
        (dict(BASE_SIMULATE, error_model={"name": "depolarizing", "lambda": 1.5}), "error_model"),
        (dict(BASE_SIMULATE, error_model={"name": "general", "rotation_x": [0.1, 0, 0], "rotation_y": [0, 0.1, 0],
                                          "lambda": 1.5}), "error_model"),
        (dict(BASE_SIMULATE, error_model={"name": "gate_independent", "ptm": NOT_CP_PTM}), "error_model"),
        (dict(BASE_SIMULATE, error_model={"name": "custom", "gx": NOT_CP_PTM, "gy": NOT_CP_PTM}), "error_model"),
        (_with(BASE_COUNTER, counterexample={"alpha_grid": []}), "counterexample.alpha_grid"),
    ],
    ids=["simulate-one-repeat", "sweep-one-repeat", "too-few-lengths-for-fit", "repeated-lengths", "zero-step",
         "zero-start", "empty-range", "theory-zero-step", "alpha-grid-zero", "alpha-grid-string",
         "alpha-grid-bad-object", "gauge-scale-string", "bool-seed", "bool-k-per-length", "bool-repeats",
         "bool-length", "bool-theta", "bool-lambda", "bool-rotation", "bool-sweep-grid", "unused-section-unknown-key",
         "depolarizing-not-cp", "general-not-cp", "gate-independent-not-cp", "custom-not-cp", "alpha-grid-empty"],
)
def test_validate_rejects_configs_that_cannot_run(tmp_path, capsys, config, field):
    assert any(p.startswith(field) for p in validate(config)), validate(config)
    path = _write_config(tmp_path, config)
    assert main(["--config", str(path), "--validate-only"]) == 2
    assert field in capsys.readouterr().out


def test_validate_accepts_configs_that_run():
    assert validate(BASE_SWEEP) == []
    assert validate(_with(BASE_SIMULATE, rb={"lengths": [1, 51, 101], "fit_model": "zeroth"})) == []
    assert validate(_with(BASE_SWEEP, rb={"repeats": 1})) == []
    assert validate(dict(_with(BASE_SIMULATE, rb={"repeats": 1}), command="theory")) == []


def test_readme_examples_validate():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    assert blocks
    for block in blocks:
        assert validate(json.loads(block)) == []


def test_validate_only_exit_codes(tmp_path, capsys):
    good = _write_config(tmp_path, BASE_SIMULATE, "good.json")
    assert main(["--config", str(good), "--validate-only"]) == 0
    bad = _write_config(tmp_path, {"command": "simulate"}, "bad.json")
    assert main(["--config", str(bad), "--validate-only"]) == 2
    out = capsys.readouterr().out
    assert "error_model" in out


def test_missing_config_file_reports_error(tmp_path):
    assert main(["--config", str(tmp_path / "nope.json")]) == 1


def test_simulate_command_outputs(tmp_path):
    config = _write_config(tmp_path, BASE_SIMULATE)
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out)]) == 0
    dataset = (out / "rb_dataset.csv").read_text().splitlines()
    assert dataset[0].startswith("# config:")
    assert dataset[1] == "m,p_mean,p_std_across_sequences,k"
    assert len(dataset) == 2 + 5
    fit = json.loads((out / "rb_fit.json").read_text())
    assert abs(fit["r_hat"] - 0.005) < 1e-6
    assert fit["seed"] == 7
    assert fit["config"]["rb"]["k_per_length"] == 10


def test_simulate_perfect_gateset_flags_no_decay(tmp_path):
    config = dict(BASE_SIMULATE, error_model={"name": "perfect"})
    path = _write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 0
    rows = (out / "rb_dataset.csv").read_text().splitlines()[2:]
    assert all(abs(float(row.split(",")[1]) - 1.0) < 1e-12 for row in rows)
    fit = json.loads((out / "rb_fit.json").read_text())
    assert "no-decay" in fit["flags"]


def test_theory_command_outputs(tmp_path):
    config = {
        "command": "theory",
        "seed": 3,
        "error_model": {"name": "coherent_z", "theta": 0.1},
        "theory": {"lengths": [1, 2, 51]},
    }
    path = _write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 0
    lines = (out / "theory_decay.csv").read_text().splitlines()
    assert lines[1] == "m,p_exact,p_predicted,bound_lo,bound_hi"
    first = lines[2].split(",")
    assert float(first[3]) <= float(first[1]) <= float(first[4])
    summary = json.loads((out / "theory_summary.json").read_text())
    assert 0 < summary["r_gamma"] < 1e-4
    assert summary["delta_diamond"] > 0
    assert len(summary["eigenvalues"]) == 96


def test_sweep_command_outputs(tmp_path):
    path = _write_config(tmp_path, BASE_SWEEP)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1] == "theta,r_hat,r_std,r_gamma,epsilon"
    assert len(lines) == 4
    theta, r_hat, r_std, r_gamma, epsilon = (float(x) for x in lines[2].split(","))
    assert theta == 0.2 and epsilon > r_gamma


def test_gauge_demo_outputs(tmp_path):
    config = {
        "command": "gauge-demo",
        "seed": 11,
        "error_model": {"name": "depolarizing", "lambda": 0.99},
        "gauge": {"scale": 0.4},
    }
    path = _write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "gauge_report.json").read_text())
    assert abs(report["epsilon_before"] - 0.005) < 1e-12
    assert report["epsilon_after"] != report["epsilon_before"]
    wallman = json.loads((out / "wallman.json").read_text())
    assert abs(wallman["epsilon_in_gauge"] - wallman["r_gamma"]) < 1e-8
    assert wallman["residual"] < 1e-8


def test_counterexample_outputs(tmp_path):
    config = {
        "command": "counterexample",
        "seed": 2,
        "counterexample": {"lambda": 0.99, "alpha_grid": {"start": 0.99, "stop": 1.01, "num": 11}},
    }
    path = _write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 0
    lines = (out / "counterexample.csv").read_text().splitlines()
    assert lines[1] == "alpha,epsilon,min_choi_eigenvalue,all_cp,r_reference"
    rows = [line.split(",") for line in lines[2:]]
    winners = [r for r in rows if r[3] == "true" and float(r[1]) < float(r[4]) and abs(float(r[0]) - 1) > 1e-9]
    assert winners


def test_reruns_are_byte_identical(tmp_path):
    config = {
        "command": "counterexample",
        "seed": 9,
        "counterexample": {"lambda": 0.95, "alpha_grid": {"start": 0.98, "stop": 1.02, "num": 5}},
    }
    path = _write_config(tmp_path, config)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", str(path), "--out", str(out_a)]) == 0
    assert main(["--config", str(path), "--out", str(out_b)]) == 0
    a = (out_a / "counterexample.csv").read_bytes()
    b = (out_b / "counterexample.csv").read_bytes()
    # the embedded config echoes the output dir, which legitimately differs
    assert a.replace(str(out_a).encode(), b"X") == b.replace(str(out_b).encode(), b"X")

    sim = _write_config(tmp_path, BASE_SIMULATE, "sim.json")
    out_c, out_d = tmp_path / "c", tmp_path / "d"
    assert main(["--config", str(sim), "--out", str(out_c)]) == 0
    assert main(["--config", str(sim), "--out", str(out_d)]) == 0
    c = json.loads((out_c / "rb_fit.json").read_text())
    d = json.loads((out_d / "rb_fit.json").read_text())
    assert c["r_hat"] == d["r_hat"] and c["r_std"] == d["r_std"]


def test_seed_override_changes_results(tmp_path):
    config = {
        "command": "simulate",
        "seed": 1,
        "error_model": {"name": "coherent_z", "theta": 0.2},
        "rb": {"lengths": [1, 51, 101, 151], "k_per_length": 10, "repeats": 2},
    }
    path = _write_config(tmp_path, config)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", str(path), "--out", str(out_a)]) == 0
    assert main(["--config", str(path), "--out", str(out_b), "--seed", "999"]) == 0
    a = (out_a / "rb_dataset.csv").read_text().splitlines()[2]
    b = (out_b / "rb_dataset.csv").read_text().splitlines()[2]
    assert a != b
