"""Configuration-driven experiment runner.

Reads a single JSON config file, runs one analysis command, and writes
plot-ready CSV/JSON files. Every output embeds the fully resolved config and
seed, numbers are written with 17 significant digits and '.' decimal
separator, and reruns with the same config and seed are byte identical.

Config schema (unknown keys are rejected at every level)::

    {
      "command": "simulate" | "theory" | "sweep" | "gauge-demo" | "counterexample",
      "seed": 0,                          # optional; --seed overrides
      "output_dir": "results",            # optional; --out overrides
      "error_model": {                    # simulate / theory / gauge-demo
        "name": "coherent_z",             # and one of the parameter sets:
        "theta": 0.1,                     #   coherent_z
        "rotation_x": [vx, vy, vz],       #   general: theta*axis per primitive
        "rotation_y": [vx, vy, vz],       #     plus optional "lambda"
        "lambda": 0.99995,
        "ptm": [[...]],                   #   gate_independent: 4x4 channel PTM
        "gx": [[...]], "gy": [[...]]      #   custom: per-primitive PTMs
      },                                  #   depolarizing: "lambda" only
      "rb": {                             # optional, defaults shown
        "lengths": [1, 51, ...]           #   or {"start": 1, "stop": 2001, "step": 50}
        "k_per_length": 500,
        "repeats": 50,
        "fit_model": "first"              #   or "zeroth"
      },
      "theory": {"lengths": [...]},       # theory command; defaults to rb lengths
      "sweep": {"parameter": "theta",     # sweep command (coherent_z models)
                "grid": [0.05, ...],
                "repeats": 50},
      "counterexample": {"lambda": 0.99,
                         "alpha_grid": [...]   # or {"start", "stop", "num"}
      },
      "gauge": {"scale": 0.3}             # gauge-demo: random TP gauge size
    }

Commands and their outputs:

* simulate: rb_dataset.csv (m, p_mean, p_std_across_sequences, k) and
  rb_fit.json (fit parameters, r_hat, r_std).
* theory: theory_decay.csv (m, p_exact, p_predicted, bound_lo, bound_hi)
  and theory_summary.json (gamma, r_gamma, delta_diamond, eigenvalues).
* sweep: sweep.csv (theta, r_hat, r_std, r_gamma, epsilon).
* gauge-demo: gauge_report.json (infidelity before/after a random gauge) and
  wallman.json (the depolarizing-error gauge).
* counterexample: counterexample.csv
  (alpha, epsilon, min_choi_eigenvalue, all_cp, r_reference).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import clifford, gauge, protocol, theory
from .superop import Superoperator, choi_eigenvalues

__all__ = ["main", "validate", "run"]

_COMMANDS = ("simulate", "theory", "sweep", "gauge-demo", "counterexample")
_MODEL_NAMES = ("perfect", "coherent_z", "general", "gate_independent", "depolarizing", "custom")

_TOP_KEYS = {"command", "seed", "output_dir", "error_model", "rb", "theory", "sweep", "counterexample", "gauge"}
_MODEL_KEYS = {"name", "theta", "rotation_x", "rotation_y", "lambda", "ptm", "gx", "gy"}
_RB_KEYS = {"lengths", "k_per_length", "repeats", "fit_model"}
_THEORY_KEYS = {"lengths"}
_SWEEP_KEYS = {"parameter", "grid", "repeats"}
_COUNTER_KEYS = {"lambda", "alpha_grid"}
_GAUGE_KEYS = {"scale"}


def validate(config: dict) -> list[str]:
    """Schema check without running anything; returns a list of violations."""
    problems: list[str] = []
    if not isinstance(config, dict):
        return ["config: must be a JSON object"]
    for key in config:
        if key not in _TOP_KEYS:
            problems.append(f"config: unknown key {key!r}")
    command = config.get("command")
    if command not in _COMMANDS:
        problems.append(f"command: must be one of {list(_COMMANDS)}, got {command!r}")
    if "seed" in config and not _is_int(config["seed"]):
        problems.append("seed: must be an integer")
    if "output_dir" in config and not isinstance(config["output_dir"], str):
        problems.append("output_dir: must be a string")

    model = config.get("error_model")
    if command in ("simulate", "theory", "gauge-demo") and model is None:
        problems.append(f"error_model: required for command {command!r}")
    if model is not None:
        problems.extend(_validate_model(model))

    rb = config.get("rb", {})
    if not isinstance(rb, dict):
        problems.append("rb: must be an object")
    else:
        for key in rb:
            if key not in _RB_KEYS:
                problems.append(f"rb: unknown key {key!r}")
        if "k_per_length" in rb and (not _is_int(rb["k_per_length"]) or rb["k_per_length"] < 1):
            problems.append("rb.k_per_length: must be an integer >= 1")
        if "repeats" in rb and (not _is_int(rb["repeats"]) or rb["repeats"] < 1):
            problems.append("rb.repeats: must be an integer >= 1")
        elif command == "simulate" and rb.get("repeats", protocol.RBConfig.repeats) < 2:
            problems.append("rb.repeats: command 'simulate' needs at least 2 repeats")
        fit_model = rb.get("fit_model", "first")
        if not isinstance(fit_model, str) or fit_model not in protocol.FIT_PARAMETERS:
            problems.append("rb.fit_model: must be 'zeroth' or 'first'")
            fit_model = None
        length_problems = _validate_lengths(rb["lengths"], "rb.lengths") if "lengths" in rb else []
        problems.extend(length_problems)
        if command in ("simulate", "sweep") and fit_model and not length_problems:
            needed = protocol.FIT_PARAMETERS[fit_model]
            if len(np.unique(_resolve_lengths(rb.get("lengths")))) < needed:
                problems.append(f"rb.lengths: the {fit_model}-order fit needs at least {needed} distinct lengths")

    theory_cfg = config.get("theory", {})
    if not isinstance(theory_cfg, dict):
        problems.append("theory: must be an object")
    else:
        for key in theory_cfg:
            if key not in _THEORY_KEYS:
                problems.append(f"theory: unknown key {key!r}")
        if "lengths" in theory_cfg:
            problems.extend(_validate_lengths(theory_cfg["lengths"], "theory.lengths"))

    if command == "sweep":
        sweep = config.get("sweep")
        if not isinstance(sweep, dict):
            problems.append("sweep: required object for command 'sweep'")
        else:
            for key in sweep:
                if key not in _SWEEP_KEYS:
                    problems.append(f"sweep: unknown key {key!r}")
            if sweep.get("parameter", "theta") != "theta":
                problems.append("sweep.parameter: only 'theta' is supported")
            grid = sweep.get("grid")
            if not isinstance(grid, list) or not grid or not all(_is_number(x) for x in grid):
                problems.append("sweep.grid: must be a non-empty list of numbers")
            if "repeats" in sweep and (not _is_int(sweep["repeats"]) or sweep["repeats"] < 2):
                problems.append("sweep.repeats: must be an integer >= 2")
            elif "repeats" not in sweep and isinstance(rb, dict) and rb.get("repeats") == 1:
                problems.append("sweep.repeats: required when rb.repeats is 1 (the sweep needs at least 2)")

    if command == "counterexample":
        counter = config.get("counterexample")
        if not isinstance(counter, dict):
            problems.append("counterexample: required object for command 'counterexample'")
        else:
            for key in counter:
                if key not in _COUNTER_KEYS:
                    problems.append(f"counterexample: unknown key {key!r}")
            lam = counter.get("lambda")
            if not _is_number(lam) or not (0.0 <= lam < 1.0):
                problems.append("counterexample.lambda: must be a number in [0, 1)")
            grid = counter.get("alpha_grid")
            if isinstance(grid, dict):
                if set(grid) != {"start", "stop", "num"}:
                    problems.append("counterexample.alpha_grid: object form needs start, stop, num")
                elif not all(_is_number(grid[k]) and grid[k] > 0 for k in ("start", "stop")):
                    problems.append("counterexample.alpha_grid: start and stop must be numbers > 0")
                elif not _is_int(grid["num"]) or grid["num"] < 1:
                    problems.append("counterexample.alpha_grid: num must be an integer >= 1")
            elif grid is not None and not (isinstance(grid, list) and all(_is_number(a) and a > 0 for a in grid)):
                problems.append("counterexample.alpha_grid: must be a list of numbers > 0 or {start, stop, num}")

    gauge_cfg = config.get("gauge", {})
    if not isinstance(gauge_cfg, dict):
        problems.append("gauge: must be an object")
    else:
        for key in gauge_cfg:
            if key not in _GAUGE_KEYS:
                problems.append(f"gauge: unknown key {key!r}")
        if "scale" in gauge_cfg and not _is_number(gauge_cfg["scale"]):
            problems.append("gauge.scale: must be a number")

    return problems


def _is_int(value) -> bool:
    """A JSON integer; JSON booleans load as bool, a subclass of int, and are not numbers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _validate_model(model) -> list[str]:
    if not isinstance(model, dict):
        return ["error_model: must be an object"]
    problems = []
    for key in model:
        if key not in _MODEL_KEYS:
            problems.append(f"error_model: unknown key {key!r}")
    name = model.get("name")
    if name not in _MODEL_NAMES:
        problems.append(f"error_model.name: unknown model {name!r}, expected one of {list(_MODEL_NAMES)}")
        return problems
    if name == "coherent_z" and not _is_number(model.get("theta")):
        problems.append("error_model.theta: required number for coherent_z")
    if name == "general":
        for key in ("rotation_x", "rotation_y"):
            vec = model.get(key)
            if not (isinstance(vec, list) and len(vec) == 3 and all(_is_number(x) for x in vec)):
                problems.append(f"error_model.{key}: required 3-vector for general")
        if "lambda" in model and not _is_number(model["lambda"]):
            problems.append("error_model.lambda: must be a number")
    if name == "depolarizing" and not _is_number(model.get("lambda")):
        problems.append("error_model.lambda: required number for depolarizing")
    if name == "gate_independent" and not _is_matrix(model.get("ptm")):
        problems.append("error_model.ptm: required 4x4 matrix for gate_independent")
    if name == "custom" and (not _is_matrix(model.get("gx")) or not _is_matrix(model.get("gy"))):
        problems.append("error_model.gx/gy: required 4x4 matrices for custom")
    return problems


def _is_matrix(value) -> bool:
    return (
        isinstance(value, list)
        and len(value) == 4
        and all(isinstance(row, list) and len(row) == 4 and all(_is_number(x) for x in row) for row in value)
    )


def _validate_lengths(value, label: str) -> list[str]:
    if isinstance(value, dict):
        if set(value) != {"start", "stop", "step"}:
            return [f"{label}: object form needs start, stop, step"]
        start, stop, step = value["start"], value["stop"], value["step"]
        if not all(_is_int(x) and x >= 1 for x in (start, step)):
            return [f"{label}: start and step must be integers >= 1"]
        if not _is_number(stop) or stop < start:
            return [f"{label}: stop must be a number >= start"]
        return []
    if isinstance(value, list) and value and all(_is_int(m) and m >= 1 for m in value):
        return []
    return [f"{label}: must be a list of integers >= 1 or {{start, stop, step}}"]


# --------------------------------------------------------------------------
# Execution
# --------------------------------------------------------------------------


def _resolve_lengths(value) -> tuple[int, ...]:
    if value is None:
        return protocol.DEFAULT_LENGTHS
    if isinstance(value, dict):
        return tuple(range(int(value["start"]), int(value["stop"]) + 1, int(value["step"])))
    return tuple(int(m) for m in value)


def _build_error_model(model: dict) -> clifford.ErrorModel:
    name = model["name"]
    if name == "perfect":
        return clifford.Perfect()
    if name == "coherent_z":
        return clifford.CoherentZ(float(model["theta"]))
    if name == "general":
        return clifford.GeneralPrimitive.from_error_vectors(
            model["rotation_x"], model["rotation_y"], float(model.get("lambda", 1.0))
        )
    if name == "depolarizing":
        return clifford.GateIndependent.depolarizing(float(model["lambda"]))
    if name == "gate_independent":
        return clifford.GateIndependent(Superoperator(np.array(model["ptm"], dtype=float)))
    if name == "custom":
        return clifford.CustomPrimitive(
            gx=Superoperator(np.array(model["gx"], dtype=float)),
            gy=Superoperator(np.array(model["gy"], dtype=float)),
        )
    raise ValueError(f"unknown error model {name!r}")


def _resolved_config(config: dict, seed: int, out_dir: str) -> dict:
    resolved = json.loads(json.dumps(config))
    resolved["seed"] = seed
    resolved["output_dir"] = out_dir
    rb = resolved.setdefault("rb", {})
    rb["lengths"] = list(_resolve_lengths(rb.get("lengths")))
    rb.setdefault("k_per_length", protocol.RBConfig.k_per_length)
    rb.setdefault("repeats", protocol.RBConfig.repeats)
    rb.setdefault("fit_model", "first")
    return resolved


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _write_csv(path: Path, columns: list[str], rows: list[tuple], resolved: dict) -> None:
    lines = [f"# config: {json.dumps(resolved, sort_keys=True)}"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _rb_config(resolved: dict) -> protocol.RBConfig:
    rb = resolved["rb"]
    return protocol.RBConfig(
        lengths=tuple(rb["lengths"]),
        k_per_length=rb["k_per_length"],
        seed=resolved["seed"],
        repeats=rb["repeats"],
    )


def _run_simulate(resolved: dict, out_dir: Path) -> None:
    gateset = clifford.build_gateset(_build_error_model(resolved["error_model"]))
    config = _rb_config(resolved)
    dataset = protocol.run_rb(gateset, config)
    dataset.to_csv(out_dir / "rb_dataset.csv", header_comment=f"config: {json.dumps(resolved, sort_keys=True)}")
    estimate = protocol.estimate_r(gateset, config, model=resolved["rb"]["fit_model"])
    payload = estimate.to_json_dict(seed=resolved["seed"], config=resolved)
    flags = sorted({flag for fit in estimate.fits for flag in fit.flags})
    payload["flags"] = flags
    _write_json(out_dir / "rb_fit.json", payload)


def _run_theory(resolved: dict, out_dir: Path) -> None:
    gateset = clifford.build_gateset(_build_error_model(resolved["error_model"]))
    lengths = _resolve_lengths(resolved.get("theory", {}).get("lengths") or resolved["rb"]["lengths"])
    spectral, exact = theory.exact_decay(gateset, lengths=lengths)
    predicted = theory.predicted_decay(gateset, lengths=lengths)
    bound = theory.delta_diamond(gateset, seed=resolved["seed"])
    gamma_result = theory.gamma_and_r_gamma(theory.build_l_map(gateset))
    rows = [
        (m, pe, pp, pp - bound.delta_diamond, pp + bound.delta_diamond)
        for m, pe, pp in zip(lengths, exact, predicted)
    ]
    _write_csv(out_dir / "theory_decay.csv", ["m", "p_exact", "p_predicted", "bound_lo", "bound_hi"], rows, resolved)
    _write_json(
        out_dir / "theory_summary.json",
        {
            "gamma": gamma_result.gamma,
            "r_gamma": gamma_result.r_gamma,
            "delta_diamond": bound.delta_diamond,
            "eigenvalues": [[z.real, z.imag] for z in np.sort_complex(spectral.eigenvalues)],
            "seed": resolved["seed"],
            "config": resolved,
        },
    )


def _run_sweep(resolved: dict, out_dir: Path) -> None:
    sweep = resolved["sweep"]
    config = dataclasses.replace(_rb_config(resolved), repeats=sweep.get("repeats", resolved["rb"]["repeats"]))
    rows = []
    for theta in sweep["grid"]:
        gateset = clifford.build_gateset(clifford.CoherentZ(float(theta)))
        estimate = protocol.estimate_r(gateset, config, model=resolved["rb"]["fit_model"])
        gamma_result = theory.gamma_and_r_gamma(theory.build_l_map(gateset))
        epsilon = gauge.agsi_of(gateset)
        rows.append((theta, estimate.r_mean, estimate.r_std, gamma_result.r_gamma, epsilon))
    _write_csv(out_dir / "sweep.csv", ["theta", "r_hat", "r_std", "r_gamma", "epsilon"], rows, resolved)


def _run_gauge_demo(resolved: dict, out_dir: Path) -> None:
    gateset = clifford.build_gateset(_build_error_model(resolved["error_model"]))
    scale = resolved.get("gauge", {}).get("scale", 0.3)
    transform = gauge.GaugeTransform.random_tp(seed=resolved["seed"], scale=scale)
    transformed = transform.transform_gateset(gateset)
    eps_before = gauge.agsi_of(gateset)
    eps_after = gauge.agsi_of(transformed)
    min_eig = min(float(choi_eigenvalues(c)[0]) for c in transformed.imperfect)
    gamma_result = theory.gamma_and_r_gamma(theory.build_l_map(gateset))
    _write_json(
        out_dir / "gauge_report.json",
        {
            "epsilon_before": eps_before,
            "epsilon_after": eps_after,
            "all_cp_after": bool(min_eig >= -1e-10),
            "min_choi_eigenvalue_after": min_eig,
            "r_reference": gamma_result.r_gamma,
            "seed": resolved["seed"],
            "config": resolved,
        },
    )
    wallman = gauge.wallman_gauge(gateset, seed=resolved["seed"])
    _write_json(
        out_dir / "wallman.json",
        {
            "gamma": wallman.gamma,
            "r_gamma": wallman.r_gamma,
            "epsilon_in_gauge": wallman.epsilon_in_gauge,
            "min_choi_eigenvalue": wallman.min_choi_eigenvalue,
            "null_space_dim": wallman.null_space_dim,
            "residual": wallman.residual,
            "l_op_ptm": wallman.l_op.ptm.tolist(),
            "seed": resolved["seed"],
            "config": resolved,
        },
    )


def _run_counterexample(resolved: dict, out_dir: Path) -> None:
    counter = resolved["counterexample"]
    lam = float(counter["lambda"])
    grid_spec = counter.get("alpha_grid")
    if grid_spec is None:
        grid = np.linspace(0.9, 1.1, 81)
    elif isinstance(grid_spec, dict):
        grid = np.linspace(float(grid_spec["start"]), float(grid_spec["stop"]), int(grid_spec["num"]))
    else:
        grid = np.asarray([float(a) for a in grid_spec])
    gateset = clifford.build_gateset(clifford.GateIndependent.depolarizing(lam))
    rows = gauge.counterexample_epsilon_min(lam, grid, gateset)
    _write_csv(
        out_dir / "counterexample.csv",
        ["alpha", "epsilon", "min_choi_eigenvalue", "all_cp", "r_reference"],
        [(r.alpha, r.epsilon, r.min_choi_eigenvalue, r.all_cp, r.r_reference) for r in rows],
        resolved,
    )


_RUNNERS = {
    "simulate": _run_simulate,
    "theory": _run_theory,
    "sweep": _run_sweep,
    "gauge-demo": _run_gauge_demo,
    "counterexample": _run_counterexample,
}


def run(config: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved = _resolved_config(config, config["seed"], str(out_dir))
    _RUNNERS[resolved["command"]](resolved, out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="rblab", description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="path to the JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--validate-only", action="store_true", help="check the config and exit")
    args = parser.parse_args(argv)

    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1

    problems = validate(config)
    if args.validate_only:
        if problems:
            for problem in problems:
                print(problem)
            return 2
        print("config OK")
        return 0
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2

    if args.seed is not None:
        config["seed"] = args.seed
    config.setdefault("seed", 0)
    out_dir = Path(args.out) if args.out else Path(config.get("output_dir", "rblab-out"))

    try:
        run(config, out_dir)
    except Exception as exc:  # surface module errors with context, nonzero exit
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
