"""Configuration-driven experiment runner.

Reads a single JSON config file, runs one analysis command, and writes
plot-ready CSV/JSON files. Every output embeds the fully resolved config and
seed, numbers are written with 17 significant digits and '.' decimal
separator, and reruns with the same config and seed are byte identical.

Config schema (unknown keys are rejected at every level)::

    {
      "command": "simulate" | "theory" | "sweep" | "gauge-demo" | "counterexample",
      "seed": 0,                          # optional integer >= 0; --seed overrides
      "output_dir": "results",            # optional; --out overrides
      "error_model": {                    # simulate / theory / gauge-demo
        "name": "coherent_z",             # plus exactly the keys of that model:
        "theta": 0.1                      #   perfect: none
      },                                  #   coherent_z: "theta"
                                          #   general: "rotation_x", "rotation_y"
                                          #     ([vx, vy, vz] = theta*axis per
                                          #     primitive), optional "lambda" (1.0)
                                          #   depolarizing: "lambda"
                                          #   gate_independent: "ptm" (4x4 PTM)
                                          #   custom: "gx", "gy" (4x4 PTMs)
      "rb": {                             # optional, defaults shown
        "lengths": [1, 51, ...]           #   or {"start": 1, "stop": 2001, "step": 50}
        "k_per_length": 500,
        "repeats": 50,
        "fit_model": "first"              #   or "zeroth"
      },
      "theory": {"lengths": [...]},       # theory command; defaults to rb lengths
      "sweep": {"parameter": "theta",     # sweep command (coherent_z models)
                "grid": [0.05, ...],
                "repeats": 50},           #   >= 2; defaults to rb repeats
      "counterexample": {"lambda": 0.99,
                         "alpha_grid": [...]   # or {"start", "stop", "num"};
      },                                       # default 81 points in [0.9, 1.1]
      "gauge": {"scale": 0.3}             # gauge-demo: random TP gauge size
    }

Commands and their outputs:

* simulate: rb_dataset.csv (m, p_mean, p_std_across_sequences, k) and
  rb_fit.json (fit parameters, r_hat, r_std; null where not finite).
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
import json
import sys
from pathlib import Path

import numpy as np

from . import clifford, gauge, protocol, theory
from .protocol import _is_integer  # JSON booleans load as bool, a subclass of int, and are not numbers
from .superop import as_channel

__all__ = ["main", "validate", "run"]


def _is_number(value) -> bool:
    """A finite JSON number; Python's json also reads NaN and Infinity."""
    return _is_integer(value) or (isinstance(value, float) and np.isfinite(value))


def _checked(test, message: str, convert=None):
    """A parser that accepts the values passing `test`, converted by `convert`."""

    def parse(value):
        if not test(value):
            raise ValueError(message)
        return value if convert is None else convert(value)

    return parse


def _integer(low: int):
    return _checked(lambda v: _is_integer(v) and v >= low, f"must be an integer >= {low}")


def _one_of(options, what: str):
    def parse(value) -> str:
        if not isinstance(value, str) or value not in options:
            raise ValueError(f"unknown {what} {value!r}, expected one of {list(options)}")
        return value

    return parse


def _is_list(value, item_test, size: int | None = None) -> bool:
    """A non-empty list (of `size` items, if given) whose items pass `item_test`."""
    return isinstance(value, list) and len(value) > 0 and size in (None, len(value)) and all(map(item_test, value))


_number = _checked(_is_number, "must be a number", float)
_probability = _checked(lambda v: _is_number(v) and 0.0 <= v < 1.0, "must be a number in [0, 1)", float)
_string = _checked(lambda v: isinstance(v, str), "must be a string")
_numbers = _checked(lambda v: _is_list(v, _is_number), "must be a non-empty list of numbers")
_vector = _checked(lambda v: _is_list(v, _is_number, 3), "must be a 3-vector of numbers")
_matrix = _checked(lambda v: _is_list(v, lambda row: _is_list(row, _is_number, 4), 4),
                   "must be a 4x4 matrix of numbers", as_channel)


def _lengths(value) -> tuple[int, ...]:
    """A list of lengths, or {start, stop, step} for range(start, stop + 1, step)."""
    if isinstance(value, dict) and set(value) == {"start", "stop", "step"}:
        start, stop, step = value["start"], value["stop"], value["step"]
        if all(map(_is_integer, (start, stop, step))) and min(start, step) >= 1 and stop >= start:
            return tuple(range(start, stop + 1, step))
    elif _is_list(value, lambda m: _is_integer(m) and m >= 1):
        return tuple(value)
    raise ValueError("must be a list of integers >= 1 or {start, stop, step} (integers >= 1, stop >= start)")


def _alpha_grid(value) -> np.ndarray:
    """A list of alphas, or {start, stop, num} for numpy.linspace."""
    if isinstance(value, dict) and set(value) == {"start", "stop", "num"}:
        start, stop, num = value["start"], value["stop"], value["num"]
        if _is_number(start) and _is_number(stop) and min(start, stop) > 0 and _is_integer(num) and num >= 1:
            return np.linspace(float(start), float(stop), num)
    elif _is_list(value, lambda a: _is_number(a) and a > 0):
        return np.asarray([float(a) for a in value])
    raise ValueError("must be a non-empty list of numbers > 0 or {start, stop, num} (> 0, num an integer)")


_REQUIRED = object()  # the default of a key that must be given

# name: ({parameter: (parser, default)}, builder of the error model from the parsed parameters)
_MODELS = {
    "perfect": ({}, lambda p: clifford.Perfect()),
    "coherent_z": ({"theta": (_number, _REQUIRED)}, lambda p: clifford.CoherentZ(p["theta"])),
    "general": (
        {"rotation_x": (_vector, _REQUIRED), "rotation_y": (_vector, _REQUIRED), "lambda": (_number, 1.0)},
        lambda p: clifford.GeneralPrimitive.from_error_vectors(p["rotation_x"], p["rotation_y"], p["lambda"]),
    ),
    "depolarizing": ({"lambda": (_number, _REQUIRED)}, lambda p: clifford.GateIndependent.depolarizing(p["lambda"])),
    "gate_independent": ({"ptm": (_matrix, _REQUIRED)}, lambda p: clifford.GateIndependent(p["ptm"])),
    "custom": (
        {"gx": (_matrix, _REQUIRED), "gy": (_matrix, _REQUIRED)},
        lambda p: clifford.CustomPrimitive(gx=p["gx"], gy=p["gy"]),
    ),
}


# --------------------------------------------------------------------------
# Execution: a runner takes the parsed values, the config to echo, the output directory
# --------------------------------------------------------------------------


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


def _write_json(path: Path, payload: dict, resolved: dict) -> None:
    payload = {**payload, "seed": resolved["seed"], "config": resolved}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _rb_config(values: dict, repeats: int) -> protocol.RBConfig:
    return protocol.RBConfig(
        lengths=values["rb.lengths"], k_per_length=values["rb.k_per_length"], seed=values["seed"], repeats=repeats
    )


def _run_simulate(values: dict, resolved: dict, out_dir: Path) -> None:
    gateset = values["error_model"]
    config = _rb_config(values, values["rb.repeats"])
    dataset = protocol.run_rb(gateset, config)
    stds = dataset.std_across_sequences()
    rows = [
        (m, mean, std, probs.size)
        for m, mean, std, probs in zip(dataset.lengths, dataset.means, stds, dataset.survivals)
    ]
    _write_csv(out_dir / "rb_dataset.csv", ["m", "p_mean", "p_std_across_sequences", "k"], rows, resolved)
    estimate = protocol.estimate_r(gateset, config, model=values["rb.fit_model"])
    good = [f for f in estimate.fits if not np.isnan(f.r_hat)]  # "no-decay" fits have no p
    _write_json(
        out_dir / "rb_fit.json",
        {
            "model": good[0].model if good else None,
            **{key: float(np.mean([getattr(f, key.lower()) for f in good])) if good else None for key in "ABCp"},
            "r_hat": estimate.r_mean if np.isfinite(estimate.r_mean) else None,  # JSON has no NaN
            "r_std": estimate.r_std if np.isfinite(estimate.r_std) else None,
            "flags": sorted({flag for fit in estimate.fits for flag in fit.flags}),
        },
        resolved,
    )


def _run_theory(values: dict, resolved: dict, out_dir: Path) -> None:
    (analysis,) = values["theories"]
    gateset = analysis.gateset
    lengths = values["theory.lengths"]
    spectral, exact = theory.exact_decay(gateset, lengths=lengths)
    predicted = theory.predicted_decay(analysis, lengths=lengths)
    delta = theory.delta_diamond(gateset, seed=values["seed"]).delta_diamond
    rows = [(m, pe, pp, pp - delta, pp + delta) for m, pe, pp in zip(lengths, exact, predicted)]
    _write_csv(out_dir / "theory_decay.csv", ["m", "p_exact", "p_predicted", "bound_lo", "bound_hi"], rows, resolved)
    _write_json(
        out_dir / "theory_summary.json",
        {
            "gamma": analysis.gamma,
            "r_gamma": analysis.r_gamma,
            "delta_diamond": delta,
            "eigenvalues": [[z.real, z.imag] for z in np.sort_complex(spectral.eigenvalues)],
        },
        resolved,
    )


def _run_sweep(values: dict, resolved: dict, out_dir: Path) -> None:
    config = _rb_config(values, values["sweep.repeats"])
    theories = values["theories"]
    estimates = protocol.estimate_rs([t.gateset for t in theories], config, model=values["rb.fit_model"])
    rows = [
        (theta, estimate.r_mean, estimate.r_std, analysis.r_gamma, gauge.agsi_of(analysis.gateset))
        for theta, analysis, estimate in zip(values["sweep.grid"], theories, estimates)
    ]
    _write_csv(out_dir / "sweep.csv", ["theta", "r_hat", "r_std", "r_gamma", "epsilon"], rows, resolved)


def _run_gauge_demo(values: dict, resolved: dict, out_dir: Path) -> None:
    (analysis,) = values["theories"]
    gateset = analysis.gateset
    transform = values["gauge"]
    eps_before = gauge.agsi_of(gateset)
    eps_after, min_eig = gauge.infidelity_and_min_choi(transform.transform_gateset(gateset))
    wallman = gauge.wallman_gauge(analysis, seed=values["seed"])
    _write_json(
        out_dir / "gauge_report.json",
        {
            "epsilon_before": eps_before,
            "epsilon_after": eps_after,
            "all_cp_after": bool(min_eig >= gauge._CP_FLOOR),
            "min_choi_eigenvalue_after": min_eig,
            "r_reference": analysis.r_gamma,
        },
        resolved,
    )
    _write_json(
        out_dir / "wallman.json",
        {
            "gamma": analysis.gamma,
            "r_gamma": analysis.r_gamma,
            "epsilon_in_gauge": wallman.epsilon_in_gauge,
            "min_choi_eigenvalue": wallman.min_choi_eigenvalue,
            "null_space_dim": wallman.null_space_dim,
            "residual": wallman.residual,
            "l_op_ptm": wallman.l_op.tolist(),
        },
        resolved,
    )


def _run_counterexample(values: dict, resolved: dict, out_dir: Path) -> None:
    rows = gauge.counterexample_epsilon_min(values["counterexample.lambda"], values["counterexample.alpha_grid"])
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

# --------------------------------------------------------------------------
# Schema and the one parse step that `validate` and `run` share
# --------------------------------------------------------------------------

# key: (parser, default); a default of None is filled in by _parse (output_dir: by main)
_TOP = {
    "command": (_one_of(_RUNNERS, "command"), _REQUIRED),
    "seed": (_integer(0), 0),
    "output_dir": (_string, None),
}
# section: (commands that cannot run without it, {key: (parser, default)});
# the keys of error_model are its name and the named model's (_MODELS)
_SECTIONS = {
    "error_model": (("simulate", "theory", "gauge-demo"), None),
    "rb": ((), {
        "lengths": (_lengths, list(protocol.DEFAULT_LENGTHS)),
        "k_per_length": (_integer(1), protocol.RBConfig.k_per_length),
        "repeats": (_integer(1), protocol.RBConfig.repeats),
        "fit_model": (_one_of(protocol.FIT_PARAMETERS, "fit model"), "first"),
    }),
    "theory": ((), {"lengths": (_lengths, None)}),  # None: rb.lengths
    "sweep": (("sweep",), {
        "parameter": (_one_of(("theta",), "parameter"), "theta"),
        "grid": (_numbers, _REQUIRED),
        "repeats": (_integer(2), None),  # None: rb.repeats
    }),
    "counterexample": (("counterexample",), {
        "lambda": (_probability, _REQUIRED),
        "alpha_grid": (_alpha_grid, {"start": 0.9, "stop": 1.1, "num": 81}),
    }),
    "gauge": ((), {"scale": (_number, 0.3)}),
}


def _parse_keys(prefix: str, raw: dict, spec: dict, problems: list[str]) -> dict:
    """Parse each key of `spec` from `raw`, or from its default where absent."""
    problems.extend(f"{prefix or 'config'}: unknown key {key!r}" for key in raw if key not in spec)
    values = {}
    for key, (parse, default) in spec.items():
        label = f"{prefix}.{key}" if prefix else key
        if key not in raw and default is _REQUIRED:
            problems.append(f"{label}: required")
        elif key not in raw and default is None:
            values[key] = None
        else:
            try:
                values[key] = parse(raw.get(key, default))
            except ValueError as exc:
                problems.append(f"{label}: {exc}")
    return values


def _parse_model(raw: dict, problems: list[str]) -> clifford.GateSet | None:
    """The gateset of an error_model section, built as `run` builds it, so a
    model the library rejects is reported with the library's message."""
    try:
        params, build = _MODELS[_one_of(_MODELS, "model")(raw.get("name"))]
    except ValueError as exc:
        problems.append(f"error_model.name: {exc}")
        return None
    count = len(problems)
    values = _parse_keys("error_model", {k: v for k, v in raw.items() if k != "name"}, params, problems)
    if len(problems) > count:
        return None
    try:
        return clifford.build_gateset(build(values))
    except ValueError as exc:
        problems.append(f"error_model: {exc}")
        return None


def _parse(config) -> tuple[dict, list[str]]:
    """Parse a config into (the values the runners take, its problems).

    Values are keyed "section.key" (top-level keys bare), defaults filled
    in; "error_model" holds the built gateset. A command that computes
    gamma (theory, gauge-demo, sweep) also needs its gatesets in the
    small-error regime: "theories" holds the `theory.GatesetTheory` of
    each, in order (the error model's, or one per sweep theta). For gauge-demo,
    "gauge" holds the seeded `GaugeTransform.random_tp` of size
    "gauge.scale". Every section present is checked, whatever the command;
    the rules across keys once all parse.
    """
    if not isinstance(config, dict):
        return {}, ["config: must be a JSON object"]
    problems: list[str] = []
    values = _parse_keys("", {k: v for k, v in config.items() if k not in _SECTIONS}, _TOP, problems)
    command = values.get("command")
    for section, (needed_by, spec) in _SECTIONS.items():
        present = section in config
        raw = config.get(section, {})
        if not present and command in needed_by:
            problems.append(f"{section}: required object for command {command!r}")
        if not isinstance(raw, dict):
            problems.append(f"{section}: must be an object")
        elif spec is None:
            values[section] = _parse_model(raw, problems) if present else None
        else:  # an absent section's only problems are its required keys
            parsed = _parse_keys(section, raw, spec, problems if present else [])
            values.update((f"{section}.{key}", value) for key, value in parsed.items())
    if problems:
        return values, problems

    if values["theory.lengths"] is None:
        values["theory.lengths"] = values["rb.lengths"]
    if values["sweep.repeats"] is None:
        values["sweep.repeats"] = values["rb.repeats"]
    if command == "gauge-demo":
        try:
            values["gauge"] = gauge.GaugeTransform.random_tp(values["seed"], values["gauge.scale"])
        except ValueError as exc:
            problems.append(f"gauge.scale: {exc}")
    checked = [("error_model", values["error_model"])] if command in ("theory", "gauge-demo") else []
    if command == "sweep":
        grid = values["sweep.grid"]
        checked = [(f"sweep.grid: theta {t!r}", clifford.build_gateset(clifford.CoherentZ(float(t)))) for t in grid]
    values["theories"] = []
    for label, gateset in checked:
        try:
            values["theories"].append(theory.GatesetTheory(gateset))
        except ValueError as exc:
            problems.append(f"{label}: {exc}")
    if command in ("simulate", "sweep"):
        repeats = "rb.repeats" if command == "simulate" else "sweep.repeats"
        if values[repeats] < 2:
            problems.append(f"{repeats}: command {command!r} needs at least 2 repeats")
        try:
            protocol._check_fit(values["rb.fit_model"], values["rb.lengths"])
        except ValueError as exc:
            problems.append(f"rb.lengths: {exc}")
    return values, problems


def _resolved_config(config: dict, values: dict, out_dir: str) -> dict:
    """The config echoed into the outputs: as given, with the seed, the
    output directory and the whole rb section filled in."""
    rb = {key: values[f"rb.{key}"] for key in _SECTIONS["rb"][1]}
    rb["lengths"] = list(rb["lengths"])
    return {**json.loads(json.dumps(config)), "seed": values["seed"], "output_dir": out_dir, "rb": rb}


def validate(config: dict) -> list[str]:
    """Check a config before running it; returns a list of violations.

    The config is parsed as `run` parses it, which builds the error model
    (and gauge-demo's gauge transform); the gatesets of a command that
    computes gamma (theory, gauge-demo, sweep) must also be in the
    small-error regime. Nothing is simulated."""
    return _parse(config)[1]


def _execute(config: dict, values: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    _RUNNERS[values["command"]](values, _resolved_config(config, values, str(out_dir)), out_dir)


def run(config: dict, out_dir: Path) -> None:
    """Run the config's command, writing its outputs into `out_dir`; raises
    ValueError listing the problems of a config that does not parse."""
    values, problems = _parse(config)
    if problems:
        raise ValueError("invalid config: " + "; ".join(problems))
    _execute(config, values, out_dir)


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

    if args.seed is not None and isinstance(config, dict):
        config["seed"] = args.seed
    values, problems = _parse(config)  # parsed once: the run takes these values
    out, prefix = (sys.stdout, "") if args.validate_only else (sys.stderr, "error: ")
    for problem in problems:
        print(prefix + problem, file=out)
    if problems:
        return 2
    if args.validate_only:
        print("config OK")
        return 0

    out_dir = Path(args.out) if args.out else Path(config.get("output_dir", "rblab-out"))
    try:
        _execute(config, values, out_dir)
    except Exception as exc:  # surface module errors with context, nonzero exit
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
