"""Checks of every output file a benchmark command writes.

At the default workload seed the files are compared with the golden copies
in `golden/<workload>/<command label>/`, number by number after parsing,
within 1e-12 (relative above magnitude 1). Bytes are not compared, and the
`output_dir` that the CLI embeds in every file's config is dropped first.
At every seed the files must also satisfy the invariants that the
acceptance criteria use.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from startup import error_model
from workloads import Command, resolve_lengths

TOLERANCE = 1e-12


def parse(path: Path):
    """A JSON file as loaded, or a CLI CSV file as
    {"config": ..., "columns": [...], "rows": [[...], ...]}."""
    text = path.read_text()
    if path.suffix == ".json":
        return _drop_output_dir(json.loads(text))
    lines = text.splitlines()
    prefix = "# config: "
    if not lines or not lines[0].startswith(prefix):
        raise ValueError(f"{path.name}: no embedded config line")
    return {
        "config": _drop_output_dir({"config": json.loads(lines[0][len(prefix):])})["config"],
        "columns": lines[1].split(","),
        "rows": [[_token(t) for t in line.split(",")] for line in lines[2:]],
    }


def _token(text: str):
    if text in ("true", "false"):
        return text == "true"
    return float(text)


def _drop_output_dir(payload):
    if isinstance(payload, dict) and isinstance(payload.get("config"), dict):
        payload["config"].pop("output_dir", None)
    return payload


def close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= TOLERANCE * max(1.0, abs(b))


def compare(actual, golden, where: str = "") -> list[str]:
    """Differences between two parsed outputs; numbers within TOLERANCE."""
    if isinstance(golden, bool) or golden is None or isinstance(golden, str):
        return [] if actual == golden and type(actual) is type(golden) else [f"{where}: {actual!r} != {golden!r}"]
    if isinstance(golden, (int, float)):
        if isinstance(actual, (int, float)) and not isinstance(actual, bool) and close(float(actual), float(golden)):
            return []
        return [f"{where}: {actual!r} != {golden!r}"]
    if isinstance(golden, dict):
        if not isinstance(actual, dict) or set(actual) != set(golden):
            return [f"{where}: keys differ"]
        return [p for key in golden for p in compare(actual[key], golden[key], f"{where}.{key}")]
    if isinstance(golden, list):
        if not isinstance(actual, list) or len(actual) != len(golden):
            return [f"{where}: lengths differ"]
        return [p for i, (a, g) in enumerate(zip(actual, golden)) for p in compare(a, g, f"{where}[{i}]")]
    raise TypeError(f"unexpected value {golden!r} in a golden file")


def compare_dirs(out_dir: Path, golden_dir: Path) -> list[str]:
    names = sorted(p.name for p in out_dir.iterdir())
    expected = sorted(p.name for p in golden_dir.iterdir())
    if names != expected:
        return [f"files {names} != golden {expected}"]
    return [p for name in names for p in compare(parse(out_dir / name), parse(golden_dir / name), name)]


class Checker:
    """Checks one command's output directory; `rblab` is the package under
    test, used only for the sampled-mean reference of `simulate`."""

    def __init__(self, rblab, golden: Path | None):
        self.rblab = rblab
        self.golden = golden
        self._exact: dict[str, list[float]] = {}

    def check(self, command: Command, out_dir: Path) -> list[str]:
        try:
            problems = _INVARIANTS[command.config["command"]](self, command.config, out_dir)
            if self.golden is not None:
                problems += compare_dirs(out_dir, self.golden / command.label)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        return problems

    def _simulate(self, config: dict, out_dir: Path) -> list[str]:
        rb = config["rb"]
        lengths = resolve_lengths(rb["lengths"])
        data = parse(out_dir / "rb_dataset.csv")
        fit = parse(out_dir / "rb_fit.json")
        exact = self._exact_decay(config, lengths)
        problems = []
        if [row[0] for row in data["rows"]] != lengths:
            problems.append("rb_dataset.csv: lengths differ from the config")
        for (m, mean, std, k), p_exact in zip(data["rows"], exact):
            # per-length mean of k sampled sequences against the exact
            # average over all sequences: six standard errors
            if k != rb["k_per_length"] or not 0.0 <= mean <= 1.0:
                problems.append(f"rb_dataset.csv: bad row at m = {m:g}")
            elif abs(mean - p_exact) > 6.0 * std / math.sqrt(k) + TOLERANCE:
                problems.append(f"rb_dataset.csv: p_mean {mean} at m = {m:g} is off the exact {p_exact}")
        if fit["seed"] != config["seed"] or not math.isfinite(fit["r_hat"]):
            problems.append("rb_fit.json: wrong seed or non-finite r_hat")
        return problems

    def _exact_decay(self, config: dict, lengths: list[int]) -> list[float]:
        key = json.dumps([config["error_model"], lengths], sort_keys=True)
        if key not in self._exact:
            gateset = self.rblab.build_gateset(error_model(self.rblab, config["error_model"]))
            self._exact[key] = [float(p) for p in self.rblab.exact_decay(gateset, lengths=lengths)[1]]
        return self._exact[key]

    def _sweep(self, config: dict, out_dir: Path) -> list[str]:
        data = parse(out_dir / "sweep.csv")
        grid = config["sweep"]["grid"]
        thetas = [row[0] for row in data["rows"]]
        if len(thetas) != len(grid) or not all(close(a, b) for a, b in zip(thetas, grid)):
            return ["sweep.csv: thetas differ from the config"]
        problems = []
        for theta, r_hat, r_std, r_gamma, epsilon in data["rows"]:
            # coherent errors: the gateset infidelity exceeds r_gamma > 0
            if not (math.isfinite(r_hat) and r_std >= 0.0 and 0.0 < r_gamma < epsilon):
                problems.append(f"sweep.csv: bad row at theta = {theta}")
        return problems

    def _theory(self, config: dict, out_dir: Path) -> list[str]:
        data = parse(out_dir / "theory_decay.csv")
        summary = parse(out_dir / "theory_summary.json")
        delta = summary["delta_diamond"]
        problems = []
        for m, p_exact, p_predicted, lo, hi in data["rows"]:
            # the bound of criterion 6; TOLERANCE absorbs the rounding of
            # two different computations when delta_diamond is exactly 0
            if abs(p_exact - p_predicted) > delta + TOLERANCE:
                problems.append(f"theory_decay.csv: |p_exact - p_predicted| > delta_diamond at m = {m:g}")
            if not (close(lo, p_predicted - delta) and close(hi, p_predicted + delta)):
                problems.append(f"theory_decay.csv: bounds are not p_predicted -+ delta at m = {m:g}")
        if not close(summary["r_gamma"], (1.0 - summary["gamma"]) / 2.0):
            problems.append("theory_summary.json: r_gamma != (1 - gamma) / 2")
        return problems

    def _gauge_demo(self, config: dict, out_dir: Path) -> list[str]:
        report = parse(out_dir / "gauge_report.json")
        wallman = parse(out_dir / "wallman.json")
        problems = []
        if not wallman["residual"] < 1e-8:
            problems.append(f"wallman.json: residual {wallman['residual']} >= 1e-8")
        if not abs(wallman["epsilon_in_gauge"] - wallman["r_gamma"]) < 1e-8:
            problems.append("wallman.json: |epsilon_in_gauge - r_gamma| >= 1e-8")
        if not close(report["r_reference"], wallman["r_gamma"]):
            problems.append("gauge_report.json: r_reference != wallman r_gamma")
        return problems

    def _counterexample(self, config: dict, out_dir: Path) -> list[str]:
        data = parse(out_dir / "counterexample.csv")
        lam = config["counterexample"]["lambda"]
        rows = data["rows"]
        problems = []
        if len(rows) != config["counterexample"]["alpha_grid"]["num"]:
            problems.append("counterexample.csv: row count differs from the grid")
        if not all(close(row[4], (1.0 - lam) / 2.0) for row in rows):
            problems.append("counterexample.csv: r_reference != (1 - lambda) / 2")
        # criterion 9: some alpha != 1 is CP everywhere with epsilon below r
        if not any(row[3] and row[2] >= -1e-10 and row[1] < row[4] and abs(row[0] - 1.0) > 1e-9 for row in rows):
            problems.append("counterexample.csv: no CP gauge with epsilon < r")
        return problems

    def _epsilon_min_search(self, config: dict, out_dir: Path) -> list[str]:
        result = parse(out_dir / "epsilon_min.json")
        r = (1.0 - config["error_model"]["lambda"]) / 2.0
        # the search starts at the input gauge, whose infidelity is r
        if not (result["all_cp"] and result["epsilon_min_estimate"] <= r + TOLERANCE):
            return ["epsilon_min.json: the search left the CP set or rose above r"]
        return []


_INVARIANTS = {
    "simulate": Checker._simulate,
    "sweep": Checker._sweep,
    "theory": Checker._theory,
    "gauge-demo": Checker._gauge_demo,
    "counterexample": Checker._counterexample,
    "epsilon-min-search": Checker._epsilon_min_search,
}
