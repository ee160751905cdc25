"""rblab benchmark: a single-process, closed-loop runner of rblab commands.

    python3 perfbench/run.py --workload {simulate,sweep,analysis} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. The workload's commands (see workloads.py)
are generated from the seed and run one after another, each only after the
previous one returned; one run of the whole list is a pass. The run makes
the number of passes whose end is nearest to S seconds (at least one; two
with --trace 1), every pass's outputs are checked (checks.py), and the
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

With --trace 0 the metrics are the end-to-end ones: wall_s and cpu_s as
medians over passes, setup_s as the median of three set-ups in fresh
interpreters (startup.py), and peak_rss_mb. With --trace 1, untraced and
traced passes alternate and the metrics are the per-layer ones from
spans.py, per traced pass. Lines before the last give every metric with
its unit, the failed fraction with its base, and the run's metadata.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import checks
import spans
import startup
from workloads import DEFAULT_SEED, WORKLOADS, Command, first_model, gate_apps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
SETUP_RUNS = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


PER_LAYER_UNITS = {
    **{f"{name}.{kind}": unit for name in spans.SPANS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **{name: "B" if name == "cli.run.bytes_written" else "count" for name in spans.COUNTS},
    "protocol.run_rb.gate_apps_per_s": "1/s",
    "gate_apps_per_s": "1/s",
    "traced_wall_s": "s",
    "trace_overhead_s": "s",
    "span_self_share": "ratio",
}


def execute(rblab, command: Command, out_dir: Path) -> None:
    """Run one command, writing its outputs into out_dir."""
    config = command.config
    if config["command"] != "epsilon-min-search":
        rblab.cli.run(config, out_dir)
        return
    gateset = rblab.clifford.build_gateset(startup.error_model(rblab, config["error_model"]))
    result = rblab.gauge.epsilon_min_search(gateset, restarts=config["restarts"], seed=config["seed"])
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "epsilon_min_estimate": result.epsilon_min_estimate,
        "all_cp": result.all_cp,
        "min_choi_eigenvalue": result.min_choi_eigenvalue,
        "transform": result.transform.m.tolist(),
        "config": config,
    }
    (out_dir / "epsilon_min.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_pass(rblab, commands: list[Command], out_root: Path, checker: checks.Checker, traced: bool) -> dict:
    """One closed-loop pass over the commands, then the output checks."""
    for command in commands:
        shutil.rmtree(out_root / command.label, ignore_errors=True)
    tracer = spans.Tracer(rblab) if traced else None
    raised = set()
    if tracer is not None:
        tracer.install()
    try:
        cpu0, t0 = _cpu_seconds(), perf_counter()
        for command in commands:
            try:
                execute(rblab, command, out_root / command.label)
            except Exception:  # a failed command is counted, and the pass goes on
                traceback.print_exc()
                raised.add(command.label)
        wall, cpu = perf_counter() - t0, _cpu_seconds() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    failed = len(raised)
    for command in commands:
        if command.label not in raised:
            problems = checker.check(command, out_root / command.label)
            for problem in problems:
                print(f"check failed: {command.label}: {problem}", file=sys.stderr)
            failed += bool(problems)
    return {"wall": wall, "cpu": cpu, "failed": failed, "tracer": tracer}


def _probe_setup(model: dict) -> float:
    """Set-up time of a fresh interpreter, measured by startup.py itself."""
    out = subprocess.run(
        [sys.executable, str(HERE / "startup.py"), str(SRC), json.dumps(model)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def benchmark(commands: list[Command], seconds: float, trace: bool, golden: Path | None):
    """Set up, run passes for `seconds` and check them.

    Returns (metrics, units, attempted, failed, passes).
    """
    model = first_model(commands)
    _, rblab = startup.start(SRC, model)
    checker = checks.Checker(rblab, golden)
    passes = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        start = perf_counter()
        while True:
            passes.append(run_pass(rblab, commands, Path(tmp), checker, traced=trace and len(passes) % 2 == 1))
            # run the number of passes whose end is nearest to `seconds`: stop
            # when one more pass, at the mean pass time, would end more than
            # half a pass after it
            n = len(passes)
            if (perf_counter() - start) * (n + 0.5) / n > seconds and n >= (2 if trace else 1):
                break
    attempted = len(passes) * len(commands)
    failed = sum(p["failed"] for p in passes)
    plain = [p for p in passes if p["tracer"] is None]
    wall_s = statistics.median(p["wall"] for p in plain)
    if trace:
        metrics = _per_layer(passes, wall_s, sum(gate_apps(c) for c in commands))
        units = PER_LAYER_UNITS
    else:
        rss_kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        metrics = {
            "setup_s": statistics.median(_probe_setup(model) for _ in range(SETUP_RUNS)),
            "wall_s": wall_s,
            "cpu_s": statistics.median(p["cpu"] for p in plain),
            "peak_rss_mb": rss_kib / 1024.0,
        }
        units = END_TO_END_UNITS
    return metrics, units, attempted, failed, passes


def _per_layer(passes: list[dict], wall_s: float, config_gate_apps: int) -> dict[str, float]:
    """Per traced pass: exact counts (identical in every traced pass) and
    self times (mean over traced passes)."""
    traced = [p for p in passes if p["tracer"] is not None]
    tracers = [p["tracer"] for p in traced]
    counts = [dict(t.calls(), **t.counts) for t in tracers]
    if any(c != counts[0] for c in counts):
        raise RuntimeError(f"span counts differ between traced passes: {counts}")
    traced_wall = statistics.fmean(p["wall"] for p in traced)
    self_times = [t.self_times() for t in tracers]
    metrics = {}
    for name in spans.SPANS:
        metrics[f"{name}.calls"] = counts[0].get(name, 0)
        metrics[f"{name}.self_s"] = statistics.fmean(s[name] for s in self_times)
    metrics.update({name: counts[0][name] for name in spans.COUNTS})
    run_rb_self = metrics["protocol.run_rb.self_s"]
    gate_apps_traced = metrics["protocol.run_rb.gate_apps"]
    if gate_apps_traced != config_gate_apps:
        raise RuntimeError(f"traced gate applications {gate_apps_traced} != {config_gate_apps} from the configs")
    metrics["protocol.run_rb.gate_apps_per_s"] = gate_apps_traced / run_rb_self if run_rb_self > 0 else 0.0
    metrics["gate_apps_per_s"] = config_gate_apps / wall_s
    metrics["traced_wall_s"] = traced_wall
    metrics["trace_overhead_s"] = traced_wall - wall_s
    metrics["span_self_share"] = statistics.fmean(sum(s.values()) / p["wall"] for p, s in zip(traced, self_times))
    return metrics


def run_metadata(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas": _blas_info(numpy),
        "git_commit": _git_commit(),
    }


def _blas_info(numpy) -> dict:
    """BLAS library numpy was built with, and its thread count where the
    library exposes one."""
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.argtypes, func.restype = [], ctypes.c_int
                threads = func()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rblab" / "__init__.py").is_file():
        print(f"error: no rblab sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    commands = WORKLOADS[args.workload](args.seed)
    golden = GOLDEN / args.workload if args.seed == DEFAULT_SEED else None
    metrics, units, attempted, failed, passes = benchmark(commands, args.seconds, bool(args.trace), golden)

    print(f"workload {args.workload}: {len(passes)} passes of {len(commands)} commands, "
          f"golden check {'on' if golden else 'off'}")
    print("pass wall_s " + " ".join(f"{p['wall']:.4f}{'*' if p['tracer'] else ''}" for p in passes))
    apps = sum(gate_apps(c) for c in commands)
    if apps and not args.trace:
        print(f"gate_apps_per_s {apps / metrics['wall_s']:.6g} 1/s")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"failed_frac {failed / attempted!r} ({failed} of {attempted} commands)")
    print("meta " + json.dumps(run_metadata(args.seed), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
