"""Time rblab's layers on fixed seeds, shape by shape, and check their bytes.

    PYTHONPATH=src python tools/bench.py [kernel|sweep|gauge|startup ...] [--repeats N] [--label NAME]

The shapes (all four when none is named):

- kernel: `protocol.run_rb` on coherent_z with theta = 0.1, at the
  `simulate` size (41 lengths 1..2001 x 500 sequences) and the `sweep` size
  (21 lengths 1..201 x 20 sequences). Every call starts cold: the circuits
  `run_rb` keeps from its last batch are dropped first, so each call draws
  and folds its own.
- sweep: `protocol.estimate_rs` over the `sweep` benchmark workload: 8
  thetas evenly spaced over [0.02, 0.16], lengths 1..201 step 10, 20
  sequences per length and 12 repeats per theta, so 96 datasets and fits.
- gauge: `gauge.epsilon_min_search` on the lambda = 0.99 depolarizing
  gateset of the `analysis` workload, at 2 and 8 restarts, and on
  coherent_z with theta = 0.1 at 2 restarts (unitary gates, whose rank-1
  Choi matrices all fail the search objective's Cholesky test), and
  `gauge.counterexample_epsilon_min` on the same lambda over the CLI's
  default 81 alphas in [0.9, 1.1] (the seed does not enter it).
- startup: a fresh interpreter that sets up as `perfbench/startup.py` does
  (imports `rblab` and `rblab.cli`, builds the Clifford group, its
  compilation and the coherent_z theta = 0.1 gateset), then fits one
  `run_rb` of the `sweep` size on the seed. Its sha1 is that of the sorted
  `scipy` modules the interpreter has loaded by then, and `scipy_modules`
  counts them, so a change that makes set-up or fitting import any of
  scipy changes both (rblab loads none: each child prints an empty line).

Each case of a shape runs on seeds 0..N-1 twice: first as it runs by
default (on the worker processes of `protocol._fork_map`), then with this
process pinned to one CPU, so that every item runs here, and with the
functions of the shape's stages wrapped (in a worker, a wrapper set here
would read nothing). The pinned pass times each stage and counts its work:
the kernel's inversion fold (folded indices) and survival step (gate
applications), the sweep's fits and simulation, the gauge search's
Nelder-Mead runs (objective evaluations, the count `_nelder_mead`
returns) and the counterexample's scoring of each representation
(`gauge.infidelity_and_min_choi` calls); the startup shape has no stage,
since its work runs in the child. Reported per case:
the median seconds of each pass and of each stage, each stage's work over
the pass and its rate over the stage's seconds, and a sha1 of each pass's
results. The run exits 1 when the two sha1s of any case differ. With
--label, each shape's result is stored under that label in
BENCH_<shape>.json at the root of the repository, next to the labels
already there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import rblab
from rblab import CoherentZ, GateIndependent, RBConfig, build_gateset, gauge, protocol

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Stage:
    """The function `owner.<name>` that the pinned pass wraps; one call of
    it does `count(result, *args)` units of work."""

    owner: object
    name: str
    unit: str
    count: Callable


@dataclass(frozen=True)
class Case:
    call: Callable  # seed -> result
    digest: Callable  # results of seeds 0..N-1 -> sha1 hex digest
    stages: dict  # stage -> Stage
    about: dict  # the case's size and workers, echoed into its result
    tally: Callable = lambda results: {}  # results of the default pass -> more fields of its result


def _sha1(chunks) -> str:
    digest = hashlib.sha1()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _row_steps(result, *args) -> int:
    """The steps of every row of a step-major layout: `ends`, the third
    argument of both `_fold_inversions` and `_step_survivals`."""
    return int(args[2].sum())


def _kernel_sha1(datasets) -> str:
    return _sha1(chunk for d in datasets for chunk in (*(p.tobytes() for p in d.survivals), d.means.tobytes()))


def kernel() -> dict:
    gateset = build_gateset(CoherentZ(0.1))
    stages = {
        "fold": Stage(protocol, "_fold_inversions", "fold_indices", _row_steps),
        "step": Stage(protocol, "_step_survivals", "gate_apps", _row_steps),
    }

    def case(lengths, k_per_length: int) -> Case:
        config = RBConfig(lengths=lengths, k_per_length=k_per_length)

        def call(seed: int):
            protocol._last_circuits.clear()
            return protocol.run_rb(gateset, replace(config, seed=seed))

        batches = len(list(protocol._batches(lengths, k_per_length)))
        workers = protocol._fork_workers(batches)
        about = {"lengths": len(lengths), "k_per_length": k_per_length, "batches": batches, "workers": workers}
        return Case(call, _kernel_sha1, stages, about)

    return {"simulate": case(tuple(range(1, 2002, 50)), 500), "sweep": case(tuple(range(1, 202, 10)), 20)}


def _sweep_sha1(sweeps) -> str:
    def chunks():
        for estimates in sweeps:
            for estimate in estimates:
                yield np.array([estimate.r_mean, estimate.r_std]).tobytes()
                for fit in estimate.fits:
                    yield np.array([fit.a, fit.b, fit.c, fit.p, fit.r_hat, fit.residual_norm]).tobytes()
                    yield repr((fit.model, fit.flags)).encode()

    return _sha1(chunks())


def sweep() -> dict:
    thetas = [round(0.02 + 0.14 * i / 7, 12) for i in range(8)]
    gatesets = [build_gateset(CoherentZ(theta)) for theta in thetas]
    lengths, k_per_length, repeats = tuple(range(1, 202, 10)), 20, 12
    stages = {
        "fit": Stage(protocol, "fit_decay", "fits", lambda fit, *args: 1),
        "simulate": Stage(
            protocol, "run_rb", "gate_apps", lambda d, *args: sum(p.size * (m + 1) for p, m in zip(d.survivals, d.lengths))
        ),
    }

    def call(seed: int):
        config = RBConfig(lengths=lengths, k_per_length=k_per_length, seed=seed, repeats=repeats)
        return protocol.estimate_rs(gatesets, config)

    about = {
        "thetas": thetas,
        "lengths": {"start": lengths[0], "stop": lengths[-1], "step": lengths[1] - lengths[0]},
        "k_per_length": k_per_length,
        "fit_repeats": repeats,
        "workers": protocol._fork_workers(len(thetas) * repeats),
    }
    return {"thetas_8": Case(call, _sweep_sha1, stages, about)}


def _gauge_sha1(results) -> str:
    return _sha1(
        chunk
        for r in results
        for chunk in (r.transform.m.tobytes(), np.array([r.epsilon_min_estimate, r.min_choi_eigenvalue]).tobytes())
    )


def gauge_search() -> dict:
    lam = 0.99
    depolarizing = build_gateset(GateIndependent.depolarizing(lam))
    stages = {"nelder_mead": Stage(gauge, "_nelder_mead", "evaluations", lambda res, *args: res[2])}

    def case(gateset, restarts: int, model: dict) -> Case:
        def call(seed: int):
            return gauge.epsilon_min_search(gateset, restarts=restarts, seed=seed)

        return Case(call, _gauge_sha1, stages, {**model, "restarts": restarts, "workers": protocol._fork_workers(restarts)})

    alphas = np.linspace(0.9, 1.1, 81)

    def counterexample(seed: int):
        return gauge.counterexample_epsilon_min(lam, alphas)

    # its own stage: it never calls `_nelder_mead`, whose rate would be 0 work over 0 s
    scoring = {"score": Stage(gauge, "infidelity_and_min_choi", "scores", lambda res, *args: 1)}
    cases = {f"restarts_{n}": case(depolarizing, n, {"lambda": lam}) for n in (2, 8)}
    # unitary gates: every Choi matrix has rank 1, so every one fails the objective's Cholesky test
    coherent = {"model": {"name": "coherent_z", "theta": 0.1}}
    cases["coherent_restarts_2"] = case(build_gateset(CoherentZ(0.1)), 2, coherent)
    cases["counterexample_81"] = Case(counterexample, _counterexample_sha1, scoring, {"lambda": lam, "alphas": len(alphas)})
    return cases


def _counterexample_sha1(results) -> str:
    return _sha1(
        np.array([r.alpha, r.epsilon, r.min_choi_eigenvalue, r.all_cp, r.r_reference]).tobytes()
        for rows in results
        for r in rows
    )


# run as `python -c _STARTUP <src dir> <seed>`; prints the loaded scipy modules, one a line
_STARTUP = """
import sys

sys.path.insert(0, sys.argv[1])
import rblab
import rblab.cli

group = rblab.generate_clifford_group()
gateset = rblab.build_gateset(rblab.CoherentZ(0.1), group, rblab.compile_cliffords(group))
config = rblab.RBConfig(lengths=range(1, 202, 10), k_per_length=20, seed=int(sys.argv[2]))
rblab.fit_decay(rblab.run_rb(gateset, config))
print("\\n".join(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def startup() -> dict:
    src = str(Path(rblab.__file__).resolve().parent.parent)

    def call(seed: int) -> str:
        args = [sys.executable, "-c", _STARTUP, src, str(seed)]
        return subprocess.run(args, capture_output=True, text=True, check=True).stdout

    about = {
        "model": {"name": "coherent_z", "theta": 0.1},
        "lengths": {"start": 1, "stop": 201, "step": 10},
        "k_per_length": 20,
    }
    def tally(outputs) -> dict:
        return {"scipy_modules": len({name for out in outputs for name in out.split()})}

    return {"fresh_interpreter": Case(call, lambda outputs: _sha1(out.encode() for out in outputs), {}, about, tally)}


SHAPES = {"kernel": kernel, "sweep": sweep, "gauge": gauge_search, "startup": startup}


def _timed(call: Callable, seed: int):
    start = perf_counter()
    result = call(seed)
    return perf_counter() - start, result


def _pinned_pass(case: Case, repeats: int):
    """The case on seeds 0..repeats-1 with this process pinned to one CPU
    and its stages wrapped: (seconds, result, {stage: seconds}) per seed,
    and {stage: work} over the pass. The CPUs and the functions are
    restored however the pass ends."""
    spent = dict.fromkeys(case.stages, 0.0)
    work = dict.fromkeys(case.stages, 0)
    originals = {stage: getattr(s.owner, s.name) for stage, s in case.stages.items()}

    def wrapped(stage: str, s: Stage):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                result = originals[stage](*args, **kwargs)
            finally:
                spent[stage] += perf_counter() - start
            work[stage] += s.count(result, *args)
            return result

        return wrapper

    usable = os.sched_getaffinity(0)
    try:
        for stage, s in case.stages.items():
            setattr(s.owner, s.name, wrapped(stage, s))
        os.sched_setaffinity(0, {min(usable)})
        runs = []
        for seed in range(repeats):
            spent.update(dict.fromkeys(spent, 0.0))
            runs.append((*_timed(case.call, seed), dict(spent)))
        return runs, work
    finally:
        os.sched_setaffinity(0, usable)
        for stage, s in case.stages.items():
            setattr(s.owner, s.name, originals[stage])


def bench_case(case: Case, repeats: int) -> dict:
    default = [_timed(case.call, seed) for seed in range(repeats)]
    pinned, work = _pinned_pass(case, repeats)
    seconds = [s for s, _ in default]
    result = {
        **case.about,
        "default_s": statistics.median(seconds),
        "default_s_all": seconds,
        "one_cpu_s": statistics.median(s for s, _, _ in pinned),
        "sha1": case.digest([r for _, r in default]),
        "one_cpu_sha1": case.digest([r for _, r, _ in pinned]),
        **case.tally([r for _, r in default]),
    }
    for stage, s in case.stages.items():
        stage_s = [spent[stage] for _, _, spent in pinned]
        result[f"one_cpu_{stage}_s"] = statistics.median(stage_s)
        result[f"one_cpu_{s.unit}"] = work[stage]
        result[f"one_cpu_{s.unit}_per_s"] = work[stage] / sum(stage_s)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("shapes", nargs="*", metavar="shape", help=f"any of {', '.join(SHAPES)} (default: all)")
    parser.add_argument("--repeats", type=int, default=3, help="seeds 0..N-1 of each pass")
    parser.add_argument("--label", help="store each shape's result under this label in BENCH_<shape>.json")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.shapes) - set(SHAPES))
    if unknown:
        parser.error(f"unknown shape(s) {', '.join(unknown)}; choose from {', '.join(SHAPES)}")
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    meta = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "repeats": args.repeats,
    }
    differ = []
    for shape in dict.fromkeys(args.shapes or SHAPES):
        cases = {name: bench_case(case, args.repeats) for name, case in SHAPES[shape]().items()}
        result = {"cases": cases, **meta}
        print(json.dumps({shape: result}, indent=2), flush=True)
        differ += [f"{shape}/{name}" for name, c in cases.items() if c["sha1"] != c["one_cpu_sha1"]]
        if args.label is not None:
            path = ROOT / f"BENCH_{shape}.json"
            stored = json.loads(path.read_text()) if path.exists() else {}
            stored[args.label] = result
            path.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
    if differ:
        print(f"pooled and one-CPU results differ: {', '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
