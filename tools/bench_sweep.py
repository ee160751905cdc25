"""Time the fits of a `sweep`, `rblab.protocol.estimate_rs`, on fixed seeds.

    PYTHONPATH=src python tools/bench_sweep.py [--repeats N] [--label NAME --out BENCH_sweep.json]

The shape is the `sweep` benchmark workload's: coherent_z at 8 thetas
evenly spaced over [0.02, 0.16], lengths 1..201 step 10, 20 sequences per
length and 12 repeats per theta, so 96 datasets and 96 fits. The gatesets
are built once; then the estimates of all 8 run on seeds 0..N-1, first as
they run by default (each dataset simulated in this process and fitted on
the worker processes of `protocol._fork_map`) and then with this process
pinned to one CPU, so that every fit runs here. The pinned pass also times
every call of `protocol.fit_decay` and `protocol.run_rb` (in a worker, a
timer set here would read nothing), which splits a sweep's work into its
fits and its simulation. Reported: the median seconds of each pass and of
the pinned pass's fits and simulation, the worker count, fits per second
of the default pass, and a sha1 over every seed's estimates (r mean and
std, and every fit's parameters and flags), with a check that both passes
give the same bytes. Only numpy and the standard library are used. With
--out, the result is stored under --label in that JSON file, next to the
labels already there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from rblab import CoherentZ, RBConfig, build_gateset, protocol

THETAS = tuple(round(0.02 + 0.14 * i / 7, 12) for i in range(8))
LENGTHS = tuple(range(1, 202, 10))
K_PER_LENGTH = 20
REPEATS = 12
# trees older than estimate_rs estimate one gateset at a time, every fit in-process
POOLED = hasattr(protocol, "estimate_rs")


def _estimates(gatesets, config):
    if not POOLED:
        return [protocol.estimate_r(g, config) for g in gatesets]
    return protocol.estimate_rs(gatesets, config)


def _sweep(gatesets, seed: int):
    """(seconds, estimates) of the sweep's fits on one seed."""
    config = RBConfig(lengths=LENGTHS, k_per_length=K_PER_LENGTH, seed=seed, repeats=REPEATS)
    start = perf_counter()
    estimates = _estimates(gatesets, config)
    return perf_counter() - start, estimates


def _sweeps(gatesets, repeats: int):
    """`_sweep` on each seed 0..repeats-1."""
    return [_sweep(gatesets, seed) for seed in range(repeats)]


def _sha1(sweeps) -> str:
    digest = hashlib.sha1()
    for estimates in sweeps:
        for estimate in estimates:
            digest.update(np.array([estimate.r_mean, estimate.r_std]).tobytes())
            for fit in estimate.fits:
                digest.update(np.array([fit.a, fit.b, fit.c, fit.p, fit.r_hat, fit.residual_norm]).tobytes())
                digest.update(repr((fit.model, fit.flags)).encode())
    return digest.hexdigest()


# the protocol functions the pinned pass times: a sweep's fits and its simulation
STAGES = {"fit": "fit_decay", "simulate": "run_rb"}


def _one_cpu_sweeps(gatesets, repeats: int):
    """`_sweeps` pinned to one CPU, each with the seconds it spent in each
    of the STAGES: (seconds, estimates, {stage: seconds})."""
    spent = dict.fromkeys(STAGES, 0.0)
    originals = {stage: getattr(protocol, name) for stage, name in STAGES.items()}

    def timed(stage):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return originals[stage](*args, **kwargs)
            finally:
                spent[stage] += perf_counter() - start

        return wrapper

    usable = os.sched_getaffinity(0)
    for stage, name in STAGES.items():
        setattr(protocol, name, timed(stage))
    os.sched_setaffinity(0, {min(usable)})
    try:
        sweeps = []
        for seed in range(repeats):
            spent.update(dict.fromkeys(STAGES, 0.0))
            sweeps.append((*_sweep(gatesets, seed), dict(spent)))
        return sweeps
    finally:
        os.sched_setaffinity(0, usable)
        for stage, name in STAGES.items():
            setattr(protocol, name, originals[stage])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3, help="timed sweeps per pass (seeds 0..N-1)")
    parser.add_argument("--label", default="current", help="key of this result in --out")
    parser.add_argument("--out", type=Path, default=None, help="JSON file to store the result in")
    args = parser.parse_args(argv)

    gatesets = [build_gateset(CoherentZ(theta)) for theta in THETAS]
    fits = len(THETAS) * REPEATS
    default = _sweeps(gatesets, args.repeats)
    one_cpu = _one_cpu_sweeps(gatesets, args.repeats)
    seconds = [s for s, _ in default]
    sha1 = _sha1(e for _, e in default)
    result = {
        "thetas": list(THETAS),
        "lengths": {"start": LENGTHS[0], "stop": LENGTHS[-1], "step": LENGTHS[1] - LENGTHS[0]},
        "k_per_length": K_PER_LENGTH,
        "fit_repeats": REPEATS,
        "fits": fits,
        "workers": protocol._fork_workers(fits) if POOLED else 1,
        "sweep_s": statistics.median(seconds),
        "sweep_s_all": seconds,
        "one_cpu_s": statistics.median(s for s, _, _ in one_cpu),
        "one_cpu_fit_s": statistics.median(spent["fit"] for _, _, spent in one_cpu),
        "one_cpu_simulate_s": statistics.median(spent["simulate"] for _, _, spent in one_cpu),
        "fits_per_s": fits * len(seconds) / sum(seconds),
        "sha1": sha1,
        "one_cpu_sha1_equal": _sha1(e for _, e, _ in one_cpu) == sha1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "repeats": args.repeats,
    }
    print(json.dumps(result, indent=2))
    if args.out is not None:
        stored = json.loads(args.out.read_text()) if args.out.exists() else {}
        stored[args.label] = result
        args.out.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
