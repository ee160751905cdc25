"""Time the CPTP gauge search, `rblab.gauge.epsilon_min_search`, on fixed seeds.

    PYTHONPATH=src python tools/bench_gauge.py [--repeats N] [--label NAME --out BENCH_gauge.json]

The gateset is the lambda = 0.99 depolarizing one of the `analysis`
benchmark workload. For 2 and 8 restarts the search runs on seeds
0..N-1, first as it runs by default (its restarts on the worker processes
of `protocol._fork_map`) and then with this process pinned to one CPU, so
that every restart runs here. The second pass counts the objective
evaluations, summed over every restart of every seed (the `nfev` of each
Nelder-Mead run; in a worker, a counter set here would read nothing), and
checks that both passes give the same bytes.
Reported per shape: the median seconds of each pass, the worker count,
objective evaluations per second of the default pass, and a sha1 over every
seed's transform, estimate and Choi eigenvalue. Only numpy and the standard
library are used. With --out, the result is stored under --label in that
JSON file, next to the labels already there.
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
from types import SimpleNamespace

import numpy as np

from rblab import GateIndependent, build_gateset, gauge, protocol

LAMBDA = 0.99
RESTARTS = (2, 8)


def _searches(gateset, restarts: int, repeats: int):
    """(seconds, result) of the search on each seed 0..repeats-1."""
    timed = []
    for seed in range(repeats):
        start = perf_counter()
        result = gauge.epsilon_min_search(gateset, restarts=restarts, seed=seed)
        timed.append((perf_counter() - start, result))
    return timed


def _sha1(results) -> str:
    digest = hashlib.sha1()
    for result in results:
        digest.update(result.transform.m.tobytes())
        digest.update(np.array([result.epsilon_min_estimate, result.min_choi_eigenvalue]).tobytes())
    return digest.hexdigest()


def _one_cpu_searches(gateset, restarts: int, repeats: int):
    """`_searches` pinned to one CPU, and the objective evaluations of every
    restart of every seed."""
    nfevs = []

    def minimize(*args, **kwargs):
        res = optimizer.minimize(*args, **kwargs)
        nfevs.append(res.nfev)
        return res

    optimizer, usable = gauge.optimize, os.sched_getaffinity(0)
    gauge.optimize = SimpleNamespace(minimize=minimize)
    os.sched_setaffinity(0, {min(usable)})
    try:
        return _searches(gateset, restarts, repeats), sum(nfevs)
    finally:
        os.sched_setaffinity(0, usable)
        gauge.optimize = optimizer


def bench_restarts(gateset, restarts: int, repeats: int) -> dict:
    default = _searches(gateset, restarts, repeats)
    one_cpu, evaluations = _one_cpu_searches(gateset, restarts, repeats)
    seconds = [s for s, _ in default]
    sha1 = _sha1(r for _, r in default)
    return {
        "restarts": restarts,
        "workers": protocol._fork_workers(restarts),
        "search_s": statistics.median(seconds),
        "search_s_all": seconds,
        "one_cpu_s": statistics.median(s for s, _ in one_cpu),
        "evaluations": evaluations,
        "evaluations_per_s": evaluations / sum(seconds),
        "sha1": sha1,
        "one_cpu_sha1_equal": _sha1(r for _, r in one_cpu) == sha1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3, help="timed searches per pass (seeds 0..N-1)")
    parser.add_argument("--label", default="current", help="key of this result in --out")
    parser.add_argument("--out", type=Path, default=None, help="JSON file to store the result in")
    args = parser.parse_args(argv)

    gateset = build_gateset(GateIndependent.depolarizing(LAMBDA))
    result = {
        "shapes": {f"restarts_{n}": bench_restarts(gateset, n, args.repeats) for n in RESTARTS},
        "lambda": LAMBDA,
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
