"""Time the RB survival kernel, `rblab.protocol.run_rb`, on fixed seeds.

    PYTHONPATH=src python tools/bench_kernel.py [--repeats N] [--label NAME --out BENCH_kernel.json]

Two shapes: the `simulate` one (41 lengths 1..2001 x 500 sequences) and the
`sweep` one (21 lengths 1..201 x 20 sequences), both on coherent_z with
theta = 0.1. Each shape runs `run_rb` on seeds 0..N-1 after one warm-up
call and reports the median seconds per call, gate applications (PTM
steps, k * (m + 1) per length) per second, and the worker processes
`run_rb` spreads its batches over. The stages are timed apart on the same
seeds by running the batch helper, `_simulate_batch`, in this process over
the same batches (in a worker, a timer set here would read nothing): the
inversion fold (folded sequence indices, k * m per length, per second) and
the survival step (gate applications per second) are the module functions
that the helper runs for them; the rest is sampling and layout. Before
each timed call the circuits that the helper keeps for its next call on
the same seed are dropped, so every call draws and folds its own. Only
numpy and the standard library are used. With --out, the result is stored
under --label in that JSON file, next to the labels already there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

from rblab import CoherentZ, RBConfig, build_gateset, protocol

SHAPES = {
    "simulate": {"lengths": tuple(range(1, 2002, 50)), "k_per_length": 500},
    "sweep": {"lengths": tuple(range(1, 202, 10)), "k_per_length": 20},
}
# the protocol function that the batch helper reaches for each stage
STAGES = {"fold": "_fold_inversions", "step": "_step_survivals"}


def _drop_circuits() -> None:
    """Drop the circuits `_simulate_batch` keeps from its last call (trees
    older than that keep none)."""
    getattr(protocol, "_last_circuits", {}).clear()


def _timed(stage_seconds: dict, stage: str):
    """Wrap the protocol function of `stage` so each call adds its time;
    returns the original."""
    original = getattr(protocol, STAGES[stage])

    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            stage_seconds[stage] += perf_counter() - start

    setattr(protocol, STAGES[stage], wrapper)
    return original


def bench_shape(gateset, lengths, k_per_length: int, repeats: int) -> dict:
    config = RBConfig(lengths=lengths, k_per_length=k_per_length)
    batches = list(protocol._batches(lengths, k_per_length))
    protocol.run_rb(gateset, config)  # warm-up, untimed
    totals = []
    for seed in range(repeats):
        _drop_circuits()
        start = perf_counter()
        protocol.run_rb(gateset, replace(config, seed=seed))
        totals.append(perf_counter() - start)

    simulate = partial(protocol._simulate_batch, gateset)
    stage_seconds = {stage: 0.0 for stage in STAGES}
    originals = {stage: _timed(stage_seconds, stage) for stage in STAGES}
    in_process, stages = [], {stage: [] for stage in STAGES}
    try:
        for seed in range(repeats):
            for stage in STAGES:
                stage_seconds[stage] = 0.0
            seeded = replace(config, seed=seed)
            start = perf_counter()
            for batch in batches:
                _drop_circuits()
                simulate(seeded, batch)
            in_process.append(perf_counter() - start)
            for stage in STAGES:
                stages[stage].append(stage_seconds[stage])
    finally:
        for stage, original in originals.items():
            setattr(protocol, STAGES[stage], original)
    folded = k_per_length * sum(lengths)
    applied = k_per_length * sum(m + 1 for m in lengths)
    run_s, in_process_s, fold_s, step_s = (
        statistics.median(v) for v in (totals, in_process, stages["fold"], stages["step"])
    )
    return {
        "lengths": len(lengths),
        "k_per_length": k_per_length,
        "gate_apps": applied,
        "batches": len(batches),
        "workers": protocol._fork_workers(len(batches)),
        "run_rb_s": run_s,
        "run_rb_s_all": totals,
        "gate_apps_per_s": applied / run_s,
        "in_process_s": in_process_s,
        "fold_s": fold_s,
        "fold_indices_per_s": folded / fold_s,
        "step_s": step_s,
        "step_gate_apps_per_s": applied / step_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="timed run_rb calls per shape (seeds 0..N-1)")
    parser.add_argument("--label", default="current", help="key of this result in --out")
    parser.add_argument("--out", type=Path, default=None, help="JSON file to store the result in")
    args = parser.parse_args(argv)

    gateset = build_gateset(CoherentZ(0.1))
    result = {
        "shapes": {name: bench_shape(gateset, repeats=args.repeats, **shape) for name, shape in SHAPES.items()},
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
