"""The command lists that the benchmark's workloads run.

Each workload is a function of the workload seed that returns the commands
of one pass. A command is one `rblab.cli.run(config, out_dir)` call, except
`epsilon-min-search`, which calls `rblab.gauge.epsilon_min_search` directly
because no CLI command reaches it.

This module uses the standard library only: the set-up probe imports it
before it starts its clock on `import rblab`, so it must not load numpy.
"""

from __future__ import annotations

import random
from typing import NamedTuple

DEFAULT_SEED = 0

# The CLI's default RB lengths, 1..2001 step 50 (41 lengths).
DEFAULT_LENGTHS = {"start": 1, "stop": 2001, "step": 50}
SWEEP_LENGTHS = {"start": 1, "stop": 201, "step": 10}


class Command(NamedTuple):
    label: str  # output sub-directory and golden-file directory
    config: dict


def simulate(seed: int, repeats: int = 2, k_per_length: int = 500, lengths: dict = DEFAULT_LENGTHS) -> list[Command]:
    """Wide batches on long sequences: the paper's headline model,
    coherent_z with theta = 0.1, at the CLI's default lengths and batch."""
    config = {
        "command": "simulate",
        "seed": seed,
        "error_model": {"name": "coherent_z", "theta": 0.1},
        "rb": {"lengths": dict(lengths), "k_per_length": k_per_length, "repeats": repeats},
    }
    return [Command("simulate", config)]


def sweep(
    seed: int,
    points: int = 8,
    repeats: int = 12,
    k_per_length: int = 20,
    lengths: dict = SWEEP_LENGTHS,
) -> list[Command]:
    """Narrow batches of short sequences, many fits and one gateset per
    theta. The default seed sweeps an even grid over [0.02, 0.16]; other
    seeds draw the thetas uniformly from that interval."""
    if seed == DEFAULT_SEED:
        grid = [round(0.02 + 0.14 * i / (points - 1), 12) for i in range(points)]
    else:
        rng = random.Random(seed)
        grid = sorted(rng.uniform(0.02, 0.16) for _ in range(points))
    config = {
        "command": "sweep",
        "seed": seed,
        "rb": {"lengths": dict(lengths), "k_per_length": k_per_length},
        "sweep": {"parameter": "theta", "grid": grid, "repeats": repeats},
    }
    return [Command("sweep", config)]


GENERAL_MODEL = {
    "name": "general",
    "rotation_x": [0.001, 0.005, 0.1],
    "rotation_y": [0.004, 0.003, 0.1],
    "lambda": 1.0 - 5e-5,
}
DEPOLARIZING_MODEL = {"name": "depolarizing", "lambda": 0.99}


def analysis(
    seed: int,
    alpha_points: int = 81,
    restarts: int = 2,
    theory_models: tuple[str, ...] = ("general", "depolarizing"),
) -> list[Command]:
    """No simulation: diamond distances (theory on the general model), the
    exact-decay fallback and zero-distance shortcut (theory on the
    depolarizing model), the gauge module, and the CPTP gauge search."""
    models = {"general": GENERAL_MODEL, "depolarizing": DEPOLARIZING_MODEL}
    commands = [
        Command(f"theory-{name}", {"command": "theory", "seed": seed, "error_model": dict(models[name])})
        for name in theory_models
    ]
    commands.append(Command("gauge-demo", {
        "command": "gauge-demo",
        "seed": seed,
        "error_model": {"name": "coherent_z", "theta": 0.1},
    }))
    commands.append(Command("counterexample", {
        "command": "counterexample",
        "seed": seed,
        "counterexample": {"lambda": 0.99, "alpha_grid": {"start": 0.9, "stop": 1.1, "num": alpha_points}},
    }))
    commands.append(Command("epsilon-min-search", {
        "command": "epsilon-min-search",
        "seed": seed,
        "error_model": dict(DEPOLARIZING_MODEL),
        "restarts": restarts,
    }))
    return commands


WORKLOADS = {"simulate": simulate, "sweep": sweep, "analysis": analysis}


def resolve_lengths(spec: dict) -> list[int]:
    """The lengths of a {start, stop, step} spec, as the CLI resolves them."""
    return list(range(spec["start"], spec["stop"] + 1, spec["step"]))


def first_model(commands: list[Command]) -> dict:
    """Error model of the first gateset a pass builds."""
    config = commands[0].config
    if config["command"] == "sweep":
        return {"name": "coherent_z", "theta": config["sweep"]["grid"][0]}
    return config["error_model"]


def gate_apps(command: Command) -> int:
    """Survival-kernel gate applications of a command: sum of k (m + 1)
    over every run_rb call it makes (`simulate` runs one dataset plus one
    per repeat; `sweep` runs one per repeat per theta)."""
    config = command.config
    if config["command"] not in ("simulate", "sweep"):
        return 0
    rb = config["rb"]
    per_run = sum(rb["k_per_length"] * (m + 1) for m in resolve_lengths(rb["lengths"]))
    if config["command"] == "simulate":
        return per_run * (rb["repeats"] + 1)
    return per_run * config["sweep"]["repeats"] * len(config["sweep"]["grid"])
