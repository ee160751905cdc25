"""Randomized benchmarking simulation and decay fitting.

One sequence engine serves every caller: `sequence_survivals` completes each
random Clifford sequence with its inverting gate, found with the group tables
(no matrix algebra), and gives the exact Born survival probability of that
circuit from the gateset's state to its effect (`GateSet.spam`), so the only
randomness is the choice of sequences (no shot noise). It takes a list of
blocks of any lengths and steps them all at once, and `run_rb` steps its
lengths in such batches. Every sequence length draws from
its own RNG stream derived from (seed, length index), and `repeat_datasets`
derives each repeat's seed from (seed, repeat index), so results do not
depend on evaluation order or batching. The circuits depend only on the
group and the draws, not on the gates or the SPAM, so `run_rb` keeps the
last batch's folded circuits and reuses them on the next call with the
same group object, seed, lengths, k_per_length and batch: `estimate_rs`
runs its gatesets repeat by repeat, so on one group each repeat draws and
folds its circuits once for every gateset.

`fit_decay` searches p and solves the amplitudes linearly at each trial p
with LAPACK's `dgelsd` (numpy's build), through the gufunc behind
`np.linalg.lstsq` with that function's cutoff, without its per-call checks
and copies. Each grid of trial p is one stacked solve. Each scan's best
windows are polished by `_bounded_brent`, an in-house port of scipy's
bounded Brent minimizer that returns the same bits, so fitting, and
importing rblab, load no scipy.

One process pool serves every caller: `_fork_map(func, items)` maps a
module-level function over independent items on worker processes, one per
CPU this process may run on (`os.sched_getaffinity`, so `taskset` and
cpusets count), with no setting, and returns the results in input order.
`run_rb` maps its batches over it, `gauge.epsilon_min_search` its restarts
and `estimate_rs` the fits of every repeat of every gateset; each item does
the same arithmetic wherever it runs, so the outputs do not depend on the
number of workers. `estimate_rs` hands the pool a generator of datasets,
so this process keeps simulating while the workers fit (when each `run_rb`
is one batch; a `run_rb` of several batches has the pool to itself). It
runs the items in-process when there are fewer than two, one usable CPU,
no "fork" start method, or when it runs in a daemonic process, which may
start no children.
The pool is made and joined inside each call. Workers are forked, not
spawned: a spawned worker would import numpy again on every call.
A process that has threads may deadlock a forked child if a lock is held at
the fork; numpy's OpenBLAS keeps a thread pool, and Python 3.12 and later
warn about every such fork (a DeprecationWarning that rblab leaves visible).
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
from numpy.linalg import _umath_linalg

from .clifford import GateSet
from .superop import _read_only_record

__all__ = [
    "DEFAULT_LENGTHS",
    "FIT_PARAMETERS",
    "RBConfig",
    "RBDataset",
    "FitResult",
    "RBEstimate",
    "FitError",
    "sequence_survivals",
    "run_rb",
    "repeat_datasets",
    "fit_decay",
    "estimate_r",
    "estimate_rs",
]

DEFAULT_LENGTHS = tuple(range(1, 2002, 50))
FIT_PARAMETERS = {"zeroth": 3, "first": 4}  # free parameters: the fewest lengths a fit needs


class FitError(RuntimeError):
    """Raised when the decay fit does not converge; carries the best residual."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(f"{message} (best residual norm {best_residual:.3e})")
        self.message = message
        self.best_residual = best_residual

    def __reduce__(self):
        # the default would call FitError(*self.args), the formatted message alone
        return type(self), (self.message, self.best_residual)


def _is_integer(value) -> bool:
    """An integer, Python's or numpy's; a bool, which Python counts as an int, is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_integer(name: str, value, low: int) -> int:
    """`value` as an int if it is an integer >= `low`; ValueError otherwise."""
    if not (_is_integer(value) and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _checked_lengths(lengths) -> tuple[int, ...]:
    """Sequence lengths as a non-empty tuple of ints, each an integer >= 1."""
    lengths = tuple(_check_integer("each sequence length", m, 1) for m in lengths)
    if not lengths:
        raise ValueError("RB needs at least one length")
    return lengths


@dataclass(frozen=True)
class RBConfig:
    lengths: tuple[int, ...] = DEFAULT_LENGTHS
    k_per_length: int = 500
    seed: int = 0
    repeats: int = 50

    def __post_init__(self):
        object.__setattr__(self, "lengths", _checked_lengths(self.lengths))
        _check_integer("k_per_length", self.k_per_length, 1)
        _check_integer("seed", self.seed, 0)
        _check_integer("repeats", self.repeats, 1)


@_read_only_record
class RBDataset:
    """Exact per-sequence survival probabilities per length; their means are derived."""

    lengths: tuple[int, ...]
    survivals: tuple[np.ndarray, ...]
    means: np.ndarray = field(init=False)

    def __post_init__(self):
        if len(self.survivals) != len(self.lengths):
            raise ValueError("lengths and survivals must have one entry per length")
        # each check states what valid data meets, so NaN, which fails every comparison, fails it
        for probs in self.survivals:
            if probs.size == 0:
                raise ValueError("every length needs at least one survival probability")
            if not (probs.min() >= -1e-12 and probs.max() <= 1.0 + 1e-12):
                raise ValueError("survival probabilities must lie in [0, 1]")
        means = np.array([probs.mean() for probs in self.survivals], dtype=float)
        means.setflags(write=False)
        object.__setattr__(self, "means", means)

    def std_across_sequences(self) -> np.ndarray:
        return np.array([float(np.std(p, ddof=1)) if p.size > 1 else 0.0 for p in self.survivals])


@dataclass(frozen=True)
class FitResult:
    model: str  # "zeroth" or "first"
    a: float
    b: float
    c: float
    p: float
    residual_norm: float
    flags: tuple[str, ...] = ()

    @property
    def r_hat(self) -> float:
        return (1.0 - self.p) / 2


@dataclass(frozen=True)
class RBEstimate:
    """One gateset's repeat fits; r_mean and r_std are their RB numbers' mean and sample std."""

    fits: tuple[FitResult, ...]  # the repeats that fitted, in repeat order
    failures: int  # repeats whose fit raised FitError

    @property
    def r_mean(self) -> float:
        return float(np.mean(np.array([f.r_hat for f in self.fits])))

    @property
    def r_std(self) -> float:
        return float(np.std(np.array([f.r_hat for f in self.fits]), ddof=1))


# --------------------------------------------------------------------------
# Sequence sampling and survival probabilities
# --------------------------------------------------------------------------

# A batch of circuits is laid out step-major, one byte per gate index
# (|C| = 24), longest circuit first: row t of the layout holds step t of the
# rows still running, a prefix, so each step is one call over the whole
# batch however many lengths it mixes.
_GATE_INDEX = np.uint8

# The bytes one `run_rb` batch may take: one per gate index of its (steps,
# rows) layout, plus _ROW_BYTES of floats per row (while a row runs, each
# step gathers its 4x4 PTM, 128 B, and holds its state, 32 B), so a batch of
# many short rows is bounded as well as one of few long ones. A batch always
# takes at least one length. Each worker holds one batch at a time, so the
# budget bounds every process. At 2**21 the default 41 x 500 run takes 15
# batches of 1 to 7 lengths, enough to balance over a few workers, and most
# steps still cover 1,000 rows or more, where the fixed cost of a step is
# small next to the per-row work.
_ROW_BYTES = 160
_BATCH_BYTES = 2**21


def _step_major(blocks):
    """Lay (k_i, m_i) index blocks out step-major, longest first (ties in
    block order), with one free step after each row's last index for its
    inversion. Returns (gates, ends, rows): gates[t, r] is row r's index at
    step t for t < ends[r], ends is non-increasing, and rows[i] is block i's
    slice."""
    order = sorted(range(len(blocks)), key=lambda i: -blocks[i].shape[1])
    ends = np.repeat([blocks[i].shape[1] for i in order], [len(blocks[i]) for i in order])
    gates = np.empty((ends.max(initial=0) + 1, len(ends)), dtype=_GATE_INDEX)
    rows = [slice(0, 0)] * len(blocks)
    start = 0
    for i in order:
        rows[i] = slice(start, start + len(blocks[i]))
        gates[: blocks[i].shape[1], rows[i]] = blocks[i].T
        start = rows[i].stop
    return gates, ends, rows


def _running(ends: np.ndarray, steps: int) -> list[int]:
    """Rows still running at each step: the count of non-increasing `ends` above it."""
    return np.searchsorted(-ends, -np.arange(steps), side="left").tolist()


def _fold_inversions(group, gates: np.ndarray, ends: np.ndarray) -> None:
    """Write each row's inverting Clifford into step ends[r] of a step-major
    layout, folding its first ends[r] indices (applied in order, every
    ends[r] >= 1) through the Cayley table."""
    size = len(group)
    after = (size * group.cayley.T).ravel()  # after[size * p + g] = size * cayley[g, p]
    running = _running(ends, len(gates))
    products = size * gates[0].astype(np.intp)  # each row's product so far, times size
    for t in range(1, len(gates)):
        stop, done = running[t], running[t - 1]
        if stop < done:  # rows whose sequences ended: their inversions go here
            gates[t, stop:done] = group.inverse[products[stop:done] // size]
        np.take(after, products[:stop] + gates[t, :stop], out=products[:stop])


def _step_survivals(gateset: GateSet, gates: np.ndarray, ends: np.ndarray, rows) -> list[np.ndarray]:
    """Exact survival of every row of a step-major layout after its ends[r]
    steps, from the gateset's state to its effect, one array per block of
    `rows`."""
    ptms, spam = gateset.ptms, gateset.spam
    states = np.broadcast_to(spam.state, (gates.shape[1], 4)).copy()
    for step, width in zip(gates, _running(ends, len(gates))):
        states[:width] = np.einsum("nij,nj->ni", np.take(ptms, step[:width], axis=0), states[:width])
    # one product per block, as if each were alone: BLAS sums a one-row
    # product in another order than a many-row one
    return [states[r] @ spam.effect for r in rows]


def _circuits(group, blocks):
    """The RB circuits of `blocks`, a list of (k_i, m_i) arrays of Clifford
    indices (applied left to right, every m_i >= 1): each row completed by
    its inverting Clifford and laid out step-major. Returns (gates, steps,
    rows): row r runs steps[r] steps, non-increasing, and rows[i] is block
    i's slice."""
    gates, ends, rows = _step_major(blocks)
    del blocks  # the layout holds them now; a caller's temporary list is freed here
    _fold_inversions(group, gates, ends)
    return gates, ends + 1, rows


def sequence_survivals(gateset: GateSet, blocks) -> list[np.ndarray]:
    """Exact survival probabilities of RB sequences, each completed by its
    inverting Clifford and run from the gateset's state to its effect:
    `blocks` is a list of (k_i, m_i) arrays of Clifford indices (applied
    left to right, every m_i >= 1) of any lengths. Returns one array of k_i
    survivals per block. Raises ValueError for a block that
    is not a 2-D integer array with m_i >= 1 and every index in [0, |C|)."""
    blocks = [_checked_block(block, len(gateset.ideal)) for block in blocks]
    return _step_survivals(gateset, *_circuits(gateset.ideal, blocks))


def _checked_block(block, size: int) -> np.ndarray:
    """`block` as an array, if it is a 2-D integer block with m >= 1 and
    indices in [0, size): the byte layout would wrap a larger index."""
    block = np.asarray(block)
    if block.ndim != 2 or block.dtype.kind not in "iu" or block.shape[1] < 1:
        raise ValueError(f"a block must be a 2-D integer array with m_i >= 1, got {block.dtype} {block.shape}")
    if block.size and not 0 <= block.min() <= block.max() < size:
        raise ValueError(f"Clifford indices must lie in [0, {size})")
    return block


def _draw_sequences(group, rng: np.random.Generator, k: int, m: int) -> np.ndarray:
    """k uniform length-m sequences, one byte per index."""
    return rng.integers(0, len(group), size=(k, m)).astype(_GATE_INDEX)


def _batches(lengths, k: int):
    """Length indices, longest first (ties in index order), cut into batches
    of at most _BATCH_BYTES: k rows per length, each taking its gate indices
    (one per step of the batch's longest length, plus its inversion) and
    _ROW_BYTES."""
    batch: list[int] = []
    for i in sorted(range(len(lengths)), key=lambda i: -lengths[i]):
        if batch and k * (len(batch) + 1) * (lengths[batch[0]] + 1 + _ROW_BYTES) > _BATCH_BYTES:
            yield batch
            batch = []
        batch.append(i)
    if batch:
        yield batch


# The circuits of the last `_simulate_batch` call in this process, under
# their key: the ideal group (held, so that an `is` test cannot match a new
# group made at a freed one's address), then the seed, lengths, k_per_length
# and batch they were drawn for. Circuits depend on nothing else, and
# `estimate_rs` simulates every gateset of a repeat in turn on that repeat's
# seed, so each gateset after the first steps the circuits the first one
# drew and folded. One entry only, dropped before the next is built, so that
# no process holds two layouts at once.
_last_circuits: dict = {}


def _simulate_batch(gateset: GateSet, config: RBConfig, batch: list[int]) -> list[np.ndarray]:
    """Survival probabilities of the lengths config.lengths[i], i in `batch`:
    k_per_length sequences each, drawn from the stream of (seed, i), one
    array per length."""
    group = gateset.ideal
    key = (config.seed, config.lengths, config.k_per_length, tuple(batch))
    if _last_circuits.get("group") is not group or _last_circuits.get("key") != key:
        _last_circuits.clear()
        # a temporary list, so that the layout is the only holder of the draws while it folds
        gates, steps, rows = _circuits(group, [
            _draw_sequences(group, np.random.default_rng(np.random.SeedSequence([config.seed, i])),
                            config.k_per_length, config.lengths[i])
            for i in batch
        ])
        gates.setflags(write=False)
        steps.setflags(write=False)
        _last_circuits.update(group=group, key=key, circuits=(gates, steps, tuple(rows)))
    return _step_survivals(gateset, *_last_circuits["circuits"])


def _fork_workers(items: int) -> int:
    """Worker processes `_fork_map` uses for `items` items: one per CPU this
    process may run on, at most one per item; 1 (run in-process) in a
    daemonic process (a `multiprocessing.Pool` worker may start no children)
    or where the platform cannot fork or tell which CPUs are usable."""
    if (
        multiprocessing.current_process().daemon
        or not hasattr(os, "sched_getaffinity")
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        return 1
    return min(items, len(os.sched_getaffinity(0)))


def _fork_map(func, items, count: int | None = None) -> list:
    """[func(item) for item in items], on `_fork_workers(count)` forked
    worker processes when that is 2 or more; `func` and each item must
    pickle. `items` is a sequence (`count` defaults to its length) or an
    iterable of `count` items: the pool submits each item as it is yielded,
    so a generator makes its later items while the workers map the earlier
    ones."""
    workers = _fork_workers(len(items) if count is None else count)
    if workers < 2:
        return list(map(func, items))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(func, items))


def run_rb(gateset: GateSet, config: RBConfig) -> RBDataset:
    """Simulate the RB protocol: K(m) random self-inverting sequences per
    length, exact survival probabilities, and their per-length means."""
    batches = list(_batches(config.lengths, config.k_per_length))
    per_batch = _fork_map(partial(_simulate_batch, gateset, config), batches)
    survivals = [None] * len(config.lengths)
    for batch, probs in zip(batches, per_batch):
        for i, p in zip(batch, probs):
            survivals[i] = p
    return RBDataset(lengths=config.lengths, survivals=tuple(survivals))


def repeat_datasets(gateset: GateSet, config: RBConfig):
    """Yield one `run_rb` dataset per repeat, each on the seed derived from
    (config.seed, repeat index)."""
    for repeat in range(config.repeats):
        child = np.random.SeedSequence([config.seed, repeat])
        repeat_seed = int(child.generate_state(1, np.uint64)[0])
        yield run_rb(gateset, replace(config, seed=repeat_seed))


# --------------------------------------------------------------------------
# Decay fitting
# --------------------------------------------------------------------------

_P_BOUND_LOGIT = 20.7  # |logit(p)| beyond this means p is pinned at 0 or 1
# singular values below _EPS * max(rows, cols) times the largest count as
# zero: the cutoff of `np.linalg.lstsq(..., rcond=None)`
_EPS = float(np.finfo(float).eps)
# numpy's least-squares gufunc, (m,n),(m,nrhs),()->(n,nrhs),(nrhs),(),(p); numpy
# 1.x names its m > n loop, the only shape the fit solves, `lstsq_n`
_lstsq = getattr(_umath_linalg, "lstsq", None) or _umath_linalg.lstsq_n


def _sigmoid(q):
    return 1.0 / (1.0 + np.exp(-q))


def _logit(p: float) -> float:
    return float(np.log(p / (1.0 - p)))


def _initial_p0s(lengths: np.ndarray, means: np.ndarray) -> list[float]:
    """Initial decay base estimates, best-effort from two heuristics.

    The shifted-log slope (asymptote guessed as the tail mean) works well on
    noisy data but is badly biased when the decay barely develops over the
    measured lengths; the successive-difference slope cancels the asymptote
    and is exact on clean exponentials but noise-sensitive. The fit scans a
    restart ladder around every estimate that can be formed.
    """
    guesses = []
    a0 = float(means[-3:].mean())
    resid = means - a0
    mask = resid > 0
    if mask.sum() >= 2:
        slope = np.polyfit(lengths[mask], np.log(resid[mask]), 1)[0]
        p0 = float(np.exp(slope))
        if 0.0 < p0 < 1.0:
            guesses.append(p0)
    dm = np.diff(lengths)
    dp = np.diff(means)
    nonzero = dp[dp != 0.0]
    if nonzero.size >= 2:
        sign = np.sign(np.median(nonzero))
        dmask = (np.sign(dp) == sign) & (np.abs(dp) >= 1e-3 * np.abs(dp).max())
        if dmask.sum() >= 2:
            mids = (lengths[:-1] + lengths[1:])[dmask] / 2.0
            slope = np.polyfit(mids, np.log(np.abs(dp[dmask]) / dm[dmask]), 1)[0]
            p0 = float(np.exp(slope))
            if 0.0 < p0 < 1.0:
                guesses.append(p0)
    if not guesses:
        guesses.append(0.95)
    return guesses


def _solve_stack(lengths: np.ndarray, means: np.ndarray, ps, first_order: bool):
    """Best (A, B, C) for each trial p in `ps`, plus the residual vectors:
    arrays of shape `ps.shape + (cols,)` and `ps.shape + (rows,)`, so a float
    p gives one solve.

    The model is linear in the amplitudes, so the nonlinear search only has
    to run over p. All the solves are one call of numpy's `lstsq` gufunc, the
    LAPACK `dgelsd` kernel behind `np.linalg.lstsq`, with its cutoff; that
    wrapper takes no stack, and its checks and copies cost more than the
    solve at a few dozen lengths. Each matrix of the stack gets the bits of
    its own `np.linalg.lstsq(design, means, rcond=None)`. NaN means give NaN
    amplitudes, as there; an SVD that does not converge gives NaN too, with
    numpy's RuntimeWarning.
    """
    rows, cols = len(lengths), 3 if first_order else 2
    ps = np.asarray(ps, dtype=float)
    design = np.empty(ps.shape + (rows, cols))
    design[..., 0] = 1.0
    design[..., 1] = ps[..., None] ** lengths
    if first_order:
        design[..., 2] = lengths * design[..., 1]
    solution = _lstsq(design, means[:, None], _EPS * max(rows, cols))[0]
    return solution[..., 0], (design @ solution)[..., 0] - means


def _check_fit(model: str, lengths) -> None:
    """ValueError unless `model` is a fit model and `lengths` has enough distinct lengths for it."""
    if model not in FIT_PARAMETERS:
        raise ValueError("model must be 'zeroth' or 'first'")
    n_params = FIT_PARAMETERS[model]
    if len(np.unique(lengths)) < n_params:
        raise ValueError(f"{model}-order fit needs at least {n_params} distinct lengths")


def fit_decay(dataset: RBDataset, model: str = "first") -> FitResult:
    """Unweighted least squares fit of the means to A + (B + C m) p^m.

    The zeroth-order model fixes C = 0. p is kept inside (0, 1) by a logistic
    reparameterization of the scalar search (the amplitudes are solved
    linearly for each trial p); restarts perturb the initial p by +-10%
    steps. Non-decaying data and a p estimate pinned at a bound are flagged
    rather than reported silently.
    """
    _check_fit(model, dataset.lengths)

    # the initial guesses read the means in length order; `run_rb` keeps the config's order
    order = np.argsort(dataset.lengths, kind="stable")
    lengths = np.asarray(dataset.lengths, dtype=float)[order]
    means = np.asarray(dataset.means, dtype=float)[order]

    if means.max() - means.min() < 1e-12:
        return FitResult(
            model=model, a=float(means.mean()), b=0.0, c=0.0, p=float("nan"), residual_norm=0.0, flags=("no-decay",)
        )

    # Decays shallower than ~1% over the measured window cannot be told apart
    # from a straight line, and the least-squares objective develops a
    # spurious optimum there (p -> 1 with the amplitudes absorbing the
    # slope). The search is capped below that region; a fit pinned at the
    # cap is flagged.
    q_cap = min(_logit(1.0 - 0.01 / float(lengths.max())), _P_BOUND_LOGIT)
    q_floor = -9.0

    # Stage 1: zeroth-order decay base: restart ladders around the initial
    # guesses plus a coarse global grid of the identifiable region.
    candidates = [np.linspace(q_floor, q_cap, 61)]
    for p0 in _initial_p0s(lengths, means):
        candidates.append(_ladder(p0))
    ladder = np.clip(np.unique(np.concatenate(candidates)), q_floor, q_cap)
    q_zeroth = _scan_for_q(lengths, means, first_order=False, candidates=np.unique(ladder))
    best_q = q_zeroth
    if model == "first":
        # Stage 2: the first-order model is not globally identifiable (a large
        # C with p pushed toward 1 can shadow the true decay), so refine in a
        # trust neighborhood of the zeroth-order solution, where C starts
        # from 0; the degenerate solutions live far outside it. The move away
        # from the anchor must also be significant: chance improvements from
        # the extra parameter sit at the percent level on sequence-sampled
        # data, while genuine linear-times-exponential content cuts the cost
        # by orders of magnitude.
        local = np.concatenate([np.linspace(q_zeroth - 0.1, q_zeroth + 0.1, 41), [q_zeroth]])
        local = np.unique(np.clip(local, q_floor, q_cap))
        candidate = _scan_for_q(lengths, means, first_order=True, candidates=local)
        anchor_cost = float(_costs(lengths, means, q_zeroth, True))
        # an anchor already at machine zero cannot be meaningfully improved
        if anchor_cost > 1e-24 and float(_costs(lengths, means, candidate, True)) < anchor_cost * 0.9:
            best_q = candidate

    first_order = model == "first"
    p = _sigmoid(best_q)
    coeffs, resid = _solve_stack(lengths, means, p, first_order)
    a, b = float(coeffs[0]), float(coeffs[1])
    c = float(coeffs[2]) if first_order else 0.0
    flags = []
    if best_q >= q_cap - 1e-6 or best_q <= q_floor + 1e-6:
        flags.append("p-at-bound")
    return FitResult(model=model, a=a, b=b, c=c, p=p, residual_norm=float(np.linalg.norm(resid)), flags=tuple(flags))


def _ladder(p0: float) -> np.ndarray:
    """Restart candidates: +-10% perturbation steps around p0.

    RB decay bases sit close to 1, so the steps act on the decay rate 1 - p;
    perturbing p itself by 10% would jump across basins entirely.
    """
    p0 = min(max(p0, 1e-6), 1.0 - 1e-9)
    rate = 1.0 - p0
    candidates = []
    for k in range(7):
        for factor in ((1.1) ** k, (0.9) ** k):
            p_start = 1.0 - rate * factor
            q = _logit(min(max(p_start, 1e-6), 1.0 - 1e-9))
            candidates.append(min(q, _P_BOUND_LOGIT))
    return np.unique(np.asarray(candidates, dtype=float))


def _scan_for_q(lengths, means, first_order: bool, candidates: np.ndarray) -> float:
    """Minimize the projected squared residual over q = logit(p).

    Evaluates all candidates, Brent-polishes the two best windows, and
    re-grids the best window finely: the landscape can hide a narrow global
    funnel next to a shallow local minimum. Each grid is one `_costs` call.
    """

    def cost(q: float) -> float:
        return float(_costs(lengths, means, q, first_order))

    costs = _costs(lengths, means, candidates, first_order)
    if not np.isfinite(costs).any():
        raise FitError("decay fit failed for every restart", float("inf"))

    def window(values, idx):
        # never leave the candidate hull: stage 2 relies on it as a trust region
        lo = values[idx - 1] if idx > 0 else values[idx]
        hi = values[idx + 1] if idx + 1 < len(values) else values[idx]
        if lo == hi:
            lo, hi = lo - 1e-9, hi + 1e-9
        return lo, hi

    def polish(lo, hi):
        return _bounded_brent(cost, float(lo), float(hi), xatol=1e-13)

    order = np.argsort(costs)
    results = [(float(candidates[i]), float(costs[i])) for i in order[:2]]
    for idx in order[:2]:
        results.append(polish(*window(candidates, int(idx))))
    lo, hi = window(candidates, int(order[0]))
    fine = np.linspace(lo, hi, 25)
    fine_costs = _costs(lengths, means, fine, first_order)
    fine_idx = int(np.argmin(fine_costs))
    results.append((float(fine[fine_idx]), float(fine_costs[fine_idx])))
    results.append(polish(*window(fine, fine_idx)))
    best_q, _ = min(results, key=lambda qc: qc[1])
    return best_q


def _costs(lengths, means, qs, first_order: bool):
    """The projected squared residual at each q = logit(p) in `qs` (a float
    or an array), from one stacked solve. Each is `resid @ resid` of its
    own solve, bit for bit: a stacked (1, rows) @ (rows, 1) product rounds
    as that dot product does."""
    _, resid = _solve_stack(lengths, means, _sigmoid(qs), first_order)
    return (resid[..., None, :] @ resid[..., :, None])[..., 0, 0]


def _step_sign(value: float) -> float:
    """scipy's `np.sign(value) + (value == 0)`: +1 at +-0. `value` is never
    NaN here: every step is finite on finite bounds."""
    return -1.0 if value < 0.0 else 1.0


def _bounded_brent(func, lo: float, hi: float, xatol: float) -> tuple[float, float]:
    """Minimize `func` on [lo, hi] by Brent's method (golden section plus
    parabolic steps; Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 5): the (x, func(x)) it settles on.

    A step-for-step port of scipy's `_minimize_scalar_bounded` (BSD-3, the
    SciPy developers), the solver behind `minimize_scalar(func, bounds=(lo,
    hi), method="bounded", options={"xatol": xatol})`, with its constants,
    branch order and 500-call cap, so it evaluates `func` at the same points
    and returns the same bits; the fit needs no more of `scipy.optimize`.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    calls = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _step_sign(xm - xf)
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + _step_sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        calls += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if calls >= 500:
            break
    return xf, fx


def _fit_or_error(model: str, dataset: RBDataset) -> FitResult | FitError:
    """`fit_decay(dataset, model)`, or the FitError it raised: returned, so
    that one failed fit does not end a map over many."""
    try:
        return fit_decay(dataset, model=model)
    except FitError as error:
        return error


def _estimate(outcomes: list) -> RBEstimate:
    """The estimate from one gateset's repeat outcomes (fits and FitErrors);
    FitError if more than half of them failed to fit."""
    fits = tuple(f for f in outcomes if not isinstance(f, FitError))
    failures = len(outcomes) - len(fits)
    if failures > len(outcomes) // 2:
        raise FitError(f"{failures} of {len(outcomes)} repeats failed to fit", float("inf"))
    return RBEstimate(fits=fits, failures=failures)


def estimate_rs(gatesets, config: RBConfig, model: str = "first") -> list[RBEstimate]:
    """`estimate_r` of each gateset. Every repeat of every gateset is
    simulated here, repeat by repeat with every gateset in turn, and fitted
    on one `_fork_map` as soon as its dataset exists. A config of several
    batches fits here instead: each `run_rb` then keeps the CPUs busy on a
    pool of its own, and a fit pool beside it would only add forks (from a
    process whose pool threads are running)."""
    if config.repeats < 2:
        raise ValueError("estimate_r needs at least 2 repeats")
    _check_fit(model, config.lengths)  # here, not after every dataset is made
    gatesets = list(gatesets)
    n = len(gatesets)
    # repeat-major: every gateset of a repeat in turn, on that repeat's seed,
    # so that they step the circuits the first one drew (`_simulate_batch`)
    datasets = (d for per_gateset in zip(*(repeat_datasets(g, config) for g in gatesets)) for d in per_gateset)
    fit = partial(_fit_or_error, model)
    if len(list(_batches(config.lengths, config.k_per_length))) > 1:
        outcomes = list(map(fit, datasets))
    else:
        outcomes = _fork_map(fit, datasets, n * config.repeats)
    return [_estimate(outcomes[g::n]) for g in range(n)]


def estimate_r(gateset: GateSet, config: RBConfig, model: str = "first") -> RBEstimate:
    """Repeat the full RB estimation and report the mean and standard
    deviation of the fitted RB numbers across repeats; repeats whose fit
    fails are counted, and more than half failing raises FitError."""
    return estimate_rs([gateset], config, model)[0]
