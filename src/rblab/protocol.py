"""Randomized benchmarking simulation and decay fitting.

One sequence engine serves every caller: `sequence_inversions` finds each
sequence's inverting gate with the group tables (no matrix algebra), and
`circuit_survivals` gives the exact Born survival probabilities of a batch of
circuits, so the only randomness is the choice of sequences (no shot noise).
Every sequence length draws from its own RNG stream derived from (seed,
length index), and `repeat_datasets` derives each repeat's seed from (seed,
repeat index), so results do not depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize_scalar

from .clifford import GateSet
from .superop import Effect, State

__all__ = [
    "DEFAULT_LENGTHS",
    "FIT_PARAMETERS",
    "Spam",
    "RBConfig",
    "RBDataset",
    "FitResult",
    "RBEstimate",
    "FitError",
    "sequence_inversions",
    "circuit_survivals",
    "run_rb",
    "repeat_datasets",
    "fit_decay",
    "estimate_r",
]

DEFAULT_LENGTHS = tuple(range(1, 2002, 50))
FIT_PARAMETERS = {"zeroth": 3, "first": 4}  # free parameters: the fewest lengths a fit needs


class FitError(RuntimeError):
    """Raised when the decay fit does not converge; carries the best residual."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(f"{message} (best residual norm {best_residual:.3e})")
        self.best_residual = best_residual


@dataclass(frozen=True)
class Spam:
    """State preparation and measurement pair."""

    state: State
    effect: Effect

    @classmethod
    def ideal(cls) -> "Spam":
        """Perfect preparation of and projection onto the +1 eigenstate of sigma_z."""
        return cls(State.z_plus(), Effect.z_plus())


@dataclass(frozen=True)
class RBConfig:
    lengths: tuple[int, ...] = DEFAULT_LENGTHS
    k_per_length: int = 500
    seed: int = 0
    repeats: int = 50
    spam: Spam = field(default_factory=Spam.ideal)

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(int(m) for m in self.lengths))
        if any(m < 1 for m in self.lengths):
            raise ValueError("all sequence lengths must be >= 1")
        if self.k_per_length < 1:
            raise ValueError("k_per_length must be >= 1")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


@dataclass(frozen=True)
class RBDataset:
    """Exact per-sequence survival probabilities and their means, per length."""

    lengths: tuple[int, ...]
    survivals: tuple[np.ndarray, ...]
    means: np.ndarray

    def __post_init__(self):
        means = np.array(self.means, dtype=float)
        means.setflags(write=False)
        object.__setattr__(self, "means", means)
        for probs, mean in zip(self.survivals, means):
            if probs.min() < -1e-12 or probs.max() > 1.0 + 1e-12:
                raise ValueError("survival probabilities must lie in [0, 1]")
            if abs(probs.mean() - mean) > 1e-15:
                raise ValueError("stored mean is inconsistent with per-sequence values")

    def std_across_sequences(self) -> np.ndarray:
        return np.array([float(np.std(p, ddof=1)) if p.size > 1 else 0.0 for p in self.survivals])


@dataclass(frozen=True)
class FitResult:
    model: str  # "zeroth" or "first"
    a: float
    b: float
    c: float
    p: float
    r_hat: float
    residual_norm: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class RBEstimate:
    r_mean: float
    r_std: float
    fits: tuple[FitResult, ...]


# --------------------------------------------------------------------------
# Sequence sampling and survival probabilities
# --------------------------------------------------------------------------


def sequence_inversions(group, sequences: np.ndarray) -> np.ndarray:
    """Index of the inverting Clifford of every row of an (n, m) batch of
    Clifford indices (applied left to right), from the Cayley and inverse
    tables alone."""
    products = sequences[:, 0]
    for t in range(1, sequences.shape[1]):
        products = group.cayley[sequences[:, t], products]
    return group.inverse[products]


def circuit_survivals(ptms: np.ndarray, circuits: np.ndarray, spam: Spam) -> np.ndarray:
    """Exact survival probabilities of an (n, L) batch of circuits, each row
    listing indices into the (|C|, 4, 4) PTM stack in the order applied."""
    states = np.broadcast_to(spam.state.coeffs, (circuits.shape[0], 4)).copy()
    # one contiguous row of native indices per step: no per-step index cast
    for step in np.ascontiguousarray(circuits.T, dtype=np.intp):
        states = np.matmul(ptms[step], states[:, :, None])[:, :, 0]
    return states @ spam.effect.coeffs


def _draw_circuits(group, rng: np.random.Generator, k: int, m: int) -> np.ndarray:
    """k uniform length-m sequences, each completed by its inversion. The
    indices fit in a byte, so the (k, m+1) batch is an eighth of the draw,
    and the draw is freed before the kernel runs."""
    sequences = rng.integers(0, len(group), size=(k, m))
    circuits = np.empty((k, m + 1), dtype=np.min_scalar_type(len(group) - 1))
    circuits[:, :m] = sequences
    circuits[:, m] = sequence_inversions(group, sequences)
    return circuits


def run_rb(gateset: GateSet, config: RBConfig) -> RBDataset:
    """Simulate the RB protocol: K(m) random self-inverting sequences per
    length, exact survival probabilities, and their per-length means."""
    ptms = gateset.imperfect_stack()
    survivals = []
    for length_index, m in enumerate(config.lengths):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, length_index]))
        circuits = _draw_circuits(gateset.ideal, rng, config.k_per_length, m)
        survivals.append(circuit_survivals(ptms, circuits, config.spam))
    return RBDataset(
        lengths=config.lengths,
        survivals=tuple(survivals),
        means=np.array([probs.mean() for probs in survivals]),
    )


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


def _sigmoid(q: float) -> float:
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


def _linear_solve_for_p(lengths: np.ndarray, means: np.ndarray, p: float, first_order: bool):
    """Best (A, B, C) for fixed p, plus the residual vector.

    The model is linear in the amplitudes, so the nonlinear search only has
    to run over p.
    """
    decay = p ** lengths
    columns = [np.ones_like(lengths), decay]
    if first_order:
        columns.append(lengths * decay)
    design = np.column_stack(columns)
    coeffs, *_ = np.linalg.lstsq(design, means, rcond=None)
    return coeffs, design @ coeffs - means


def fit_decay(dataset: RBDataset, model: str = "first") -> FitResult:
    """Unweighted least squares fit of the means to A + (B + C m) p^m.

    The zeroth-order model fixes C = 0. p is kept inside (0, 1) by a logistic
    reparameterization of the scalar search (the amplitudes are solved
    linearly for each trial p); restarts perturb the initial p by +-10%
    steps. Non-decaying data and a p estimate pinned at a bound are flagged
    rather than reported silently.
    """
    if model not in FIT_PARAMETERS:
        raise ValueError("model must be 'zeroth' or 'first'")
    n_params = FIT_PARAMETERS[model]
    if len(np.unique(dataset.lengths)) < n_params:
        raise ValueError(f"{model}-order fit needs at least {n_params} distinct lengths")

    lengths = np.asarray(dataset.lengths, dtype=float)
    means = np.asarray(dataset.means, dtype=float)

    if means.max() - means.min() < 1e-12:
        return FitResult(
            model=model,
            a=float(means.mean()),
            b=0.0,
            c=0.0,
            p=float("nan"),
            r_hat=float("nan"),
            residual_norm=0.0,
            flags=("no-decay",),
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
        _, anchor_resid = _linear_solve_for_p(lengths, means, _sigmoid(q_zeroth), True)
        _, move_resid = _linear_solve_for_p(lengths, means, _sigmoid(candidate), True)
        anchor_cost = float(anchor_resid @ anchor_resid)
        # an anchor already at machine zero cannot be meaningfully improved
        if anchor_cost > 1e-24 and float(move_resid @ move_resid) < anchor_cost * 0.9:
            best_q = candidate

    first_order = model == "first"
    p = _sigmoid(best_q)
    coeffs, resid = _linear_solve_for_p(lengths, means, p, first_order)
    a, b = float(coeffs[0]), float(coeffs[1])
    c = float(coeffs[2]) if first_order else 0.0
    flags = []
    if best_q >= q_cap - 1e-6 or best_q <= q_floor + 1e-6:
        flags.append("p-at-bound")
    r_hat = (1.0 - p) / 2
    return FitResult(
        model=model,
        a=a,
        b=b,
        c=c,
        p=p,
        r_hat=r_hat,
        residual_norm=float(np.linalg.norm(resid)),
        flags=tuple(flags),
    )


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
    funnel next to a shallow local minimum.
    """

    def cost(q: float) -> float:
        _, resid = _linear_solve_for_p(lengths, means, _sigmoid(q), first_order)
        return float(resid @ resid)

    costs = np.array([cost(q) for q in candidates])
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
        res = minimize_scalar(cost, bounds=(lo, hi), method="bounded", options={"xatol": 1e-13})
        return float(res.x), float(res.fun)

    order = np.argsort(costs)
    results = [(float(candidates[i]), float(costs[i])) for i in order[:2]]
    for idx in order[:2]:
        results.append(polish(*window(candidates, int(idx))))
    lo, hi = window(candidates, int(order[0]))
    fine = np.linspace(lo, hi, 25)
    fine_costs = np.array([cost(q) for q in fine])
    fine_idx = int(np.argmin(fine_costs))
    results.append((float(fine[fine_idx]), float(fine_costs[fine_idx])))
    results.append(polish(*window(fine, fine_idx)))
    best_q, _ = min(results, key=lambda qc: qc[1])
    return best_q


def estimate_r(gateset: GateSet, config: RBConfig, model: str = "first") -> RBEstimate:
    """Repeat the full RB estimation and report the mean and standard
    deviation of the fitted RB numbers across repeats."""
    if config.repeats < 2:
        raise ValueError("estimate_r needs at least 2 repeats")
    fits = []
    failures = 0
    for dataset in repeat_datasets(gateset, config):
        try:
            fits.append(fit_decay(dataset, model=model))
        except FitError:
            failures += 1
    if failures > config.repeats // 2:
        raise FitError(f"{failures} of {config.repeats} repeats failed to fit", float("inf"))
    r_values = np.array([f.r_hat for f in fits])
    return RBEstimate(
        r_mean=float(np.mean(r_values)),
        r_std=float(np.std(r_values, ddof=1)),
        fits=tuple(fits),
    )
