"""Gauge freedom of gateset representations.

A gauge transformation conjugates every gate by an invertible map M and
transforms states and effects oppositely, leaving every circuit probability
unchanged. The average gateset infidelity is not gauge invariant; this
module quantifies that, builds the diagonal family which lowers it below the
RB number while staying physical, searches for the minimal-infidelity CPTP
representation, and constructs the gauge in which the average error map is
exactly depolarizing (making the infidelity equal r_gamma).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import optimize

from .clifford import GateSet
from .protocol import Spam
from .superop import (
    PTM_TO_CHOI,
    Effect,
    State,
    Superoperator,
    agi,
    choi_eigenvalues,
    depolarizing_channel,
    unvec,
    vec,
)
from .theory import GammaResult, build_l_map, gamma_and_r_gamma

__all__ = [
    "GaugeTransform",
    "CounterexampleRow",
    "EpsilonMinResult",
    "WallmanGauge",
    "agsi",
    "agsi_of",
    "infidelity_and_min_choi",
    "m_alpha",
    "counterexample_epsilon_min",
    "epsilon_min_search",
    "wallman_gauge",
]


@dataclass(frozen=True)
class GaugeTransform:
    """Invertible 4x4 conjugator in trace-preserving form (first row e0)."""

    m: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=float)
        if m.shape != (4, 4):
            raise ValueError("gauge transform must be a 4x4 matrix")
        if np.max(np.abs(m[0] - np.array([1.0, 0, 0, 0]))) > 1e-12:
            raise ValueError("gauge transform must have first row (1, 0, 0, 0)")
        try:
            m_inv = np.linalg.inv(m)
        except np.linalg.LinAlgError as exc:
            raise ValueError("gauge transform is singular") from exc
        if np.max(np.abs(m @ m_inv - np.eye(4))) > 1e-10:
            raise ValueError("gauge transform is too ill-conditioned to invert")
        m.setflags(write=False)
        m_inv.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "m_inv", m_inv)

    @classmethod
    def random_tp(cls, seed: int, scale: float = 0.2) -> "GaugeTransform":
        """Identity plus a random perturbation of the 12 non-TP-row entries."""
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        m = np.eye(4)
        m[1:, :] += scale * rng.standard_normal((3, 4))
        return cls(m)

    def transform_channel(self, s: Superoperator) -> Superoperator:
        return Superoperator(self.m @ s.ptm @ self.m_inv)

    def transform_spam(self, spam: Spam) -> Spam:
        """The state goes to M rho and the effect to M^-T E, so every
        circuit probability is unchanged."""
        return Spam(
            State(self.m @ spam.state.coeffs, validate=False),
            Effect(self.m_inv.T @ spam.effect.coeffs, validate=False),
        )

    def transform_gateset(self, gateset: GateSet) -> GateSet:
        """Conjugate the imperfect representation only; the ideal gates keep
        their standard representation."""
        return replace(
            gateset,
            imperfect=tuple(self.transform_channel(c) for c in gateset.imperfect),
        )


def agsi(imperfect, ideal) -> float:
    """Average gateset infidelity: mean AGI of each gate to its target."""
    imperfect = list(imperfect)
    ideal = list(ideal)
    if len(imperfect) != len(ideal):
        raise ValueError("gatesets must have the same size")
    return float(np.mean([agi(t, i) for t, i in zip(imperfect, ideal)]))


def agsi_of(gateset: GateSet) -> float:
    return agsi(gateset.imperfect, gateset.ideal.elements)


def infidelity_and_min_choi(imperfect, ideal) -> tuple[float, float]:
    """Score a representation: its average gateset infidelity to the ideal
    gates and the smallest Choi eigenvalue over its gates (negative when
    some gate is not completely positive)."""
    imperfect = list(imperfect)
    return agsi(imperfect, ideal), min(float(choi_eigenvalues(c)[0]) for c in imperfect)


def m_alpha(alpha: float) -> GaugeTransform:
    """Diagonal gauge scaling the sigma_y component by alpha."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return GaugeTransform(np.diag([1.0, 1.0, alpha, 1.0]))


# --------------------------------------------------------------------------
# The depolarizing counterexample: minimal CPTP infidelity below r
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterexampleRow:
    alpha: float
    epsilon: float
    min_choi_eigenvalue: float
    all_cp: bool
    r_reference: float


def counterexample_epsilon_min(lam: float, alpha_grid, gateset: GateSet) -> list[CounterexampleRow]:
    """Sweep the diagonal gauge family over a depolarizing gateset.

    The input gateset must implement D_lam at the Clifford level, for which
    r equals (1 - lam)/2 exactly. For each alpha the transformed gateset is
    scored by its infidelity to the standard Cliffords and by complete
    positivity of all 24 gates; the closed-form per-gate AGI
    (3 - lam (alpha^2 + alpha + 1)/alpha) / 6 applies to every gate that
    moves the y axis.
    """
    if not (0.0 <= lam < 1.0):
        raise ValueError("lam must lie in [0, 1)")
    ideal = gateset.ideal.elements
    r_reference = agi(depolarizing_channel(lam), Superoperator(np.eye(4)))
    rows = []
    for alpha in np.asarray(alpha_grid, dtype=float):
        transform = m_alpha(float(alpha))
        transformed = [transform.transform_channel(c) for c in gateset.imperfect]
        eps, min_eig = infidelity_and_min_choi(transformed, ideal)
        rows.append(
            CounterexampleRow(
                alpha=float(alpha),
                epsilon=eps,
                min_choi_eigenvalue=min_eig,
                all_cp=bool(min_eig >= -1e-10),
                r_reference=r_reference,
            )
        )
    return rows


_CP_PENALTY = 1e8  # weight of the squared most-negative Choi eigenvalue in the search objective


@dataclass(frozen=True)
class EpsilonMinResult:
    epsilon_min_estimate: float
    transform: GaugeTransform
    all_cp: bool
    min_choi_eigenvalue: float


def epsilon_min_search(
    gateset: GateSet,
    restarts: int = 8,
    seed: int = 0,
) -> EpsilonMinResult:
    """Local search for the CPTP representation of minimal infidelity.

    Minimizes the infidelity plus a quadratic penalty, of fixed weight
    `_CP_PENALTY`, on Choi-eigenvalue violations over TP-form gauges (12
    free entries around the identity).
    The result is an upper bound on the true minimum: the incumbent starts
    at the input representation and only improves, and more restarts can
    only lower it.
    """
    tilde = gateset.imperfect_stack()
    ideal_inv = np.stack([np.linalg.inv(e.ptm) for e in gateset.ideal.elements])

    def evaluate(params: np.ndarray):
        """(epsilon, min Choi eigenvalue) for the gauge at params, or None."""
        m = np.eye(4)
        m[1:, :] += params.reshape(3, 4)
        try:
            m_inv = np.linalg.inv(m)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(m_inv)) or np.max(np.abs(m_inv)) > 1e8:
            return None
        gates = m @ tilde @ m_inv
        traces = np.einsum("nij,nji->n", gates, ideal_inv)
        eps = float(np.mean((4.0 - traces) / 6.0))
        chois = (gates.reshape(24, 16) @ PTM_TO_CHOI.T).reshape(24, 4, 4)
        eigs = np.linalg.eigvalsh(0.5 * (chois + chois.conj().transpose(0, 2, 1)))
        return eps, float(eigs[:, 0].min())

    def objective(params: np.ndarray) -> float:
        evaluated = evaluate(params)
        if evaluated is None:
            return 1e6
        eps, min_eig = evaluated
        violation = min(min_eig, 0.0)
        return eps + _CP_PENALTY * violation * violation

    best_params = np.zeros(12)
    best_eps, best_min_eig = evaluate(best_params)
    for index in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        start = np.zeros(12) if index == 0 else 0.02 * rng.standard_normal(12)
        res = optimize.minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000, "maxfev": 6000},
        )
        evaluated = evaluate(res.x)
        if evaluated is None:
            continue
        eps, min_eig = evaluated
        if min_eig >= -1e-8 and eps < best_eps:
            best_params, best_eps, best_min_eig = res.x.copy(), eps, min_eig

    m_best = np.eye(4)
    m_best[1:, :] += best_params.reshape(3, 4)
    return EpsilonMinResult(
        epsilon_min_estimate=best_eps,
        transform=GaugeTransform(m_best),
        all_cp=bool(best_min_eig >= -1e-8),
        min_choi_eigenvalue=best_min_eig,
    )


# --------------------------------------------------------------------------
# The gauge in which the average error map is exactly depolarizing
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class WallmanGauge:
    l_op: Superoperator
    gamma: float
    r_gamma: float
    epsilon_in_gauge: float
    min_choi_eigenvalue: float
    null_space_dim: int
    residual: float


def wallman_gauge(gateset: GateSet, seed: int = 0) -> WallmanGauge:
    """Construct the channel L with avg_i[C~_i L C_i^{-1}] = L D_gamma and
    evaluate the gateset infidelity in the gauge it generates.

    vec(L) spans the numerical null space of (M' - D_gamma kron Id) with M'
    the 16x16 matrix of the primed averaging map; when that space has
    dimension above one, the combination maximizing invertibility of L is
    selected by seeded random search. In this gauge the average error map is
    exactly depolarizing with parameter gamma, so the infidelity equals
    r_gamma; the transformed gates are generally not completely positive,
    and the most negative Choi eigenvalue is reported.
    """
    l_primed = build_l_map(gateset, primed=True)
    gamma_result: GammaResult = gamma_and_r_gamma(build_l_map(gateset))
    gamma = gamma_result.gamma

    system = l_primed - np.kron(depolarizing_channel(gamma).ptm, np.eye(4))
    u, s, vh = np.linalg.svd(system)
    null_mask = s <= 1e-8 * s[0]
    null_dim = int(null_mask.sum())
    if null_dim == 0:
        raise ValueError(
            f"no numerical null space (smallest singular value {s[-1]:.3e}): "
            "the defining equation has no solution at this tolerance"
        )
    basis = vh[null_mask.size - null_dim:]

    def l_candidate(coeffs: np.ndarray) -> np.ndarray:
        combo = coeffs @ basis
        mat = unvec(combo)
        norm = np.linalg.norm(mat)
        if norm < 1e-12:
            return np.zeros((4, 4))
        return mat / norm * 2.0  # Frobenius norm matched to the identity channel

    if null_dim == 1:
        best = l_candidate(np.ones(1))
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        best, best_sv = None, -1.0
        for _ in range(200):
            coeffs = rng.standard_normal(null_dim)
            mat = l_candidate(coeffs)
            sv = float(np.linalg.svd(mat, compute_uv=False)[-1])
            if sv > best_sv:
                best, best_sv = mat, sv
    smallest_sv = float(np.linalg.svd(best, compute_uv=False)[-1])
    if smallest_sv < 1e-10:
        raise ValueError("no invertible combination found in the null space")

    l_op = Superoperator(best)
    residual = float(np.linalg.norm(unvec(l_primed @ vec(best)) - best @ depolarizing_channel(gamma).ptm))

    l_inverse_gauge = GaugeTransform(np.linalg.inv(_tp_normalize(best)))
    transformed = [l_inverse_gauge.transform_channel(c) for c in gateset.imperfect]
    eps, min_eig = infidelity_and_min_choi(transformed, gateset.ideal.elements)
    return WallmanGauge(
        l_op=l_op,
        gamma=gamma,
        r_gamma=gamma_result.r_gamma,
        epsilon_in_gauge=eps,
        min_choi_eigenvalue=min_eig,
        null_space_dim=null_dim,
        residual=residual,
    )


def _tp_normalize(mat: np.ndarray) -> np.ndarray:
    """Scale so the leading entry is 1 and snap the first row to e0.

    The defining equation forces the solution's first row onto the identity
    component (the Clifford average projects it there), so anything else in
    that row is numerical noise.
    """
    if abs(mat[0, 0]) < 1e-12:
        raise ValueError("solution channel has a vanishing trace component")
    out = mat / mat[0, 0]
    if np.max(np.abs(out[0, 1:])) > 1e-8:
        raise ValueError("solution channel is not trace preserving")
    out[0] = np.array([1.0, 0.0, 0.0, 0.0])
    return out
