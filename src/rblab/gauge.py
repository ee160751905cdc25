"""Gauge freedom of gateset representations.

A gauge transformation (`GaugeTransform.transform_gateset`) conjugates every
gate by an invertible map M and moves the state by M and the effect by M^-T,
leaving every circuit probability unchanged. The average gateset infidelity
is not gauge invariant; this module quantifies that, builds the diagonal
family which lowers it below the RB number while staying physical, searches
for the minimal-infidelity CPTP representation, and constructs the gauge in
which the average error map is exactly depolarizing (making the infidelity
equal r_gamma).

Its results hold only their inputs: each CP flag is read off the smallest Choi eigenvalue.
The search's objective eigen-solves only the Choi matrices that fail a
Cholesky test; the point it reports is scored from all 24 spectra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
from numpy.linalg import _umath_linalg

from .clifford import GateIndependent, GateSet, build_gateset
from .protocol import _fork_map
from .superop import (
    PTM_TO_CHOI,
    Spam,
    _chois,
    _nelder_mead,
    _read_only_record,
    agi,
    as_channel,
    depolarizing_channel,
    unvec,
    vec,
)
from .theory import GatesetTheory

__all__ = [
    "GaugeTransform",
    "CounterexampleRow",
    "EpsilonMinResult",
    "WallmanGauge",
    "agsi_of",
    "infidelity_and_min_choi",
    "m_alpha",
    "counterexample_epsilon_min",
    "epsilon_min_search",
    "wallman_gauge",
]


_CP_FLOOR = -1e-10  # least Choi eigenvalue of a CP representation: counterexample rows, gauge-demo
_SEARCH_CP_FLOOR = -1e-8  # the same for the representations `epsilon_min_search` accepts


def _tp_form(params: np.ndarray) -> np.ndarray:
    """The TP-form gauge: the identity plus `params` on its last 3 rows."""
    m = np.eye(4)
    m[1:, :] += params.reshape(3, 4)
    return m


@_read_only_record
class GaugeTransform:
    """Invertible 4x4 conjugator m in trace-preserving form (first row e0), and its inverse."""

    m: np.ndarray
    m_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = np.array(self.m, dtype=float)
        if m.shape != (4, 4) or not np.isfinite(m).all():
            raise ValueError("gauge transform must be a finite 4x4 matrix")
        if np.max(np.abs(m[0] - np.array([1.0, 0, 0, 0]))) > 1e-12:
            raise ValueError("gauge transform must have first row (1, 0, 0, 0)")
        try:
            m_inv = np.linalg.inv(m)
        except np.linalg.LinAlgError as exc:
            raise ValueError("gauge transform is singular") from exc
        if np.max(np.abs(m @ m_inv - np.eye(4))) > 1e-10:
            raise ValueError("gauge transform is too ill-conditioned to invert")
        for name, value in (("m", m), ("m_inv", m_inv)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @classmethod
    def random_tp(cls, seed: int, scale: float) -> "GaugeTransform":
        """Identity plus a random perturbation of the 12 non-TP-row entries."""
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        return cls(_tp_form(scale * rng.standard_normal((3, 4))))

    def transform_gateset(self, gateset: GateSet) -> GateSet:
        """The gateset in this gauge: each imperfect gate goes to M C~ M^-1,
        the state to M rho and the effect to M^-T E, so every circuit
        probability is unchanged. The ideal gates keep their standard
        representation."""
        spam = Spam(self.m @ gateset.spam.state, self.m_inv.T @ gateset.spam.effect)
        return GateSet(gateset.ideal, self.m @ gateset.ptms @ self.m_inv, spam)


def agsi_of(gateset: GateSet) -> float:
    """The average gateset infidelity of `gateset` to its ideal gates."""
    return infidelity_and_min_choi(gateset)[0]


def infidelity_and_min_choi(gateset: GateSet) -> tuple[float, float]:
    """Score a representation: its average gateset infidelity to the ideal
    gates and the smallest Choi eigenvalue over its gates (negative when
    some gate is not completely positive). One pass over the PTM stack,
    with the bits of `agi` and `choi_eigenvalues` gate by gate."""
    group = gateset.ideal
    traces = np.einsum("nij,nji->n", gateset.ptms, group.ptms[group.inverse])
    min_eig = np.linalg.eigvalsh(_chois(gateset.ptms))[:, 0].min()
    return float(np.mean((4.0 - traces) / 6.0)), float(min_eig)


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
    r_reference: float

    @property
    def all_cp(self) -> bool:
        return bool(self.min_choi_eigenvalue >= _CP_FLOOR)


def counterexample_epsilon_min(lam: float, alpha_grid) -> list[CounterexampleRow]:
    """Sweep the diagonal gauge family over the gateset that implements D_lam
    at the Clifford level, for which r equals (1 - lam)/2 exactly.

    For each alpha the transformed gateset is scored by its infidelity to the
    standard Cliffords and by complete positivity of all 24 gates; the
    closed-form per-gate AGI (3 - lam (alpha^2 + alpha + 1)/alpha) / 6
    applies to every gate that moves the y axis.
    """
    if not (0.0 <= lam < 1.0):
        raise ValueError("lam must lie in [0, 1)")
    gateset = build_gateset(GateIndependent.depolarizing(lam))
    r_reference = agi(depolarizing_channel(lam), np.eye(4))
    rows = []
    for alpha in np.asarray(alpha_grid, dtype=float):
        eps, min_eig = infidelity_and_min_choi(m_alpha(float(alpha)).transform_gateset(gateset))
        rows.append(CounterexampleRow(float(alpha), eps, min_eig, r_reference))
    return rows


_CP_PENALTY = 1e8  # weight of the squared most-negative Choi eigenvalue in the search objective
_cholesky = _umath_linalg.cholesky_lo  # batched lower Cholesky factors; NaN where a matrix is not positive definite


@dataclass(frozen=True)
class EpsilonMinResult:
    epsilon_min_estimate: float
    transform: GaugeTransform
    min_choi_eigenvalue: float

    @property
    def all_cp(self) -> bool:
        return bool(self.min_choi_eigenvalue >= _SEARCH_CP_FLOOR)


def _epsilon_and_chois(params: np.ndarray, tilde: np.ndarray, ideal_inv: np.ndarray):
    """(epsilon, Hermitian Choi stack) for the TP-form gauge at params (12
    entries around the identity) applied to the PTM stack `tilde`, scored
    against the inverse ideal PTMs `ideal_inv`; None when that gauge cannot
    be inverted safely."""
    m = _tp_form(params)
    try:
        m_inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(m_inv)) or np.max(np.abs(m_inv)) > 1e8:
        return None
    gates = m @ tilde @ m_inv
    traces = np.einsum("nij,nji->n", gates, ideal_inv)
    eps = float(np.mean((4.0 - traces) / 6.0))
    # Not `infidelity_and_min_choi`'s Choi product: the penalised search is
    # sensitive to its path, and that product's last bits end some searches
    # at other points (other estimates on the general model).
    chois = (gates.reshape(24, 16) @ PTM_TO_CHOI.T).reshape(24, 4, 4)
    return eps, 0.5 * (chois + chois.conj().transpose(0, 2, 1))


def _evaluate(params: np.ndarray, tilde: np.ndarray, ideal_inv: np.ndarray):
    """(epsilon, min Choi eigenvalue) at params, the eigenvalue from the
    spectra of all 24 Choi matrices of `_epsilon_and_chois`; None when the
    gauge cannot be inverted safely."""
    scored = _epsilon_and_chois(params, tilde, ideal_inv)
    if scored is None:
        return None
    eps, chois = scored
    return eps, float(np.linalg.eigvalsh(chois)[:, 0].min())


def _objective(params: np.ndarray, tilde: np.ndarray, ideal_inv: np.ndarray) -> float:
    """Epsilon plus `_CP_PENALTY` times the squared most negative Choi
    eigenvalue, or 1e6 where the gauge cannot be inverted. Only the Choi
    matrices that fail a batched Cholesky test (LAPACK `zpotrf`, which
    fills each failed factor with NaN) are eigen-solved; with none, the
    penalty is 0. Cholesky is backward stable, so a matrix that passes has
    no eigenvalue below about -2e-15, whose penalty (about 1e-21) is under
    half an ulp of an epsilon near 5e-3: the sum is the one the full
    spectrum gives, bit for bit."""
    scored = _epsilon_and_chois(params, tilde, ideal_inv)
    if scored is None:
        return 1e6
    eps, chois = scored
    with np.errstate(invalid="ignore"):
        failed = np.isnan(_cholesky(chois)[:, 0, 0])
    if not failed.any():
        return eps
    violation = min(float(np.linalg.eigvalsh(chois[failed])[:, 0].min()), 0.0)
    return eps + _CP_PENALTY * violation * violation


def _restart(tilde: np.ndarray, ideal_inv: np.ndarray, seed: int, index: int):
    """One Nelder-Mead run of the search (`superop._nelder_mead`), from the
    identity for index 0 and from a random start drawn from the stream of
    (seed, index) otherwise: its end point and `_evaluate` there. The
    initial simplex is scipy's default around the start: each coordinate
    in turn scaled by 1.05, or set to 0.00025 where it is 0. It calls no
    other rblab function (the Cholesky test and the Choi spectra are
    computed inline), so running it in a worker process hides no call from
    a tracer in the parent."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    start = np.zeros(12) if index == 0 else 0.02 * rng.standard_normal(12)
    nudged = np.where(start != 0, 1.05 * start, 0.00025)
    simplex = np.vstack([start, np.where(np.eye(12, dtype=bool), nudged, start)])
    x, _, _ = _nelder_mead(
        lambda params: _objective(params, tilde, ideal_inv),
        simplex,
        xatol=1e-10,
        fatol=1e-14,
        maxfev=6000,
        maxiter=4000,
    )
    return x, _evaluate(x, tilde, ideal_inv)


def epsilon_min_search(
    gateset: GateSet,
    restarts: int = 8,
    seed: int = 0,
) -> EpsilonMinResult:
    """Local search for the CPTP representation of minimal infidelity.

    Minimizes the infidelity plus a quadratic penalty, of fixed weight
    `_CP_PENALTY`, on Choi-eigenvalue violations over TP-form gauges (12
    free entries around the identity); each evaluation eigen-solves only
    the Choi matrices that fail a Cholesky test (`_objective`), and each
    end point is scored from all 24 spectra (`_evaluate`).
    The result is an upper bound on the true minimum: the incumbent starts
    at the input representation and only improves, and more restarts can
    only lower it. The restarts are independent and run on
    `protocol._fork_map`'s worker processes; the incumbent then walks them
    in index order, so the result does not depend on the worker count.
    """
    tilde = gateset.ptms
    ideal_inv = gateset.ideal.ptms[gateset.ideal.inverse]

    best_params = np.zeros(12)
    best_eps, best_min_eig = _evaluate(best_params, tilde, ideal_inv)
    for params, evaluated in _fork_map(partial(_restart, tilde, ideal_inv, seed), range(restarts)):
        if evaluated is None:
            continue
        eps, min_eig = evaluated
        if min_eig >= _SEARCH_CP_FLOOR and eps < best_eps:
            best_params, best_eps, best_min_eig = params, eps, min_eig

    return EpsilonMinResult(
        epsilon_min_estimate=best_eps,
        transform=GaugeTransform(_tp_form(best_params)),
        min_choi_eigenvalue=best_min_eig,
    )


# --------------------------------------------------------------------------
# The gauge in which the average error map is exactly depolarizing
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WallmanGauge:
    """The depolarizing-error gauge's channel L and the gateset scored in it;
    its gamma and r_gamma are those of the `GatesetTheory` it was built from."""

    l_op: np.ndarray
    epsilon_in_gauge: float
    min_choi_eigenvalue: float
    null_space_dim: int
    residual: float


def wallman_gauge(analysis: GatesetTheory, seed: int = 0) -> WallmanGauge:
    """Construct the channel L with avg_i[C~_i L C_i^{-1}] = L D_gamma and
    evaluate the gateset infidelity in the gauge it generates.

    vec(L) spans the numerical null space of (M' - D_gamma kron Id) with M'
    the 16x16 matrix of E -> avg_i[C~_i E C_i^{-1}]: the theory's `L` map
    with its entries permuted. When that space has dimension
    above one, the combination maximizing invertibility of L is
    selected by seeded random search. In this gauge the average error map is
    exactly depolarizing with parameter gamma, so the infidelity equals
    r_gamma; the transformed gates are generally not completely positive,
    and the most negative Choi eigenvalue is reported.
    """
    gateset = analysis.gateset
    l_primed = analysis.l_map.reshape(4, 4, 4, 4).transpose(3, 2, 1, 0).reshape(16, 16)
    gamma = analysis.gamma

    system = l_primed - np.kron(depolarizing_channel(gamma), np.eye(4))
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

    residual = float(np.linalg.norm(unvec(l_primed @ vec(best)) - best @ depolarizing_channel(gamma)))

    l_inverse_gauge = GaugeTransform(np.linalg.inv(_tp_normalize(best)))
    eps, min_eig = infidelity_and_min_choi(l_inverse_gauge.transform_gateset(gateset))
    return WallmanGauge(
        l_op=as_channel(best),
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
