"""Quantum channel algebra in the Pauli transfer matrix (PTM) representation.

Conventions, fixed package-wide:

* A channel is its PTM: a read-only 4x4 float64 array in the normalized
  Pauli basis {I, X, Y, Z} / sqrt(2), with row/column 0 the identity
  component, and `A @ B` applies B first, then A. A channel is trace
  preserving iff its first row is (1, 0, ..., 0) and unital iff its first
  column is (1, 0, ..., 0)^T.
* A state and an effect are real coefficient vectors in the same basis (a
  `Spam`); Born probabilities are plain dot products of those vectors.
* Matrices are vectorized by column stacking, so vec(A X B) =
  (B^T kron A) vec(X).

The package is one qubit only: the Hilbert-space dimension is 2 throughout,
so every PTM is 4x4 and every state or effect a 4-vector: `as_channel`
rejects any other PTM shape, and `Spam` any other vector.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "as_channel",
    "Spam",
    "PAULI_BASIS",
    "vec",
    "unvec",
    "rotation_channel",
    "depolarizing_channel",
    "to_choi",
    "choi_eigenvalues",
    "is_cp",
    "is_tp",
    "agi",
    "PTM_TO_CHOI",
    "diamond_bracket",
    "diamond_distance",
]

STRUCTURAL_TOL = 1e-9

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_SIGMAS = np.stack([_SIGMA_X, _SIGMA_Y, _SIGMA_Z])

# {I, X, Y, Z} / sqrt(2), shape (4, 2, 2): orthonormal under the
# Hilbert-Schmidt inner product.
PAULI_BASIS = np.stack([np.eye(2, dtype=complex), _SIGMA_X, _SIGMA_Y, _SIGMA_Z]) / np.sqrt(2.0)
PAULI_BASIS.setflags(write=False)


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(matrix).T.reshape(-1)


def unvec(vector: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec` for a 4x4 matrix (a vectorized PTM)."""
    return np.asarray(vector).reshape(4, 4).T


def as_channel(matrix) -> np.ndarray:
    """A read-only float copy of a one-qubit PTM: the one check of the 4x4
    shape that every function taking a channel makes."""
    ptm = np.array(matrix, dtype=float)
    if ptm.shape != (4, 4):
        raise ValueError(f"PTM must be 4x4 (dimension 2), got shape {ptm.shape}")
    ptm.setflags(write=False)
    return ptm


def _read_only_record(cls):
    """`dataclass(frozen=True, eq=False)` for a record whose constructor makes
    its arrays read-only: it pickles through that constructor, from its init
    fields, since numpy unpickles every array writable."""
    cls.__reduce__ = lambda self: (type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init))
    return dataclass(frozen=True, eq=False)(cls)


@_read_only_record
class Spam:
    """SPAM: the prepared state's and the measured effect's read-only
    Pauli-basis 4-vectors. The state must have unit trace, which every
    TP-form gauge keeps; positivity holds in one gauge only and is not
    checked (`RBDataset` checks the survival probabilities instead)."""

    state: np.ndarray
    effect: np.ndarray

    def __post_init__(self):
        for name in ("state", "effect"):
            coeffs = np.array(getattr(self, name), dtype=float)
            if coeffs.shape != (4,):
                raise ValueError(f"{name} must have 4 coefficients (dimension 2), got shape {coeffs.shape}")
            coeffs.setflags(write=False)
            object.__setattr__(self, name, coeffs)
        if abs(self.state[0] - 1.0 / np.sqrt(2.0)) > STRUCTURAL_TOL:
            raise ValueError("state is not unit trace (coefficient 0 must be 1/sqrt(2))")

    @classmethod
    def ideal(cls) -> "Spam":
        """Preparation of, and projection onto, |0><0|, the +1 eigenstate of sigma_z."""
        z_plus = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        return cls(z_plus, z_plus)


def rotation_channel(axis: np.ndarray, angle: float) -> np.ndarray:
    """Unitary rotation channel exp(-i*angle*(axis . sigma)/2) acting by conjugation.

    The axis must be a unit 3-vector (|axis| = 1 within 1e-12).
    """
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,):
        raise ValueError("rotation axis must be a 3-vector")
    if abs(np.linalg.norm(axis) - 1.0) > 1e-12:
        raise ValueError(f"rotation axis must be a unit vector, |axis| = {np.linalg.norm(axis)!r}")
    h = axis[0] * _SIGMA_X + axis[1] * _SIGMA_Y + axis[2] * _SIGMA_Z
    u = np.cos(angle / 2.0) * np.eye(2) - 1j * np.sin(angle / 2.0) * h
    ptm = np.einsum("iab,bc,jcd,da->ij", PAULI_BASIS, u, PAULI_BASIS, u.conj().T)
    return as_channel(ptm.real)


def depolarizing_channel(lam: float) -> np.ndarray:
    """Depolarizing channel rho -> (1 - lam) I/2 + lam rho, PTM diag(1, lam, lam, lam)."""
    if not (-1.0 / 3.0 <= lam <= 1.0):
        raise ValueError(
            f"depolarizing parameter {lam} outside [-1/3, 1]: the minimal Choi "
            "eigenvalue (1 - lam)/2 or (1 + 3 lam)/2 would be negative"
        )
    return as_channel(np.diag([1.0, lam, lam, lam]))


# --------------------------------------------------------------------------
# Choi matrix and positivity
# --------------------------------------------------------------------------


# Column (4 a + b) is the Choi matrix of the PTM with a single unit entry at
# (a, b): the map rho -> Tr[P_b rho] P_a, whose Choi matrix is P_b^T (x) P_a.
# Stored column-major, so that products with it are summed in the order the
# recorded golden outputs were computed in (bitwise equal Choi spectra).
PTM_TO_CHOI = np.asfortranarray(np.einsum("jki,lab->iakblj", PAULI_BASIS, PAULI_BASIS).reshape(16, 16))
PTM_TO_CHOI.setflags(write=False)


def _chois(ptms: np.ndarray) -> np.ndarray:
    """`to_choi` of each PTM of an (n, 4, 4) stack (or of one PTM, n = 1)."""
    return np.matmul(PTM_TO_CHOI, ptms.reshape(-1, 16, 1)).reshape(-1, 4, 4)


def to_choi(s: np.ndarray) -> np.ndarray:
    """The 4x4 complex Choi matrix sum_ij B_ij (x) S(B_ij) over matrix units
    B_ij, input factor first. It is unnormalized: the identity channel has
    Choi trace 2."""
    return _chois(as_channel(s))[0]


def choi_eigenvalues(s: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Choi matrix, sorted ascending. A real PTM has an
    exactly Hermitian Choi matrix, so the spectrum is real."""
    return np.linalg.eigvalsh(to_choi(s))


def is_cp(s: np.ndarray) -> bool:
    """Complete positivity: all Choi eigenvalues >= -STRUCTURAL_TOL."""
    return bool(choi_eigenvalues(s)[0] >= -STRUCTURAL_TOL)


def is_tp(s: np.ndarray) -> bool:
    """Trace preservation: first PTM row equals (1, 0, ..., 0) within STRUCTURAL_TOL."""
    row = as_channel(s)[0].copy()
    row[0] -= 1.0
    return bool(np.max(np.abs(row)) <= STRUCTURAL_TOL)


# --------------------------------------------------------------------------
# Gate fidelity
# --------------------------------------------------------------------------


def agi(g_tilde: np.ndarray, g: np.ndarray) -> float:
    """Average gate infidelity of g_tilde to the target g.

    Computed as (4 - Tr(L)) / 6 with L = g_tilde g^{-1}, which equals one
    minus the Haar-averaged state fidelity for unitary targets.
    """
    try:
        g_inv = np.linalg.inv(as_channel(g))
    except np.linalg.LinAlgError as exc:
        raise ValueError("target channel is singular") from exc
    trace = np.trace(as_channel(g_tilde) @ g_inv)
    return float((4 - trace) / 6)


# --------------------------------------------------------------------------
# Diamond norm distance
# --------------------------------------------------------------------------


def _sqrt_state(x: np.ndarray) -> np.ndarray:
    """sqrt(rho) for the qubit state with Bloch vector r = sin|x| x/|x|.

    Every x in R^3 lands in the Bloch ball, pure states at |x| = pi/2, so a
    search over x meets no boundary. sqrt(rho) = (rho + sqrt(det rho) I) /
    sqrt(1 + 2 sqrt(det rho)), with sqrt(det rho) = |cos|x|| / 2.
    """
    n = np.linalg.norm(x)
    r = x * (np.sin(n) / n if n > 0 else 1.0)
    root_det = abs(np.cos(n)) / 2.0
    rho = 0.5 * (np.eye(2) + np.einsum("j,jab->ab", r, _SIGMAS))
    return (rho + root_det * np.eye(2)) / np.sqrt(1.0 + 2.0 * root_det)


def _input_value(choi: np.ndarray, x: np.ndarray) -> float:
    """||(K (x) I) J (K (x) I)^dag||_1 with K = sqrt(rho) for the state rho at x:
    the trace norm of (Id (x) Delta)(|psi><psi|) at the unit vector
    psi = (K (x) I) sum_i |ii>, whose first factor has reduced state rho."""
    k = np.kron(_sqrt_state(x), np.eye(2))
    return float(np.abs(np.linalg.eigvalsh(k @ choi @ k.conj().T)).sum())


def diamond_bracket(a: np.ndarray, b: np.ndarray, seed: int = 0) -> tuple[float, float]:
    """Certified bracket (lower, upper) on the diamond distance ||A - B||_diamond.

    With J the Choi matrix of A - B (input factor first) and |J| = J+ + J-,
    Y0 = Y1 = |J| is feasible for the dual SDP of the diamond norm (Watrous,
    arXiv:1207.5726), so upper = ||Tr_out |J|||_inf holds for any
    Hermiticity-preserving difference; for two channels it equals
    2 ||Tr_out J+||_inf. The lower end is the primal value at the input the
    dual suggests, psi = (K (x) I) sum_i |ii> with K = sqrt(rho) and
    rho = Tr_out |J| / Tr |J| on the Choi matrix's input factor. Only when
    the two ends differ by more than 1e-12 max(1, upper) does a seeded local
    polish raise the lower end from that state: a Nelder-Mead search
    (`_nelder_mead`) over the Bloch ball whose initial simplex is drawn from
    `seed`. The two ends meet on unital differences near the identity, such
    as the error maps of the gatesets studied here.
    """
    delta = as_channel(a) - as_channel(b)
    if np.max(np.abs(delta)) < 1e-15:
        return 0.0, 0.0
    choi = to_choi(delta)
    choi = 0.5 * (choi + choi.conj().T)
    w, v = np.linalg.eigh(choi)
    reduced = np.einsum("iaka->ik", ((v * np.abs(w)) @ v.conj().T).reshape(2, 2, 2, 2))
    upper = float(np.linalg.eigvalsh(reduced)[-1])
    bloch = np.einsum("jab,ba->j", _SIGMAS, reduced).real / np.trace(reduced).real
    norm = np.linalg.norm(bloch)
    start = bloch * (np.arcsin(min(norm, 1.0)) / norm if norm > 0 else 1.0)
    lower = _input_value(choi, start)
    if upper - lower > 1e-12 * max(1.0, upper):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        simplex = np.vstack([start, start + 0.1 * rng.standard_normal((3, 3))])
        _, fun, _ = _nelder_mead(lambda x: -_input_value(choi, x), simplex, xatol=1e-10, fatol=1e-15, maxfev=2000)
        lower = max(lower, -float(fun))
    return lower, upper


class _EvaluationCap(Exception):
    """Raised by `_nelder_mead`'s counted objective once `maxfev` calls are spent."""


def _sort_vertices(sim: np.ndarray, fsim: np.ndarray):
    order = np.argsort(fsim)
    return np.take(sim, order, 0), np.take(fsim, order, 0)


def _nelder_mead(func, simplex, *, xatol: float, fatol: float, maxfev: int, maxiter: float = np.inf):
    """Minimize `func` by the Nelder-Mead simplex method (Nelder & Mead,
    Comput. J. 7 (1965) 308) from the (N + 1, N) array `simplex`: the best
    vertex, its value and the number of calls of `func`.

    A step-for-step port of scipy's `_minimize_neldermead` (BSD-3, the
    SciPy developers) on the path of `minimize(func, x0,
    method="Nelder-Mead", options={"initial_simplex": simplex, "xatol":
    xatol, "fatol": fatol, "maxfev": maxfev, "maxiter": maxiter})` with no
    bounds, `adaptive` or callback: its coefficients (reflection 2,
    expansion 3/-2, contractions 1.5/-0.5 and 0.5/0.5, shrink 0.5), its
    centroid, its re-sort after every iteration and its cap on calls, which
    can end an iteration part-way. So it calls `func` at the same points
    (each a fresh copy, as scipy passes) and returns the same bits, and
    rblab needs no `scipy.optimize`.
    """
    sim = np.array(simplex, dtype=float)
    n = sim.shape[1]
    fsim = np.full(n + 1, np.inf)
    evaluations = 0

    def f(x: np.ndarray) -> float:
        nonlocal evaluations
        if evaluations >= maxfev:
            raise _EvaluationCap
        evaluations += 1
        return func(np.copy(x))

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _EvaluationCap:
        pass
    # sorted twice, as scipy does, so that tied values end in its order
    sim, fsim = _sort_vertices(*_sort_vertices(sim, fsim))
    iterations = 1
    while evaluations < maxfev and iterations < maxiter:
        try:
            if np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol:
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # contract outside
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:  # contract inside
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            iterations += 1
        except _EvaluationCap:
            pass
        sim, fsim = _sort_vertices(sim, fsim)
    return sim[0], np.min(fsim), evaluations


def diamond_distance(a: np.ndarray, b: np.ndarray, seed: int = 0) -> float:
    """Diamond norm distance ||A - B||_diamond, as the lower end of
    :func:`diamond_bracket`: a value attained by an input state, certified
    to within the bracket's gap.

    It stays a public name because the benchmark traces it as a span by
    this name (`perfbench/spans.py`)."""
    return diamond_bracket(a, b, seed)[0]
