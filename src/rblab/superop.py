"""Quantum channel algebra in the Pauli transfer matrix (PTM) representation.

Conventions, fixed package-wide:

* Channels are real matrices in the normalized Pauli basis
  {I, X, Y, Z} / sqrt(2), with row/column 0 the identity component. A channel
  is trace preserving iff its first row is (1, 0, ..., 0) and unital iff its
  first column is (1, 0, ..., 0)^T.
* States and measurement effects are real coefficient vectors in the same
  basis; Born probabilities are plain dot products of those vectors.
* Matrices are vectorized by column stacking, so vec(A X B) =
  (B^T kron A) vec(X).

The package is one qubit only: the Hilbert-space dimension is 2 throughout,
so every PTM is 4x4 and every state or effect a 4-vector, and the types
reject any other shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

__all__ = [
    "Superoperator",
    "State",
    "Effect",
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
EIGVAL_IMAG_TOL = 1e-10

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


@dataclass(frozen=True)
class Superoperator:
    """A linear map on one-qubit operators, stored as its real 4x4 PTM."""

    ptm: np.ndarray

    def __post_init__(self):
        ptm = np.array(self.ptm, dtype=float)
        if ptm.shape != (4, 4):
            raise ValueError(f"PTM must be 4x4 (dimension 2), got shape {ptm.shape}")
        ptm.setflags(write=False)
        object.__setattr__(self, "ptm", ptm)

    def __matmul__(self, other: "Superoperator") -> "Superoperator":
        """Composition: (A @ B) applies B first, then A."""
        return Superoperator(self.ptm @ other.ptm)


def _coeff_vector(coeffs) -> np.ndarray:
    """Read-only float copy of a Pauli-basis 4-vector."""
    coeffs = np.array(coeffs, dtype=float)
    if coeffs.shape != (4,):
        raise ValueError(f"coefficient vector must have 4 entries (dimension 2), got shape {coeffs.shape}")
    coeffs.setflags(write=False)
    return coeffs


def _coeffs_of_operator(op: np.ndarray, what: str) -> np.ndarray:
    """Real Pauli-basis coefficients Tr[P_j op] of a Hermitian 2x2 operator."""
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"{what} must be 2x2 (dimension 2), got shape {op.shape}")
    coeffs = np.einsum("jab,ba->j", PAULI_BASIS, op)
    if np.max(np.abs(coeffs.imag)) > STRUCTURAL_TOL:
        raise ValueError(f"{what} is not Hermitian")
    return coeffs.real


@dataclass(frozen=True)
class State:
    """Density operator as a real Pauli-basis coefficient vector."""

    coeffs: np.ndarray
    validate: bool = True

    def __post_init__(self):
        coeffs = _coeff_vector(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if self.validate:
            if abs(coeffs[0] - 1.0 / np.sqrt(2.0)) > STRUCTURAL_TOL:
                raise ValueError("state is not unit trace (coefficient 0 must be 1/sqrt(2))")
            if np.linalg.norm(coeffs[1:]) > 1.0 / np.sqrt(2.0) + STRUCTURAL_TOL:
                raise ValueError("Bloch vector norm exceeds 1")

    @classmethod
    def z_plus(cls) -> "State":
        """|0><0|, the +1 eigenstate of sigma_z."""
        return cls(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))

    @classmethod
    def from_density_matrix(cls, rho: np.ndarray) -> "State":
        return cls(_coeffs_of_operator(rho, "density matrix"))


@dataclass(frozen=True)
class Effect:
    """POVM effect as a real Pauli-basis coefficient vector."""

    coeffs: np.ndarray
    validate: bool = True

    def __post_init__(self):
        coeffs = _coeff_vector(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if self.validate:
            ev = np.linalg.eigvalsh(np.einsum("j,jab->ab", coeffs, PAULI_BASIS))
            if ev[0] < -STRUCTURAL_TOL or ev[-1] > 1.0 + STRUCTURAL_TOL:
                raise ValueError("effect eigenvalues must lie in [0, 1]")

    @classmethod
    def z_plus(cls) -> "Effect":
        """Projector onto the +1 eigenstate of sigma_z."""
        return cls(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))

    @classmethod
    def from_operator(cls, op: np.ndarray) -> "Effect":
        return cls(_coeffs_of_operator(op, "effect operator"))


def rotation_channel(axis: np.ndarray, angle: float) -> Superoperator:
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
    return Superoperator(ptm.real)


def depolarizing_channel(lam: float) -> Superoperator:
    """Depolarizing channel rho -> (1 - lam) I/2 + lam rho, PTM diag(1, lam, lam, lam)."""
    if not (-1.0 / 3.0 <= lam <= 1.0):
        raise ValueError(
            f"depolarizing parameter {lam} outside [-1/3, 1]: the minimal Choi "
            "eigenvalue (1 - lam)/2 or (1 + 3 lam)/2 would be negative"
        )
    return Superoperator(np.diag([1.0, lam, lam, lam]))


# --------------------------------------------------------------------------
# Choi matrix and positivity
# --------------------------------------------------------------------------


# Column (4 a + b) is the Choi matrix of the PTM with a single unit entry at
# (a, b): the map rho -> Tr[P_b rho] P_a, whose Choi matrix is P_b^T (x) P_a.
# Stored column-major, so that products with it are summed in the order the
# recorded golden outputs were computed in (bitwise equal Choi spectra).
PTM_TO_CHOI = np.asfortranarray(np.einsum("jki,lab->iakblj", PAULI_BASIS, PAULI_BASIS).reshape(16, 16))
PTM_TO_CHOI.setflags(write=False)


def to_choi(s: Superoperator) -> np.ndarray:
    """The 4x4 complex Choi matrix sum_ij B_ij (x) S(B_ij) over matrix units
    B_ij, input factor first. It is unnormalized: the identity channel has
    Choi trace 2."""
    return (PTM_TO_CHOI @ s.ptm.reshape(-1)).reshape(4, 4)


def choi_eigenvalues(s: Superoperator) -> np.ndarray:
    """Eigenvalues of the Choi matrix, sorted ascending.

    Raises if the spectrum has non-negligible imaginary parts, which signals a
    map that is not Hermiticity preserving.
    """
    chi = to_choi(s)
    if np.max(np.abs(chi - chi.conj().T)) > EIGVAL_IMAG_TOL:
        ev = np.linalg.eigvals(chi)
        if np.max(np.abs(ev.imag)) > EIGVAL_IMAG_TOL:
            raise ValueError("Choi spectrum is complex: map is not Hermiticity preserving")
        return np.sort(ev.real)
    return np.linalg.eigvalsh(chi)


def is_cp(s: Superoperator, tol: float = STRUCTURAL_TOL) -> bool:
    """Complete positivity: all Choi eigenvalues >= -tol."""
    return bool(choi_eigenvalues(s)[0] >= -tol)


def is_tp(s: Superoperator, tol: float = STRUCTURAL_TOL) -> bool:
    """Trace preservation: first PTM row equals (1, 0, ..., 0) within tol."""
    row = s.ptm[0].copy()
    row[0] -= 1.0
    return bool(np.max(np.abs(row)) <= tol)


# --------------------------------------------------------------------------
# Gate fidelity
# --------------------------------------------------------------------------


def agi(g_tilde: Superoperator, g: Superoperator) -> float:
    """Average gate infidelity of g_tilde to the target g.

    Computed as (4 - Tr(L)) / 6 with L = g_tilde g^{-1}, which equals one
    minus the Haar-averaged state fidelity for unitary targets.
    """
    try:
        g_inv = np.linalg.inv(g.ptm)
    except np.linalg.LinAlgError as exc:
        raise ValueError("target channel is singular") from exc
    trace = np.trace(g_tilde.ptm @ g_inv)
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


def diamond_bracket(a: Superoperator, b: Superoperator, seed: int = 0) -> tuple[float, float]:
    """Certified bracket (lower, upper) on the diamond distance ||A - B||_diamond.

    With J the Choi matrix of A - B (input factor first) and |J| = J+ + J-,
    Y0 = Y1 = |J| is feasible for the dual SDP of the diamond norm (Watrous,
    arXiv:1207.5726), so upper = ||Tr_out |J|||_inf holds for any
    Hermiticity-preserving difference; for two channels it equals
    2 ||Tr_out J+||_inf. The lower end is the primal value at the input the
    dual suggests, psi = (K (x) I) sum_i |ii> with K = sqrt(rho) and
    rho = Tr_out |J| / Tr |J| on the Choi matrix's input factor. Only when
    the two ends differ by more than 1e-12 max(1, upper) does a seeded local
    polish raise the lower end from that state: a Nelder-Mead search over
    the Bloch ball whose initial simplex is drawn from `seed`. The two ends
    meet on unital differences near the identity, such as the error maps of
    the gatesets studied here.
    """
    delta = Superoperator(a.ptm - b.ptm)
    if np.max(np.abs(delta.ptm)) < 1e-15:
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
        res = optimize.minimize(
            lambda x: -_input_value(choi, x),
            start,
            method="Nelder-Mead",
            options={"initial_simplex": simplex, "xatol": 1e-10, "fatol": 1e-15, "maxfev": 2000},
        )
        lower = max(lower, -float(res.fun))
    return lower, upper


def diamond_distance(a: Superoperator, b: Superoperator, seed: int = 0) -> float:
    """Diamond norm distance ||A - B||_diamond, as the lower end of
    :func:`diamond_bracket`: a value attained by an input state, certified
    to within the bracket's gap.

    It stays a public name because the benchmark traces it as a span by
    this name (`perfbench/spans.py`)."""
    return diamond_bracket(a, b, seed)[0]
