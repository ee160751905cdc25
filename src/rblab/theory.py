"""Representation-independent theories of the RB decay.

Two decay predictors for a gateset:

* the exact one, from the spectrum of a 4|C| x 4|C| block matrix whose
  (k, j) block is the imperfect implementation of C_j^{-1} C_k divided by
  |C|; averaging over all sequences of length m reduces to its (m+1)-th
  power, and

* an approximate one, from a 16x16 map acting on channels,
  L(E) = avg_i[C_i^{-1} E C~_i], whose second-largest eigenvalue gamma sets
  the decay base. Its error is bounded by half the average diamond distance
  of the per-gate error maps to their mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .clifford import GateSet, average_error_map, error_maps
from .protocol import Spam, circuit_survivals, sequence_inversions
from .superop import diamond_bracket, vec, unvec

__all__ = [
    "SpectralDecay",
    "GammaResult",
    "DeltaBound",
    "build_r_matrix",
    "exact_decay",
    "build_l_map",
    "gamma_and_r_gamma",
    "predicted_decay",
    "delta_diamond",
    "brute_force_pm",
]

_EIG_COND_LIMIT = 1e8
_REALNESS_TOL = 1e-10


@dataclass(frozen=True)
class SpectralDecay:
    """Eigenvalues and SPAM-dependent weights of the sequence-averaging
    matrix R; the prediction at length m is sum_i weights_i * eig_i**(m+1).
    Weights are None when R was numerically defective and the spectral form
    was abandoned for iterated multiplication.
    """

    eigenvalues: np.ndarray
    weights: np.ndarray | None

    def predict(self, lengths) -> np.ndarray:
        if self.weights is None:
            raise ValueError("no spectral weights available (defective generator)")
        values = np.array(
            [np.sum(self.weights * self.eigenvalues ** (m + 1)) for m in np.asarray(lengths)]
        )
        if np.max(np.abs(values.imag)) > _REALNESS_TOL:
            raise ValueError("spectral decay prediction has a non-real component")
        return values.real


@dataclass(frozen=True)
class GammaResult:
    gamma: float
    r_gamma: float


@dataclass(frozen=True)
class DeltaBound:
    """delta_diamond = mean(per-gate diamond distances to the average error
    map) / 2; bounds the approximate theory's error at every length.

    Each per-gate distance is bracketed by :func:`rblab.superop.diamond_bracket`:
    `per_gate_distances` holds the lower ends (values attained by input
    states) and `per_gate_upper` the certified upper ends, so the true
    delta_diamond lies in [delta_diamond, per_gate_upper.mean() / 2].
    """

    delta_diamond: float
    per_gate_distances: np.ndarray
    per_gate_upper: np.ndarray


def build_r_matrix(gateset: GateSet) -> np.ndarray:
    """The 4|C| x 4|C| sequence-averaging block matrix R; block (k, j) is the
    imperfect implementation of C_k C_j^{-1}, scaled by 1/|C|."""
    group = gateset.ideal
    size = len(group)
    blocks = np.zeros((4 * size, 4 * size))
    for k in range(size):
        for j in range(size):
            # block (k, j) holds the imperfect version of the transition
            # element C_k C_j^{-1}; with this order the path products through
            # R^(m+1) telescope into exactly the self-inverting RB sequences
            idx = group.cayley[k, group.inverse[j]]
            blocks[4 * k:4 * k + 4, 4 * j:4 * j + 4] = gateset.imperfect[idx].ptm
    return blocks / size


def _spam_vectors(spam: Spam, size: int) -> tuple[np.ndarray, np.ndarray]:
    rho = np.zeros(4 * size)
    eff = np.zeros(4 * size)
    rho[:4] = spam.state.coeffs
    eff[:4] = spam.effect.coeffs
    return eff, rho


def exact_decay(
    gateset: GateSet,
    spam: Spam | None = None,
    lengths=(1,),
) -> tuple[SpectralDecay, np.ndarray]:
    """Average survival probability over all sequences, for every length.

    Uses the eigendecomposition of the block matrix; if that basis is
    numerically defective (condition number above 1e8), falls back to
    iterated block multiplication and reports no weights.
    """
    spam = spam if spam is not None else Spam.ideal()
    lengths = np.asarray([int(m) for m in np.atleast_1d(lengths)])
    r_matrix = build_r_matrix(gateset)
    size = len(gateset.ideal)
    eff, rho = _spam_vectors(spam, size)

    eigvals, eigvecs = np.linalg.eig(r_matrix)
    cond = np.linalg.cond(eigvecs)
    if cond < _EIG_COND_LIMIT:
        left = eff @ eigvecs
        right = np.linalg.solve(eigvecs, rho)
        weights = size * left * right
        decay = SpectralDecay(eigenvalues=eigvals, weights=weights)
        return decay, decay.predict(lengths)

    decay = SpectralDecay(eigenvalues=eigvals, weights=None)
    values = np.empty(len(lengths), dtype=float)
    order = np.argsort(lengths)
    vec_state = rho.copy()
    power = 0
    for pos in order:
        target = int(lengths[pos]) + 1
        while power < target:
            vec_state = r_matrix @ vec_state
            power += 1
        values[pos] = size * float(eff @ vec_state)
    return decay, values


def build_l_map(gateset: GateSet, primed: bool = False) -> np.ndarray:
    """16x16 matrix of E -> avg_i[C_i^{-1} E C~_i] on column-stacked PTMs
    (vec(A X B) = (B^T kron A) vec(X)); `primed` gives
    E -> avg_i[C~_i E C_i^{-1}], which has the same spectrum."""
    group = gateset.ideal
    out = np.zeros((16, 16))
    for i in range(len(group)):
        c_inv = group.elements[group.inverse[i]].ptm
        c_tilde = gateset.imperfect[i].ptm
        if primed:
            out += np.kron(c_inv.T, c_tilde)
        else:
            out += np.kron(c_tilde.T, c_inv)
    return out / len(group)


def gamma_and_r_gamma(l_matrix: np.ndarray) -> GammaResult:
    """Decay base gamma: the largest-modulus eigenvalue after the single
    unit eigenvalue, which must be real; r_gamma = (1-gamma)/2.

    Degenerate unit eigenvalues or a complex gamma signal errors too large
    for the small-error theory and raise.
    """
    eigvals = np.linalg.eigvals(np.asarray(l_matrix))
    unit = np.abs(eigvals - 1.0) < 1e-9
    if unit.sum() != 1:
        raise ValueError(
            f"expected exactly one unit eigenvalue, found {int(unit.sum())}: "
            "the gateset is outside the small-error regime"
        )
    rest = eigvals[~unit]
    top = np.argmax(np.abs(rest))
    gamma = rest[top]
    if abs(gamma.imag) > 1e-9:
        raise ValueError(f"subdominant eigenvalue {gamma} is not real")
    if abs(gamma) > 1.0 + 1e-9:
        raise ValueError(f"subdominant eigenvalue {gamma} exceeds 1 in modulus")
    gamma_real = float(gamma.real)
    return GammaResult(
        gamma=gamma_real,
        r_gamma=(1.0 - gamma_real) / 2,
    )


def predicted_decay(
    gateset: GateSet,
    spam: Spam | None = None,
    lengths=(1,),
) -> np.ndarray:
    """Approximate decay Tr(E Lbar [L^m(Id)](rho)) by iterated application
    of the 16x16 map to the vectorized identity channel."""
    spam = spam if spam is not None else Spam.ideal()
    lengths = np.asarray([int(m) for m in np.atleast_1d(lengths)])
    l_matrix = build_l_map(gateset)
    lbar = average_error_map(gateset).ptm
    eff, rho = spam.effect.coeffs, spam.state.coeffs

    values = np.empty(len(lengths), dtype=float)
    order = np.argsort(lengths)
    current = vec(np.eye(4))
    power = 0
    for pos in order:
        target = int(lengths[pos])
        while power < target:
            current = l_matrix @ current
            power += 1
        values[pos] = float(eff @ (lbar @ unvec(current) @ rho))
    return values


def delta_diamond(gateset: GateSet, seed: int = 0) -> DeltaBound:
    """Half the average diamond distance between each gate's error map and
    the average error map."""
    avg = average_error_map(gateset)
    brackets = np.array(
        [diamond_bracket(m, avg, seed=seed + i) for i, m in enumerate(error_maps(gateset))]
    )
    return DeltaBound(
        delta_diamond=float(brackets[:, 0].mean() / 2.0),
        per_gate_distances=brackets[:, 0],
        per_gate_upper=brackets[:, 1],
    )


def brute_force_pm(gateset: GateSet, spam: Spam | None = None, m: int = 1) -> float:
    """Ground truth for small m: enumerate all |C|**m sequences exactly."""
    spam = spam if spam is not None else Spam.ideal()
    if m > 3:
        raise ValueError("brute force enumeration is capped at m = 3")
    group = gateset.ideal
    sequences = np.array(list(product(range(len(group)), repeat=m)), dtype=np.intp)
    circuits = np.column_stack([sequences, sequence_inversions(group, sequences)])
    return float(np.mean(circuit_survivals(gateset.imperfect_stack(), circuits, spam)))
