"""Representation-independent theories of the RB decay.

Two decay predictors for a gateset, its gates and its SPAM (`GateSet.spam`):

* the exact one, from the spectrum of a 4|C| x 4|C| block matrix whose
  (k, j) block is the imperfect implementation of C_k C_j^{-1} divided by
  |C|; averaging over all sequences of length m reduces to its (m+1)-th
  power, and

* an approximate one, from a 16x16 map acting on channels,
  L(E) = avg_i[C_i^{-1} E C~_i], whose second-largest eigenvalue gamma sets
  the decay base. Its error is bounded by half the average diamond distance
  of the per-gate error maps to their mean.

The result records take only their inputs: `GatesetTheory(gateset)` builds
its `L` map and gamma itself, and `DeltaBound` derives delta_diamond from
its per-gate distances. Their arrays are read-only, and each record pickles
through its constructor (`superop._read_only_record`), so a copy is
read-only too.
"""

from __future__ import annotations

from dataclasses import field

import numpy as np

from .clifford import GateSet, average_error_map, error_maps
from .protocol import _checked_lengths
from .superop import _read_only_record, diamond_bracket, vec, unvec

__all__ = [
    "SpectralDecay",
    "GatesetTheory",
    "DeltaBound",
    "build_r_matrix",
    "exact_decay",
    "build_l_map",
    "gamma_and_r_gamma",
    "predicted_decay",
    "delta_diamond",
]

_EIG_COND_LIMIT = 1e8
_REALNESS_TOL = 1e-10


def _hold_read_only(record, name: str, dtype=None) -> None:
    """Replace the record's array `name` by a read-only copy."""
    value = np.array(getattr(record, name), dtype=dtype)
    value.setflags(write=False)
    object.__setattr__(record, name, value)


@_read_only_record
class SpectralDecay:
    """Eigenvalues and SPAM-dependent weights of the sequence-averaging
    matrix R, held as read-only copies; the prediction at length m is
    sum_i weights_i * eig_i**(m+1). Weights are None when R was numerically
    defective and the spectral form was abandoned for iterated
    multiplication.
    """

    eigenvalues: np.ndarray
    weights: np.ndarray | None

    def __post_init__(self):
        _hold_read_only(self, "eigenvalues")
        if self.weights is not None:
            _hold_read_only(self, "weights")

    def predict(self, lengths) -> np.ndarray:
        if self.weights is None:
            raise ValueError("no spectral weights available (defective generator)")
        values = np.array(
            [np.sum(self.weights * self.eigenvalues ** (m + 1)) for m in np.asarray(lengths)]
        )
        if np.max(np.abs(values.imag)) > _REALNESS_TOL:
            raise ValueError("spectral decay prediction has a non-real component")
        return values.real


@_read_only_record
class DeltaBound:
    """Per-gate diamond distances to the average error map; their mean over
    two, delta_diamond, bounds the approximate theory's error at every length.

    Each per-gate distance is bracketed by :func:`rblab.superop.diamond_bracket`:
    `per_gate_distances` holds the lower ends (values attained by input
    states) and `per_gate_upper` the certified upper ends, so the true
    delta_diamond lies in [delta_diamond, per_gate_upper.mean() / 2].
    """

    per_gate_distances: np.ndarray
    per_gate_upper: np.ndarray

    def __post_init__(self):
        _hold_read_only(self, "per_gate_distances", float)
        _hold_read_only(self, "per_gate_upper", float)

    @property
    def delta_diamond(self) -> float:
        return float(self.per_gate_distances.mean() / 2.0)


def build_r_matrix(gateset: GateSet) -> np.ndarray:
    """The 4|C| x 4|C| sequence-averaging block matrix R; block (k, j) is the
    imperfect implementation of C_k C_j^{-1}, scaled by 1/|C|."""
    group = gateset.ideal
    size = len(group)
    # block (k, j) holds the imperfect version of the transition element
    # C_k C_j^{-1}; with this order the path products through R^(m+1)
    # telescope into exactly the self-inverting RB sequences
    blocks = gateset.ptms[group.cayley[:, group.inverse]]
    return blocks.transpose(0, 2, 1, 3).reshape(4 * size, 4 * size) / size


def _lengths(lengths) -> np.ndarray:
    """One sequence length or several, checked as `RBConfig` checks them."""
    return np.array(_checked_lengths(lengths if np.ndim(lengths) else [lengths]))


def exact_decay(gateset: GateSet, lengths=(1,)) -> tuple[SpectralDecay, np.ndarray]:
    """Average survival probability over all sequences, from the gateset's
    state to its effect, for every length.

    Uses the eigendecomposition of the block matrix; if that basis is
    numerically defective (condition number above 1e8), falls back to
    iterated block multiplication and reports no weights.
    """
    lengths = _lengths(lengths)
    r_matrix = build_r_matrix(gateset)
    size = len(gateset.ideal)
    # block 0, the identity's, holds the state and the effect
    rho, eff = (np.concatenate([v, np.zeros(4 * size - 4)]) for v in (gateset.spam.state, gateset.spam.effect))

    eigvals, eigvecs = np.linalg.eig(r_matrix)
    cond = np.linalg.cond(eigvecs)
    if cond < _EIG_COND_LIMIT:
        left = eff @ eigvecs
        right = np.linalg.solve(eigvecs, rho)
        weights = size * left * right
        decay = SpectralDecay(eigenvalues=eigvals, weights=weights)
        return decay, decay.predict(lengths)

    values = [size * float(eff @ v) for v in _powers_applied(r_matrix, rho, lengths + 1)]
    return SpectralDecay(eigenvalues=eigvals, weights=None), np.array(values)


def _powers_applied(matrix: np.ndarray, vector: np.ndarray, exponents: np.ndarray) -> list[np.ndarray]:
    """matrix**e @ vector for each e of `exponents`, in their order, by
    repeated multiplication up to each in increasing order."""
    out: list = [None] * len(exponents)
    power = 0
    for pos in np.argsort(exponents):
        while power < exponents[pos]:
            vector = matrix @ vector
            power += 1
        out[pos] = vector
    return out


def build_l_map(gateset: GateSet) -> np.ndarray:
    """16x16 matrix of E -> avg_i[C_i^{-1} E C~_i] on column-stacked PTMs
    (vec(A X B) = (B^T kron A) vec(X))."""
    group = gateset.ideal
    out = np.zeros((16, 16))
    for c_tilde, c_inv in zip(gateset.ptms, group.ptms[group.inverse]):
        out += np.kron(c_tilde.T, c_inv)
    return out / len(group)


def gamma_and_r_gamma(l_matrix: np.ndarray) -> tuple[float, float]:
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
    return gamma_real, (1.0 - gamma_real) / 2


@_read_only_record
class GatesetTheory:
    """A gateset in the small-error regime with its read-only 16x16 `L` map,
    the map's subdominant eigenvalue gamma and r_gamma, each computed once
    from the gateset on construction, which raises the ValueError of
    `gamma_and_r_gamma` outside the small-error regime."""

    gateset: GateSet
    l_map: np.ndarray = field(init=False)
    gamma: float = field(init=False)
    r_gamma: float = field(init=False)

    def __post_init__(self):
        l_map = build_l_map(self.gateset)
        gamma, r_gamma = gamma_and_r_gamma(l_map)
        l_map.setflags(write=False)
        object.__setattr__(self, "l_map", l_map)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "r_gamma", r_gamma)


def predicted_decay(analysis: GatesetTheory, lengths=(1,)) -> np.ndarray:
    """Approximate decay Tr(E Lbar [L^m(Id)](rho)) by iterated application
    of the analysed gateset's 16x16 map to the vectorized identity channel,
    with the gateset's state rho and effect E."""
    lengths = _lengths(lengths)
    lbar = average_error_map(analysis.gateset)
    eff, rho = analysis.gateset.spam.effect, analysis.gateset.spam.state
    powers = _powers_applied(analysis.l_map, vec(np.eye(4)), lengths)
    return np.array([float(eff @ (lbar @ unvec(v) @ rho)) for v in powers], dtype=float)


def delta_diamond(gateset: GateSet, seed: int = 0) -> DeltaBound:
    """Half the average diamond distance between each gate's error map and
    the average error map."""
    avg = average_error_map(gateset)
    brackets = np.array([diamond_bracket(m, avg, seed=seed + i) for i, m in enumerate(error_maps(gateset))])
    return DeltaBound(per_gate_distances=brackets[:, 0], per_gate_upper=brackets[:, 1])
