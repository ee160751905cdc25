import os
from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest

from rblab import (
    CoherentZ,
    GateIndependent,
    GeneralPrimitive,
    Perfect,
    agi,
    build_gateset,
    compile_cliffords,
    gauge,
    generate_clifford_group,
    sequence_survivals,
)
from rblab.superop import PAULI_BASIS, STRUCTURAL_TOL


def _reference_survivals(gateset, sequences):
    """Survival of each row of an (n, m) index batch completed by its
    inversion, from the gateset's state to its effect: the batched fold and
    matmul step loop written out on its own, as an independent check of the
    `rblab.protocol` sequence engine."""
    group = gateset.ideal
    ptms = gateset.ptms
    products = sequences[:, 0].copy()
    for t in range(1, sequences.shape[1]):
        products = group.cayley[sequences[:, t], products]
    inversions = group.inverse[products]
    states = np.broadcast_to(gateset.spam.state, (len(sequences), 4)).copy()
    for t in range(sequences.shape[1]):
        states = np.matmul(ptms[sequences[:, t]], states[:, :, None])[:, :, 0]
    states = np.matmul(ptms[inversions], states[:, :, None])[:, :, 0]
    return states @ gateset.spam.effect


@pytest.fixture(scope="session")
def reference_survivals():
    return _reference_survivals


@contextmanager
def _one_cpu():
    """Pin this process to its lowest usable CPU, so that
    `rblab.protocol._fork_map` runs in-process, and restore the set after."""
    usable = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(usable)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, usable)


@pytest.fixture(scope="session")
def one_cpu():
    return _one_cpu


def _agi_haar_oracle(g_tilde, g, n_samples=100_000, seed=0, with_stderr=False):
    """Monte Carlo estimate of 1 - int dpsi Tr(g_tilde[psi] g[psi]) over
    Haar-random pure states, as an independent check of `rblab.superop.agi`.
    Converges to agi() at rate O(1/sqrt(n_samples)) for unitary targets.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    total = 0.0
    total_sq = 0.0
    remaining = n_samples
    while remaining > 0:
        n = min(remaining, 1 << 17)
        z = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        coeffs = np.einsum("ni,jik,nk->nj", z.conj(), PAULI_BASIS, z).real
        fvals = np.einsum("nj,nj->n", coeffs @ g_tilde.T, coeffs @ g.T)
        total += float(fvals.sum())
        total_sq += float((fvals * fvals).sum())
        remaining -= n
    mean_f = total / n_samples
    estimate = 1.0 - mean_f
    if not with_stderr:
        return estimate
    var = max(total_sq / n_samples - mean_f * mean_f, 0.0)
    stderr = np.sqrt(var / n_samples)
    return estimate, stderr


@pytest.fixture(scope="session")
def agi_haar_oracle():
    return _agi_haar_oracle


def _brute_force_pm(gateset, m=1):
    """Average survival at length m over all |C|**m sequences, enumerated
    and run through `rblab.protocol.sequence_survivals`: ground truth for
    small m, as a check of the exact and sampled decays."""
    if m > 3:
        raise ValueError("brute force enumeration is capped at m = 3")
    sequences = np.array(list(product(range(len(gateset.ideal)), repeat=m)), dtype=np.intp)
    return float(np.mean(sequence_survivals(gateset, [sequences])[0]))


@pytest.fixture(scope="session")
def brute_force_pm():
    return _brute_force_pm


def _transform_channel(transform, channel):
    """One channel conjugated by a `GaugeTransform`, M S M^-1, as a per-gate
    check of `GaugeTransform.transform_gateset`."""
    return transform.m @ channel @ transform.m_inv


@pytest.fixture(scope="session")
def transform_channel():
    return _transform_channel


def _agsi(imperfect, ideal):
    """Average gateset infidelity as the mean `agi` of each gate to its
    target, one channel at a time, as a check of the stacked scorer
    `rblab.gauge.infidelity_and_min_choi`."""
    imperfect = list(imperfect)
    ideal = list(ideal)
    if len(imperfect) != len(ideal):
        raise ValueError("gatesets must have the same size")
    return float(np.mean([agi(t, i) for t, i in zip(imperfect, ideal)]))


@pytest.fixture(scope="session")
def agsi():
    return _agsi


def _coeffs_of_operator(op, what):
    """Real Pauli-basis coefficients Tr[P_j op] of a Hermitian 2x2 operator."""
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"{what} must be 2x2 (dimension 2), got shape {op.shape}")
    coeffs = np.einsum("jab,ba->j", PAULI_BASIS, op)
    if np.max(np.abs(coeffs.imag)) > STRUCTURAL_TOL:
        raise ValueError(f"{what} is not Hermitian")
    return coeffs.real


@pytest.fixture(scope="session")
def state_from_density_matrix():
    """The Pauli coefficient vector of a state, a `Spam.state`, from its 2x2
    density matrix."""
    return lambda rho: _coeffs_of_operator(rho, "density matrix")


@pytest.fixture(scope="session")
def effect_from_operator():
    """The Pauli coefficient vector of an effect, a `Spam.effect`, from its
    2x2 operator."""
    return lambda op: _coeffs_of_operator(op, "effect operator")


def _reference_ptm_to_choi():
    """16x16 map from flattened one-qubit PTMs to flattened Choi matrices,
    built column by column from the action of each unit-entry PTM on the
    matrix units B_ik, as an independent check of `rblab.superop.PTM_TO_CHOI`."""
    basis = PAULI_BASIS
    columns = []
    for index in range(16):
        ptm = np.zeros((4, 4))
        ptm.flat[index] = 1.0
        # coefficient of B_ik in front of basis element j: Tr[P_j B_ik] = P_j[k, i]
        out_coeffs = np.einsum("aj,jik->aik", ptm, basis.transpose(0, 2, 1))
        action = np.einsum("aik,apq->pqik", out_coeffs, basis)  # <p| S(B_ik) |q>
        chi = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for k in range(2):
                chi[2 * i:2 * i + 2, 2 * k:2 * k + 2] = action[:, :, i, k]
        columns.append(chi.reshape(-1))
    return np.array(columns).T


@pytest.fixture(scope="session")
def reference_ptm_to_choi():
    return _reference_ptm_to_choi()


def _reference_primed_l_map(gateset):
    """16x16 matrix of E -> avg_i[C~_i E C_i^{-1}] on column-stacked PTMs,
    summed term by term as kron(C_i^{-T}, C~_i), as an independent check of
    the permutation of `rblab.theory.build_l_map` that `wallman_gauge` uses."""
    group = gateset.ideal
    out = np.zeros((16, 16))
    for i in range(len(group)):
        out += np.kron(group.ptms[group.inverse[i]].T, gateset.ptms[i])
    return out / len(group)


@pytest.fixture(scope="session")
def reference_primed_l_map():
    return _reference_primed_l_map


def _reference_objective(params, tilde, ideal_inv):
    """The search objective from the full spectrum of all 24 Choi matrices:
    `rblab.gauge._evaluate`'s epsilon plus `_CP_PENALTY` times the square of
    its smallest eigenvalue when that is negative, and 1e6 where the gauge
    cannot be inverted, as a check of the Cholesky-gated
    `rblab.gauge._objective`."""
    evaluated = gauge._evaluate(params, tilde, ideal_inv)
    if evaluated is None:
        return 1e6
    eps, min_eig = evaluated
    violation = min(min_eig, 0.0)
    return eps + gauge._CP_PENALTY * violation * violation


@pytest.fixture(scope="session")
def reference_objective():
    return _reference_objective


@pytest.fixture(scope="session")
def group():
    return generate_clifford_group()


@pytest.fixture(scope="session")
def table(group):
    return compile_cliffords(group)


@pytest.fixture(scope="session")
def perfect_gateset(group, table):
    return build_gateset(Perfect(), group, table)


@pytest.fixture(scope="session")
def coherent_gateset(group, table):
    return build_gateset(CoherentZ(0.1), group, table)


@pytest.fixture(scope="session")
def depolarizing_gateset(group, table):
    return build_gateset(GateIndependent.depolarizing(0.99), group, table)


@pytest.fixture(scope="session")
def general_gateset(group, table):
    model = GeneralPrimitive.from_error_vectors(
        (0.001, 0.005, 0.1), (0.004, 0.003, 0.1), 1.0 - 5e-5
    )
    return build_gateset(model, group, table)


def make_random_models(n=5, seed=424242):
    """Seeded random primitive error models mixing coherent and stochastic parts."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    models = []
    for _ in range(n):
        axis_x = rng.standard_normal(3)
        axis_y = rng.standard_normal(3)
        theta_x = rng.uniform(0.02, 0.12)
        theta_y = rng.uniform(0.02, 0.12)
        lam = 1.0 - 10 ** rng.uniform(-5.0, -3.0)
        models.append(
            GeneralPrimitive.from_error_vectors(theta_x * axis_x / np.linalg.norm(axis_x),
                                                theta_y * axis_y / np.linalg.norm(axis_y),
                                                lam)
        )
    return models


@pytest.fixture(scope="session")
def random_gatesets(group, table):
    return [build_gateset(m, group, table) for m in make_random_models()]
