import numpy as np
import pytest

from rblab import (
    CoherentZ,
    GateIndependent,
    GeneralPrimitive,
    Perfect,
    Spam,
    build_gateset,
    compile_cliffords,
    generate_clifford_group,
)
from rblab.superop import PAULI_BASIS


def _reference_survivals(gateset, sequences, spam=None):
    """Survival of each row of an (n, m) index batch completed by its
    inversion: the batched fold and matmul step loop written out on its own,
    as an independent check of the `rblab.protocol` sequence engine."""
    spam = spam if spam is not None else Spam.ideal()
    group = gateset.ideal
    ptms = gateset.imperfect_stack()
    products = sequences[:, 0].copy()
    for t in range(1, sequences.shape[1]):
        products = group.cayley[sequences[:, t], products]
    inversions = group.inverse[products]
    states = np.broadcast_to(spam.state.coeffs, (len(sequences), 4)).copy()
    for t in range(sequences.shape[1]):
        states = np.matmul(ptms[sequences[:, t]], states[:, :, None])[:, :, 0]
    states = np.matmul(ptms[inversions], states[:, :, None])[:, :, 0]
    return states @ spam.effect.coeffs


@pytest.fixture(scope="session")
def reference_survivals():
    return _reference_survivals


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
        fvals = np.einsum("nj,nj->n", coeffs @ g_tilde.ptm.T, coeffs @ g.ptm.T)
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
