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
