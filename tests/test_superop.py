import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import rblab.superop
from rblab import (
    Effect,
    State,
    Superoperator,
    agi,
    choi_eigenvalues,
    depolarizing_channel,
    diamond_bracket,
    diamond_distance,
    is_cp,
    is_tp,
    rotation_channel,
)
from rblab.superop import PAULI_BASIS, PTM_TO_CHOI, unvec, vec

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])
IDENTITY = Superoperator(np.eye(4))
ZERO = Superoperator(np.zeros((4, 4)))


def test_vec_column_stacking_contract():
    rng = np.random.default_rng(0)
    a, x, b = rng.standard_normal((3, 4, 4))
    assert np.allclose(vec(a @ x @ b), np.kron(b.T, a) @ vec(x))
    assert np.allclose(unvec(vec(x)), x)


def test_rotation_zero_angle_is_identity():
    assert np.allclose(rotation_channel(Z_AXIS, 0.0).ptm, np.eye(4), atol=1e-14)


def test_rotation_quarter_turns_compose_to_identity():
    quarter = rotation_channel(Z_AXIS, np.pi / 2)
    assert np.allclose((quarter @ quarter @ quarter @ quarter).ptm, np.eye(4), atol=1e-12)


def test_rotation_ptm_trace_matches_cosine_form():
    for theta in (0.05, 0.37, 1.2, np.pi / 2):
        ptm = rotation_channel(Z_AXIS, theta).ptm
        assert abs(np.trace(ptm) - (2.0 + 2.0 * np.cos(theta))) < 1e-12


def test_rotation_inverse_composes_to_identity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        theta = rng.uniform(0, 2 * np.pi)
        prod = rotation_channel(axis, theta) @ rotation_channel(axis, -theta)
        assert np.max(np.abs(prod.ptm - np.eye(4))) < 1e-12


def test_rotation_rejects_non_unit_axis():
    with pytest.raises(ValueError, match="unit vector"):
        rotation_channel(np.array([1.0, 1.0, 0.0]), 0.3)


def test_depolarizing_ptm_and_edge_cases():
    assert np.allclose(depolarizing_channel(1.0).ptm, np.eye(4))
    assert np.allclose(depolarizing_channel(0.9).ptm, np.diag([1.0, 0.9, 0.9, 0.9]))
    assert abs(agi(depolarizing_channel(0.99), IDENTITY) - 0.005) < 1e-14
    # CP boundary: minimal Choi eigenvalue hits zero at lam = -1/3
    boundary = depolarizing_channel(-1.0 / 3.0)
    assert abs(choi_eigenvalues(boundary)[0]) < 1e-12


def test_depolarizing_rejects_non_cp_range():
    with pytest.raises(ValueError, match="Choi"):
        depolarizing_channel(1.5)
    with pytest.raises(ValueError, match="Choi"):
        depolarizing_channel(-0.4)


def test_born_rule_basics():
    state = State.z_plus()
    effect = Effect.z_plus()
    assert abs(effect.coeffs @ IDENTITY.ptm @ state.coeffs - 1.0) < 1e-15
    assert abs(effect.coeffs @ rotation_channel(X_AXIS, np.pi).ptm @ state.coeffs) < 1e-14
    for lam in (0.0, 0.5, 0.73, 1.0):
        expected = (1.0 + lam) / 2.0
        assert abs(effect.coeffs @ depolarizing_channel(lam).ptm @ state.coeffs - expected) < 1e-14


def test_compose_is_associative_and_checks_dimensions():
    rng = np.random.default_rng(3)
    a, b, c = (Superoperator(rng.standard_normal((4, 4))) for _ in range(3))
    left = (a @ b) @ c
    right = a @ (b @ c)
    assert np.allclose(left.ptm, right.ptm, atol=1e-12)
    with pytest.raises(ValueError, match="dimension"):
        a @ Superoperator(np.eye(16))


def test_state_and_effect_validation():
    with pytest.raises(ValueError, match="unit trace"):
        State(np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="Bloch"):
        State(np.array([1.0, 1.0, 1.0, 1.0]) / np.sqrt(2.0))
    with pytest.raises(ValueError, match="eigenvalues"):
        Effect(np.array([2.0, 0.0, 0.0, 0.0]))
    rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    assert np.allclose(State.from_density_matrix(rho).coeffs, State.z_plus().coeffs)
    assert np.allclose(Effect.from_operator(rho).coeffs, Effect.z_plus().coeffs)


def test_one_qubit_shapes_are_enforced():
    with pytest.raises(ValueError):
        Superoperator(np.eye(9))
    with pytest.raises(ValueError):
        State(np.zeros(9), validate=False)
    with pytest.raises(ValueError):
        Effect(np.full(9, 0.1))
    with pytest.raises(ValueError):
        State.from_density_matrix(np.eye(3) / 3)


def test_choi_of_identity_and_depolarizing():
    assert np.allclose(choi_eigenvalues(IDENTITY), [0.0, 0.0, 0.0, 2.0], atol=1e-12)
    assert choi_eigenvalues(depolarizing_channel(0.99)).min() >= -1e-12
    # trace of the Choi matrix equals d for TP maps
    from rblab import to_choi

    for ch in (IDENTITY, depolarizing_channel(0.7), rotation_channel(Y_AXIS, 0.4)):
        assert abs(np.trace(to_choi(ch)) - 2.0) < 1e-12


def test_ptm_to_choi_matches_matrix_unit_construction(reference_ptm_to_choi):
    assert np.array_equal(PTM_TO_CHOI, reference_ptm_to_choi)


def test_cp_tp_predicates():
    rot = rotation_channel(Y_AXIS, 1.1)
    assert is_cp(rot) and is_tp(rot)
    # unital: first column e0; unitary: orthogonal PTM
    assert np.max(np.abs(rot.ptm[:, 0] - [1.0, 0.0, 0.0, 0.0])) <= 1e-9
    assert np.max(np.abs(rot.ptm.T @ rot.ptm - np.eye(4))) <= 1e-9
    too_strong = Superoperator(np.diag([1.0, 1.5, 1.5, 1.5]))
    assert not is_cp(too_strong)
    assert is_tp(too_strong)
    leaky = Superoperator(np.diag([0.9, 0.5, 0.5, 0.5]))
    assert not is_tp(leaky)
    dep = depolarizing_channel(0.9).ptm
    assert np.max(np.abs(dep.T @ dep - np.eye(4))) > 1e-9


def test_agi_trace_formula_values():
    target = rotation_channel(Y_AXIS, np.pi / 2)
    assert abs(agi(target, target)) < 1e-14
    assert abs(agi(depolarizing_channel(0.99) @ target, target) - 0.005) < 1e-14
    theta = 0.1
    expected = (2.0 - 2.0 * np.cos(theta)) / 6.0
    assert abs(agi(rotation_channel(Z_AXIS, theta) @ target, target) - expected) < 1e-14
    with pytest.raises(ValueError, match="singular"):
        agi(IDENTITY, ZERO)


def test_haar_oracle_matches_trace_formula(agi_haar_oracle):
    est, err = agi_haar_oracle(IDENTITY, IDENTITY, 10_000, seed=1, with_stderr=True)
    assert est == 0.0 and err == 0.0
    est, err = agi_haar_oracle(depolarizing_channel(0.99), IDENTITY, 400_000, seed=2, with_stderr=True)
    assert abs(est - 0.005) < 3 * err + 1e-12
    target = IDENTITY
    noisy = rotation_channel(Z_AXIS, 0.1)
    est, err = agi_haar_oracle(noisy, target, 400_000, seed=3, with_stderr=True)
    assert abs(est - agi(noisy, target)) < 3 * err


def test_haar_oracle_agrees_for_random_tp_maps(agi_haar_oracle):
    rng = np.random.default_rng(99)
    failures = 0
    for trial in range(100):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        target = rotation_channel(axis, rng.uniform(0, 2 * np.pi))
        noise = np.eye(4)
        noise[1:, :] += 0.05 * rng.standard_normal((3, 4))
        noisy = Superoperator(noise) @ target
        est, err = agi_haar_oracle(noisy, target, 20_000, seed=1000 + trial, with_stderr=True)
        if abs(est - agi(noisy, target)) > 3 * err:
            failures += 1
    # 3 sigma bands: a couple of statistical misses in 100 trials are expected
    assert failures <= 3


# --------------------------------------------------------------------------
# Diamond distance
# --------------------------------------------------------------------------


_ORACLE_PAULIS = np.stack(
    [
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
) / np.sqrt(2.0)


def _oracle_trace_norm(ptm_delta: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """||(Delta (x) Id)(|psi><psi|)||_1 built from scratch (independent of
    the library's internals): expand the first factor of rho in Paulis."""
    psi_mat = psis.reshape(-1, 2, 2)
    # coefficient of normalized Pauli c in the first factor of |psi><psi|
    coeff = np.einsum("cik,nij,nkl->ncjl", _ORACLE_PAULIS.conj().transpose(0, 2, 1), psi_mat, psi_mat.conj())
    out = np.einsum("rc,rik,ncjl->nijkl", ptm_delta, _ORACLE_PAULIS, coeff, optimize=True)
    out = out.reshape(-1, 4, 4)
    out = 0.5 * (out + out.conj().transpose(0, 2, 1))
    return np.abs(np.linalg.eigvalsh(out)).sum(axis=1)


def _grid_states(center: np.ndarray, spread: float, points: int) -> np.ndarray:
    """Hyperspherical grid over pure states in C^4 around a center point."""
    grids = [np.linspace(c - spread, c + spread, points) for c in center]
    mesh = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, 6)
    t1, t2, t3, p1, p2, p3 = (mesh[:, k] for k in range(6))
    psi = np.stack(
        [
            np.cos(t1),
            np.sin(t1) * np.cos(t2) * np.exp(1j * p1),
            np.sin(t1) * np.sin(t2) * np.cos(t3) * np.exp(1j * p2),
            np.sin(t1) * np.sin(t2) * np.sin(t3) * np.exp(1j * p3),
        ],
        axis=1,
    )
    return psi


def _grid_oracle_diamond(a: Superoperator, b: Superoperator) -> float:
    """Brute-force zooming grid search over the 6-parameter pure-state manifold."""
    delta = a.ptm - b.ptm
    center = np.array([np.pi / 4, np.pi / 4, np.pi / 4, 0.0, 0.0, 0.0])
    spread = np.pi / 2
    best = -np.inf
    for _ in range(6):
        psis = _grid_states(center, spread, 7)
        values = _oracle_trace_norm(delta, psis)
        top = int(np.argmax(values))
        best = max(best, float(values[top]))
        # recover the parameter point of the best state and zoom in
        grids = [np.linspace(c - spread, c + spread, 7) for c in center]
        idx = np.unravel_index(top, (7,) * 6)
        center = np.array([grids[k][idx[k]] for k in range(6)])
        spread *= 0.35
    return best


def test_diamond_distance_trivial_cases():
    rot = rotation_channel(Y_AXIS, np.pi / 2)
    assert diamond_distance(rot, rot) == 0.0
    assert abs(diamond_distance(rot, ZERO) - 1.0) < 1e-6
    assert abs(diamond_distance(depolarizing_channel(0.95), ZERO) - 1.0) < 1e-6


def test_diamond_distance_matches_grid_oracle():
    a = depolarizing_channel(0.9)
    b = IDENTITY
    oracle = _grid_oracle_diamond(a, b)
    value = diamond_distance(a, b)
    assert abs(value - oracle) < 1e-4
    # a coherent difference as well
    c = rotation_channel(Z_AXIS, 0.2)
    oracle = _grid_oracle_diamond(c, b)
    value = diamond_distance(c, b)
    assert abs(value - oracle) < 1e-4


def test_diamond_distance_deterministic():
    a = rotation_channel(Z_AXIS, 0.15) @ depolarizing_channel(0.995)
    assert diamond_distance(a, IDENTITY, seed=9) == diamond_distance(
        a, IDENTITY, seed=9
    )


def _random_cptp(rng) -> Superoperator:
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    rot = rotation_channel(axis, rng.uniform(0, np.pi))
    return depolarizing_channel(rng.uniform(0.9, 1.0)) @ rot


def test_diamond_submultiplicativity():
    rng = np.random.default_rng(17)
    for trial in range(5):
        a = _random_cptp(rng)
        b = _random_cptp(rng)
        prod_norm = diamond_distance(a @ b, ZERO, seed=trial)
        norm_a = diamond_distance(a, ZERO, seed=trial + 100)
        norm_b = diamond_distance(b, ZERO, seed=trial + 200)
        assert prod_norm <= norm_a * norm_b + 1e-6


def test_diamond_measurement_bound():
    rng = np.random.default_rng(23)
    state = State.z_plus()
    effect = Effect.z_plus()
    for trial in range(5):
        a = _random_cptp(rng)
        b = _random_cptp(rng)
        lhs = 2.0 * abs(
            effect.coeffs @ a.ptm @ state.coeffs - effect.coeffs @ b.ptm @ state.coeffs
        )
        assert lhs <= diamond_distance(a, b, seed=trial) + 1e-6


def test_diamond_bracket_polishes_amplitude_damping(monkeypatch):
    gamma = 0.3
    damping = Superoperator(
        [[1, 0, 0, 0], [0, np.sqrt(1 - gamma), 0, 0], [0, 0, np.sqrt(1 - gamma), 0], [gamma, 0, 0, 1 - gamma]]
    )
    searches = []
    minimize = rblab.superop.optimize.minimize

    def spy(*args, **kwargs):
        searches.append(args)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(rblab.superop.optimize, "minimize", spy)
    lower, upper = diamond_bracket(damping, IDENTITY)
    assert len(searches) == 1, "a non-unital difference should take the polish path"
    oracle = _grid_oracle_diamond(damping, IDENTITY)
    assert abs(lower - oracle) < 1e-4
    assert upper >= oracle - 1e-12


def _channel_from_kraus(kraus) -> Superoperator:
    basis = PAULI_BASIS
    ptm = sum(np.einsum("iab,bc,jcd,da->ij", basis, k, basis, k.conj().T) for k in kraus)
    return Superoperator(ptm.real)


@st.composite
def _kraus_channels(draw):
    """CPTP maps from two Kraus operators G_i M^(-1/2), M = sum G_i^dag G_i;
    generically not unital."""
    parts = draw(arrays(np.float64, (2, 2, 2, 2), elements=st.floats(-1.0, 1.0)))
    g = parts[..., 0] + 1j * parts[..., 1]
    w, v = np.linalg.eigh(sum(k.conj().T @ k for k in g))
    assume(w[0] > 1e-2)
    return _channel_from_kraus(g @ ((v / np.sqrt(w)) @ v.conj().T))


@st.composite
def _unital_channels(draw):
    """Mixtures of two rotation channels."""
    axes = draw(arrays(np.float64, (2, 3), elements=st.floats(-1.0, 1.0)))
    assume(np.all(np.linalg.norm(axes, axis=1) > 1e-3))
    angles = draw(arrays(np.float64, 2, elements=st.floats(0.0, 2.0 * np.pi)))
    weight = draw(st.floats(0.0, 1.0))
    a, b = (rotation_channel(axis / np.linalg.norm(axis), angle) for axis, angle in zip(axes, angles))
    return Superoperator(weight * a.ptm + (1 - weight) * b.ptm)


_CHANNELS = st.one_of(_kraus_channels(), _unital_channels())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(a=_CHANNELS, b=_CHANNELS)
def test_diamond_bracket_properties(a, b):
    lower, upper = diamond_bracket(a, b)
    assert lower <= upper + 1e-12
    state, effect = State.z_plus(), Effect.z_plus()
    measured = 2.0 * abs(effect.coeffs @ a.ptm @ state.coeffs - effect.coeffs @ b.ptm @ state.coeffs)
    assert lower >= measured - 1e-12
    swapped_lower, swapped_upper = diamond_bracket(b, a)
    scale = max(1.0, upper)
    assert abs(swapped_upper - upper) <= 1e-12 * scale
    # the two orders polish from the same start with the same seed, but their
    # rounding differs, so the searches may stop at slightly different points
    assert abs(swapped_lower - lower) <= 1e-10 * scale
