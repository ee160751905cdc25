import numpy as np
import pytest

from rblab import (
    GaugeTransform,
    Spam,
    Superoperator,
    agi,
    agsi,
    agsi_of,
    build_l_map,
    choi_eigenvalues,
    circuit_survivals,
    counterexample_epsilon_min,
    depolarizing_channel,
    epsilon_min_search,
    gamma_and_r_gamma,
    m_alpha,
    wallman_gauge,
)
from rblab.clifford import error_maps
from rblab.superop import rotation_channel


def test_gauge_transform_validation():
    with pytest.raises(ValueError, match="first row"):
        GaugeTransform(np.diag([2.0, 1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="singular"):
        m = np.eye(4)
        m[2] = 0.0
        GaugeTransform(m)
    assert np.allclose(GaugeTransform(np.eye(4)).m, np.eye(4))


def test_identity_gauge_is_a_no_op(coherent_gateset):
    transformed = GaugeTransform(np.eye(4)).transform_gateset(coherent_gateset)
    for a, b in zip(transformed.imperfect, coherent_gateset.imperfect):
        assert np.array_equal(a.ptm, b.ptm)


def test_gauge_preserves_circuit_probabilities(coherent_gateset):
    rng = np.random.default_rng(31)
    spam = Spam.ideal()
    ptms = coherent_gateset.imperfect_stack()
    worst = 0.0
    for trial in range(10):
        transform = GaugeTransform.random_tp(seed=trial, scale=0.4)
        transformed_ptms = transform.transform_gateset(coherent_gateset).imperfect_stack()
        spam_t = transform.transform_spam(spam)
        for _ in range(100):
            circuit = rng.integers(0, 24, size=(1, rng.integers(1, 6)))
            p = circuit_survivals(ptms, circuit, spam)[0]
            q = circuit_survivals(transformed_ptms, circuit, spam_t)[0]
            worst = max(worst, abs(p - q))
    assert worst < 1e-10


def test_gauge_changes_epsilon_but_not_spectrum(coherent_gateset):
    base_spectrum = np.linalg.eigvals(build_l_map(coherent_gateset))
    base_epsilon = agsi_of(coherent_gateset)
    strong = GaugeTransform(rotation_channel(np.array([0.0, 1.0, 0.0]), 0.9).ptm)
    transformed = strong.transform_gateset(coherent_gateset)
    new_spectrum = np.linalg.eigvals(build_l_map(transformed))
    assert _multiset_distance(base_spectrum, new_spectrum) < 1e-9
    assert agsi_of(transformed) / base_epsilon > 10.0


def _multiset_distance(a, b):
    a = sorted(a, key=lambda z: (round(z.real, 7), round(z.imag, 7)))
    remaining = list(b)
    worst = 0.0
    for z in a:
        distances = [abs(z - w) for w in remaining]
        best = int(np.argmin(distances))
        worst = max(worst, distances[best])
        remaining.pop(best)
    return worst


def test_same_transform_on_both_gatesets_preserves_epsilon(coherent_gateset):
    transform = GaugeTransform.random_tp(seed=5, scale=0.3)
    tilde = [transform.transform_channel(c) for c in coherent_gateset.imperfect]
    ideal = [transform.transform_channel(c) for c in coherent_gateset.ideal.elements]
    before = agsi_of(coherent_gateset)
    after = agsi(tilde, ideal)
    assert abs(before - after) < 1e-12


def test_unitary_gauge_gives_perfect_cliffords_nonzero_epsilon(perfect_gateset):
    unitary = GaugeTransform(rotation_channel(np.array([0.0, 0.0, 1.0]), 0.7).ptm)
    transformed = unitary.transform_gateset(perfect_gateset)
    assert agsi_of(perfect_gateset) == 0.0
    assert agsi_of(transformed) > 1e-3


def test_m_alpha_properties():
    assert np.allclose(m_alpha(1.0).m, np.eye(4))
    assert np.allclose(m_alpha(1.3).m, np.diag([1.0, 1.0, 1.3, 1.0]))
    with pytest.raises(ValueError, match="positive"):
        m_alpha(0.0)
    dep = depolarizing_channel(0.97)
    assert np.allclose(m_alpha(1.3).transform_channel(dep).ptm, dep.ptm, atol=1e-12)


def test_m_alpha_error_map_pattern(depolarizing_gateset, group):
    lam, alpha = 0.99, 1.2
    transform = m_alpha(alpha)
    transformed = transform.transform_gateset(depolarizing_gateset)
    for em, ideal in zip(error_maps(transformed), group.elements):
        diag = np.diag(em.ptm)
        y_axis_image = np.abs(ideal.ptm[:, 2]).argmax()
        if y_axis_image == 2:  # Clifford fixes sigma_y up to sign
            assert np.allclose(em.ptm, np.diag([1, lam, lam, lam]), atol=1e-12)
        else:
            assert abs(diag[2] - lam * alpha) < 1e-12
            assert abs(diag[y_axis_image] - lam / alpha) < 1e-12


def test_counterexample_sweep(depolarizing_gateset):
    lam = 0.99
    rows = counterexample_epsilon_min(lam, np.linspace(0.9, 1.1, 81), depolarizing_gateset)
    by_alpha = {round(r.alpha, 10): r for r in rows}
    at_one = by_alpha[1.0]
    assert abs(at_one.epsilon - at_one.r_reference) < 1e-12
    assert abs(at_one.r_reference - 0.005) < 1e-12
    successes = [r for r in rows if r.all_cp and r.epsilon < r.r_reference and abs(r.alpha - 1) > 1e-9]
    assert successes, "no CP representation with epsilon < r found on the grid"
    # far from alpha = 1 the transformed gates must lose complete positivity
    assert not by_alpha[0.9].all_cp
    assert not by_alpha[1.1].all_cp


def test_counterexample_per_gate_formula(depolarizing_gateset, group):
    lam = 0.99
    for alpha in (0.95, 0.9975, 1.0, 1.05):
        transform = m_alpha(alpha)
        formula = (3.0 - lam * (alpha**2 + alpha + 1.0) / alpha) / 6.0
        for tilde, ideal in zip(depolarizing_gateset.imperfect, group.elements):
            value = agi(transform.transform_channel(tilde), ideal)
            fixes_y = abs(ideal.ptm[2, 2]) == 1.0
            expected = (1.0 - lam) / 2.0 if fixes_y else formula
            assert abs(value - expected) < 1e-12


def test_counterexample_choi_eigenvalue_formula(depolarizing_gateset, group):
    lam = 0.99
    moving = next(i for i, e in enumerate(group.elements) if abs(e.ptm[2, 2]) != 1.0)
    for alpha in (0.95, 1.0, 1.08):
        transform = m_alpha(alpha)
        tilde = transform.transform_channel(depolarizing_gateset.imperfect[moving])
        error = Superoperator(tilde.ptm @ np.linalg.inv(group.elements[moving].ptm))
        eigs = np.sort(choi_eigenvalues(error))
        xi = np.sort(
            [
                lam * alpha**2 + (1 + lam) * alpha + lam,
                -lam * alpha**2 + (1 - lam) * alpha + lam,
                lam * alpha**2 + (1 - lam) * alpha - lam,
                -lam * alpha**2 + (1 + lam) * alpha - lam,
            ]
        )
        # same signs, one global positive scale; at alpha = 1 the scale is 2
        assert np.allclose(np.sign(np.round(eigs, 14)), np.sign(np.round(xi, 14)))
        scale = xi[-1] / eigs[-1]
        assert scale > 0
        assert np.allclose(eigs * scale, xi, atol=1e-10)
        if alpha == 1.0:
            assert abs(scale - 2.0) < 1e-12


def test_epsilon_min_search_perfect(perfect_gateset):
    result = epsilon_min_search(perfect_gateset, restarts=2, seed=3)
    assert abs(result.epsilon_min_estimate) < 1e-10
    assert result.all_cp


def test_epsilon_min_search_beats_r(depolarizing_gateset):
    result = epsilon_min_search(depolarizing_gateset, restarts=4, seed=5)
    assert result.all_cp
    assert result.epsilon_min_estimate < 0.005
    # never worse than the input representation
    assert result.epsilon_min_estimate <= agsi_of(depolarizing_gateset) + 1e-12


def test_epsilon_min_search_monotone_in_restarts(depolarizing_gateset):
    few = epsilon_min_search(depolarizing_gateset, restarts=2, seed=5)
    more = epsilon_min_search(depolarizing_gateset, restarts=5, seed=5)
    assert more.epsilon_min_estimate <= few.epsilon_min_estimate + 1e-15


def test_wallman_gauge_gate_independent(depolarizing_gateset):
    lam = 0.99
    # the error channel itself solves the defining equation
    l_primed = build_l_map(depolarizing_gateset, primed=True)
    from rblab.superop import unvec, vec

    candidate = depolarizing_channel(lam).ptm
    residual = unvec(l_primed @ vec(candidate)) - candidate @ depolarizing_channel(lam).ptm
    assert np.max(np.abs(residual)) < 1e-12

    result = wallman_gauge(depolarizing_gateset)
    assert result.residual < 1e-8
    assert abs(result.gamma - lam) < 1e-10
    assert abs(result.epsilon_in_gauge - result.r_gamma) < 1e-8
    assert result.null_space_dim >= 1


def test_wallman_gauge_epsilon_equals_r_gamma(coherent_gateset, general_gateset, random_gatesets):
    for gateset in [coherent_gateset, general_gateset, *random_gatesets[:2]]:
        result = wallman_gauge(gateset)
        assert result.residual < 1e-8
        assert abs(result.epsilon_in_gauge - result.r_gamma) < 1e-8
        expected = gamma_and_r_gamma(build_l_map(gateset)).r_gamma
        assert abs(result.r_gamma - expected) < 1e-12


def test_wallman_gauge_reports_cp_violation(coherent_gateset):
    result = wallman_gauge(coherent_gateset)
    assert np.isfinite(result.min_choi_eigenvalue)
    # for purely coherent errors this representation is not completely positive
    assert result.min_choi_eigenvalue < 0.0
