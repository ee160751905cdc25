import multiprocessing
import warnings
from dataclasses import fields

import numpy as np
import pytest

from rblab import (
    CoherentZ,
    CounterexampleRow,
    EpsilonMinResult,
    GatesetTheory,
    GaugeTransform,
    WallmanGauge,
    agi,
    agsi_of,
    build_gateset,
    build_l_map,
    choi_eigenvalues,
    counterexample_epsilon_min,
    depolarizing_channel,
    exact_decay,
    infidelity_and_min_choi,
    epsilon_min_search,
    gamma_and_r_gamma,
    m_alpha,
    sequence_survivals,
    wallman_gauge,
)
from rblab import gauge
from rblab.clifford import error_maps
from rblab.protocol import _fork_workers
from rblab.superop import PTM_TO_CHOI, rotation_channel


def test_gauge_transform_validation():
    with pytest.raises(ValueError, match="first row"):
        GaugeTransform(np.diag([2.0, 1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="singular"):
        m = np.eye(4)
        m[2] = 0.0
        GaugeTransform(m)
    assert np.allclose(GaugeTransform(np.eye(4)).m, np.eye(4))
    for bad in (np.nan, np.inf):
        m = np.eye(4)
        m[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            GaugeTransform(m)
    with pytest.raises(ValueError, match="finite"):
        GaugeTransform.random_tp(seed=0, scale=np.nan)


def test_transform_gateset_equals_per_gate_transform_channel(
    coherent_gateset, general_gateset, random_gatesets, transform_channel
):
    for seed, gateset in enumerate([coherent_gateset, general_gateset, *random_gatesets]):
        transform = GaugeTransform.random_tp(seed=seed, scale=0.3)
        per_gate = [transform_channel(transform, c) for c in gateset.ptms]
        transformed = transform.transform_gateset(gateset)
        assert transformed.ideal is gateset.ideal
        assert np.array_equal(transformed.ptms, per_gate)


def test_scorer_equals_per_gate_definitions(
    perfect_gateset, coherent_gateset, general_gateset, depolarizing_gateset, random_gatesets, agsi
):
    # the stacked scorer keeps agsi's and choi_eigenvalues' bits gate by gate,
    # in the standard representation and in seeded random TP gauges
    gatesets = [perfect_gateset, coherent_gateset, general_gateset, depolarizing_gateset, *random_gatesets]
    for index, gateset in enumerate(gatesets):
        for scale in (0.0, 0.1, 0.4):
            represented = GaugeTransform.random_tp(seed=100 + index, scale=scale).transform_gateset(gateset)
            gates, ideal = represented.ptms, represented.ideal.ptms
            expected = (agsi(gates, ideal), min(float(choi_eigenvalues(c)[0]) for c in gates))
            assert infidelity_and_min_choi(represented) == expected
            assert agsi_of(represented) == expected[0]


def test_identity_gauge_is_a_no_op(coherent_gateset):
    transformed = GaugeTransform(np.eye(4)).transform_gateset(coherent_gateset)
    assert np.array_equal(transformed.ptms, coherent_gateset.ptms)


def test_gauge_preserves_circuit_probabilities(
    coherent_gateset, general_gateset, depolarizing_gateset, random_gatesets
):
    # one `transform_gateset` call moves the gates, the state and the effect
    rng = np.random.default_rng(31)
    lengths = (1, 51, 501, 2001)
    worst_sampled = worst_exact = 0.0
    for gateset in [coherent_gateset, general_gateset, depolarizing_gateset, *random_gatesets]:
        _, exact = exact_decay(gateset, lengths=lengths)
        for trial in range(10):
            transformed = GaugeTransform.random_tp(seed=trial, scale=0.4).transform_gateset(gateset)
            blocks = [rng.integers(0, 24, size=(20, m)) for m in range(1, 6)]
            for p, q in zip(sequence_survivals(gateset, blocks), sequence_survivals(transformed, blocks)):
                worst_sampled = max(worst_sampled, np.max(np.abs(p - q)))
            worst_exact = max(worst_exact, np.max(np.abs(exact_decay(transformed, lengths=lengths)[1] - exact)))
    assert worst_sampled < 1e-10
    assert worst_exact < 1e-10


def test_gauge_changes_epsilon_but_not_spectrum(coherent_gateset):
    base_spectrum = np.linalg.eigvals(build_l_map(coherent_gateset))
    base_epsilon = agsi_of(coherent_gateset)
    strong = GaugeTransform(rotation_channel(np.array([0.0, 1.0, 0.0]), 0.9))
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


def test_same_transform_on_both_gatesets_preserves_epsilon(coherent_gateset, transform_channel, agsi):
    transform = GaugeTransform.random_tp(seed=5, scale=0.3)
    tilde = [transform_channel(transform, c) for c in coherent_gateset.ptms]
    ideal = [transform_channel(transform, c) for c in coherent_gateset.ideal.ptms]
    before = agsi_of(coherent_gateset)
    after = agsi(tilde, ideal)
    assert abs(before - after) < 1e-12


def test_unitary_gauge_gives_perfect_cliffords_nonzero_epsilon(perfect_gateset):
    unitary = GaugeTransform(rotation_channel(np.array([0.0, 0.0, 1.0]), 0.7))
    transformed = unitary.transform_gateset(perfect_gateset)
    assert agsi_of(perfect_gateset) == 0.0
    assert agsi_of(transformed) > 1e-3


def test_m_alpha_properties(transform_channel):
    assert np.allclose(m_alpha(1.0).m, np.eye(4))
    assert np.allclose(m_alpha(1.3).m, np.diag([1.0, 1.0, 1.3, 1.0]))
    with pytest.raises(ValueError, match="positive"):
        m_alpha(0.0)
    dep = depolarizing_channel(0.97)
    assert np.allclose(transform_channel(m_alpha(1.3), dep), dep, atol=1e-12)


def test_m_alpha_error_map_pattern(depolarizing_gateset, group):
    lam, alpha = 0.99, 1.2
    transform = m_alpha(alpha)
    transformed = transform.transform_gateset(depolarizing_gateset)
    for em, ideal in zip(error_maps(transformed), group.ptms):
        diag = np.diag(em)
        y_axis_image = np.abs(ideal[:, 2]).argmax()
        if y_axis_image == 2:  # Clifford fixes sigma_y up to sign
            assert np.allclose(em, np.diag([1, lam, lam, lam]), atol=1e-12)
        else:
            assert abs(diag[2] - lam * alpha) < 1e-12
            assert abs(diag[y_axis_image] - lam / alpha) < 1e-12


def test_counterexample_sweep():
    lam = 0.99
    rows = counterexample_epsilon_min(lam, np.linspace(0.9, 1.1, 81))
    by_alpha = {round(r.alpha, 10): r for r in rows}
    at_one = by_alpha[1.0]
    assert abs(at_one.epsilon - at_one.r_reference) < 1e-12
    assert abs(at_one.r_reference - 0.005) < 1e-12
    successes = [r for r in rows if r.all_cp and r.epsilon < r.r_reference and abs(r.alpha - 1) > 1e-9]
    assert successes, "no CP representation with epsilon < r found on the grid"
    # far from alpha = 1 the transformed gates must lose complete positivity
    assert not by_alpha[0.9].all_cp
    assert not by_alpha[1.1].all_cp


def test_counterexample_per_gate_formula(depolarizing_gateset, group, transform_channel):
    lam = 0.99
    for alpha in (0.95, 0.9975, 1.0, 1.05):
        transform = m_alpha(alpha)
        formula = (3.0 - lam * (alpha**2 + alpha + 1.0) / alpha) / 6.0
        for tilde, ideal in zip(depolarizing_gateset.ptms, group.ptms):
            value = agi(transform_channel(transform, tilde), ideal)
            fixes_y = abs(ideal[2, 2]) == 1.0
            expected = (1.0 - lam) / 2.0 if fixes_y else formula
            assert abs(value - expected) < 1e-12


def test_counterexample_choi_eigenvalue_formula(depolarizing_gateset, group, transform_channel):
    lam = 0.99
    moving = next(i for i, ptm in enumerate(group.ptms) if abs(ptm[2, 2]) != 1.0)
    for alpha in (0.95, 1.0, 1.08):
        transform = m_alpha(alpha)
        tilde = transform_channel(transform, depolarizing_gateset.ptms[moving])
        error = tilde @ np.linalg.inv(group.ptms[moving])
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


def test_gated_objective_equals_the_full_spectrum_one(
    depolarizing_gateset, perfect_gateset, coherent_gateset, group, table, reference_objective, monkeypatch
):
    # at every evaluation of five searches, the Cholesky-gated objective is
    # bitwise the one from all 24 Choi spectra (no tolerance), and warns of
    # no NaN; each search makes the parent's number of evaluations
    searches = {
        "depolarizing, seed 0": (depolarizing_gateset, 0, (0, 1), 11_422),
        "depolarizing, seed 5": (depolarizing_gateset, 5, range(5), 28_492),
        "perfect, seed 3": (perfect_gateset, 3, (0, 1), 7_030),
        "coherent 0.1": (coherent_gateset, 0, (0, 1), 11_539),
        "coherent 0.02": (build_gateset(CoherentZ(0.02), group, table), 0, (0, 1), 11_545),
    }
    gated = gauge._objective
    seen = []

    def checked(params, tilde, ideal_inv):
        value = gated(params, tilde, ideal_inv)
        seen.append(value == reference_objective(params, tilde, ideal_inv))
        return value

    monkeypatch.setattr(gauge, "_objective", checked)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, (gateset, seed, indices, evaluations) in searches.items():
            seen.clear()
            ideal_inv = gateset.ideal.ptms[gateset.ideal.inverse]
            for index in indices:
                gauge._restart(gateset.ptms, ideal_inv, seed, index)
            assert (len(seen), seen.count(False)) == (evaluations, 0), name


def _with_least_choi_eigenvalues(ptms, targets: dict) -> np.ndarray:
    """The PTM stack with the smallest Choi eigenvalue of gate i set to
    targets[i], its eigenvectors and other eigenvalues kept."""
    out = np.array(ptms)
    for i, target in targets.items():
        choi = (PTM_TO_CHOI @ out[i].reshape(16)).reshape(4, 4)
        values, vectors = np.linalg.eigh(0.5 * (choi + choi.conj().T))
        values[0] = target
        choi = (vectors * values) @ vectors.conj().T
        out[i] = np.linalg.solve(PTM_TO_CHOI, choi.reshape(16)).real.reshape(4, 4)
    return out


@pytest.mark.parametrize("target", [1e-6, -1e-6, 1e-9, -1e-9, 1e-15, -1e-15, 0.0])
def test_gated_objective_on_stacks_near_the_cp_boundary(depolarizing_gateset, reference_objective, target):
    # every Choi matrix of the depolarizing gateset is positive definite; one,
    # two or all 24 get the least eigenvalue `target` (0: rank-deficient PSD),
    # the second of two a deeper one, so the least over the failed matrices
    # is not the first failed one
    ideal_inv = depolarizing_gateset.ideal.ptms[depolarizing_gateset.ideal.inverse]
    params = np.zeros(12)
    for targets in ({5: target}, {5: target, 17: 2 * target}, dict.fromkeys(range(24), target)):
        tilde = _with_least_choi_eigenvalues(depolarizing_gateset.ptms, targets)
        expected = reference_objective(params, tilde, ideal_inv)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gauge._objective(params, tilde, ideal_inv) == expected, targets
        if target <= -1e-9:  # the penalty shows
            assert expected > gauge._evaluate(params, tilde, ideal_inv)[0]


def _same_search(a, b) -> bool:
    return (
        np.array_equal(a.transform.m, b.transform.m)
        and a.epsilon_min_estimate == b.epsilon_min_estimate
        and a.min_choi_eigenvalue == b.min_choi_eigenvalue
        and a.all_cp == b.all_cp
    )


@pytest.mark.parametrize("restarts", [1, 2, 5])
def test_epsilon_min_search_does_not_depend_on_the_worker_count(depolarizing_gateset, one_cpu, restarts):
    pooled = epsilon_min_search(depolarizing_gateset, restarts=restarts, seed=7)
    with one_cpu():
        assert _fork_workers(restarts) == 1
        serial = epsilon_min_search(depolarizing_gateset, restarts=restarts, seed=7)
    assert _same_search(pooled, serial)


def test_epsilon_min_search_leaves_no_worker_running(perfect_gateset):
    epsilon_min_search(perfect_gateset, restarts=2, seed=3)
    assert multiprocessing.active_children() == []


def test_epsilon_min_search_in_a_daemonic_process(perfect_gateset):
    # a multiprocessing.Pool worker is daemonic and may start no children
    with multiprocessing.get_context("fork").Pool(1) as pool:  # terminated on exit
        result = pool.apply_async(epsilon_min_search, (perfect_gateset, 2, 3)).get(timeout=120)
    assert _same_search(result, epsilon_min_search(perfect_gateset, restarts=2, seed=3))


def test_wallman_gauge_gate_independent(depolarizing_gateset, reference_primed_l_map):
    lam = 0.99
    # the error channel itself solves the defining equation
    l_primed = reference_primed_l_map(depolarizing_gateset)
    from rblab.superop import unvec, vec

    candidate = depolarizing_channel(lam)
    residual = unvec(l_primed @ vec(candidate)) - candidate @ depolarizing_channel(lam)
    assert np.max(np.abs(residual)) < 1e-12

    analysis = GatesetTheory(depolarizing_gateset)
    result = wallman_gauge(analysis)
    assert result.residual < 1e-8
    assert abs(analysis.gamma - lam) < 1e-10
    assert abs(result.epsilon_in_gauge - analysis.r_gamma) < 1e-8
    assert result.null_space_dim >= 1


def test_wallman_gauge_epsilon_equals_r_gamma(coherent_gateset, general_gateset, random_gatesets):
    for gateset in [coherent_gateset, general_gateset, *random_gatesets[:2]]:
        analysis = GatesetTheory(gateset)
        result = wallman_gauge(analysis)
        assert result.residual < 1e-8
        assert abs(result.epsilon_in_gauge - analysis.r_gamma) < 1e-8
        _, expected = gamma_and_r_gamma(build_l_map(gateset))
        assert abs(analysis.r_gamma - expected) < 1e-12


def test_wallman_gauge_reports_cp_violation(coherent_gateset):
    result = wallman_gauge(GatesetTheory(coherent_gateset))
    assert np.isfinite(result.min_choi_eigenvalue)
    # for purely coherent errors this representation is not completely positive
    assert result.min_choi_eigenvalue < 0.0


def test_result_records_take_only_their_inputs():
    init = {record: [f.name for f in fields(record) if f.init] for record in (CounterexampleRow, EpsilonMinResult, WallmanGauge)}
    assert init == {
        CounterexampleRow: ["alpha", "epsilon", "min_choi_eigenvalue", "r_reference"],
        EpsilonMinResult: ["epsilon_min_estimate", "transform", "min_choi_eigenvalue"],
        WallmanGauge: ["l_op", "epsilon_in_gauge", "min_choi_eigenvalue", "null_space_dim", "residual"],
    }
    # a gauge transform takes M and derives its inverse, a declared field
    assert [(f.name, f.init) for f in fields(GaugeTransform)] == [("m", True), ("m_inv", False)]
    transform = GaugeTransform.random_tp(seed=3, scale=0.3)
    assert np.array_equal(transform.m_inv, np.linalg.inv(transform.m)) and not transform.m_inv.flags.writeable
    assert "m_inv" not in repr(transform)
    # each CP flag is read off the smallest Choi eigenvalue at its own floor
    identity = GaugeTransform(np.eye(4))
    for value, row_cp, search_cp in ((0.0, True, True), (-1e-10, True, True), (-1e-9, False, True), (-2e-8, False, False)):
        assert CounterexampleRow(1.0, 0.0, value, 0.0).all_cp is row_cp
        assert EpsilonMinResult(0.0, identity, value).all_cp is search_cp
