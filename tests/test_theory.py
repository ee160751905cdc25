import pickle
from dataclasses import fields, replace
from operator import attrgetter

import numpy as np
import pytest

import rblab.theory
from rblab import (
    CoherentZ,
    DeltaBound,
    GatesetTheory,
    Spam,
    build_gateset,
    build_l_map,
    build_r_matrix,
    delta_diamond,
    exact_decay,
    gamma_and_r_gamma,
    predicted_decay,
)


def test_r_matrix_blocks_follow_group_table(coherent_gateset, group):
    r = build_r_matrix(coherent_gateset)
    assert r.shape == (96, 96)
    expected = np.zeros((96, 96))
    for k in range(24):
        for j in range(24):
            idx = group.cayley[k, group.inverse[j]]
            expected[4 * k:4 * k + 4, 4 * j:4 * j + 4] = coherent_gateset.ptms[idx]
    assert np.array_equal(r, expected / 24.0)


def test_r_matrix_perfect_power_identity(perfect_gateset):
    r = build_r_matrix(perfect_gateset)
    block = 24.0 * (r @ r)[:4, :4]
    assert np.allclose(block, np.eye(4), atol=1e-12)


def test_r_matrix_spectral_radius(coherent_gateset, depolarizing_gateset, random_gatesets):
    for gateset in [coherent_gateset, depolarizing_gateset, *random_gatesets]:
        radius = np.max(np.abs(np.linalg.eigvals(build_r_matrix(gateset))))
        assert radius <= 1.0 + 1e-9


def test_exact_decay_perfect(perfect_gateset):
    _, values = exact_decay(perfect_gateset, lengths=[1, 2, 51, 1001])
    assert np.allclose(values, 1.0, atol=1e-10)


def test_exact_decay_gate_independent_closed_form(depolarizing_gateset):
    lam = 0.99
    lengths = np.array([1, 2, 51, 101, 501, 1001, 2001])
    _, values = exact_decay(depolarizing_gateset, lengths=lengths)
    expected = 0.5 + 0.5 * lam ** (lengths + 1)
    assert np.max(np.abs(values - expected)) < 1e-12


def test_exact_decay_matches_brute_force(coherent_gateset, random_gatesets, brute_force_pm):
    for gateset in [coherent_gateset, *random_gatesets[:2]]:
        for m in (1, 2):
            _, values = exact_decay(gateset, lengths=[m])
            assert abs(brute_force_pm(gateset, m=m) - values[0]) < 1e-12


def test_exact_decay_fallback_matches_spectral(coherent_gateset, monkeypatch):
    lengths = [1, 2, 51, 101]
    _, spectral_values = exact_decay(coherent_gateset, lengths=lengths)
    monkeypatch.setattr(rblab.theory, "_EIG_COND_LIMIT", 0.0)
    decay, fallback_values = exact_decay(coherent_gateset, lengths=lengths)
    assert decay.weights is None
    assert np.max(np.abs(spectral_values - fallback_values)) < 1e-10
    with pytest.raises(ValueError, match="defective"):
        decay.predict(lengths)


def test_brute_force_caps_length(coherent_gateset, brute_force_pm):
    with pytest.raises(ValueError, match="capped"):
        brute_force_pm(coherent_gateset, m=4)


def test_brute_force_rejects_length_zero(coherent_gateset, brute_force_pm):
    with pytest.raises(ValueError, match=">= 1"):
        brute_force_pm(coherent_gateset, m=0)


@pytest.mark.parametrize("lengths", [[-1], [0], [1, 0, 51]])
def test_theories_reject_lengths_below_one(coherent_gateset, lengths):
    with pytest.raises(ValueError, match=">= 1"):
        exact_decay(coherent_gateset, lengths=lengths)
    with pytest.raises(ValueError, match=">= 1"):
        predicted_decay(GatesetTheory(coherent_gateset), lengths=lengths)


@pytest.mark.parametrize("lengths", [[1.9], [2.5], 2.0, [True, 3], np.array([1.0, 2.0])])
def test_theories_reject_lengths_that_are_not_integers(coherent_gateset, lengths):
    # each was read as int(m): 1.9 as 1, 2.5 as 2, True as 1
    with pytest.raises(ValueError, match="integer"):
        exact_decay(coherent_gateset, lengths=lengths)
    with pytest.raises(ValueError, match="integer"):
        predicted_decay(GatesetTheory(coherent_gateset), lengths=lengths)


def test_theories_take_one_length_or_numpy_integers(coherent_gateset):
    analysis = GatesetTheory(coherent_gateset)
    lengths = np.array([1, 51], dtype=np.int32)
    assert np.array_equal(exact_decay(coherent_gateset, lengths=51)[1], exact_decay(coherent_gateset, lengths=[51])[1])
    assert np.array_equal(predicted_decay(analysis, lengths=lengths), predicted_decay(analysis, lengths=[1, 51]))


def test_l_map_perfect_is_twirl_projector(perfect_gateset):
    eigs = np.sort(np.abs(np.linalg.eigvals(build_l_map(perfect_gateset))))[::-1]
    assert np.allclose(eigs[:2], 1.0, atol=1e-12)
    assert np.max(eigs[2:]) < 1e-12


def test_l_map_gate_independent_spectrum(depolarizing_gateset):
    lam = 0.99
    eigs = np.linalg.eigvals(build_l_map(depolarizing_gateset))
    eigs = np.sort(np.abs(eigs))[::-1]
    assert abs(eigs[0] - 1.0) < 1e-12
    assert abs(eigs[1] - lam) < 1e-12
    assert np.max(eigs[2:]) < 1e-12  # 0 with multiplicity 14


def test_primed_map_is_a_permutation_of_l_map(
    reference_primed_l_map, coherent_gateset, general_gateset, depolarizing_gateset, perfect_gateset
):
    # kron(A, B)[(i, k), (j, l)] = A[i, j] B[k, l], so each term of the primed
    # sum is a term of the plain one with its four indices reversed: the same
    # products, summed in the same order, hence bitwise equal
    for gateset in (coherent_gateset, general_gateset, depolarizing_gateset, perfect_gateset):
        permuted = build_l_map(gateset).reshape(4, 4, 4, 4).transpose(3, 2, 1, 0).reshape(16, 16)
        assert np.array_equal(permuted, reference_primed_l_map(gateset))


def test_gamma_gate_independent(depolarizing_gateset):
    l_map = build_l_map(depolarizing_gateset)
    gamma, r_gamma = gamma_and_r_gamma(l_map)
    assert abs(gamma - 0.99) < 1e-12
    assert abs(r_gamma - 0.005) < 1e-12
    # every eigenvalue below the unit one and gamma vanishes
    moduli = np.sort(np.abs(np.linalg.eigvals(l_map)))[::-1]
    assert np.all(moduli[2:] < 1e-10)


def test_gamma_rejects_degenerate_unit_eigenvalue(perfect_gateset):
    with pytest.raises(ValueError, match="unit eigenvalue"):
        gamma_and_r_gamma(build_l_map(perfect_gateset))


def test_gamma_scaling_with_theta(group, table):
    thetas = np.array([0.05, 0.075, 0.1, 0.15, 0.2])
    r_gammas = []
    for theta in thetas:
        gateset = build_gateset(CoherentZ(float(theta)), group, table)
        r_gammas.append(gamma_and_r_gamma(build_l_map(gateset))[1])
    slope = np.polyfit(np.log(thetas), np.log(r_gammas), 1)[0]
    assert abs(slope - 4.0) < 0.3


def test_predicted_decay_perfect(perfect_gateset):
    # the perfect gateset's unit eigenvalue is degenerate, so it has no theory
    # to predict from: the limit gamma = 1 cannot be built
    with pytest.raises(ValueError, match="unit eigenvalue"):
        GatesetTheory(perfect_gateset)


def test_gateset_theory_derives_its_fields(coherent_gateset):
    analysis = GatesetTheory(coherent_gateset)
    assert [f.name for f in fields(GatesetTheory) if f.init] == ["gateset"]
    assert np.array_equal(analysis.l_map, build_l_map(coherent_gateset))
    assert (analysis.gamma, analysis.r_gamma) == gamma_and_r_gamma(analysis.l_map)
    assert analysis.r_gamma == (1.0 - analysis.gamma) / 2
    with pytest.raises(TypeError):
        GatesetTheory(coherent_gateset, analysis.l_map)
    assert np.array_equal(replace(analysis).l_map, analysis.l_map)


def test_theory_records_hold_read_only_arrays(coherent_gateset, monkeypatch):
    # each stays read-only with equal bytes through a pickle round trip, the
    # way a record crosses `protocol._fork_map`
    decay, _ = exact_decay(coherent_gateset)
    arrays = {
        GatesetTheory(coherent_gateset): ["l_map", "gateset.ptms"],
        decay: ["eigenvalues", "weights"],
        delta_diamond(coherent_gateset): ["per_gate_distances", "per_gate_upper"],
    }
    for record, names in arrays.items():
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record)
        for name in names:
            original, copied = attrgetter(name)(record), attrgetter(name)(copy)
            assert not original.flags.writeable and not copied.flags.writeable, f"{type(record).__name__}.{name}"
            assert copied.dtype == original.dtype and copied.tobytes() == original.tobytes()
    # the fallback keeps no weights
    monkeypatch.setattr(rblab.theory, "_EIG_COND_LIMIT", 0.0)
    fallback = pickle.loads(pickle.dumps(exact_decay(coherent_gateset)[0]))
    assert fallback.weights is None and not fallback.eigenvalues.flags.writeable
    # a record holds its own copy, so its input stays writable
    distances = np.array([0.1, 0.2])
    assert not DeltaBound(distances, distances).per_gate_distances.flags.writeable
    assert distances.flags.writeable


def test_predicted_equals_exact_for_gate_independent(depolarizing_gateset):
    lengths = [1, 2, 51, 101, 501]
    _, exact = exact_decay(depolarizing_gateset, lengths=lengths)
    predicted = predicted_decay(GatesetTheory(depolarizing_gateset), lengths=lengths)
    assert np.max(np.abs(exact - predicted)) < 1e-12


def test_delta_diamond_zero_for_gate_independent(depolarizing_gateset, perfect_gateset):
    assert delta_diamond(depolarizing_gateset).delta_diamond < 1e-9
    assert delta_diamond(perfect_gateset).delta_diamond < 1e-12


def test_delta_diamond_bounds_model_error(coherent_gateset, brute_force_pm):
    bound = delta_diamond(coherent_gateset)
    assert bound.delta_diamond > 0
    assert bound.per_gate_distances.shape == (24,)
    assert bound.delta_diamond == bound.per_gate_distances.mean() / 2.0
    assert [f.name for f in fields(DeltaBound) if f.init] == ["per_gate_distances", "per_gate_upper"]
    lengths = [1, 2, 51, 101, 501, 1001]
    _, exact = exact_decay(coherent_gateset, lengths=lengths)
    predicted = predicted_decay(GatesetTheory(coherent_gateset), lengths=lengths)
    assert np.max(np.abs(exact - predicted)) <= bound.delta_diamond
    # desk-scale consistency triangle at m = 1, 2
    for m, ex, pred in zip(lengths[:2], exact[:2], predicted[:2]):
        assert abs(brute_force_pm(coherent_gateset, m=m) - ex) < 1e-12
        assert abs(ex - pred) <= bound.delta_diamond


def test_delta_diamond_brackets_meet_on_random_error_maps(random_gatesets):
    for index, gateset in enumerate(random_gatesets):
        bound = delta_diamond(gateset, seed=700 + index)
        assert bound.per_gate_upper.shape == (24,)
        # both ends are computed separately, so either may lead by rounding
        gap = np.abs(bound.per_gate_upper - bound.per_gate_distances)
        assert np.all(gap <= 1e-12 * np.maximum(1.0, bound.per_gate_upper)), f"model {index}"


def test_delta_diamond_of_the_general_model(general_gateset):
    assert abs(delta_diamond(general_gateset).delta_diamond - 0.04461674949387698) < 1e-12


def test_exact_decay_exponential_for_long_sequences(coherent_gateset):
    from rblab import RBDataset, fit_decay

    lengths = np.arange(51, 2002, 50)
    _, values = exact_decay(coherent_gateset, lengths=lengths)
    dataset = RBDataset(lengths=tuple(int(m) for m in lengths), survivals=tuple(np.array([v]) for v in values))
    fit = fit_decay(dataset, model="zeroth")
    assert fit.residual_norm < 1e-6
    _, r_gamma = gamma_and_r_gamma(build_l_map(coherent_gateset))
    assert abs(fit.r_hat - r_gamma) < 1e-10


def test_spam_enters_predictions(depolarizing_gateset):
    tilted = replace(
        depolarizing_gateset, spam=Spam(np.array([1.0, 0.5, 0.0, np.sqrt(0.75)]) / np.sqrt(2.0), Spam.ideal().effect)
    )
    _, plain = exact_decay(depolarizing_gateset, lengths=[5])
    _, moved = exact_decay(tilted, lengths=[5])
    assert moved[0] < plain[0]
    lam = 0.99
    # Bloch overlap of tilted state with the z axis is sqrt(0.75)
    expected = 0.5 + 0.5 * np.sqrt(0.75) * lam**6
    assert abs(moved[0] - expected) < 1e-12
    # the approximate theory is exact on a gate-independent error, and reads the same SPAM
    assert abs(predicted_decay(GatesetTheory(tilted), lengths=[5])[0] - expected) < 1e-12
