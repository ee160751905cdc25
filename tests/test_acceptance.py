"""Acceptance suite: every criterion at its stated tolerance.

The heavy shared computations (50-repeat RB estimates) are module fixtures.
Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

from itertools import product

import numpy as np
import pytest

from rblab import (
    CoherentZ,
    GatesetTheory,
    GaugeTransform,
    RBConfig,
    agi,
    agsi_of,
    build_gateset,
    build_l_map,
    counterexample_epsilon_min,
    delta_diamond,
    estimate_r,
    exact_decay,
    fit_decay,
    gamma_and_r_gamma,
    m_alpha,
    predicted_decay,
    repeat_datasets,
    run_rb,
    wallman_gauge,
)
from rblab.protocol import DEFAULT_LENGTHS

K_PER_LENGTH = 500
REPEATS = 50


class DualEstimate:
    """First- and zeroth-order fits of the same simulated datasets."""

    def __init__(self, gateset, seed, repeats=REPEATS, lengths=DEFAULT_LENGTHS, k=K_PER_LENGTH):
        self.fits_first = []
        self.fits_zeroth = []
        config = RBConfig(lengths=lengths, k_per_length=k, seed=seed, repeats=repeats)
        for dataset in repeat_datasets(gateset, config):
            self.fits_first.append(fit_decay(dataset, model="first"))
            self.fits_zeroth.append(fit_decay(dataset, model="zeroth"))

    def r_stats(self, model="first"):
        fits = self.fits_first if model == "first" else self.fits_zeroth
        values = np.array([f.r_hat for f in fits])
        return float(values.mean()), float(values.std(ddof=1))


@pytest.fixture(scope="module")
def coherent_estimate(coherent_gateset):
    return DualEstimate(coherent_gateset, seed=20170901)


@pytest.fixture(scope="module")
def general_estimate(general_gateset):
    return DualEstimate(general_gateset, seed=20170902)


@pytest.fixture(scope="module")
def depolarizing_estimate(depolarizing_gateset):
    return DualEstimate(depolarizing_gateset, seed=20170903, repeats=5)


@pytest.fixture(scope="module")
def random_estimates(random_gatesets):
    return [
        DualEstimate(gateset, seed=20170910 + i, repeats=5)
        for i, gateset in enumerate(random_gatesets)
    ]


def test_criterion_1_example_reproduction(coherent_gateset, coherent_estimate):
    r_mean, r_std = coherent_estimate.r_stats()
    epsilon = agsi_of(coherent_gateset)
    assert 3e-6 <= r_mean <= 3e-5, f"r_mean = {r_mean:.3e} outside [3e-6, 3e-5]"
    assert 5e-4 <= epsilon <= 5e-3, f"epsilon = {epsilon:.3e} outside [5e-4, 5e-3]"
    assert epsilon / r_mean > 30.0, f"epsilon/r = {epsilon / r_mean:.1f} <= 30"
    print(
        f"ACCEPTANCE 1 PASS: r_mean = {r_mean:.3e} (std {r_std:.1e}), "
        f"epsilon = {epsilon:.3e}, ratio = {epsilon / r_mean:.0f}"
    )


def test_criterion_2_scaling_exponents(group, table):
    thetas = np.array([0.05, 0.075, 0.1, 0.15, 0.2])
    r_gammas, epsilons = [], []
    for theta in thetas:
        gateset = build_gateset(CoherentZ(float(theta)), group, table)
        r_gammas.append(gamma_and_r_gamma(build_l_map(gateset))[1])
        epsilons.append(agsi_of(gateset))
    slope_r = np.polyfit(np.log(thetas), np.log(r_gammas), 1)[0]
    slope_eps = np.polyfit(np.log(thetas), np.log(epsilons), 1)[0]
    assert abs(slope_r - 4.0) <= 0.3, f"r_gamma slope {slope_r:.3f} not 4 +- 0.3"
    assert abs(slope_eps - 2.0) <= 0.1, f"epsilon slope {slope_eps:.3f} not 2 +- 0.1"
    print(f"ACCEPTANCE 2 PASS: slope(r_gamma) = {slope_r:.3f}, slope(epsilon) = {slope_eps:.3f}")


def test_criterion_3_general_error_reproduction(general_gateset, general_estimate):
    r_mean, r_std = general_estimate.r_stats()
    epsilon = agsi_of(general_gateset)
    target_r = 1.36e-4
    target_eps = 2.7e-3
    assert abs(r_mean - target_r) <= 0.2 * target_r, f"r_mean = {r_mean:.3e} not within 20% of {target_r}"
    assert abs(epsilon - target_eps) <= 0.3 * target_eps, f"epsilon = {epsilon:.3e} not within 30% of {target_eps}"
    print(f"ACCEPTANCE 3 PASS: r_mean = {r_mean:.4e} (std {r_std:.1e}), epsilon = {epsilon:.3e}")


def test_criterion_4_gate_independent_exactness(depolarizing_gateset, depolarizing_estimate):
    lam = 0.99
    r_mean, _ = depolarizing_estimate.r_stats()
    _, r_gamma = gamma_and_r_gamma(build_l_map(depolarizing_gateset))
    epsilon = agsi_of(depolarizing_gateset)
    assert abs(r_mean - 0.005) < 1e-6
    assert abs(r_gamma - 0.005) < 1e-6
    assert abs(epsilon - 0.005) < 1e-6
    lengths = np.asarray(DEFAULT_LENGTHS)
    _, values = exact_decay(depolarizing_gateset, lengths=lengths)
    expected = 0.5 + 0.5 * lam ** (lengths + 1)
    worst = float(np.max(np.abs(values - expected)))
    assert worst < 1e-12, f"exact decay deviates from closed form by {worst:.2e}"
    print(
        f"ACCEPTANCE 4 PASS: r_hat = {r_mean:.9f}, r_gamma = {r_gamma:.9f}, "
        f"epsilon = {epsilon:.9f}, closed-form deviation {worst:.1e}"
    )


def _enumerated_population(gateset, m, reference_survivals):
    sequences = np.array(list(product(range(24), repeat=m)), dtype=np.intp)
    values = reference_survivals(gateset, sequences)
    return float(values.mean()), float(values.std(ddof=0))


def test_criterion_5_oracle_equivalence(random_gatesets, reference_survivals, brute_force_pm):
    for index, gateset in enumerate(random_gatesets):
        dataset = run_rb(gateset, RBConfig(lengths=(1, 2), k_per_length=K_PER_LENGTH, seed=600 + index))
        for m, sampled in zip(dataset.lengths, dataset.means):
            brute = brute_force_pm(gateset, m=m)
            _, exact = exact_decay(gateset, lengths=[m])
            assert abs(brute - exact[0]) < 1e-12, f"model {index}, m={m}: brute != exact"
            pop_mean, pop_std = _enumerated_population(gateset, m, reference_survivals)
            assert abs(brute - pop_mean) < 1e-12
            band = 4.0 * pop_std / np.sqrt(K_PER_LENGTH)
            assert abs(sampled - pop_mean) <= band + 1e-15, (
                f"model {index}, m={m}: sampled mean off by {abs(sampled - pop_mean):.2e} > {band:.2e}"
            )
    print("ACCEPTANCE 5 PASS: brute force = exact decay (1e-12) and sampled means within 4-sigma, 5 models")


def test_criterion_6_bound_verification(random_gatesets):
    lengths = [1, 2, 51, 101, 501, 1001]
    margins = []
    for index, gateset in enumerate(random_gatesets):
        bound = delta_diamond(gateset, seed=700 + index)
        _, exact = exact_decay(gateset, lengths=lengths)
        predicted = predicted_decay(GatesetTheory(gateset), lengths=lengths)
        worst = float(np.max(np.abs(exact - predicted)))
        assert worst <= bound.delta_diamond, (
            f"model {index}: |exact - predicted| = {worst:.3e} > delta_diamond = {bound.delta_diamond:.3e}"
        )
        margins.append(worst / bound.delta_diamond)
    print(f"ACCEPTANCE 6 PASS: bound holds for 5 models at m in {lengths}; worst usage {max(margins):.2f}")


def test_criterion_7_gauge_invariance(coherent_gateset, coherent_estimate):
    base_spectrum = np.linalg.eigvals(build_l_map(coherent_gateset))
    base_mean, base_std = coherent_estimate.r_stats()
    base_se = base_std / np.sqrt(REPEATS)
    base_epsilon = agsi_of(coherent_gateset)

    scales = [0.3, 0.05, 0.1, 0.15, 0.2, 0.25, 0.35, 0.4, 0.45, 0.5]
    epsilon_ratios = []
    gauge_repeats = 8
    for index, scale in enumerate(scales):
        transform = GaugeTransform.random_tp(seed=5000 + index, scale=scale)
        transformed = transform.transform_gateset(coherent_gateset)

        spectrum = np.linalg.eigvals(build_l_map(transformed))
        assert _multiset_distance(base_spectrum, spectrum) < 1e-9, f"gauge {index}: spectrum moved"

        estimate = estimate_r(
            transformed,
            RBConfig(lengths=DEFAULT_LENGTHS, k_per_length=K_PER_LENGTH,
                     seed=7000 + index, repeats=gauge_repeats),
        )
        gauge_se = estimate.r_std / np.sqrt(gauge_repeats)
        band = 4.0 * np.sqrt(base_se**2 + gauge_se**2)
        assert abs(estimate.r_mean - base_mean) <= band, (
            f"gauge {index}: |r - r_base| = {abs(estimate.r_mean - base_mean):.2e} > {band:.2e}"
        )
        epsilon_ratios.append(agsi_of(transformed) / base_epsilon)
    assert max(epsilon_ratios) > 10.0, f"no gauge changed epsilon by 10x (max {max(epsilon_ratios):.1f})"
    print(
        f"ACCEPTANCE 7 PASS: spectrum invariant and r within error bars for 10 gauges; "
        f"max epsilon ratio {max(epsilon_ratios):.0f}"
    )


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


def test_criterion_8_exponentiality(
    coherent_estimate, general_estimate, depolarizing_estimate, random_estimates
):
    max_m = float(max(DEFAULT_LENGTHS))
    worst_ratio = 0.0
    for name, dual in [
        ("coherent", coherent_estimate),
        ("general", general_estimate),
        ("depolarizing", depolarizing_estimate),
        *[(f"random-{i}", dual) for i, dual in enumerate(random_estimates)],
    ]:
        for fit in dual.fits_first:
            if "no-decay" in fit.flags:
                continue
            ratio = abs(fit.c) * max_m / abs(fit.b)
            worst_ratio = max(worst_ratio, ratio)
            assert ratio < 0.05, f"{name}: |C| max(m)/B = {ratio:.3f} >= 0.05"
        mean_first, std_first = dual.r_stats("first")
        mean_zeroth, std_zeroth = dual.r_stats("zeroth")
        tolerance = max(std_first, std_zeroth, 1e-12)
        assert abs(mean_first - mean_zeroth) <= tolerance, (
            f"{name}: zeroth/first disagree by {abs(mean_first - mean_zeroth):.2e} > {tolerance:.2e}"
        )
    print(f"ACCEPTANCE 8 PASS: worst |C| max(m)/B = {worst_ratio:.4f}; orders agree within r_std")


def test_criterion_9_counterexample(depolarizing_gateset, group, transform_channel):
    lam = 0.99
    rows = counterexample_epsilon_min(lam, np.linspace(0.9, 1.1, 81))
    winners = [
        r for r in rows if r.all_cp and r.min_choi_eigenvalue >= -1e-10
        and r.epsilon < r.r_reference and abs(r.alpha - 1.0) > 1e-9
    ]
    assert winners, "no alpha != 1 with all gates CP and epsilon < r"
    best = min(winners, key=lambda r: r.epsilon)
    worst_formula_error = 0.0
    for alpha in (best.alpha, 0.9975, 1.0025):
        transform = m_alpha(alpha)
        formula = (3.0 - lam * (alpha**2 + alpha + 1.0) / alpha) / 6.0
        for tilde, ideal in zip(depolarizing_gateset.ptms, group.ptms):
            if abs(ideal[2, 2]) == 1.0:
                continue
            value = agi(transform_channel(transform, tilde), ideal)
            worst_formula_error = max(worst_formula_error, abs(value - formula))
    assert worst_formula_error < 1e-12
    print(
        f"ACCEPTANCE 9 PASS: alpha = {best.alpha:.4f} gives epsilon = {best.epsilon:.6f} < r = 0.005 "
        f"with all gates CP; per-gate formula error {worst_formula_error:.1e}"
    )


def test_criterion_10_wallman_gauge(
    coherent_gateset,
    general_gateset,
    depolarizing_gateset,
    random_gatesets,
    coherent_estimate,
):
    gatesets = [coherent_gateset, general_gateset, depolarizing_gateset, *random_gatesets]
    worst_residual = 0.0
    worst_identity = 0.0
    for gateset in gatesets:
        analysis = GatesetTheory(gateset)
        result = wallman_gauge(analysis)
        worst_residual = max(worst_residual, result.residual)
        worst_identity = max(worst_identity, abs(result.epsilon_in_gauge - analysis.r_gamma))
        assert result.residual < 1e-8
        assert abs(result.epsilon_in_gauge - analysis.r_gamma) < 1e-8
    r_mean, r_std = coherent_estimate.r_stats()
    _, r_gamma = gamma_and_r_gamma(build_l_map(coherent_gateset))
    assert abs(r_mean - r_gamma) <= r_std, (
        f"|r_hat - r_gamma| = {abs(r_mean - r_gamma):.2e} > r_std = {r_std:.2e}"
    )
    print(
        f"ACCEPTANCE 10 PASS: residual <= {worst_residual:.1e}, |epsilon - r_gamma| <= {worst_identity:.1e} "
        f"on {len(gatesets)} gatesets; |r_hat - r_gamma| = {abs(r_mean - r_gamma):.2e} <= r_std = {r_std:.2e}"
    )
