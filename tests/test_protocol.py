import json
from itertools import product

import numpy as np
import pytest

from rblab import (
    CoherentZ,
    GateIndependent,
    RBConfig,
    RBDataset,
    Spam,
    build_gateset,
    circuit_survivals,
    estimate_r,
    fit_decay,
    repeat_datasets,
    run_rb,
    sequence_inversions,
)
from rblab.cli import main
from rblab.protocol import _draw_circuits

LENGTHS = tuple(range(1, 2002, 50))


def _dataset_from_means(lengths, means):
    means = np.asarray(means, dtype=float)
    return RBDataset(
        lengths=tuple(int(m) for m in lengths),
        survivals=tuple(np.array([v]) for v in means),
        means=means,
    )


def _simulate(tmp_path):
    """Run the simulate command on the depolarizing lambda = 0.99 model at
    lengths (1, 51, 101, 151), 10 sequences, seed 55 and 3 repeats."""
    config = {
        "command": "simulate",
        "seed": 55,
        "error_model": {"name": "depolarizing", "lambda": 0.99},
        "rb": {"lengths": [1, 51, 101, 151], "k_per_length": 10, "repeats": 3},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
    return tmp_path / "out"


def _sampled_circuit(group, m, rng):
    """One (1, m+1) circuit: m uniform Clifford indices and their inversion."""
    indices = rng.integers(0, len(group), size=(1, m))
    return np.column_stack([indices, sequence_inversions(group, indices)])


# --------------------------------------------------------------------------
# Sequence sampling
# --------------------------------------------------------------------------


def test_sampled_sequences_invert_to_identity(group):
    rng = np.random.default_rng(4)
    for m in (1, 2, 5, 20):
        circuit = _sampled_circuit(group, m, rng)
        # exact integer PTMs: the applied-order product is checked without the tables
        ptms = [group.elements[i].ptm for i in circuit[0]]
        assert np.array_equal(np.linalg.multi_dot(ptms[::-1]), np.eye(4))


def test_identity_sequence_inverts_to_identity(group):
    indices = np.full((1, 1), group.identity_index, dtype=np.intp)
    assert sequence_inversions(group, indices)[0] == group.identity_index


def test_first_index_uniform_chi_square(group):
    rng = np.random.default_rng(123)
    draws = 100_000
    first = _draw_circuits(group, rng, draws, 1)[:, 0]
    counts = np.bincount(first, minlength=24)
    expected = draws / 24.0
    sigma = np.sqrt(draws * (1 / 24) * (23 / 24))
    assert np.all(np.abs(counts - expected) < 4 * sigma)
    chi_square = np.sum((counts - expected) ** 2 / expected)
    # 23 degrees of freedom: mean 23, std sqrt(46)
    assert chi_square < 23 + 6 * np.sqrt(46)


# --------------------------------------------------------------------------
# Survival probabilities
# --------------------------------------------------------------------------


def test_perfect_survival_is_one(perfect_gateset, group):
    rng = np.random.default_rng(11)
    ptms = perfect_gateset.imperfect_stack()
    for m in (1, 3, 7):
        circuit = _sampled_circuit(group, m, rng)
        assert abs(circuit_survivals(ptms, circuit, Spam.ideal())[0] - 1.0) < 1e-12


def test_gate_independent_two_gate_survival(depolarizing_gateset, group):
    lam = 0.99
    rng = np.random.default_rng(12)
    ptms = depolarizing_gateset.imperfect_stack()
    for _ in range(5):
        circuit = _sampled_circuit(group, 1, rng)
        expected = (1.0 + lam**2) / 2.0
        assert abs(circuit_survivals(ptms, circuit, Spam.ideal())[0] - expected) < 1e-14


def _dense_oracle_survival(theta: float, table, sequence) -> float:
    """Independent survival computation with 2x2 unitaries and density
    matrices, bypassing the PTM machinery entirely."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)

    def unitary(h, angle):
        return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * h

    err = unitary(sz, theta)
    prim = {"Gx": err @ unitary(sx, np.pi / 2), "Gy": err @ unitary(sy, np.pi / 2)}
    rho = np.array([[1, 0], [0, 0]], dtype=complex)
    for index in sequence:
        for name in table[index]:
            u = prim[name]
            rho = u @ rho @ u.conj().T
    return float(np.real(rho[0, 0]))


def test_survival_matches_dense_matrix_oracle(coherent_gateset, group, table):
    rng = np.random.default_rng(77)
    ptms = coherent_gateset.imperfect_stack()
    for m in (1, 2, 6):
        circuit = _sampled_circuit(group, m, rng)
        expected = _dense_oracle_survival(0.1, table, circuit[0])
        assert abs(circuit_survivals(ptms, circuit, Spam.ideal())[0] - expected) < 1e-14


# --------------------------------------------------------------------------
# run_rb
# --------------------------------------------------------------------------


def test_run_rb_perfect_gateset(perfect_gateset):
    config = RBConfig(lengths=(1, 11, 51), k_per_length=10, seed=5)
    dataset = run_rb(perfect_gateset, config)
    assert np.allclose(dataset.means, 1.0, atol=1e-12)


def test_run_rb_gate_independent_closed_form(depolarizing_gateset):
    lam = 0.99
    config = RBConfig(lengths=(1, 51, 101, 501), k_per_length=25, seed=6)
    dataset = run_rb(depolarizing_gateset, config)
    for m, mean, probs in zip(dataset.lengths, dataset.means, dataset.survivals):
        assert abs(mean - (0.5 + 0.5 * lam ** (m + 1))) < 1e-12
        assert probs.std() < 1e-14  # zero variance across sequences


def test_run_rb_deterministic_given_seed(coherent_gateset):
    config = RBConfig(lengths=(1, 51), k_per_length=50, seed=13)
    a = run_rb(coherent_gateset, config)
    b = run_rb(coherent_gateset, config)
    for pa, pb in zip(a.survivals, b.survivals):
        assert np.array_equal(pa, pb)
    c = run_rb(coherent_gateset, RBConfig(lengths=(1, 51), k_per_length=50, seed=14))
    assert not np.array_equal(a.survivals[0], c.survivals[0])


def test_run_rb_sampling_band_against_enumeration(coherent_gateset, group):
    # population mean/std over all 24 (m=1) and 576 (m=2) sequences
    config = RBConfig(lengths=(1, 2), k_per_length=500, seed=21)
    dataset = run_rb(coherent_gateset, config)
    for m, sampled_mean in zip(dataset.lengths, dataset.means):
        seqs = np.array(list(product(range(24), repeat=m)), dtype=np.intp)
        circuits = np.column_stack([seqs, sequence_inversions(group, seqs)])
        population = circuit_survivals(coherent_gateset.imperfect_stack(), circuits, Spam.ideal())
        band = 4.0 * population.std(ddof=0) / np.sqrt(config.k_per_length)
        assert abs(sampled_mean - population.mean()) <= band + 1e-15


@pytest.mark.parametrize("gateset_name", ["coherent_gateset", "general_gateset"])
def test_run_rb_matches_reference_loop_bitwise(gateset_name, request, reference_survivals):
    gateset = request.getfixturevalue(gateset_name)
    config = RBConfig(lengths=(1, 2, 51, 2001), k_per_length=500, seed=0)
    dataset = run_rb(gateset, config)
    for length_index, (m, probs) in enumerate(zip(config.lengths, dataset.survivals)):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, length_index]))
        sequences = rng.integers(0, 24, size=(config.k_per_length, m))
        assert np.array_equal(probs, reference_survivals(gateset, sequences)), f"m = {m}"


def test_dataset_validation_and_csv(tmp_path):
    with pytest.raises(ValueError, match="lie in"):
        RBDataset(lengths=(1,), survivals=(np.array([1.5]),), means=np.array([1.5]))
    with pytest.raises(ValueError, match="inconsistent"):
        RBDataset(lengths=(1,), survivals=(np.array([0.5, 0.6]),), means=np.array([0.7]))
    # the simulate command writes the dataset as CSV
    lines = (_simulate(tmp_path) / "rb_dataset.csv").read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "m,p_mean,p_std_across_sequences,k"
    assert lines[2].split(",")[0] == "1" and lines[2].endswith(",10")


# --------------------------------------------------------------------------
# Fitting
# --------------------------------------------------------------------------


def test_fit_recovers_exact_exponential():
    ms = np.asarray(LENGTHS)
    fit = fit_decay(_dataset_from_means(ms, 0.5 + 0.5 * 0.99**ms), model="first")
    assert abs(fit.a - 0.5) < 1e-8
    assert abs(fit.b - 0.5) < 1e-8
    assert abs(fit.c) < 1e-8
    assert abs(fit.p - 0.99) < 1e-8
    assert abs(fit.r_hat - 0.005) < 1e-8
    assert fit.flags == ()


def test_fit_recovers_first_order_coefficient():
    ms = np.asarray(LENGTHS)
    fit = fit_decay(_dataset_from_means(ms, 0.5 + (0.4 + 0.001 * ms) * 0.95**ms), model="first")
    assert abs(fit.c - 0.001) < 1e-6
    assert abs(fit.p - 0.95) < 1e-6


def test_fit_zeroth_model_has_no_linear_term():
    ms = np.asarray(LENGTHS)
    fit = fit_decay(_dataset_from_means(ms, 0.5 + 0.5 * 0.99**ms), model="zeroth")
    assert fit.c == 0.0
    assert abs(fit.p - 0.99) < 1e-8


def test_fit_flags_no_decay():
    ms = np.asarray(LENGTHS)
    fit = fit_decay(_dataset_from_means(ms, np.ones(len(ms))))
    assert "no-decay" in fit.flags
    assert np.isnan(fit.r_hat)


def test_fit_requires_enough_lengths():
    with pytest.raises(ValueError, match="at least"):
        fit_decay(_dataset_from_means([1, 2, 3], [0.9, 0.8, 0.7]), model="first")
    with pytest.raises(ValueError, match="at least 3 distinct"):
        fit_decay(_dataset_from_means([51, 51, 51, 51], [0.6, 0.5, 0.55, 0.45]), model="zeroth")
    with pytest.raises(ValueError, match="'zeroth' or 'first'"):
        fit_decay(_dataset_from_means([1, 2, 3, 4], [0.9, 0.8, 0.7, 0.6]), model="second")


def test_fit_simulated_gate_independent_run(depolarizing_gateset):
    dataset = run_rb(depolarizing_gateset, RBConfig(seed=31, k_per_length=20))
    fit = fit_decay(dataset, model="first")
    assert abs(fit.r_hat - 0.005) < 1e-6


# --------------------------------------------------------------------------
# estimate_r
# --------------------------------------------------------------------------


def test_estimate_r_gate_independent(depolarizing_gateset):
    config = RBConfig(lengths=LENGTHS, k_per_length=20, seed=41, repeats=4)
    estimate = estimate_r(depolarizing_gateset, config)
    assert abs(estimate.r_mean - 0.005) < 1e-6
    assert estimate.r_std < 1e-6
    assert len(estimate.fits) == 4


def test_estimate_r_fits_the_repeat_datasets(coherent_gateset):
    config = RBConfig(lengths=(1, 51, 101, 151, 201), k_per_length=20, seed=57, repeats=3)
    estimate = estimate_r(coherent_gateset, config, model="zeroth")
    expected = tuple(fit_decay(d, model="zeroth") for d in repeat_datasets(coherent_gateset, config))
    assert len(expected) == config.repeats
    assert estimate.fits == expected


def test_estimate_r_requires_repeats():
    with pytest.raises(ValueError, match="repeats"):
        estimate_r(None, RBConfig(repeats=1))


def test_estimate_r_deterministic(depolarizing_gateset):
    config = RBConfig(lengths=(1, 51, 101, 151), k_per_length=10, seed=55, repeats=3)
    a = estimate_r(depolarizing_gateset, config)
    b = estimate_r(depolarizing_gateset, config)
    assert a.r_mean == b.r_mean and a.r_std == b.r_std


def test_estimate_json_payload(tmp_path):
    # the simulate command writes the estimate as JSON
    payload = json.loads((_simulate(tmp_path) / "rb_fit.json").read_text())
    assert set(payload) == {"model", "A", "B", "C", "p", "r_hat", "r_std", "seed", "config", "flags"}
    assert payload["model"] == "first"
    assert abs(payload["r_hat"] - 0.005) < 1e-6


def test_spam_override_changes_asymptote(depolarizing_gateset):
    # a tilted preparation lowers every survival but the decay base survives
    from rblab import Effect, State

    tilted = Spam(
        state=State(np.array([1.0, 0.3, 0.0, np.sqrt(1.0 - 0.09)]) / np.sqrt(2.0)),
        effect=Effect.z_plus(),
    )
    config = RBConfig(lengths=LENGTHS, k_per_length=10, seed=77, spam=tilted)
    dataset = run_rb(depolarizing_gateset, config)
    fit = fit_decay(dataset, model="first")
    assert dataset.means[0] < 0.999
    assert abs(fit.r_hat - 0.005) < 1e-6
