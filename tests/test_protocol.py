import json
import math
import multiprocessing
import pickle
import warnings
import weakref
from dataclasses import fields, replace
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from rblab import (
    FitError,
    FitResult,
    RBConfig,
    RBDataset,
    RBEstimate,
    Spam,
    estimate_r,
    estimate_rs,
    fit_decay,
    repeat_datasets,
    run_rb,
    sequence_survivals,
)
from rblab import protocol
from rblab.cli import main
from rblab.protocol import _BATCH_BYTES, _ROW_BYTES, _batches, _draw_sequences, _fork_map, _fork_workers

LENGTHS = tuple(range(1, 2002, 50))
TILTED = np.array([1.0, 0.3, -0.5, np.sqrt(1.0 - 0.34)]) / np.sqrt(2.0)  # a pure state's Pauli vector


def _dataset_from_means(lengths, means):
    return RBDataset(lengths=tuple(int(m) for m in lengths), survivals=tuple(np.array([float(v)]) for v in means))


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


def _sampled_sequence(m, rng):
    """One (1, m) block of m uniform Clifford indices."""
    return rng.integers(0, 24, size=(1, m))


def _survival(gateset, sequence):
    """Survival of one (1, m) block completed by its inversion."""
    return sequence_survivals(gateset, [sequence])[0][0]


# --------------------------------------------------------------------------
# Sequence sampling
# --------------------------------------------------------------------------


# a pure state along a generic Bloch direction: of the 24 Cliffords only the
# identity maps it to itself, so on the perfect gateset a row survives with
# probability 1 only if its appended inversion undoes the sequence exactly
GENERIC = Spam(TILTED, TILTED)


def test_sampled_sequences_invert_to_identity(perfect_gateset, group):
    rotated = [ptm @ TILTED for ptm in group.ptms]
    assert sum(np.allclose(v, TILTED) for v in rotated) == 1
    rng = np.random.default_rng(4)
    blocks = [rng.integers(0, 24, size=(30, m)) for m in (1, 2, 5, 20, 2, 101)]
    for probs in sequence_survivals(replace(perfect_gateset, spam=GENERIC), blocks):
        assert np.max(np.abs(probs - 1.0)) < 1e-12


def test_identity_sequence_inverts_to_identity(perfect_gateset, group):
    indices = np.full((1, 1), group.identity_index, dtype=np.intp)
    assert abs(_survival(replace(perfect_gateset, spam=GENERIC), indices) - 1.0) < 1e-12


def test_first_index_uniform_chi_square(group):
    rng = np.random.default_rng(123)
    draws = 100_000
    first = _draw_sequences(group, rng, draws, 1)[:, 0]
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


def test_perfect_survival_is_one(perfect_gateset):
    rng = np.random.default_rng(11)
    for m in (1, 3, 7):
        assert abs(_survival(perfect_gateset, _sampled_sequence(m, rng)) - 1.0) < 1e-12


def test_gate_independent_two_gate_survival(depolarizing_gateset):
    lam = 0.99
    rng = np.random.default_rng(12)
    for _ in range(5):
        expected = (1.0 + lam**2) / 2.0
        assert abs(_survival(depolarizing_gateset, _sampled_sequence(1, rng)) - expected) < 1e-14


def _dense_oracle_survival(theta: float, group, table, sequence) -> float:
    """Independent survival computation with 2x2 unitaries and density
    matrices, bypassing the PTM machinery entirely; the sequence is completed
    by the inverse of its product, multiplied out of the exact integer PTMs."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)

    def unitary(h, angle):
        return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * h

    err = unitary(sz, theta)
    prim = {"Gx": err @ unitary(sx, np.pi / 2), "Gy": err @ unitary(sy, np.pi / 2)}
    product_ptm = np.linalg.multi_dot([np.eye(4)] + [group.ptms[i] for i in sequence[::-1]])
    inversion = next(i for i, ptm in enumerate(group.ptms) if np.array_equal(ptm @ product_ptm, np.eye(4)))
    rho = np.array([[1, 0], [0, 0]], dtype=complex)
    for index in [*sequence, inversion]:
        for name in table[index]:
            u = prim[name]
            rho = u @ rho @ u.conj().T
    return float(np.real(rho[0, 0]))


def test_survival_matches_dense_matrix_oracle(coherent_gateset, group, table):
    rng = np.random.default_rng(77)
    for m in (1, 2, 6):
        sequence = _sampled_sequence(m, rng)
        expected = _dense_oracle_survival(0.1, group, table, sequence[0])
        assert abs(_survival(coherent_gateset, sequence) - expected) < 1e-14


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


def test_run_rb_sampling_band_against_enumeration(coherent_gateset):
    # population mean/std over all 24 (m=1) and 576 (m=2) sequences
    config = RBConfig(lengths=(1, 2), k_per_length=500, seed=21)
    dataset = run_rb(coherent_gateset, config)
    enumerated = [np.array(list(product(range(24), repeat=m))) for m in dataset.lengths]
    populations = sequence_survivals(coherent_gateset, enumerated)
    for sampled_mean, population in zip(dataset.means, populations):
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


def _assert_matches_reference(gateset, config, reference_survivals):
    dataset = run_rb(gateset, config)
    assert dataset.lengths == config.lengths
    for length_index, (m, probs) in enumerate(zip(config.lengths, dataset.survivals)):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, length_index]))
        sequences = rng.integers(0, 24, size=(config.k_per_length, m))
        expected = reference_survivals(gateset, sequences)
        assert np.array_equal(probs, expected), f"length {length_index}: m = {m}"
        assert dataset.means[length_index] == probs.mean()


def test_run_rb_ragged_batches_match_reference_bitwise(coherent_gateset, reference_survivals):
    # unsorted, repeated lengths; k is set so that the two 255s fill one batch
    # and the rest fall into a second
    lengths = (255, 100, 255, 17, 100)
    k = _BATCH_BYTES // (2 * (256 + _ROW_BYTES))
    assert [sorted(batch) for batch in _batches(lengths, k)] == [[0, 2], [1, 3, 4]]
    _assert_matches_reference(coherent_gateset, RBConfig(lengths=lengths, k_per_length=k, seed=3), reference_survivals)


@pytest.mark.parametrize("tilted", [False, True], ids=["ideal-spam", "tilted-spam"])
def test_run_rb_one_sequence_per_length_matches_reference_bitwise(general_gateset, reference_survivals, tilted):
    # with a tilted effect every Pauli component enters the final product
    gateset = replace(general_gateset, spam=GENERIC) if tilted else general_gateset
    config = RBConfig(lengths=(5, 1, 30, 5, 2, 1), k_per_length=1, seed=8)
    _assert_matches_reference(gateset, config, reference_survivals)


def _batch_bytes(lengths, k, batch):
    """What `_batches` counts for a batch: k rows per length, each its gate
    indices (the longest length's steps plus one) and _ROW_BYTES."""
    return k * len(batch) * (max(lengths[i] for i in batch) + 1 + _ROW_BYTES)


def test_batches_respect_the_index_cap():
    lengths = tuple(range(1, 2002, 50))
    batches = list(_batches(lengths, 500))
    assert sorted(i for batch in batches for i in batch) == list(range(len(lengths)))
    for batch in batches:
        assert [lengths[i] for i in batch] == sorted((lengths[i] for i in batch), reverse=True)
        assert len(batch) == 1 or _batch_bytes(lengths, 500, batch) <= _BATCH_BYTES
    # enough batches that two or more workers can share them evenly
    assert len(batches) >= 4
    # a single length over the cap is a batch of its own
    assert list(_batches((5, 10**6, 7), 10)) == [[1], [2, 0]]


def test_batches_count_rows_against_the_budget():
    # short lengths, many rows: few index cells, but each row's float working
    # set alone puts any two of these lengths over the budget
    lengths, k = (1, 2, 3, 4), 200_000
    assert _batch_bytes(lengths, k, [0, 1]) > _BATCH_BYTES
    assert list(_batches(lengths, k)) == [[3], [2], [1], [0]]


def test_run_rb_does_not_depend_on_the_worker_count(coherent_gateset, one_cpu):
    config = RBConfig(lengths=(1, 2, 51, 2001), k_per_length=500, seed=0)
    assert len(list(_batches(config.lengths, config.k_per_length))) >= 2
    pooled = run_rb(coherent_gateset, config)
    with one_cpu():
        assert _fork_workers(2) == 1
        serial = run_rb(coherent_gateset, config)
    for m, a, b in zip(config.lengths, pooled.survivals, serial.survivals):
        assert np.array_equal(a, b), f"m = {m}"


def test_run_rb_leaves_no_worker_running(coherent_gateset):
    config = RBConfig(lengths=(1, 2001), k_per_length=500, seed=2)
    assert len(list(_batches(config.lengths, config.k_per_length))) == 2
    run_rb(coherent_gateset, config)
    assert multiprocessing.active_children() == []


def test_run_rb_in_a_daemonic_process(coherent_gateset):
    # a multiprocessing.Pool worker is daemonic and may start no children
    config = RBConfig(lengths=(1, 2001), k_per_length=500, seed=2)
    with multiprocessing.get_context("fork").Pool(1) as pool:  # terminated on exit
        dataset = pool.apply_async(run_rb, (coherent_gateset, config)).get(timeout=120)
    assert np.array_equal(dataset.means, run_rb(coherent_gateset, config).means)


_INVALID_BLOCKS = {
    "zero-length": [np.zeros((3, 0), dtype=np.intp)],
    "zero-length-next-to-real": [np.zeros((2, 3), dtype=np.intp), np.zeros((4, 0), dtype=np.intp)],
    "index-above-group": [np.array([[261, 7, 3]])],
    "index-at-group-size": [np.array([[24, 0]])],
    "negative-index": [np.array([[-1, 2]])],
    "float-indices": [np.array([[1.7, 2.0]])],
    "one-dimensional": [np.array([1, 2, 3])],
}


@pytest.mark.parametrize("name", _INVALID_BLOCKS)
def test_sequence_survivals_rejects_invalid_blocks(perfect_gateset, name):
    with pytest.raises(ValueError):
        sequence_survivals(perfect_gateset, _INVALID_BLOCKS[name])


def test_sequence_survivals_takes_a_block_of_no_rows(perfect_gateset):
    blocks = [np.zeros((0, 3), dtype=np.intp), np.array([[5, 7]])]
    empty, probs = sequence_survivals(replace(perfect_gateset, spam=GENERIC), blocks)
    assert empty.shape == (0,)
    assert abs(probs[0] - 1.0) < 1e-12


def test_blocks_match_one_by_one_bitwise(general_gateset, reference_survivals):
    rng = np.random.default_rng(19)
    shapes = [(7, 3), (1, 40), (12, 3), (5, 1), (9, 17)]
    sequences = [rng.integers(0, 24, size=shape) for shape in shapes]
    gateset = replace(general_gateset, spam=GENERIC)
    survivals = sequence_survivals(gateset, sequences)
    assert len(survivals) == len(shapes)
    for block, probs in zip(sequences, survivals):
        assert probs.shape == (len(block),)
        assert np.array_equal(probs, sequence_survivals(gateset, [block])[0])
        assert np.array_equal(probs, reference_survivals(gateset, block))


def test_dataset_validation_and_csv(tmp_path):
    with pytest.raises(ValueError, match="lie in"):
        RBDataset(lengths=(1,), survivals=(np.array([1.5]),))
    # NaN fails every comparison, so the range check must reject it too
    with pytest.raises(ValueError, match="lie in"):
        RBDataset(lengths=(1, 2, 3, 4, 5), survivals=(np.array([np.nan, 0.5]),) * 5)
    # one survival array per length: a zip of the two would check only the shortest
    with pytest.raises(ValueError, match="one entry per length"):
        RBDataset(lengths=(1, 11, 21, 31), survivals=(np.array([0.9, 0.91]),))
    with pytest.raises(ValueError, match="one entry per length"):
        RBDataset(lengths=(1,), survivals=(np.array([0.9]), np.array([0.5])))
    # a length with no sequence has no mean
    with pytest.raises(ValueError, match="at least one survival probability"):
        RBDataset(lengths=(1, 11), survivals=(np.array([0.9]), np.array([])))
    # the means are derived, one per length, read-only
    dataset = RBDataset(lengths=(1, 11), survivals=(np.array([0.5, 0.6]), np.array([0.3])))
    assert dataset.means.tolist() == [np.array([0.5, 0.6]).mean(), 0.3] and not dataset.means.flags.writeable
    with pytest.raises(TypeError):
        RBDataset(lengths=(1,), survivals=(np.array([0.5]),), means=np.array([0.7]))
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


def _design(lengths, p, first_order):
    decay = p**lengths
    return np.column_stack([np.ones_like(lengths), decay] + ([lengths * decay] if first_order else []))


def _lstsq_solve_for_p(lengths, means, p, first_order, rcond=None):
    """One solve of `protocol._solve_stack` through `np.linalg.lstsq`, as a reference."""
    design = _design(lengths, p, first_order)
    coeffs, *_ = np.linalg.lstsq(design, means, rcond=rcond)
    return coeffs, design @ coeffs - means


@pytest.mark.parametrize("first_order", [False, True], ids=["zeroth", "first"])
@pytest.mark.parametrize("lengths", [range(1, 202, 10), LENGTHS], ids=["sweep", "simulate"])
def test_linear_solve_matches_lstsq(lengths, first_order):
    ms = np.asarray(lengths, dtype=float)
    means = 0.5 + (0.45 + 1e-4 * ms) * 0.995**ms + 1e-3 * np.sin(ms)
    # p = 0, 1e-300 and 1 make the design rank-deficient: equal answers
    # there mean the same rank cut and the same minimum-norm solution
    near = 1 - 1e-6 if first_order else 1 - 1e-13  # near-collinear, see below
    ps = np.array([0.0, 1e-300, 0.9, 0.99, 0.995, 0.9999, 1.0, near])
    stacked_coeffs, stacked_resid = protocol._solve_stack(ms, means, ps, first_order)
    for i, p in enumerate(ps):
        coeffs, resid = protocol._solve_stack(ms, means, float(p), first_order)
        expected_coeffs, expected_resid = _lstsq_solve_for_p(ms, means, float(p), first_order)
        assert coeffs.shape == expected_coeffs.shape and resid.shape == ms.shape
        assert np.array_equal(coeffs, expected_coeffs) and np.array_equal(resid, expected_resid)
        # each matrix of a stack solves as it does alone
        assert np.array_equal(stacked_coeffs[i], coeffs) and np.array_equal(stacked_resid[i], resid)
    # at p = 1 the decay column equals the constant one: the minimum norm splits A + B evenly
    coeffs, _ = protocol._solve_stack(ms, means, 1.0, first_order)
    assert abs(coeffs[0] - coeffs[1]) <= 1e-12
    # near p = 1 the singular values span a ratio between lstsq's cutoff,
    # max(rows, cols) * eps, and 1e-10: the solve above keeps the smallest
    # one, and a cutoff of 1e-10 would drop it and give other amplitudes
    singular = np.linalg.svd(_design(ms, near, first_order), compute_uv=False)
    assert len(ms) * np.finfo(float).eps < singular[-1] / singular[0] < 1e-10
    coeffs, _ = protocol._solve_stack(ms, means, near, first_order)
    assert not np.array_equal(coeffs, _lstsq_solve_for_p(ms, means, near, first_order, rcond=1e-10)[0])


@pytest.mark.parametrize("first_order", [False, True], ids=["zeroth", "first"])
def test_stacked_costs_equal_each_solves_dot_product(first_order, coherent_gateset):
    dataset = run_rb(coherent_gateset, RBConfig(lengths=range(1, 202, 10), k_per_length=20, seed=3))
    lengths, means = np.asarray(dataset.lengths, dtype=float), dataset.means
    # a `_scan_for_q` grid: the coarse one of stage 1 and a narrow one around its minimum
    grid = np.concatenate([np.linspace(-9.0, 8.5, 61), np.linspace(6.17, 6.19, 25)])
    costs = protocol._costs(lengths, means, grid, first_order)
    for q, cost in zip(grid, costs):
        _, resid = protocol._solve_stack(lengths, means, protocol._sigmoid(float(q)), first_order)
        assert cost == float(resid @ resid) == float(protocol._costs(lengths, means, float(q), first_order))


def _recorded(func):
    """`func` and the list of points it is called at."""
    calls = []

    def recorded(x):
        calls.append(x)
        return func(x)

    return recorded, calls


def _sweep_cost(gateset):
    """`_scan_for_q`'s zeroth-order cost on one fixed sweep-shaped dataset:
    lengths 1..201 step 10, 20 sequences, seed 3."""
    dataset = run_rb(gateset, RBConfig(lengths=range(1, 202, 10), k_per_length=20, seed=3))
    lengths, means = np.asarray(dataset.lengths, dtype=float), dataset.means

    def cost(q):
        _, resid = protocol._solve_stack(lengths, means, protocol._sigmoid(q), False)
        return float(resid @ resid)

    return cost


_BRENT_CASES = {
    "quadratic": (lambda x: (x - 0.3) ** 2 + 1.0, -1.0, 2.0),
    "minimum-at-lower-bound": (lambda x: 2.0 * x, 0.5, 1.5),
    "minimum-at-upper-bound": (lambda x: -x * x, -0.25, 3.0),
    "constant": (lambda x: 0.75, -2.0, 2.0),
    # a funnel 1e-3 wide, deeper than the broad minimum at 0.7 beside it
    "narrow-funnel": (lambda x: 0.1 * (x - 0.7) ** 2 - math.exp(-(((x + 0.4) / 1e-3) ** 2)), -1.0, 1.0),
    # a kink in a window 1e155 wide: the search stops at its cap of 500 calls
    "call-cap": (lambda x: 1e-160 * abs(x), -1e155, 3e154),
}


@pytest.mark.parametrize("name", [*_BRENT_CASES, "sweep-cost-wide", "sweep-cost-narrow"])
def test_bounded_brent_equals_scipy(name, coherent_gateset):
    if name.startswith("sweep-cost"):
        # the fitted q = logit(p) is about 6.18: a wide window around it, and
        # one 2e-9 wide, as `_scan_for_q` makes around a lone candidate
        lo, hi = (4.0, 9.0) if name.endswith("wide") else (6.18 - 1e-9, 6.18 + 1e-9)
        func = _sweep_cost(coherent_gateset)
    else:
        func, lo, hi = _BRENT_CASES[name]
    ours, our_calls = _recorded(func)
    theirs, their_calls = _recorded(func)
    x, fx = protocol._bounded_brent(ours, lo, hi, xatol=1e-13)
    res = minimize_scalar(theirs, bounds=(lo, hi), method="bounded", options={"xatol": 1e-13})
    assert (np.float64(x).tobytes(), np.float64(fx).tobytes()) == (
        np.float64(res.x).tobytes(),
        np.float64(res.fun).tobytes(),
    )
    assert len(our_calls) == res.nfev
    assert (res.nfev == 500) == (name == "call-cap")
    assert np.array(our_calls, dtype=float).tobytes() == np.array(their_calls, dtype=float).tobytes()


def test_fit_does_not_depend_on_the_order_of_the_lengths(coherent_gateset):
    dataset = run_rb(coherent_gateset, RBConfig(lengths=range(1, 202, 10), k_per_length=20, seed=3))
    order = np.random.default_rng(17).permutation(len(dataset.lengths))
    permuted = RBDataset(
        lengths=tuple(dataset.lengths[i] for i in order),
        survivals=tuple(dataset.survivals[i] for i in order),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model in ("zeroth", "first"):
            assert fit_decay(permuted, model=model) == fit_decay(dataset, model=model)


def test_fit_of_nan_means_raises_fit_error():
    # RBDataset rejects NaN, so a stand-in with the two fields fit_decay reads
    means = 0.5 + 0.5 * 0.99 ** np.asarray(LENGTHS, dtype=float)
    means[3] = np.nan
    with pytest.raises(FitError, match="every restart"):
        fit_decay(SimpleNamespace(lengths=LENGTHS, means=means))


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


def test_config_needs_a_length():
    with pytest.raises(ValueError, match="at least one length"):
        RBConfig(lengths=())


@pytest.mark.parametrize(
    "changes",
    [
        {"lengths": (1.7, 3)},
        {"lengths": (True, 3)},
        {"lengths": (1, 3.0)},
        {"lengths": (0, 3)},
        {"k_per_length": 2.5},
        {"k_per_length": True},
        {"k_per_length": 0},
        {"seed": -1},
        {"seed": 1.0},
        {"repeats": 2.5},
        {"repeats": 0},
    ],
    ids=repr,
)
def test_config_rejects_sizes_that_are_not_integers_in_range(changes):
    # each was accepted: 1.7 and True read as length 1, and k 2.5 and seed -1 failed only in run_rb
    with pytest.raises(ValueError, match="must be an integer >="):
        RBConfig(**changes)


def test_config_takes_numpy_integers(perfect_gateset):
    config = RBConfig(lengths=np.array([1, 51], dtype=np.int32), k_per_length=np.int64(5), seed=np.uint64(3))
    assert config.lengths == (1, 51) and all(type(m) is int for m in config.lengths)
    assert np.allclose(run_rb(perfect_gateset, config).means, 1.0, atol=1e-12)


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


SHORT = RBConfig(lengths=(1, 51, 101, 151, 201), k_per_length=10, seed=23, repeats=3)


def test_estimate_rs_checks_the_fit_before_simulating(monkeypatch):
    monkeypatch.setattr(protocol, "run_rb", None)  # any simulation would raise TypeError
    with pytest.raises(ValueError, match="'zeroth' or 'first'"):
        estimate_rs([None], SHORT, model="second")
    with pytest.raises(ValueError, match="at least 4 distinct"):
        estimate_rs([None], replace(SHORT, lengths=(1, 2, 3)))


def test_estimate_rs_equals_estimate_r_of_each_gateset(coherent_gateset, depolarizing_gateset, general_gateset):
    gatesets = [coherent_gateset, depolarizing_gateset, general_gateset]
    estimates = estimate_rs(gatesets, SHORT)
    assert estimates == [estimate_r(g, SHORT) for g in gatesets]
    for gateset, estimate in zip(gatesets, estimates):
        fits = tuple(fit_decay(d) for d in repeat_datasets(gateset, SHORT))
        r_values = np.array([f.r_hat for f in fits])
        assert estimate.fits == fits and estimate.failures == 0
        assert estimate.r_mean == float(np.mean(r_values))
        assert estimate.r_std == float(np.std(r_values, ddof=1))


def test_estimate_rs_does_not_depend_on_the_worker_count(coherent_gateset, general_gateset, one_cpu):
    gatesets = [coherent_gateset, general_gateset]
    pooled = estimate_rs(gatesets, SHORT, model="zeroth")
    with one_cpu():
        assert _fork_workers(len(gatesets) * SHORT.repeats) == 1
        serial = estimate_rs(gatesets, SHORT, model="zeroth")
    assert pooled == serial


def test_estimate_rs_leaves_no_worker_running(coherent_gateset, depolarizing_gateset):
    estimate_rs([coherent_gateset, depolarizing_gateset], SHORT)
    assert multiprocessing.active_children() == []


def test_estimate_rs_in_a_daemonic_process(coherent_gateset, depolarizing_gateset):
    # a multiprocessing.Pool worker is daemonic and may start no children
    gatesets = [coherent_gateset, depolarizing_gateset]
    with multiprocessing.get_context("fork").Pool(1) as pool:  # terminated on exit
        estimates = pool.apply_async(estimate_rs, (gatesets, SHORT)).get(timeout=120)
    assert estimates == estimate_rs(gatesets, SHORT)


def test_fork_map_takes_a_generator_as_it_yields():
    started = []

    def items():
        for x in range(6):
            started.append(len(multiprocessing.active_children()))
            yield x

    assert _fork_map(math.factorial, items(), 6) == [math.factorial(x) for x in range(6)]
    assert multiprocessing.active_children() == []
    if _fork_workers(6) >= 2:
        # the workers run before the last item is made
        assert started[0] == 0 and started[-1] == _fork_workers(6)


def test_estimate_rs_fits_on_the_pool_unless_run_rb_uses_it(coherent_gateset, monkeypatch):
    fitted_here = []
    fit = protocol.fit_decay

    def counted_fit_decay(dataset, model="first"):
        fitted_here.append(dataset.lengths)  # a worker appends to its own copy
        return fit(dataset, model=model)

    monkeypatch.setattr(protocol, "fit_decay", counted_fit_decay)
    several = RBConfig(lengths=(1, 51, 101, 2001), k_per_length=500, seed=4, repeats=2)
    assert len(list(_batches(several.lengths, several.k_per_length))) > 1
    estimate_rs([coherent_gateset], several)
    assert len(fitted_here) == 2
    fitted_here.clear()
    estimate_rs([coherent_gateset], SHORT)  # one batch per run_rb
    assert len(fitted_here) == (SHORT.repeats if _fork_workers(SHORT.repeats) < 2 else 0)


def _counted(monkeypatch, name):
    """Replace protocol.`name` with a wrapper that appends each call's
    arguments to the returned list (calls made in this process only)."""
    calls = []
    original = getattr(protocol, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(protocol, name, counted)
    return calls


def test_estimate_rs_draws_each_repeat_once_for_every_gateset(
    coherent_gateset, depolarizing_gateset, general_gateset, one_cpu, monkeypatch
):
    gatesets = [coherent_gateset, depolarizing_gateset, general_gateset]
    config = replace(SHORT, seed=131)
    runs = _counted(monkeypatch, "run_rb")
    for gateset in gatesets:
        list(repeat_datasets(gateset, config))
    expected = [(id(g), c) for g, c in runs]  # gateset by gateset
    runs.clear()
    draws = _counted(monkeypatch, "_draw_sequences")
    with one_cpu():
        estimates = estimate_rs(gatesets, config)
    assert len(draws) == config.repeats * len(config.lengths)
    # run_rb still runs once per (gateset, repeat) on the config repeat_datasets gives it, repeat by repeat
    n = config.repeats
    assert [(id(g), c) for g, c in runs] == [expected[i * n + r] for r in range(n) for i in range(len(gatesets))]
    assert estimates == [estimate_r(g, config) for g in gatesets]


def test_estimate_rs_shares_circuits_only_on_the_same_group(coherent_gateset, one_cpu, monkeypatch):
    copy = replace(coherent_gateset, ideal=replace(coherent_gateset.ideal))
    assert copy.ideal is not coherent_gateset.ideal
    config = replace(SHORT, seed=137)
    draws = _counted(monkeypatch, "_draw_sequences")
    with one_cpu():
        original, copied = estimate_rs([coherent_gateset, copy], config)
    assert len(draws) == 2 * config.repeats * len(config.lengths)
    assert copied == original


def test_simulate_batch_keeps_one_layout(coherent_gateset, depolarizing_gateset, one_cpu, monkeypatch):
    built = []
    circuits = protocol._circuits

    def tracked(group, blocks):
        assert all(ref() is None for ref in built)  # the last layout is dropped before the next is built
        layout = circuits(group, blocks)
        built.append(weakref.ref(layout[0]))
        return layout

    monkeypatch.setattr(protocol, "_circuits", tracked)
    with one_cpu():
        for seed in (139, 149, 151):
            for gateset in (coherent_gateset, depolarizing_gateset):
                run_rb(gateset, replace(SHORT, seed=seed))
    assert len(built) == 3
    assert [ref() is not None for ref in built] == [False, False, True]
    gates, steps, _ = protocol._last_circuits["circuits"]
    assert not gates.flags.writeable and not steps.flags.writeable


def test_records_take_only_their_inputs():
    init = {record: [f.name for f in fields(record) if f.init] for record in (RBDataset, FitResult, RBEstimate)}
    assert init == {
        RBDataset: ["lengths", "survivals"],
        FitResult: ["model", "a", "b", "c", "p", "residual_norm", "flags"],
        RBEstimate: ["fits", "failures"],
    }


def test_records_pickle(coherent_gateset):
    # datasets go to `_fork_map`'s workers and fits come back from them
    dataset = run_rb(coherent_gateset, SHORT)
    fits = (fit_decay(dataset), fit_decay(_dataset_from_means(LENGTHS, np.ones(len(LENGTHS)))))
    estimate = RBEstimate(fits=fits[:1] * 2, failures=1)
    copy = pickle.loads(pickle.dumps(dataset))
    assert copy.lengths == dataset.lengths
    assert all(map(np.array_equal, copy.survivals, dataset.survivals))
    assert copy.means.tobytes() == dataset.means.tobytes() and not copy.means.flags.writeable
    fitted, flat = (pickle.loads(pickle.dumps(fit)) for fit in fits)
    assert fitted == fits[0] and fitted.r_hat == (1.0 - fits[0].p) / 2
    assert repr(flat) == repr(fits[1]) and np.isnan(flat.r_hat)  # its p is NaN, which equals nothing
    copied = pickle.loads(pickle.dumps(estimate))
    assert copied == estimate and (copied.r_mean, copied.r_std) == (fits[0].r_hat, 0.0)


def test_fit_error_pickles():
    error = pickle.loads(pickle.dumps(FitError("x", 1.0)))
    assert type(error) is FitError
    assert str(error) == str(FitError("x", 1.0))
    assert error.message == "x" and error.best_residual == 1.0


def _fail_on(monkeypatch, datasets):
    """Make fit_decay raise FitError on exactly these datasets; patched here,
    before any pool forks, so every worker inherits it."""
    chosen = {d.means.tobytes() for d in datasets}
    fit = protocol.fit_decay

    def fit_decay_or_fail(dataset, model="first"):
        if dataset.means.tobytes() in chosen:
            raise FitError("chosen to fail", 2.5)
        return fit(dataset, model=model)

    monkeypatch.setattr(protocol, "fit_decay", fit_decay_or_fail)


def test_estimate_rs_counts_failed_repeats(coherent_gateset, depolarizing_gateset, monkeypatch):
    config = replace(SHORT, repeats=4)
    expected = estimate_rs([coherent_gateset, depolarizing_gateset], config)
    datasets = list(repeat_datasets(coherent_gateset, config))
    assert len({d.means.tobytes() for d in datasets}) == 4  # one repeat fails, not its twins
    _fail_on(monkeypatch, [datasets[1], datasets[3]])
    coherent, depolarizing = estimate_rs([coherent_gateset, depolarizing_gateset], config)
    assert coherent.failures == 2
    assert coherent.fits == (expected[0].fits[0], expected[0].fits[2])
    assert coherent.r_mean == float(np.mean([f.r_hat for f in coherent.fits]))
    assert depolarizing == expected[1]


def test_estimate_rs_raises_when_most_repeats_fail(coherent_gateset, monkeypatch):
    config = replace(SHORT, repeats=4)
    _fail_on(monkeypatch, list(repeat_datasets(coherent_gateset, config))[:3])
    with pytest.raises(FitError, match="3 of 4 repeats failed"):
        estimate_rs([coherent_gateset], config)


def test_estimate_json_payload(tmp_path):
    # the simulate command writes the estimate as JSON
    payload = json.loads((_simulate(tmp_path) / "rb_fit.json").read_text())
    assert set(payload) == {"model", "A", "B", "C", "p", "r_hat", "r_std", "seed", "config", "flags"}
    assert payload["model"] == "first"
    assert abs(payload["r_hat"] - 0.005) < 1e-6


def test_spam_override_changes_asymptote(depolarizing_gateset):
    # a tilted preparation lowers every survival but the decay base survives
    tilted = Spam(np.array([1.0, 0.3, 0.0, np.sqrt(1.0 - 0.09)]) / np.sqrt(2.0), Spam.ideal().effect)
    config = RBConfig(lengths=LENGTHS, k_per_length=10, seed=77)
    dataset = run_rb(replace(depolarizing_gateset, spam=tilted), config)
    fit = fit_decay(dataset, model="first")
    assert dataset.means[0] < 0.999
    assert abs(fit.r_hat - 0.005) < 1e-6


def test_run_rb_rejects_spam_that_gives_no_probability(perfect_gateset):
    # `Spam` checks only what every gauge keeps; a state whose Bloch vector
    # has length 1.4 is caught by the survivals it gives, 1.2 on every circuit
    outside = Spam(np.array([1.0, 0.0, 0.0, 1.4]) / np.sqrt(2.0), Spam.ideal().effect)
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        run_rb(replace(perfect_gateset, spam=outside), RBConfig(lengths=(1, 2), k_per_length=3))
