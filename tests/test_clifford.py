import pickle
from collections import deque
from dataclasses import fields, replace
from operator import attrgetter

import numpy as np
import pytest

from rblab import (
    CliffordGroup,
    CoherentZ,
    CustomPrimitive,
    GateIndependent,
    GateSet,
    GatesetTheory,
    GaugeTransform,
    Perfect,
    RBConfig,
    Spam,
    agi,
    average_error_map,
    build_gateset,
    delta_diamond,
    error_maps,
    exact_decay,
    run_rb,
    wallman_gauge,
)
from rblab.clifford import ideal_primitives
from rblab.superop import depolarizing_channel, rotation_channel


def test_group_has_24_signed_permutations(group):
    assert len(group) == 24
    assert group.identity_index == 0
    assert np.array_equal(group.ptms[group.identity_index], np.eye(4))
    assert [f.name for f in fields(CliffordGroup) if f.init] == ["ptms", "cayley", "inverse", "words"]
    seen = set()
    for ptm in group.ptms:
        seen.add(ptm.astype(np.int8).tobytes())
        assert set(np.unique(np.abs(ptm))) <= {0.0, 1.0}
        assert np.array_equal(np.abs(ptm) @ np.ones(4), np.ones(4))
        assert np.array_equal(ptm[0], [1, 0, 0, 0])
        assert np.array_equal(ptm[:, 0], [1, 0, 0, 0])
    assert len(seen) == 24


def test_cayley_and_inverse_tables(group):
    for i in range(24):
        assert group.cayley[i, group.inverse[i]] == group.identity_index
        assert group.cayley[group.inverse[i], i] == group.identity_index
    for i in range(24):
        for j in range(24):
            product = group.ptms[i] @ group.ptms[j]
            assert np.array_equal(product, group.ptms[group.cayley[i, j]])


def test_ptm_stack_and_its_exact_inverses(group):
    assert group.ptms.shape == (24, 4, 4)
    assert not group.ptms.flags.writeable
    for ptm, inverse in zip(group.ptms, group.ptms[group.inverse]):
        assert np.array_equal(inverse, np.linalg.inv(ptm))


def test_replace_rebuilds_ptm_stack(group):
    assert np.array_equal(replace(group).ptms, group.ptms)
    reversed_elements = replace(group, ptms=group.ptms[::-1].copy())
    assert np.array_equal(reversed_elements.ptms, group.ptms[::-1])
    assert not reversed_elements.ptms.flags.writeable


def test_index_level_associativity_sample(group):
    rng = np.random.default_rng(8)
    triples = rng.integers(0, 24, size=(10_000, 3))
    left = group.cayley[group.cayley[triples[:, 0], triples[:, 1]], triples[:, 2]]
    right = group.cayley[triples[:, 0], group.cayley[triples[:, 1], triples[:, 2]]]
    assert np.array_equal(left, right)


def _bfs_shortest_lengths(group):
    """Independent BFS oracle for shortest word lengths over {Gx, Gy}."""
    prims = [p for _, p in sorted(ideal_primitives().items())]
    lengths = {np.eye(4).astype(np.int8).tobytes(): 0}
    queue = deque([np.eye(4)])
    while queue:
        current = queue.popleft()
        depth = lengths[current.astype(np.int8).tobytes()]
        for prim in prims:
            nxt = prim @ current
            key = nxt.astype(np.int8).tobytes()
            if key not in lengths:
                lengths[key] = depth + 1
                queue.append(nxt)
    return {key: n for key, n in lengths.items()}


def test_word_lengths_match_bfs_oracle(group, table):
    oracle = _bfs_shortest_lengths(group)
    assert len(oracle) == 24
    for ptm, word in zip(group.ptms, table):
        key = ptm.astype(np.int8).tobytes()
        assert len(word) == oracle[key]


def test_compilation_table_reproduces_all_ptms(group, table):
    assert table == group.words
    prims = ideal_primitives()
    assert table[group.identity_index] == ()
    gx = prims["Gx"]
    gx_index = next(i for i, ptm in enumerate(group.ptms) if np.array_equal(ptm, gx))
    assert table[gx_index] == ("Gx",)
    for word, target in zip(group.words, group.ptms):
        ptm = np.eye(4)
        for name in word:
            ptm = prims[name] @ ptm
        assert np.array_equal(ptm, target)


def test_error_maps_equal_per_gate_inversion(coherent_gateset, general_gateset, depolarizing_gateset, group):
    # the inverse table gives np.linalg.inv's products bit for bit
    for gateset in (coherent_gateset, general_gateset, depolarizing_gateset):
        maps = [tilde @ np.linalg.inv(ideal) for tilde, ideal in zip(gateset.ptms, group.ptms)]
        assert np.array_equal(error_maps(gateset), maps)
        assert np.array_equal(average_error_map(gateset), np.mean(maps, axis=0))


def test_trivial_gateset_is_exact(perfect_gateset, group):
    assert np.array_equal(perfect_gateset.ptms, group.ptms)
    for em in error_maps(perfect_gateset):
        assert np.allclose(em, np.eye(4), atol=1e-12)
    assert np.allclose(average_error_map(perfect_gateset), np.eye(4), atol=1e-12)


def _is_unitary_channel(ptm, tol):
    """Unitary channels have orthogonal PTMs."""
    return np.max(np.abs(ptm.T @ ptm - np.eye(4))) <= tol


def test_coherent_gateset_stays_unitary(coherent_gateset, group):
    for i, (built, ideal) in enumerate(zip(coherent_gateset.ptms, group.ptms)):
        assert _is_unitary_channel(built, tol=1e-9)
        infidelity = agi(built, ideal)
        if i == group.identity_index:
            assert infidelity < 1e-14  # empty word: identity stays perfect
        else:
            assert infidelity > 0
    for em in error_maps(coherent_gateset):
        assert _is_unitary_channel(em, tol=1e-9)
    eps = np.mean([agi(t, i) for t, i in zip(coherent_gateset.ptms, group.ptms)])
    assert 5e-4 < eps < 5e-3


def test_gate_independent_applies_at_clifford_level(depolarizing_gateset, group):
    lam = 0.99
    for em in error_maps(depolarizing_gateset):
        assert np.allclose(em, np.diag([1.0, lam, lam, lam]), atol=1e-12)
    assert np.allclose(average_error_map(depolarizing_gateset), np.diag([1.0, lam, lam, lam]), atol=1e-12)
    # includes the identity Clifford: its implementation is the error channel itself
    identity_impl = depolarizing_gateset.ptms[group.identity_index]
    assert np.allclose(identity_impl, np.diag([1.0, lam, lam, lam]), atol=1e-12)


def test_alternate_compilation_changes_imperfect_not_ideal(group, table):
    # padding a word with a full 2*pi x-rotation leaves the ideal PTM fixed
    padded = list(table)
    padded[1] = tuple(padded[1]) + ("Gx",) * 4
    padded = tuple(padded)

    trivial_a = build_gateset(Perfect(), group, table)
    trivial_b = build_gateset(Perfect(), group, padded)
    assert np.array_equal(trivial_a.ptms, trivial_b.ptms)

    noisy_a = build_gateset(CoherentZ(0.12), group, table)
    noisy_b = build_gateset(CoherentZ(0.12), group, padded)
    assert not np.allclose(noisy_a.ptms[1], noisy_b.ptms[1])


def test_build_gateset_rejects_non_cptp_primitives(group, table):
    bad = np.diag([1.0, 1.4, 1.4, 1.4])
    with pytest.raises(ValueError, match="CPTP"):
        build_gateset(CustomPrimitive(gx=bad, gy=bad), group, table)
    with pytest.raises(ValueError, match="CPTP"):
        build_gateset(GateIndependent(bad), group, table)



def test_gateset_is_a_read_only_stack_of_the_group_shape(group, coherent_gateset):
    assert coherent_gateset.ptms.shape == (24, 4, 4)
    assert not coherent_gateset.ptms.flags.writeable
    with pytest.raises(ValueError):
        coherent_gateset.ptms[0, 0, 0] = 2.0
    for shape in ((23, 4, 4), (24, 3, 3)):
        with pytest.raises(ValueError, match="shape"):
            GateSet(group, np.zeros(shape))
    source = np.array(coherent_gateset.ptms)
    copy = GateSet(group, source)
    source[0] = 0.0  # the gateset holds its own copy
    assert np.array_equal(copy.ptms, coherent_gateset.ptms)


def test_build_gateset_stacks_the_per_gate_products(group, table, coherent_gateset, depolarizing_gateset):
    lam = 0.99
    channel = np.diag([1.0, lam, lam, lam])
    assert np.array_equal(depolarizing_gateset.ptms, np.stack([channel @ ptm for ptm in group.ptms]))
    prims = ideal_primitives()
    detuning = rotation_channel(np.array([0.0, 0.0, 1.0]), 0.1)
    for ptm, word in zip(coherent_gateset.ptms, table):
        expected = np.eye(4)
        for name in word:
            expected = detuning @ prims[name] @ expected
        assert np.array_equal(ptm, expected)


def _array_holders(group, gateset):
    return [
        GateIndependent.depolarizing(0.9),
        CustomPrimitive(np.eye(4), np.eye(4)),
        Spam.ideal(),
        group,
        gateset,
        run_rb(gateset, RBConfig(lengths=(1, 2), k_per_length=2)),
        exact_decay(gateset)[0],
        GatesetTheory(gateset),
        delta_diamond(gateset),
        GaugeTransform(np.eye(4)),
        wallman_gauge(GatesetTheory(gateset)),
    ]


def test_array_dataclasses_compare_by_identity(group, coherent_gateset):
    for first, second in zip(_array_holders(group, coherent_gateset), _array_holders(group, coherent_gateset)):
        assert (first == first) is True
        assert (first == second) is (first is second)
        assert isinstance(hash(first), int)
        assert first in [second, first]


def test_array_records_pickle_read_only(coherent_gateset):
    # records cross `_fork_map` pickled (gatesets, with their group and SPAM,
    # to the simulation workers, datasets to the fit workers); numpy
    # unpickles every array writable, so each record is rebuilt by its
    # constructor
    spam = Spam(np.array([1.0, 0.3, -0.5, 0.7]) / np.sqrt(2.0), [0.5, 0.1, 0.2, 0.3])
    tilted = replace(coherent_gateset, spam=spam)
    transform = GaugeTransform.random_tp(seed=3, scale=0.3)
    arrays = {
        GateIndependent.depolarizing(0.9): ["channel"],
        CustomPrimitive(np.eye(4), np.diag([1.0, 0.9, 0.9, 0.9])): ["gx", "gy"],
        tilted: ["ptms", "ideal.ptms", "ideal.cayley", "ideal.inverse", "spam.state", "spam.effect"],
        run_rb(tilted, RBConfig(lengths=(1, 2, 7), k_per_length=5)): ["means"],
        transform: ["m", "m_inv"],
        transform.transform_gateset(tilted): ["ptms", "spam.state", "spam.effect"],
    }
    for record, names in arrays.items():
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record)
        for name in names:
            original, copied = attrgetter(name)(record), attrgetter(name)(copy)
            assert not copied.flags.writeable, f"{type(record).__name__}.{name}"
            assert copied.dtype == original.dtype and copied.tobytes() == original.tobytes()
    assert pickle.loads(pickle.dumps(tilted)).ideal.words == tilted.ideal.words


def test_channel_holders_keep_a_read_only_copy(group):
    # the channel constructors, the error models and the Wallman gauge hold
    # each channel as `as_channel` returns it; the models reject any other
    # PTM shape
    source = np.diag([1.0, 0.9, 0.9, 0.9])
    dep = GateIndependent(source)
    custom = CustomPrimitive(gx=source.tolist(), gy=source)
    source[1, 1] = 0.5  # each holds its own copy
    wallman = wallman_gauge(GatesetTheory(build_gateset(dep, group)))
    made = (rotation_channel(np.array([0.0, 0.0, 1.0]), 0.3), depolarizing_channel(0.9), *ideal_primitives().values())
    for channel in (dep.channel, custom.gx, custom.gy, wallman.l_op, *made):
        assert channel.shape == (4, 4) and channel.dtype == np.float64 and not channel.flags.writeable
    assert dep.channel[1, 1] == custom.gy[1, 1] == 0.9
    for bad in (np.eye(3), np.eye(16)):
        with pytest.raises(ValueError, match="4x4"):
            GateIndependent(bad)
        with pytest.raises(ValueError, match="4x4"):
            CustomPrimitive(np.eye(4), bad)
