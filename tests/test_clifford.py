from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from rblab import (
    CoherentZ,
    CustomPrimitive,
    GateIndependent,
    Perfect,
    Superoperator,
    agi,
    average_error_map,
    build_gateset,
    error_maps,
)
from rblab.clifford import ideal_primitives


def test_group_has_24_signed_permutations(group):
    assert len(group) == 24
    assert group.identity_index == 0
    seen = set()
    for element in group.elements:
        ptm = element.ptm
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
            product = group.elements[i].ptm @ group.elements[j].ptm
            assert np.array_equal(product, group.elements[group.cayley[i, j]].ptm)


def test_ptm_stack_and_its_exact_inverses(group):
    assert group.ptms.shape == (24, 4, 4)
    assert not group.ptms.flags.writeable
    assert np.array_equal(group.ptms, np.stack([e.ptm for e in group.elements]))
    for ptm, inverse in zip(group.ptms, group.ptms[group.inverse]):
        assert np.array_equal(inverse, np.linalg.inv(ptm))


def test_replace_rebuilds_ptm_stack(group):
    assert np.array_equal(replace(group).ptms, group.ptms)
    reversed_elements = replace(group, elements=group.elements[::-1])
    assert np.array_equal(reversed_elements.ptms, group.ptms[::-1])


def test_index_level_associativity_sample(group):
    rng = np.random.default_rng(8)
    triples = rng.integers(0, 24, size=(10_000, 3))
    left = group.cayley[group.cayley[triples[:, 0], triples[:, 1]], triples[:, 2]]
    right = group.cayley[triples[:, 0], group.cayley[triples[:, 1], triples[:, 2]]]
    assert np.array_equal(left, right)


def _bfs_shortest_lengths(group):
    """Independent BFS oracle for shortest word lengths over {Gx, Gy}."""
    prims = [p.ptm for _, p in sorted(ideal_primitives().items())]
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
    for element, word in zip(group.elements, table):
        key = element.ptm.astype(np.int8).tobytes()
        assert len(word) == oracle[key]


def test_compilation_table_reproduces_all_ptms(group, table):
    assert table == group.words
    prims = ideal_primitives()
    assert table[group.identity_index] == ()
    gx = prims["Gx"]
    gx_index = next(i for i, e in enumerate(group.elements) if np.array_equal(e.ptm, gx.ptm))
    assert table[gx_index] == ("Gx",)
    for word, target in zip(group.words, group.ptms):
        ptm = np.eye(4)
        for name in word:
            ptm = prims[name].ptm @ ptm
        assert np.array_equal(ptm, target)


def test_error_maps_equal_per_gate_inversion(coherent_gateset, general_gateset, depolarizing_gateset, group):
    # the inverse table gives np.linalg.inv's products bit for bit
    for gateset in (coherent_gateset, general_gateset, depolarizing_gateset):
        maps = [tilde.ptm @ np.linalg.inv(ideal.ptm) for tilde, ideal in zip(gateset.imperfect, group.elements)]
        assert all(np.array_equal(em.ptm, m) for em, m in zip(error_maps(gateset), maps))
        assert np.array_equal(average_error_map(gateset).ptm, np.mean(maps, axis=0))


def test_trivial_gateset_is_exact(perfect_gateset, group):
    for built, ideal in zip(perfect_gateset.imperfect, group.elements):
        assert np.array_equal(built.ptm, ideal.ptm)
    maps = error_maps(perfect_gateset)
    for em in maps:
        assert np.allclose(em.ptm, np.eye(4), atol=1e-12)
    assert np.allclose(average_error_map(perfect_gateset).ptm, np.eye(4), atol=1e-12)


def _is_unitary_channel(s, tol):
    """Unitary channels have orthogonal PTMs."""
    return np.max(np.abs(s.ptm.T @ s.ptm - np.eye(4))) <= tol


def test_coherent_gateset_stays_unitary(coherent_gateset, group):
    for i, (built, ideal) in enumerate(zip(coherent_gateset.imperfect, group.elements)):
        assert _is_unitary_channel(built, tol=1e-9)
        infidelity = agi(built, ideal)
        if i == group.identity_index:
            assert infidelity < 1e-14  # empty word: identity stays perfect
        else:
            assert infidelity > 0
    for em in error_maps(coherent_gateset):
        assert _is_unitary_channel(em, tol=1e-9)
    eps = np.mean([agi(t, i) for t, i in zip(coherent_gateset.imperfect, group.elements)])
    assert 5e-4 < eps < 5e-3


def test_gate_independent_applies_at_clifford_level(depolarizing_gateset, group):
    lam = 0.99
    for em in error_maps(depolarizing_gateset):
        assert np.allclose(em.ptm, np.diag([1.0, lam, lam, lam]), atol=1e-12)
    assert np.allclose(average_error_map(depolarizing_gateset).ptm, np.diag([1.0, lam, lam, lam]), atol=1e-12)
    # includes the identity Clifford: its implementation is the error channel itself
    identity_impl = depolarizing_gateset.imperfect[group.identity_index]
    assert np.allclose(identity_impl.ptm, np.diag([1.0, lam, lam, lam]), atol=1e-12)


def test_alternate_compilation_changes_imperfect_not_ideal(group, table):
    # padding a word with a full 2*pi x-rotation leaves the ideal PTM fixed
    padded = list(table)
    padded[1] = tuple(padded[1]) + ("Gx",) * 4
    padded = tuple(padded)

    trivial_a = build_gateset(Perfect(), group, table)
    trivial_b = build_gateset(Perfect(), group, padded)
    for a, b in zip(trivial_a.imperfect, trivial_b.imperfect):
        assert np.array_equal(a.ptm, b.ptm)

    noisy_a = build_gateset(CoherentZ(0.12), group, table)
    noisy_b = build_gateset(CoherentZ(0.12), group, padded)
    assert not np.allclose(noisy_a.imperfect[1].ptm, noisy_b.imperfect[1].ptm)


def test_build_gateset_rejects_non_cptp_primitives(group, table):
    bad = Superoperator(np.diag([1.0, 1.4, 1.4, 1.4]))
    with pytest.raises(ValueError, match="CPTP"):
        build_gateset(CustomPrimitive(gx=bad, gy=bad), group, table)
    with pytest.raises(ValueError, match="CPTP"):
        build_gateset(GateIndependent(bad), group, table)

