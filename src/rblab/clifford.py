"""The 24-element single-qubit Clifford group, primitive-gate compilation, and
imperfect gatesets built from error models.

Clifford PTMs are signed permutations of the Pauli axes, so every group
element is stored exactly (integer entries) and composition tables are exact.
Each Clifford is compiled into a word over the two primitives Gx = R(x, pi/2)
and Gy = R(y, pi/2); words list primitives in the order they are applied to
the state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .superop import (
    Superoperator,
    depolarizing_channel,
    is_cp,
    is_tp,
    rotation_channel,
)

__all__ = [
    "PRIMITIVE_NAMES",
    "CliffordGroup",
    "Perfect",
    "CoherentZ",
    "GeneralPrimitive",
    "GateIndependent",
    "CustomPrimitive",
    "ErrorModel",
    "GateSet",
    "generate_clifford_group",
    "compile_cliffords",
    "build_gateset",
    "error_maps",
    "average_error_map",
]

PRIMITIVE_NAMES = ("Gx", "Gy")

_X_AXIS = np.array([1.0, 0.0, 0.0])
_Y_AXIS = np.array([0.0, 1.0, 0.0])
_Z_AXIS = np.array([0.0, 0.0, 1.0])


def ideal_primitives() -> dict[str, Superoperator]:
    """Exact PTMs of the two generating pi/2 rotations."""
    prims = {
        "Gx": rotation_channel(_X_AXIS, np.pi / 2.0),
        "Gy": rotation_channel(_Y_AXIS, np.pi / 2.0),
    }
    return {name: Superoperator(_snap_to_int(s.ptm)) for name, s in prims.items()}


def _snap_to_int(ptm: np.ndarray) -> np.ndarray:
    snapped = np.rint(ptm)
    if np.max(np.abs(ptm - snapped)) > 1e-12:
        raise RuntimeError("PTM is not integer-valued within 1e-12")
    return snapped


@dataclass(frozen=True)
class CliffordGroup:
    """The group as exact PTMs plus composition and inverse tables.

    cayley[i, j] is the index of elements[i] composed after elements[j]
    (PTM product elements[i] @ elements[j]).
    """

    elements: tuple[Superoperator, ...]
    cayley: np.ndarray
    inverse: np.ndarray
    identity_index: int

    def __post_init__(self):
        cayley = np.array(self.cayley, dtype=np.intp)
        inverse = np.array(self.inverse, dtype=np.intp)
        cayley.setflags(write=False)
        inverse.setflags(write=False)
        object.__setattr__(self, "cayley", cayley)
        object.__setattr__(self, "inverse", inverse)

    def __len__(self) -> int:
        return len(self.elements)


@lru_cache(maxsize=1)
def generate_clifford_group() -> CliffordGroup:
    """Close {R(x, pi/2), R(y, pi/2)} under composition into the full group.

    Breadth-first closure discovers exactly 24 distinct PTMs; the identity is
    element 0.
    """
    prims = ideal_primitives()
    prim_ptms = [prims[name].ptm for name in PRIMITIVE_NAMES]

    identity = np.eye(4)
    elements: list[np.ndarray] = [identity]
    index_of: dict[bytes, int] = {_key(identity): 0}
    queue: deque[np.ndarray] = deque([identity])
    while queue:
        current = queue.popleft()
        for prim in prim_ptms:
            candidate = prim @ current
            key = _key(candidate)
            if key not in index_of:
                index_of[key] = len(elements)
                elements.append(candidate)
                queue.append(candidate)
    if len(elements) != 24:
        raise RuntimeError(f"Clifford closure produced {len(elements)} elements, expected 24")

    size = len(elements)
    cayley = np.empty((size, size), dtype=np.intp)
    for i in range(size):
        for j in range(size):
            cayley[i, j] = index_of[_key(elements[i] @ elements[j])]
    inverse = np.empty(size, dtype=np.intp)
    for i in range(size):
        matches = np.flatnonzero(cayley[i] == 0)
        if matches.size != 1:
            raise RuntimeError("group inverse is not unique")
        inverse[i] = matches[0]

    return CliffordGroup(
        elements=tuple(Superoperator(e) for e in elements),
        cayley=cayley,
        inverse=inverse,
        identity_index=0,
    )


def _key(ptm: np.ndarray) -> bytes:
    return np.rint(ptm).astype(np.int8).tobytes()


def compile_cliffords(group: CliffordGroup) -> tuple[tuple[str, ...], ...]:
    """Shortest {Gx, Gy} word for every Clifford by breadth-first search,
    indexed like the group's elements.

    Ties are broken lexicographically with Gx < Gy; the identity gets the
    empty word (simulations skip straight to the next gate). Each word's
    recomposition is checked against the target PTM.
    """
    prims = ideal_primitives()
    target_index = {_key(e.ptm): i for i, e in enumerate(group.elements)}

    words: dict[int, tuple[str, ...]] = {group.identity_index: ()}
    queue: deque[tuple[np.ndarray, tuple[str, ...]]] = deque([(np.eye(4), ())])
    seen = {_key(np.eye(4))}
    while queue and len(words) < len(group.elements):
        current, word = queue.popleft()
        for name in PRIMITIVE_NAMES:
            candidate = prims[name].ptm @ current
            key = _key(candidate)
            if key in seen:
                continue
            seen.add(key)
            new_word = word + (name,)
            idx = target_index.get(key)
            if idx is None:
                raise RuntimeError("BFS reached a PTM outside the group")
            words[idx] = new_word
            queue.append((candidate, new_word))
    if len(words) != len(group.elements):
        raise RuntimeError("compilation search did not reach every Clifford")

    table = tuple(words[i] for i in range(len(group.elements)))
    for i, word in enumerate(table):
        rebuilt = _product_along_word(prims, word)
        if not np.array_equal(rebuilt, group.elements[i].ptm):
            raise RuntimeError(f"word for Clifford {i} does not recompose to its PTM")
    return table


def _product_along_word(prims: dict[str, Superoperator], word: tuple[str, ...]) -> np.ndarray:
    ptm = np.eye(4)
    for name in word:
        ptm = prims[name].ptm @ ptm
    return ptm


# --------------------------------------------------------------------------
# Error models
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Perfect:
    """No error: imperfect primitives equal the ideal ones."""


@dataclass(frozen=True)
class CoherentZ:
    """Systematic detuning: each primitive is preceded by R(z, theta)."""

    theta: float


@dataclass(frozen=True)
class GeneralPrimitive:
    """Combined coherent and stochastic primitive error: each primitive G
    becomes D_lam R(axis, theta) G, with separate rotations for Gx and Gy."""

    theta_x: float
    axis_x: tuple[float, float, float]
    theta_y: float
    axis_y: tuple[float, float, float]
    lam: float = 1.0

    @classmethod
    def from_error_vectors(cls, rot_x, rot_y, lam: float = 1.0) -> "GeneralPrimitive":
        """Build from unnormalized rotation vectors theta*axis."""
        theta_x, axis_x = _split_rotation_vector(rot_x)
        theta_y, axis_y = _split_rotation_vector(rot_y)
        return cls(theta_x, axis_x, theta_y, axis_y, lam)


def _split_rotation_vector(rot) -> tuple[float, tuple[float, float, float]]:
    rot = np.asarray(rot, dtype=float)
    theta = float(np.linalg.norm(rot))
    if theta == 0.0:
        return 0.0, (0.0, 0.0, 1.0)
    return theta, tuple(rot / theta)


@dataclass(frozen=True)
class GateIndependent:
    """A single error channel applied before every Clifford at the Clifford
    level (not per primitive), including the identity Clifford."""

    channel: Superoperator

    @classmethod
    def depolarizing(cls, lam: float) -> "GateIndependent":
        return cls(depolarizing_channel(lam))


@dataclass(frozen=True)
class CustomPrimitive:
    """Explicit imperfect primitive channels."""

    gx: Superoperator
    gy: Superoperator


ErrorModel = Union[Perfect, CoherentZ, GeneralPrimitive, GateIndependent, CustomPrimitive]


def _imperfect_primitives(model: ErrorModel, ideal: dict[str, Superoperator]) -> dict[str, Superoperator]:
    if isinstance(model, Perfect) or isinstance(model, GateIndependent):
        return dict(ideal)
    if isinstance(model, CoherentZ):
        err = rotation_channel(_Z_AXIS, model.theta)
        return {name: err @ gate for name, gate in ideal.items()}
    if isinstance(model, GeneralPrimitive):
        err_x = depolarizing_channel(model.lam) @ rotation_channel(np.asarray(model.axis_x), model.theta_x)
        err_y = depolarizing_channel(model.lam) @ rotation_channel(np.asarray(model.axis_y), model.theta_y)
        return {"Gx": err_x @ ideal["Gx"], "Gy": err_y @ ideal["Gy"]}
    if isinstance(model, CustomPrimitive):
        return {"Gx": model.gx, "Gy": model.gy}
    raise TypeError(f"unknown error model {model!r}")


# --------------------------------------------------------------------------
# Gatesets
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GateSet:
    """Ideal Clifford group together with its imperfect implementation.

    For word-compiled error models each imperfect Clifford is the product of
    imperfect primitives along the compilation word (so the identity Clifford
    stays perfect); GateIndependent instead multiplies its channel onto every
    ideal Clifford directly.
    """

    ideal: CliffordGroup
    imperfect: tuple[Superoperator, ...]

    def imperfect_stack(self) -> np.ndarray:
        """All imperfect Clifford PTMs as one (|C|, 4, 4) array."""
        return np.stack([e.ptm for e in self.imperfect])


def build_gateset(
    model: ErrorModel,
    group: CliffordGroup | None = None,
    compilation: tuple[tuple[str, ...], ...] | None = None,
) -> GateSet:
    """Assemble the imperfect gateset for an error model, compiling each
    Clifford along its word in `compilation` (see :func:`compile_cliffords`).

    Every imperfect primitive (or the gate-independent channel) must be CPTP;
    violations raise at construction.
    """
    group = group if group is not None else generate_clifford_group()
    compilation = compilation if compilation is not None else compile_cliffords(group)
    imperfect_prims = _imperfect_primitives(model, ideal_primitives())

    for name, gate in imperfect_prims.items():
        if not is_tp(gate) or not is_cp(gate):
            raise ValueError(f"imperfect primitive {name} is not CPTP")

    if isinstance(model, GateIndependent):
        if not is_tp(model.channel) or not is_cp(model.channel):
            raise ValueError("gate-independent error channel is not CPTP")
        imperfect = tuple(model.channel @ element for element in group.elements)
    else:
        imperfect = tuple(
            Superoperator(_product_along_word(imperfect_prims, word))
            for word in compilation
        )
    return GateSet(ideal=group, imperfect=imperfect)


def error_maps(gateset: GateSet) -> list[Superoperator]:
    """Per-gate error maps L_i = C~_i C_i^{-1}."""
    maps = []
    for tilde, ideal in zip(gateset.imperfect, gateset.ideal.elements):
        maps.append(Superoperator(tilde.ptm @ np.linalg.inv(ideal.ptm)))
    return maps


def average_error_map(gateset: GateSet) -> Superoperator:
    """Entrywise mean of the 24 error maps."""
    maps = error_maps(gateset)
    return Superoperator(np.mean([m.ptm for m in maps], axis=0))
