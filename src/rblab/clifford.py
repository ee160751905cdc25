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
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar, Union

import numpy as np

from .superop import (
    Spam,
    _read_only_record,
    as_channel,
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


def ideal_primitives() -> dict[str, np.ndarray]:
    """Exact PTMs of the two generating pi/2 rotations."""
    prims = {
        "Gx": rotation_channel(_X_AXIS, np.pi / 2.0),
        "Gy": rotation_channel(_Y_AXIS, np.pi / 2.0),
    }
    return {name: as_channel(_snap_to_int(s)) for name, s in prims.items()}


def _snap_to_int(ptm: np.ndarray) -> np.ndarray:
    snapped = np.rint(ptm)
    if np.max(np.abs(ptm - snapped)) > 1e-12:
        raise RuntimeError("PTM is not integer-valued within 1e-12")
    return snapped


@_read_only_record
class CliffordGroup:
    """The group as its exact PTM stack plus composition and inverse tables.

    ptms is the read-only (|C|, 4, 4) stack of the element PTMs;
    cayley[i, j] is the index of element i composed after element j (PTM
    product ptms[i] @ ptms[j]), ptms[inverse] stacks their exact inverses
    and words[i] is element i's shortest {Gx, Gy} word. The identity is
    element 0, as the closure of `generate_clifford_group` finds it first.
    """

    identity_index: ClassVar[int] = 0

    ptms: np.ndarray
    cayley: np.ndarray
    inverse: np.ndarray
    words: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        for name, table in (
            ("ptms", np.array(self.ptms, dtype=float)),
            ("cayley", np.array(self.cayley, dtype=np.intp)),
            ("inverse", np.array(self.inverse, dtype=np.intp)),
        ):
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    def __len__(self) -> int:
        return len(self.ptms)


@lru_cache(maxsize=1)
def generate_clifford_group() -> CliffordGroup:
    """Close {R(x, pi/2), R(y, pi/2)} under composition into the full group.

    Breadth-first closure discovers exactly 24 distinct PTMs, each with its
    shortest word; the identity is element 0.
    """
    elements, words = zip(*_closure(ideal_primitives()))
    if len(elements) != 24:
        raise RuntimeError(f"Clifford closure produced {len(elements)} elements, expected 24")

    index_of = {_key(e): i for i, e in enumerate(elements)}
    cayley = np.array([[index_of[_key(a @ b)] for b in elements] for a in elements], dtype=np.intp)
    identities = cayley == CliffordGroup.identity_index
    if np.any(identities.sum(axis=1) != 1):
        raise RuntimeError("group inverse is not unique")

    return CliffordGroup(
        ptms=np.stack(elements),
        cayley=cayley,
        inverse=identities.argmax(axis=1),
        words=words,
    )


def _key(ptm: np.ndarray) -> bytes:
    return np.rint(ptm).astype(np.int8).tobytes()


def _closure(prims: dict[str, np.ndarray]):
    """Breadth-first closure of the primitives under composition, from the
    identity: yields each distinct PTM once, in order of discovery, with its
    shortest word (Gx tried before Gy at every step, `prim @ current`)."""
    identity = np.eye(4)
    seen = {_key(identity)}
    queue: deque[tuple[np.ndarray, tuple[str, ...]]] = deque([(identity, ())])
    while queue:
        current, word = queue.popleft()
        yield current, word
        for name in PRIMITIVE_NAMES:
            candidate = prims[name] @ current
            key = _key(candidate)
            if key not in seen:
                seen.add(key)
                queue.append((candidate, word + (name,)))


def compile_cliffords(group: CliffordGroup) -> tuple[tuple[str, ...], ...]:
    """Shortest {Gx, Gy} word of every Clifford, indexed like the group's
    elements: `group.words`, from its closure. Ties are broken with Gx < Gy;
    the identity's word is empty (simulations skip straight to the next gate)."""
    return group.words


def _product_along_word(prims: dict[str, np.ndarray], word: tuple[str, ...]) -> np.ndarray:
    ptm = np.eye(4)
    for name in word:
        ptm = prims[name] @ ptm
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


@_read_only_record
class GateIndependent:
    """A single error channel applied before every Clifford at the Clifford
    level (not per primitive), including the identity Clifford."""

    channel: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "channel", as_channel(self.channel))

    @classmethod
    def depolarizing(cls, lam: float) -> "GateIndependent":
        return cls(depolarizing_channel(lam))


@_read_only_record
class CustomPrimitive:
    """Explicit imperfect primitive channels."""

    gx: np.ndarray
    gy: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gx", as_channel(self.gx))
        object.__setattr__(self, "gy", as_channel(self.gy))


ErrorModel = Union[Perfect, CoherentZ, GeneralPrimitive, GateIndependent, CustomPrimitive]


def _imperfect_primitives(model: ErrorModel, ideal: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
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


@_read_only_record
class GateSet:
    """Ideal Clifford group together with its imperfect implementation.

    ptms is the read-only (|C|, 4, 4) stack of the imperfect Clifford PTMs,
    indexed like the group. For word-compiled error models each is the
    product of imperfect primitives along the compilation word (so the
    identity Clifford stays perfect); GateIndependent instead multiplies its
    channel onto every ideal Clifford directly. spam, ideal by default, is
    the state every circuit starts from and the effect it ends with.
    """

    ideal: CliffordGroup
    ptms: np.ndarray
    spam: Spam = field(default_factory=Spam.ideal)

    def __post_init__(self):
        ptms = np.array(self.ptms, dtype=float)
        if ptms.shape != self.ideal.ptms.shape:
            raise ValueError(f"gateset PTMs must have shape {self.ideal.ptms.shape}, got {ptms.shape}")
        ptms.setflags(write=False)
        object.__setattr__(self, "ptms", ptms)


def build_gateset(
    model: ErrorModel,
    group: CliffordGroup | None = None,
    compilation: tuple[tuple[str, ...], ...] | None = None,
) -> GateSet:
    """Assemble the imperfect gateset for an error model, compiling each
    Clifford along its word in `compilation` (by default `group.words`).

    Every imperfect primitive (or the gate-independent channel) must be CPTP;
    violations raise at construction.
    """
    group = group if group is not None else generate_clifford_group()
    compilation = compilation if compilation is not None else group.words
    imperfect_prims = _imperfect_primitives(model, ideal_primitives())

    for name, gate in imperfect_prims.items():
        if not is_tp(gate) or not is_cp(gate):
            raise ValueError(f"imperfect primitive {name} is not CPTP")

    if isinstance(model, GateIndependent):
        if not is_tp(model.channel) or not is_cp(model.channel):
            raise ValueError("gate-independent error channel is not CPTP")
        return GateSet(ideal=group, ptms=model.channel @ group.ptms)
    return GateSet(ideal=group, ptms=np.stack([_product_along_word(imperfect_prims, word) for word in compilation]))


def error_maps(gateset: GateSet) -> np.ndarray:
    """The (|C|, 4, 4) stack of per-gate error maps L_i = C~_i C_i^{-1},
    each inverse exact from the group's table."""
    group = gateset.ideal
    return gateset.ptms @ group.ptms[group.inverse]


def average_error_map(gateset: GateSet) -> np.ndarray:
    """Entrywise mean of the 24 error maps, a 4x4 PTM."""
    return error_maps(gateset).mean(axis=0)
