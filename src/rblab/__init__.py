"""Numerical laboratory for single-qubit randomized benchmarking with
gate-dependent noise: exact and approximate decay theories, gauge analysis
of the average gateset infidelity, and a seeded simulation harness.

The package re-exports the public names of its five library modules; each
module's `__all__` is the one list of them."""

from . import clifford, gauge, protocol, superop, theory
from .superop import *
from .clifford import *
from .protocol import *
from .theory import *
from .gauge import *

__all__ = [*superop.__all__, *clifford.__all__, *protocol.__all__, *theory.__all__, *gauge.__all__]

__version__ = "0.1.0"
