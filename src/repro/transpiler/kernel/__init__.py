"""Flat int-array routing kernel (``build_swap_map`` shape).

The package mirrors the structure qiskit uses when it delegates Sabre to
``qiskit._accelerate.sabre_swap`` — a :class:`~repro.transpiler.kernel.intdag.IntDAG`
lowering of the circuit's op stream, a
:class:`~repro.transpiler.kernel.neighbors.NeighborTable` over the coupling
map, and a :func:`~repro.transpiler.kernel.route.route_kernel` loop over
preallocated int/float arrays, the only route loop.  The whole loop,
MIRAGE's mirror decision included, runs as a small C extension
(``_routec.c``, built on first use by
:mod:`~repro.transpiler.kernel.native`) reading those arrays in place,
with the pure-Python loop as the fallback and reference.  Outputs are
bit-identical at a fixed seed with or without the extension.
"""

from repro.transpiler.kernel.intdag import IntDAG
from repro.transpiler.kernel.neighbors import NeighborTable, neighbor_table
from repro.transpiler.kernel.route import KernelState, MirrorRule, route_kernel

__all__ = [
    "IntDAG",
    "KernelState",
    "MirrorRule",
    "NeighborTable",
    "neighbor_table",
    "route_kernel",
]
