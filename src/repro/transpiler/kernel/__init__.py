"""Flat int-array routing kernel (pure python/numpy ``build_swap_map`` shape).

The package mirrors the structure qiskit uses when it delegates Sabre to
``qiskit._accelerate.sabre_swap`` — a :class:`~repro.transpiler.kernel.intdag.IntDAG`
lowering of the circuit DAG, a
:class:`~repro.transpiler.kernel.neighbors.NeighborTable` over the coupling
map, and a :func:`~repro.transpiler.kernel.route.route_kernel` inner loop
over preallocated int/float arrays.  The whole loop, MIRAGE's mirror
decision included, also runs as a small C extension (``_routec.c``,
built on first use by :mod:`~repro.transpiler.kernel.native`) reading
those arrays in place, with the Python loop as the fallback and
reference.  Outputs are bit-identical to the object-path router
(``MIRAGE_ROUTE_KERNEL=object``) at a fixed seed, with or without the
extension.
"""

from repro.transpiler.kernel.intdag import IntDAG, adopt_intdag, int_dag
from repro.transpiler.kernel.neighbors import NeighborTable, neighbor_table
from repro.transpiler.kernel.route import (
    KernelState,
    MirrorRule,
    route_kernel,
    route_kernel_mode,
)

__all__ = [
    "IntDAG",
    "KernelState",
    "MirrorRule",
    "NeighborTable",
    "adopt_intdag",
    "int_dag",
    "neighbor_table",
    "route_kernel",
    "route_kernel_mode",
]
