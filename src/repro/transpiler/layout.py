"""Layouts: mappings between virtual (program) and physical (device) qubits.

Routing passes permute the layout as they insert SWAP gates (or accept
mirror gates); the layout object therefore supports cheap in-place swapping
in both directions plus the VF2-style search for a SWAP-free embedding that
the paper runs before invoking SABRE / MIRAGE.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx
import numpy as np

from repro.exceptions import CircuitError, TranspilerError
from repro.circuits.circuit import OpList, QuantumCircuit
from repro.transpiler.topologies import CouplingMap


class Layout:
    """A bijection between virtual qubits ``0..n-1`` and physical qubits.

    Physical registers may be wider than the program; unused physical qubits
    simply have no virtual owner.
    """

    def __init__(self, virtual_to_physical: Sequence[int], num_physical: int) -> None:
        v2p = [int(p) for p in virtual_to_physical]
        if len(set(v2p)) != len(v2p):
            raise TranspilerError("layout maps two virtual qubits to one physical qubit")
        if any(p < 0 or p >= num_physical for p in v2p):
            raise TranspilerError("layout physical index out of range")
        self.num_physical = num_physical
        self._v2p = list(v2p)
        self._p2v: dict[int, int] = {p: v for v, p in enumerate(v2p)}

    # -- constructors -----------------------------------------------------

    @classmethod
    def trivial(cls, num_virtual: int, num_physical: int | None = None) -> "Layout":
        num_physical = num_physical if num_physical is not None else num_virtual
        return cls(list(range(num_virtual)), num_physical)

    @classmethod
    def random(
        cls,
        num_virtual: int,
        num_physical: int,
        seed: int | np.random.Generator | None = None,
    ) -> "Layout":
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        physical = rng.permutation(num_physical)[:num_virtual]
        return cls([int(p) for p in physical], num_physical)

    # -- queries ----------------------------------------------------------

    @property
    def num_virtual(self) -> int:
        return len(self._v2p)

    def v2p(self, virtual: int) -> int:
        return self._v2p[virtual]

    def p2v(self, physical: int) -> int | None:
        return self._p2v.get(physical)

    def virtual_to_physical(self) -> list[int]:
        return list(self._v2p)

    # -- mutation -----------------------------------------------------------

    def swap_physical(self, physical_a: int, physical_b: int) -> None:
        """Exchange the virtual qubits living on two physical qubits."""
        va = self._p2v.get(physical_a)
        vb = self._p2v.get(physical_b)
        if va is not None:
            self._v2p[va] = physical_b
            self._p2v[physical_b] = va
        else:
            self._p2v.pop(physical_b, None)
        if vb is not None:
            self._v2p[vb] = physical_a
            self._p2v[physical_a] = vb
        else:
            self._p2v.pop(physical_a, None)

    def swap_virtual(self, virtual_a: int, virtual_b: int) -> None:
        """Exchange the physical homes of two virtual qubits."""
        pa, pb = self._v2p[virtual_a], self._v2p[virtual_b]
        self._v2p[virtual_a], self._v2p[virtual_b] = pb, pa
        self._p2v[pa], self._p2v[pb] = virtual_b, virtual_a

    def copy(self) -> "Layout":
        return Layout(list(self._v2p), self.num_physical)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Layout) and self._v2p == other._v2p

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Layout({self._v2p})"


def interaction_graph(circuit: QuantumCircuit | OpList) -> nx.Graph:
    """Graph whose edges are the qubit pairs coupled by two-qubit gates."""
    graph = nx.Graph()
    graph.add_nodes_from(range(circuit.num_qubits))
    for gate, qubits in OpList.of(circuit).ops:
        if len(qubits) == 2 and not gate.is_directive:
            graph.add_edge(*qubits)
    return graph


def vf2_layout(
    circuit: QuantumCircuit | OpList,
    coupling: CouplingMap,
    *,
    max_program_edges: int = 64,
) -> Layout | None:
    """Search for a SWAP-free embedding of the circuit interaction graph.

    Returns a :class:`Layout` if the interaction graph is subgraph-monomorphic
    to the coupling graph (every program edge lands on a hardware edge), or
    ``None`` otherwise.  This mirrors Qiskit's ``VF2Layout`` gate-free check
    described in the paper's experimental setup.

    Cheap necessary conditions (qubit count, edge count, maximum degree) are
    checked first, and dense interaction graphs above ``max_program_edges``
    are rejected without invoking the exponential VF2 search — such circuits
    need SWAPs on any sparse hardware graph anyway.
    """
    program = interaction_graph(circuit)
    if program.number_of_edges() == 0:
        return Layout.trivial(circuit.num_qubits, coupling.num_qubits)
    if circuit.num_qubits > coupling.num_qubits:
        return None
    if program.number_of_edges() > coupling.graph.number_of_edges():
        return None
    max_program_degree = max(degree for _, degree in program.degree)
    max_coupling_degree = max(degree for _, degree in coupling.graph.degree)
    if max_program_degree > max_coupling_degree:
        return None
    if program.number_of_edges() > max_program_edges:
        return None

    matcher = nx.algorithms.isomorphism.GraphMatcher(coupling.graph, program)
    for mapping in matcher.subgraph_monomorphisms_iter():
        physical_by_virtual = {v: p for p, v in mapping.items()}
        used = set(physical_by_virtual.values())
        free = (p for p in range(coupling.num_qubits) if p not in used)
        virtual_to_physical = [
            physical_by_virtual.get(virtual, None) for virtual in range(circuit.num_qubits)
        ]
        virtual_to_physical = [
            p if p is not None else next(free) for p in virtual_to_physical
        ]
        return Layout(virtual_to_physical, coupling.num_qubits)
    return None


def apply_layout(
    circuit: QuantumCircuit | OpList, layout: Layout, num_physical: int
) -> QuantumCircuit:
    """Relabel a circuit's (or op list's) virtual qubits onto physical qubits.

    The relabelled circuit is built in one step: checking the layout's
    physical qubits against ``num_physical`` checks every op's.
    """
    lowered = OpList.of(circuit)
    mapping = [layout.v2p(q) for q in range(lowered.num_qubits)]
    if mapping and max(mapping) >= num_physical:
        raise CircuitError(
            f"qubit {max(mapping)} out of range for {num_physical}-qubit circuit"
        )
    return QuantumCircuit._from_ops(
        num_physical,
        [(gate, tuple([mapping[q] for q in qubits])) for gate, qubits in lowered.ops],
        lowered.name,
    )
