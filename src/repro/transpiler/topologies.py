"""Quantum-machine topologies (coupling maps).

The paper evaluates MIRAGE on a 57-qubit heavy-hex lattice and a 6x6 square
lattice; the 4-qubit line of Fig. 8 and all-to-all connectivity also appear
in the analysis sections.  :class:`CouplingMap` wraps a ``networkx`` graph
with the distance queries routing needs.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

import networkx as nx
import numpy as np

from repro.exceptions import TranspilerError


class CouplingMap:
    """Undirected qubit-connectivity graph of a target machine.

    Args:
        edges: iterable of physical-qubit pairs.
        num_qubits: total qubit count (inferred from edges when omitted).
        name: label used in reports.
    """

    def __init__(
        self,
        edges: Iterable[tuple[int, int]],
        num_qubits: int | None = None,
        name: str = "custom",
    ) -> None:
        edge_list = [(int(a), int(b)) for a, b in edges]
        if any(a == b for a, b in edge_list):
            raise TranspilerError("coupling map contains a self-loop")
        if any(a < 0 or b < 0 for a, b in edge_list):
            raise TranspilerError("coupling map contains a negative qubit index")
        inferred = max((max(a, b) for a, b in edge_list), default=-1) + 1
        self.num_qubits = int(num_qubits) if num_qubits is not None else inferred
        if self.num_qubits < inferred:
            raise TranspilerError("num_qubits smaller than the largest edge index")
        self.name = name
        self.graph = nx.Graph()
        self.graph.add_nodes_from(range(self.num_qubits))
        self.graph.add_edges_from(edge_list)

    # -- basic queries ------------------------------------------------------

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [tuple(sorted(edge)) for edge in self.graph.edges]

    def neighbors(self, qubit: int) -> list[int]:
        return sorted(self.graph.neighbors(qubit))

    def degree(self, qubit: int) -> int:
        return self.graph.degree[qubit]

    def are_connected(self, qubit_a: int, qubit_b: int) -> bool:
        return self.graph.has_edge(qubit_a, qubit_b)

    def is_connected_graph(self) -> bool:
        return nx.is_connected(self.graph)

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest-path distances (hops)."""
        matrix = np.full((self.num_qubits, self.num_qubits), np.inf)
        lengths = dict(nx.all_pairs_shortest_path_length(self.graph))
        for source, targets in lengths.items():
            for target, distance in targets.items():
                matrix[source, target] = distance
        np.fill_diagonal(matrix, 0.0)
        return matrix

    def distance(self, qubit_a: int, qubit_b: int) -> float:
        return float(self.distance_matrix[qubit_a, qubit_b])

    def shortest_path(self, qubit_a: int, qubit_b: int) -> list[int]:
        return nx.shortest_path(self.graph, qubit_a, qubit_b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CouplingMap(name={self.name!r}, qubits={self.num_qubits}, "
            f"edges={self.graph.number_of_edges()})"
        )


# ---------------------------------------------------------------------------
# Standard topology constructors
# ---------------------------------------------------------------------------


def line_topology(num_qubits: int) -> CouplingMap:
    """A 1-D chain of qubits."""
    edges = [(i, i + 1) for i in range(num_qubits - 1)]
    return CouplingMap(edges, num_qubits, name=f"line-{num_qubits}")


def ring_topology(num_qubits: int) -> CouplingMap:
    """A 1-D chain with periodic boundary."""
    if num_qubits < 3:
        raise TranspilerError("a ring needs at least three qubits")
    edges = [(i, (i + 1) % num_qubits) for i in range(num_qubits)]
    return CouplingMap(edges, num_qubits, name=f"ring-{num_qubits}")


def grid_topology(rows: int, cols: int) -> CouplingMap:
    """A rows x cols square lattice (the paper's 6x6 Square-Lattice)."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            index = r * cols + c
            if c + 1 < cols:
                edges.append((index, index + 1))
            if r + 1 < rows:
                edges.append((index, index + cols))
    return CouplingMap(edges, rows * cols, name=f"grid-{rows}x{cols}")


def square_lattice_topology(side: int = 6) -> CouplingMap:
    """Square lattice with ``side x side`` qubits (default 6x6 = 36Q)."""
    coupling = grid_topology(side, side)
    coupling.name = f"square-lattice-{side}x{side}"
    return coupling


def all_to_all_topology(num_qubits: int) -> CouplingMap:
    """Fully connected topology (used for pure-decomposition analyses)."""
    edges = [
        (a, b) for a in range(num_qubits) for b in range(a + 1, num_qubits)
    ]
    return CouplingMap(edges, num_qubits, name=f"a2a-{num_qubits}")


def heavy_hex_topology(num_qubits: int = 57) -> CouplingMap:
    """Heavy-hex lattice with (at least) ``num_qubits`` qubits, trimmed to size.

    The heavy-hexagon graph is a hexagonal lattice with an extra qubit on
    every edge (IBM's standard layout).  We generate a hexagonal lattice
    large enough, subdivide each edge, then keep a connected
    breadth-first-search region of exactly ``num_qubits`` qubits, which
    reproduces the low average degree (2 - 2.4) that makes routing on
    heavy-hex hard.
    """
    if num_qubits < 5:
        raise TranspilerError("heavy-hex needs at least five qubits")
    rows = cols = 1
    while True:
        base = nx.hexagonal_lattice_graph(rows, cols)
        subdivided = nx.Graph()
        mapping = {node: i for i, node in enumerate(base.nodes)}
        next_index = len(mapping)
        for u, v in base.edges:
            midpoint = next_index
            next_index += 1
            subdivided.add_edge(mapping[u], midpoint)
            subdivided.add_edge(midpoint, mapping[v])
        if subdivided.number_of_nodes() >= num_qubits:
            break
        if rows <= cols:
            rows += 1
        else:
            cols += 1

    start = next(iter(subdivided.nodes))
    selected: list[int] = []
    for node in nx.bfs_tree(subdivided, start):
        selected.append(node)
        if len(selected) == num_qubits:
            break
    region = subdivided.subgraph(selected)
    relabel = {node: index for index, node in enumerate(selected)}
    edges = [(relabel[a], relabel[b]) for a, b in region.edges]
    coupling = CouplingMap(edges, num_qubits, name=f"heavy-hex-{num_qubits}")
    if not coupling.is_connected_graph():
        raise TranspilerError("heavy-hex trimming produced a disconnected graph")
    return coupling


def topology_by_name(name: str, num_qubits: int) -> CouplingMap:
    """Look up a topology constructor by name.

    Supported names: ``line``, ``ring``, ``grid``/``square``, ``heavy_hex``,
    ``a2a``/``full``.
    """
    lowered = name.lower().replace("-", "_")
    if lowered == "line":
        return line_topology(num_qubits)
    if lowered == "ring":
        return ring_topology(num_qubits)
    if lowered in {"grid", "square", "square_lattice"}:
        side = int(np.ceil(np.sqrt(num_qubits)))
        return square_lattice_topology(side)
    if lowered in {"heavy_hex", "heavyhex"}:
        return heavy_hex_topology(max(num_qubits, 5))
    if lowered in {"a2a", "full", "all_to_all"}:
        return all_to_all_topology(num_qubits)
    raise TranspilerError(f"unknown topology {name!r}")
