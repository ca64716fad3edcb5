"""Transpilation quality metrics.

The paper evaluates transpilers on three axes (Section V / VI-B):

* **critical-path depth** — the weighted longest path through the mapped
  DAG, where every two-qubit block is weighted by its estimated
  decomposition cost in normalised pulse units (iSWAP = 1.0, sqrt(iSWAP) =
  0.5, a SWAP in the sqrt(iSWAP) basis = 1.5, ...);
* **total two-qubit gate cost** — the same weights summed over all nodes;
* **SWAP count** — explicitly inserted SWAP gates (a mirrored gate absorbs
  its SWAP and therefore does not count).

The decomposition-cost estimate comes from the coverage set of the target
basis gate, exactly as MIRAGE itself estimates costs while routing.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import DAGCircuit, DAGNode
from repro.circuits.gates import Gate, UnitaryGate
from repro.polytopes.cache import GLOBAL_COORDINATE_CACHE
from repro.polytopes.coverage import CoverageSet, get_coverage_set
from repro.weyl.catalog import coordinate_of_named_gate


def gate_coordinate(gate) -> tuple[float, float, float]:
    """Weyl coordinate of a two-qubit gate.

    Uses, in order of preference: the coordinate annotation cached on a
    consolidated :class:`UnitaryGate` block, the closed-form coordinate of a
    named gate, or a (cached) extraction from the gate matrix.
    """
    if isinstance(gate, UnitaryGate) and gate.coordinate is not None:
        return gate.coordinate
    try:
        return coordinate_of_named_gate(gate.name, *gate.params).to_tuple()
    except ValueError:
        return GLOBAL_COORDINATE_CACHE.coordinate(gate.matrix())


def node_coordinate(node: DAGNode) -> tuple[float, float, float]:
    """Weyl coordinate of a DAG node's two-qubit gate."""
    return gate_coordinate(node.gate)


def gate_cost(node: DAGNode, coverage: CoverageSet) -> float:
    """Estimated decomposition cost (in pulse units) of a DAG node."""
    if not node.is_two_qubit:
        return 0.0
    return coverage.cost_of(node_coordinate(node))


@dataclasses.dataclass(frozen=True)
class CircuitMetrics:
    """Quality metrics of a routed circuit.

    Attributes:
        depth: weighted critical-path length in pulse units.
        total_cost: summed pulse cost over all two-qubit gates.
        swap_count: number of explicit SWAP gates in the circuit.
        two_qubit_count: number of two-qubit gates (blocks count as one).
        gate_depth: plain (unweighted) two-qubit gate depth.
        mirrors_accepted: number of mirror substitutions (MIRAGE only).
    """

    depth: float
    total_cost: float
    swap_count: int
    two_qubit_count: int
    gate_depth: int
    mirrors_accepted: int = 0

    def as_dict(self) -> dict[str, float | int]:
        return dataclasses.asdict(self)


def evaluate(
    circuit: QuantumCircuit | DAGCircuit,
    basis: str = "sqrt_iswap",
    coverage: CoverageSet | None = None,
    mirrors_accepted: int = 0,
) -> CircuitMetrics:
    """Compute :class:`CircuitMetrics` for a (routed) circuit or DAG.

    Args:
        circuit: the circuit or DAG to score.
        basis: target basis-gate name used for the cost weights.
        coverage: reuse an existing coverage set (otherwise the shared,
            memoised set for ``basis`` is used).
        mirrors_accepted: forwarded into the result for reporting.
    """
    dag = circuit if isinstance(circuit, DAGCircuit) else circuit.to_dag()
    coverage = coverage if coverage is not None else get_coverage_set(basis)

    # One batched coverage query for every two-qubit node up front; the
    # critical-path walk then reads costs from a plain dict.
    two_qubit_nodes = [
        node for node in dag.nodes.values() if node.is_two_qubit
    ]
    if two_qubit_nodes:
        coordinates = [node_coordinate(node) for node in two_qubit_nodes]
        node_costs = coverage.cost_of_many(coordinates)
        cost_by_node = {
            node.node_id: float(cost)
            for node, cost in zip(two_qubit_nodes, node_costs)
        }
    else:
        cost_by_node = {}

    def weight(node: DAGNode) -> float:
        return cost_by_node.get(node.node_id, 0.0)

    depth = dag.longest_path_length(weight)
    total = sum(weight(node) for node in dag.nodes.values())
    swap_count = sum(
        1 for node in dag.nodes.values() if node.gate.name == "swap"
    )
    two_qubit_count = sum(1 for node in dag.nodes.values() if node.is_two_qubit)
    gate_depth = int(
        dag.longest_path_length(
            lambda node: 1.0 if node.is_two_qubit else 0.0
        )
    )
    return CircuitMetrics(
        depth=float(depth),
        total_cost=float(total),
        swap_count=swap_count,
        two_qubit_count=two_qubit_count,
        gate_depth=gate_depth,
        mirrors_accepted=mirrors_accepted,
    )


def ops_depth(
    ops: Sequence[tuple[Gate, Sequence[int]]], coverage: CoverageSet
) -> float:
    """Weighted critical-path depth of a topologically ordered op stream.

    Equals ``evaluate(dag).depth`` bit for bit for the DAG built by adding
    ``ops`` in order: one batched coverage query prices the two-qubit ops
    in the same order, and a per-wire running maximum walked in emission
    order performs the same ``max`` and the same additions as the DAG's
    longest-path walk, without building the DAG.
    """
    weights = [0.0] * len(ops)
    two_qubit = [
        index
        for index, (gate, qubits) in enumerate(ops)
        if len(qubits) == 2 and not gate.is_directive
    ]
    if two_qubit:
        costs = coverage.cost_of_many(
            [gate_coordinate(ops[index][0]) for index in two_qubit]
        )
        for index, cost in zip(two_qubit, costs.tolist()):
            weights[index] = cost
    wire: dict[int, float] = {}
    best = 0.0
    for (gate, qubits), weight in zip(ops, weights):
        distance = max(wire.get(q, 0.0) for q in qubits) + weight
        for qubit in qubits:
            wire[qubit] = distance
        best = max(best, distance)
    return float(best)


def improvement(before: CircuitMetrics, after: CircuitMetrics) -> dict[str, float]:
    """Relative improvements (positive = ``after`` is better), as fractions."""

    def relative(old: float, new: float) -> float:
        if old == 0:
            return 0.0
        return (old - new) / old

    return {
        "depth": relative(before.depth, after.depth),
        "total_cost": relative(before.total_cost, after.total_cost),
        "swap_count": relative(before.swap_count, after.swap_count),
    }
