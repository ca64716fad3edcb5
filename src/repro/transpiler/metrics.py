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
    named standard gate, or a (cached) extraction from the gate matrix.
    Name rules apply to standard gates only (``type(gate) is Gate``): an
    unannotated unitary is read from its matrix whatever it is labelled.
    """
    if isinstance(gate, UnitaryGate) and gate.coordinate is not None:
        return gate.coordinate
    if type(gate) is Gate:
        try:
            return coordinate_of_named_gate(gate.name, *gate.params).to_tuple()
        except ValueError:
            pass
    return GLOBAL_COORDINATE_CACHE.coordinate(gate.matrix())


def distinct_coordinates(
    coordinates: Sequence[tuple[float, float, float]],
) -> tuple[list[tuple[float, float, float]], list[int]]:
    """The distinct coordinates in order of first appearance, and the
    index among them of each input.

    Triples compare as tuples, so two that differ only in the sign of a
    zero are one: :meth:`~repro.polytopes.coverage.CoverageSet.cost_of_many`
    prices them alike anyway, since a batch row whose rounded key matches
    an earlier row's takes that row's price.  Pricing the distinct rows
    and fanning the prices back out through the indices therefore gives
    every input the float a query over all inputs would.
    """
    index_of: dict[tuple[float, float, float], int] = {}
    distinct: list[tuple[float, float, float]] = []
    indices = []
    for coordinate in coordinates:
        index = index_of.setdefault(coordinate, len(distinct))
        if index == len(distinct):
            distinct.append(coordinate)
        indices.append(index)
    return distinct, indices


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


Op = tuple[Gate, Sequence[int]]


def _ops_of(circuit: QuantumCircuit | DAGCircuit | Sequence[Op]) -> Sequence[Op]:
    """The ``(gate, qubits)`` stream of a circuit, a DAG or an op list.

    A DAG's nodes are read in insertion order, which is the order they
    were added in and a topological order.
    """
    if isinstance(circuit, DAGCircuit):
        return [(node.gate, node.qubits) for node in circuit.nodes.values()]
    if isinstance(circuit, QuantumCircuit):
        return [(instruction.gate, instruction.qubits) for instruction in circuit]
    return circuit


def _walk(
    ops: Sequence[Op], coverage: CoverageSet, mirrors_accepted: int = 0
) -> CircuitMetrics:
    """Every metric of a topologically ordered op stream, in one pass.

    Each distinct two-qubit gate object is read once for its coordinate;
    one batched coverage query then prices each distinct coordinate
    once, in order of first appearance (:func:`distinct_coordinates`),
    and the prices fan back out to the ops in stream order, so this
    equals pricing every op.  A per-wire running maximum, walked in that
    order, then performs the same ``max`` and the same additions as a
    longest-path walk over the DAG the stream builds, so depths equal
    the DAG's bit for bit.  An op on one wire adds weight zero to its
    own wire only and changes nothing, so the walk skips it.  Only a
    standard ``swap`` gate counts as a SWAP.
    """
    two_qubit = [
        gate for gate, qubits in ops
        if len(qubits) == 2 and not gate.is_directive
    ]
    first_seen: dict[int, int] = {}
    coordinates = []
    positions = []
    for gate in two_qubit:
        position = first_seen.get(id(gate))
        if position is None:
            position = first_seen[id(gate)] = len(coordinates)
            coordinates.append(gate_coordinate(gate))
        positions.append(position)
    distinct, indices = distinct_coordinates(coordinates)
    prices = coverage.cost_of_many(distinct).tolist() if distinct else []
    costs = [prices[indices[position]] for position in positions]
    next_cost = iter(costs).__next__
    weighted_on: dict[int, float] = {}
    gates_on: dict[int, float] = {}
    depth = gate_depth = 0.0
    swap_count = 0
    for gate, qubits in ops:
        if len(qubits) == 2 and not gate.is_directive:
            # ``max`` of two, spelled out: the first unless the second is
            # larger, as ``max`` picks.
            a, b = qubits
            upstream = weighted_on.get(a, 0.0)
            other = weighted_on.get(b, 0.0)
            weighted = (other if other > upstream else upstream) + next_cost()
            upstream = gates_on.get(a, 0.0)
            other = gates_on.get(b, 0.0)
            gates = (other if other > upstream else upstream) + 1.0
            weighted_on[a] = weighted_on[b] = weighted
            gates_on[a] = gates_on[b] = gates
            if gate.name == "swap" and type(gate) is Gate:
                swap_count += 1
        elif len(qubits) > 1:
            # Directives and wider gates weigh nothing but join their wires.
            weighted = max([weighted_on.get(q, 0.0) for q in qubits])
            gates = max([gates_on.get(q, 0.0) for q in qubits])
            for qubit in qubits:
                weighted_on[qubit] = weighted
                gates_on[qubit] = gates
        else:
            continue
        if weighted > depth:
            depth = weighted
        if gates > gate_depth:
            gate_depth = gates
    return CircuitMetrics(
        depth=float(depth),
        total_cost=float(sum(costs)),
        swap_count=swap_count,
        two_qubit_count=len(two_qubit),
        gate_depth=int(gate_depth),
        mirrors_accepted=mirrors_accepted,
    )


def evaluate(
    circuit: QuantumCircuit | DAGCircuit | Sequence[Op],
    basis: str = "sqrt_iswap",
    coverage: CoverageSet | None = None,
    mirrors_accepted: int = 0,
) -> CircuitMetrics:
    """Compute :class:`CircuitMetrics` for a (routed) circuit, DAG or op list.

    Args:
        circuit: what to score: a circuit, a DAG, or a topologically
            ordered list of ``(gate, qubits)`` pairs.
        basis: target basis-gate name used for the cost weights.
        coverage: reuse an existing coverage set (otherwise the shared,
            memoised set for ``basis`` is used).
        mirrors_accepted: forwarded into the result for reporting.
    """
    coverage = coverage if coverage is not None else get_coverage_set(basis)
    return _walk(_ops_of(circuit), coverage, mirrors_accepted)


def ops_depth(ops: Sequence[Op], coverage: CoverageSet) -> float:
    """Weighted critical-path depth of a topologically ordered op stream.

    The ``depth`` of :func:`evaluate`, from the same walk: equal to
    ``evaluate(dag).depth`` bit for bit for the DAG built by adding
    ``ops`` in order, without building the DAG.
    """
    return _walk(ops, coverage).depth


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
