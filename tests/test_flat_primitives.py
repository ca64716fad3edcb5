"""Bit-identity of the flat pipeline shell against the code it replaced.

Each fast path outside the route kernel is compared, bytes for bytes,
with the slower construction it stands in for:

* the closed-form ``rzz`` matrix against ``xx_yy_interaction``;
* the consolidation index tables and stacked block products against
  ``embed_unitary``;
* op-list metrics against weighted longest paths over the circuit's
  ``IntDAG`` lowering (its predecessor arrays, visited in Kahn order);
* the routed circuit from an op list against a FIFO Kahn walk over the
  lowering's successor arrays.
"""

from __future__ import annotations

import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import OpList, QuantumCircuit
from repro.circuits.dag import kahn_order
from repro.circuits.gates import Gate, UnitaryGate, standard_gate
from repro.circuits.library import qft, twolocal_full
from repro.exceptions import DAGError
from repro.linalg.constants import xx_yy_interaction
from repro.linalg.random import haar_unitary
from repro.linalg.unitary import embed_unitary
from repro.polytopes import get_coverage_set
from repro.transpiler import Layout, grid_topology
from repro.transpiler.kernel import IntDAG
from repro.transpiler.metrics import (
    CircuitMetrics,
    evaluate,
    gate_coordinate,
    ops_depth,
)
from repro.transpiler.passes import route
from repro.transpiler.passes.consolidate import (
    _PLACEMENT_TABLES,
    _PLACEMENTS,
    _block_products,
    _padded,
)
from repro.transpiler.passes.sabre_swap import RoutingResult

COVERAGE = get_coverage_set("sqrt_iswap", num_samples=250, seed=3)


# ---------------------------------------------------------------------------
# rzz
# ---------------------------------------------------------------------------


def _rzz_angles() -> list[float]:
    rng = np.random.default_rng(16)
    special = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi,
               math.pi / 2, -math.pi / 4, 1e-12, -1e-100, 123.456, -4321.0,
               1e6 + 0.5]
    return (special + rng.uniform(-10, 10, 2000).tolist()
            + rng.uniform(-1e4, 1e4, 200).tolist())


def test_rzz_closed_form_matches_the_eigh_construction():
    for theta in _rzz_angles():
        closed = standard_gate("rzz", theta).matrix()
        reference = xx_yy_interaction(0.0, 0.0, -theta / 2.0)
        assert closed.tobytes() == reference.tobytes(), theta


# ---------------------------------------------------------------------------
# Consolidation index tables
# ---------------------------------------------------------------------------


def _awkward_matrix(size: int, rng) -> np.ndarray:
    """A complex matrix with exact zeros and negative zeros in it."""
    matrix = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    matrix[0, size - 1] = 0.0
    matrix[size - 1, 0] = complex(-0.0, -0.0)
    matrix[0, 0] = complex(0.5, -0.0)
    matrix[size - 1, size - 1] = complex(-0.0, 0.25)
    return matrix


@pytest.mark.parametrize("placement", sorted(_PLACEMENT_TABLES))
def test_placement_tables_reproduce_embed_unitary(placement):
    rng = np.random.default_rng(len(placement) * 10 + placement[0])
    size = 2 ** len(placement)
    for matrix in (_awkward_matrix(size, rng), haar_unitary(size, rng),
                   np.eye(size, dtype=complex)):
        table_embedded = _padded(matrix)[_PLACEMENT_TABLES[placement]]
        reference = embed_unitary(matrix, list(placement), 2)
        assert table_embedded.tobytes() == reference.tobytes()


def test_stacked_products_match_the_embed_unitary_product():
    """Blocks of different lengths, multiplied in stacked rounds, equal
    the per-gate ``embed_unitary(...) @ block`` product byte for byte."""
    rng = np.random.default_rng(4)
    pair = (3, 1)
    streams = [
        [(3,), (1, 3), (1,), (3, 1), (3,), (1,), (3, 1)],
        [(1, 3)],
        [(3, 1), (1,), (3,)],
    ]
    rows, factors, references = [], [], []
    for stream in streams:
        reference = np.eye(4, dtype=complex)
        block = []
        for gate_qubits in stream:
            matrix = _awkward_matrix(2 ** len(gate_qubits), rng)
            positions = [pair.index(q) for q in gate_qubits]
            reference = embed_unitary(matrix, positions, 2) @ reference
            block.append(4 * len(rows) + _PLACEMENTS.index(tuple(positions)))
            rows.append(_padded(matrix))
        factors.append(block)
        references.append(reference)
    matrices = _block_products(np.array(rows), factors)
    for matrix, reference in zip(matrices, references):
        assert matrix.tobytes() == reference.tobytes()


# ---------------------------------------------------------------------------
# Metrics from op lists
# ---------------------------------------------------------------------------


def longest_path_metrics(circuit: QuantumCircuit, coverage) -> CircuitMetrics:
    """Metrics as weighted longest paths over the circuit's lowering.

    Nodes are visited in ``kahn_order``; each takes the largest distance
    among its ``pred_indptr``/``pred_ids`` predecessors plus its weight.
    """
    lowered = OpList.of(circuit)
    ops = lowered.ops
    intdag = IntDAG.from_ops(lowered.num_qubits, ops)
    two_qubit = [
        node for node, (gate, qubits) in enumerate(ops)
        if len(qubits) == 2 and not gate.is_directive
    ]
    cost_by_node = {}
    if two_qubit:
        costs = coverage.cost_of_many([gate_coordinate(ops[n][0]) for n in two_qubit])
        cost_by_node = {node: float(cost) for node, cost in zip(two_qubit, costs)}
    order = kahn_order([qubits for _, qubits in ops], lowered.num_qubits)
    pred_indptr = intdag.pred_indptr.tolist()
    pred_ids = intdag.pred_ids.tolist()

    def longest_path(weight):
        distance: dict[int, float] = {}
        best = 0.0
        for node in order:
            incoming = pred_ids[pred_indptr[node]:pred_indptr[node + 1]]
            upstream = max((distance[i] for i in incoming), default=0.0)
            distance[node] = upstream + weight(node)
            best = max(best, distance[node])
        return best

    return CircuitMetrics(
        depth=float(longest_path(lambda node: cost_by_node.get(node, 0.0))),
        total_cost=float(sum(cost_by_node.values())),
        swap_count=sum(
            1 for gate, _ in ops if gate.name == "swap" and type(gate) is Gate
        ),
        two_qubit_count=len(two_qubit),
        gate_depth=int(longest_path(
            lambda node: 1.0 if node in cost_by_node else 0.0)),
    )


ONE_QUBIT = ("h", "x", "sx", "rz", "ry")
TWO_QUBIT = ("cx", "cz", "swap", "rzz", "cp", "iswap", "block")


@st.composite
def circuits(draw):
    width = draw(st.integers(min_value=2, max_value=6))
    qubit = st.integers(min_value=0, max_value=width - 1)
    angle = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
    circuit = QuantumCircuit(width, "random")
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        kind = draw(st.sampled_from(("1q", "2q", "2q", "barrier", "measure")))
        if kind == "1q":
            name = draw(st.sampled_from(ONE_QUBIT))
            params = (draw(angle),) if name in ("rz", "ry") else ()
            circuit.append(standard_gate(name, *params), [draw(qubit)])
        elif kind == "2q":
            pair = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            name = draw(st.sampled_from(TWO_QUBIT))
            if name == "block":
                seed = draw(st.integers(min_value=0, max_value=2**16))
                label = draw(st.sampled_from(("unitary", "swap", "cx")))
                gate = UnitaryGate(haar_unitary(4, seed), label=label, check=False)
            else:
                params = (draw(angle),) if name in ("rzz", "cp") else ()
                gate = standard_gate(name, *params)
            circuit.append(gate, pair)
        elif kind == "barrier":
            wires = draw(st.lists(qubit, min_size=1, max_size=width, unique=True))
            circuit.barrier(*wires)
        else:
            circuit.append(Gate("measure", 1), [draw(qubit)])
    return circuit


def _fields(metrics: CircuitMetrics) -> str:
    # repr keeps every float bit, signed zeros included.
    return repr(dataclasses.astuple(metrics))


@settings(max_examples=150, deadline=None)
@given(circuits())
def test_op_list_metrics_equal_dag_longest_paths(circuit):
    reference = longest_path_metrics(circuit, COVERAGE)
    ops = [(instruction.gate, instruction.qubits) for instruction in circuit]
    assert _fields(evaluate(ops, coverage=COVERAGE)) == _fields(reference)
    assert _fields(evaluate(circuit, coverage=COVERAGE)) == _fields(reference)
    assert repr(ops_depth(ops, COVERAGE)) == repr(reference.depth)


@pytest.mark.parametrize("label", ["swap", "cx", "iswap"])
def test_metrics_apply_name_rules_to_standard_gates_only(label):
    """An unannotated unitary is priced from its matrix, whatever its
    label, and only a standard ``swap`` counts as a SWAP."""
    identity = UnitaryGate(np.eye(4), label=label)
    # Read from its matrix through the shared coordinate cache, which may
    # hold an earlier near-identity block's extraction.
    assert np.allclose(gate_coordinate(identity), 0.0, rtol=0.0, atol=1e-12)
    metrics = evaluate([(identity, (0, 1))], coverage=COVERAGE)
    assert (metrics.swap_count, metrics.total_cost, metrics.depth) == (
        0, 0.0, 0.0
    )
    standard = Gate(label, 2)
    named = evaluate([(standard, (0, 1))], coverage=COVERAGE)
    assert named.swap_count == (label == "swap")
    assert named.total_cost == COVERAGE.cost_of(gate_coordinate(standard)) > 0


# ---------------------------------------------------------------------------
# Routed circuit from its op list
# ---------------------------------------------------------------------------


def _fifo_order(intdag):
    """Kahn's algorithm over the lowering's successor arrays, written out:
    ready nodes leave first in, first out; a cycle raises ``DAGError``."""
    indegree = intdag.indegree.tolist()
    ready = collections.deque(
        node for node in range(intdag.num_nodes) if not indegree[node]
    )
    order = []
    while ready:
        node = ready.popleft()
        order.append(node)
        for succ in intdag.successor_ids(node):
            indegree[succ] -= 1
            if not indegree[succ]:
                ready.append(succ)
    if len(order) != intdag.num_nodes:
        raise DAGError("cycle")
    return order


def _both_forms(ops, num_qubits):
    """A routing result over ``ops``, and the circuit of the same ops in
    the FIFO Kahn order of their lowering."""
    layout = Layout.trivial(num_qubits, num_qubits)
    order = _fifo_order(IntDAG.from_ops(num_qubits, ops))
    reference = QuantumCircuit(num_qubits, "routed")
    for index in order:
        reference.append(*ops[index])
    return (RoutingResult(ops=list(ops), num_qubits=num_qubits, name="routed",
                          initial_layout=layout, final_layout=layout,
                          swaps_added=0),
            reference)


def _stream(circuit):
    return [(id(i.gate), i.gate.name, i.qubits, tuple(map(type, i.qubits)))
            for i in circuit]


def _assert_same_circuit(from_ops, reference):
    assert (from_ops.num_qubits, from_ops.name) == (
        reference.num_qubits, reference.name)
    assert _stream(from_ops) == _stream(reference)


@pytest.mark.parametrize("router", ["sabre", "mirage"])
@pytest.mark.parametrize("circuit", [qft(6), twolocal_full(5)],
                         ids=["qft6", "twolocal5"])
def test_routed_op_list_circuit_equals_dag_circuit(router, circuit):
    coupling = grid_topology(2, 3)
    layout = Layout.random(circuit.num_qubits, coupling.num_qubits, seed=5)
    aggression = None if router == "sabre" else 1
    lowered = OpList.of(circuit)
    result = route(
        IntDAG.from_ops(lowered.num_qubits, lowered.ops), coupling, layout, 5,
        coverage=COVERAGE, aggression=aggression, name="routed",
    )
    from_ops, reference = _both_forms(result.ops, coupling.num_qubits)
    _assert_same_circuit(from_ops.to_circuit(), reference)
    # The routed result itself.
    _assert_same_circuit(result.to_circuit(), reference)


def test_kahn_order_is_fifo_over_wire_edges():
    # Ops 0, 1 and 3 start ready; 2 becomes ready after 1, then 4 after 2.
    qubit_lists = [(0,), (1,), (0, 1), (2,), (1, 2)]
    assert kahn_order(qubit_lists, 3) == [0, 1, 3, 2, 4]
    ops = [
        (standard_gate("cz" if len(qubits) == 2 else "h"), qubits)
        for qubits in qubit_lists
    ]
    assert _fifo_order(IntDAG.from_ops(3, ops)) == [0, 1, 3, 2, 4]


@settings(max_examples=150, deadline=None)
@given(circuits())
def test_op_list_kahn_order_equals_dag_kahn_order(circuit):
    ops = [(instruction.gate, instruction.qubits) for instruction in circuit]
    from_ops, reference = _both_forms(ops, circuit.num_qubits)
    _assert_same_circuit(from_ops.to_circuit(), reference)


def test_op_list_circuit_rejects_what_the_dag_rejects():
    cx = standard_gate("cx")
    for bad in ([(cx, (0, 2))], [(cx, (0, 1)), (cx, (1, 1))]):
        with pytest.raises(DAGError):
            _both_forms(bad, 2)
        layout = Layout.trivial(2, 2)
        result = RoutingResult(ops=bad, num_qubits=2, initial_layout=layout,
                               final_layout=layout, swaps_added=0)
        with pytest.raises(DAGError):
            result.to_circuit()
