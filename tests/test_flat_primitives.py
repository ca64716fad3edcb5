"""Bit-identity of the flat pipeline shell against the code it replaced.

Each fast path outside the route kernel is compared, bytes for bytes,
with the slower construction it stands in for:

* the closed-form ``rzz`` matrix against ``xx_yy_interaction``;
* the consolidation index tables and stacked block products against
  ``embed_unitary``;
* op-list metrics against longest paths over a ``DAGCircuit``;
* the routed circuit from an op list against the circuit of its DAG.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import DAGCircuit, kahn_order
from repro.circuits.gates import Gate, UnitaryGate, standard_gate
from repro.circuits.library import qft, twolocal_full
from repro.core import MirageSwap
from repro.exceptions import DAGError
from repro.linalg.constants import xx_yy_interaction
from repro.linalg.random import haar_unitary
from repro.linalg.unitary import embed_unitary
from repro.polytopes import get_coverage_set
from repro.transpiler import Layout, grid_topology
from repro.transpiler.metrics import (
    CircuitMetrics,
    evaluate,
    gate_coordinate,
    ops_depth,
)
from repro.transpiler.passes import SabreSwap
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


def dag_metrics(circuit: QuantumCircuit, coverage) -> CircuitMetrics:
    """Metrics as longest paths over the circuit's ``DAGCircuit``."""
    dag = DAGCircuit.from_circuit(circuit)
    two_qubit = [node for node in dag.nodes.values() if node.is_two_qubit]
    cost_by_node = {}
    if two_qubit:
        costs = coverage.cost_of_many([gate_coordinate(n.gate) for n in two_qubit])
        cost_by_node = {
            node.node_id: float(cost) for node, cost in zip(two_qubit, costs)
        }

    def weight(node):
        return cost_by_node.get(node.node_id, 0.0)

    return CircuitMetrics(
        depth=float(dag.longest_path_length(weight)),
        total_cost=float(sum(weight(node) for node in dag.nodes.values())),
        swap_count=sum(
            1 for n in dag.nodes.values()
            if n.gate.name == "swap" and type(n.gate) is Gate
        ),
        two_qubit_count=len(two_qubit),
        gate_depth=int(dag.longest_path_length(
            lambda node: 1.0 if node.is_two_qubit else 0.0)),
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
    reference = _fields(dag_metrics(circuit, COVERAGE))
    ops = [(instruction.gate, instruction.qubits) for instruction in circuit]
    assert _fields(evaluate(ops, coverage=COVERAGE)) == reference
    assert _fields(evaluate(circuit, coverage=COVERAGE)) == reference
    assert _fields(evaluate(circuit.to_dag(), coverage=COVERAGE)) == reference
    assert repr(ops_depth(ops, COVERAGE)) == repr(
        dag_metrics(circuit, COVERAGE).depth)


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
# Routed circuit without a DAG
# ---------------------------------------------------------------------------


def _both_forms(ops, num_qubits):
    """A routing result over ``ops`` and the ``DAGCircuit`` of the same ops."""
    layout = Layout.trivial(num_qubits, num_qubits)
    dag = DAGCircuit(num_qubits, "routed")
    for gate, qubits in ops:
        dag.add_node(gate, qubits)
    return (RoutingResult(ops=list(ops), num_qubits=num_qubits, name="routed",
                          initial_layout=layout, final_layout=layout,
                          swaps_added=0),
            dag)


def _stream(circuit):
    return [(id(i.gate), i.gate.name, i.qubits, tuple(map(type, i.qubits)))
            for i in circuit]


def _assert_same_circuit(from_ops, from_dag):
    assert (from_ops.num_qubits, from_ops.name) == (
        from_dag.num_qubits, from_dag.name)
    assert _stream(from_ops) == _stream(from_dag)


@pytest.mark.parametrize("router", ["sabre", "mirage"])
@pytest.mark.parametrize("circuit", [qft(6), twolocal_full(5)],
                         ids=["qft6", "twolocal5"])
def test_routed_op_list_circuit_equals_dag_circuit(router, circuit):
    coupling = grid_topology(2, 3)
    layout = Layout.random(circuit.num_qubits, coupling.num_qubits, seed=5)
    swap_router = (SabreSwap(coupling) if router == "sabre"
                   else MirageSwap(coupling, coverage=COVERAGE))
    result = swap_router.run(circuit.to_dag(), layout, seed=5)
    from_ops, from_dag = _both_forms(result.ops, coupling.num_qubits)
    _assert_same_circuit(from_ops.to_circuit(), from_dag.to_circuit())
    # The routed result itself, against the DAG it builds on request.
    _assert_same_circuit(result.to_circuit(), result.dag.to_circuit())


def test_kahn_order_is_fifo_over_wire_edges():
    # Ops 0, 1 and 3 start ready; 2 becomes ready after 1, then 4 after 2.
    qubit_lists = [(0,), (1,), (0, 1), (2,), (1, 2)]
    assert kahn_order(qubit_lists, 3) == [0, 1, 3, 2, 4]
    dag = DAGCircuit(3)
    for qubits in qubit_lists:
        dag.add_node(standard_gate("cz" if len(qubits) == 2 else "h"), qubits)
    assert [node.node_id for node in dag.topological_nodes()] == [0, 1, 3, 2, 4]


@settings(max_examples=150, deadline=None)
@given(circuits())
def test_op_list_kahn_order_equals_dag_kahn_order(circuit):
    ops = [(instruction.gate, instruction.qubits) for instruction in circuit]
    from_ops, from_dag = _both_forms(ops, circuit.num_qubits)
    _assert_same_circuit(from_ops.to_circuit(), from_dag.to_circuit())


def test_op_list_circuit_rejects_what_the_dag_rejects():
    cx = standard_gate("cx")
    for bad in ([(cx, (0, 2))], [(cx, (0, 1)), (cx, (1, 1))]):
        with pytest.raises(DAGError):
            _both_forms(bad, 2)[1].to_circuit()
        layout = Layout.trivial(2, 2)
        result = RoutingResult(ops=bad, num_qubits=2, initial_layout=layout,
                               final_layout=layout, swaps_added=0)
        with pytest.raises(DAGError):
            result.to_circuit()
