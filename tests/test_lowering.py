"""One lowering per circuit: op stream → ``IntDAG``, no DAG, no spare circuits.

Covers:

* ``IntDAG.from_ops`` against ``IntDAG.from_dag(DAGCircuit.from_circuit(c))``
  array for array, and both against the DAG's own node and edge tables;
  the two ``reversed()`` results agree too (Hypothesis over 1Q and 2Q
  gates, barriers across many wires, measures, >2-qubit gates that the
  route loop rejects, and gate objects repeated across ops);
* a ``transpile`` call builds no ``DAGCircuit`` (serial and process
  executors), a shipped ``TrialSpec`` pickles no ``DAGNode``, and the
  only ``QuantumCircuit``s a call constructs are its results.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import OpList, QuantumCircuit
from repro.circuits.dag import DAGCircuit
from repro.circuits.gates import Gate, standard_gate
from repro.circuits.library import ghz, qft, twolocal_full
from repro.core import transpile, transpile_many
from repro.core.pipeline import PlanSpec, PlanTask, run_plan
from repro.polytopes import get_coverage_set
from repro.transpiler import ProcessExecutor, grid_topology, line_topology
from repro.transpiler.kernel import IntDAG
from repro.transpiler.kernel.intdag import KIND_CHECK2, KIND_FREE, KIND_REJECT
from repro.transpiler.passes import seed_sequence

COVERAGE = get_coverage_set("sqrt_iswap", num_samples=250, seed=3)

_ARRAYS = (
    "qubit0", "qubit1", "kind", "two_qubit", "gate_ids", "qarg_indptr",
    "qargs", "succ_indptr", "succ_ids", "pred_indptr", "pred_ids",
    "indegree",
)

_ONE_QUBIT = ("h", "x", "t", "sx")
_TWO_QUBIT = ("cx", "cz", "iswap")
_THREE_QUBIT = ("ccx", "cswap")


@st.composite
def _circuits(draw):
    """Ops from a small pool of shared gate objects, fresh gates, measures,
    barriers (some across many wires) and 3-qubit gates."""
    num_qubits = draw(st.integers(1, 7))
    pool = [standard_gate(name) for name in _ONE_QUBIT + _TWO_QUBIT + _THREE_QUBIT]
    pool.append(Gate("measure", 1))
    circuit = QuantumCircuit(num_qubits, "drawn")
    for _ in range(draw(st.integers(0, 50))):
        choice = draw(st.integers(0, 7))
        if choice == 0:
            width = draw(st.integers(1, num_qubits))
            circuit.barrier(*draw(st.permutations(range(num_qubits)))[:width])
            continue
        gate = draw(st.sampled_from(pool))
        if choice == 1:  # a fresh object equal to a pooled one
            gate = Gate(gate.name, gate.num_qubits)
        if gate.num_qubits > num_qubits:
            continue
        qubits = draw(st.permutations(range(num_qubits)))[:gate.num_qubits]
        circuit.append(gate, qubits)
    return circuit


def _assert_equal_lowerings(got, want):
    assert (got.num_qubits, got.num_nodes) == (want.num_qubits, want.num_nodes)
    for name in _ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert len(got.gates) == len(want.gates)
    assert all(a is b for a, b in zip(got.gates, want.gates))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(circuit=_circuits())
def test_from_ops_equals_the_dag_lowering(circuit):
    lowered = OpList.of(circuit)
    direct = IntDAG.from_ops(lowered.num_qubits, lowered.ops)
    dag = DAGCircuit.from_circuit(circuit)
    _assert_equal_lowerings(direct, IntDAG.from_dag(dag))

    # The edge rule, spelled out: an op depends once on the last earlier
    # op on each of its wires, in wire order.
    last: dict[int, int] = {}
    for index, (_, qubits) in enumerate(lowered.ops):
        expected = list(dict.fromkeys(last[q] for q in qubits if q in last))
        assert direct.predecessor_ids(index) == expected
        last.update((q, index) for q in qubits)

    # Against the DAG's own tables, not through from_ops.
    seen: list[Gate] = []
    for node_id, node in dag.nodes.items():
        assert direct.gate(node_id) is node.gate
        assert direct.node_qubits(node_id) == node.qubits
        assert direct.successor_ids(node_id) == dag._successors[node_id]
        assert direct.predecessor_ids(node_id) == dag._predecessors[node_id]
        expected_kind = (
            KIND_CHECK2 if node.is_two_qubit
            else KIND_FREE if node.is_directive or len(node.qubits) == 1
            else KIND_REJECT
        )
        assert direct.kind[node_id] == expected_kind
        if not any(node.gate is gate for gate in seen):
            seen.append(node.gate)
    assert len(direct.gates) == len(seen)
    assert all(a is b for a, b in zip(direct.gates, seen))
    assert direct.front_ids() == [n.node_id for n in dag.front_layer()]

    _assert_equal_lowerings(direct.reversed(), IntDAG.from_dag(dag).reversed())


def test_from_ops_checks_qubit_range():
    with pytest.raises(Exception, match="out of range"):
        IntDAG.from_ops(2, [(standard_gate("cx"), (0, 2))])


# ---------------------------------------------------------------------------
# No DAG, no throw-away circuits
# ---------------------------------------------------------------------------


def _forbid_dags(monkeypatch):
    def init(*args, **kwargs):
        raise AssertionError("a DAGCircuit was built")

    monkeypatch.setattr(DAGCircuit, "__init__", init)


def _stream(result):
    return [(i.gate.name, i.qubits) for i in result.circuit]


@pytest.mark.parametrize("executor", ["serial", "processes"])
def test_transpile_builds_no_dag(monkeypatch, executor):
    circuit = twolocal_full(5)
    kwargs = dict(coverage=COVERAGE, layout_trials=4, seed=3)
    expected = transpile(circuit, grid_topology(2, 3), **kwargs)
    _forbid_dags(monkeypatch)
    if executor == "serial":
        result = transpile(circuit, grid_topology(2, 3), **kwargs)
    else:
        # Forked after the patch, the workers refuse DAGs too.
        with ProcessExecutor(max_workers=2) as processes:
            result = transpile(
                circuit, grid_topology(2, 3), executor=processes, **kwargs
            )
            stats = processes.dispatch_stats
            assert stats["tasks"] == 4
            assert stats["retries"] == stats["lost_tasks"] == 0
            assert stats["executor_downgrades"] == 0
    assert result.method == "mirage"
    assert _stream(result) == _stream(expected)


def test_shipped_trial_spec_pickles_no_dag_node():
    spec = PlanSpec(
        coupling=grid_topology(2, 3), basis="sqrt_iswap", method="mirage",
        selection="depth", aggression=None, layout_trials=2,
        refinement_rounds=2, routing_trials=1, coverage=COVERAGE,
        use_vf2=False,
    )
    outcome = run_plan(spec, PlanTask(qft(5), seed_sequence(1)))
    trial_spec = outcome.state.properties["trial_plan"].spec
    payload = pickle.dumps(trial_spec, protocol=pickle.HIGHEST_PROTOCOL)
    assert b"DAGNode" not in payload
    assert b"DAGCircuit" not in payload
    assert trial_spec.name == "qft_n5"
    assert isinstance(trial_spec.intdag, IntDAG)


class _CountingCircuits:
    def __init__(self, monkeypatch):
        self.built = []
        original = QuantumCircuit.__init__

        def init(circuit, *args, **kwargs):
            original(circuit, *args, **kwargs)
            self.built.append(circuit)

        monkeypatch.setattr(QuantumCircuit, "__init__", init)


@pytest.mark.parametrize(
    "circuit, coupling, method",
    [
        (qft(5), grid_topology(2, 3), "mirage"),  # routed
        (qft(5), grid_topology(2, 3), "sabre"),
        (ghz(4), line_topology(4), "mirage"),  # VF2-embedded
    ],
    ids=["routed-mirage", "routed-sabre", "embedded"],
)
def test_transpile_builds_only_its_result(monkeypatch, circuit, coupling, method):
    counter = _CountingCircuits(monkeypatch)
    result = transpile(
        circuit, coupling, method=method, coverage=COVERAGE, layout_trials=2,
        seed=1,
    )
    assert counter.built == [result.circuit]


def test_transpile_many_builds_only_its_results(monkeypatch):
    circuits = [qft(4), ghz(3), twolocal_full(4)]
    counter = _CountingCircuits(monkeypatch)
    batch = transpile_many(
        circuits, grid_topology(2, 3), coverage=COVERAGE, layout_trials=2,
        seed=2,
    )
    assert counter.built == [result.circuit for result in batch]
