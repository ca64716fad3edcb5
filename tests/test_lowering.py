"""One lowering per circuit: op stream → ``IntDAG``, no spare circuits.

Covers:

* ``IntDAG.from_ops`` against the circuit's own instructions and the
  wire rule spelled out (node gates, qargs, kinds, gate slots, edges,
  front layer), and its ``reversed()`` against ``from_ops`` of the ops
  in reversed Kahn order (Hypothesis over 1Q and 2Q gates, barriers
  across many wires, measures, >2-qubit gates that the route loop
  rejects, and gate objects repeated across ops);
* a ``transpile`` call lowers its circuit once, on the dispatching side
  (serial and process executors), a shipped ``SabreLayout`` pickles the
  flat lowering and no per-op objects, and the only ``QuantumCircuit``s
  a call constructs are its results.
"""

import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import OpList, QuantumCircuit
from repro.circuits.dag import kahn_order
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

#: Every array but ``gate_ids``, which a reverse keeps from its forward.
_ARRAYS = (
    "qubit0", "qubit1", "kind", "two_qubit", "qarg_indptr", "qargs",
    "succ_indptr", "succ_ids", "pred_indptr", "pred_ids", "indegree",
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(circuit=_circuits())
def test_from_ops_equals_the_dag_lowering(circuit):
    """The lowering is the circuit's dependency graph: checked against
    the instructions and the wire rule, not through ``from_ops``."""
    lowered = OpList.of(circuit)
    direct = IntDAG.from_ops(lowered.num_qubits, lowered.ops)

    # The edge rule, spelled out: an op depends once on the last earlier
    # op on each of its wires, in wire order.
    last: dict[int, int] = {}
    successors: list[list[int]] = [[] for _ in lowered.ops]
    front = []
    seen: list[Gate] = []
    for index, instruction in enumerate(circuit):
        qubits = instruction.qubits
        expected = list(dict.fromkeys(last[q] for q in qubits if q in last))
        assert direct.predecessor_ids(index) == expected
        for previous in expected:
            successors[previous].append(index)
        if not expected:
            front.append(index)
        last.update((q, index) for q in qubits)
        assert direct.gate(index) is instruction.gate
        assert direct.node_qubits(index) == qubits
        expected_kind = (
            KIND_CHECK2 if instruction.is_two_qubit
            else KIND_FREE if instruction.gate.is_directive or len(qubits) == 1
            else KIND_REJECT
        )
        assert direct.kind[index] == expected_kind
        if not any(instruction.gate is gate for gate in seen):
            seen.append(instruction.gate)
    assert [direct.successor_ids(i) for i in range(len(circuit))] == successors
    assert len(direct.gates) == len(seen)
    assert all(a is b for a, b in zip(direct.gates, seen))
    assert direct.front_ids() == front

    # The reverse: the lowering of the ops in reversed Kahn order, except
    # that it keeps the forward's gate slots.
    order = kahn_order([qubits for _, qubits in lowered.ops], lowered.num_qubits)
    reference = IntDAG.from_ops(
        lowered.num_qubits, [lowered.ops[i] for i in reversed(order)]
    )
    reverse = direct.reversed()
    _assert_equal_lowerings(reverse, reference)
    assert reverse.gates is direct.gates
    assert all(
        reverse.gate(i) is reference.gate(i) for i in range(reverse.num_nodes)
    )


def test_from_ops_checks_qubit_range():
    with pytest.raises(Exception, match="out of range"):
        IntDAG.from_ops(2, [(standard_gate("cx"), (0, 2))])


# ---------------------------------------------------------------------------
# One lowering, no throw-away circuits
# ---------------------------------------------------------------------------


def _count_lowerings(monkeypatch):
    """Record the width of every ``IntDAG.from_ops`` call in this process;
    in a worker forked after the patch, a call fails its task instead."""
    calls = []
    parent = os.getpid()
    original = IntDAG.from_ops.__func__

    def from_ops(cls, num_qubits, ops):
        if os.getpid() != parent:
            raise AssertionError("a worker lowered a circuit")
        calls.append(num_qubits)
        return original(cls, num_qubits, ops)

    monkeypatch.setattr(IntDAG, "from_ops", classmethod(from_ops))
    return calls


def _stream(result):
    return [(i.gate.name, i.qubits) for i in result.circuit]


@pytest.mark.parametrize("executor", ["serial", "processes"])
def test_transpile_builds_no_dag(monkeypatch, executor):
    """The ``plan`` stage's lowering is the only dependency graph a call
    builds: trials route the shipped arrays and derive the reverse from
    them, in process or in a worker."""
    circuit = twolocal_full(5)
    kwargs = dict(coverage=COVERAGE, layout_trials=4, seed=3)
    expected = transpile(circuit, grid_topology(2, 3), **kwargs)
    lowerings = _count_lowerings(monkeypatch)
    if executor == "serial":
        result = transpile(circuit, grid_topology(2, 3), **kwargs)
    else:
        # Forked after the patch, the workers refuse to lower.
        with ProcessExecutor(max_workers=2) as processes:
            result = transpile(
                circuit, grid_topology(2, 3), executor=processes, **kwargs
            )
            stats = processes.dispatch_stats
            assert stats["tasks"] == 4
            assert stats["retries"] == stats["lost_tasks"] == 0
            assert stats["executor_downgrades"] == 0
    assert result.method == "mirage"
    assert lowerings == [circuit.num_qubits]
    assert _stream(result) == _stream(expected)


def test_shipped_trial_spec_pickles_no_dag_node():
    spec = PlanSpec(
        coupling=grid_topology(2, 3), basis="sqrt_iswap", method="mirage",
        selection="depth", aggression=None, layout_trials=2,
        refinement_rounds=2, routing_trials=1, coverage=COVERAGE,
        use_vf2=False,
    )
    planned = run_plan(spec, PlanTask(qft(5), seed_sequence(1)))
    trial_spec = planned.trial_plan.spec
    payload = pickle.dumps(trial_spec, protocol=pickle.HIGHEST_PROTOCOL)
    # The flat lowering stands in for the circuit: no op list, no
    # instruction objects.
    assert b"CircuitInstruction" not in payload
    assert b"OpList" not in payload
    assert b"QuantumCircuit" not in payload
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
