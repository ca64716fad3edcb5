"""Tests for the circuit IR: gates, QuantumCircuit, dependency graph, QASM export."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CircuitError, DAGError, QASMError
from repro.circuits import (
    Gate,
    OpList,
    QuantumCircuit,
    UnitaryGate,
    gate_names,
    random_two_qubit_block_circuit,
    standard_gate,
    to_qasm,
)
from repro.circuits.dag import kahn_order
from repro.linalg import (
    CNOT,
    equal_up_to_global_phase,
    haar_unitary,
    is_unitary,
)
from repro.polytopes import get_coverage_set
from repro.transpiler.kernel import IntDAG
from repro.transpiler.metrics import evaluate

COVERAGE = get_coverage_set("sqrt_iswap", num_samples=250, seed=3)


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", gate_names())
def test_every_standard_gate_has_unitary_matrix(name):
    needs_params = {
        "rx": (0.3,), "ry": (0.3,), "rz": (0.3,), "p": (0.3,), "cp": (0.3,),
        "crx": (0.3,), "cry": (0.3,), "crz": (0.3,), "rxx": (0.3,),
        "ryy": (0.3,), "rzz": (0.3,), "u": (0.1, 0.2, 0.3), "u3": (0.1, 0.2, 0.3),
        "iswap_power": (0.5,), "pswap": (0.4,), "xx_plus_yy": (0.7,),
    }
    gate = standard_gate(name, *needs_params.get(name, ()))
    assert is_unitary(gate.matrix())
    assert gate.num_qubits in (1, 2, 3)


def test_standard_gate_validation():
    with pytest.raises(CircuitError):
        standard_gate("nonexistent")
    with pytest.raises(CircuitError):
        standard_gate("rx")  # missing parameter
    with pytest.raises(CircuitError):
        standard_gate("x", 0.1)  # spurious parameter
    with pytest.raises(CircuitError):
        standard_gate("barrier")


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
def test_standard_gate_rejects_non_finite_parameters(value):
    for name, params in [
        ("rz", (value,)),
        ("cp", (value,)),
        ("u", (0.1, value, 0.2)),
        ("xx_plus_yy", (0.3, value)),
        ("xx_plus_yy", (value,)),
    ]:
        with pytest.raises(CircuitError, match="finite"):
            standard_gate(name, *params)
    with pytest.raises(CircuitError, match="finite"):
        QuantumCircuit(1).rz(value, 0)
    with pytest.raises(CircuitError, match="finite"):
        QuantumCircuit(2).cp(value, 0, 1)
    with pytest.raises(CircuitError, match="finite"):
        QuantumCircuit(1).u(value, 0.0, 0.0, 0)
    with pytest.raises(CircuitError, match="finite"):
        QuantumCircuit(2).add("xx_plus_yy", (0, 1), value, 0.0)


@pytest.mark.parametrize("gate", ["rz", "cp"])
def test_transpile_rejects_non_finite_gate_before_coverage(monkeypatch, gate):
    """A NaN angle fails at construction: no coverage set is resolved."""
    import importlib

    from repro.core import transpile
    from repro.transpiler import line_topology

    def no_coverage(*args, **kwargs):
        raise AssertionError("coverage build reached")

    pipeline = importlib.import_module("repro.core.pipeline")
    transpile_mod = importlib.import_module("repro.core.transpile")
    monkeypatch.setattr(pipeline, "resolve_coverage", no_coverage)
    monkeypatch.setattr(transpile_mod, "resolve_coverage", no_coverage)

    def build():
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        if gate == "rz":
            return circuit.rz(float("nan"), 1)
        return circuit.cp(float("nan"), 0, 1)

    with pytest.raises(CircuitError, match="finite"):
        transpile(build(), line_topology(2))


def test_gate_inverse_roundtrip():
    for name, params in [("s", ()), ("t", ()), ("rx", (0.7,)), ("cp", (0.3,)),
                         ("u", (0.1, 0.2, 0.3)), ("iswap", ()), ("siswap", ())]:
        gate = standard_gate(name, *params)
        product = gate.inverse().matrix() @ gate.matrix()
        assert equal_up_to_global_phase(product, np.eye(2**gate.num_qubits))


def test_directive_gate_has_no_matrix():
    barrier = Gate("barrier", 2)
    assert barrier.is_directive
    with pytest.raises(CircuitError):
        barrier.matrix()
    with pytest.raises(CircuitError):
        barrier.inverse()


def test_unitary_gate_checks_and_annotations():
    gate = UnitaryGate(CNOT)
    assert gate.num_qubits == 2
    assert np.allclose(gate.matrix(), CNOT)
    with pytest.raises(CircuitError):
        UnitaryGate(np.ones((4, 4)))
    with pytest.raises(CircuitError):
        UnitaryGate(np.ones((3, 3)))
    annotated = gate.with_coordinate((0.1, 0.0, 0.0))
    assert annotated.coordinate == (0.1, 0.0, 0.0)
    assert np.allclose(gate.inverse().matrix(), CNOT.conj().T)


def test_unitary_gate_skip_check_allows_fast_path():
    # check=False must not validate (mirrors the paper's hot-path shortcut).
    gate = UnitaryGate(np.ones((4, 4)), check=False)
    assert gate.num_qubits == 2


# ---------------------------------------------------------------------------
# QuantumCircuit
# ---------------------------------------------------------------------------


def test_circuit_builders_and_counts():
    qc = QuantumCircuit(3)
    qc.h(0).cx(0, 1).rz(0.3, 1).cp(0.2, 1, 2).swap(0, 2).ccx(0, 1, 2)
    assert len(qc) == 6
    assert qc.count_ops()["cx"] == 1
    assert qc.num_two_qubit_gates() == 3
    assert qc.depth() == 6
    assert qc.active_qubits() == {0, 1, 2}


def test_circuit_qubit_validation():
    qc = QuantumCircuit(2)
    with pytest.raises(CircuitError):
        qc.x(2)
    with pytest.raises(CircuitError):
        qc.cx(0, 0)
    with pytest.raises(CircuitError):
        QuantumCircuit(0)


def test_circuit_depth_two_qubit_only():
    qc = QuantumCircuit(2)
    qc.h(0).h(1).cx(0, 1).h(0).cx(0, 1)
    assert qc.depth(two_qubit_only=True) == 2


def test_circuit_copy_is_independent():
    qc = QuantumCircuit(2)
    qc.h(0)
    other = qc.copy()
    other.x(1)
    assert len(qc) == 1
    assert len(other) == 2


def test_circuit_inverse_is_inverse():
    qc = QuantumCircuit(2)
    qc.h(0).cx(0, 1).t(1).rz(0.4, 0)
    product = qc.inverse().to_matrix() @ qc.to_matrix()
    assert equal_up_to_global_phase(product, np.eye(4))


def test_circuit_compose_and_remap():
    inner = QuantumCircuit(2)
    inner.cx(0, 1)
    outer = QuantumCircuit(3)
    combined = outer.compose(inner, qubits=[2, 0])
    assert combined[0].qubits == (2, 0)
    remapped = combined.remap([1, 2, 0])
    assert remapped[0].qubits == (0, 1)


def test_compose_rejects_narrow_mapping():
    inner = QuantumCircuit(2)
    inner.cx(0, 1)
    with pytest.raises(CircuitError):
        QuantumCircuit(3).compose(inner, qubits=[0])


def test_statevector_ghz():
    qc = QuantumCircuit(3)
    qc.h(0).cx(0, 1).cx(1, 2)
    state = qc.statevector()
    assert np.isclose(abs(state[0]) ** 2, 0.5)
    assert np.isclose(abs(state[7]) ** 2, 0.5)


def test_statevector_initial_state_validation():
    qc = QuantumCircuit(2)
    with pytest.raises(CircuitError):
        qc.statevector(initial=np.zeros(3))


def test_to_matrix_limits_width():
    qc = QuantumCircuit(13)
    with pytest.raises(CircuitError):
        qc.to_matrix()


def test_measure_and_barrier_are_ignored_by_simulation():
    qc = QuantumCircuit(2)
    qc.h(0).barrier().cx(0, 1).measure_all()
    bare = QuantumCircuit(2)
    bare.h(0).cx(0, 1)
    assert np.allclose(qc.statevector(), bare.statevector())
    assert len(qc.without_directives()) == 2


def test_random_block_circuit():
    qc = random_two_qubit_block_circuit(5, 8, seed=3)
    assert qc.num_two_qubit_gates() == 8
    assert all(len(instr.qubits) == 2 for instr in qc)


# ---------------------------------------------------------------------------
# Dependency graph (the IntDAG lowering and the shared Kahn order)
# ---------------------------------------------------------------------------


def _lower(qc):
    return IntDAG.from_ops(qc.num_qubits, OpList.of(qc).ops)


def _kahn_names(qc):
    ops = OpList.of(qc).ops
    order = kahn_order([qubits for _, qubits in ops], qc.num_qubits)
    return [ops[index][0].name for index in order]


def test_dag_structure_and_front_layer():
    qc = QuantumCircuit(3)
    qc.h(0).cx(0, 1).cx(1, 2).x(2)
    lowered = _lower(qc)
    assert lowered.num_nodes == 4
    assert lowered.front_ids() == [0]
    assert _kahn_names(qc) == ["h", "cx", "cx", "x"]


def test_dag_successors_predecessors():
    qc = QuantumCircuit(2)
    qc.h(0).cx(0, 1).x(1)
    lowered = _lower(qc)
    assert lowered.successor_ids(0) == [1]
    assert lowered.predecessor_ids(2) == [1]
    assert lowered.gate(lowered.successor_ids(0)[0]).name == "cx"


def test_dag_longest_path_weighted():
    qc = QuantumCircuit(2)
    qc.h(0).cx(0, 1).h(1)
    assert qc.depth() == 3
    assert evaluate(qc, coverage=COVERAGE).gate_depth == 1


def test_dag_roundtrip_preserves_unitary():
    qc = random_two_qubit_block_circuit(4, 6, seed=1)
    ops = OpList.of(qc).ops
    order = kahn_order([qubits for _, qubits in ops], qc.num_qubits)
    back = QuantumCircuit(qc.num_qubits)
    for index in order:
        back.append(*ops[index])
    assert equal_up_to_global_phase(qc.to_matrix(), back.to_matrix())


def test_dag_add_node_validation():
    with pytest.raises(DAGError):
        kahn_order([(0,), (5,)], 2)


# ---------------------------------------------------------------------------
# QASM
# ---------------------------------------------------------------------------


def test_qasm_export_basic():
    qc = QuantumCircuit(2)
    qc.h(0).cx(0, 1).rz(0.25, 1).barrier().measure_all()
    text = to_qasm(qc)
    assert "OPENQASM 2.0;" in text
    assert "cx q[0], q[1];" in text
    assert "measure q[0] -> c[0];" in text


def test_qasm_rejects_raw_unitary_blocks():
    qc = QuantumCircuit(2)
    qc.unitary(haar_unitary(4, 1), [0, 1])
    with pytest.raises(QASMError):
        to_qasm(qc)


def test_qasm_siswap_emitted_as_xy_rotations():
    qc = QuantumCircuit(2)
    qc.siswap(0, 1)
    text = to_qasm(qc)
    assert "rxx(-pi/4)" in text and "ryy(-pi/4)" in text


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=1000))
def test_property_random_circuit_dag_depth_consistency(num_qubits, blocks, seed):
    qc = random_two_qubit_block_circuit(num_qubits, blocks, seed=seed)
    metrics = evaluate(qc, coverage=COVERAGE)
    assert metrics.gate_depth == qc.depth(two_qubit_only=True)
    assert metrics.two_qubit_count == len(qc)
