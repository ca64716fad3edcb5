"""The op-list front half equals the circuit chain ``clean → unroll → clean``.

The front stages clean and unroll the op stream once, with no second
cleaning stage.  This file writes the circuit-level chain they replace as
a reference (each stage builds its own ``QuantumCircuit``) and checks on
random circuits — SWAPs, ``ccx``/``ccz``/``cswap``, zero-angle rotations,
``id`` gates, barriers and measures — that the new front gives the same
op stream and the same ``input_permutation``, and, with consolidation,
the same blocks bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.core.pipeline import prepare_ops
from repro.core.transpile import prepare_circuit
from repro.transpiler.passes import consolidate_blocks

ZERO_ANGLE_ROTATIONS = {"rx", "ry", "rz", "p", "cp", "rzz", "rxx", "ryy"}


def _reference_clean(circuit):
    """One cleaning walk, one new circuit: the chain's ``clean`` stage."""
    permutation = list(range(circuit.num_qubits))
    out = QuantumCircuit(circuit.num_qubits, circuit.name)
    for instruction in circuit:
        gate = instruction.gate
        if (
            gate.is_directive
            or gate.name == "id"
            or (gate.name in ZERO_ANGLE_ROTATIONS and abs(gate.params[0]) < 1e-12)
        ):
            continue
        if gate.name == "swap":
            a, b = instruction.qubits
            permutation[a], permutation[b] = permutation[b], permutation[a]
            continue
        out.append(gate, [permutation[q] for q in instruction.qubits])
    return out, permutation


def _toffoli(out, a, b, c):
    out.h(c).cx(b, c).tdg(c).cx(a, c).t(c).cx(b, c).tdg(c).cx(a, c)
    out.t(b).t(c).h(c).cx(a, b).t(a).tdg(b).cx(a, b)


def _reference_unroll(circuit):
    out = QuantumCircuit(circuit.num_qubits, circuit.name)
    for instruction in circuit:
        gate, qubits = instruction.gate, instruction.qubits
        if gate.is_directive or gate.num_qubits <= 2:
            out.append_instruction(instruction)
        elif gate.name == "ccx":
            _toffoli(out, *qubits)
        elif gate.name == "ccz":
            out.h(qubits[2])
            _toffoli(out, *qubits)
            out.h(qubits[2])
        else:  # cswap
            control, x, y = qubits
            out.cx(y, x)
            _toffoli(out, control, x, y)
            out.cx(y, x)
    return out


def _reference_chain(circuit):
    cleaned, first = _reference_clean(circuit)
    recleaned, second = _reference_clean(_reference_unroll(cleaned))
    return recleaned, [second[wire] for wire in first]


_FIXED = ("h", "x", "t", "s", "id", "cx", "cz", "swap", "iswap", "ccx", "ccz",
          "cswap")
_ROTATIONS = ("rx", "rz", "p", "cp", "rzz")
_ANGLES = (0.0, -0.0, 5e-13, -3e-13, 0.4, -1.3, np.pi)


@st.composite
def _circuits(draw):
    num_qubits = draw(st.integers(3, 6))
    circuit = QuantumCircuit(num_qubits, "drawn")
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.integers(0, 9))
        qubits = draw(st.permutations(range(num_qubits)))
        if kind == 0:
            circuit.barrier(*qubits[:draw(st.integers(1, num_qubits))])
        elif kind == 1:
            circuit.append(Gate("measure", 1), qubits[:1])
        elif kind <= 4:
            name = draw(st.sampled_from(_ROTATIONS))
            width = 2 if name in ("cp", "rzz") else 1
            circuit.add(name, qubits[:width], draw(st.sampled_from(_ANGLES)))
        else:
            name = draw(st.sampled_from(_FIXED))
            circuit.add(name, qubits[:_width(name)])
    if draw(st.booleans()):
        circuit.measure_all()
    return circuit


def _width(name):
    if name in ("ccx", "ccz", "cswap"):
        return 3
    if name in ("cx", "cz", "swap", "iswap"):
        return 2
    return 1


def _ops(circuit):
    return [(i.gate, i.qubits) for i in circuit]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(circuit=_circuits())
def test_front_half_equals_the_clean_unroll_clean_chain(circuit):
    reference, permutation = _reference_chain(circuit)
    report = []
    prepared, prepared_permutation = prepare_ops(
        circuit, consolidate=False, report=report
    )
    assert [row["name"] for row in report] == ["clean", "unroll"]
    assert prepared.ops == _ops(reference)
    assert prepared.num_qubits == reference.num_qubits
    assert prepared.name == reference.name
    assert prepared_permutation == permutation
    assert _ops(prepare_circuit(circuit, consolidate=False)) == _ops(reference)


def _blocks(circuit):
    return [
        (
            gate.name,
            qubits,
            gate.matrix().tobytes(),
            getattr(gate, "coordinate", None),
        )
        for gate, qubits in _ops(circuit)
    ]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(circuit=_circuits())
def test_consolidated_front_equals_the_chain_bit_for_bit(circuit):
    reference, _ = _reference_chain(circuit)
    assert _blocks(prepare_circuit(circuit)) == _blocks(
        consolidate_blocks(reference)
    )
