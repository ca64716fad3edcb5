"""Input-cleaning passes (paper Section V).

Before routing, the ``clean`` stage removes barriers, measurements and
identity gates, and elides SWAP gates present in the *input* program by permuting the
wire labels of all downstream gates (an input SWAP never needs to be
executed — only routing-inserted SWAPs cost pulses).  All of it is one walk
over the op stream, :func:`clean_ops`.  The rules go by gate name and
apply to standard gates only: a :class:`~repro.circuits.gates.UnitaryGate`
is kept whatever its label.
"""

from __future__ import annotations

from typing import Sequence

from repro.circuits.circuit import Op, OpList, QuantumCircuit
from repro.circuits.gates import DIRECTIVES, Gate

#: Rotations that are dropped when their angle is (numerically) zero.
ZERO_ANGLE_ROTATIONS = frozenset({"rx", "ry", "rz", "p", "cp", "rzz", "rxx", "ryy"})


def clean_ops(
    ops: Sequence[Op], num_qubits: int, *, drop_no_ops: bool = True
) -> tuple[list[Op], list[int]]:
    """Clean an op stream in one walk; return it and the permutation applied.

    Drops barriers, measurements, ``id`` gates and zero-angle rotations
    (unless ``drop_no_ops`` is false), and absorbs every SWAP into a
    virtual-qubit permutation of all later gates instead of emitting it:
    the output state of ``ops`` on qubit ``q`` is the output state of the
    cleaned stream on qubit ``permutation[q]``.
    """
    permutation = list(range(num_qubits))
    out: list[Op] = []
    for gate, qubits in ops:
        if type(gate) is Gate:
            name = gate.name
            if drop_no_ops and (
                name in DIRECTIVES
                or name == "id"
                or (name in ZERO_ANGLE_ROTATIONS and abs(gate.params[0]) < 1e-12)
            ):
                continue
            if name == "swap":
                a, b = qubits
                permutation[a], permutation[b] = permutation[b], permutation[a]
                continue
        out.append((gate, tuple([permutation[q] for q in qubits])))
    return out, permutation


def clean_input_permuted(
    circuit: QuantumCircuit, *, drop_no_ops: bool = True
) -> tuple[QuantumCircuit, list[int]]:
    """:func:`clean_ops` on a circuit: ``(cleaned, permutation)``.

    The output state of ``circuit`` on qubit ``q`` is the output state of
    ``cleaned`` on qubit ``permutation[q]``.
    """
    ops, permutation = clean_ops(
        OpList.of(circuit).ops, circuit.num_qubits, drop_no_ops=drop_no_ops
    )
    return OpList(circuit.num_qubits, circuit.name, ops).to_circuit(), permutation


def elide_input_swaps(circuit: QuantumCircuit) -> QuantumCircuit:
    """Remove SWAP gates from the input program by relabelling wires.

    Every SWAP in the source circuit is absorbed into a virtual-qubit
    permutation applied to all later gates; the resulting circuit computes
    the same unitary up to a final wire permutation, which is irrelevant for
    routing-quality comparisons (and is how Qiskit's ``RemoveSwap``-style
    cleaning behaves before SABRE runs).  :func:`elide_input_swaps_permuted`
    also returns that permutation.
    """
    return elide_input_swaps_permuted(circuit)[0]


def elide_input_swaps_permuted(
    circuit: QuantumCircuit,
) -> tuple[QuantumCircuit, list[int]]:
    """:func:`elide_input_swaps` plus the wire permutation it applied.

    Returns ``(cleaned, permutation)``: the output state of ``circuit`` on
    qubit ``q`` is the output state of ``cleaned`` on qubit
    ``permutation[q]``.
    """
    return clean_input_permuted(circuit, drop_no_ops=False)


def clean_input(circuit: QuantumCircuit) -> QuantumCircuit:
    """Full input cleaning of a circuit (the ``clean`` stage's rules)."""
    return clean_input_permuted(circuit)[0]
