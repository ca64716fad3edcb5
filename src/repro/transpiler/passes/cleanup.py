"""Input-cleaning passes (paper Section V).

Before routing, the pass manager removes barriers, measurements and identity
gates, and elides SWAP gates present in the *input* program by permuting the
wire labels of all downstream gates (an input SWAP never needs to be
executed — only routing-inserted SWAPs cost pulses).  All of it is one walk
over the instructions, :func:`clean_input_permuted`.
"""

from __future__ import annotations

from repro.circuits.circuit import QuantumCircuit

#: Rotations that are dropped when their angle is (numerically) zero.
ZERO_ANGLE_ROTATIONS = frozenset({"rx", "ry", "rz", "p", "cp", "rzz", "rxx", "ryy"})


def clean_input_permuted(
    circuit: QuantumCircuit,
    *,
    drop_no_ops: bool = True,
) -> tuple[QuantumCircuit, list[int]]:
    """Clean ``circuit`` in one walk and return the wire permutation applied.

    Every SWAP is absorbed into a virtual-qubit permutation applied to all
    later gates instead of being emitted.

    Args:
        circuit: the input program.
        drop_no_ops: drop barriers, measurements, ``id`` gates and
            zero-angle rotations.

    Returns:
        ``(cleaned, permutation)``: the output state of ``circuit`` on
        qubit ``q`` is the output state of ``cleaned`` on qubit
        ``permutation[q]``.
    """
    permutation = list(range(circuit.num_qubits))
    out = QuantumCircuit(circuit.num_qubits, circuit.name)
    for instruction in circuit:
        gate = instruction.gate
        if drop_no_ops and (
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
    """Full input-cleaning pipeline used by the preset pass managers."""
    return clean_input_permuted(circuit)[0]
