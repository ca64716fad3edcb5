"""Unrolling of gates with more than two qubits.

Routing only understands one- and two-qubit operations; this pass expands
the three-qubit gates used by the benchmark generators (Toffoli, Fredkin,
CCZ) into the standard CNOT + T constructions.  The rules go by gate name
and apply to standard gates only; the expansions reuse one constant gate
object per emitted gate name.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import TranspilerError
from repro.circuits.circuit import Op, OpList, QuantumCircuit
from repro.circuits.gates import Gate, standard_gate

_H, _CX, _T, _TDG = (standard_gate(name) for name in ("h", "cx", "t", "tdg"))


def _toffoli(a: int, b: int, c: int) -> list[Op]:
    """Standard 6-CNOT Toffoli decomposition."""
    return [
        (_H, (c,)), (_CX, (b, c)), (_TDG, (c,)), (_CX, (a, c)), (_T, (c,)),
        (_CX, (b, c)), (_TDG, (c,)), (_CX, (a, c)), (_T, (b,)), (_T, (c,)),
        (_H, (c,)), (_CX, (a, b)), (_T, (a,)), (_TDG, (b,)), (_CX, (a, b)),
    ]


def _ccz(a: int, b: int, c: int) -> list[Op]:
    return [(_H, (c,)), *_toffoli(a, b, c), (_H, (c,))]


def _fredkin(control: int, x: int, y: int) -> list[Op]:
    """Fredkin = CNOT-conjugated Toffoli."""
    return [(_CX, (y, x)), *_toffoli(control, x, y), (_CX, (y, x))]


_RULES = {"ccx": _toffoli, "ccz": _ccz, "cswap": _fredkin}


def unroll_ops(ops: Sequence[Op]) -> list[Op]:
    """Expand every >2-qubit gate of an op stream into 1Q and 2Q gates."""
    out: list[Op] = []
    for op in ops:
        gate, qubits = op
        if gate.is_directive or gate.num_qubits <= 2:
            out.append(op)
            continue
        rule = _RULES.get(gate.name) if type(gate) is Gate else None
        if rule is None:
            raise TranspilerError(
                f"no unrolling rule for {gate.num_qubits}-qubit gate {gate.name!r}"
            )
        out.extend(rule(*qubits))
    return out


def unroll_to_two_qubit(circuit: QuantumCircuit) -> QuantumCircuit:
    """Expand every >2-qubit gate into one- and two-qubit gates."""
    return OpList(
        circuit.num_qubits, circuit.name, unroll_ops(OpList.of(circuit).ops)
    ).to_circuit()
