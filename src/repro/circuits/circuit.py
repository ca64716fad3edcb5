"""The quantum-circuit IR used throughout the reproduction.

:class:`QuantumCircuit` is intentionally close in spirit to the subset of
Qiskit's circuit API that the paper's transpilation flow touches: an ordered
list of gate applications on integer qubit indices, builder methods for the
standard gate set, depth / gate counting, unitary and statevector simulation
for (small) equivalence checks, composition, and conversion to a DAG.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Iterator, Sequence

import numpy as np

from repro.exceptions import CircuitError
from repro.circuits.gates import Gate, UnitaryGate, standard_gate
from repro.linalg.unitary import apply_unitary_to_state, embed_unitary

#: One gate application in op-stream form: the gate and its int qubits.
Op = tuple[Gate, tuple[int, ...]]


@dataclasses.dataclass(frozen=True)
class CircuitInstruction:
    """A gate applied to a tuple of qubits."""

    gate: Gate
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"duplicate qubits in {self.qubits!r}")
        if not self.gate.is_directive and len(self.qubits) != self.gate.num_qubits:
            raise CircuitError(
                f"gate {self.gate.name!r} expects {self.gate.num_qubits} qubits, "
                f"got {len(self.qubits)}"
            )

    @property
    def is_two_qubit(self) -> bool:
        return len(self.qubits) == 2 and not self.gate.is_directive

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.gate!r} @ {self.qubits}"


class QuantumCircuit:
    """An ordered sequence of gates on ``num_qubits`` qubits.

    Args:
        num_qubits: register width.
        name: optional circuit name (used in reports and QASM headers).
    """

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits < 1:
            raise CircuitError("a circuit needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._instructions: list[CircuitInstruction] = []

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[CircuitInstruction]:
        return iter(self._instructions)

    def __getitem__(self, index: int) -> CircuitInstruction:
        return self._instructions[index]

    @property
    def instructions(self) -> tuple[CircuitInstruction, ...]:
        return tuple(self._instructions)

    # -- generic append ------------------------------------------------------

    def _check_qubits(self, qubits: Sequence[int]) -> tuple[int, ...]:
        qubits = tuple(int(q) for q in qubits)
        for qubit in qubits:
            if not 0 <= qubit < self.num_qubits:
                raise CircuitError(
                    f"qubit {qubit} out of range for {self.num_qubits}-qubit circuit"
                )
        return qubits

    def append(self, gate: Gate, qubits: Sequence[int]) -> "QuantumCircuit":
        """Append ``gate`` on ``qubits`` and return ``self`` (chainable)."""
        instruction = CircuitInstruction(gate, self._check_qubits(qubits))
        self._instructions.append(instruction)
        return self

    @classmethod
    def _from_ops(
        cls, num_qubits: int, ops: Sequence[Op], name: str = "circuit"
    ) -> "QuantumCircuit":
        """Build a circuit from ``ops`` in one step.

        The caller guarantees that every qubit is an int in range (as
        :func:`~repro.circuits.dag.kahn_order` or a source circuit has
        checked); :class:`CircuitInstruction` still checks duplicates and
        arity.
        """
        out = cls(num_qubits, name)
        out._instructions = [
            CircuitInstruction(gate, qubits) for gate, qubits in ops
        ]
        return out

    def append_instruction(self, instruction: CircuitInstruction) -> "QuantumCircuit":
        self._check_qubits(instruction.qubits)
        self._instructions.append(instruction)
        return self

    def add(self, name: str, qubits: Sequence[int], *params: float) -> "QuantumCircuit":
        """Append a standard gate by name."""
        return self.append(standard_gate(name, *params), qubits)

    # -- single-qubit builders ----------------------------------------------

    def id(self, qubit: int) -> "QuantumCircuit":
        return self.add("id", [qubit])

    def x(self, qubit: int) -> "QuantumCircuit":
        return self.add("x", [qubit])

    def y(self, qubit: int) -> "QuantumCircuit":
        return self.add("y", [qubit])

    def z(self, qubit: int) -> "QuantumCircuit":
        return self.add("z", [qubit])

    def h(self, qubit: int) -> "QuantumCircuit":
        return self.add("h", [qubit])

    def s(self, qubit: int) -> "QuantumCircuit":
        return self.add("s", [qubit])

    def sdg(self, qubit: int) -> "QuantumCircuit":
        return self.add("sdg", [qubit])

    def t(self, qubit: int) -> "QuantumCircuit":
        return self.add("t", [qubit])

    def tdg(self, qubit: int) -> "QuantumCircuit":
        return self.add("tdg", [qubit])

    def sx(self, qubit: int) -> "QuantumCircuit":
        return self.add("sx", [qubit])

    def rx(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.add("rx", [qubit], theta)

    def ry(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.add("ry", [qubit], theta)

    def rz(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.add("rz", [qubit], theta)

    def p(self, lam: float, qubit: int) -> "QuantumCircuit":
        return self.add("p", [qubit], lam)

    def u(self, theta: float, phi: float, lam: float, qubit: int) -> "QuantumCircuit":
        return self.add("u", [qubit], theta, phi, lam)

    # -- two-qubit builders ---------------------------------------------------

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        return self.add("cx", [control, target])

    def cz(self, control: int, target: int) -> "QuantumCircuit":
        return self.add("cz", [control, target])

    def cp(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.add("cp", [control, target], theta)

    def crx(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.add("crx", [control, target], theta)

    def cry(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.add("cry", [control, target], theta)

    def crz(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.add("crz", [control, target], theta)

    def swap(self, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        return self.add("swap", [qubit_a, qubit_b])

    def iswap(self, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        return self.add("iswap", [qubit_a, qubit_b])

    def siswap(self, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        return self.add("siswap", [qubit_a, qubit_b])

    def rxx(self, theta: float, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        return self.add("rxx", [qubit_a, qubit_b], theta)

    def ryy(self, theta: float, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        return self.add("ryy", [qubit_a, qubit_b], theta)

    def rzz(self, theta: float, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        return self.add("rzz", [qubit_a, qubit_b], theta)

    def unitary(
        self,
        matrix: np.ndarray,
        qubits: Sequence[int],
        label: str = "unitary",
        check: bool = True,
    ) -> "QuantumCircuit":
        """Append an explicit unitary block."""
        return self.append(UnitaryGate(matrix, label=label, check=check), qubits)

    # -- three-qubit builders -------------------------------------------------

    def ccx(self, control_a: int, control_b: int, target: int) -> "QuantumCircuit":
        return self.add("ccx", [control_a, control_b, target])

    def ccz(self, control_a: int, control_b: int, target: int) -> "QuantumCircuit":
        return self.add("ccz", [control_a, control_b, target])

    def cswap(self, control: int, target_a: int, target_b: int) -> "QuantumCircuit":
        return self.add("cswap", [control, target_a, target_b])

    # -- directives ------------------------------------------------------------

    def barrier(self, *qubits: int) -> "QuantumCircuit":
        targets = qubits if qubits else tuple(range(self.num_qubits))
        instruction = CircuitInstruction(
            Gate("barrier", len(targets)), self._check_qubits(targets)
        )
        self._instructions.append(instruction)
        return self

    def measure_all(self) -> "QuantumCircuit":
        for qubit in range(self.num_qubits):
            instruction = CircuitInstruction(Gate("measure", 1), (qubit,))
            self._instructions.append(instruction)
        return self

    # -- inspection -------------------------------------------------------------

    def count_ops(self) -> Counter:
        """Gate-name histogram (directives included)."""
        return Counter(instr.gate.name for instr in self._instructions)

    def num_two_qubit_gates(self) -> int:
        return sum(1 for instr in self._instructions if instr.is_two_qubit)

    def two_qubit_instructions(self) -> list[CircuitInstruction]:
        return [instr for instr in self._instructions if instr.is_two_qubit]

    def depth(self, *, two_qubit_only: bool = False) -> int:
        """Standard circuit depth (longest chain of gates over shared qubits)."""
        frontier = [0] * self.num_qubits
        for instr in self._instructions:
            if instr.gate.is_directive:
                continue
            if two_qubit_only and not instr.is_two_qubit:
                continue
            level = max(frontier[q] for q in instr.qubits) + 1
            for qubit in instr.qubits:
                frontier[qubit] = level
        return max(frontier) if frontier else 0

    def active_qubits(self) -> set[int]:
        return {q for instr in self._instructions for q in instr.qubits}

    # -- transformations ----------------------------------------------------------

    def copy(self, name: str | None = None) -> "QuantumCircuit":
        out = QuantumCircuit(self.num_qubits, name or self.name)
        out._instructions = list(self._instructions)
        return out

    def inverse(self) -> "QuantumCircuit":
        out = QuantumCircuit(self.num_qubits, f"{self.name}_dg")
        for instr in reversed(self._instructions):
            if instr.gate.is_directive:
                continue
            out.append(instr.gate.inverse(), instr.qubits)
        return out

    def compose(
        self, other: "QuantumCircuit", qubits: Sequence[int] | None = None
    ) -> "QuantumCircuit":
        """Append ``other`` (optionally remapped onto ``qubits``) onto a copy."""
        mapping = list(range(other.num_qubits)) if qubits is None else list(qubits)
        if len(mapping) < other.num_qubits:
            raise CircuitError("compose mapping is narrower than the other circuit")
        out = self.copy()
        for instr in other:
            out.append(instr.gate, [mapping[q] for q in instr.qubits])
        return out

    def remap(self, mapping: Sequence[int], num_qubits: int | None = None) -> "QuantumCircuit":
        """Relabel qubit ``q`` of this circuit as ``mapping[q]``."""
        width = num_qubits if num_qubits is not None else self.num_qubits
        out = QuantumCircuit(width, self.name)
        for instr in self:
            out.append(instr.gate, [mapping[q] for q in instr.qubits])
        return out

    def without_directives(self) -> "QuantumCircuit":
        out = QuantumCircuit(self.num_qubits, self.name)
        for instr in self:
            if instr.gate.is_directive:
                continue
            out.append(instr.gate, instr.qubits)
        return out

    # -- simulation ----------------------------------------------------------------

    def statevector(self, initial: np.ndarray | None = None) -> np.ndarray:
        """Simulate the circuit on a statevector (measurements are ignored)."""
        dim = 2**self.num_qubits
        state = np.zeros(dim, dtype=complex)
        state[0] = 1.0
        if initial is not None:
            state = np.asarray(initial, dtype=complex)
            if state.shape != (dim,):
                raise CircuitError("initial state has the wrong dimension")
        for instr in self._instructions:
            if instr.gate.is_directive:
                continue
            state = apply_unitary_to_state(
                state, instr.gate.matrix(), instr.qubits, self.num_qubits
            )
        return state

    def to_matrix(self) -> np.ndarray:
        """Full unitary of the circuit (practical up to ~10 qubits)."""
        if self.num_qubits > 12:
            raise CircuitError("unitary simulation limited to 12 qubits")
        dim = 2**self.num_qubits
        out = np.eye(dim, dtype=complex)
        for instr in self._instructions:
            if instr.gate.is_directive:
                continue
            embedded = embed_unitary(
                instr.gate.matrix(), instr.qubits, self.num_qubits
            )
            out = embedded @ out
        return out

    # -- interop ---------------------------------------------------------------------

    def to_dag(self):
        """Convert to a :class:`repro.circuits.dag.DAGCircuit`."""
        from repro.circuits.dag import DAGCircuit

        return DAGCircuit.from_circuit(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuantumCircuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"gates={len(self)})"
        )


@dataclasses.dataclass
class OpList:
    """A circuit lowered to its ``(gate, qubits)`` op stream.

    The front stages of the transpiler pipeline (clean, unroll,
    consolidate, analyze, VF2 and planning) pass one of these between
    them instead of building a :class:`QuantumCircuit` per stage; only a
    result is built as a circuit again.
    """

    num_qubits: int
    name: str
    ops: list[Op]

    def __len__(self) -> int:
        return len(self.ops)

    @classmethod
    def of(cls, circuit: "QuantumCircuit | OpList") -> "OpList":
        """Lower ``circuit`` (an op list is returned as is)."""
        if isinstance(circuit, OpList):
            return circuit
        return cls(
            circuit.num_qubits,
            circuit.name,
            [(instr.gate, instr.qubits) for instr in circuit._instructions],
        )

    def to_circuit(self) -> QuantumCircuit:
        """The op stream as a :class:`QuantumCircuit`, every op checked."""
        out = QuantumCircuit(self.num_qubits, self.name)
        for gate, qubits in self.ops:
            out.append(gate, qubits)
        return out


def random_two_qubit_block_circuit(
    num_qubits: int,
    num_blocks: int,
    seed: int | np.random.Generator | None = None,
) -> QuantumCircuit:
    """Random circuit of Haar-random two-qubit blocks on random pairs.

    Useful for stress-testing the transpiler with generic (non-Clifford)
    workloads, similar in spirit to quantum-volume circuits.
    """
    from repro.linalg.random import _as_rng, haar_unitary

    rng = _as_rng(seed)
    circuit = QuantumCircuit(num_qubits, name=f"random_{num_qubits}q")
    for _ in range(num_blocks):
        a, b = rng.choice(num_qubits, size=2, replace=False)
        circuit.unitary(haar_unitary(4, rng), [int(a), int(b)], check=False)
    return circuit
