"""Circuit IR: gates, circuits, DAGs and benchmark generators."""

from repro.circuits.circuit import (
    CircuitInstruction,
    OpList,
    QuantumCircuit,
    random_two_qubit_block_circuit,
)
from repro.circuits.dag import DAGCircuit, DAGNode
from repro.circuits.gates import (
    DIRECTIVES,
    Gate,
    UnitaryGate,
    gate_names,
    standard_gate,
)
from repro.circuits.qasm import to_qasm

__all__ = [
    "CircuitInstruction",
    "OpList",
    "QuantumCircuit",
    "random_two_qubit_block_circuit",
    "DAGCircuit",
    "DAGNode",
    "DIRECTIVES",
    "Gate",
    "UnitaryGate",
    "gate_names",
    "standard_gate",
    "to_qasm",
]
