"""Consolidation of adjacent gates into annotated two-qubit blocks.

MIRAGE reasons about *blocks*: maximal runs of gates that touch the same
qubit pair (including interleaved single-qubit gates) collapsed into one
``UnitaryGate`` whose Weyl coordinate is attached as an annotation.  This is
the reproduction of Qiskit's ``ConsolidateBlocks`` with the caching rewrite
described in the paper's Section VI-C: coordinates are computed once per
distinct block matrix through a shared LRU cache.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.circuits.circuit import Op, OpList, QuantumCircuit
from repro.circuits.gates import Gate, UnitaryGate
from repro.linalg.unitary import embed_unitary
from repro.polytopes.cache import GLOBAL_COORDINATE_CACHE, CoordinateCache


def _placement_table(placement: tuple[int, ...]) -> np.ndarray:
    """Where each entry of a gate matrix lands in the block's 4x4.

    Entry ``[r, c]`` of the table is the flat index into the gate matrix
    whose value :func:`embed_unitary` places at ``[r, c]``, or ``-1`` for
    an entry it leaves zero.  The table is read off ``embed_unitary``
    itself, applied to a matrix of distinct markers.
    """
    size = 2 ** len(placement)
    markers = np.arange(1, size * size + 1).reshape(size, size)
    return embed_unitary(markers, placement, 2).real.astype(np.intp) - 1


#: Index tables for the four ways a gate sits on a block's qubit pair.
_PLACEMENT_TABLES = {
    placement: _placement_table(placement)
    for placement in ((0,), (1,), (0, 1), (1, 0))
}


def _padded(gate_matrix: np.ndarray) -> np.ndarray:
    """A gate matrix flattened, with a trailing zero for table index ``-1``.

    Adding zero performs the ``0 + amplitude`` of :func:`embed_unitary`,
    which turns negative zeros positive, so a table lookup reproduces its
    embedding bit for bit.
    """
    flat = np.asarray(gate_matrix, dtype=complex).ravel()
    return np.append(flat, 0) + 0


class _Block:
    """A growing run of gates on one qubit pair."""

    def __init__(self, qubits: tuple[int, int]) -> None:
        self.qubits = qubits
        self.matrix = np.eye(4, dtype=complex)

    def absorb(self, padded: np.ndarray, gate_qubits: tuple[int, ...]) -> None:
        """Multiply a gate (1Q or 2Q, on this block's qubits) into the block.

        ``padded`` is the gate matrix as :func:`_padded` returns it.
        """
        first = self.qubits.index(gate_qubits[0])
        placement = (first,) if len(gate_qubits) == 1 else (first, 1 - first)
        embedded = padded[_PLACEMENT_TABLES[placement]]
        self.matrix = embedded @ self.matrix


def consolidate_ops(
    ops: Sequence[Op],
    *,
    cache: CoordinateCache | None = None,
    annotate: bool = True,
) -> list[Op]:
    """Collapse maximal same-pair runs into coordinate-annotated blocks.

    Single-qubit gates that are sandwiched inside a run are absorbed into
    the block; single-qubit gates with no active block on their qubit are
    emitted unchanged.  Directives close the blocks on their qubits.

    Args:
        ops: input ``(gate, qubits)`` stream (only 1Q/2Q gates and
            directives).
        cache: coordinate cache to use (defaults to the global cache).
        annotate: attach Weyl coordinates to the emitted blocks.

    Returns:
        The op stream of ``UnitaryGate`` blocks plus untouched 1Q gates.
    """
    cache = cache if cache is not None else GLOBAL_COORDINATE_CACHE
    open_blocks: dict[frozenset[int], _Block] = {}
    block_of_qubit: dict[int, frozenset[int]] = {}
    # Emission is two-phase: the streaming walk records blocks and pass-through
    # ops in order, then every block coordinate is resolved through one
    # batched cache query before the output stream is materialised.
    emitted: list[Op | _Block] = []
    # Equal plain gates have equal matrices, so each is built once.  A
    # ``UnitaryGate`` compares equal regardless of its matrix, and a zero
    # parameter equals its negative although the matrices may differ in
    # the sign of a zero, so neither is memoised.
    memo: dict[Gate, np.ndarray] = {}

    def padded_matrix(gate: Gate) -> np.ndarray:
        if type(gate) is not Gate or 0.0 in gate.params:
            return _padded(gate.matrix())
        padded = memo.get(gate)
        if padded is None:
            padded = memo[gate] = _padded(gate.matrix())
        return padded

    def close_block(key: frozenset[int]) -> None:
        block = open_blocks.pop(key)
        for qubit in block.qubits:
            block_of_qubit.pop(qubit, None)
        emitted.append(block)

    def close_blocks_on(qubits: tuple[int, ...]) -> None:
        keys = {block_of_qubit[q] for q in qubits if q in block_of_qubit}
        for key in keys:
            close_block(key)

    for op in ops:
        gate, qubits = op
        if gate.is_directive or len(qubits) > 2:
            close_blocks_on(qubits)
            emitted.append(op)
            continue
        if len(qubits) == 1:
            qubit = qubits[0]
            key = block_of_qubit.get(qubit)
            if key is not None:
                open_blocks[key].absorb(padded_matrix(gate), qubits)
            else:
                emitted.append(op)
            continue
        # Two-qubit gate.
        key = frozenset(qubits)
        if key in open_blocks:
            open_blocks[key].absorb(padded_matrix(gate), qubits)
            continue
        close_blocks_on(qubits)
        block = _Block(qubits)
        block.absorb(padded_matrix(gate), qubits)
        open_blocks[key] = block
        for qubit in qubits:
            block_of_qubit[qubit] = key

    for key in list(open_blocks):
        close_block(key)

    blocks = [entry for entry in emitted if type(entry) is _Block]
    if annotate and blocks:
        coordinates = iter(
            cache.coordinates_many([block.matrix for block in blocks])
        )
    else:
        coordinates = iter([None] * len(blocks))
    return [
        (
            UnitaryGate(
                entry.matrix, label="block", check=False, coordinate=next(coordinates)
            ),
            entry.qubits,
        )
        if type(entry) is _Block
        else entry
        for entry in emitted
    ]


def consolidate_blocks(
    circuit: QuantumCircuit,
    *,
    cache: CoordinateCache | None = None,
    annotate: bool = True,
) -> QuantumCircuit:
    """:func:`consolidate_ops` on a circuit: blocks plus untouched 1Q gates."""
    ops = consolidate_ops(OpList.of(circuit).ops, cache=cache, annotate=annotate)
    return OpList(circuit.num_qubits, circuit.name, ops).to_circuit()
