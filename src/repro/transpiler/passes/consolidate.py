"""Consolidation of adjacent gates into annotated two-qubit blocks.

MIRAGE reasons about *blocks*: maximal runs of gates that touch the same
qubit pair (including interleaved single-qubit gates) collapsed into one
``UnitaryGate`` whose Weyl coordinate is attached as an annotation.  This is
the reproduction of Qiskit's ``ConsolidateBlocks`` with the caching rewrite
described in the paper's Section VI-C: coordinates are computed once per
distinct block matrix through a shared LRU cache.

The pass runs in two phases.  A streaming walk over the op stream decides
which gates each block absorbs and the order blocks close in, recording
each absorbed gate as a *factor*: a row of padded gate matrices plus one
of four placements on the block's qubit pair.  The block matrices are then
built for the whole circuit at once: one gather through the placement
tables embeds every factor, and stacked ``np.matmul`` rounds multiply
them, round ``k`` taking every block's ``k``-th factor.  Each block's
product starts from the identity and multiplies ``embedded @ block`` in
absorption order, so it equals the per-gate product bit for bit.
"""

from __future__ import annotations

from itertools import chain
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


#: The four ways a gate sits on a block's qubit pair, by placement number:
#: a 1Q gate on the pair's first or second qubit, a 2Q gate in the pair's
#: order or reversed.
_PLACEMENTS = ((0,), (1,), (0, 1), (1, 0))

#: Index tables for the four placements.
_PLACEMENT_TABLES = {
    placement: _placement_table(placement) for placement in _PLACEMENTS
}

#: Length of a padded gate-matrix row: a 2Q matrix's 16 entries plus a zero.
_ROW = 17

#: The placement tables as one ``(4, 4, 4)`` array indexed by placement
#: number, with ``-1`` (an entry left zero) pointing at a row's last entry.
_GATHER = np.stack(
    [np.where(_PLACEMENT_TABLES[p] < 0, _ROW - 1, _PLACEMENT_TABLES[p])
     for p in _PLACEMENTS]
)


def _padded(gate_matrix: np.ndarray) -> np.ndarray:
    """A 1Q or 2Q gate matrix flattened into a zero-padded row of 17.

    Its trailing zero serves table index ``-1``.  Adding zero performs
    the ``0 + amplitude`` of :func:`embed_unitary`, which turns negative
    zeros positive, so a table lookup reproduces its embedding bit for
    bit.
    """
    flat = np.asarray(gate_matrix, dtype=complex).ravel()
    row = np.zeros(_ROW, dtype=complex)
    row[: flat.size] = flat
    return row + 0


def _block_products(rows: np.ndarray, factors: list[list[int]]) -> np.ndarray:
    """The ``(len(factors), 4, 4)`` matrices of blocks built from factors.

    ``rows`` holds padded gate-matrix rows (:func:`_padded`), and each
    block's factor list holds ``4 * row + placement`` per absorbed gate,
    in absorption order.  Every block starts from the identity and takes
    ``embedded @ block`` per factor, exactly as a per-gate loop would.
    Blocks are ordered by factor count, longest first, so the blocks that
    have a ``k``-th factor are a prefix and round ``k`` is one stacked
    ``np.matmul`` over it; the embedded factors are gathered once, in
    round order, so each round reads one contiguous slice.
    """
    counts = np.fromiter(map(len, factors), dtype=np.intp, count=len(factors))
    starts = np.cumsum(counts) - counts
    order = np.argsort(-counts, kind="stable")
    longest_first = counts[order]
    # Blocks with more than k factors, per round k.
    widths = np.searchsorted(
        -longest_first, -np.arange(longest_first[0]), side="left"
    ).tolist()
    first = starts[order]
    in_round_order = np.concatenate(
        [first[:width] + k for k, width in enumerate(widths)]
    )
    flat = np.fromiter(chain.from_iterable(factors), dtype=np.intp,
                       count=int(counts.sum()))[in_round_order]
    row, placement = np.divmod(flat, 4)
    embedded = rows.ravel()[row[:, None, None] * _ROW + _GATHER[placement]]
    products = np.empty((len(factors), 4, 4), dtype=complex)
    products[:] = np.eye(4, dtype=complex)
    offset = 0
    for width in widths:
        products[:width] = np.matmul(
            embedded[offset : offset + width], products[:width]
        )
        offset += width
    matrices = np.empty_like(products)
    matrices[order] = products
    return matrices


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
    # An open block is ``[qubits, factors]``.  ``open_blocks`` keeps the
    # open ones in the order they opened, which is the order the walk's
    # end closes them in.
    open_blocks: dict[int, list] = {}
    block_of_qubit: dict[int, list] = {}
    # The walk emits pass-through ops and, for a block, its index in
    # ``closed`` (the order blocks close in); the matrices and their
    # coordinates are resolved for all blocks at once afterwards.
    emitted: list[Op | int] = []
    closed: list[list] = []
    rows: list[np.ndarray] = []
    # One row per gate object; ``seen`` keeps each object alive, so its
    # id stays its own.  Equal plain gates have equal matrices and share
    # a row too.  A ``UnitaryGate`` compares equal regardless of its
    # matrix, and a zero parameter equals its negative although the
    # matrices may differ in the sign of a zero, so neither is shared by
    # value.
    row_of_object: dict[int, int] = {}
    row_of_value: dict[Gate, int] = {}
    seen: list[Gate] = []

    def new_row(gate: Gate) -> int:
        by_value = type(gate) is Gate and 0.0 not in gate.params
        row = row_of_value.get(gate) if by_value else None
        if row is None:
            row = len(rows)
            rows.append(_padded(gate.matrix()))
            if by_value:
                row_of_value[gate] = row
        row_of_object[id(gate)] = row
        seen.append(gate)
        return row

    def close(block: list) -> None:
        del open_blocks[id(block)]
        for qubit in block[0]:
            del block_of_qubit[qubit]
        emitted.append(len(closed))
        closed.append(block)

    def close_blocks_on(qubits: tuple[int, ...]) -> None:
        blocks = [block_of_qubit[q] for q in qubits if q in block_of_qubit]
        if len(blocks) == 1:
            close(blocks[0])
        elif blocks:
            # Close in the iteration order of the set of qubit pairs.
            by_pair = {frozenset(block[0]): block for block in blocks}
            for pair in set(by_pair):
                close(by_pair[pair])

    for op in ops:
        gate, qubits = op
        if gate.is_directive or len(qubits) > 2:
            close_blocks_on(qubits)
            emitted.append(op)
            continue
        if len(qubits) == 1:
            block = block_of_qubit.get(qubits[0])
            if block is None:
                emitted.append(op)
                continue
            row = row_of_object.get(id(gate))
            if row is None:
                row = new_row(gate)
            block[1].append(4 * row + (block[0][0] != qubits[0]))
            continue
        # Two-qubit gate: absorbed by the open block on its pair, or the
        # first gate of a new block.
        a, b = qubits
        block = block_of_qubit.get(a)
        if block is None or block_of_qubit.get(b) is not block:
            if block is not None or b in block_of_qubit:
                close_blocks_on(qubits)
            block = [qubits, []]
            open_blocks[id(block)] = block_of_qubit[a] = block_of_qubit[b] = block
        row = row_of_object.get(id(gate))
        if row is None:
            row = new_row(gate)
        block[1].append(4 * row + 2 + (block[0][0] != a))

    for block in list(open_blocks.values()):
        close(block)
    if not closed:
        return emitted
    matrices = _block_products(np.array(rows), [block[1] for block in closed])
    coordinates = (
        cache.coordinates_many(matrices) if annotate else [None] * len(closed)
    )
    return [
        (
            UnitaryGate(
                matrices[entry], label="block", check=False,
                coordinate=coordinates[entry],
            ),
            closed[entry][0],
        )
        if type(entry) is int
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
