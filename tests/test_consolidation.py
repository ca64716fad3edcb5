"""Differential test of consolidation against the per-gate product.

``consolidate_ops`` records each block's factors during its walk and
multiplies all blocks at once in stacked rounds.  The reference kept
here is the straightforward construction it replaced: every block starts
from the identity and takes ``embed_unitary(gate, positions, 2) @ block``
per absorbed gate, and blocks close when a gate or directive on one of
their qubits breaks the run, or at the end in the order they opened.
Streams mix standard gates with signed-zero and near-zero parameters,
unitary gates, repeated gate objects, wide barriers, measures and
3-qubit gates; the op stream, block qubits, matrix bytes and coordinates
must all match.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.gates import Gate, UnitaryGate, standard_gate
from repro.linalg import haar_unitary
from repro.linalg.unitary import embed_unitary
from repro.polytopes.cache import CoordinateCache
from repro.transpiler.passes.consolidate import consolidate_ops

ANGLES = (0.0, -0.0, 1e-300, -1e-300, 1e-12, -1e-9, 0.5, -3.0)
ONE_QUBIT_PARAMETRIC = ("rz", "ry", "rx", "p")
TWO_QUBIT_PARAMETRIC = ("rzz", "cp", "rxx", "crz")
ONE_QUBIT_FIXED = ("h", "x", "s", "sdg", "t", "sx")
TWO_QUBIT_FIXED = ("cx", "cz", "swap", "iswap", "siswap")

# Shared objects, drawn more than once per stream.
SHARED = (
    standard_gate("cx"),
    standard_gate("rz", 0.25),
    standard_gate("rz", -0.0),
    UnitaryGate(haar_unitary(4, 11), check=False),
    UnitaryGate(haar_unitary(2, 12), check=False),
)


def reference_consolidate(ops, cache):
    """The per-gate construction: one ``embed_unitary`` product per gate."""
    open_blocks: dict[frozenset[int], list] = {}
    block_of_qubit: dict[int, frozenset[int]] = {}
    emitted: list = []

    def close(key):
        block = open_blocks.pop(key)
        for qubit in block[0]:
            block_of_qubit.pop(qubit, None)
        emitted.append(block)

    def close_on(qubits):
        for key in {block_of_qubit[q] for q in qubits if q in block_of_qubit}:
            close(key)

    def absorb(block, gate, qubits):
        positions = [block[0].index(q) for q in qubits]
        block[1] = embed_unitary(gate.matrix(), positions, 2) @ block[1]

    for gate, qubits in ops:
        if gate.is_directive or len(qubits) > 2:
            close_on(qubits)
            emitted.append((gate, qubits))
        elif len(qubits) == 1:
            key = block_of_qubit.get(qubits[0])
            if key is None:
                emitted.append((gate, qubits))
            else:
                absorb(open_blocks[key], gate, qubits)
        elif frozenset(qubits) in open_blocks:
            absorb(open_blocks[frozenset(qubits)], gate, qubits)
        else:
            close_on(qubits)
            block = open_blocks[frozenset(qubits)] = [
                qubits, np.eye(4, dtype=complex)
            ]
            for qubit in qubits:
                block_of_qubit[qubit] = frozenset(qubits)
            absorb(block, gate, qubits)
    for key in list(open_blocks):
        close(key)
    blocks = [entry for entry in emitted if type(entry) is list]
    coordinates = iter(
        cache.coordinates_many([block[1] for block in blocks]) if blocks else []
    )
    return [
        (entry[0], entry[1], next(coordinates)) if type(entry) is list
        else entry
        for entry in emitted
    ]


@st.composite
def streams(draw):
    width = draw(st.integers(2, 6))
    wires = st.permutations(range(width))
    ops = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(
            ("1q", "1q", "2q", "2q", "2q", "shared", "unitary", "barrier",
             "measure", "3q")
        ))
        order = draw(wires)
        if kind == "1q":
            if draw(st.booleans()):
                gate = standard_gate(draw(st.sampled_from(ONE_QUBIT_FIXED)))
            else:
                gate = standard_gate(
                    draw(st.sampled_from(ONE_QUBIT_PARAMETRIC)),
                    draw(st.sampled_from(ANGLES)),
                )
            ops.append((gate, (order[0],)))
        elif kind == "2q":
            if draw(st.booleans()):
                gate = standard_gate(draw(st.sampled_from(TWO_QUBIT_FIXED)))
            else:
                gate = standard_gate(
                    draw(st.sampled_from(TWO_QUBIT_PARAMETRIC)),
                    draw(st.sampled_from(ANGLES)),
                )
            ops.append((gate, tuple(order[:2])))
        elif kind == "shared":
            gate = draw(st.sampled_from(SHARED))
            ops.append((gate, tuple(order[: gate.num_qubits])))
        elif kind == "unitary":
            size = draw(st.sampled_from((2, 4)))
            seed = draw(st.integers(0, 2**16))
            gate = UnitaryGate(haar_unitary(size, seed), check=False)
            ops.append((gate, tuple(order[: gate.num_qubits])))
        elif kind == "barrier":
            count = draw(st.integers(1, width))
            ops.append((Gate("barrier", count), tuple(order[:count])))
        elif kind == "measure":
            ops.append((Gate("measure", 1), (order[0],)))
        elif width >= 3:
            gate = standard_gate(draw(st.sampled_from(("ccx", "cswap", "ccz"))))
            ops.append((gate, tuple(order[:3])))
    return ops


@settings(max_examples=200, deadline=None, derandomize=True)
@given(streams())
def test_consolidation_matches_the_per_gate_product(ops):
    expected = reference_consolidate(ops, CoordinateCache())
    got = consolidate_ops(ops, cache=CoordinateCache())
    assert len(got) == len(expected)
    for (gate, qubits), want in zip(got, expected):
        if len(want) == 3:
            want_qubits, want_matrix, want_coordinate = want
            assert type(gate) is UnitaryGate and gate.name == "block"
            assert qubits == want_qubits
            assert gate.matrix().tobytes() == want_matrix.tobytes()
            assert gate.coordinate == want_coordinate
        else:
            assert gate is want[0]
            assert qubits == want[1]


def test_unannotated_blocks_carry_no_coordinate():
    ops = [(standard_gate("cx"), (0, 1)), (standard_gate("h"), (1,))]
    ((gate, qubits),) = consolidate_ops(ops, annotate=False)
    assert qubits == (0, 1) and gate.coordinate is None
    (want,) = reference_consolidate(ops, CoordinateCache())
    assert gate.matrix().tobytes() == want[1].tobytes()
