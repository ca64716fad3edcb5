"""Elided input SWAPs are recorded on the result, so outputs can be checked.

``clean`` drops the SWAP gates of the input program by relabelling wires.
The permutation it applies is exposed as
``TranspileResult.input_permutation``; with it, a routed circuit is
unitary-equivalent to its input up to the initial layout, the final
layout and that permutation.  Cleaning and unrolling go by gate name
for standard gates only, so a ``UnitaryGate`` is never elided, dropped
or expanded because of its label.
"""

import asyncio

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import qft
from repro.core import transpile, transpile_many
from repro.exceptions import TranspilerError
from repro.linalg.random import haar_unitary
from repro.polytopes import get_coverage_set
from repro.service import MirageService
from repro.transpiler import line_topology
from repro.transpiler.passes import (
    clean_input_permuted,
    elide_input_swaps,
    elide_input_swaps_permuted,
    unroll_to_two_qubit,
)

COVERAGE = get_coverage_set("sqrt_iswap", num_samples=250, seed=3)
KNOBS = dict(layout_trials=2, coverage=COVERAGE)


def _place(state, positions, num_qubits):
    """Move qubit ``v`` of a little-endian statevector to ``positions[v]``."""
    axes = [0] * num_qubits
    for qubit, position in enumerate(positions):
        axes[num_qubits - 1 - position] = num_qubits - 1 - qubit
    tensor = state.reshape((2,) * num_qubits)
    return np.transpose(tensor, axes).reshape(-1)


def _equivalent(original, result, permutation) -> bool:
    """Routed output equals the input's up to layouts, permutation, phase."""
    num_qubits = original.num_qubits
    assert result.circuit.num_qubits == num_qubits
    rng = np.random.default_rng(0)
    state = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    state /= np.linalg.norm(state)
    initial = [result.initial_layout.v2p(v) for v in range(num_qubits)]
    final = [result.final_layout.v2p(permutation[q]) for q in range(num_qubits)]
    routed = result.circuit.statevector(_place(state, initial, num_qubits))
    expected = _place(original.statevector(state), final, num_qubits)
    return abs(abs(np.vdot(expected, routed)) - 1.0) < 1e-9


def test_elision_permutation_semantics():
    circuit = QuantumCircuit(3)
    circuit.swap(0, 1).x(0).swap(1, 2).h(1)
    cleaned, permutation = elide_input_swaps_permuted(circuit)
    assert permutation == [1, 2, 0]
    assert [(i.gate.name, i.qubits) for i in cleaned] == [("x", (1,)), ("h", (2,))]
    assert [(i.gate.name, i.qubits) for i in elide_input_swaps(circuit)] == [
        (i.gate.name, i.qubits) for i in cleaned
    ]
    state = np.zeros(8, dtype=complex)
    state[0b101] = 1.0
    # The input's output on qubit q is the cleaned output on permutation[q].
    expected = circuit.statevector(state)
    got = cleaned.statevector(state)
    inverse_positions = [permutation.index(w) for w in range(3)]
    assert np.allclose(_place(got, inverse_positions, 3), expected)


@pytest.mark.parametrize("method", ["sabre", "mirage"])
def test_transpile_is_equivalent_up_to_the_permutation(method):
    original = qft(5)
    result = transpile(original, line_topology(5), method=method, seed=3, **KNOBS)
    assert result.input_permutation == [4, 3, 2, 1, 0]
    assert _equivalent(original, result, result.input_permutation)
    assert not _equivalent(original, result, list(range(5)))


@pytest.mark.parametrize("method", ["sabre", "mirage"])
def test_transpile_many_threads_the_permutation(method):
    circuits = [qft(5), qft(5, do_swaps=False)]
    batch = transpile_many(
        circuits, line_topology(5), method=method, seed=5, **KNOBS
    )
    assert batch[0].input_permutation == [4, 3, 2, 1, 0]
    assert batch[1].input_permutation == [0, 1, 2, 3, 4]
    for original, result in zip(circuits, batch):
        assert _equivalent(original, result, result.input_permutation)
        direct = transpile(
            original, line_topology(5), method=method, seed=5, **KNOBS
        )
        assert direct.input_permutation == result.input_permutation


def test_service_results_carry_the_permutation():
    async def serve():
        async with MirageService(
            executor="serial",
            window_ms=0.0,
            coverage_params=dict(num_samples=250, seed=3),
        ) as service:
            return await service.submit(
                qft(5), line_topology(5), seed=3, layout_trials=2
            )

    result = asyncio.run(serve())
    assert result.input_permutation == [4, 3, 2, 1, 0]
    assert _equivalent(qft(5), result, result.input_permutation)


# ---------------------------------------------------------------------------
# Name rules apply to standard gates only
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("label", ["swap", "id", "barrier", "rz"])
def test_a_labelled_unitary_is_kept(label):
    """Cleaning picks its rules by gate name; a user's unitary named like
    a SWAP, an identity, a barrier or a rotation must not be elided,
    dropped or read as one."""
    rng = np.random.default_rng(4)
    original = QuantumCircuit(3, "labelled")
    original.h(0).cx(0, 1)
    if label == "rz":
        original.unitary(haar_unitary(2, rng), [2], label=label)
    else:
        original.unitary(haar_unitary(4, rng), [1, 2], label=label)
    original.cx(2, 0)
    cleaned, permutation = clean_input_permuted(original)
    assert permutation == [0, 1, 2]
    assert [i.gate.name for i in cleaned].count(label) == 1
    result = transpile(original, line_topology(3), seed=2, **KNOBS)
    assert result.input_permutation == [0, 1, 2]
    assert _equivalent(original, result, result.input_permutation)


def test_a_three_qubit_unitary_labelled_ccx_is_not_a_toffoli():
    circuit = QuantumCircuit(3)
    circuit.unitary(haar_unitary(8, np.random.default_rng(5)), [0, 1, 2],
                    label="ccx")
    with pytest.raises(TranspilerError, match="no unrolling rule"):
        unroll_to_two_qubit(circuit)
    with pytest.raises(TranspilerError, match="no unrolling rule"):
        transpile(circuit, line_topology(3), seed=2, **KNOBS)
