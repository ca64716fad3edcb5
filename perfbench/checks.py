"""Checks of transpiler outputs, run outside every timed region.

Each check returns a list of problem strings (empty when the result is
correct), so callers can count failed operations and still report what
went wrong.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: Tolerances for recomputed metrics and unitary equivalence.
METRIC_ATOL = 1e-6
UNITARY_ATOL = 1e-6
#: Largest input circuit whose unitary is checked.
MAX_UNITARY_QUBITS = 6


def result_digest(result, matrices: bool = True) -> str:
    """Digest of a routed circuit, its layouts and its reported metrics.

    Wall-clock fields are excluded, so equal inputs and seeds must give
    equal digests on every executor.  ``matrices=False`` skips the gate
    matrices: a cheaper digest for comparing repeats of a checked result.
    """
    hasher = hashlib.sha256()
    for instruction in result.circuit:
        gate = instruction.gate
        hasher.update(gate.name.encode())
        hasher.update(repr(instruction.qubits).encode())
        if matrices and not gate.is_directive:
            hasher.update(np.ascontiguousarray(gate.matrix()).tobytes())
    hasher.update(repr(result.initial_layout.virtual_to_physical()).encode())
    hasher.update(repr(result.final_layout.virtual_to_physical()).encode())
    metrics = result.metrics
    hasher.update(
        repr(
            (result.method, result.swaps_added, result.mirrors_accepted,
             result.mirror_candidates, metrics.depth, metrics.total_cost,
             metrics.swap_count)
        ).encode()
    )
    return hasher.hexdigest()


def batch_digest(results, matrices: bool = True) -> str:
    """Digest over an ordered list of results."""
    hasher = hashlib.sha256()
    for result in results:
        hasher.update(result_digest(result, matrices).encode())
    return hasher.hexdigest()


def check_coupling(result, edges: set[tuple[int, int]]) -> list[str]:
    """Every two-qubit op of the routed circuit sits on a coupling edge."""
    problems = []
    for instruction in result.circuit:
        if instruction.is_two_qubit:
            a, b = instruction.qubits
            if (a, b) not in edges and (b, a) not in edges:
                problems.append(f"two-qubit op {instruction.gate.name} on "
                                f"uncoupled pair {(a, b)}")
    return problems


def check_metrics(result, coverage, basis: str) -> list[str]:
    """Reported SWAP count and depth recompute from the emitted circuit."""
    from repro.transpiler.metrics import evaluate

    recomputed = evaluate(result.circuit, basis, coverage)
    swaps = sum(1 for instruction in result.circuit
                if instruction.gate.name == "swap")
    problems = []
    if swaps != result.swaps_added or swaps != result.metrics.swap_count:
        problems.append(f"swap count {result.swaps_added} reported, "
                        f"{swaps} in the circuit")
    if abs(recomputed.depth - result.metrics.depth) > METRIC_ATOL:
        problems.append(f"depth {result.metrics.depth} reported, "
                        f"{recomputed.depth} recomputed")
    if abs(recomputed.total_cost - result.metrics.total_cost) > METRIC_ATOL:
        problems.append(f"cost {result.metrics.total_cost} reported, "
                        f"{recomputed.total_cost} recomputed")
    return problems


def _apply(tensor: np.ndarray, matrix: np.ndarray, qubits, num_qubits: int):
    """Apply a k-qubit gate to a ``(2,)*n + (batch,)`` state tensor.

    Little-endian, as in :meth:`repro.circuits.circuit.QuantumCircuit.to_matrix`:
    tensor axis ``i`` holds qubit ``n - 1 - i`` and ``qubits[0]`` is the
    gate's least significant bit, so reshaped gate axes ``j`` (outputs)
    and ``k + j`` (inputs) act on ``qubits[k - 1 - j]``.
    """
    k = len(qubits)
    gate = matrix.reshape((2,) * (2 * k))
    axes = [num_qubits - 1 - qubits[k - 1 - j] for j in range(k)]
    moved = np.tensordot(gate, tensor, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(moved, list(range(k)), axes)


def _simulate(circuit, tensor: np.ndarray) -> np.ndarray:
    num_qubits = circuit.num_qubits
    for instruction in circuit:
        if instruction.gate.is_directive:
            continue
        tensor = _apply(tensor, instruction.gate.matrix(),
                        instruction.qubits, num_qubits)
    return tensor


def _embed(columns: np.ndarray, positions, num_virtual: int,
           num_physical: int) -> np.ndarray:
    """Place virtual-qubit columns at physical positions, ancillas in |0>."""
    batch = columns.shape[1]
    virtual = columns.reshape((2,) * num_virtual + (batch,))
    full = np.zeros((2,) * num_physical + (batch,), dtype=complex)
    index = [slice(None)] * (num_physical + 1)
    for physical in range(num_physical):
        if physical not in positions:
            index[num_physical - 1 - physical] = 0
    # The unfixed axes hold the occupied physical qubits in descending
    # order; virtual qubit v sits on virtual tensor axis num_virtual-1-v.
    view_axes = [
        num_virtual - 1 - positions.index(physical)
        for physical in sorted(positions, reverse=True)
    ]
    full[tuple(index)] = np.transpose(virtual, view_axes + [num_virtual])
    return full


def check_unitary(original, result) -> list[str]:
    """The routed circuit implements the input up to its layouts.

    Every computational basis state of the input's qubits is placed at
    the initial layout with ancillas in |0>, pushed through the routed
    circuit, and compared with the input's unitary applied and placed at
    the final layout — one global phase for all columns, so this is
    unitary equivalence on the input's qubits.
    """
    num_virtual = original.num_qubits
    num_physical = result.circuit.num_qubits
    initial = [result.initial_layout.v2p(v) for v in range(num_virtual)]
    final = [result.final_layout.v2p(v) for v in range(num_virtual)]
    identity = np.eye(2 ** num_virtual, dtype=complex)
    start = _embed(identity, initial, num_virtual, num_physical)
    routed = _simulate(result.circuit, start)
    expected_columns = original.without_directives().to_matrix()
    expected = _embed(expected_columns, final, num_virtual, num_physical)
    routed = routed.reshape(-1, identity.shape[1])
    expected = expected.reshape(-1, identity.shape[1])
    overlap = np.vdot(expected, routed)
    if abs(overlap) < 1e-12:
        return ["routed circuit is orthogonal to the input"]
    phase = overlap / abs(overlap)
    error = np.max(np.abs(routed - phase * expected))
    if error > UNITARY_ATOL:
        return [f"routed circuit differs from its input by {error:.2e}"]
    return []


def has_swaps(circuit) -> bool:
    return any(instruction.gate.name == "swap" for instruction in circuit)


def check_result(original, result, edges, coverage, basis) -> list[str]:
    """All checks that apply to one result."""
    problems = check_coupling(result, edges)
    problems += check_metrics(result, coverage, basis)
    if original.num_qubits <= MAX_UNITARY_QUBITS and not has_swaps(original):
        problems += check_unitary(original, result)
    return problems
