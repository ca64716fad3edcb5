"""The wire-link and Kahn-order rule shared by circuit lowerings.

Two ops depend on each other when they act on a common qubit; an op's
predecessors are the last earlier op on each of its wires.  The flat
routing lowering (:class:`~repro.transpiler.kernel.IntDAG`, forward and
reversed) links its CSR arrays with :func:`_link` and orders nodes with
:func:`_kahn`, and ``RoutingResult.to_circuit``
(:mod:`repro.transpiler.passes.sabre_swap`) orders a routed op stream
with :func:`kahn_order`, so every consumer sees one dependency graph
and one topological order.
"""

from __future__ import annotations

from collections import deque
from typing import Collection, Iterator, Sequence

from repro.exceptions import DAGError


def _link(
    last_on_wire: list[int], index: int, qubits: Sequence[int], num_qubits: int
) -> list[int]:
    """Append op ``index`` on ``qubits`` and return its predecessors.

    The op depends on the last earlier op on each of its wires, once per
    predecessor; it then becomes the last op on those wires.
    """
    for qubit in qubits:
        if not 0 <= qubit < num_qubits:
            raise DAGError(f"qubit {qubit} out of range")
    predecessors: list[int] = []
    for qubit in qubits:
        previous = last_on_wire[qubit]
        if previous >= 0 and previous not in predecessors:
            predecessors.append(previous)
        last_on_wire[qubit] = index
    return predecessors


def _kahn(
    node_ids: Collection[int],
    successors: Sequence[Sequence[int]],
    indegree: list[int],
) -> Iterator[int]:
    """Kahn's algorithm: ready ids leave first in, first out.

    ``successors`` and ``indegree`` are indexed by id; ``indegree`` is
    consumed.  Successors become ready in the order they are listed.
    """
    ready = deque(node_id for node_id in node_ids if indegree[node_id] == 0)
    emitted = 0
    while ready:
        node_id = ready.popleft()
        emitted += 1
        yield node_id
        for succ in successors[node_id]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    if emitted != len(node_ids):
        raise DAGError("cycle detected in DAG")


def kahn_order(qubit_lists: Sequence[Sequence[int]], num_qubits: int) -> list[int]:
    """Positions of ops in the Kahn order of their dependency graph.

    ``qubit_lists[i]`` holds the int qubits of op ``i``.  The ops are
    linked in list order with :func:`_link` and ordered with
    :func:`_kahn`: ready ops leave first in, first out, and an op's
    successors become ready in program order.
    """
    successors: list[list[int]] = [[] for _ in qubit_lists]
    indegree = [0] * len(qubit_lists)
    last_on_wire = [-1] * num_qubits
    for index, qubits in enumerate(qubit_lists):
        predecessors = _link(last_on_wire, index, qubits, num_qubits)
        for previous in predecessors:
            successors[previous].append(index)
        indegree[index] = len(predecessors)
    return list(_kahn(range(len(qubit_lists)), successors, indegree))

