"""``IntDAG``: the flat integer lowering a circuit is routed on.

The routing inner loop needs only qubit indices, a two-qubit flag,
dependency edges, and (at emission time) the gate object.  ``IntDAG``
packs exactly that into plain ndarrays:

* an op table (``qubit0``/``qubit1`` with ``-1`` sentinels, a ``kind`` code,
  a ``gate_ids`` index into the deduplicated ``gates`` tuple, and a CSR
  ``qargs`` table for wide directives such as barriers);
* CSR successor/predecessor adjacency plus the in-degree vector, so
  front-layer advance is array bookkeeping instead of node-set mutation.

:meth:`IntDAG.from_ops` lowers the pipeline's op stream; it is the
only way a circuit reaches the router.  Being plain ndarrays, the whole
structure pickles compactly into the process-pool payload; the
``gates`` tuple is the only object payload.  Trial runners route the
shipped table as is and derive the reverse routing direction from it
with :meth:`IntDAG.reversed`.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.circuits.dag import _kahn, _link

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.circuits.circuit import Op
    from repro.circuits.gates import Gate

#: Attribute under which a lowering memoises its mirror tables (see
#: :func:`repro.core.mirage_pass.mirror_table`); a lowering and its
#: reverse share one dict.
MIRROR_TABLES_ATTR = "_mirror_tables"

#: Node kinds.  ``KIND_CHECK2`` gates gate executability on coupling
#: adjacency; ``KIND_FREE`` nodes (directives and single-qubit gates) are
#: always executable; ``KIND_REJECT`` marks >2-qubit non-directive gates the
#: route loop refuses with "router requires gates with at most two qubits".
KIND_CHECK2 = 0
KIND_FREE = 1
KIND_REJECT = 2


@dataclasses.dataclass(frozen=True)
class IntDAGLists:
    """Python-list mirror of an :class:`IntDAG` for the interpreter hot loop.

    Scalar indexing of python lists is several times faster than scalar
    indexing of ndarrays under CPython; the kernel walks these, while the
    vectorised scoring walks the ndarrays.
    """

    qubit0: list[int]
    qubit1: list[int]
    kind: list[int]
    gate_ids: list[int]
    qubit_tuples: tuple[tuple[int, ...], ...]
    succ_tuples: tuple[tuple[int, ...], ...]
    indegree: list[int]


@dataclasses.dataclass
class IntDAG:
    """Int-encoded op table + CSR dependency arrays of an op stream.

    Attributes:
        num_qubits: virtual-qubit count of the source circuit.
        num_nodes: node count; node ids are exactly ``0..num_nodes-1``.
        qubit0/qubit1: first/second qarg per node (``-1`` when absent).
        kind: per-node ``KIND_*`` code.
        two_qubit: 1 where the node is a routable two-qubit gate.
        gate_ids: index into ``gates`` per node.
        gates: deduplicated gate objects (the op/unitary table).
        qarg_indptr/qargs: CSR qarg lists (covers wide directives).
        succ_indptr/succ_ids: CSR successor adjacency, program order.
        pred_indptr/pred_ids: CSR predecessor adjacency, program order.
        indegree: number of predecessors per node.
    """

    num_qubits: int
    num_nodes: int
    qubit0: np.ndarray
    qubit1: np.ndarray
    kind: np.ndarray
    two_qubit: np.ndarray
    gate_ids: np.ndarray
    gates: tuple
    qarg_indptr: np.ndarray
    qargs: np.ndarray
    succ_indptr: np.ndarray
    succ_ids: np.ndarray
    pred_indptr: np.ndarray
    pred_ids: np.ndarray
    indegree: np.ndarray

    # -- construction -------------------------------------------------------

    @classmethod
    def from_ops(cls, num_qubits: int, ops: Sequence[Op]) -> "IntDAG":
        """Lower a ``(gate, qubits)`` op stream.

        The ops keep their stream positions as node ids; their wires are
        linked in that order with :func:`~repro.circuits.dag._link`
        (every qubit's range checked), and gate slots are deduplicated
        by object identity in order of first appearance.
        """
        qubit_lists = [qubits for _, qubits in ops]
        gates: list[Gate] = []
        slots: dict[int, int] = {}
        gate_ids: list[int] = []
        kind: list[int] = []
        for gate, qubits in ops:
            slot = slots.setdefault(id(gate), len(gates))
            if slot == len(gates):
                gates.append(gate)
            gate_ids.append(slot)
            width = len(qubits)
            kind.append(
                KIND_FREE if gate.is_directive or width == 1
                else KIND_CHECK2 if width == 2
                else KIND_REJECT
            )
        kind_array = np.asarray(kind, dtype=np.uint8)
        return cls(
            num_qubits=num_qubits,
            num_nodes=len(ops),
            qubit0=np.asarray([q[0] if q else -1 for q in qubit_lists], dtype=np.int32),
            qubit1=np.asarray(
                [q[1] if len(q) > 1 else -1 for q in qubit_lists], dtype=np.int32
            ),
            kind=kind_array,
            two_qubit=(kind_array == KIND_CHECK2).astype(np.uint8),
            gate_ids=np.asarray(gate_ids, dtype=np.int32),
            gates=tuple(gates),
            **_wired(num_qubits, qubit_lists),
        )

    def reversed(self) -> "IntDAG":
        """The lowering of the reversed circuit, memoised.

        Equal array for array to :meth:`from_ops` of this lowering's
        nodes in reversed Kahn order (the backward routing direction of
        a SABRE refinement round), except that the
        reverse keeps this lowering's ``gates`` tuple and slot numbering,
        so it also shares the mirror-table memo.  The wires are re-linked
        as :meth:`from_ops` links them.  Like the other per-process
        caches, the memo is dropped from the pickle.
        """
        cached = self.__dict__.get("_reversed")
        if cached is not None:
            return cached
        num_nodes = self.num_nodes
        succ_indptr = self.succ_indptr.tolist()
        succ_ids = self.succ_ids.tolist()
        successors = [
            succ_ids[succ_indptr[i]:succ_indptr[i + 1]] for i in range(num_nodes)
        ]
        order = list(_kahn(range(num_nodes), successors, self.indegree.tolist()))
        order.reverse()
        qarg_indptr = self.qarg_indptr.tolist()
        qargs = self.qargs.tolist()
        perm = np.asarray(order, dtype=np.intp)
        reverse = IntDAG(
            num_qubits=self.num_qubits,
            num_nodes=num_nodes,
            qubit0=self.qubit0[perm],
            qubit1=self.qubit1[perm],
            kind=self.kind[perm],
            two_qubit=self.two_qubit[perm],
            gate_ids=self.gate_ids[perm],
            gates=self.gates,
            **_wired(
                self.num_qubits,
                [qargs[qarg_indptr[i]:qarg_indptr[i + 1]] for i in order],
            ),
        )
        reverse.__dict__[MIRROR_TABLES_ATTR] = self.__dict__.setdefault(
            MIRROR_TABLES_ATTR, {}
        )
        # First writer wins, so racing threads share one reverse.
        return self.__dict__.setdefault("_reversed", reverse)

    # -- queries ------------------------------------------------------------

    def gate(self, node_id: int) -> "Gate":
        return self.gates[self.gate_ids[node_id]]

    def node_qubits(self, node_id: int) -> tuple[int, ...]:
        start, stop = self.qarg_indptr[node_id], self.qarg_indptr[node_id + 1]
        return tuple(int(q) for q in self.qargs[start:stop])

    def successor_ids(self, node_id: int) -> list[int]:
        start, stop = self.succ_indptr[node_id], self.succ_indptr[node_id + 1]
        return [int(s) for s in self.succ_ids[start:stop]]

    def predecessor_ids(self, node_id: int) -> list[int]:
        start, stop = self.pred_indptr[node_id], self.pred_indptr[node_id + 1]
        return [int(p) for p in self.pred_ids[start:stop]]

    def front_ids(self) -> list[int]:
        """Node ids with no predecessors, ascending."""
        return [i for i in range(self.num_nodes) if not self.indegree[i]]

    def lists(self) -> IntDAGLists:
        """Memoised python-list mirror (see :class:`IntDAGLists`)."""
        cached = self.__dict__.get("_lists")
        if cached is None:
            qarg_indptr = self.qarg_indptr.tolist()
            qargs = self.qargs.tolist()
            succ_indptr = self.succ_indptr.tolist()
            succ_ids = self.succ_ids.tolist()
            cached = IntDAGLists(
                qubit0=self.qubit0.tolist(),
                qubit1=self.qubit1.tolist(),
                kind=self.kind.tolist(),
                gate_ids=self.gate_ids.tolist(),
                qubit_tuples=tuple(
                    tuple(qargs[qarg_indptr[i]:qarg_indptr[i + 1]])
                    for i in range(self.num_nodes)
                ),
                succ_tuples=tuple(
                    tuple(succ_ids[succ_indptr[i]:succ_indptr[i + 1]])
                    for i in range(self.num_nodes)
                ),
                indegree=self.indegree.tolist(),
            )
            self.__dict__["_lists"] = cached
        return cached

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> dict:
        # The list mirror, the lookahead memo, the mirror tables and the
        # reverse lowering are per-process caches, cheap to rebuild;
        # shipping them would grow the payload for no benefit.
        state = dict(self.__dict__)
        state.pop("_lists", None)
        state.pop("_lookahead_cache", None)
        state.pop(MIRROR_TABLES_ATTR, None)
        state.pop("_reversed", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


def _csr(rows: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(row) for row in rows])
    flat = list(itertools.chain.from_iterable(rows))
    return indptr, np.asarray(flat, dtype=np.int32)


def _wired(
    num_qubits: int, qubit_lists: Sequence[Sequence[int]]
) -> dict[str, np.ndarray]:
    """The qarg and dependency arrays of ops on ``qubit_lists``, in order.

    Each op is linked with :func:`~repro.circuits.dag._link`, the rule
    :func:`~repro.circuits.dag.kahn_order` uses, so the predecessor
    de-duplication and successor order are the same wherever a circuit's
    dependencies are read.
    """
    last_on_wire = [-1] * num_qubits
    successors: list[list[int]] = [[] for _ in qubit_lists]
    predecessors: list[list[int]] = []
    for index, qubits in enumerate(qubit_lists):
        linked = _link(last_on_wire, index, qubits, num_qubits)
        for previous in linked:
            successors[previous].append(index)
        predecessors.append(linked)
    qarg_indptr, qargs = _csr(qubit_lists)
    succ_indptr, succ_ids = _csr(successors)
    pred_indptr, pred_ids = _csr(predecessors)
    return {
        "qarg_indptr": qarg_indptr,
        "qargs": qargs,
        "succ_indptr": succ_indptr,
        "succ_ids": succ_ids,
        "pred_indptr": pred_indptr,
        "pred_ids": pred_ids,
        "indegree": np.diff(pred_indptr).astype(np.int32),
    }
