"""``build_swap_map``-style flat routing loop.

:func:`route_kernel` walks an :class:`~repro.transpiler.kernel.intdag.IntDAG`
with a :class:`~repro.transpiler.kernel.neighbors.NeighborTable`, keeping all
per-run state — layout, in-degrees, decay — in flat int/float containers.
Candidate scoring keeps the incremental per-edge deltas over the flat
arrays: window sums are accumulated once per stall, and each candidate edge
re-evaluates only the pairs touching its two endpoints via a per-qubit
pair-id index.  Hop distances are integer-valued, so on connected graphs
the whole scorer runs in exact Python int arithmetic over a flat row-major
distance list and produces exactly the floats the object path computes.

Only tie-breaking is kept as a sequential scan: the object path compares
each score against the running best with a ``1e-12`` tolerance, and that
recurrence is order-dependent — a vectorised argmin-with-tolerance can keep
a different near-tie set.  The scan draws from the same per-trial
``SeedSequence`` stream in the same order, so fixed-seed outputs are
byte-identical to ``MIRAGE_ROUTE_KERNEL=object``.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Callable

import numpy as np

from repro.exceptions import TranspilerError
from repro.circuits.gates import Gate
from repro.transpiler.kernel.intdag import KIND_CHECK2, KIND_FREE, IntDAG
from repro.transpiler.kernel.neighbors import NeighborTable

#: Values accepted by ``MIRAGE_ROUTE_KERNEL``.
_FLAT_VALUES = frozenset({"", "flat", "default"})
_OBJECT_VALUES = frozenset({"object", "legacy"})


def route_kernel_mode() -> str:
    """Resolve the active kernel (``flat`` default, ``object`` opt-out)."""
    value = os.environ.get("MIRAGE_ROUTE_KERNEL", "").strip().lower()
    if value in _FLAT_VALUES:
        return "flat"
    if value in _OBJECT_VALUES:
        return "object"
    raise TranspilerError(
        f"unknown MIRAGE_ROUTE_KERNEL value {value!r} (use 'flat' or 'object')"
    )


class KernelState:
    """Mutable flat state of one routing run — the commit hooks' view.

    ``MirageSwap``'s intermediate layer runs against this object: it reads
    gates by int id, queries the lookahead window as physical-qubit pairs,
    appends to ``ops`` and applies virtual swaps, never touching ``DAGNode``
    or ``Layout`` objects.
    """

    __slots__ = (
        "intdag",
        "table",
        "v2p",
        "p2v",
        "ops",
        "swaps_added",
        "extended_set_size",
        "_lists",
        "_touch",
    )

    def __init__(
        self,
        intdag: IntDAG,
        table: NeighborTable,
        initial_v2p: list[int],
        extended_set_size: int,
    ) -> None:
        self.intdag = intdag
        self.table = table
        self.v2p = [int(p) for p in initial_v2p]
        self.p2v = [-1] * table.num_qubits
        for virtual, physical in enumerate(self.v2p):
            self.p2v[physical] = virtual
        self.ops: list[tuple[Gate, tuple[int, ...]]] = []
        self.swaps_added = 0
        self.extended_set_size = extended_set_size
        self._lists = intdag.lists()
        # Scratch per-qubit pair-id lists for the scorer (reset after use).
        self._touch: list[list[int] | None] = [None] * table.num_qubits

    # -- hook API -----------------------------------------------------------

    def gate_id(self, node_id: int) -> int:
        """Slot of the node's gate in ``intdag.gates``."""
        return self._lists.gate_ids[node_id]

    def gate(self, node_id: int) -> Gate:
        return self.intdag.gates[self._lists.gate_ids[node_id]]

    def emit(self, node_id: int, physical: tuple[int, ...]) -> None:
        self.ops.append((self.gate(node_id), physical))

    def swap_physical(self, physical_a: int, physical_b: int) -> None:
        v2p, p2v = self.v2p, self.p2v
        va = p2v[physical_a]
        vb = p2v[physical_b]
        if va >= 0:
            v2p[va] = physical_b
        if vb >= 0:
            v2p[vb] = physical_a
        p2v[physical_a] = vb
        p2v[physical_b] = va

    def extended_ids(self, roots: list[int]) -> list[int]:
        """Lookahead BFS: upcoming two-qubit node ids after ``roots``.

        Byte-compatible with the object path's ``_extended_set`` — same
        visit order, same dedup, same early-exit at the window size.
        """
        limit = self.extended_set_size
        lists = self._lists
        succ_tuples = lists.succ_tuples
        kind = lists.kind
        extended: list[int] = []
        queue = deque(roots)
        seen = bytearray(self.intdag.num_nodes)
        for root in roots:
            seen[root] = 1
        while queue and len(extended) < limit:
            node_id = queue.popleft()
            for successor in succ_tuples[node_id]:
                if seen[successor]:
                    continue
                seen[successor] = 1
                queue.append(successor)
                if kind[successor] == KIND_CHECK2:
                    extended.append(successor)
                    if len(extended) >= limit:
                        break
        return extended

    def lookahead_pairs(self, node_id: int) -> list[tuple[int, int]]:
        """Physical qubit pairs of the lookahead window after one node.

        The window ids depend only on the DAG and the window size — never
        the layout — so they are memoised on the ``IntDAG`` and shared by
        every run over the same lowering (forward refinement rounds, all
        routing trials of a batch).
        """
        cache = self.intdag.__dict__.setdefault("_lookahead_cache", {})
        key = (self.extended_set_size, node_id)
        ids = cache.get(key)
        if ids is None:
            ids = self.extended_ids([node_id])
            cache[key] = ids
        lists = self._lists
        qubit0 = lists.qubit0
        qubit1 = lists.qubit1
        v2p = self.v2p
        return [(v2p[qubit0[i]], v2p[qubit1[i]]) for i in ids]


def route_kernel(
    intdag: IntDAG,
    table: NeighborTable,
    initial_v2p: list[int],
    rng: np.random.Generator,
    *,
    extended_set_size: int,
    extended_set_weight: float,
    decay_delta: float,
    decay_reset_interval: int,
    stall_limit: int,
    commit: Callable[[KernelState, int, tuple[int, int]], None],
) -> KernelState:
    """Route one lowered circuit; returns the finished :class:`KernelState`.

    ``commit`` is called for every executable two-qubit gate with
    ``(state, node_id, physical_pair)`` — the flat twin of the object
    path's ``_commit_two_qubit`` hook.
    """
    state = KernelState(intdag, table, initial_v2p, extended_set_size)
    lists = state._lists
    qubit0 = lists.qubit0
    qubit1 = lists.qubit1
    kind = lists.kind
    qubit_tuples = lists.qubit_tuples
    gate_ids = lists.gate_ids
    gates = intdag.gates
    succ_tuples = lists.succ_tuples
    indegree = list(lists.indegree)
    adjacency = table.adjacency()
    v2p = state.v2p
    ops = state.ops

    num_physical = table.num_qubits
    decay = [1.0] * num_physical
    decay_dirty = False
    decay_steps = 0
    stall_counter = 0
    extended_cache: list[int] | None = None

    front = [i for i in range(intdag.num_nodes) if not indegree[i]]
    while front:
        executed_any = False
        still_blocked: list[int] = []
        for node_id in front:
            node_kind = kind[node_id]
            if node_kind == KIND_CHECK2:
                left = v2p[qubit0[node_id]]
                right = v2p[qubit1[node_id]]
                if adjacency[left][right]:
                    commit(state, node_id, (left, right))
                else:
                    still_blocked.append(node_id)
                    continue
            elif node_kind == KIND_FREE:
                physical = tuple(v2p[q] for q in qubit_tuples[node_id])
                ops.append((gates[gate_ids[node_id]], physical))
            else:
                raise TranspilerError(
                    "router requires gates with at most two qubits"
                )
            executed_any = True
            for successor in succ_tuples[node_id]:
                indegree[successor] -= 1
                if not indegree[successor]:
                    still_blocked.append(successor)
        front = still_blocked
        if executed_any:
            if decay_dirty:
                decay = [1.0] * num_physical
                decay_dirty = False
            decay_steps = 0
            stall_counter = 0
            extended_cache = None
            continue
        if not front:
            break

        # Stalled: insert the best-scoring SWAP.  Consecutive stalls keep
        # the same front layer, and the lookahead window depends only on
        # the front and the DAG — never the layout — so it is recomputed
        # only after a sweep that executed something.
        stall_counter += 1
        if stall_counter > stall_limit:
            raise TranspilerError("router failed to make progress")
        if extended_cache is None:
            extended_cache = state.extended_ids(front)
        edge = _choose_swap(
            state, front, extended_cache, decay, rng, extended_set_weight
        )
        ops.append((Gate("swap", 2), edge))
        state.swap_physical(*edge)
        decay[edge[0]] += decay_delta
        decay[edge[1]] += decay_delta
        decay_dirty = True
        decay_steps += 1
        if decay_steps >= decay_reset_interval:
            decay = [1.0] * num_physical
            decay_dirty = False
            decay_steps = 0
        state.swaps_added += 1

    return state


def _choose_swap(
    state: KernelState,
    front: list[int],
    extended: list[int],
    decay: list[float],
    rng: np.random.Generator,
    extended_set_weight: float,
) -> tuple[int, int]:
    """Pick the SWAP edge, byte-compatible with the object ``_choose_swap``.

    Scoring keeps the PR-2 incremental per-edge deltas, but over the flat
    arrays: the window sums are accumulated once per stall, and each
    candidate edge re-evaluates only the pairs touching its two physical
    qubits.  On connected graphs all of it runs in exact int arithmetic
    over the nested hop-distance lists, so the delta-adjusted sums equal
    a full rescore bit-for-bit; the float path (possible infinities)
    replicates the object scorer including its direct-sum fallback.  The
    tolerance tie-break is an order-dependent recurrence and stays a
    sequential scan; its single RNG draw happens in the same position of
    the per-trial stream.
    """
    lists = state._lists
    table = state.table
    v2p = state.v2p
    qubit0 = lists.qubit0
    qubit1 = lists.qubit1

    # Candidate edges: union of the edges incident to the stalled gates'
    # physical qubits.  Edge ids are lex-sorted (a, b) pairs, so sorting
    # ids reproduces the object path's sorted-tuple candidate order.
    incident = table.incident
    candidate_ids: set[int] = set()
    for node_id in front:
        candidate_ids.update(incident[v2p[qubit0[node_id]]])
        candidate_ids.update(incident[v2p[qubit1[node_id]]])
    if not candidate_ids:
        raise TranspilerError(
            "no SWAP candidates: the coupling graph is likely disconnected"
        )
    candidates = sorted(candidate_ids)

    if not table.connected:
        return _choose_swap_float(
            state, front, extended, decay, rng, extended_set_weight, candidates
        )

    # Connected fast path: exact int arithmetic over the flat row-major
    # hop-distance list.  Pairs live in two parallel endpoint lists; per
    # physical qubit a scratch list of pair ids (``state._touch``, reset
    # before returning) replaces the dict-of-tuples used by the float
    # fallback.  Pair ids below ``num_front`` belong to the front group.
    num_front = len(front)
    num_pairs = num_front + len(extended)
    pair_left = [0] * num_pairs
    pair_right = [0] * num_pairs
    pair_row = [0] * num_pairs  # left * stride, for one-mul lookups
    stride = table.num_qubits
    distance = table.dist_int_flat()
    touch = state._touch
    touched: list[int] = []
    front_sum0 = 0
    extended_sum0 = 0
    pair_id = 0
    for group_nodes in (front, extended):
        for node_id in group_nodes:
            left = v2p[qubit0[node_id]]
            right = v2p[qubit1[node_id]]
            pair_left[pair_id] = left
            pair_right[pair_id] = right
            pair_row[pair_id] = row = left * stride
            if pair_id < num_front:
                front_sum0 += distance[row + right]
            else:
                extended_sum0 += distance[row + right]
            bucket = touch[left]
            if bucket is None:
                touch[left] = bucket = []
                touched.append(left)
            bucket.append(pair_id)
            if right != left:
                bucket = touch[right]
                if bucket is None:
                    touch[right] = bucket = []
                    touched.append(right)
                bucket.append(pair_id)
            pair_id += 1

    num_extended = len(extended)
    edges_a_list, edges_b_list = table.edge_lists()
    best_score = np.inf
    best_edges: list[tuple[int, int]] = []
    for edge_id in candidates:
        edge_a = edges_a_list[edge_id]
        edge_b = edges_b_list[edge_id]
        row_a = edge_a * stride
        row_b = edge_b * stride
        front_sum = front_sum0
        extended_sum = extended_sum0
        # A pair in a bucket touches that endpoint on exactly one side, so
        # the remap is one-sided; pairs touching both endpoints keep their
        # distance and are skipped.
        bucket = touch[edge_a]
        if bucket is not None:
            for pair_id in bucket:
                left = pair_left[pair_id]
                right = pair_right[pair_id]
                if left == edge_a:
                    if right == edge_b:
                        continue
                    delta = distance[row_b + right] - distance[row_a + right]
                else:  # right == edge_a
                    if left == edge_b:
                        continue
                    row = pair_row[pair_id]
                    delta = distance[row + edge_b] - distance[row + edge_a]
                if pair_id < num_front:
                    front_sum += delta
                else:
                    extended_sum += delta
        bucket = touch[edge_b]
        if bucket is not None:
            for pair_id in bucket:
                left = pair_left[pair_id]
                right = pair_right[pair_id]
                if left == edge_b:
                    if right == edge_a:
                        continue
                    delta = distance[row_a + right] - distance[row_b + right]
                else:  # right == edge_b
                    if left == edge_a:
                        continue
                    row = pair_row[pair_id]
                    delta = distance[row + edge_a] - distance[row + edge_b]
                if pair_id < num_front:
                    front_sum += delta
                else:
                    extended_sum += delta
        # At a stall the front is never empty, so the front term is
        # unconditional (the object path's `if front:` guard adds 0.0
        # otherwise, which never happens here).
        score = front_sum / num_front
        if num_extended:
            score += extended_set_weight * extended_sum / num_extended
        decay_a = decay[edge_a]
        decay_b = decay[edge_b]
        score = score * (decay_a if decay_a >= decay_b else decay_b)
        diff = score - best_score
        if diff < -1e-12:
            best_score = score
            best_edges = [(edge_a, edge_b)]
        elif diff <= 1e-12:
            best_edges.append((edge_a, edge_b))
    for qubit in touched:
        touch[qubit] = None
    if not best_edges:
        raise TranspilerError(
            "cannot route: some target qubits are unreachable on this coupling map"
        )
    return best_edges[int(rng.integers(len(best_edges)))]


def _choose_swap_float(
    state: KernelState,
    front: list[int],
    extended: list[int],
    decay: list[float],
    rng: np.random.Generator,
    extended_set_weight: float,
    candidates: list[int],
) -> tuple[int, int]:
    """Disconnected-coupling scorer: float distances with inf propagation.

    Mirrors the object path exactly, including its direct-sum fallback once
    a window sum goes infinite (``inf - inf`` would poison the deltas).
    """
    lists = state._lists
    table = state.table
    v2p = state.v2p
    qubit0 = lists.qubit0
    qubit1 = lists.qubit1

    front_pairs = [(v2p[qubit0[i]], v2p[qubit1[i]]) for i in front]
    extended_pairs = [(v2p[qubit0[i]], v2p[qubit1[i]]) for i in extended]

    distance = table.dist_lists()
    front_sum0 = 0.0
    extended_sum0 = 0.0
    touching: dict[int, list[tuple[int, int, int]]] = {}
    for group, pairs in ((0, front_pairs), (1, extended_pairs)):
        for left, right in pairs:
            if group:
                extended_sum0 += distance[left][right]
            else:
                front_sum0 += distance[left][right]
            touching.setdefault(left, []).append((group, left, right))
            if right != left:
                touching.setdefault(right, []).append((group, left, right))
    finite = front_sum0 != np.inf and extended_sum0 != np.inf

    num_front = len(front_pairs)
    num_extended = len(extended_pairs)
    edges_a_list, edges_b_list = table.edge_lists()
    empty: tuple = ()
    best_score = np.inf
    best_edges: list[tuple[int, int]] = []
    for edge_id in candidates:
        edge_a = edges_a_list[edge_id]
        edge_b = edges_b_list[edge_id]
        if finite:
            front_sum = front_sum0
            extended_sum = extended_sum0
            for group, left, right in touching.get(edge_a, empty):
                if left == edge_b or right == edge_b:
                    continue  # both endpoints swap; distance unchanged
                new_left = edge_b if left == edge_a else left
                new_right = edge_b if right == edge_a else right
                delta = distance[new_left][new_right] - distance[left][right]
                if group:
                    extended_sum += delta
                else:
                    front_sum += delta
            for group, left, right in touching.get(edge_b, empty):
                if left == edge_a or right == edge_a:
                    continue
                new_left = edge_a if left == edge_b else left
                new_right = edge_a if right == edge_b else right
                delta = distance[new_left][new_right] - distance[left][right]
                if group:
                    extended_sum += delta
                else:
                    front_sum += delta
        else:
            # Infinite distances (disconnected coupling) poison the delta
            # arithmetic with inf - inf; fall back to direct sums.
            front_sum = sum(
                distance[
                    edge_b if left == edge_a else edge_a if left == edge_b else left
                ][
                    edge_b if right == edge_a else edge_a if right == edge_b else right
                ]
                for left, right in front_pairs
            )
            extended_sum = sum(
                distance[
                    edge_b if left == edge_a else edge_a if left == edge_b else left
                ][
                    edge_b if right == edge_a else edge_a if right == edge_b else right
                ]
                for left, right in extended_pairs
            )
        score = 0.0
        if num_front:
            score += front_sum / num_front
        if num_extended:
            score += extended_set_weight * extended_sum / num_extended
        decay_a = decay[edge_a]
        decay_b = decay[edge_b]
        score = score * (decay_a if decay_a >= decay_b else decay_b)
        if score < best_score - 1e-12:
            best_score = score
            best_edges = [(edge_a, edge_b)]
        elif abs(score - best_score) <= 1e-12:
            best_edges.append((edge_a, edge_b))
    if not best_edges:
        raise TranspilerError(
            "cannot route: some target qubits are unreachable on this coupling map"
        )
    return best_edges[int(rng.integers(len(best_edges)))]
