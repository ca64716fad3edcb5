"""``build_swap_map``-style flat routing loop: the only route loop.

:func:`route_kernel` walks an :class:`~repro.transpiler.kernel.intdag.IntDAG`
with a :class:`~repro.transpiler.kernel.neighbors.NeighborTable`, keeping all
per-run state — layout, in-degrees, decay — in flat int/float containers.
Every SABRE and MIRAGE routing run enters it.  The loop is written twice
with the same semantics:

* the compiled loop, ``RouteKernel.route`` in ``_routec.c`` (built on
  first use by :mod:`.native`), which runs on connected couplings: front
  advance, emission, SWAP choice, decay and MIRAGE's mirror decision;
* the pure-Python loop here, the reference, which runs when the compiled
  module is unavailable or the coupling is disconnected.

MIRAGE's intermediate layer is data, not a hook: a :class:`MirrorRule`
carries the per-slot decomposition costs and mirror gates of a
``MirrorTable`` plus the decomposition weight and aggression level, and
both loops apply the same arithmetic to it in the same operation order.
The rule also carries the table's raw prices, with which both loops
score the weighted critical-path depth of what they emit, in the exact
operations and order of ``metrics._walk``.

Candidate scoring keeps incremental per-edge deltas over the flat arrays:
window sums are accumulated once per stall, and each candidate edge
re-evaluates only the pairs touching its two endpoints via a per-qubit
pair-id index.  Hop distances are integer-valued, so on connected graphs
the whole scorer runs in exact integer arithmetic and produces exactly the
floats a full rescore of every candidate computes.  Tie-breaking stays a
sequential scan with a ``1e-12`` tolerance (an order-dependent
recurrence) and one ``rng.integers(len(ties))`` draw from the per-trial
``SeedSequence`` stream, so fixed-seed outputs are byte-identical
whichever loop runs.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from repro.exceptions import TranspilerError
from repro.circuits.gates import Gate
from repro.transpiler.kernel.intdag import (
    KIND_CHECK2,
    KIND_FREE,
    IntDAG,
    IntDAGLists,
)
from repro.transpiler.kernel.native import load_routec
from repro.transpiler.kernel.neighbors import NeighborTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.polytopes.coverage import CoverageSet

#: The SWAP gate both loops emit; gates are immutable, so one is shared.
SWAP_GATE = Gate("swap", 2)


class MirrorRule(NamedTuple):
    """MIRAGE's mirror decision as data, indexed like ``IntDAG.gates``.

    Attributes:
        gates: the mirror gate ``SWAP . U`` per slot, or ``None`` where
            none is built yet (the ``MirrorTable``'s shared list).
        gate_costs: decomposition cost of each slot's gate.
        mirror_costs: decomposition cost of each slot's mirror.
        decomposition_weight: weight of the cost term against the routing
            pressure term.
        aggression: acceptance level 0-3 (paper Algorithm 2).
        gate_prices: raw coverage price (``cost_of_many``, not divided by
            the unit cost) of each slot's gate, for the scored depth.
        mirror_prices: raw price of each slot's mirror.
        swap_price: raw price of an inserted SWAP.
        coverage: the coverage set that priced all of the above.
        accepted_mirror: called with a slot whose mirror a loop accepts
            while ``gates`` holds ``None`` there; builds the mirror gate,
            stores it in ``gates`` and returns it.
    """

    gates: Sequence[Gate | None]
    gate_costs: list[float]
    mirror_costs: list[float]
    decomposition_weight: float
    aggression: int
    gate_prices: list[float]
    mirror_prices: list[float]
    swap_price: float
    coverage: "CoverageSet"
    accepted_mirror: Callable[[int], Gate]


class KernelState:
    """Mutable flat state of one routing run.

    Holds the layout (``v2p``/``p2v``), the emitted ``(gate, physical)``
    op list and the run's counters, never touching ``Layout`` objects.  ``depth`` is the weighted critical-path depth
    of the ops, scored under a :class:`MirrorRule` (``None`` without one).
    """

    __slots__ = (
        "intdag",
        "table",
        "v2p",
        "p2v",
        "ops",
        "swaps_added",
        "mirrors_accepted",
        "mirror_candidates",
        "depth",
        "extended_set_size",
        "_touch",
        "_native",
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
        if len(self.v2p) < intdag.num_qubits:
            raise TranspilerError(
                f"initial layout places {len(self.v2p)} of the circuit's "
                f"{intdag.num_qubits} qubits"
            )
        for virtual, physical in enumerate(self.v2p):
            if not 0 <= physical < table.num_qubits or self.p2v[physical] >= 0:
                raise TranspilerError(
                    f"initial layout maps virtual qubit {virtual} to invalid "
                    f"or repeated physical qubit {physical}"
                )
            self.p2v[physical] = virtual
        self.ops: list[tuple[Gate, tuple[int, ...]]] = []
        self.swaps_added = 0
        self.mirrors_accepted = 0
        self.mirror_candidates = 0
        self.depth: float | None = None
        self.extended_set_size = extended_set_size
        # Scratch per-qubit pair-id lists for the scorer (reset after use).
        self._touch: list[list[int] | None] = [None] * table.num_qubits
        # The compiled kernel bound to this run's arrays, if any.
        routec = load_routec()
        self._native = None if routec is None else routec.RouteKernel(
            table.dist_int,
            table.edges_a,
            table.edges_b,
            *table.incident_csr(),
            intdag.qubit0,
            intdag.qubit1,
            intdag.kind,
            intdag.succ_indptr,
            intdag.succ_ids,
            KIND_CHECK2,
        )

    @property
    def _lists(self) -> IntDAGLists:
        return self.intdag.lists()

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

        Breadth-first over the successor lists, each node visited once,
        stopping as soon as the window holds ``extended_set_size`` gates
        (``RouteKernel.extended_ids`` walks it the same way).
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
    mirror: MirrorRule | None = None,
) -> KernelState:
    """Route one lowered circuit; returns the finished :class:`KernelState`.

    Every routing run enters here.  On a connected coupling with the
    compiled module loaded the whole loop runs in ``_routec.c``; otherwise
    the pure-Python reference below runs.  Both emit the same ops, layout
    and counters at a fixed seed.

    ``mirror`` is ``None`` for SABRE, which places every executable
    two-qubit gate as it is.  For MIRAGE it is a :class:`MirrorRule`: each
    executable two-qubit gate is a mirror candidate, and an accepted
    mirror emits the slot's mirror gate and swaps the pair in the layout.
    Under a rule the loop also scores ``state.depth``, equal bit for bit
    to ``metrics.ops_depth(state.ops, mirror.coverage)``.
    """
    state = KernelState(intdag, table, initial_v2p, extended_set_size)
    native = state._native
    if native is not None and table.connected:
        (
            state.ops,
            state.swaps_added,
            state.mirrors_accepted,
            state.mirror_candidates,
            state.depth,
        ) = native.route(
            state.v2p,
            state.p2v,
            rng,
            intdag.gates,
            intdag.gate_ids,
            intdag.indegree,
            intdag.qarg_indptr,
            intdag.qargs,
            KIND_FREE,
            SWAP_GATE,
            extended_set_size,
            extended_set_weight,
            decay_delta,
            decay_reset_interval,
            stall_limit,
            mirror,
        )
        return state
    _route_python(
        state,
        rng,
        extended_set_weight,
        decay_delta,
        decay_reset_interval,
        stall_limit,
        mirror,
    )
    return state


def _route_python(
    state: KernelState,
    rng: np.random.Generator,
    extended_set_weight: float,
    decay_delta: float,
    decay_reset_interval: int,
    stall_limit: int,
    mirror: MirrorRule | None,
) -> None:
    """The pure-Python route loop: the reference for ``RouteKernel.route``."""
    intdag = state.intdag
    table = state.table
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
    # Weighted depth per physical wire: ``metrics._walk``'s running
    # maxima over the emitted ops, in its operations and order.
    scored = mirror is not None
    wire_depth = [0.0] * num_physical
    depth = 0.0
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
                if not adjacency[left][right]:
                    still_blocked.append(node_id)
                    continue
                if mirror is None:
                    ops.append((gates[gate_ids[node_id]], (left, right)))
                else:
                    price = _commit_mirror(
                        state, mirror, node_id, (left, right), extended_set_weight
                    )
                    weighted = _score_pair(wire_depth, left, right, price)
                    if weighted > depth:
                        depth = weighted
            elif node_kind == KIND_FREE:
                physical = tuple(v2p[q] for q in qubit_tuples[node_id])
                ops.append((gates[gate_ids[node_id]], physical))
                if scored and len(physical) > 1:
                    # Directives weigh nothing but join their wires.
                    weighted = max([wire_depth[q] for q in physical])
                    for qubit in physical:
                        wire_depth[qubit] = weighted
                    if weighted > depth:
                        depth = weighted
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
        ties = _swap_ties(state, front, extended_cache, decay, extended_set_weight)
        edge = ties[int(rng.integers(len(ties)))]
        ops.append((SWAP_GATE, edge))
        if scored:
            weighted = _score_pair(wire_depth, *edge, mirror.swap_price)
            if weighted > depth:
                depth = weighted
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
    if scored:
        state.depth = float(depth)


def _score_pair(wire_depth: list[float], a: int, b: int, price: float) -> float:
    """A two-qubit op of raw ``price`` on wires (a, b), as ``_walk`` adds it.

    ``max`` of two spelled out (the first unless the second is larger),
    plus the price, becomes the depth of both wires and is returned.
    """
    upstream = wire_depth[a]
    other = wire_depth[b]
    weighted = (other if other > upstream else upstream) + price
    wire_depth[a] = wire_depth[b] = weighted
    return weighted


def _commit_mirror(
    state: KernelState,
    mirror: MirrorRule,
    node_id: int,
    physical: tuple[int, int],
    extended_set_weight: float,
) -> float:
    """MIRAGE's intermediate layer for one executable two-qubit gate.

    The layout-independent half of the decision (both decomposition
    costs, the mirror gate) is read from the rule; only the routing
    pressure is computed here, and
    :func:`~repro.core.aggression.accept_mirror` decides.  The first
    acceptance of a slot has the rule build its mirror gate.
    Returns the raw price of the emitted gate, for the scored depth.
    """
    # Imported here: ``repro.core`` imports this module.
    from repro.core.aggression import accept_mirror

    state.mirror_candidates += 1
    slot = state.gate_id(node_id)
    routing_current, routing_mirror = _mirror_routing_costs(
        state, state.lookahead_pairs(node_id), physical, extended_set_weight
    )
    weight = mirror.decomposition_weight
    cost_current = weight * mirror.gate_costs[slot] + routing_current
    cost_trial = weight * mirror.mirror_costs[slot] + routing_mirror
    if accept_mirror(cost_current, cost_trial, mirror.aggression):
        state.mirrors_accepted += 1
        gate = mirror.gates[slot]
        if gate is None:
            gate = mirror.accepted_mirror(slot)
        state.ops.append((gate, physical))
        state.swap_physical(*physical)
        return mirror.mirror_prices[slot]
    state.emit(node_id, physical)
    return mirror.gate_prices[slot]


def _mirror_routing_costs(
    state: KernelState,
    pairs: list[tuple[int, int]],
    physical: tuple[int, int],
    extended_set_weight: float,
) -> tuple[float, float]:
    """Current/mirrored routing pressure over flat lookahead pairs.

    Both window sums are direct sums over the pairs, before and after
    the virtual SWAP of ``physical``: in exact int arithmetic on
    connected graphs, over float distances (infinities included)
    otherwise.
    """
    if not pairs:
        return 0.0, 0.0
    swap_a, swap_b = physical
    table = state.table
    if table.connected:
        distance = table.dist_int_lists()
        base = 0
        swapped = 0
    else:
        distance = table.dist_lists()
        base = 0.0
        swapped = 0.0
    for left, right in pairs:
        base += distance[left][right]
        new_left = swap_b if left == swap_a else swap_a if left == swap_b else left
        new_right = (
            swap_b if right == swap_a else swap_a if right == swap_b else right
        )
        swapped += distance[new_left][new_right]
    count = len(pairs)
    current = float(0.0 + extended_set_weight * base / count)
    mirrored = float(0.0 + extended_set_weight * swapped / count)
    return current, mirrored


def _swap_ties(
    state: KernelState,
    front: list[int],
    extended: list[int],
    decay: list[float],
    extended_set_weight: float,
) -> list[tuple[int, int]]:
    """Best-scoring candidate edges in candidate order (the Python scorer).

    Scoring keeps incremental per-edge deltas over the flat arrays: the
    window sums are accumulated once per stall, and each candidate edge
    re-evaluates only the pairs touching its two physical qubits.  On
    connected graphs all of it runs in exact int arithmetic over the
    nested hop-distance lists, so the delta-adjusted sums equal a full
    rescore bit-for-bit; disconnected couplings (possible infinities)
    take :func:`_swap_ties_float`.  The tolerance tie-break is an
    order-dependent recurrence and stays a sequential scan.
    """
    lists = state._lists
    table = state.table
    v2p = state.v2p
    qubit0 = lists.qubit0
    qubit1 = lists.qubit1

    # Candidate edges: union of the edges incident to the stalled gates'
    # physical qubits.  Edge ids are lex-sorted (a, b) pairs, so sorting
    # ids gives the sorted (a, b) candidate order.
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
        return _swap_ties_float(
            state, front, extended, decay, extended_set_weight, candidates
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
        # unconditional (the float scorer's `if num_front:` guard adds
        # 0.0 otherwise, which never happens here).
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
    return best_edges


def _swap_ties_float(
    state: KernelState,
    front: list[int],
    extended: list[int],
    decay: list[float],
    extended_set_weight: float,
    candidates: list[int],
) -> list[tuple[int, int]]:
    """Disconnected-coupling scorer: float distances with inf propagation.

    Keeps the incremental deltas while both window sums are finite, and
    falls back to direct sums once one goes infinite (``inf - inf`` would
    poison the deltas).
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
    return best_edges
