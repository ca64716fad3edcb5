"""The MIRAGE routing pass (paper Section IV).

MIRAGE inherits the SABRE workflow — front layer, execute layer, SWAP
scoring — and adds an *intermediate layer* between execution and the mapped
DAG: every two-qubit gate that becomes executable is compared against its
mirror gate (the same gate followed by a virtual SWAP of its output wires).
The comparison combines

* the estimated decomposition cost of the gate vs. its mirror (from the
  coverage set of the target basis gate), and
* the routing pressure of the layout that each choice leaves behind (the
  same distance + lookahead heuristic SABRE uses for SWAP selection),

and the mirror is accepted according to the configured aggression level
(Algorithm 2).  Accepting a mirror swaps the two virtual qubits in the
layout — data moves without any inserted SWAP gate, which is exactly the
"mirage SWAP" the paper is named after.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuits.dag import DAGCircuit, DAGNode
from repro.circuits.gates import UnitaryGate
from repro.core.aggression import Aggression, accept_mirror
from repro.linalg.constants import SWAP
from repro.polytopes.coverage import CoverageSet, get_coverage_set
from repro.transpiler.kernel import IntDAG, KernelState
from repro.transpiler.kernel.intdag import KIND_CHECK2
from repro.transpiler.layout import Layout
from repro.transpiler.metrics import gate_coordinate, node_coordinate
from repro.transpiler.passes.sabre_swap import SabreSwap
from repro.transpiler.topologies import CouplingMap
from repro.weyl.mirror import mirror_coordinate, mirror_coordinates_many

#: Attribute under which mirror tables are memoised on an ``IntDAG``.
_TABLES_ATTR = "_mirror_tables"


@dataclasses.dataclass(frozen=True)
class MirrorTable:
    """Trial-invariant mirror data of one lowered circuit, per gate slot.

    Indexed like :attr:`IntDAG.gates`.  Slots of gates that never reach
    the intermediate layer (single-qubit gates, directives) hold ``None``
    and ``0.0``.

    Attributes:
        mirror_coords: Weyl coordinate of ``SWAP . U`` per slot (Eq. 1).
        gate_costs: decomposition cost of the gate, in basis-gate units.
        mirror_costs: decomposition cost of its mirror, in the same units.
    """

    mirror_coords: list[tuple[float, float, float] | None]
    gate_costs: list[float]
    mirror_costs: list[float]


def mirror_table(intdag: IntDAG, coverage: CoverageSet) -> MirrorTable:
    """The :class:`MirrorTable` of ``intdag`` under ``coverage``, memoised.

    A gate's coordinate, its mirror coordinate and both decomposition
    costs depend only on the gate, never on the layout, so they are
    computed once per lowering — one batched
    :func:`~repro.weyl.mirror.mirror_coordinates_many` and one
    :meth:`~repro.polytopes.coverage.CoverageSet.cost_of_many` over every
    two-qubit slot — and shared by every routing run over it (refinement
    rounds, routing trials, all trials a worker runs from one payload).
    Both batched calls are element-wise identical to the scalar chain
    ``gate_coordinate`` -> ``mirror_coordinate`` -> ``cost_of``, so the
    routed output does not change.

    The memo is keyed by the coverage set object itself (a strong
    reference, so two sets can never alias) and is dropped from the
    ``IntDAG`` pickle: each process builds its own table on first use.
    """
    tables = intdag.__dict__.setdefault(_TABLES_ATTR, {})
    table = tables.get(coverage)
    if table is not None:
        return table
    lists = intdag.lists()
    slots = sorted(
        {
            slot
            for slot, kind in zip(lists.gate_ids, lists.kind)
            if kind == KIND_CHECK2
        }
    )
    num_slots = len(intdag.gates)
    mirror_coords: list[tuple[float, float, float] | None] = [None] * num_slots
    gate_costs = [0.0] * num_slots
    mirror_costs = [0.0] * num_slots
    if slots:
        coordinates = np.array(
            [gate_coordinate(intdag.gates[slot]) for slot in slots], dtype=float
        )
        mirrored = mirror_coordinates_many(coordinates)
        costs = coverage.cost_of_many(np.vstack([coordinates, mirrored]))
        unit = coverage.unit_cost
        count = len(slots)
        for row, slot in enumerate(slots):
            mirror_coords[slot] = tuple(mirrored[row].tolist())
            gate_costs[slot] = float(costs[row]) / unit
            mirror_costs[slot] = float(costs[count + row]) / unit
    table = MirrorTable(mirror_coords, gate_costs, mirror_costs)
    tables[coverage] = table
    return table


class MirageSwap(SabreSwap):
    """SABRE-style router with mirror-gate substitution.

    Args:
        coupling: device coupling map.
        coverage: coverage set of the target basis gate (cost oracle).
        aggression: mirror acceptance level 0-3 (paper Algorithm 2).
        decomposition_weight: weight of the decomposition-cost term relative
            to the routing-heuristic term in the mirror decision.
        kwargs: forwarded to :class:`SabreSwap` (lookahead, decay, seed).
    """

    def __init__(
        self,
        coupling: CouplingMap,
        coverage: CoverageSet | None = None,
        *,
        basis: str = "sqrt_iswap",
        aggression: int | Aggression = Aggression.IMPROVE,
        decomposition_weight: float = 1.0,
        **kwargs,
    ) -> None:
        super().__init__(coupling, **kwargs)
        self.coverage = coverage if coverage is not None else get_coverage_set(basis)
        self.aggression = Aggression(int(aggression))
        self.decomposition_weight = decomposition_weight

    # -- the intermediate layer ---------------------------------------------

    def _commit_two_qubit(
        self,
        node: DAGNode,
        physical: tuple[int, ...],
        layout: Layout,
        out: DAGCircuit,
        dag: DAGCircuit,
    ) -> None:
        self._stats["candidates"] += 1

        coordinate = node_coordinate(node)
        mirrored_coordinate = mirror_coordinate(coordinate)

        unit = self.coverage.unit_cost
        # Gate and mirror resolved by one batched coverage query (and the
        # shared memo table, so repeated blocks stay cached).
        pair_costs = self.coverage.cost_of_many(
            (coordinate, mirrored_coordinate)
        )
        decomposition_current = float(pair_costs[0]) / unit
        decomposition_mirror = float(pair_costs[1]) / unit

        lookahead = self._extended_set([node], dag)
        routing_current, routing_mirror = self._mirror_routing_costs(
            lookahead, layout, physical
        )

        cost_current = (
            self.decomposition_weight * decomposition_current + routing_current
        )
        cost_trial = (
            self.decomposition_weight * decomposition_mirror + routing_mirror
        )

        if accept_mirror(cost_current, cost_trial, self.aggression):
            self._stats["mirrors"] += 1
            mirrored_gate = self._mirror_gate(node.gate, mirrored_coordinate)
            out.add_node(mirrored_gate, physical)
            layout.swap_physical(*physical)
        else:
            out.add_node(node.gate, physical)

    # -- the intermediate layer, flat-kernel twin ---------------------------

    def _begin_flat(self, intdag: IntDAG) -> None:
        self._table = mirror_table(intdag, self.coverage)

    def _commit_two_qubit_flat(
        self, state: KernelState, node_id: int, physical: tuple[int, int]
    ) -> None:
        """Mirror decision over flat kernel state (same arithmetic, same
        acceptance, byte-identical outputs as :meth:`_commit_two_qubit`).

        The layout-independent half of the decision — mirror coordinate
        and both decomposition costs — is read from the per-circuit
        :class:`MirrorTable`; only the routing pressure is computed here.
        """
        self._stats["candidates"] += 1

        slot = state.gate_id(node_id)
        table = self._table
        lookahead = state.lookahead_pairs(node_id)
        routing_current, routing_mirror = self._mirror_routing_costs_flat(
            state, lookahead, physical
        )

        cost_current = (
            self.decomposition_weight * table.gate_costs[slot] + routing_current
        )
        cost_trial = (
            self.decomposition_weight * table.mirror_costs[slot] + routing_mirror
        )

        if accept_mirror(cost_current, cost_trial, self.aggression):
            self._stats["mirrors"] += 1
            state.ops.append(
                (
                    self._mirror_gate(
                        state.intdag.gates[slot], table.mirror_coords[slot]
                    ),
                    physical,
                )
            )
            state.swap_physical(*physical)
        else:
            state.emit(node_id, physical)

    def _mirror_routing_costs_flat(
        self,
        state: KernelState,
        pairs: list[tuple[int, int]],
        physical: tuple[int, int],
    ) -> tuple[float, float]:
        """Current/mirrored routing pressure over flat lookahead pairs.

        On connected graphs both window sums run in exact int arithmetic;
        the float path reproduces the object path's inf handling.  Either
        way the returned floats match :meth:`_mirror_routing_costs` —
        integer-valued distances make the delta-adjusted sum equal the
        direct sum computed here.
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
            new_left = (
                swap_b if left == swap_a else swap_a if left == swap_b else left
            )
            new_right = (
                swap_b if right == swap_a
                else swap_a if right == swap_b
                else right
            )
            swapped += distance[new_left][new_right]
        count = len(pairs)
        weight = self.extended_set_weight
        current = float(0.0 + weight * base / count)
        mirrored = float(0.0 + weight * swapped / count)
        return current, mirrored

    def _mirror_routing_costs(
        self,
        lookahead: list[DAGNode],
        layout: Layout,
        physical: tuple[int, ...],
    ) -> tuple[float, float]:
        """Routing pressure of the current layout and of the mirrored one.

        Historically this copied the layout, applied the virtual SWAP and
        rescored the whole lookahead window; now only the lookahead gates
        touching the two swapped physical qubits are re-evaluated as a
        delta on the base sum.  Hop-count distances are integer-valued, so
        the delta-adjusted sum is exactly the sum a full rescore would
        produce and the returned floats are bit-identical to the
        copy-and-rescore pair.
        """
        if not lookahead:
            return 0.0, 0.0
        distance = self.coupling.distance_matrix
        pairs = [
            (layout.v2p(node.qubits[0]), layout.v2p(node.qubits[1]))
            for node in lookahead
        ]
        base = sum(distance[left, right] for left, right in pairs)
        swap_a, swap_b = physical
        if not np.isfinite(base):
            # Infinite distances (disconnected coupling) poison the delta
            # arithmetic with inf - inf; rescore against a swapped copy.
            trial_layout = layout.copy()
            trial_layout.swap_physical(swap_a, swap_b)
            return (
                self.routing_heuristic([], lookahead, layout),
                self.routing_heuristic([], lookahead, trial_layout),
            )
        delta = 0.0
        for left, right in pairs:
            left_hit = left == swap_a or left == swap_b
            right_hit = right == swap_a or right == swap_b
            if not (left_hit or right_hit):
                continue
            if left_hit and right_hit:
                continue  # both endpoints swap; distance unchanged
            new_left = (
                swap_b if left == swap_a else swap_a if left == swap_b else left
            )
            new_right = (
                swap_b if right == swap_a
                else swap_a if right == swap_b
                else right
            )
            delta += distance[new_left, new_right] - distance[left, right]
        count = len(pairs)
        weight = self.extended_set_weight
        current = float(0.0 + weight * base / count)
        mirrored = float(0.0 + weight * (base + delta) / count)
        return current, mirrored

    @staticmethod
    def _mirror_gate(
        gate, mirrored_coordinate: tuple[float, float, float]
    ) -> UnitaryGate:
        """Build the mirror gate ``SWAP . U`` as an annotated block.

        The full gate is replaced with a new unitary rather than an
        appended SWAP gate (paper Section VI-C), the mirrored coordinate is
        attached analytically (no re-extraction), and the unitarity check is
        skipped because mirroring preserves unitarity by construction.
        """
        matrix = SWAP @ gate.matrix()
        return UnitaryGate(
            matrix,
            label=f"{gate.name}_mirror",
            check=False,
            coordinate=tuple(mirrored_coordinate),
        )
