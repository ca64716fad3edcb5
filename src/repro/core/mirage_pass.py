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

from repro.circuits.gates import UnitaryGate
from repro.core.aggression import Aggression
from repro.linalg.constants import SWAP
from repro.polytopes.coverage import CoverageSet, get_coverage_set
from repro.transpiler.kernel import IntDAG
from repro.transpiler.kernel.intdag import KIND_CHECK2, MIRROR_TABLES_ATTR
from repro.transpiler.kernel.route import SWAP_GATE, MirrorRule
from repro.transpiler.metrics import gate_coordinate
from repro.transpiler.passes.sabre_swap import SabreSwap
from repro.transpiler.topologies import CouplingMap
from repro.weyl.mirror import mirror_coordinates_many


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
        mirror_gates: the mirror gate ``SWAP . U`` per slot, built once and
            emitted by every run that accepts that slot's mirror.
        gate_prices: the gate's raw coverage price (``cost_of_many``
            output, before the division by ``unit_cost``), which is what
            :func:`~repro.transpiler.metrics.evaluate` weighs it by.
        mirror_prices: the mirror's raw price.
        swap_price: the raw price of an inserted SWAP, priced from
            ``gate_coordinate(SWAP_GATE)`` as the metrics price it.
    """

    mirror_coords: list[tuple[float, float, float] | None]
    gate_costs: list[float]
    mirror_costs: list[float]
    mirror_gates: list[UnitaryGate | None]
    gate_prices: list[float]
    mirror_prices: list[float]
    swap_price: float


def mirror_gate(
    gate, mirrored_coordinate: tuple[float, float, float]
) -> UnitaryGate:
    """Build the mirror gate ``SWAP . U`` as an annotated block.

    The full gate is replaced with a new unitary rather than an appended
    SWAP gate (paper Section VI-C), the mirrored coordinate is attached
    analytically (no re-extraction), and the unitarity check is skipped
    because mirroring preserves unitarity by construction.
    """
    return UnitaryGate(
        SWAP @ gate.matrix(),
        label=f"{gate.name}_mirror",
        check=False,
        coordinate=tuple(mirrored_coordinate),
    )


def mirror_table(intdag: IntDAG, coverage: CoverageSet) -> MirrorTable:
    """The :class:`MirrorTable` of ``intdag`` under ``coverage``, memoised.

    A gate's coordinate, its mirror coordinate and both decomposition
    costs depend only on the gate, never on the layout, so they are
    computed once per circuit — one batched
    :func:`~repro.weyl.mirror.mirror_coordinates_many` and one
    :meth:`~repro.polytopes.coverage.CoverageSet.cost_of_many` over every
    two-qubit slot plus the SWAP — and shared by every routing run over
    it: both routing directions (the reverse lowering from
    :meth:`IntDAG.reversed` keeps the slots and shares the memo),
    refinement rounds, routing trials and all trials a worker runs from
    one payload.  Both batched calls are element-wise identical to the
    scalar chain ``gate_coordinate`` -> ``mirror_coordinate`` ->
    ``cost_of``, so the routed output does not change; and the coverage
    memo hands :func:`~repro.transpiler.metrics.evaluate` the same float
    for the same gate, so a depth scored from the raw prices equals the
    evaluated one bit for bit.

    The two-qubit slots are read from the lowering's arrays.  The memo is
    keyed by the coverage set object itself (a strong reference, so two
    sets can never alias), lives on the lowering and is dropped from its
    pickle: each process builds its own table on first use.
    """
    tables = intdag.__dict__.setdefault(MIRROR_TABLES_ATTR, {})
    table = tables.get(coverage)
    if table is not None:
        return table
    slots = np.unique(intdag.gate_ids[intdag.kind == KIND_CHECK2]).tolist()
    num_slots = len(intdag.gates)
    mirror_coords: list[tuple[float, float, float] | None] = [None] * num_slots
    gate_costs = [0.0] * num_slots
    mirror_costs = [0.0] * num_slots
    gate_prices = [0.0] * num_slots
    mirror_prices = [0.0] * num_slots
    mirror_gates: list[UnitaryGate | None] = [None] * num_slots
    coordinates = np.array(
        [gate_coordinate(intdag.gates[slot]) for slot in slots], dtype=float
    ).reshape(-1, 3)
    mirrored = mirror_coordinates_many(coordinates)
    prices = coverage.cost_of_many(
        np.vstack([coordinates, mirrored, [gate_coordinate(SWAP_GATE)]])
    ).tolist()
    unit = coverage.unit_cost
    count = len(slots)
    for row, slot in enumerate(slots):
        mirror_coords[slot] = tuple(mirrored[row].tolist())
        gate_prices[slot] = prices[row]
        mirror_prices[slot] = prices[count + row]
        gate_costs[slot] = prices[row] / unit
        mirror_costs[slot] = prices[count + row] / unit
        mirror_gates[slot] = mirror_gate(intdag.gates[slot], mirror_coords[slot])
    table = MirrorTable(
        mirror_coords,
        gate_costs,
        mirror_costs,
        mirror_gates,
        gate_prices,
        mirror_prices,
        prices[-1],
    )
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

    def _mirror_rule(self, intdag: IntDAG) -> MirrorRule:
        """The mirror decision as kernel data (see :class:`MirrorRule`).

        The layout-independent half of the decision — both decomposition
        costs and the mirror gate — comes from the per-circuit
        :class:`MirrorTable`; the kernel computes the routing pressure and
        applies :func:`~repro.core.aggression.accept_mirror`.
        """
        table = mirror_table(intdag, self.coverage)
        return MirrorRule(
            table.mirror_gates,
            table.gate_costs,
            table.mirror_costs,
            self.decomposition_weight,
            int(self.aggression),
            table.gate_prices,
            table.mirror_prices,
            table.swap_price,
            self.coverage,
        )
