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
import threading
from typing import Sequence

import numpy as np

from repro.circuits.gates import Gate, UnitaryGate
from repro.core.aggression import Aggression
from repro.linalg.constants import SWAP
from repro.polytopes.coverage import CoverageSet, get_coverage_set
from repro.transpiler.kernel import IntDAG
from repro.transpiler.kernel.intdag import KIND_CHECK2, MIRROR_TABLES_ATTR
from repro.transpiler.kernel.route import SWAP_GATE, MirrorRule
from repro.transpiler.metrics import distinct_coordinates, gate_coordinate
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
        mirror_gates: the mirror gate ``SWAP . U`` per slot, built on the
            first acceptance of that slot's mirror (see
            :meth:`accepted_mirror`) and then emitted by every run that
            accepts it; ``None`` until then.
        gate_prices: the gate's raw coverage price (``cost_of_many``
            output, before the division by ``unit_cost``), which is what
            :func:`~repro.transpiler.metrics.evaluate` weighs it by.
        mirror_prices: the mirror's raw price.
        swap_price: the raw price of an inserted SWAP, priced from
            ``gate_coordinate(SWAP_GATE)`` as the metrics price it.
        gates: the lowering's gate per slot, which a mirror is built from.
    """

    mirror_coords: list[tuple[float, float, float] | None]
    gate_costs: list[float]
    mirror_costs: list[float]
    mirror_gates: list[UnitaryGate | None]
    gate_prices: list[float]
    mirror_prices: list[float]
    swap_price: float
    gates: Sequence[Gate]
    _lock: threading.Lock = dataclasses.field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def accepted_mirror(self, slot: int) -> UnitaryGate:
        """The mirror gate of ``slot``, built and stored on first use.

        Both route loops call this when they accept a slot's mirror and
        find no gate stored yet.  The lock makes the first build the only
        one, so every run over the lowering, on any thread, emits the
        same object for the slot.
        """
        with self._lock:
            gate = self.mirror_gates[slot]
            if gate is None:
                gate = self.mirror_gates[slot] = mirror_gate(
                    self.gates[slot], self.mirror_coords[slot]
                )
            return gate


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
    computed once per circuit and shared by every routing run over it:
    both routing directions (the reverse lowering from
    :meth:`IntDAG.reversed` keeps the slots and shares the memo),
    refinement rounds, routing trials and all trials a worker runs from
    one payload.  The work scales with distinct values, not slots: one
    :func:`~repro.weyl.mirror.mirror_coordinates_many` row per distinct
    gate coordinate, and one
    :meth:`~repro.polytopes.coverage.CoverageSet.cost_of_many` row per
    distinct coordinate among the gates and their mirrors, plus the
    SWAP, in order of first appearance
    (:func:`~repro.transpiler.metrics.distinct_coordinates`).  Both
    batched calls are element-wise identical to the scalar chain
    ``gate_coordinate`` -> ``mirror_coordinate`` -> ``cost_of``, so the
    routed output does not change; and the coverage memo hands
    :func:`~repro.transpiler.metrics.evaluate` the same float for the
    same coordinate, so a depth scored from the raw prices equals the
    evaluated one bit for bit.  Mirror gates are built only when a
    route loop accepts them (:meth:`MirrorTable.accepted_mirror`).

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
    coordinates, rows = distinct_coordinates(
        [gate_coordinate(intdag.gates[slot]) for slot in slots]
    )
    mirrored = [
        tuple(row)
        for row in mirror_coordinates_many(
            np.array(coordinates, dtype=float).reshape(-1, 3)
        ).tolist()
    ]
    priced, price_rows = distinct_coordinates(coordinates + mirrored)
    prices = coverage.cost_of_many(
        np.array(priced + [gate_coordinate(SWAP_GATE)], dtype=float)
    ).tolist()
    unit = coverage.unit_cost
    count = len(coordinates)
    for slot, row in zip(slots, rows):
        mirror_coords[slot] = mirrored[row]
        gate_prices[slot] = prices[price_rows[row]]
        mirror_prices[slot] = prices[price_rows[count + row]]
        gate_costs[slot] = gate_prices[slot] / unit
        mirror_costs[slot] = mirror_prices[slot] / unit
    table = MirrorTable(
        mirror_coords,
        gate_costs,
        mirror_costs,
        [None] * num_slots,
        gate_prices,
        mirror_prices,
        prices[-1],
        intdag.gates,
    )
    # First writer wins: a thread that raced another's build returns the
    # stored table, so every run emits mirror gates from the same one.
    return tables.setdefault(coverage, table)


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
        :class:`MirrorTable`; the kernel computes the routing pressure,
        applies :func:`~repro.core.aggression.accept_mirror` and has the
        table build an accepted slot's mirror gate on first use.
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
            table.accepted_mirror,
        )
