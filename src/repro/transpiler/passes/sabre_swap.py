"""SABRE swap routing (Li, Ding, Xie — ASPLOS 2019), the paper's baseline.

The router walks the circuit DAG keeping a *front layer* of gates whose
dependencies are resolved.  Gates whose qubits are adjacent on the device
execute immediately; when the front layer stalls, candidate SWAPs on edges
touching the front-layer qubits are scored with the distance + lookahead +
decay heuristic and the best one is inserted.

The walk itself is :func:`~repro.transpiler.kernel.route.route_kernel`
over the circuit's flat lowering; :func:`route` runs it once.  MIRAGE is
the same walk plus one argument: an aggression level, with which the loop
receives the paper's intermediate-layer decision between a gate and its
mirror as data (:func:`~repro.transpiler.passes.mirror.mirror_rule`).
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import kahn_order
from repro.circuits.gates import Gate
from repro.linalg.random import _as_rng
from repro.polytopes.coverage import CoverageSet, get_coverage_set
from repro.transpiler.kernel import IntDAG, neighbor_table, route_kernel
from repro.transpiler.kernel.route import KernelState, MirrorRule
from repro.transpiler.layout import Layout
from repro.transpiler.passes.mirror import mirror_rule
from repro.transpiler.topologies import CouplingMap

#: Default SABRE hyper-parameters (paper Section V keeps the defaults).
EXTENDED_SET_SIZE = 20
EXTENDED_SET_WEIGHT = 0.5
DECAY_DELTA = 0.001
DECAY_RESET_INTERVAL = 5


class RoutingResult:
    """Outcome of one routing run.

    The route loop hands back its emitted op stream; :meth:`to_circuit`
    works from ``ops``.

    Attributes:
        ops: the mapped ``(gate, physical_qubits)`` stream in emission
            order (includes inserted SWAPs).
        initial_layout: layout at circuit start.
        final_layout: layout after the last gate.
        swaps_added: number of SWAP gates inserted by the router.
        mirrors_accepted: number of mirror-gate substitutions (MIRAGE only).
        mirror_candidates: number of gates that reached the intermediate layer.
    """

    def __init__(
        self,
        *,
        ops: list[tuple[Gate, tuple[int, ...]]],
        initial_layout: Layout,
        final_layout: Layout,
        swaps_added: int,
        mirrors_accepted: int = 0,
        mirror_candidates: int = 0,
        num_qubits: int = 0,
        name: str = "dag",
    ) -> None:
        self.ops = ops
        self.initial_layout = initial_layout
        self.final_layout = final_layout
        self.swaps_added = swaps_added
        self.mirrors_accepted = mirrors_accepted
        self.mirror_candidates = mirror_candidates
        self._num_qubits = num_qubits
        self._name = name

    def to_circuit(self) -> QuantumCircuit:
        """The routed circuit, with ``ops`` in :func:`kahn_order`.

        The order is computed on plain int lists and range-checks every
        qubit; the circuit is then built in one step.
        """
        qubit_lists = [tuple(map(int, qubits)) for _, qubits in self.ops]
        order = kahn_order(qubit_lists, self._num_qubits)
        ops = [(self.ops[index][0], qubit_lists[index]) for index in order]
        return QuantumCircuit._from_ops(self._num_qubits, ops, self._name)

    @property
    def mirror_acceptance_rate(self) -> float:
        if self.mirror_candidates == 0:
            return 0.0
        return self.mirrors_accepted / self.mirror_candidates


def route_state(
    dag: IntDAG,
    coupling: CouplingMap,
    v2p: list[int],
    rng: np.random.Generator,
    mirror: MirrorRule | None = None,
) -> KernelState:
    """One run of the route loop with the paper's SABRE constants.

    ``v2p`` is the initial layout as a virtual-to-physical list;
    ``mirror`` is MIRAGE's rule (``None`` for SABRE).  Returns the
    loop's :class:`~repro.transpiler.kernel.route.KernelState`.
    """
    return route_kernel(
        dag,
        neighbor_table(coupling),
        v2p,
        rng,
        extended_set_size=EXTENDED_SET_SIZE,
        extended_set_weight=EXTENDED_SET_WEIGHT,
        decay_delta=DECAY_DELTA,
        decay_reset_interval=DECAY_RESET_INTERVAL,
        stall_limit=10 * max(10, coupling.num_qubits),
        mirror=mirror,
    )


def routing_result(
    state: KernelState,
    initial_layout: Layout,
    coupling: CouplingMap,
    name: str | None = None,
) -> RoutingResult:
    """The :class:`RoutingResult` of a finished run from ``initial_layout``."""
    return RoutingResult(
        ops=state.ops,
        num_qubits=coupling.num_qubits,
        name=name or "dag",
        initial_layout=initial_layout,
        final_layout=Layout(state.v2p, coupling.num_qubits),
        swaps_added=state.swaps_added,
        mirrors_accepted=state.mirrors_accepted,
        mirror_candidates=state.mirror_candidates,
    )


def route(
    dag: IntDAG,
    coupling: CouplingMap,
    initial_layout: Layout,
    seed: int | np.random.Generator | None = None,
    *,
    coverage: CoverageSet | None = None,
    aggression: int | None = None,
    name: str | None = None,
) -> RoutingResult:
    """Route the lowering ``dag`` on ``coupling`` from ``initial_layout``.

    ``dag`` is a circuit's :class:`IntDAG` (see :meth:`IntDAG.from_ops`)
    or its :meth:`~repro.transpiler.kernel.IntDAG.reversed` direction.
    ``aggression=None`` routes with SABRE; a level 0-3 routes with MIRAGE,
    whose mirror decision is priced by ``coverage`` (default: the shared
    ``sqrt_iswap`` set).  ``seed`` drives tie-breaking only; ``name``
    names the routed circuit (default ``"dag"``).
    """
    mirror = None
    if aggression is not None:
        if coverage is None:
            coverage = get_coverage_set("sqrt_iswap")
        mirror = mirror_rule(dag, coverage, aggression)
    state = route_state(
        dag, coupling, initial_layout.virtual_to_physical(), _as_rng(seed), mirror
    )
    return routing_result(state, initial_layout.copy(), coupling, name)
