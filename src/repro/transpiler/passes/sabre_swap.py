"""SABRE swap routing (Li, Ding, Xie — ASPLOS 2019), the paper's baseline.

The router walks the circuit DAG keeping a *front layer* of gates whose
dependencies are resolved.  Gates whose qubits are adjacent on the device
execute immediately; when the front layer stalls, candidate SWAPs on edges
touching the front-layer qubits are scored with the distance + lookahead +
decay heuristic and the best one is inserted.

The walk itself is :func:`~repro.transpiler.kernel.route.route_kernel`
over the circuit's flat lowering.  MIRAGE (:mod:`repro.core.mirage_pass`)
subclasses :class:`SabreSwap` and overrides only
:meth:`SabreSwap._mirror_rule`, which hands the loop the paper's
intermediate-layer decision between a gate and its mirror as data.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import DAGCircuit, kahn_order
from repro.circuits.gates import Gate
from repro.linalg.random import _as_rng
from repro.transpiler.kernel import IntDAG, neighbor_table, route_kernel
from repro.transpiler.kernel.route import MirrorRule
from repro.transpiler.layout import Layout
from repro.transpiler.topologies import CouplingMap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.polytopes.coverage import CoverageSet

#: Default SABRE hyper-parameters (paper Section V keeps the defaults).
EXTENDED_SET_SIZE = 20
EXTENDED_SET_WEIGHT = 0.5
DECAY_DELTA = 0.001
DECAY_RESET_INTERVAL = 5


class RoutingResult:
    """Outcome of one routing run.

    The route loop hands back its emitted op stream.  Refinement rounds
    read only ``final_layout``, the depth post-selection metric and the
    pipeline's scoring read ``ops``, and :meth:`to_circuit` works from
    ``ops`` too, so a transpile builds no routed DAG; :attr:`dag` builds
    one from ``ops`` on each read, for callers that want the graph.

    A MIRAGE route loop also scores the weighted critical-path depth of
    what it emits; the result keeps that ``depth`` next to the coverage
    set that priced it (``depth_coverage``, a strong reference), which is
    how :class:`~repro.transpiler.passes.sabre_layout.DepthMetric` knows
    the kept value is its own.  Both are per-process and left out of the
    pickle.

    Attributes:
        ops: the mapped ``(gate, physical_qubits)`` stream in emission
            order (includes inserted SWAPs).
        dag: the mapped DAG on physical qubits, built from ``ops``.
        initial_layout: layout at circuit start.
        final_layout: layout after the last gate.
        swaps_added: number of SWAP gates inserted by the router.
        mirrors_accepted: number of mirror-gate substitutions (MIRAGE only).
        mirror_candidates: number of gates that reached the intermediate layer.
        depth: weighted critical-path depth scored by the route loop, or
            ``None`` when the loop had no prices (SABRE).
        depth_coverage: the coverage set whose prices scored ``depth``.
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
        depth: float | None = None,
        depth_coverage: "CoverageSet | None" = None,
    ) -> None:
        self.ops = ops
        self.initial_layout = initial_layout
        self.final_layout = final_layout
        self.swaps_added = swaps_added
        self.mirrors_accepted = mirrors_accepted
        self.mirror_candidates = mirror_candidates
        self._num_qubits = num_qubits
        self._name = name
        self.depth = depth
        self.depth_coverage = depth_coverage

    def __getstate__(self) -> dict:
        # The kept depth is only meaningful next to the very coverage
        # object that priced it, which must not travel with the result.
        state = dict(self.__dict__)
        state["depth"] = None
        state["depth_coverage"] = None
        return state

    @property
    def dag(self) -> DAGCircuit:
        out = DAGCircuit(self._num_qubits, self._name)
        for gate, physical in self.ops:
            out.add_node(gate, physical)
        return out

    def to_circuit(self) -> QuantumCircuit:
        """The routed circuit, in the Kahn order of :meth:`DAGCircuit.to_circuit`.

        The order is computed on plain int lists instead of building the
        DAG, and range-checks every qubit; the circuit is then built in
        one step.
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


class SabreSwap:
    """SABRE heuristic router.

    Args:
        coupling: device coupling map.
        extended_set_size: lookahead window size ``|E|``.
        extended_set_weight: lookahead weight ``W``.
        decay_delta: per-SWAP decay increment.
        decay_reset_interval: SWAP insertions between decay resets.
        seed: RNG seed used only for tie-breaking.
    """

    def __init__(
        self,
        coupling: CouplingMap,
        *,
        extended_set_size: int = EXTENDED_SET_SIZE,
        extended_set_weight: float = EXTENDED_SET_WEIGHT,
        decay_delta: float = DECAY_DELTA,
        decay_reset_interval: int = DECAY_RESET_INTERVAL,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.coupling = coupling
        self.extended_set_size = extended_set_size
        self.extended_set_weight = extended_set_weight
        self.decay_delta = decay_delta
        self.decay_reset_interval = decay_reset_interval
        self._rng = _as_rng(seed)

    # -- public API --------------------------------------------------------

    def run(
        self,
        dag: DAGCircuit | IntDAG,
        initial_layout: Layout,
        seed: int | np.random.Generator | None = None,
        *,
        name: str | None = None,
    ) -> RoutingResult:
        """Route ``dag`` starting from ``initial_layout``.

        ``dag`` is a lowered :class:`IntDAG` (such as the reverse
        direction of a refinement round) or a circuit DAG, which is
        lowered first; :func:`~repro.transpiler.kernel.route.route_kernel`
        routes the lowering.  ``name`` names the routed circuit (default:
        the DAG's name, or ``"dag"`` for a lowering).
        """
        rng = _as_rng(seed) if seed is not None else self._rng
        if isinstance(dag, IntDAG):
            intdag = dag
        else:
            intdag, name = IntDAG.from_dag(dag), name or dag.name
        mirror = self._mirror_rule(intdag)
        state = route_kernel(
            intdag,
            neighbor_table(self.coupling),
            initial_layout.virtual_to_physical(),
            rng,
            extended_set_size=self.extended_set_size,
            extended_set_weight=self.extended_set_weight,
            decay_delta=self.decay_delta,
            decay_reset_interval=self.decay_reset_interval,
            stall_limit=10 * max(10, self.coupling.num_qubits),
            mirror=mirror,
        )
        return RoutingResult(
            ops=state.ops,
            num_qubits=self.coupling.num_qubits,
            name=name or "dag",
            initial_layout=initial_layout.copy(),
            final_layout=Layout(state.v2p, self.coupling.num_qubits),
            swaps_added=state.swaps_added,
            mirrors_accepted=state.mirrors_accepted,
            mirror_candidates=state.mirror_candidates,
            depth=state.depth,
            depth_coverage=None if mirror is None else mirror.coverage,
        )

    def _mirror_rule(self, intdag: IntDAG) -> MirrorRule | None:
        """The loop's mirror decision for this lowering: none for SABRE.

        MIRAGE overrides this with its :class:`MirrorRule`.
        """
        return None
