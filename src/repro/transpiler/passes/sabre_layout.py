"""SABRE layout: multi-trial initial-placement search with routing refinement.

For each trial a random initial layout is refined by routing the circuit
forward and backward (the final layout of one direction becomes the initial
layout of the other), then the refined layout is routed one final time and
the best trial is kept according to a *post-selection metric* — SWAP count
(stock SABRE) or decomposition-aware circuit depth (MIRAGE's improvement,
paper Section IV-B).

Trials are fully independent: each one draws from its own RNG stream
spawned via :class:`numpy.random.SeedSequence`, so the best result is
identical no matter in which order — or on which
:class:`~repro.transpiler.executors.TrialExecutor` — the trials run.
:class:`SabreLayout` only describes a search: it builds the picklable
:class:`TrialSpec` shared by every trial and one :class:`TrialRef` per
trial, which the batch engine dispatches to the module-level
:func:`run_trial`; :func:`select_best` picks the winner from the
delivered outcomes.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable, Sequence

import numpy as np

from repro.circuits.dag import DAGCircuit
from repro.polytopes.coverage import CoverageSet, get_coverage_set
from repro.transpiler import metrics as metrics_mod
from repro.transpiler.kernel import IntDAG
from repro.transpiler.layout import Layout
from repro.transpiler.passes.sabre_swap import RoutingResult, SabreSwap
from repro.transpiler.topologies import CouplingMap

#: Paper defaults: 20 layout trials, 4 forward/backward rounds, 20 routing
#: trials.  The pure-Python reproduction keeps them configurable because the
#: full 20 x 20 budget is slow; benches state the budget they use.
DEFAULT_LAYOUT_TRIALS = 4
DEFAULT_REFINEMENT_ROUNDS = 2
DEFAULT_ROUTING_TRIALS = 1

RouterFactory = Callable[[int], SabreSwap]
SelectionMetric = Callable[[RoutingResult], float]


@dataclasses.dataclass
class LayoutResult:
    """Best routing found across all layout/routing trials.

    Attributes:
        routing: the winning trial's routed result.
        score: its post-selection score (lower is better).
        trial_index: index of the winning trial.
        metric_name: label of the post-selection metric.
        trial_scores: score of every trial, in trial order.
        trial_seconds: summed wall-clock seconds spent inside the trials
            (worker time — under a parallel executor this exceeds the
            elapsed wall clock of the search).
    """

    routing: RoutingResult
    score: float
    trial_index: int
    metric_name: str
    trial_scores: list[float] | None = None
    trial_seconds: float = 0.0

    @property
    def dag(self) -> DAGCircuit:
        return self.routing.dag


def seed_sequence(
    seed: int | np.random.SeedSequence | np.random.Generator | None,
) -> np.random.SeedSequence:
    """Coerce any supported seed specification into a ``SeedSequence``.

    A caller-provided ``SeedSequence`` is rebuilt from its entropy and
    spawn key rather than used directly: ``spawn()`` mutates the parent's
    spawn counter, so reusing the caller's instance would make every run
    draw different child streams (silently breaking "same seed, same
    result").  The rebuilt copy always spawns from a fresh counter.
    A caller-provided ``Generator``, by contrast, is consumed — one draw
    of entropy advances its state, so reusing it gives fresh randomness.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            entropy=seed.entropy, spawn_key=seed.spawn_key
        )
    if isinstance(seed, np.random.Generator):
        return np.random.SeedSequence(int(seed.integers(2**63)))
    return np.random.SeedSequence(seed)


def swap_count_metric(result: RoutingResult) -> float:
    """Stock SABRE post-selection: fewest inserted SWAP gates."""
    return float(result.swaps_added)


@dataclasses.dataclass(frozen=True)
class DepthMetric:
    """MIRAGE post-selection: smallest decomposition-aware critical path.

    A MIRAGE route loop scores this depth while it emits the ops, with
    the prices of its mirror table, and the result keeps it next to the
    coverage set that priced it.  When that set *is* this metric's
    coverage the kept depth is returned as is; otherwise (SABRE runs,
    another coverage set) the routed op stream is walked by
    :func:`~repro.transpiler.metrics.ops_depth`.  Both equal
    ``evaluate(result.dag).depth`` bit for bit, and neither builds the
    trial's DAG.  A frozen dataclass rather than a closure so that trial
    tasks carrying it stay picklable for the process-pool executor.
    """

    basis: str = "sqrt_iswap"
    coverage: CoverageSet | None = None

    def __call__(self, result: RoutingResult) -> float:
        coverage = (
            self.coverage
            if self.coverage is not None
            else get_coverage_set(self.basis)
        )
        if result.depth_coverage is coverage:
            return result.depth
        return metrics_mod.ops_depth(result.ops, coverage)


def depth_metric(
    basis: str = "sqrt_iswap", coverage: CoverageSet | None = None
) -> SelectionMetric:
    """Build the MIRAGE depth post-selection metric."""
    return DepthMetric(basis=basis, coverage=coverage)


@dataclasses.dataclass(frozen=True)
class SabreRouterFactory:
    """Picklable factory building a stock :class:`SabreSwap` per trial."""

    coupling: CouplingMap

    def __call__(self, trial: int) -> SabreSwap:
        return SabreSwap(self.coupling)


@dataclasses.dataclass(frozen=True)
class TrialSpec:
    """The heavy, trial-invariant half of a layout search, picklable.

    Every trial of one circuit shares the same lowering, coupling map,
    router factory and post-selection metric; only the
    ``(trial_index, seed)`` pair differs.  Splitting the spec out lets
    the batch engine register it as one
    :class:`~repro.transpiler.executors.DispatchSession` payload,
    serialised once per circuit instead of once per trial.

    ``intdag`` is the circuit's flat lowering
    (:meth:`~repro.transpiler.kernel.IntDAG.from_ops`), built once by the
    planner and shipped as plain ndarrays inside the pickled payload;
    ``name`` names the routed circuit.  The spec carries no
    DAG and no reverse direction: each process derives the reverse from
    the forward arrays with
    :meth:`~repro.transpiler.kernel.IntDAG.reversed` (memoised on the
    lowering), so the dispatcher neither builds nor ships it.
    """

    intdag: IntDAG
    coupling: CouplingMap
    router_factory: RouterFactory
    refinement_rounds: int
    routing_trials: int
    selection_metric: SelectionMetric
    name: str = "dag"


@dataclasses.dataclass(frozen=True)
class TrialRef:
    """The light, per-trial half: which trial, and its private RNG stream."""

    trial_index: int
    seed: np.random.SeedSequence


@dataclasses.dataclass
class TrialOutcome:
    """Score, routing and wall time of one completed layout trial."""

    routing: RoutingResult
    score: float
    trial_index: int
    seconds: float = 0.0


def run_trial(spec: TrialSpec, ref: TrialRef) -> TrialOutcome:
    """Run one independent layout trial (module-level for picklability).

    The trial's entire randomness — initial layout, router tie-breaking in
    every refinement round and final routing — comes from one generator
    seeded by ``ref.seed``, so the outcome depends only on ``(spec, ref)``,
    never on sibling trials or execution order.

    That purity is also the replay contract of the fault-tolerant
    dispatch layer: after a worker crash or hang the lost ``(spec, ref)``
    pairs are simply re-dispatched (possibly on a respawned pool, a
    downgraded transport, or in-process), and the replayed outcomes are
    byte-identical to what the dead worker would have returned.  Keep
    this function free of hidden state — no module globals, no
    side effects beyond the memoised derived lowerings and mirror
    tables — or crash recovery silently stops being deterministic.

    Every round routes ``spec.intdag`` forward and its
    :meth:`~repro.transpiler.kernel.IntDAG.reversed` backward: the
    reverse lowering is derived from the forward arrays, shares their
    gate slots and mirror table, and is built at most once per lowering
    and process.  No trial builds a ``DAGCircuit``.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(ref.seed)
    router = spec.router_factory(ref.trial_index)
    forward_lowering = spec.intdag
    reverse = forward_lowering.reversed()
    layout = Layout.random(
        forward_lowering.num_qubits, spec.coupling.num_qubits, seed=rng
    )
    for _ in range(spec.refinement_rounds):
        forward = router.run(forward_lowering, layout, seed=rng)
        layout = forward.final_layout
        backward = router.run(reverse, layout, seed=rng)
        layout = backward.final_layout
    best_routing: RoutingResult | None = None
    best_score = math.inf
    for _ in range(max(1, spec.routing_trials)):
        result = router.run(forward_lowering, layout, seed=rng, name=spec.name)
        score = spec.selection_metric(result)
        if best_routing is None or score < best_score:
            best_routing = result
            best_score = score
    assert best_routing is not None  # routing_trials >= 1
    return TrialOutcome(
        routing=best_routing,
        score=best_score,
        trial_index=ref.trial_index,
        seconds=time.perf_counter() - start,
    )


def select_best(
    outcomes: Sequence[TrialOutcome],
    metric_name: str = "swaps",
) -> LayoutResult:
    """Pick the winning trial: lowest score, ties to the lowest index.

    The tie-break keeps the winner independent of trial execution order,
    so any executor returns the same result.
    """
    best = min(outcomes, key=lambda o: (o.score, o.trial_index))
    return LayoutResult(
        routing=best.routing,
        score=best.score,
        trial_index=best.trial_index,
        metric_name=metric_name,
        trial_scores=[outcome.score for outcome in outcomes],
        trial_seconds=sum(outcome.seconds for outcome in outcomes),
    )


class SabreLayout:
    """Multi-trial layout search driving any SABRE-compatible router.

    Describes the search only — :meth:`trial_spec` and
    :meth:`trial_refs` are what the batch engine dispatches to
    :func:`run_trial`; :func:`select_best` picks the winner.

    Args:
        coupling: device coupling map.
        router_factory: builds the router used for trial ``i`` (lets MIRAGE
            distribute aggression levels across trials).  Must be picklable
            for the process executor — use a module-level function or a
            frozen dataclass such as :class:`SabreRouterFactory`.
        layout_trials: number of independent random initial layouts.
        refinement_rounds: forward/backward routing rounds per trial.
        routing_trials: independent final routings per refined layout.
        selection_metric: callable scoring a :class:`RoutingResult`
            (lower is better); defaults to SWAP count.
        metric_name: label stored in the result.
        seed: base RNG seed — an int, a ``SeedSequence`` or a ``Generator``
            (``None`` for nondeterministic).  Per-trial streams are spawned
            from it, so results do not depend on trial execution order.
    """

    def __init__(
        self,
        coupling: CouplingMap,
        router_factory: RouterFactory | None = None,
        *,
        layout_trials: int = DEFAULT_LAYOUT_TRIALS,
        refinement_rounds: int = DEFAULT_REFINEMENT_ROUNDS,
        routing_trials: int = DEFAULT_ROUTING_TRIALS,
        selection_metric: SelectionMetric | None = None,
        metric_name: str = "swaps",
        seed: int | np.random.SeedSequence | np.random.Generator | None = None,
    ) -> None:
        self.coupling = coupling
        self.router_factory = router_factory or SabreRouterFactory(coupling)
        self.layout_trials = layout_trials
        self.refinement_rounds = refinement_rounds
        self.routing_trials = routing_trials
        self.selection_metric = selection_metric or swap_count_metric
        self.metric_name = metric_name
        self.seed = seed

    def trial_spec(
        self, dag: IntDAG | DAGCircuit, name: str | None = None
    ) -> TrialSpec:
        """Build the heavy, trial-invariant payload for a lowering.

        A circuit DAG is lowered first (and names the routed circuit
        unless ``name`` does).  The spec carries the forward lowering
        only; trial runners derive the reverse direction from it (see
        :func:`run_trial`).
        """
        if not isinstance(dag, IntDAG):
            dag, name = IntDAG.from_dag(dag), name or dag.name
        return TrialSpec(
            intdag=dag,
            coupling=self.coupling,
            router_factory=self.router_factory,
            refinement_rounds=self.refinement_rounds,
            routing_trials=self.routing_trials,
            selection_metric=self.selection_metric,
            name=name or "dag",
        )

    def trial_refs(self) -> list[TrialRef]:
        """Spawn the light, order-insensitive per-trial seed records."""
        trial_seeds = seed_sequence(self.seed).spawn(self.layout_trials)
        return [
            TrialRef(trial_index=trial, seed=trial_seeds[trial])
            for trial in range(self.layout_trials)
        ]
