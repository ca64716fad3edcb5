"""The staged MIRAGE transpilation pipeline (paper Section V flow).

The paper's experimental flow — clean → unroll → consolidate →
coupling/coverage analysis → VF2 embedding → multi-trial SABRE/MIRAGE
routing → post-selection — runs as named stages on two
:class:`~repro.transpiler.passmanager.PassManager` halves:
:func:`build_batch_front_pipeline` plans a circuit up to its routing
trials (``plan`` parks them as a :class:`TrialPlan`), the executor runs
the trials, and :func:`build_batch_back_pipeline` selects the winner
(``route``) and assembles the result (``select``).  Stages exchange
data through the shared :class:`~repro.transpiler.passmanager.PropertySet`
(``coupling_map``, ``coverage``, ``input_metrics``, layouts, routing
counters, and finally ``result``), so any stage can be replaced, removed
or reordered without touching the others, and every run yields a per-stage
timing report (paper Fig. 13).

Each circuit is lowered once: ``clean`` turns it into an
:class:`~repro.circuits.circuit.OpList`, the front stages rewrite and read
that op stream, and ``plan`` lowers it straight to the
:class:`~repro.transpiler.kernel.IntDAG` its trials route, the only
form the router accepts.  A :class:`QuantumCircuit` is built only for a
result: the embedded circuit in ``vf2`` or the routed winner in ``route``.

:mod:`repro.core.transpile` drives both halves for :func:`transpile`,
:func:`transpile_many` and :func:`compare_methods` through one engine.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable

import numpy as np

from repro.exceptions import TranspilerError
from repro.circuits.circuit import Op, OpList, QuantumCircuit
from repro.core.aggression import Aggression, schedule_from_spec
from repro.core.mirage_pass import MirageSwap
from repro.core.results import TranspileResult
from repro.polytopes.coverage import CoverageSet, get_coverage_set
from repro.transpiler.layout import apply_layout, vf2_layout
from repro.transpiler.metrics import evaluate
from repro.transpiler.kernel import IntDAG
from repro.transpiler.passes.cleanup import clean_ops
from repro.transpiler.passes.consolidate import consolidate_ops
from repro.transpiler.passes.sabre_layout import (
    DepthMetric,
    SabreLayout,
    SabreRouterFactory,
    TrialRef,
    TrialSpec,
    select_best,
    swap_count_metric,
)
from repro.transpiler.passes.sabre_swap import SabreSwap
from repro.transpiler.passes.unroll import unroll_ops
from repro.transpiler.passmanager import (
    BasePass,
    PassManager,
    PipelineState,
)
from repro.transpiler.topologies import CouplingMap, topology_by_name
from repro.weyl.catalog import basis_gate_cost


@dataclasses.dataclass(frozen=True)
class MirageRouterFactory:
    """Picklable factory building a :class:`MirageSwap` per trial.

    The aggression schedule is baked in as a tuple so the factory can ship
    to process-pool workers; trial ``i`` gets ``schedule[i % len]``.
    """

    coupling: CouplingMap
    coverage: CoverageSet
    schedule: tuple[Aggression, ...]

    def __call__(self, trial: int) -> SabreSwap:
        return MirageSwap(
            self.coupling,
            self.coverage,
            aggression=self.schedule[trial % len(self.schedule)],
        )


class CleanInputPass(BasePass):
    """Lower the input to an :class:`OpList` and clean it in one walk.

    Records the permutation of its SWAP elision as ``input_permutation``:
    the output of the *original* circuit on qubit ``q`` is the output of
    ``state.circuit`` on qubit ``input_permutation[q]``.
    """

    name = "clean"

    def run(self, state: PipelineState) -> None:
        lowered = OpList.of(state.circuit)
        ops, permutation = clean_ops(lowered.ops, lowered.num_qubits)
        state.circuit = OpList(lowered.num_qubits, lowered.name, ops)
        state.properties["input_permutation"] = permutation


class OpListPass(BasePass):
    """A front stage rewriting the op stream: ``fn(ops) -> ops``.

    A circuit in the state is lowered to an :class:`OpList` first.
    """

    def __init__(self, name: str, fn: Callable[[list[Op]], list[Op]]) -> None:
        self.name = name
        self.fn = fn

    def run(self, state: PipelineState) -> None:
        lowered = OpList.of(state.circuit)
        state.circuit = OpList(lowered.num_qubits, lowered.name, self.fn(lowered.ops))


class ResolveCouplingPass(BasePass):
    """Resolve a coupling map (or topology name) and validate device size."""

    name = "coupling"

    def __init__(self, coupling: CouplingMap | str) -> None:
        self.coupling = coupling

    def run(self, state: PipelineState) -> None:
        coupling = self.coupling
        if not isinstance(coupling, CouplingMap):
            coupling = topology_by_name(coupling, state.circuit.num_qubits)
        if state.circuit.num_qubits > coupling.num_qubits:
            raise TranspilerError(
                f"circuit needs {state.circuit.num_qubits} qubits but the "
                f"device has {coupling.num_qubits}"
            )
        state.properties["coupling_map"] = coupling


def resolve_coverage(coverage: object, basis: str) -> CoverageSet:
    """Resolve a ``coverage=`` specification into a concrete coverage set.

    Accepted specifications, in resolution order: ``None`` (the shared
    process-wide set for ``basis`` via
    :func:`~repro.polytopes.coverage.get_coverage_set`), a prebuilt
    :class:`~repro.polytopes.coverage.CoverageSet` (returned unchanged),
    or a registry handle — any object exposing ``get(basis)``, such as
    :class:`repro.polytopes.registry.RegistryHandle` — through which
    long-lived callers (the service tier) route every batch's coverage
    lookup so builds are shared and single-flight.

    Raises:
        TranspilerError: if the specification is none of the above, or a
            handle's ``get`` returns something other than a coverage set.
    """
    if coverage is None:
        return get_coverage_set(basis)
    if isinstance(coverage, CoverageSet):
        return coverage
    getter = getattr(coverage, "get", None)
    if callable(getter):
        resolved = getter(basis)
        if isinstance(resolved, CoverageSet):
            return resolved
        raise TranspilerError(
            f"coverage registry handle returned {type(resolved).__name__}, "
            f"not a CoverageSet"
        )
    raise TranspilerError(
        f"cannot interpret {coverage!r} as a coverage set or registry handle"
    )


class AttachCoveragePass(BasePass):
    """Attach the coverage set (decomposition-cost oracle) for the basis."""

    name = "coverage"

    def __init__(self, basis: str, coverage: CoverageSet | None = None) -> None:
        self.basis = basis
        self.coverage = coverage

    def run(self, state: PipelineState) -> None:
        state.properties["basis"] = self.basis
        state.properties["coverage"] = resolve_coverage(
            self.coverage, self.basis
        )


class AnalyzeInputPass(BasePass):
    """Record metrics of the prepared input circuit for improvement reports."""

    name = "analyze"

    def run(self, state: PipelineState) -> None:
        state.properties["input_metrics"] = evaluate(
            OpList.of(state.circuit).ops,
            basis=state.properties.require("basis"),
            coverage=state.properties.require("coverage"),
        )


class VF2EmbeddingPass(BasePass):
    """Search for a SWAP-free embedding before invoking SABRE/MIRAGE.

    An embedded circuit is the result: it is built here, in one step.
    """

    name = "vf2"

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled

    def should_run(self, state: PipelineState) -> bool:
        return self.enabled

    def run(self, state: PipelineState) -> None:
        coupling: CouplingMap = state.properties.require("coupling_map")
        embedding = vf2_layout(state.circuit, coupling)
        if embedding is None:
            return
        state.circuit = apply_layout(
            state.circuit, embedding, coupling.num_qubits
        )
        state.properties.update(
            method="vf2",
            initial_layout=embedding,
            final_layout=embedding.copy(),
            swaps_added=0,
            mirrors_accepted=0,
            mirror_candidates=0,
            selection_metric="none",
            trial_index=-1,
            routing_complete=True,
        )


@dataclasses.dataclass(frozen=True)
class TrialPlan:
    """Planned-but-not-yet-run routing trials of one circuit.

    Produced by :class:`PlanTrialsPass` (the front half of the pipeline),
    consumed by :class:`FinishRoutingPass` once the dispatch has
    delivered this circuit's :class:`TrialOutcome`s.
    """

    spec: TrialSpec
    refs: tuple[TrialRef, ...]
    method: str
    selection: str


class PlanTrialsPass(BasePass):
    """Front half of the routing step: plan trials without running them.

    Builds the circuit's :class:`SabreLayout` driver and from it the
    spec/ref pairs of its routing trials, then parks them in the
    property set as a :class:`TrialPlan` so the batch engine can pool
    every circuit's trials into one shared dispatch.  Skipped once VF2
    has found a SWAP-free embedding.

    The op stream is lowered straight to an
    :class:`~repro.transpiler.kernel.IntDAG` (no DAG is built), and the
    parked spec carries that forward lowering only: trial runners derive
    the reverse direction from its arrays (memoised per process), so the
    planning thread never builds it and the dispatch never ships it.
    """

    name = "plan"

    def __init__(
        self,
        *,
        method: str = "mirage",
        selection: str = "depth",
        aggression=None,
        layout_trials: int = 4,
        refinement_rounds: int = 2,
        routing_trials: int = 1,
        seed: int | np.random.SeedSequence | np.random.Generator | None = 11,
    ) -> None:
        self.method = method
        self.selection = selection
        self.aggression = aggression
        self.layout_trials = layout_trials
        self.refinement_rounds = refinement_rounds
        self.routing_trials = routing_trials
        self.seed = seed

    def should_run(self, state: PipelineState) -> bool:
        return not state.properties.get("routing_complete", False)

    def build_driver(self, state: PipelineState) -> SabreLayout:
        """Assemble the :class:`SabreLayout` driver for this circuit."""
        coupling: CouplingMap = state.properties.require("coupling_map")
        coverage: CoverageSet = state.properties.require("coverage")
        basis: str = state.properties.require("basis")

        if self.method == "sabre":
            router_factory = SabreRouterFactory(coupling)
        else:
            schedule = tuple(
                schedule_from_spec(self.layout_trials, self.aggression)
            )
            router_factory = MirageRouterFactory(coupling, coverage, schedule)
        metric = (
            DepthMetric(basis=basis, coverage=coverage)
            if self.selection == "depth"
            else swap_count_metric
        )
        return SabreLayout(
            coupling,
            router_factory,
            layout_trials=self.layout_trials,
            refinement_rounds=self.refinement_rounds,
            routing_trials=self.routing_trials,
            selection_metric=metric,
            metric_name=self.selection,
            seed=self.seed,
        )

    def run(self, state: PipelineState) -> None:
        driver = self.build_driver(state)
        lowered = OpList.of(state.circuit)
        lowering = IntDAG.from_ops(lowered.num_qubits, lowered.ops)
        state.properties["trial_plan"] = TrialPlan(
            spec=driver.trial_spec(lowering, lowered.name),
            refs=tuple(driver.trial_refs()),
            method=self.method,
            selection=self.selection,
        )


class FinishRoutingPass(BasePass):
    """Back half of the batch engine: select among delivered outcomes.

    Expects ``trial_outcomes`` (this circuit's :class:`TrialOutcome` list,
    in trial order) in the property set, picks the lowest score (ties to
    the lowest trial index) with :func:`select_best`, and writes the
    winner into the property set for the ``select`` stage.
    """

    name = "route"

    def should_run(self, state: PipelineState) -> bool:
        return not state.properties.get("routing_complete", False)

    def run(self, state: PipelineState) -> None:
        plan: TrialPlan = state.properties.require("trial_plan")
        outcomes = state.properties.require("trial_outcomes")
        best = select_best(outcomes, plan.selection)
        state.circuit = best.routing.to_circuit()
        state.properties.update(
            method=plan.method,
            routing_ops=best.routing.ops,
            initial_layout=best.routing.initial_layout,
            final_layout=best.routing.final_layout,
            swaps_added=best.routing.swaps_added,
            mirrors_accepted=best.routing.mirrors_accepted,
            mirror_candidates=best.routing.mirror_candidates,
            selection_metric=plan.selection,
            trial_index=best.trial_index,
            trial_scores=best.trial_scores,
            trial_seconds=best.trial_seconds,
            routing_complete=True,
        )


class SelectResultPass(BasePass):
    """Evaluate the routed circuit and assemble the :class:`TranspileResult`.

    ``runtime_seconds`` and ``pipeline_report`` are filled in by the caller
    once the whole pipeline (including this stage) has been timed.
    """

    name = "select"

    def run(self, state: PipelineState) -> None:
        props = state.properties
        basis = props.require("basis")
        coverage = props.require("coverage")
        routed = props.get("routing_ops", state.circuit)
        metrics = evaluate(
            routed,
            basis=basis,
            coverage=coverage,
            mirrors_accepted=props.get("mirrors_accepted", 0),
        )
        props["result"] = TranspileResult(
            circuit=state.circuit,
            metrics=metrics,
            method=props.require("method"),
            basis=basis,
            initial_layout=props.require("initial_layout"),
            final_layout=props.require("final_layout"),
            swaps_added=props.get("swaps_added", 0),
            mirrors_accepted=props.get("mirrors_accepted", 0),
            mirror_candidates=props.get("mirror_candidates", 0),
            runtime_seconds=0.0,
            selection_metric=props.get("selection_metric", "none"),
            trial_index=props.get("trial_index", -1),
            input_metrics=props.get("input_metrics"),
            trial_seconds=props.get("trial_seconds"),
            input_permutation=props.get("input_permutation"),
        )


def validate_flow(method: str, selection: str) -> tuple[str, str]:
    """Normalise and validate the ``method``/``selection`` pair.

    Shared by :func:`build_batch_front_pipeline` and the front doors so
    typos fail fast, before any expensive setup.

    Raises:
        TranspilerError: if ``method`` or ``selection`` is unknown.
    """
    method = method.lower()
    if method not in {"mirage", "sabre"}:
        raise TranspilerError(f"unknown transpilation method {method!r}")
    selection = selection.lower()
    if selection not in {"depth", "swaps"}:
        raise TranspilerError(f"unknown selection metric {selection!r}")
    return method, selection


def validate_budget(
    layout_trials: int, refinement_rounds: int, routing_trials: int
) -> None:
    """Validate the trial budget next to :func:`validate_flow`.

    ``layout_trials`` and ``routing_trials`` must be at least 1 and
    ``refinement_rounds`` at least 0, each a plain ``int`` (``bool`` is
    rejected), so a bad budget fails before any stage or coverage build.

    Raises:
        TranspilerError: if a count has the wrong type or is too small.
    """
    for name, value, least in (
        ("layout_trials", layout_trials, 1),
        ("refinement_rounds", refinement_rounds, 0),
        ("routing_trials", routing_trials, 1),
    ):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TranspilerError(
                f"{name} must be an int, not {type(value).__name__}"
            )
        if value < least:
            raise TranspilerError(f"{name} must be at least {least}, got {value}")


def validate_modes(basis: str, aggression: object) -> None:
    """Validate the basis gate and the aggression spec next to
    :func:`validate_budget`, so a typo fails before any stage or coverage
    build instead of inside them.

    Raises:
        InvalidModeError: from
            :func:`~repro.weyl.catalog.basis_gate_cost` or
            :func:`~repro.core.aggression.schedule_from_spec`.
    """
    basis_gate_cost(basis)
    schedule_from_spec(1, aggression)


def build_prepare_pipeline(*, consolidate: bool = True) -> PassManager:
    """Input cleaning + unrolling + consolidation (paper Section V).

    Stage order: ``clean`` (which lowers the circuit to an
    :class:`OpList`), ``unroll``, ``consolidate``.  The stages pass the
    op list along; :meth:`PassManager.run` builds the prepared circuit
    from it.  No second cleaning is needed: after ``clean`` no directive,
    ``id``, zero-angle rotation or SWAP is left, and ``unroll`` emits
    only ``h``/``cx``/``t``/``tdg``.
    """
    manager = PassManager()
    manager.append(CleanInputPass())
    manager.append(OpListPass("unroll", unroll_ops))
    if consolidate:
        manager.append(OpListPass("consolidate", consolidate_ops))
    return manager


def build_batch_front_pipeline(
    coupling: CouplingMap | str,
    *,
    basis: str = "sqrt_iswap",
    method: str = "mirage",
    selection: str = "depth",
    aggression=None,
    layout_trials: int = 4,
    refinement_rounds: int = 2,
    routing_trials: int = 1,
    coverage: CoverageSet | None = None,
    use_vf2: bool = True,
    consolidate: bool = True,
    seed: int | np.random.SeedSequence | np.random.Generator | None = 11,
) -> PassManager:
    """Front half of the pipeline: everything up to — but excluding —
    trial execution.

    Stage order: ``clean``, ``unroll``, ``consolidate``, ``coupling``,
    ``coverage``, ``analyze``, ``vf2``, ``plan``.  ``vf2``
    marks routing complete when it finds a SWAP-free embedding, in which
    case ``plan`` (and later ``route``) skip themselves; otherwise
    ``plan`` (:class:`PlanTrialsPass`) parks the trial spec/refs in the
    property set.  The batch engine dispatches them and resumes each
    circuit with :func:`build_batch_back_pipeline`.

    Raises:
        TranspilerError: if ``method`` or ``selection`` is unknown, or the
            trial budget, basis or aggression is invalid (see
            :func:`validate_budget` and :func:`validate_modes`).
    """
    method, selection = validate_flow(method, selection)
    validate_budget(layout_trials, refinement_rounds, routing_trials)
    validate_modes(basis, aggression)

    manager = build_prepare_pipeline(consolidate=consolidate)
    manager.append(ResolveCouplingPass(coupling))
    manager.append(AttachCoveragePass(basis, coverage))
    manager.append(AnalyzeInputPass())
    manager.append(VF2EmbeddingPass(use_vf2))
    manager.append(
        PlanTrialsPass(
            method=method,
            selection=selection,
            aggression=aggression,
            layout_trials=layout_trials,
            refinement_rounds=refinement_rounds,
            routing_trials=routing_trials,
            seed=seed,
        )
    )
    return manager


@dataclasses.dataclass(frozen=True)
class PlanSpec:
    """The circuit-invariant half of a batch's planning.

    One :class:`PlanSpec` is shared by every circuit of a batch (and
    :func:`~repro.core.transpile.compare_methods` plans one per
    variant) — it
    carries the pipeline parameters plus the batch's coverage set, from
    which :func:`run_plan` rebuilds the front pipeline
    :func:`build_batch_front_pipeline` describes.
    """

    coupling: "CouplingMap | str"
    basis: str
    method: str
    selection: str
    aggression: object
    layout_trials: int
    refinement_rounds: int
    routing_trials: int
    coverage: CoverageSet
    use_vf2: bool


@dataclasses.dataclass(frozen=True)
class PlanTask:
    """The per-circuit half of a batch's planning.

    ``deadline`` is an optional absolute ``time.monotonic()`` instant:
    the engine never plans a task already past it, and its trial chunks
    carry it into the dispatch session.
    """

    circuit: "QuantumCircuit"
    seed: np.random.SeedSequence
    deadline: float | None = None


@dataclasses.dataclass
class PlanOutcome:
    """Planned pipeline state of one circuit, plus its planning seconds."""

    state: PipelineState
    seconds: float


def run_plan(spec: PlanSpec, task: PlanTask) -> PlanOutcome:
    """Run one circuit's front pipeline on the calling thread.

    Executes ``clean → unroll → consolidate → coupling → coverage →
    analyze → vf2 → plan`` for ``task.circuit`` with the
    batch parameters of ``spec``, seeded with the per-circuit
    ``SeedSequence``, and returns the full planned
    :class:`PipelineState`.  Every front stage is deterministic, so the
    planned state — and the trial plan dispatched from it — is the same
    under every executor.
    """
    start = time.perf_counter()
    front = build_batch_front_pipeline(
        spec.coupling,
        basis=spec.basis,
        method=spec.method,
        selection=spec.selection,
        aggression=spec.aggression,
        layout_trials=spec.layout_trials,
        refinement_rounds=spec.refinement_rounds,
        routing_trials=spec.routing_trials,
        coverage=spec.coverage,
        use_vf2=spec.use_vf2,
        seed=task.seed,
    )
    state = front.execute(task.circuit)
    return PlanOutcome(state=state, seconds=time.perf_counter() - start)


def build_batch_back_pipeline() -> PassManager:
    """Back half of the pipeline: route (selection) + select.

    Resumed (via :meth:`~repro.transpiler.passmanager.PassManager.execute_state`)
    on each front state once the dispatch has placed that circuit's
    ``trial_outcomes`` in its property set.  ``route`` times selection
    only; the trials' own time is the result's ``trial_seconds``.
    """
    manager = PassManager()
    manager.append(FinishRoutingPass())
    manager.append(SelectResultPass())
    return manager
