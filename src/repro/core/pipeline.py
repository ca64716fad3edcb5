"""The staged MIRAGE transpilation pipeline (paper Section V flow).

:func:`build_mirage_pipeline` assembles the paper's experimental flow —
clean → unroll → consolidate → coupling/coverage analysis → VF2 embedding
→ multi-trial SABRE/MIRAGE routing → post-selection — as named stages on
a :class:`~repro.transpiler.passmanager.PassManager`.  Stages exchange
data through the shared :class:`~repro.transpiler.passmanager.PropertySet`
(``coupling_map``, ``coverage``, ``input_metrics``, layouts, routing
counters, and finally ``result``), so any stage can be replaced, removed
or reordered without touching the others, and every run yields a per-stage
timing report (paper Fig. 13).

:func:`repro.core.transpile.transpile` is a thin wrapper building and
executing this pipeline; :func:`repro.core.transpile.transpile_many`
shares one coverage set and one trial executor across a whole batch.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.exceptions import TranspilerError
from repro.circuits.circuit import QuantumCircuit
from repro.core.aggression import Aggression, schedule_from_spec
from repro.core.mirage_pass import MirageSwap
from repro.core.results import TranspileResult
from repro.polytopes.coverage import CoverageSet, get_coverage_set
from repro.transpiler.executors import TrialExecutor
from repro.transpiler.layout import apply_layout, vf2_layout
from repro.transpiler.metrics import evaluate
from repro.transpiler.passes.cleanup import clean_input_permuted
from repro.transpiler.passes.consolidate import consolidate_blocks
from repro.transpiler.passes.sabre_layout import (
    DepthMetric,
    LayoutResult,
    SabreLayout,
    SabreRouterFactory,
    TrialRef,
    TrialSpec,
    select_best,
    swap_count_metric,
)
from repro.transpiler.passes.sabre_swap import SabreSwap
from repro.transpiler.passes.unroll import unroll_to_two_qubit
from repro.transpiler.passmanager import (
    BasePass,
    FunctionPass,
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
    """Input cleaning that records the permutation of its SWAP elision.

    Composes the permutation onto any ``input_permutation`` an earlier
    cleaning stage left in the property set, so after ``clean`` and
    ``reclean`` the output of the *original* circuit on qubit ``q`` is the
    output of ``state.circuit`` on qubit ``input_permutation[q]``.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def run(self, state: PipelineState) -> None:
        state.circuit, permutation = clean_input_permuted(state.circuit)
        previous = state.properties.get("input_permutation")
        if previous is not None:
            permutation = [permutation[wire] for wire in previous]
        state.properties["input_permutation"] = permutation


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
            state.circuit,
            basis=state.properties.require("basis"),
            coverage=state.properties.require("coverage"),
        )


class VF2EmbeddingPass(BasePass):
    """Search for a SWAP-free embedding before invoking SABRE/MIRAGE."""

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

    Produced by :class:`PlanTrialsPass` (the front half of the batch
    engine), consumed by :class:`FinishRoutingPass` once the pooled
    dispatch has delivered this circuit's :class:`TrialOutcome`s.
    """

    spec: TrialSpec
    refs: tuple[TrialRef, ...]
    method: str
    selection: str


class RoutingPass(BasePass):
    """Multi-trial SABRE/MIRAGE routing with pluggable trial execution."""

    name = "route"

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
        executor: str | TrialExecutor | None = None,
        max_workers: int | None = None,
    ) -> None:
        self.method = method
        self.selection = selection
        self.aggression = aggression
        self.layout_trials = layout_trials
        self.refinement_rounds = refinement_rounds
        self.routing_trials = routing_trials
        self.seed = seed
        self.executor = executor
        self.max_workers = max_workers

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
            executor=self.executor,
            max_workers=self.max_workers,
        )

    def run(self, state: PipelineState) -> None:
        driver = self.build_driver(state)
        best = driver.run(state.circuit.to_dag())
        publish_routing(state, best, self.method, self.selection)


def publish_routing(
    state: PipelineState,
    best: LayoutResult,
    method: str,
    selection: str,
) -> None:
    """Write a winning :class:`LayoutResult` into the property set.

    Shared between the in-line :class:`RoutingPass` and the batch engine's
    :class:`FinishRoutingPass`, so both fan-out modes leave byte-identical
    state behind for the ``select`` stage.
    """
    state.circuit = best.routing.to_circuit()
    state.properties.update(
        method=method,
        routing_ops=best.routing.ops,
        initial_layout=best.routing.initial_layout,
        final_layout=best.routing.final_layout,
        swaps_added=best.routing.swaps_added,
        mirrors_accepted=best.routing.mirrors_accepted,
        mirror_candidates=best.routing.mirror_candidates,
        selection_metric=selection,
        trial_index=best.trial_index,
        trial_scores=best.trial_scores,
        trial_seconds=best.trial_seconds,
        routing_complete=True,
    )


class PlanTrialsPass(RoutingPass):
    """Front half of the batch engine: plan trials without running them.

    Builds exactly the driver — and from it exactly the spec/ref pairs —
    that :class:`RoutingPass` would have dispatched, then parks them in
    the property set as a :class:`TrialPlan` so the batch scheduler can
    pool every circuit's trials into one shared dispatch.

    The parked spec carries the forward lowering only: trial runners
    derive the reverse direction from its arrays (memoised per process),
    so the planning thread never builds it and the dispatch never ships
    it.
    """

    name = "plan"

    def run(self, state: PipelineState) -> None:
        driver = self.build_driver(state)
        state.properties["trial_plan"] = TrialPlan(
            spec=driver.trial_spec(state.circuit.to_dag()),
            refs=tuple(driver.trial_refs()),
            method=self.method,
            selection=self.selection,
        )


class FinishRoutingPass(BasePass):
    """Back half of the batch engine: select among delivered outcomes.

    Expects ``trial_outcomes`` (this circuit's :class:`TrialOutcome` list,
    in trial order) in the property set, applies the same
    lowest-score/lowest-index selection as :class:`RoutingPass`, and
    publishes the identical property keys.
    """

    name = "route"

    def should_run(self, state: PipelineState) -> bool:
        return not state.properties.get("routing_complete", False)

    def run(self, state: PipelineState) -> None:
        plan: TrialPlan = state.properties.require("trial_plan")
        outcomes = state.properties.require("trial_outcomes")
        best = select_best(outcomes, plan.selection)
        publish_routing(state, best, plan.method, plan.selection)


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

    Shared by :func:`build_mirage_pipeline` and the batch front door so
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
    """Input cleaning + unrolling + consolidation (paper Section V)."""
    manager = PassManager()
    manager.append(CleanInputPass("clean"))
    manager.append(FunctionPass("unroll", unroll_to_two_qubit))
    manager.append(CleanInputPass("reclean"))
    if consolidate:
        manager.append(FunctionPass("consolidate", consolidate_blocks))
    return manager


def build_mirage_pipeline(
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
    executor: str | TrialExecutor | None = None,
    max_workers: int | None = None,
) -> PassManager:
    """Assemble the full staged transpilation pipeline.

    Stage order: ``clean``, ``unroll``, ``reclean``, ``consolidate``,
    ``coupling``, ``coverage``, ``analyze``, ``vf2``, ``route``,
    ``select``.  ``vf2`` marks routing complete when it finds a SWAP-free
    embedding, in which case ``route`` skips itself; the final ``select``
    stage leaves the :class:`TranspileResult` in the property set under
    ``"result"``.

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
        RoutingPass(
            method=method,
            selection=selection,
            aggression=aggression,
            layout_trials=layout_trials,
            refinement_rounds=refinement_rounds,
            routing_trials=routing_trials,
            seed=seed,
            executor=executor,
            max_workers=max_workers,
        )
    )
    manager.append(SelectResultPass())
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
    """Front half of the circuit-level batch engine: everything up to —
    but excluding — trial execution.

    Identical to :func:`build_mirage_pipeline` through the ``vf2`` stage,
    then a ``plan`` stage (:class:`PlanTrialsPass`) that parks the trial
    spec/refs in the property set instead of dispatching them.  The batch
    scheduler pools the plans of every circuit into one shared dispatch
    and resumes each circuit with :func:`build_batch_back_pipeline`.

    The trial spec/refs a plan carries are exactly the ones the in-line
    ``route`` stage would have dispatched for the same arguments, which is
    what makes the two fan-out modes byte-identical.
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

    One :class:`PlanSpec` is shared by every circuit of a batch — it
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
    """The per-circuit half of a batch's planning."""

    circuit: "QuantumCircuit"
    seed: np.random.SeedSequence


@dataclasses.dataclass
class PlanOutcome:
    """Planned pipeline state of one circuit, plus its planning seconds."""

    state: PipelineState
    seconds: float


def run_plan(spec: PlanSpec, task: PlanTask) -> PlanOutcome:
    """Run one circuit's front pipeline on the calling thread.

    Executes ``clean → unroll → reclean → consolidate → coupling →
    coverage → analyze → vf2 → plan`` for ``task.circuit`` with the
    batch parameters of ``spec``, seeded with the per-circuit
    ``SeedSequence``, and returns the full planned
    :class:`PipelineState`.  Every front stage is deterministic, so the
    planned state — and the trial plan dispatched from it — is the same
    under every scheduler and executor.
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
    """Back half of the circuit-level batch engine: route + select.

    Resumed (via :meth:`~repro.transpiler.passmanager.PassManager.execute_state`)
    on each front state once the pooled dispatch has placed that circuit's
    ``trial_outcomes`` in its property set.  The ``route`` stage here and
    the in-line ``route`` stage of :func:`build_mirage_pipeline` publish
    identical properties, so ``select`` cannot tell the modes apart.
    """
    manager = PassManager()
    manager.append(FinishRoutingPass())
    manager.append(SelectResultPass())
    return manager
