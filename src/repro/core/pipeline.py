"""The MIRAGE transpilation flow (paper Section V) as two plain functions.

The paper's experimental flow — clean → unroll → consolidate →
coupling/coverage analysis → VF2 embedding → multi-trial SABRE/MIRAGE
routing → post-selection — is fixed, so it runs inline in two halves:
:func:`run_plan` takes one circuit up to its routing trials and returns
a :class:`PlannedCircuit` (``plan`` parks the trials as a
:class:`TrialPlan`), the executor runs the trials, and
:func:`finish_plan` selects the winner (``route``) and assembles the
:class:`~repro.core.results.TranspileResult` (``select``).  Each stage
appends one timing row to the result's ``pipeline_report`` (paper
Fig. 13), skipped stages included.

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
from typing import Sequence

import numpy as np

from repro.exceptions import TranspilerError
from repro.circuits.circuit import OpList, QuantumCircuit
from repro.core.aggression import schedule_from_spec
from repro.core.results import TranspileResult
from repro.polytopes.coverage import CoverageSet, get_coverage_set
from repro.transpiler.layout import Layout, apply_layout, vf2_layout
from repro.transpiler.metrics import CircuitMetrics, evaluate
from repro.transpiler.kernel import IntDAG
from repro.transpiler.passes.cleanup import clean_ops
from repro.transpiler.passes.consolidate import consolidate_ops
from repro.transpiler.passes.sabre_layout import (
    SabreLayout,
    TrialOutcome,
    TrialRef,
    select_best,
    trial_refs,
)
from repro.transpiler.passes.unroll import unroll_ops
from repro.transpiler.topologies import CouplingMap, topology_by_name
from repro.weyl.catalog import basis_gate_cost


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


@dataclasses.dataclass(frozen=True)
class TrialPlan:
    """Planned-but-not-yet-run routing trials of one circuit.

    Produced by the ``plan`` stage of :func:`run_plan`, consumed by
    :func:`finish_plan` once the dispatch has delivered this circuit's
    :class:`TrialOutcome`s.  The spec carries the op stream's forward
    :class:`~repro.transpiler.kernel.IntDAG` lowering only: trial
    runners derive the reverse direction from its arrays (memoised per
    process), so the planning thread never builds it and the dispatch
    never ships it.
    """

    spec: SabreLayout
    refs: tuple[TrialRef, ...]
    method: str


def validate_flow(method: str, selection: str) -> tuple[str, str]:
    """Normalise and validate the ``method``/``selection`` pair.

    Called by every front door so typos fail fast, before any
    expensive setup.

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


@dataclasses.dataclass(frozen=True)
class PlanSpec:
    """The circuit-invariant half of a batch's planning.

    One :class:`PlanSpec` is shared by every circuit of a batch (and
    :func:`~repro.core.transpile.compare_methods` plans one per
    variant) — it
    carries the flow parameters plus the batch's coverage set.  The
    front doors validate them (:func:`validate_flow`,
    :func:`validate_budget`, :func:`validate_modes`) before building it.
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


def _stage_row(
    report: list[dict],
    name: str,
    gates_before: int,
    gates_after: int,
    started: float | None = None,
) -> None:
    """Append one ``pipeline_report`` row for stage ``name``.

    ``started`` is the stage's ``time.perf_counter()`` start; ``None``
    records the stage as skipped (0 seconds, gate count unchanged).
    """
    report.append({
        "name": name,
        "seconds": 0.0 if started is None else time.perf_counter() - started,
        "gates_before": gates_before,
        "gates_after": gates_after,
        "skipped": started is None,
    })


def prepare_ops(
    circuit: QuantumCircuit | OpList,
    *,
    consolidate: bool = True,
    report: list[dict] | None = None,
) -> tuple[OpList, list[int]]:
    """Input cleaning + unrolling + consolidation (paper Section V).

    Stage order: ``clean`` (which lowers the circuit to an
    :class:`OpList` and elides input SWAPs in the same walk),
    ``unroll``, ``consolidate``.  No second cleaning is needed: after
    ``clean`` no directive, ``id``, zero-angle rotation or SWAP is left,
    and ``unroll`` emits only ``h``/``cx``/``t``/``tdg``.

    Returns the prepared op list and the permutation of the SWAP
    elision: the output of ``circuit`` on qubit ``q`` is the output of
    the op list on qubit ``permutation[q]``.  Each stage appends its
    timing row to ``report`` when one is given.
    """
    rows: list[dict] = [] if report is None else report
    started = time.perf_counter()
    lowered = OpList.of(circuit)
    ops, permutation = clean_ops(lowered.ops, lowered.num_qubits)
    _stage_row(rows, "clean", len(circuit), len(ops), started)
    stages = [("unroll", unroll_ops)]
    if consolidate:
        stages.append(("consolidate", consolidate_ops))
    for name, rewrite in stages:
        started, before = time.perf_counter(), len(ops)
        ops = rewrite(ops)
        _stage_row(rows, name, before, len(ops), started)
    return OpList(lowered.num_qubits, lowered.name, ops), permutation


@dataclasses.dataclass(frozen=True)
class PlannedCircuit:
    """One circuit planned up to its routing trials, as :func:`run_plan`
    leaves it for :func:`finish_plan`.

    Attributes
    ----------
    circuit : OpList or QuantumCircuit
        The prepared op list, or the embedded circuit when VF2 found a
        SWAP-free embedding.
    input_permutation : list of int
        The permutation of the ``clean`` stage's SWAP elision.
    basis, coupling, coverage
        The basis gate, the resolved device and its coverage set.
    input_metrics : CircuitMetrics
        Metrics of the prepared input (the ``analyze`` stage).
    embedding : Layout or None
        The VF2 embedding; exactly one of ``embedding`` and
        ``trial_plan`` is set.
    trial_plan : TrialPlan or None
        The parked routing trials (the ``plan`` stage).
    report : list of dict
        One ``pipeline_report`` row per front stage, in order.
    seconds : float
        Wall time of :func:`run_plan`.
    """

    circuit: OpList | QuantumCircuit
    input_permutation: list[int]
    basis: str
    coupling: CouplingMap
    coverage: CoverageSet
    input_metrics: CircuitMetrics
    embedding: Layout | None
    trial_plan: TrialPlan | None
    report: list[dict]
    seconds: float


def _plan_trials(
    spec: PlanSpec,
    seed: np.random.SeedSequence,
    ops: OpList,
    coupling: CouplingMap,
    coverage: CoverageSet,
) -> TrialPlan:
    """The ``plan`` stage: lower the op list straight to an
    :class:`IntDAG` and park the :class:`SabreLayout` record and the
    trial refs."""
    schedule = None
    if spec.method == "mirage":
        schedule = tuple(
            int(level)
            for level in schedule_from_spec(spec.layout_trials, spec.aggression)
        )
    record = SabreLayout(
        intdag=IntDAG.from_ops(ops.num_qubits, ops.ops),
        coupling=coupling,
        coverage=coverage,
        schedule=schedule,
        selection=spec.selection,
        refinement_rounds=spec.refinement_rounds,
        routing_trials=spec.routing_trials,
        name=ops.name,
    )
    return TrialPlan(
        spec=record,
        refs=tuple(trial_refs(seed, spec.layout_trials)),
        method=spec.method,
    )


def run_plan(spec: PlanSpec, task: PlanTask) -> PlannedCircuit:
    """Run one circuit's front stages on the calling thread.

    Executes ``clean → unroll → consolidate → coupling → coverage →
    analyze → vf2 → plan`` for ``task.circuit`` with the batch
    parameters of ``spec``, seeded with the per-circuit
    ``SeedSequence``, and returns the :class:`PlannedCircuit`.  ``vf2``
    is recorded as skipped when ``spec.use_vf2`` is off, and ``plan``
    when ``vf2`` found a SWAP-free embedding.  Every stage is
    deterministic, so the planned circuit — and the trial plan
    dispatched from it — is the same under every executor.

    Raises:
        TranspilerError: if the circuit needs more qubits than the
            device has (the ``coupling`` stage).
    """
    start = time.perf_counter()
    report: list[dict] = []
    ops, permutation = prepare_ops(task.circuit, report=report)
    gates = len(ops)

    started = time.perf_counter()
    coupling = spec.coupling
    if not isinstance(coupling, CouplingMap):
        coupling = topology_by_name(coupling, ops.num_qubits)
    if ops.num_qubits > coupling.num_qubits:
        raise TranspilerError(
            f"circuit needs {ops.num_qubits} qubits but the "
            f"device has {coupling.num_qubits}"
        )
    _stage_row(report, "coupling", gates, gates, started)

    started = time.perf_counter()
    coverage = resolve_coverage(spec.coverage, spec.basis)
    _stage_row(report, "coverage", gates, gates, started)

    started = time.perf_counter()
    input_metrics = evaluate(ops.ops, basis=spec.basis, coverage=coverage)
    _stage_row(report, "analyze", gates, gates, started)

    circuit: OpList | QuantumCircuit = ops
    embedding = None
    if spec.use_vf2:
        started = time.perf_counter()
        embedding = vf2_layout(ops, coupling)
        if embedding is not None:
            circuit = apply_layout(ops, embedding, coupling.num_qubits)
        _stage_row(report, "vf2", gates, len(circuit), started)
    else:
        _stage_row(report, "vf2", gates, gates)

    trial_plan = None
    if embedding is None:
        started = time.perf_counter()
        trial_plan = _plan_trials(spec, task.seed, ops, coupling, coverage)
        _stage_row(report, "plan", gates, gates, started)
    else:
        _stage_row(report, "plan", len(circuit), len(circuit))

    return PlannedCircuit(
        circuit=circuit,
        input_permutation=permutation,
        basis=spec.basis,
        coupling=coupling,
        coverage=coverage,
        input_metrics=input_metrics,
        embedding=embedding,
        trial_plan=trial_plan,
        report=report,
        seconds=time.perf_counter() - start,
    )


def finish_plan(
    planned: PlannedCircuit, outcomes: Sequence[TrialOutcome]
) -> TranspileResult:
    """Select the winning trial (``route``) and assemble the result
    (``select``).

    ``outcomes`` are the circuit's delivered :class:`TrialOutcome`s in
    trial order (empty for an embedded circuit, whose ``route`` is
    recorded as skipped).  :func:`select_best` picks the lowest score,
    ties to the lowest trial index.  ``route`` times selection only;
    the trials' own summed time is the result's ``trial_seconds``, and
    ``runtime_seconds`` is planning + trials + this call.

    Returns:
        The :class:`TranspileResult`, with ``pipeline_report`` holding
        every stage's row from ``clean`` to ``select``.
    """
    start = time.perf_counter()
    report = list(planned.report)
    gates = len(planned.circuit)
    plan = planned.trial_plan
    if plan is None:
        _stage_row(report, "route", gates, gates)
        circuit = routed = planned.circuit
        mirrors = 0
        fields = dict(
            method="vf2",
            initial_layout=planned.embedding,
            final_layout=planned.embedding.copy(),
            swaps_added=0,
            mirror_candidates=0,
            selection_metric="none",
            trial_index=-1,
            trial_seconds=None,
        )
    else:
        started = time.perf_counter()
        best = select_best(outcomes)
        routing = best.routing
        circuit = routing.to_circuit()
        routed = routing.ops
        mirrors = routing.mirrors_accepted
        fields = dict(
            method=plan.method,
            initial_layout=routing.initial_layout,
            final_layout=routing.final_layout,
            swaps_added=routing.swaps_added,
            mirror_candidates=routing.mirror_candidates,
            selection_metric=plan.spec.selection,
            trial_index=best.trial_index,
            trial_seconds=sum(outcome.seconds for outcome in outcomes),
        )
        _stage_row(report, "route", gates, len(circuit), started)

    started = time.perf_counter()
    metrics = evaluate(
        routed,
        basis=planned.basis,
        coverage=planned.coverage,
        mirrors_accepted=mirrors,
    )
    result = TranspileResult(
        circuit=circuit,
        metrics=metrics,
        basis=planned.basis,
        mirrors_accepted=mirrors,
        runtime_seconds=0.0,
        input_metrics=planned.input_metrics,
        input_permutation=planned.input_permutation,
        **fields,
    )
    _stage_row(report, "select", len(circuit), len(circuit), started)
    result.pipeline_report = report
    result.runtime_seconds = (
        planned.seconds
        + (time.perf_counter() - start)
        + (result.trial_seconds or 0.0)
    )
    return result
