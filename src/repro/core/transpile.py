"""Top-level transpilation API: one plan → dispatch → select engine.

The paper's experimental flow (Section V: clean → unroll → consolidate →
VF2 → multi-trial SABRE/MIRAGE routing → post-selection) lives in
:mod:`repro.core.pipeline` as named stages on a
:class:`~repro.transpiler.passmanager.PassManager` sharing a
:class:`~repro.transpiler.passmanager.PropertySet`.  Every entry point
below hands a sequence of ``(PlanSpec, PlanTask)`` items to one engine,
:func:`_run_circuit_fanout`: each item's front pipeline is planned on
the calling thread (clean → … → vf2 → plan), its routing trials are
dispatched on the :class:`~repro.transpiler.executors.TrialExecutor`,
and its winner is selected from the delivered outcomes (route →
select).

* :func:`transpile` — one circuit, one item; returns its
  :class:`TranspileResult` (with the per-stage timing report attached as
  ``result.pipeline_report``).
* :func:`transpile_many` — batch front door: one item per circuit,
  sharing one coverage set and one executor, returning a
  :class:`~repro.core.results.BatchResult` with per-circuit results and
  aggregated per-stage timings.
* :func:`compare_methods` — the SABRE vs. MIRAGE comparison behind the
  paper's Figs. 11 and 12: one item per variant.

Routing trials draw from per-trial ``numpy.random.SeedSequence`` streams,
so a fixed seed produces byte-identical circuits whether trials run
serially, on a thread pool or on a process pool.
"""

from __future__ import annotations

import collections
import concurrent.futures
import dataclasses
import os
import time
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import (
    DeadlineExceededError,
    InvalidModeError,
    TranspilerError,
)
from repro.circuits.circuit import QuantumCircuit
from repro.core.pipeline import (
    PlanSpec,
    PlanTask,
    build_batch_back_pipeline,
    build_prepare_pipeline,
    resolve_coverage,
    run_plan,
    validate_budget,
    validate_flow,
    validate_modes,
)
from repro.core.results import BatchResult, TranspileResult
from repro.polytopes.coverage import CoverageSet
from repro.transpiler.executors import TrialExecutor, executor_scope
from repro.transpiler.passes import run_trial, seed_sequence
from repro.transpiler.passmanager import PipelineState
from repro.transpiler.topologies import CouplingMap

#: Lower bound on the batch engine's in-flight circuit window.
MIN_STREAM_WINDOW = 4


def prepare_circuit(
    circuit: QuantumCircuit, *, consolidate: bool = True
) -> QuantumCircuit:
    """Input cleaning + unrolling + consolidation (paper Section V)."""
    return build_prepare_pipeline(consolidate=consolidate).run(circuit)


def transpile(
    circuit: QuantumCircuit,
    coupling: CouplingMap | str,
    *,
    basis: str = "sqrt_iswap",
    method: str = "mirage",
    selection: str = "depth",
    aggression: int | str | Sequence[int] | None = None,
    layout_trials: int = 4,
    refinement_rounds: int = 2,
    routing_trials: int = 1,
    coverage: CoverageSet | None = None,
    use_vf2: bool = True,
    seed: int | np.random.SeedSequence | np.random.Generator | None = 11,
    executor: str | TrialExecutor | None = None,
    max_workers: int | None = None,
) -> TranspileResult:
    """Transpile ``circuit`` onto ``coupling`` for a given basis gate.

    Parameters
    ----------
    circuit : QuantumCircuit
        Input circuit (any mix of 1Q/2Q/3Q gates and directives).
    coupling : CouplingMap or str
        A :class:`CouplingMap` or a topology name (``"line"``,
        ``"square"``, ``"heavy_hex"``, ``"a2a"``, ...).
    basis : str
        Target basis gate; decomposition costs are expressed in its
        pulse units (``sqrt_iswap`` is the paper's main target).
    method : {"mirage", "sabre"}
        Mirror-gate routing, or the stock SABRE baseline.
    selection : {"depth", "swaps"}
        Post-selection metric across routing trials — decomposition-aware
        critical path (MIRAGE's default) or SWAP count (stock SABRE).
    aggression : int, str, sequence of int, or None
        MIRAGE aggression specification — ``None``/``"mixed"`` for the
        paper's 5/45/45/5 distribution, an integer 0-3 for a fixed
        level, or an explicit per-trial sequence.
    layout_trials : int
        Independent random initial layouts.
    refinement_rounds : int
        Forward/backward SABRE refinement rounds.
    routing_trials : int
        Final routings per refined layout.
    coverage : CoverageSet, optional
        Preconstructed coverage set (otherwise the shared set for
        ``basis`` is used — built once per process and persisted under
        ``$MIRAGE_CACHE_DIR`` unless ``MIRAGE_CACHE_DISABLE`` is on; see
        ``docs/configuration.md``).
    use_vf2 : bool
        Look for a SWAP-free embedding before routing.
    seed : int, numpy.random.SeedSequence, numpy.random.Generator, or None
        RNG seed (``None`` for nondeterministic).  Each layout trial
        gets its own spawned ``SeedSequence`` stream, so fixed-seed
        results are byte-identical on every executor and worker count.
        Ints and ``SeedSequence``s are reproducible across calls; a
        ``Generator`` is consumed (one draw of entropy), so reusing it
        gives fresh randomness.
    executor : str, TrialExecutor, or None
        Trial execution strategy — ``None``/``"serial"``, ``"threads"``,
        ``"processes"`` or a :class:`TrialExecutor` instance (borrowed
        instances are left open for reuse).
    max_workers : int, optional
        Worker count for executors created from a string spec.

    Returns
    -------
    TranspileResult
        The routed circuit and its metrics, with ``pipeline_report``
        carrying the per-stage timings (trial time reads as
        ``trial_seconds``) and ``runtime_seconds`` the wall time of the
        call.  Byte-identical to
        ``transpile_many([circuit], ..., circuit_seeds=[seed])[0]``,
        which is how it runs.

    Raises
    ------
    TranspilerError
        If the device is too small, the method is unknown, the trial
        budget is invalid or the seed is malformed (checked before any
        stage runs).
    """
    start = time.perf_counter()
    (result,) = transpile_many(
        [circuit],
        coupling,
        basis=basis,
        method=method,
        selection=selection,
        aggression=aggression,
        layout_trials=layout_trials,
        refinement_rounds=refinement_rounds,
        routing_trials=routing_trials,
        coverage=coverage,
        use_vf2=use_vf2,
        circuit_seeds=[seed],
        executor=executor,
        max_workers=max_workers,
    )
    result.runtime_seconds = time.perf_counter() - start
    return result


def _stream_window(trial_executor: TrialExecutor) -> int:
    """In-flight circuit bound for the batch engine.

    Enough planned-but-unfinished circuits to keep every worker busy
    across circuit boundaries, small enough to bound the memory held by
    parked trial plans (lowerings) and undelivered outcomes.
    """
    workers = (
        getattr(trial_executor, "max_workers", None) or os.cpu_count() or 1
    )
    return max(MIN_STREAM_WINDOW, 2 * workers)


def _dispatch_provenance(
    trial_executor: TrialExecutor,
    stats_before: dict[str, int],
    circuits: int,
    routed: int,
) -> dict:
    """Delta of the executor's dispatch counters over one batch."""
    provenance = {
        key: trial_executor.dispatch_stats[key] - stats_before.get(key, 0)
        for key in trial_executor.dispatch_stats
    }
    provenance["circuits"] = circuits
    provenance["routed"] = routed
    return provenance


def _expired_error(
    deadline: float | None,
    on_error: str,
    trial_executor: TrialExecutor,
) -> DeadlineExceededError | None:
    """The error settling a circuit whose ``deadline`` already passed.

    Checked before the circuit is planned.  Under ``on_error="raise"``
    the error is raised; otherwise it counts one
    ``deadline_expirations`` and is returned for the circuit's slot.
    """
    if deadline is None or time.monotonic() < deadline:
        return None
    error = DeadlineExceededError(
        "request deadline expired before its circuit was planned"
    )
    if on_error == "raise":
        raise error
    trial_executor._count_dispatch(deadline_expirations=1)
    return error


def _finish_batch_state(
    state: PipelineState, front_seconds: float
) -> TranspileResult:
    """Resume a planned circuit through route + select and fill timings."""
    resume_start = time.perf_counter()
    build_batch_back_pipeline().execute_state(state)
    result: TranspileResult = state.properties.require("result")
    result.pipeline_report = [
        dataclasses.asdict(record) for record in state.records
    ]
    result.runtime_seconds = (
        front_seconds
        + (time.perf_counter() - resume_start)
        + (result.trial_seconds or 0.0)
    )
    return result


@dataclasses.dataclass
class _StreamEntry:
    """One planned circuit waiting for its trial outcomes to drain."""

    index: int
    state: PipelineState
    front_seconds: float
    futures: list
    slot: int = -1


def _run_circuit_fanout(
    items: Sequence[tuple[PlanSpec, PlanTask]],
    trial_executor: TrialExecutor,
    *,
    on_error: str = "raise",
) -> tuple[list[TranspileResult | DeadlineExceededError], dict]:
    """Plan, dispatch and select every item in one streaming loop.

    The one route from a circuit to its trials.  The producer plans
    items one at a time on the dispatching thread with :func:`run_plan`
    (clean → … → vf2 → plan) and immediately feeds each item's trial
    refs into one :class:`DispatchSession`; whenever the *oldest*
    in-flight item's futures have all completed it is resumed with the
    back pipeline (route → select) right away, so planning and
    selection of some items overlap the trials of others.  Fixed-seed
    outputs are byte-identical across executors; only the wall-clock
    profile differs.  The in-flight window is bounded
    (:func:`_stream_window`) so arbitrarily long batches hold only a
    constant number of planned trial specs.

    Every caller shares one coverage set across its items; it is the
    session anchor, so a serialising transport ships it once.

    Each task's ``deadline`` (an absolute ``time.monotonic()`` instant
    or ``None``) is checked before planning — an already-expired item
    is never planned or dispatched — and then rides the item's trial
    chunks into the session, where an item expiring mid-flight settles
    with :class:`DeadlineExceededError` without disturbing its
    siblings.  Either way the error is raised or recorded at the item's
    result position depending on ``on_error``.

    ``overlap_seconds`` in the returned provenance sums the planning and
    selection work performed while dispatched trials were still in
    flight; ``plan_seconds`` sums every item's front pipeline.
    """
    stats_before = dict(trial_executor.dispatch_stats)
    window = _stream_window(trial_executor)
    results: list[TranspileResult | DeadlineExceededError | None] = (
        [None] * len(items)
    )
    pending: collections.deque[_StreamEntry] = collections.deque()
    overlap = 0.0
    plan_seconds = 0.0
    routed = 0
    session = trial_executor.open_dispatch(
        run_trial, anchors=(items[0][0].coverage,) if items else ()
    )

    def finish_oldest() -> None:
        """Resume the oldest in-flight circuit (blocks on its futures)."""
        nonlocal overlap
        entry = pending.popleft()
        if entry.futures:
            try:
                # May block until this circuit's chunks complete — idle
                # wait, deliberately excluded from the overlap metric.
                entry.state.properties["trial_outcomes"] = [
                    outcome
                    for future in entry.futures
                    for outcome in future.result()
                ]
            except DeadlineExceededError as error:
                # Only this circuit expired; its remaining chunks settle
                # on their own (same deadline) — wait them out, release
                # the slot, and contain the failure to this position.
                concurrent.futures.wait(entry.futures)
                session.release(entry.slot)
                if on_error == "raise":
                    raise
                results[entry.index] = error
                return
            session.release(entry.slot)
        start = time.perf_counter()
        results[entry.index] = _finish_batch_state(
            entry.state, entry.front_seconds
        )
        if session.outstanding():
            overlap += time.perf_counter() - start

    # Closing drains every in-flight chunk on *every* exit path,
    # including a raised deadline or an interrupt.
    with session:
        for index, (spec, task) in enumerate(items):
            error = _expired_error(task.deadline, on_error, trial_executor)
            if error is not None:
                results[index] = error
                continue
            outcome = run_plan(spec, task)
            plan_seconds += outcome.seconds
            if session.outstanding():
                overlap += outcome.seconds
            entry = _StreamEntry(index, outcome.state, outcome.seconds, [])
            trial_plan = outcome.state.properties.get("trial_plan")
            if trial_plan is not None:
                entry.slot = session.add_payload(trial_plan.spec)
                entry.futures = session.submit(
                    entry.slot,
                    trial_plan.refs,
                    deadline=task.deadline,
                )
                routed += 1
            pending.append(entry)
            # Finish any leading circuits whose trials already drained
            # (non-blocking), then enforce the bounded window (blocking
            # on the oldest circuit only when the producer ran ahead).
            while pending and all(f.done() for f in pending[0].futures):
                finish_oldest()
            while len(pending) > window:
                finish_oldest()
        while pending:
            finish_oldest()
        dispatch = _dispatch_provenance(
            trial_executor, stats_before, circuits=len(items), routed=routed
        )
    dispatch["overlap_seconds"] = round(overlap, 6)
    dispatch["plan_seconds"] = round(plan_seconds, 6)
    return results, dispatch


def transpile_many(
    circuits: Iterable[QuantumCircuit],
    coupling: CouplingMap | str,
    *,
    basis: str = "sqrt_iswap",
    method: str = "mirage",
    selection: str = "depth",
    aggression: int | str | Sequence[int] | None = None,
    layout_trials: int = 4,
    refinement_rounds: int = 2,
    routing_trials: int = 1,
    coverage: CoverageSet | None = None,
    use_vf2: bool = True,
    seed: int | np.random.SeedSequence | np.random.Generator | None = 11,
    circuit_seeds: Sequence[
        int | np.random.SeedSequence | np.random.Generator | None
    ] | None = None,
    executor: str | TrialExecutor | None = None,
    max_workers: int | None = None,
    circuit_deadlines: Sequence[float | None] | None = None,
    on_error: str = "raise",
) -> BatchResult:
    """Transpile a batch of circuits sharing one coverage set and executor.

    The coverage set for ``basis`` is constructed (or taken from
    ``coverage``) once and a single
    :class:`~repro.transpiler.executors.TrialExecutor` — including its
    worker pool, when parallel — is reused across all circuits.  Every
    circuit is *planned* (clean → … → vf2 → ``plan``) and its routing
    trials go through one shared dispatch on the executor, with each
    circuit's winner selected from its delivered outcomes: workers stay
    busy across circuit boundaries, and a process pool pickles the
    coverage set once per batch and each circuit's lowering once,
    instead of once per trial.
    A bounded producer plans circuits and feeds their trial refs into
    the in-flight dispatch while already-drained circuits resume
    (route + select) immediately, so planning, trial execution and
    selection overlap.  Each circuit's *front pipeline* (clean → … →
    vf2 → plan) runs on the dispatching thread; only routing trials are
    shipped to the executor.

    Parameters
    ----------
    circuits : iterable of QuantumCircuit
        The circuits to transpile.
    circuit_seeds : sequence of seeds, optional
        Explicit per-circuit seeds overriding the spawn-by-position tree
        derived from ``seed``.  Must match the batch length; each entry
        accepts everything ``seed`` accepts.  With explicit seeds, batch
        position ``i`` is byte-identical to a bare
        ``transpile(circuits[i], ..., seed=circuit_seeds[i])`` — the
        property the request-coalescing service tier relies on to merge
        independent requests into one batch without changing any
        caller's output.
    coverage : CoverageSet, RegistryHandle, or None
        A prebuilt coverage set, a registry handle (any object exposing
        ``get(basis)``, e.g.
        :meth:`repro.polytopes.registry.CoverageRegistry.bind`) resolved
        once per batch, or ``None`` for the shared process-wide set.
    circuit_deadlines : sequence of float or None, optional
        Per-circuit absolute deadlines as ``time.monotonic()`` instants
        (``None`` entries mean unbounded).  Must match the batch length.
        A circuit already expired when the batch reaches it is never
        planned.  Each circuit's deadline also rides its own trial
        chunks, on every executor: an expired circuit settles with
        :class:`~repro.exceptions.DeadlineExceededError` while sibling
        circuits in the same dispatch complete normally, byte-identical
        to an undeadlined run.  Expired chunks count under the
        executor's ``deadline_expirations`` dispatch counter.
    on_error : {"raise", "return"}
        What to do when a circuit's deadline expires: ``"raise"``
        (default) propagates the first
        :class:`~repro.exceptions.DeadlineExceededError`; ``"return"``
        places the exception object at the circuit's position in
        ``results`` so one late request cannot fail its batch — the
        contract the service tier relies on.  Non-deadline errors
        always raise.
    **others
        Exactly as :func:`transpile`.

    Returns
    -------
    BatchResult
        One :class:`TranspileResult` per circuit (in input order) plus
        aggregate per-stage timings and dispatch provenance.

    Raises
    ------
    InvalidModeError
        If ``on_error`` is not an accepted mode string (also a ``ValueError``; the message names the accepted
        values — unknown strings never fall back to a default).
    TranspilerError
        If ``circuit_seeds`` is given with the wrong length, a seed is
        malformed (negative, a float, a string), the method/selection
        pair is unknown, or the trial budget is invalid.

    Notes
    -----
    *Determinism.*  Per-circuit seeds are spawned from ``seed`` via
    ``numpy.random.SeedSequence`` by batch position, and per-trial streams
    from each circuit seed — the identical spawn tree under every
    executor.  For a fixed circuit list and seed the batch is therefore
    byte-identical across ``executor`` choices; but
    reordering, inserting or removing circuits reseeds the affected
    positions, and a batch of one does not reproduce a bare
    :func:`transpile` call with the same integer seed.  Passing
    ``circuit_seeds`` replaces the spawn tree with caller-chosen roots:
    each position then *does* reproduce the bare call at its seed, and
    reordering or removing other circuits cannot reseed it.

    *Caches.*  The coverage set's memoised cost table stays in the parent
    process; workers rebuild theirs lazily per chunk payload (the table is
    deliberately dropped from pickles — see
    :meth:`~repro.polytopes.coverage.CoverageSet.__getstate__`).
    """
    start = time.perf_counter()
    batch = list(circuits)
    # Fail fast on typos and bad budgets — even for an empty batch, and
    # before paying for the coverage-set build.
    method, selection = validate_flow(method, selection)
    validate_budget(layout_trials, refinement_rounds, routing_trials)
    validate_modes(basis, aggression)
    if circuit_seeds is not None and len(circuit_seeds) != len(batch):
        raise TranspilerError(
            f"circuit_seeds has {len(circuit_seeds)} entries for "
            f"{len(batch)} circuits"
        )
    if on_error not in ("raise", "return"):
        raise InvalidModeError(
            f"unknown on_error mode {on_error!r} — accepted values: "
            f"'raise', 'return'"
        )
    if (
        circuit_deadlines is not None
        and len(circuit_deadlines) != len(batch)
    ):
        raise TranspilerError(
            f"circuit_deadlines has {len(circuit_deadlines)} entries for "
            f"{len(batch)} circuits"
        )
    if circuit_deadlines is None:
        circuit_deadlines = [None] * len(batch)
    if circuit_seeds is not None:
        # Explicit roots: normalising through seed_sequence() is
        # idempotent, so position i matches transpile(seed=seeds[i]).
        roots = [seed_sequence(entry) for entry in circuit_seeds]
    else:
        roots = seed_sequence(seed).spawn(len(batch)) if batch else []
    with executor_scope(executor, max_workers) as trial_executor:
        spec = PlanSpec(
            coupling=coupling,
            basis=basis,
            method=method,
            selection=selection,
            aggression=aggression,
            layout_trials=layout_trials,
            refinement_rounds=refinement_rounds,
            routing_trials=routing_trials,
            coverage=resolve_coverage(coverage, basis),
            use_vf2=use_vf2,
        )
        items = [
            (spec, PlanTask(circuit=circuit, seed=root, deadline=deadline))
            for circuit, root, deadline in zip(
                batch, roots, circuit_deadlines
            )
        ]
        results, dispatch = _run_circuit_fanout(
            items, trial_executor, on_error=on_error
        )
        executor_name = trial_executor.name
    return BatchResult(
        results=results,
        runtime_seconds=time.perf_counter() - start,
        executor=executor_name,
        dispatch=dispatch,
    )


def compare_methods(
    circuit: QuantumCircuit,
    coupling: CouplingMap | str,
    *,
    basis: str = "sqrt_iswap",
    layout_trials: int = 4,
    seed: int | np.random.SeedSequence | np.random.Generator | None = 11,
    selections: Sequence[str] = ("swaps", "depth"),
    coverage: CoverageSet | None = None,
    executor: str | TrialExecutor | None = None,
    max_workers: int | None = None,
) -> dict[str, TranspileResult]:
    """Run the SABRE baseline and MIRAGE variants on the same circuit.

    Each variant is one item of the batch engine, so one trial executor
    (and its worker pool, when parallel) and one dispatch carry all of
    them: the coverage set ships once as the session anchor and every
    variant's trials are dispatched as soon as it is planned, so SABRE
    trials overlap MIRAGE trials.  Returns a dict with keys ``"sabre"``
    plus ``"mirage-<selection>"`` for each requested post-selection
    metric — the comparison behind the paper's Figs. 11 and 12.
    Fixed-seed results are byte-identical to running
    ``transpile(..., use_vf2=False)`` per variant.  Every variant is
    validated before the coverage set is resolved.
    """
    variants = [("sabre", "sabre", "swaps")] + [
        (f"mirage-{selection}", "mirage", selection)
        for selection in selections
    ]
    flows = [validate_flow(method, selection) for _, method, selection in variants]
    validate_budget(layout_trials, 2, 1)
    validate_modes(basis, None)
    with executor_scope(executor, max_workers) as trial_executor:
        shared_coverage = resolve_coverage(coverage, basis)
        items = [
            (
                PlanSpec(
                    coupling=coupling,
                    basis=basis,
                    method=method,
                    selection=selection,
                    aggression=None,
                    layout_trials=layout_trials,
                    refinement_rounds=2,
                    routing_trials=1,
                    coverage=shared_coverage,
                    use_vf2=False,
                ),
                PlanTask(circuit=circuit, seed=seed_sequence(seed)),
            )
            for method, selection in flows
        ]
        results, _ = _run_circuit_fanout(items, trial_executor)
    return {key: result for (key, _, _), result in zip(variants, results)}
