"""Transpilation-as-a-service: the asyncio front-end over the batch engine.

:class:`MirageService` turns the one-shot batch API into a long-lived
request-serving tier:

* **Admission windows** — requests arriving within a configurable window
  (the ``window_ms`` argument) that share a batch-compatibility key
  (topology, basis, method, selection and the trial knobs) are
  coalesced into **one**
  :func:`~repro.core.transpile.transpile_many` dispatch — the coverage
  set is pickled once as the session anchor and
  every request's trials share one worker-pool conversation.
* **Byte-identity** — each request carries its own seed into the batch
  through ``circuit_seeds``, so the result returned to a caller is
  byte-identical to a direct ``transpile(circuit, ..., seed=seed)``
  call: coalescing is invisible in every output bit.
* **Admission control** — a service-wide pending cap
  (``max_pending``) and a per-tenant quota (``tenant_quota``) shed
  excess submissions with a typed
  :class:`~repro.exceptions.ServiceOverloadError` carrying a
  ``retry_after_ms`` hint, before any window slot or executor work is
  consumed.  Sealed windows interleave tenants round-robin so one hot
  tenant cannot starve the others of dispatch slots.
* **Deadline propagation** — ``submit(..., deadline_ms=...)`` stamps an
  absolute deadline that flows through the window into per-chunk
  dispatch records; an expiring request resolves with a typed
  :class:`~repro.exceptions.DeadlineExceededError` (a loop-side safety
  timer guarantees *never a hang*) while sibling requests in the same
  window complete normally and byte-identically.
* **Circuit breaker** — repeated recovery events (pool respawns,
  executor/transport downgrades) within a sliding window trip a
  breaker that routes subsequent windows to in-process degraded serial
  execution — still byte-identical by the digest guarantee — then
  half-opens with a probe window after a cooldown.
* **Warm pools** — the service owns (or borrows) one
  :class:`~repro.transpiler.executors.TrialExecutor` for its lifetime
  and pre-spawns its workers, so no request pays pool-spawn latency;
  each window dispatch holds an executor lease, making a shutdown
  racing an in-flight batch fail loudly instead of killing workers
  under it.
* **Coverage registry** — coverage lookups route through a
  :class:`~repro.polytopes.registry.CoverageRegistry` (in-memory L1 with
  single-flight builds over the ``$MIRAGE_CACHE_DIR`` disk L2), so N
  concurrent cold requests trigger exactly one build and one pickle.
* **Graceful drain** — :meth:`MirageService.aclose` stops admissions
  (further submissions raise
  :class:`~repro.exceptions.ServiceClosedError`), seals open windows,
  waits for in-flight dispatches under a cap (``drain_s``) and only
  then tears the executor down — zero leaked workers.
* **Provenance** — :meth:`MirageService.stats` exposes request/tenant
  counts, shed/deadline/breaker counters, per-window queue waits and
  the dispatch counters inherited from
  :attr:`~repro.core.results.BatchResult.dispatch`, suitable for
  dashboards.

The service inherits the PR-7 fault-tolerance contract wholesale: a
worker killed or hung mid-window is respawned and only its lost chunks
replayed, so the affected requests still resolve with byte-identical
results and ``aclose()`` still leaves zero live workers.  The deterministic fault plan
(``MIRAGE_FAULT_PLAN``) extends to the service tier with
``shed:request:<ordinal>`` (shed the Nth submission) and
``trip_breaker:window:<ordinal>`` (treat the Nth dispatched window as a
threshold worth of failures); a malformed plan fails fast at service
construction with the accepted grammar named.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import itertools
import threading
import time
from typing import Sequence

import numpy as np

from repro.config import MirageConfig
from repro.exceptions import (
    DeadlineExceededError,
    ServiceClosedError,
    ServiceOverloadError,
)
from repro.circuits.circuit import QuantumCircuit
from repro.core.results import BatchResult, TranspileResult
from repro.core.transpile import transpile_many
from repro.polytopes.registry import CoverageRegistry
from repro.transpiler.executors import (
    SerialExecutor,
    TrialExecutor,
    owns_executor,
    resolve_executor,
)
from repro.transpiler.faults import parse_fault_plan
from repro.transpiler.topologies import CouplingMap

#: Most recent entries kept in the per-window log and in the breaker's
#: transition trail.  Older entries are dropped; the counters in
#: :meth:`MirageService.stats` keep counting every window.
LOG_LIMIT = 1024


def _topology_key(topology: "CouplingMap | str") -> object:
    """Hashable batch-compatibility key component for a topology.

    Coupling maps with identical edge sets are interchangeable (the
    geometry, not the instance, determines routing), so they coalesce
    into the same window.
    """
    if isinstance(topology, CouplingMap):
        return ("coupling", topology.num_qubits, tuple(topology.edges))
    return ("name", topology)


def _aggression_key(aggression: object) -> object:
    """Hashable key component for an aggression specification."""
    if isinstance(aggression, (list, tuple)):
        return tuple(aggression)
    return aggression


def _interleave_tenants(
    requests: "list[_PendingRequest]",
) -> "list[_PendingRequest]":
    """Deterministic round-robin interleave of a window's requests.

    Tenants cycle in order of first appearance and each tenant's own
    requests stay FIFO, so a tenant that stuffed a window cannot push
    other tenants' requests to the back of the dispatch order.  Because
    every request carries its own seed through ``circuit_seeds``, the
    reorder never changes an output bit — only the position (and hence
    the streaming completion order) inside the batch.
    """
    queues: "collections.OrderedDict[str, collections.deque]" = (
        collections.OrderedDict()
    )
    for request in requests:
        queues.setdefault(request.tenant, collections.deque()).append(request)
    order: list[_PendingRequest] = []
    while queues:
        for tenant in list(queues):
            order.append(queues[tenant].popleft())
            if not queues[tenant]:
                del queues[tenant]
    return order


@dataclasses.dataclass(frozen=True)
class _WindowKey:
    """Batch-compatibility key: requests sharing it can ride one batch."""

    topology: object
    basis: str
    method: str
    selection: str
    aggression: object
    layout_trials: int
    refinement_rounds: int
    routing_trials: int
    use_vf2: bool


@dataclasses.dataclass
class _PendingRequest:
    """One submitted request waiting for its window to dispatch."""

    circuit: QuantumCircuit
    seed: object
    tenant: str
    future: asyncio.Future
    enqueued: float
    deadline: float | None = None
    timer: asyncio.TimerHandle | None = None


@dataclasses.dataclass
class _Window:
    """An open admission window accumulating compatible requests."""

    id: int
    key: _WindowKey
    topology: "CouplingMap | str"
    requests: list[_PendingRequest]
    opened: float
    handle: asyncio.TimerHandle | None = None
    sealed: bool = False
    degraded: bool = False
    probe: bool = False


class _CircuitBreaker:
    """Sliding-window circuit breaker over per-window recovery events.

    Counts recovery events (pool respawns, executor downgrades,
    transport downgrades) reported by each dispatched window's
    :attr:`~repro.core.results.BatchResult.dispatch` counters.  When
    ``threshold`` events accumulate within ``window_s`` seconds the
    breaker **opens**: subsequent windows are routed to in-process
    degraded serial execution (byte-identical outputs — only the
    latency profile changes).  After ``cooldown_s`` seconds open, the
    breaker **half-opens**: the next window runs on the primary
    executor as a probe; a clean probe closes the breaker, a dirty one
    re-opens it.  The last :data:`LOG_LIMIT` transitions are kept for
    :meth:`stats`.
    """

    def __init__(
        self, threshold: int, window_s: float, cooldown_s: float, t0: float
    ) -> None:
        self.threshold = threshold
        self.window_s = window_s
        self.cooldown_s = cooldown_s
        self.state = "closed"
        self.trips = 0
        self.opened_at: float | None = None
        self.transitions: collections.deque[dict] = collections.deque(
            maxlen=LOG_LIMIT
        )
        self._events: collections.deque[float] = collections.deque()
        self._t0 = t0

    def _shift(self, to: str, now: float, window: int, reason: str) -> None:
        self.transitions.append(
            {
                "from": self.state,
                "to": to,
                "window": window,
                "reason": reason,
                "at_s": round(now - self._t0, 3),
            }
        )
        self.state = to

    def _prune(self, now: float) -> None:
        while self._events and now - self._events[0] > self.window_s:
            self._events.popleft()

    def route(self, now: float, window: int) -> str:
        """Routing decision for the next window.

        Returns ``"primary"`` (breaker closed), ``"degraded"`` (open,
        cooldown still running) or ``"probe"`` (half-open — run on the
        primary executor and judge the outcome).
        """
        if self.state == "open":
            if self.opened_at is not None and (
                now - self.opened_at >= self.cooldown_s
            ):
                self._shift("half_open", now, window, "cooldown elapsed")
            else:
                return "degraded"
        if self.state == "half_open":
            return "probe"
        return "primary"

    def record(
        self, failures: int, now: float, window: int, injected: bool
    ) -> None:
        """Fold one primary-executor window's recovery events in."""
        reason = "injected trip" if injected else "recovery events"
        if self.state == "half_open":
            self._events.clear()
            if failures:
                self.trips += 1
                self.opened_at = now
                self._shift("open", now, window, f"probe failed: {reason}")
            else:
                self._shift("closed", now, window, "probe succeeded")
            return
        if self.state != "closed":
            return
        self._events.extend([now] * failures)
        self._prune(now)
        if len(self._events) >= self.threshold:
            self.trips += 1
            self.opened_at = now
            self._events.clear()
            self._shift("open", now, window, reason)

    def stats(self) -> dict:
        """Snapshot: state, trip count, thresholds and transitions."""
        return {
            "state": self.state,
            "trips": self.trips,
            "threshold": self.threshold,
            "window_s": self.window_s,
            "cooldown_s": self.cooldown_s,
            "recent_failures": len(self._events),
            "transitions": [dict(t) for t in self.transitions],
        }


class ServiceClient:
    """In-process client bound to one tenant of a :class:`MirageService`.

    The thinnest possible client: :meth:`transpile` forwards to
    :meth:`MirageService.submit` with the bound tenant attached, so test
    harnesses (and in-process embedders) talk to the service exactly the
    way a network front-end would — submit, await, inspect.
    """

    def __init__(self, service: "MirageService", tenant: str) -> None:
        self._service = service
        self.tenant = tenant

    async def transpile(
        self,
        circuit: QuantumCircuit,
        topology: "CouplingMap | str",
        **kwargs: object,
    ) -> TranspileResult:
        """Submit one request under this client's tenant and await it."""
        return await self._service.submit(
            circuit, topology, tenant=self.tenant, **kwargs
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ServiceClient(tenant={self.tenant!r})"


class MirageService:
    """Long-lived asyncio transpilation service over the batch engine.

    Parameters
    ----------
    executor : str, TrialExecutor, or None
        Trial executor serving every window — ``"threads"`` (default),
        ``"processes"``, ``"serial"``/``None``, or a borrowed instance
        (left open on :meth:`aclose`; owned executors are closed).
    max_workers : int, optional
        Worker count for executors created from a string spec.
    window_ms : float
        Admission window in milliseconds (default 10).  ``0``
        dispatches every request on the next event-loop tick without
        coalescing.
    registry : CoverageRegistry, optional
        Coverage-set registry shared by every request; a fresh private
        registry by default.  Pass
        :data:`repro.polytopes.registry.DEFAULT_REGISTRY` to share sets
        with direct ``transpile()`` callers in the same process.
    coverage_params : dict, optional
        Build parameters (``num_samples``, ``seed``, ``max_depth``,
        ``mirror``) bound into every registry lookup — one coverage
        configuration per service instance.
    prewarm : bool
        Spawn the executor's full worker complement before the first
        dispatch (on first submit / ``async with`` entry).
    max_pending : int, optional
        Service-wide cap on admitted-but-unresolved requests; excess
        submissions are shed with
        :class:`~repro.exceptions.ServiceOverloadError`.  ``None``
        (default) means unlimited.
    tenant_quota : int, optional
        Per-tenant cap on pending requests; ``None`` (default) means
        unlimited.
    breaker_threshold : int
        Recovery events within the breaker window that open the
        breaker (default 3).
    breaker_window_s : float
        Sliding failure-window width in seconds (default 30).
    breaker_cooldown_s : float
        Open-state cooldown before a half-open probe, in seconds
        (default 5).
    drain_s : float
        :meth:`aclose` drain cap in seconds (default 30).

    Notes
    -----
    All service methods must be called from a running event loop; the
    dispatch work itself runs on worker threads (and the executor's
    pool), so the loop stays responsive while batches execute.  Fixed
    request seeds give byte-identical results to direct
    :func:`~repro.core.transpile.transpile` calls regardless of how
    requests interleave, coalesce, or which executor serves them —
    including windows served by the breaker's degraded serial path.

    The deterministic fault plan (``MIRAGE_FAULT_PLAN``) is parsed
    eagerly at construction, so a malformed plan fails fast here with
    the accepted ``kind:stage:ordinal`` grammar named instead of
    surfacing mid-dispatch.
    """

    def __init__(
        self,
        *,
        executor: "str | TrialExecutor | None" = "threads",
        max_workers: int | None = None,
        window_ms: float = 10.0,
        registry: CoverageRegistry | None = None,
        coverage_params: dict | None = None,
        prewarm: bool = True,
        max_pending: int | None = None,
        tenant_quota: int | None = None,
        breaker_threshold: int = 3,
        breaker_window_s: float = 30.0,
        breaker_cooldown_s: float = 5.0,
        drain_s: float = 30.0,
    ) -> None:
        # Fail fast on a malformed fault plan: a service that would
        # crash mid-window on its first injected fault should refuse to
        # construct instead.
        self._fault_plan = (
            parse_fault_plan(MirageConfig.from_env().fault_plan) or None
        )
        self._executor = resolve_executor(executor, max_workers)
        self._owns_executor = owns_executor(executor)
        self._executor_closed = False
        self._degraded_executor: SerialExecutor | None = None
        self._window_seconds = window_ms / 1000.0
        self.registry = registry if registry is not None else CoverageRegistry()
        self._coverage = self.registry.bind(**(coverage_params or {}))
        self._prewarm = prewarm
        self._warmed = False
        self._closed = False
        self._draining = False
        self._max_pending = max_pending
        self._tenant_quota = tenant_quota
        self._drain_seconds = drain_s
        self._breaker = _CircuitBreaker(
            threshold=breaker_threshold,
            window_s=breaker_window_s,
            cooldown_s=breaker_cooldown_s,
            t0=time.monotonic(),
        )
        self._window_ids = itertools.count()
        self._open_windows: dict[_WindowKey, _Window] = {}
        self._inflight: dict[asyncio.Task, _Window] = {}
        # One window dispatches at a time: the executor's dispatch paths
        # are thread-safe, but serialising windows keeps the per-window
        # dispatch-counter deltas exact (provenance would otherwise mix
        # concurrent windows' counters) and makes breaker decisions
        # race-free.
        self._dispatch_lock = threading.Lock()
        self._requests = 0
        self._completed = 0
        self._failed = 0
        self._pending = 0
        self._tenant_pending: collections.Counter[str] = collections.Counter()
        self._submit_ordinal = 0
        self._window_ordinal = 0
        self._shed_total = 0
        self._shed_reasons: collections.Counter[str] = collections.Counter()
        self._deadline_expirations = 0
        self._degraded_windows = 0
        self._drain_abandoned = 0
        self._tenant_counts: collections.Counter[str] = collections.Counter()
        self._window_log: collections.deque[dict] = collections.deque(
            maxlen=LOG_LIMIT
        )
        self._windows = 0
        self._coalesced_requests = 0

    # -- client surface -----------------------------------------------------

    def client(self, tenant: str = "default") -> ServiceClient:
        """Create an in-process :class:`ServiceClient` for ``tenant``."""
        return ServiceClient(self, tenant)

    async def submit(
        self,
        circuit: QuantumCircuit,
        topology: "CouplingMap | str",
        *,
        basis: str = "sqrt_iswap",
        seed: "int | np.random.SeedSequence | None" = 11,
        tenant: str = "default",
        deadline_ms: float | None = None,
        method: str = "mirage",
        selection: str = "depth",
        aggression: "int | str | Sequence[int] | None" = None,
        layout_trials: int = 4,
        refinement_rounds: int = 2,
        routing_trials: int = 1,
        use_vf2: bool = True,
    ) -> TranspileResult:
        """Submit one transpilation request; await its result.

        Requests submitted within one admission window that share a
        batch-compatibility key (topology geometry, basis, method,
        selection and the trial knobs) are coalesced into a single
        streaming batch dispatch.  The returned
        :class:`~repro.core.results.TranspileResult` is byte-identical
        to ``transpile(circuit, topology, ..., seed=seed)`` — the
        request's seed rides the batch through ``circuit_seeds``, so
        coalescing never changes an output bit.

        ``deadline_ms`` bounds the whole request: once the deadline
        expires the await resolves with
        :class:`~repro.exceptions.DeadlineExceededError` — enforced
        per-chunk inside the dispatch layer *and* by a loop-side safety
        timer, so an expired request can never hang — while sibling
        requests coalesced into the same window complete normally.

        Raises
        ------
        ServiceClosedError
            If the service has been closed or a drain has begun.
        ServiceOverloadError
            If admission control sheds the request — the service-wide
            pending cap or this tenant's quota is exhausted (or a
            ``shed:request:<ordinal>`` fault-plan entry targets it).
            Carries ``retry_after_ms``.
        DeadlineExceededError
            If ``deadline_ms`` expires before the result is ready
            (including a non-positive deadline at submission).
        """
        if self._draining or self._closed:
            raise ServiceClosedError("service is closed")
        retry_after_ms = max(self._window_seconds * 1000.0, 1.0)
        ordinal = self._submit_ordinal
        self._submit_ordinal += 1
        if self._fault_plan is not None and self._fault_plan.service_fault(
            "shed", ordinal
        ):
            self._shed(tenant, "injected")
            raise ServiceOverloadError(
                f"submission #{ordinal} shed by fault plan",
                retry_after_ms=retry_after_ms,
            )
        if self._max_pending is not None and self._pending >= self._max_pending:
            self._shed(tenant, "queue_full")
            raise ServiceOverloadError(
                f"pending queue is full ({self._pending}/{self._max_pending})",
                retry_after_ms=retry_after_ms,
            )
        if (
            self._tenant_quota is not None
            and self._tenant_pending[tenant] >= self._tenant_quota
        ):
            self._shed(tenant, "tenant_quota")
            raise ServiceOverloadError(
                f"tenant {tenant!r} is over quota "
                f"({self._tenant_pending[tenant]}/{self._tenant_quota})",
                retry_after_ms=retry_after_ms,
            )
        deadline: float | None = None
        if deadline_ms is not None:
            if deadline_ms <= 0:
                self._deadline_expirations += 1
                raise DeadlineExceededError(
                    f"deadline of {deadline_ms:g} ms expired at submission"
                )
            deadline = time.monotonic() + deadline_ms / 1000.0
        loop = asyncio.get_running_loop()
        if self._prewarm and not self._warmed:
            self._warmed = True
            await asyncio.to_thread(self._executor.prewarm)
            if self._draining or self._closed:  # closed while warming
                raise ServiceClosedError("service is closed")
        key = _WindowKey(
            topology=_topology_key(topology),
            basis=basis,
            method=method,
            selection=selection,
            aggression=_aggression_key(aggression),
            layout_trials=layout_trials,
            refinement_rounds=refinement_rounds,
            routing_trials=routing_trials,
            use_vf2=use_vf2,
        )
        request = _PendingRequest(
            circuit=circuit,
            seed=seed,
            tenant=tenant,
            future=loop.create_future(),
            enqueued=time.perf_counter(),
            deadline=deadline,
        )
        self._admit(request)
        if deadline is not None:
            request.timer = loop.call_later(
                max(deadline - time.monotonic(), 0.0),
                self._expire_request,
                request,
            )
        window = self._open_windows.get(key)
        if window is None:
            window = _Window(
                id=next(self._window_ids),
                key=key,
                topology=topology,
                requests=[],
                opened=time.perf_counter(),
            )
            self._open_windows[key] = window
            if self._window_seconds > 0:
                window.handle = loop.call_later(
                    self._window_seconds, self._seal, window
                )
            else:
                window.handle = None
                loop.call_soon(self._seal, window)
        window.requests.append(request)
        return await request.future

    # -- admission bookkeeping ----------------------------------------------

    def _shed(self, tenant: str, reason: str) -> None:
        """Count one shed submission (pre-admission, nothing to undo)."""
        self._shed_total += 1
        self._shed_reasons[reason] += 1

    def _admit(self, request: _PendingRequest) -> None:
        """Count an admitted request; arrange release on resolution."""
        self._requests += 1
        self._tenant_counts[request.tenant] += 1
        self._pending += 1
        self._tenant_pending[request.tenant] += 1
        request.future.add_done_callback(
            lambda future, request=request: self._release(request, future)
        )

    def _release(
        self, request: _PendingRequest, future: asyncio.Future
    ) -> None:
        """Done-callback: free the request's admission slot (loop thread)."""
        self._pending -= 1
        self._tenant_pending[request.tenant] -= 1
        if self._tenant_pending[request.tenant] <= 0:
            del self._tenant_pending[request.tenant]
        if request.timer is not None:
            request.timer.cancel()
            request.timer = None
        if not future.cancelled():
            if isinstance(future.exception(), DeadlineExceededError):
                self._deadline_expirations += 1

    def _expire_request(self, request: _PendingRequest) -> None:
        """Loop-side safety timer: settle an expired request's future.

        The dispatch layer normally resolves expired requests itself
        (per-chunk deadline checks); this timer is the never-hang
        guarantee for the windows where it cannot — e.g. a worker hung
        past the deadline with the watchdog disabled.
        """
        if not request.future.done():
            request.future.set_exception(
                DeadlineExceededError(
                    "request deadline expired before its result was ready"
                )
            )

    # -- window lifecycle ---------------------------------------------------

    def _seal(self, window: _Window) -> None:
        """Close a window to admissions and launch its dispatch task."""
        if window.sealed:
            return
        window.sealed = True
        if window.handle is not None:
            window.handle.cancel()
        if self._open_windows.get(window.key) is window:
            del self._open_windows[window.key]
        window.requests = _interleave_tenants(window.requests)
        task = asyncio.get_running_loop().create_task(self._dispatch(window))
        self._inflight[task] = window
        task.add_done_callback(lambda task: self._inflight.pop(task, None))

    async def _dispatch(self, window: _Window) -> None:
        """Run one sealed window's batch and deliver its results."""
        try:
            batch, waits = await asyncio.to_thread(self._run_window, window)
        except BaseException as exc:  # noqa: BLE001 - forwarded to callers
            self._failed += len(window.requests)
            self._log_window(self._window_record(window, None, None, exc))
            for request in window.requests:
                if not request.future.done():
                    request.future.set_exception(exc)
            return
        self._log_window(self._window_record(window, batch, waits, None))
        for request, result in zip(window.requests, batch.results):
            if isinstance(result, TranspileResult):
                self._completed += 1
                if not request.future.done():
                    request.future.set_result(result)
            else:
                self._failed += 1
                if not request.future.done():
                    request.future.set_exception(result)

    def _log_window(self, record: dict) -> None:
        """Count a finished window and append its record to the bounded log."""
        self._windows += 1
        if record["requests"] > 1:
            self._coalesced_requests += record["requests"]
        self._window_log.append(record)

    def _run_window(
        self, window: _Window
    ) -> tuple[BatchResult, list[float]]:
        """Dispatch one window's batch on a worker thread (blocking)."""
        with self._dispatch_lock:
            ordinal = self._window_ordinal
            self._window_ordinal += 1
            injected_trip = (
                self._fault_plan is not None
                and self._fault_plan.service_fault("trip_breaker", ordinal)
            )
            route = self._breaker.route(time.monotonic(), window.id)
            window.degraded = route == "degraded"
            window.probe = route == "probe"
            if window.degraded:
                self._degraded_windows += 1
                executor = self._degraded()
            else:
                executor = self._executor
            with executor.lease():
                started = time.perf_counter()
                waits = [
                    started - request.enqueued for request in window.requests
                ]
                key = window.key
                deadlines = [request.deadline for request in window.requests]
                batch = transpile_many(
                    [request.circuit for request in window.requests],
                    window.topology,
                    basis=key.basis,
                    method=key.method,
                    selection=key.selection,
                    aggression=key.aggression,
                    layout_trials=key.layout_trials,
                    refinement_rounds=key.refinement_rounds,
                    routing_trials=key.routing_trials,
                    coverage=self._coverage,
                    use_vf2=key.use_vf2,
                    circuit_seeds=[
                        request.seed for request in window.requests
                    ],
                    executor=executor,
                    circuit_deadlines=(
                        deadlines
                        if any(d is not None for d in deadlines)
                        else None
                    ),
                    on_error="return",
                )
            if not window.degraded:
                failures = self._recovery_events(batch.dispatch)
                if injected_trip:
                    failures = max(failures, self._breaker.threshold)
                self._breaker.record(
                    failures, time.monotonic(), window.id, injected_trip
                )
        return batch, waits

    def _degraded(self) -> SerialExecutor:
        """The lazily created in-process executor for open-breaker windows."""
        if self._degraded_executor is None:
            self._degraded_executor = SerialExecutor()
        return self._degraded_executor

    @staticmethod
    def _recovery_events(dispatch: dict | None) -> int:
        """Breaker failure score of one window's dispatch counters.

        Local recovery (pool respawns, executor downgrades) and remote recovery (stream reconnects, hosts marked down) feed
        the same score, so a service mounted on a
        :class:`~repro.transpiler.remote.RemoteExecutor` trips its
        breaker on a degrading cluster exactly as it would on a
        degrading pool.
        """
        if not dispatch:
            return 0
        return sum(
            dispatch.get(counter, 0)
            for counter in (
                "respawns",
                "executor_downgrades",
                "reconnects",
                "host_downgrades",
            )
        )

    def _window_record(
        self,
        window: _Window,
        batch: BatchResult | None,
        waits: list[float] | None,
        error: BaseException | None,
    ) -> dict:
        tenants: collections.Counter[str] = collections.Counter(
            request.tenant for request in window.requests
        )
        record = {
            "window": window.id,
            "basis": window.key.basis,
            "method": window.key.method,
            "requests": len(window.requests),
            "tenants": dict(tenants),
            "degraded": window.degraded,
            "probe": window.probe,
        }
        if waits:
            record["queue_wait_seconds"] = {
                "max": round(max(waits), 6),
                "mean": round(sum(waits) / len(waits), 6),
            }
            tenant_waits: dict[str, float] = {}
            for request, wait in zip(window.requests, waits):
                tenant_waits[request.tenant] = max(
                    tenant_waits.get(request.tenant, 0.0), wait
                )
            record["queue_wait_seconds"]["by_tenant"] = {
                tenant: round(wait, 6)
                for tenant, wait in sorted(tenant_waits.items())
            }
        if batch is not None:
            record["dispatch"] = batch.dispatch
            record["executor"] = batch.executor
            record["runtime_seconds"] = round(batch.runtime_seconds, 6)
            record["expired"] = sum(
                1
                for result in batch.results
                if not isinstance(result, TranspileResult)
            )
        if error is not None:
            record["error"] = repr(error)
        return record

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        """Service provenance snapshot for dashboards and tests.

        Returns a dict with aggregate counters (``requests``,
        ``completed``, ``failed``, per-``tenants`` request counts),
        admission-control state (``pending``, ``tenant_pending``,
        ``shed_requests`` with a per-reason ``shed`` breakdown, and the
        effective ``limits``), deadline accounting
        (``deadline_expirations``), the circuit ``breaker`` snapshot
        (state, trips, transitions) with ``degraded_windows`` served
        in-process, window accounting (``windows`` dispatched,
        ``coalesced_requests`` — requests that shared a window with at
        least one other, ``open_windows`` still admitting,
        ``drain_abandoned`` futures failed at the drain cap), the
        per-window ``window_log`` of the last :data:`LOG_LIMIT` windows
        (request/tenant counts, queue waits
        including a per-tenant breakdown, and the dispatch counters
        inherited from :attr:`~repro.core.results.BatchResult.dispatch`),
        plus ``registry`` hit/miss/build/wait/error counters and the
        executor's cumulative ``dispatch_stats``.
        """
        stats = {
            "requests": self._requests,
            "completed": self._completed,
            "failed": self._failed,
            "tenants": dict(self._tenant_counts),
            "pending": self._pending,
            "tenant_pending": dict(self._tenant_pending),
            "shed_requests": self._shed_total,
            "shed": dict(self._shed_reasons),
            "deadline_expirations": self._deadline_expirations,
            "limits": {
                "max_pending": self._max_pending,
                "tenant_quota": self._tenant_quota,
                "window_ms": self._window_seconds * 1000.0,
                "drain_s": self._drain_seconds,
            },
            "breaker": self._breaker.stats(),
            "degraded_windows": self._degraded_windows,
            "windows": self._windows,
            "coalesced_requests": self._coalesced_requests,
            "open_windows": len(self._open_windows),
            "drain_abandoned": self._drain_abandoned,
            "window_log": [dict(record) for record in self._window_log],
            "registry": self.registry.stats(),
            "executor": dict(self._executor.dispatch_stats),
        }
        if self._degraded_executor is not None:
            stats["degraded_executor"] = dict(
                self._degraded_executor.dispatch_stats
            )
        return stats

    @property
    def closed(self) -> bool:
        """Whether :meth:`aclose` has run (or begun running)."""
        return self._draining or self._closed

    @property
    def executor(self) -> TrialExecutor:
        """The trial executor serving this service's window dispatches."""
        return self._executor

    # -- lifecycle ----------------------------------------------------------

    async def aclose(self) -> None:
        """Drain and shut down: flush open windows, close owned resources.

        The drain sequence: admissions stop (further submissions raise
        :class:`~repro.exceptions.ServiceClosedError`), every open
        admission window is sealed and dispatched immediately, and
        in-flight dispatches are awaited for up to ``drain_s`` seconds.
        Requests still unresolved at the
        cap have their futures failed with ``ServiceClosedError``
        (counted under ``drain_abandoned``), after which the dispatch
        threads are *still* awaited — the executor teardown never races
        a live lease — and, when the service created its executor, the
        worker pool is shut down.  After ``aclose`` returns no worker
        processes created on the service's behalf remain.  Idempotent.
        """
        if self._closed:
            # A second aclose still drains whatever is in flight.
            while self._inflight:
                await asyncio.gather(
                    *list(self._inflight), return_exceptions=True
                )
            return
        self._draining = True
        for window in list(self._open_windows.values()):
            self._seal(window)
        if self._inflight:
            done, pending = await asyncio.wait(
                set(self._inflight), timeout=self._drain_seconds or None
            )
            if pending:
                for task in pending:
                    window = self._inflight.get(task)
                    if window is None:
                        continue
                    for request in window.requests:
                        if not request.future.done():
                            self._drain_abandoned += 1
                            request.future.set_exception(
                                ServiceClosedError(
                                    "service closed: request abandoned at "
                                    f"the {self._drain_seconds:g}s drain cap"
                                )
                            )
                # The executor cannot be torn down under a live lease:
                # keep awaiting the dispatch threads (the task watchdog
                # bounds how long a hung window can hold one).
                await asyncio.gather(*pending, return_exceptions=True)
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        self._closed = True
        if self._owns_executor and not self._executor_closed:
            self._executor_closed = True
            await asyncio.to_thread(self._executor.close)
        if self._degraded_executor is not None:
            await asyncio.to_thread(self._degraded_executor.close)

    async def __aenter__(self) -> "MirageService":
        if self._prewarm and not self._warmed:
            self._warmed = True
            await asyncio.to_thread(self._executor.prewarm)
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MirageService(executor={self._executor.name!r}, "
            f"window_ms={self._window_seconds * 1000:g}, "
            f"closed={self.closed})"
        )
