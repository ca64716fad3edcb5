"""Deterministic fault injection for the dispatch stack.

The fault-tolerance machinery in :mod:`repro.transpiler.executors` (chunk
retries, pool respawn, executor degradation) is only credible if it can
be exercised on demand, at exact task positions, on every executor and
transport.  This module is that harness:

* ``MIRAGE_FAULT_PLAN`` — a comma-separated spec parsed by
  :func:`parse_fault_plan` once per dispatch session.  Every entry
  follows the ``kind:stage:ordinal`` grammar.  Task faults are
  ``action:kind:index`` with ``action`` one of ``kill`` / ``hang`` /
  ``corrupt`` / ``slow`` and ``kind`` always ``trial``; ``index`` is
  the zero-based *global submission ordinal* of routing trials within
  one dispatch session (each ``map_shared`` call opens one).  Two
  further kinds target the *service* tier rather than the dispatcher:
  ``shed:request:N`` makes :class:`MirageService` treat
  its ``N``-th submission (global, zero-based) as over quota, and
  ``trip_breaker:window:N`` makes the service's circuit breaker count
  its ``N``-th dispatched window as a threshold-worth of executor
  failures.  Example::

      MIRAGE_FAULT_PLAN="kill:trial:7,slow:trial:2,shed:request:5"

* The dispatcher resolves the plan into per-chunk :class:`ChunkFaults`
  records at submit time (workers never count anything, so work stealing
  cannot move a fault), and **disarms faults on replay**: a retried chunk
  is re-dispatched without its fault record, modelling the transient
  failures the recovery layer exists for.  Fixed-seed outputs are
  therefore byte-identical with and without an active fault plan.

* ``kill`` terminates the worker process (``os._exit``) when it runs in
  a real worker, and raises :class:`InjectedWorkerCrash` when the chunk
  executes in the dispatching process (serial/thread executors), so the
  in-process retry path sees the same recoverable signal.  ``hang``
  sleeps for ``MIRAGE_FAULT_HANG_SECONDS`` (default 30), long enough for
  a configured ``MIRAGE_TASK_TIMEOUT`` to fire.  ``corrupt`` replaces
  the task's result with a :class:`CorruptResult` marker — the stand-in
  for a checksum mismatch — which the dispatcher detects and converts
  into :class:`CorruptResultError`, retrying the chunk.

* Four *network* kinds target the remote transport
  (:mod:`repro.transpiler.remote`) rather than the local dispatcher:
  ``drop_conn:chunk:N`` closes the client connection right after the
  ``N``-th first-send chunk frame leaves, ``garble:frame:N`` flips a
  byte inside the ``N``-th first-send chunk frame after its CRC was
  stamped, ``partition:host:N`` makes the host at index ``N``
  unreachable for the whole session, and ``slow_net:chunk:N`` makes
  the host sit on the ``N``-th chunk for ``MIRAGE_FAULT_SLOW_SECONDS``
  with its heartbeats suppressed — the deterministic way to exercise
  heartbeat-timeout replay.  Like every other kind, network faults
  target *first* dispatches only: replays travel disarmed.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Iterable

from repro.exceptions import TranspilerError, TransportError

#: Actions a task fault may take, in the worker that draws the task.
_TASK_ACTIONS = ("kill", "hang", "corrupt", "slow")

#: Service-tier fault kinds: action → the stage name its ordinal counts.
_SERVICE_ACTIONS = {"shed": "request", "trip_breaker": "window"}

#: Network fault kinds: action → the stage name its ordinal counts.
#: All of them are resolved client-side against *first* sends, so a
#: replayed chunk can never re-trigger the fault that lost it.
_NETWORK_ACTIONS = {
    "drop_conn": "chunk",
    "garble": "frame",
    "partition": "host",
    "slow_net": "chunk",
}

#: Exit status used by injected worker kills — distinctive in logs.
KILL_EXIT_CODE = 86

class InjectedWorkerCrash(TranspilerError):
    """A ``kill`` fault fired in-process (serial/thread execution).

    Worker processes die for real (``os._exit``); in-process chunks
    cannot, so the crash surfaces as this exception instead — the
    dispatcher treats both as the same recoverable worker loss.
    """


class CorruptResultError(TransportError):
    """A chunk returned :class:`CorruptResult` garbage.

    Modelled as a transport-integrity failure (the real-world analogue
    is a payload/result checksum mismatch), so the retry layer replays
    the chunk rather than propagating garbage into the batch.
    """


class CorruptResult:
    """Marker object an injected ``corrupt`` fault returns as a result.

    Deliberately unlike any real task outcome; the dispatcher scans chunk
    results for instances and converts them into
    :class:`CorruptResultError` before anything downstream can consume
    them.  Picklable so it survives the process-pool return path.
    """

    __slots__ = ("ordinal",)

    def __init__(self, ordinal: int = -1) -> None:
        self.ordinal = ordinal

    def __reduce__(self):  # noqa: D105 - picklability
        return (CorruptResult, (self.ordinal,))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CorruptResult(ordinal={self.ordinal})"


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One parsed fault-plan entry (action, task kind, global index)."""

    action: str
    kind: str
    index: int


@dataclasses.dataclass(frozen=True)
class ChunkFaults:
    """The faults one dispatched chunk must inject, resolved to offsets.

    Built dispatcher-side by :meth:`FaultPlan.chunk_faults` so the worker
    applies faults positionally (``kills``/``hangs``/``corrupts`` are
    offsets into the chunk's task list) without any cross-process
    counting.  ``dispatcher_pid`` distinguishes in-process execution —
    where ``kill`` must raise instead of exiting — from a real worker.
    Picklable; rides the chunk submission only while a plan is active.
    """

    kills: tuple[int, ...] = ()
    hangs: tuple[int, ...] = ()
    corrupts: tuple[int, ...] = ()
    slows: tuple[int, ...] = ()
    hang_seconds: float = 0.0
    slow_seconds: float = 0.0
    dispatcher_pid: int = -1

    def before_task(self, offset: int) -> None:
        """Fire any ``kill``/``hang`` fault aimed at the task at ``offset``."""
        if offset in self.kills:
            if self.dispatcher_pid >= 0 and os.getpid() != self.dispatcher_pid:
                os._exit(KILL_EXIT_CODE)
            raise InjectedWorkerCrash(
                f"fault injection: worker killed at chunk offset {offset}"
            )
        if offset in self.hangs:
            time.sleep(self.hang_seconds)
        if offset in self.slows:
            time.sleep(self.slow_seconds)

    def after_task(self, offset: int, result: object) -> object:
        """Swap the task's result for garbage if a ``corrupt`` fault aims here."""
        if offset in self.corrupts:
            return CorruptResult(offset)
        return result


#: The accepted entry grammar, named verbatim by every parse error so a
#: malformed plan fails fast with the full contract in the message.
FAULT_PLAN_GRAMMAR = (
    "kind:stage:ordinal — one of "
    "'kill|hang|corrupt|slow:trial:<ordinal>', 'shed:request:<ordinal>', "
    "'trip_breaker:window:<ordinal>', 'drop_conn:chunk:<ordinal>', "
    "'garble:frame:<ordinal>', 'partition:host:<ordinal>' or "
    "'slow_net:chunk:<ordinal>'"
)


def parse_fault_plan(spec: str) -> "FaultPlan":
    """Parse a ``MIRAGE_FAULT_PLAN`` string into a :class:`FaultPlan`.

    Grammar: comma-separated ``kind:stage:ordinal`` entries — task
    faults ``action:kind:index`` (``action`` in ``kill``/``hang``/
    ``corrupt``/``slow``, ``kind`` always ``trial``), service faults
    ``shed:request:index`` / ``trip_breaker:window:index`` and the
    network kinds of the remote transport.  Whitespace around entries is
    ignored; an empty spec yields an empty plan.  Anything else raises
    :class:`~repro.exceptions.TranspilerError` *at parse time* — the
    error names the accepted grammar so a typo fails fast instead of
    surfacing mid-dispatch.
    """
    entries: list[FaultSpec] = []
    for raw in spec.split(","):
        part = raw.strip()
        if not part:
            continue
        fields = part.split(":")
        try:
            if len(fields) == 3 and fields[0] in _TASK_ACTIONS:
                action, kind, index = fields
                if kind != "trial":
                    raise ValueError(kind)
                entries.append(FaultSpec(action, kind, int(index)))
                continue
            if len(fields) == 3 and fields[0] in _SERVICE_ACTIONS:
                action, kind, index = fields
                if kind != _SERVICE_ACTIONS[action]:
                    raise ValueError(kind)
                entries.append(FaultSpec(action, kind, int(index)))
                continue
            if len(fields) == 3 and fields[0] in _NETWORK_ACTIONS:
                action, kind, index = fields
                if kind != _NETWORK_ACTIONS[action]:
                    raise ValueError(kind)
                entries.append(FaultSpec(action, kind, int(index)))
                continue
            raise ValueError(part)
        except ValueError:
            raise TranspilerError(
                f"bad MIRAGE_FAULT_PLAN entry {part!r} — expected "
                f"{FAULT_PLAN_GRAMMAR}"
            ) from None
    return FaultPlan(entries)


class FaultPlan:
    """A parsed fault plan, queried by the dispatcher at submit time.

    Holds the trial faults by task ordinal, plus the service and network
    faults by their ordinals.  The plan itself is immutable; the
    *dispatcher* owns the ordinal counters so that fault positions are
    exact and independent of worker scheduling.
    """

    def __init__(self, specs: Iterable[FaultSpec]) -> None:
        self._by_kind: dict[str, dict[int, str]] = {"trial": {}}
        self._service: dict[str, set[int]] = {
            action: set() for action in _SERVICE_ACTIONS
        }
        self._network: dict[str, set[int]] = {
            action: set() for action in _NETWORK_ACTIONS
        }
        for spec in specs:
            if spec.action in _SERVICE_ACTIONS:
                self._service[spec.action].add(spec.index)
            elif spec.action in _NETWORK_ACTIONS:
                self._network[spec.action].add(spec.index)
            else:
                self._by_kind[spec.kind][spec.index] = spec.action

    def __bool__(self) -> bool:
        return bool(
            any(self._by_kind[kind] for kind in self._by_kind)
            or any(self._service[action] for action in self._service)
            or any(self._network[action] for action in self._network)
        )

    def service_fault(self, action: str, ordinal: int) -> bool:
        """Whether a service fault of ``action`` targets this ordinal.

        ``action`` is ``"shed"`` (queried with the service's global
        submission ordinal) or ``"trip_breaker"`` (queried with the
        global dispatched-window ordinal).  The service owns both
        counters, mirroring how the dispatcher owns task ordinals.
        """
        return ordinal in self._service.get(action, ())

    def network_fault(self, action: str, ordinal: int) -> bool:
        """Whether a network fault of ``action`` targets this ordinal.

        ``action`` is one of ``"drop_conn"``/``"slow_net"`` (queried
        with the session's first-send chunk ordinal), ``"garble"``
        (queried with the first-send chunk-frame ordinal — identical
        numbering, counted at the socket write), or ``"partition"``
        (queried with the host's index in the session's host list).
        The remote client owns every one of these counters, mirroring
        how the dispatcher owns task ordinals, so injected network
        failures strike exact wire positions regardless of host
        scheduling — and never strike a replay.
        """
        return ordinal in self._network.get(action, ())

    def chunk_faults(
        self, kind: str, start: int, count: int
    ) -> ChunkFaults | None:
        """Resolve the faults hitting tasks ``[start, start+count)``.

        ``kind`` is the task kind the chunk carries and ``start`` the
        global ordinal of its first task within that kind.  The record's
        ``hang_seconds`` and ``slow_seconds`` are left at zero: the
        dispatch session fills in its ``MIRAGE_FAULT_HANG_SECONDS`` and
        ``MIRAGE_FAULT_SLOW_SECONDS``.  Returns ``None``
        when no fault lands in the chunk — the common case, keeping the
        wire format of unaffected chunks unchanged.
        """
        planned = self._by_kind.get(kind, {})
        kills: list[int] = []
        hangs: list[int] = []
        corrupts: list[int] = []
        slows: list[int] = []
        for index, action in planned.items():
            if start <= index < start + count:
                offset = index - start
                if action == "kill":
                    kills.append(offset)
                elif action == "hang":
                    hangs.append(offset)
                elif action == "slow":
                    slows.append(offset)
                else:
                    corrupts.append(offset)
        if not (kills or hangs or corrupts or slows):
            return None
        return ChunkFaults(
            kills=tuple(sorted(kills)),
            hangs=tuple(sorted(hangs)),
            corrupts=tuple(sorted(corrupts)),
            slows=tuple(sorted(slows)),
            dispatcher_pid=os.getpid(),
        )
