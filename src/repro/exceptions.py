"""Exception hierarchy for the MIRAGE reproduction library.

Every error raised on purpose by this package derives from
:class:`ReproError` so that callers can catch library failures without
accidentally swallowing programming errors (``TypeError`` etc.).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class CircuitError(ReproError):
    """Raised for malformed circuits, bad qubit indices or invalid gates."""


class DAGError(ReproError):
    """Raised when a DAG operation would violate the DAG invariants."""


class DecompositionError(ReproError):
    """Raised when a unitary cannot be decomposed as requested."""


class TranspilerError(ReproError):
    """Raised by transpiler passes (layout, routing, basis translation)."""


class InvalidModeError(TranspilerError, ValueError):
    """Raised when a mode argument does not name a known mode.

    Used by the front door for its ``on_error=``, ``aggression=`` and
    ``basis=`` arguments: an unknown
    value must fail fast with the accepted values named, never silently
    fall back to a default.  Deriving from
    both :class:`TranspilerError` and :class:`ValueError` keeps existing
    ``except TranspilerError`` callers working while matching the
    conventional exception type for a bad argument value.
    """


class ServiceError(ReproError):
    """Raised by the transpilation service front-end.

    Covers request-time misuse of :class:`repro.service.MirageService` —
    submitting to a closed service, submitting from outside a running
    event loop, or a window dispatch failing wholesale.
    """


class ServiceOverloadError(ServiceError):
    """Raised when admission control sheds a request instead of queueing it.

    Carries a ``retry_after_ms`` hint — the caller should back off at
    least that long before resubmitting.  Shedding happens when a
    tenant exceeds its quota (``MIRAGE_SERVICE_TENANT_QUOTA``), when
    the service-wide pending queue is full
    (``MIRAGE_SERVICE_MAX_PENDING``), or when a deterministic
    ``shed:request:<ordinal>`` fault-plan entry targets the submission.
    Shedding is *pre-admission*: no window slot, seed or executor work
    is consumed by a shed request.
    """

    def __init__(self, message: str, *, retry_after_ms: float = 0.0):
        super().__init__(message)
        #: Suggested client back-off before resubmitting, in milliseconds.
        self.retry_after_ms = float(retry_after_ms)


class ServiceClosedError(ServiceError):
    """Raised by ``submit()`` once a drain has begun or completed.

    Typed (rather than a bare :class:`ServiceError`) so load balancers
    can distinguish "this instance is going away — resubmit elsewhere
    *now*" from transient overload (:class:`ServiceOverloadError`,
    which carries a retry-after hint for the *same* instance).
    """


class DeadlineExceededError(TranspilerError):
    """Raised when a request's deadline expires before its result is ready.

    Deadlines flow from ``MirageService.submit(..., deadline_ms=)``
    through the batch engine (``transpile_many(circuit_deadlines=...)``)
    down to per-chunk dispatch records, so expiry cancels only the
    expired request's own in-flight trials: sibling requests coalesced
    into the same window complete normally and stay byte-identical to
    their direct ``transpile()`` outputs.  Derives from
    :class:`TranspilerError` because the engine raises it too — but it
    is deliberately *not* a :class:`TransportError`, so the replay
    ladder never retries an expired chunk.
    """


class TransportError(TranspilerError):
    """Raised when a dispatch transport resource is lost or corrupted.

    Distinguishes *recoverable* transport failures — a shared-memory
    payload segment that vanished before a worker could attach it, or a
    payload whose bytes no longer match their content digest — from task
    bugs: the fault-tolerant dispatch layer retries work that failed with
    a :class:`TransportError` (republishing the payload inline if need
    be), while any other exception from a task propagates unchanged.
    """


class RemoteTransportError(TransportError):
    """A remote worker-host connection was lost, timed out or went stale.

    Covers every *recoverable* failure of the socket transport: a
    connection reset mid-chunk, a host whose heartbeats stopped, a read
    or connect deadline that expired.  Deriving from
    :class:`TransportError` routes all of them through the established
    replay ladder — reconnect with backoff, replay only the lost
    chunks, degrade to local execution when the budget is spent.
    """


class GarbledFrameError(RemoteTransportError):
    """A protocol frame failed its CRC (or magic) check.

    Raised by the frame codec on either side of a connection, and by
    the client when a host reports that a frame *it* received was
    corrupt.  The connection's state is unknowable after a garbled
    frame, so recovery always drops the connection and replays the
    in-flight chunk on a fresh one (counted under ``frames_garbled``).
    """


class ProtocolVersionError(TranspilerError):
    """Client and worker-host speak different protocol versions.

    Deliberately *not* a :class:`TransportError`: a version mismatch is
    a deployment bug that no amount of reconnecting fixes, so the
    client marks the host down immediately instead of burning its
    retry budget against it.
    """


class InsecureBindError(TranspilerError, ValueError):
    """A worker host was asked to listen on TCP off the loopback interface.

    Worker hosts do not authenticate their clients, and a chunk request
    makes the host unpickle client-supplied payloads.  TCP binds are
    therefore limited to loopback addresses; use a Unix socket (the
    default) or a loopback port behind an authenticated tunnel.
    """


class CoverageError(ReproError):
    """Raised when a coverage set cannot answer a membership/cost query."""


class WeylError(ReproError):
    """Raised when Weyl-coordinate computation fails to converge."""


class QASMError(ReproError):
    """Raised for invalid OpenQASM serialisation requests."""
