"""Pluggable executors for independent transpilation trials.

The SABRE/MIRAGE layout search runs many independent trials (paper
Section V uses a 20 x 20 budget); each trial only needs the circuit's
flat lowering, a router and its own RNG stream, so the trials are embarrassingly
parallel.  :class:`TrialExecutor` abstracts *how* a batch of such trials
is evaluated:

* :class:`SerialExecutor` — in-process loop (the reference behaviour);
* :class:`ThreadExecutor` — ``concurrent.futures.ThreadPoolExecutor``,
  useful when trials release the GIL or for IO-bound metric oracles;
* :class:`ProcessExecutor` — ``concurrent.futures.ProcessPoolExecutor``
  for real CPU parallelism.  The mapped function and its tasks must be
  picklable (the layout search uses module-level functions and frozen
  dataclasses for exactly this reason).

All executors preserve input order, so a deterministic per-task seeding
scheme yields results that are byte-identical no matter which executor —
or how many workers — ran the batch.  Pool-backed executors create their
pool lazily on first use and can be reused across circuits (the batch
API :func:`repro.core.transpile.transpile_many` shares one executor for
the whole batch); call :meth:`TrialExecutor.close` or use the executor
as a context manager to release workers.

Shared-payload dispatch
-----------------------

Routing trials share almost all of their input: the circuit lowerings,
the coupling map and — heaviest of all — the coverage set are identical for
every trial, only the ``(trial_index, seed)`` pair differs.  Every
executor therefore dispatches through one :class:`DispatchSession` type
per transport: heavy payloads are registered once
(:meth:`DispatchSession.add_payload`), light task chunks are submitted
against them (:meth:`DispatchSession.submit`, one future per chunk) and
results reassemble in input order, keeping deterministic seeding schemes
executor-independent.  :meth:`TrialExecutor.map_shared` is the one-shot
form — open a session, add the payload, submit every task, collect —
and the batch engine keeps a session open
(:meth:`TrialExecutor.open_dispatch`, the one session factory) so the
producer can keep planning circuits while earlier circuits' trials are
already running.

* Serial and thread sessions close over the payload object itself — no
  serialisation at all.
* The process session pickles each payload **once** in the parent.
  Payloads of one session may share *anchor* objects (the batch's one
  coverage set): anchors are pickled exactly once, and every payload
  pickled afterwards stores a tiny persistent reference wherever it
  contains an anchor object.
* On hosts with POSIX shared memory the pickled payload is published
  into a named ``multiprocessing.shared_memory`` segment and each chunk
  carries only a :class:`PayloadHandle` (segment name + content digest)
  — O(1) transport bytes per chunk no matter how large the payload.
  Without shared memory (non-POSIX platforms, or
  ``MIRAGE_SHM_DISABLE=1``) the same session runs with the pickle blob
  itself travelling with every chunk.
* Workers memoise deserialisation by content digest, so each worker
  process unpickles a given payload at most once no matter how many
  chunks it pulls; idle workers pull the next chunk from the pool's
  future queue instead of being handed a fixed static share.

Segments are unlinked when their slot is released or the session
closes (worker exceptions included), an ``atexit`` guard in the parent
unlinks anything a crashed dispatch left behind, and worker-side
attachments are refcounted and closed by a matching guard.

Zero-copy payload views
-----------------------

Every segment holds its payload as **pickle-protocol-5 out-of-band
buffers**: the pickle body and every exported buffer (numpy array data
— the coverage set's half-space ``(A, b)`` matrices, hull point clouds,
consolidated gate unitaries) are written side by side behind a small
index header.  Workers unpickle with ``buffers=`` memoryviews over the
attached segment, so those arrays come back as **read-only numpy views
of shared memory** — no per-worker copy of the payload bytes, no matter
how many workers share one coverage set.  Worker attachments are
refcounted and pinned to the memoised payload (:func:`_load_payload`),
so views stay valid for as long as the payload is cached even after the
dispatcher unlinks the segment name (POSIX keeps the mapping alive).
When a segment cannot be created the same body and buffers ride the
chunk inline; a payload stepped down the transport ladder, and every
payload published without shared memory, rides as one in-band pickle
blob.  Results are byte-identical in every form.

Fault-tolerant dispatch
-----------------------

Worker processes die, hang and return garbage; long-lived batch services
must absorb all three without aborting (or silently corrupting) a batch.
Every session therefore recovers per *chunk*, through one chunk ledger
on :class:`DispatchSession` that every transport shares:

* **Crash recovery** — a chunk that fails with ``BrokenProcessPool`` (a
  worker died), a cancelled future, or a :class:`TransportError` (its
  payload segment vanished) is replayed: the pool is respawned once per
  failure generation, the chunk's tasks — which carry their own
  ``SeedSequence`` streams — are re-submitted, and the recovery is
  recorded under the ``retries``/``respawns``/``lost_tasks`` dispatch
  counters.  In-process executors replay injected crashes the same
  way, without a pool to respawn.  Replay is byte-identical to an
  uninterrupted run because results depend only on ``(payload, task)``.
* **Timeouts** — with ``MIRAGE_TASK_TIMEOUT`` set (seconds), a session
  watchdog kills the pool under any chunk that outlives its deadline,
  converting a hung worker into the crash case above; re-dispatches
  across a process or network boundary back off exponentially (capped)
  between attempts.  ``MIRAGE_TASK_RETRIES`` bounds the attempts per
  chunk (default 3); both knobs are read once per session.
* **Graceful degradation** — a chunk that exhausts its retry budget, on
  any executor, steps down the executor ladder: it runs in-process (on
  a dedicated thread, falling back to inline serial execution) against
  the dispatcher's own copy of the payload, counted under
  ``executor_downgrades``.  A payload whose segment was lost steps down
  the transport ladder — republished as an inline pickle blob riding
  each chunk, counted under ``transport_downgrades``.  Outputs are
  byte-identical on every rung.
* **Fault injection** — :mod:`repro.transpiler.faults` turns
  ``MIRAGE_FAULT_PLAN`` into per-chunk fault records resolved at submit
  time, so kills/hangs/corruptions strike exact task ordinals; replayed
  chunks are dispatched with their faults disarmed.

Each executor records how much serialisation and transport the last
calls cost in :attr:`TrialExecutor.dispatch_stats` (``shared_pickles``,
``payload_pickles``, ``chunks``, ``tasks``, ``shm_segments``,
``bytes_shipped``, ``header_bytes`` and worker-side ``bytes_copied``),
which the batch engine surfaces as provenance and the test suite uses
as a re-pickling regression check.
The recovery counters (``retries``, ``respawns``, ``lost_tasks``,
``executor_downgrades``, ``transport_downgrades``) live in the same
dict and are all zero on a clean run.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import contextlib
import functools
import hashlib
import io
import math
import os
import pickle
import secrets
import struct
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

from repro.exceptions import (
    DeadlineExceededError,
    TranspilerError,
    TransportError,
)
from repro.transpiler.faults import (
    ChunkFaults,
    CorruptResult,
    CorruptResultError,
    FaultPlan,
    InjectedWorkerCrash,
    reap_stale_segments,
)
from repro.transpiler.kernel.native import load_routec

try:  # POSIX shared memory is optional — everything degrades to blobs.
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exotic platforms only
    _shared_memory = None

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")
_Shared = TypeVar("_Shared")

#: How many chunks each process worker (or remote stream) should get on
#: average from one :meth:`DispatchSession.submit` — and so from one
#: :meth:`TrialExecutor.map_shared` call.  More chunks per worker improves
#: load balancing when trial durations vary (the work-stealing effect);
#: fewer chunks amortise the per-chunk dispatch overhead better.
CHUNKS_PER_WORKER = 4

#: Worker-side cap on memoised shared payloads (LRU).  Sized to exceed
#: the batch engine's in-flight window — ``max(4, 2 * workers)``
#: per-circuit payloads plus the session anchor — with headroom, because
#: evicting a live payload would silently re-pay the deserialisation the
#: memo exists to avoid.  Scaled from the host's core count since worker
#: pools default to it.
_SHARED_CACHE_LIMIT = max(64, 4 * (os.cpu_count() or 1) + 8)

#: Prefix of every shared-memory segment this module creates; the cleanup
#: regression tests scan ``/dev/shm`` for it.
SHM_SEGMENT_PREFIX = "mirage_shm_"

#: Magic bytes opening the out-of-band (zero-copy) segment layout; the
#: bytes that follow are the section count and the ``(offset, size)``
#: table (one entry per section, section 0 being the pickle body).
_OOB_MAGIC = b"MIRG5OOB"

#: Alignment of out-of-band sections inside a segment — generous enough
#: for any numpy dtype, so ``frombuffer`` views are always aligned.
_OOB_ALIGN = 64

#: Size floor (bytes) for exporting a buffer out-of-band.  Smaller
#: contiguous buffers stay in-band inside the pickle body: each export
#: costs a 16-byte index-header entry plus alignment padding, and workers
#: gain nothing from a zero-copy view over a few dozen bytes.
_OOB_INLINE_MAX = 256

#: Worker-side count of payload bytes materialised (copied) before
#: unpickling.  Zero-copy loads advance it by the index header only;
#: inline loads advance it by the payload size.
#: Chunk runners snapshot it around execution and return the delta, so
#: the dispatcher can aggregate it into ``dispatch_stats``.
_worker_bytes_copied = 0

_shared_cache: "OrderedDict[str, tuple[object, object | None]]" = OrderedDict()

#: Dispatcher-side registry of live segment names (mapped to the pid that
#: created them — forked workers inherit a copy of this dict and must not
#: unlink their parent's segments), unlinked by the atexit guard if a
#: crash skipped the normal ``finally`` unlink.
_created_segments: dict[str, int] = {}


def shm_transport_enabled() -> bool:
    """Whether dispatches may publish payloads via POSIX shared memory.

    Requires ``multiprocessing.shared_memory`` on a POSIX host — Windows
    named mappings are destroyed when the last open handle closes, and
    the transport deliberately closes the parent's handle right after
    publishing, so only POSIX shm (which persists until unlink) works.
    Switched off by setting ``MIRAGE_SHM_DISABLE=1`` in the environment —
    checked per call, so tests and operators can toggle it without
    re-importing.
    """
    if _shared_memory is None or os.name != "posix":
        return False
    return os.environ.get("MIRAGE_SHM_DISABLE", "") in ("", "0")


#: Default for :func:`task_retries` — how often a lost chunk is replayed
#: before the dispatch degrades to in-process execution.
_TASK_RETRIES_DEFAULT = 3

#: Capped exponential backoff between chunk re-dispatches (seconds).
_RETRY_BACKOFF_BASE = 0.05
_RETRY_BACKOFF_CAP = 1.0


def task_timeout() -> float | None:
    """Per-chunk deadline in seconds, or ``None`` for no deadline.

    Read from ``MIRAGE_TASK_TIMEOUT`` once per dispatch session, when it
    opens.  When set, a chunk whose workers have not delivered within
    the deadline is presumed hung: the pool under it is torn down (the
    ``respawns`` counter advances) and the chunk's tasks are replayed.
    Unset, empty, non-numeric or non-positive values disable deadlines.
    """
    value = os.environ.get("MIRAGE_TASK_TIMEOUT", "").strip()
    if not value:
        return None
    try:
        seconds = float(value)
    except ValueError:
        return None
    return seconds if seconds > 0 else None


def task_retries() -> int:
    """Replay budget per chunk before stepping down the executor ladder.

    Read from ``MIRAGE_TASK_RETRIES`` once per dispatch session, when it
    opens (default 3, floor 0).  A chunk lost to a worker crash, hang or
    transport failure is re-dispatched up to this many times — with
    capped exponential backoff between attempts across a process or
    network boundary — before the session degrades it to in-process
    execution (counted under ``executor_downgrades``).
    """
    value = os.environ.get("MIRAGE_TASK_RETRIES", "").strip()
    if not value:
        return _TASK_RETRIES_DEFAULT
    try:
        return max(0, int(value))
    except ValueError:
        return _TASK_RETRIES_DEFAULT


def _retry_backoff(attempt: int) -> float:
    """Delay before re-dispatch ``attempt`` (1-based), capped exponential."""
    return min(_RETRY_BACKOFF_CAP, _RETRY_BACKOFF_BASE * 2 ** max(0, attempt - 1))


class _DispatchInterrupted(TranspilerError):
    """A chunk could not even be submitted (pool broken/closed under us)."""


#: Failure types the dispatch layer treats as *recoverable worker loss*
#: (replay the chunk) rather than task bugs (propagate).  Anything else
#: raised by a task travels to the caller unchanged.
_RETRYABLE_ERRORS = (
    concurrent.futures.BrokenExecutor,
    concurrent.futures.CancelledError,
    concurrent.futures.TimeoutError,
    TimeoutError,
    TransportError,
    InjectedWorkerCrash,
    _DispatchInterrupted,
)


def _is_retryable(error: BaseException) -> bool:
    """Whether a chunk failure is recoverable worker/transport loss."""
    return isinstance(error, _RETRYABLE_ERRORS)


def _guard_chunk_results(results: list) -> list:
    """Reject chunks whose workers returned garbage.

    Injected ``corrupt`` faults (and, in a real deployment, checksum
    validators) surface as :class:`CorruptResult` markers in the result
    list; converting them into :class:`CorruptResultError` here routes
    them through the session's replay path like a crashed worker.
    """
    for result in results:
        if isinstance(result, CorruptResult):
            raise CorruptResultError(
                f"worker returned corrupt result at chunk offset "
                f"{result.ordinal}"
            )
    return results


@atexit.register
def _cleanup_segments() -> None:
    """Last-resort guard: unlink created and close attached segments.

    Registered with ``atexit`` but also safe to call directly (the
    fault-injection tests do).  Idempotent — every registry it drains is
    cleared, so a second invocation finds nothing to do — and tolerant
    of segments that were already unlinked by their normal ``finally``
    path or by a sibling process (:func:`_unlink_segment` swallows
    ``FileNotFoundError``).  Entries inherited from a forked parent are
    dropped without unlinking: the parent may still be serving workers
    from those segments.
    """
    pid = os.getpid()
    for name, owner in list(_created_segments.items()):
        if owner == pid:
            _unlink_segment(name)
        else:
            # Forked child inheriting the parent's registry — not ours.
            _created_segments.pop(name, None)
    for attachment in list(_segment_attachments.values()):
        _close_attachment_quietly(attachment.shm)
    _segment_attachments.clear()


class _SegmentAttachment:
    """A refcounted worker-side attachment to one payload segment.

    Zero-copy payloads hand out numpy views over the attached buffer, so
    the attachment must outlive every memoised payload that references
    it.  Each memo entry holds one reference; the last release closes
    the mapping (a ``BufferError`` — live views still exported — is
    tolerated: the views keep the mmap alive and the OS reclaims it when
    they die).
    """

    __slots__ = ("name", "shm", "refs")

    def __init__(self, name: str, shm: object) -> None:
        self.name = name
        self.shm = shm
        self.refs = 0


#: Worker-side registry of refcounted attachments, keyed by segment name.
_segment_attachments: dict[str, _SegmentAttachment] = {}


def _acquire_segment(name: str) -> _SegmentAttachment:
    """Attach (or re-reference) a segment; pairs with :func:`_release_attachment`."""
    attachment = _segment_attachments.get(name)
    if attachment is None:
        attachment = _SegmentAttachment(name, _attach_segment(name))
        _segment_attachments[name] = attachment
    attachment.refs += 1
    return attachment


def _close_attachment_quietly(shm: object) -> None:
    """Close an attachment, orphaning the mapping to any live views.

    Numpy views handed out by a zero-copy load export the underlying
    mmap, so a plain ``close()`` raises ``BufferError`` — and would
    raise again, noisily, from ``SharedMemory.__del__``.  In that case
    the mmap reference is dropped without closing it (the views keep it
    alive; the OS unmaps when the last one dies) and only the file
    descriptor is closed, leaving nothing for the finaliser to do.
    """
    try:
        shm.close()
    except BufferError:
        with contextlib.suppress(Exception):
            shm._mmap = None
            fd = getattr(shm, "_fd", -1)
            if fd >= 0:
                os.close(fd)
                shm._fd = -1
    except Exception:  # pragma: no cover - platform-specific close errors
        pass


def _release_attachment(attachment: "_SegmentAttachment | None") -> None:
    """Drop one reference; the last one closes the attachment."""
    if attachment is None:
        return
    attachment.refs -= 1
    if attachment.refs <= 0:
        _segment_attachments.pop(attachment.name, None)
        _close_attachment_quietly(attachment.shm)


def reset_worker_state() -> None:
    """Drop this process's payload memo and release its attachments.

    Test hook (and fork hygiene helper): evicts every memoised payload
    and dereferences the zero-copy attachments behind them.  Arrays that
    still view a released segment stay readable — they pin the mapping —
    but new loads re-attach from scratch.
    """
    global _worker_bytes_copied
    while _shared_cache:
        _, (_, attachment) = _shared_cache.popitem(last=False)
        _release_attachment(attachment)
    _worker_bytes_copied = 0


def _prewarm_probe(index: int) -> int:
    """No-op worker task used by ``prewarm`` to force worker spawn."""
    return os.getpid()


class _ViewReader(io.RawIOBase):
    """Minimal read-only file over a memoryview — no upfront body copy.

    Feeding ``io.BytesIO(view)`` to the unpickler would copy the whole
    pickle body out of the segment; this adapter lets the unpickler
    stream it instead (it buffers internally in small frames).
    """

    def __init__(self, view: memoryview) -> None:
        super().__init__()
        self._view = view
        self._pos = 0

    def readable(self) -> bool:  # noqa: D102 - io protocol
        return True

    def readinto(self, target) -> int:  # noqa: D102 - io protocol
        count = min(len(target), len(self._view) - self._pos)
        target[:count] = self._view[self._pos:self._pos + count]
        self._pos += count
        return count


def _attach_segment(name: str):
    """Attach an existing segment without registering it for tracking.

    Attaching must never make this process responsible for the segment's
    lifetime: before Python 3.13 (``track=False``), ``SharedMemory``
    registers even plain attaches with the resource tracker, which would
    unlink the dispatcher's segment when a worker exits — so the
    registration is undone explicitly on those versions.

    A segment that no longer exists raises
    :class:`~repro.exceptions.TransportError` (not a bare
    ``FileNotFoundError``): a vanished segment is recoverable transport
    loss — the dispatcher republishes the payload and replays the chunk —
    and must stay distinguishable from task bugs.
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except FileNotFoundError:
        raise TransportError(
            f"payload segment {name!r} vanished before attach"
        ) from None
    except TypeError:
        pass
    # Pre-3.13 fallback: plain attaches register with the resource
    # tracker.  Registering and immediately unregistering is not safe —
    # the tracker keeps a *set*, so a concurrent attach in a sibling
    # worker can interleave its register/unregister pair with ours and
    # with the dispatcher's final unlink, leaving the tracker to unlink
    # a name it no longer knows (a noisy KeyError at best, an early
    # unlink at worst).  Suppressing the registration call for the
    # duration of the attach avoids the message pair entirely.
    from multiprocessing import resource_tracker  # pragma: no cover

    original_register = resource_tracker.register
    try:
        resource_tracker.register = lambda *args, **kwargs: None
        return _shared_memory.SharedMemory(name=name)
    except FileNotFoundError:  # pragma: no cover - pre-3.13 path
        raise TransportError(
            f"payload segment {name!r} vanished before attach"
        ) from None
    finally:
        resource_tracker.register = original_register


def _unlink_segment(name: str) -> None:
    """Best-effort unlink of a segment this process created.

    Attaches *with* tracking (unlike worker-side attaches) so the
    resource tracker's register/unregister bookkeeping stays balanced:
    the tracked attach re-registers the name that creation registered,
    and ``unlink`` unregisters it exactly once.
    """
    _created_segments.pop(name, None)
    if _shared_memory is None:
        return
    try:
        shm = _shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    with contextlib.suppress(Exception):
        shm.close()
    with contextlib.suppress(FileNotFoundError):
        shm.unlink()


class PayloadHandle:
    """Transport descriptor of one pickled payload.

    A payload published into shared memory travels as ``segment`` /
    ``digest`` / ``size`` only — O(1) bytes per chunk regardless of
    payload size — and ``header`` gives the size of the out-of-band
    index header at the start of the segment.  An inline payload
    carries its pickled ``blob`` instead, plus, when an out-of-band
    pickle could not get a segment, its protocol-5 ``oob_buffers`` (the
    blob is then just the pickle body).  Workers resolve a handle to
    the deserialised object via :func:`_load_payload`, memoised by
    ``digest``.
    """

    __slots__ = ("digest", "size", "segment", "blob", "header", "oob_buffers")

    def __init__(
        self,
        digest: str,
        size: int,
        segment: str | None = None,
        blob: bytes | None = None,
        header: int = 0,
        oob_buffers: tuple[bytes, ...] | None = None,
    ) -> None:
        self.digest = digest
        self.size = size
        self.segment = segment
        self.blob = blob
        self.header = header
        self.oob_buffers = oob_buffers

    @property
    def shipped_bytes(self) -> int:
        """Transport bytes this handle adds to every chunk it rides on."""
        if self.segment is not None:
            return len(self.segment) + len(self.digest) + 16
        return self.size + len(self.digest) + 16

    def __getstate__(self) -> tuple:
        return (
            self.digest, self.size, self.segment, self.blob, self.header,
            self.oob_buffers,
        )

    def __setstate__(self, state: tuple) -> None:
        (
            self.digest, self.size, self.segment, self.blob, self.header,
            self.oob_buffers,
        ) = state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "blob" if self.segment is None else "shm"
        return (
            f"PayloadHandle({mode}, digest={self.digest[:8]}…, "
            f"size={self.size})"
        )


def _new_segment(size: int):
    """Create a fresh named segment, or ``None`` when creation fails."""
    name = f"{SHM_SEGMENT_PREFIX}{os.getpid()}_{secrets.token_hex(4)}"
    try:
        segment = _shared_memory.SharedMemory(
            name=name, create=True, size=max(1, size)
        )
    except OSError:
        return None
    _created_segments[name] = os.getpid()
    return segment


def _inline_payload(blob: bytes) -> PayloadHandle:
    """An in-band pickle blob riding every chunk (no shared memory)."""
    return PayloadHandle(
        digest=hashlib.sha1(blob).hexdigest(), size=len(blob), blob=blob
    )


def _align_oob(offset: int) -> int:
    return -(-offset // _OOB_ALIGN) * _OOB_ALIGN


def _digest_sections(sections: Sequence[memoryview]) -> str:
    """Content digest of an out-of-band section list, length-framed.

    Each section's byte length is hashed ahead of its bytes so two
    payloads whose concatenated sections coincide but split differently
    can never alias to one digest — the worker memo is keyed by this.
    """
    digest = hashlib.sha1()
    for section in sections:
        digest.update(struct.pack("<Q", section.nbytes))
        digest.update(section)
    return digest.hexdigest()


def _publish_object(obj: object, anchors: Sequence[object] = ()) -> PayloadHandle:
    """Serialise and publish one payload object for worker consumption.

    With the shm transport active the object is laid out as out-of-band
    sections in one segment: ``_OOB_MAGIC``, a ``uint64`` section count,
    then one ``(uint64 offset, uint64 size)`` pair per section; section
    0 is the pickle body, sections 1+ are the protocol-5 out-of-band
    buffers, each aligned to :data:`_OOB_ALIGN`.  Buffers smaller than
    :data:`_OOB_INLINE_MAX` stay in-band inside the pickle body, so
    spec-heavy payloads full of tiny arrays keep a short index header.
    When segment creation fails (shm pressure) the already-serialised
    body and buffers are shipped inline instead of being re-pickled.
    Without the shm transport the payload ships as one in-band pickle
    blob.
    """
    if not shm_transport_enabled():
        return _inline_payload(_dumps_anchored(obj, anchors))
    raws: list[memoryview] = []

    def _export(buffer: pickle.PickleBuffer) -> bool:
        # A truthy return keeps the buffer in-band (PEP 574).
        raw = buffer.raw()
        if raw.nbytes < _OOB_INLINE_MAX:
            return True
        raws.append(raw)
        return False

    body = _dumps_anchored(obj, anchors, buffer_callback=_export)
    sections: list[memoryview] = [memoryview(body), *raws]
    header = 16 + 16 * len(sections)
    offsets: list[int] = []
    cursor = header
    for section in sections:
        cursor = _align_oob(cursor)
        offsets.append(cursor)
        cursor += section.nbytes
    segment = _new_segment(cursor)
    if segment is None:
        return PayloadHandle(
            digest=_digest_sections(sections),
            size=sum(section.nbytes for section in sections),
            blob=body,
            oob_buffers=tuple(bytes(raw) for raw in sections[1:]),
        )
    name = segment.name
    try:
        buf = segment.buf
        struct.pack_into("<8sQ", buf, 0, _OOB_MAGIC, len(sections))
        for index, (offset, section) in enumerate(zip(offsets, sections)):
            struct.pack_into("<QQ", buf, 16 + 16 * index, offset, section.nbytes)
            buf[offset:offset + section.nbytes] = section
    finally:
        segment.close()
    return PayloadHandle(
        digest=_digest_sections(sections),
        size=cursor,
        segment=name,
        header=header,
    )


def _memoise(
    key: str, loader: Callable[[], tuple[object, object]]
) -> object:
    """LRU-memoise a deserialised payload in this (worker) process.

    ``loader`` returns ``(payload, attachment)``; the attachment (a
    :class:`_SegmentAttachment` for zero-copy payloads, else ``None``)
    is pinned alongside the cache entry and released on eviction, so
    views into shared memory stay valid for exactly as long as the
    payload they belong to is cached.
    """
    try:
        entry = _shared_cache.pop(key)
    except KeyError:
        entry = loader()
    _shared_cache[key] = entry
    while len(_shared_cache) > _SHARED_CACHE_LIMIT:
        _, (_, attachment) = _shared_cache.popitem(last=False)
        _release_attachment(attachment)
    return entry[0]


class _AnchorPickler(pickle.Pickler):
    """Pickler replacing anchor objects with tiny persistent references.

    Payloads of one dispatch session frequently embed the same heavy
    object (the batch's coverage set, reachable through router factories
    *and* selection metrics).  Pickling those payloads through this class
    stores ``(index)`` wherever an anchor object appears, so the anchor
    bytes exist exactly once — in the session's anchor payload.
    """

    def __init__(
        self,
        buffer: io.BytesIO,
        anchors: Sequence[object],
        buffer_callback: Callable | None = None,
    ) -> None:
        super().__init__(
            buffer,
            protocol=pickle.HIGHEST_PROTOCOL,
            buffer_callback=buffer_callback,
        )
        self._anchor_ids = {id(obj): index for index, obj in enumerate(anchors)}

    def persistent_id(self, obj: object):  # noqa: D102 - pickle hook
        return self._anchor_ids.get(id(obj))


class _AnchorUnpickler(pickle.Unpickler):
    """Unpickler resolving persistent references against loaded anchors."""

    def __init__(
        self,
        buffer,
        anchors: Sequence[object],
        buffers: Iterable[memoryview] | None = None,
    ) -> None:
        super().__init__(buffer, buffers=buffers)
        self._anchors = anchors

    def persistent_load(self, pid):  # noqa: D102 - pickle hook
        return self._anchors[pid]


def _dumps_anchored(
    payload: object,
    anchors: Sequence[object],
    buffer_callback: Callable | None = None,
) -> bytes:
    buffer = io.BytesIO()
    _AnchorPickler(buffer, anchors, buffer_callback).dump(payload)
    return buffer.getvalue()


def _loads_anchored(
    blob: bytes,
    anchors: Sequence[object],
    buffers: Sequence[bytes] | None = None,
) -> object:
    return _AnchorUnpickler(io.BytesIO(blob), anchors, buffers=buffers).load()


def _load_oob(
    handle: PayloadHandle, anchors: Sequence[object]
) -> tuple[object, _SegmentAttachment]:
    """Deserialise an out-of-band payload as views over its segment.

    The pickle body is streamed straight out of the attached segment and
    every protocol-5 buffer is handed to the unpickler as a *read-only*
    memoryview slice, so numpy arrays come back as views of shared
    memory.  Only the index header is materialised — the returned
    attachment pins the mapping for the payload's cache lifetime.
    """
    global _worker_bytes_copied
    attachment = _acquire_segment(handle.segment)
    try:
        view = memoryview(attachment.shm.buf).toreadonly()
        magic, count = struct.unpack_from("<8sQ", view, 0)
        if magic != _OOB_MAGIC:
            raise TranspilerError(
                f"segment {handle.segment!r} is not an out-of-band payload"
            )
        table = [
            struct.unpack_from("<QQ", view, 16 + 16 * index)
            for index in range(count)
        ]
        body_offset, body_size = table[0]
        buffers = [view[offset:offset + size] for offset, size in table[1:]]
        reader = io.BufferedReader(
            _ViewReader(view[body_offset:body_offset + body_size])
        )
        payload = _AnchorUnpickler(reader, anchors, buffers=buffers).load()
    except BaseException:
        _release_attachment(attachment)
        raise
    _worker_bytes_copied += 16 + 16 * count
    return payload, attachment


def _load_payload(
    handle: PayloadHandle,
    anchor_handle: PayloadHandle | None = None,
) -> object:
    """Deserialise a payload handle, memoised by content digest.

    Runs inside worker processes.  The expensive work — attaching the
    segment (or receiving the blob) and unpickling coverage-set
    polytopes, gate objects, numpy arrays — happens at most once per worker
    per payload.  Segment handles rebuild their arrays as read-only
    views over the attached segment; inline handles unpickle the bytes
    that rode the chunk (counted in the worker's ``bytes_copied``).
    A segment that vanished before the attach raises
    :class:`~repro.exceptions.TransportError`, which the dispatch layer
    treats as recoverable (replay with a republished payload) rather
    than a task bug.
    """
    anchors: Sequence[object] = ()
    key = handle.digest
    if anchor_handle is not None:
        anchors = _load_payload(anchor_handle)
        key = f"{anchor_handle.digest}:{handle.digest}"

    def loader() -> tuple[object, _SegmentAttachment | None]:
        global _worker_bytes_copied
        if handle.segment is not None:
            return _load_oob(handle, anchors)
        _worker_bytes_copied += handle.size
        return _loads_anchored(handle.blob, anchors, handle.oob_buffers), None

    return _memoise(key, loader)


def _check_deadline(deadline: float | None) -> None:
    """Raise :class:`DeadlineExceededError` once ``deadline`` has passed.

    ``deadline`` is an absolute ``time.monotonic()`` instant.
    ``CLOCK_MONOTONIC`` is system-wide on the platforms the process
    transport supports, so a deadline stamped by the dispatcher is
    meaningful inside a worker process too — the worker abandons the
    rest of its chunk at the next task boundary instead of computing
    results nobody will collect.
    """
    if deadline is not None and time.monotonic() >= deadline:
        raise DeadlineExceededError(
            "request deadline expired before its trials completed"
        )


def _run_tasks(
    fn: Callable[[object, object], object],
    shared: object,
    tasks: Sequence[object],
    faults: "ChunkFaults | None",
    deadline: float | None = None,
) -> list[object]:
    """Evaluate a chunk's tasks, firing any injected faults positionally."""
    if faults is None and deadline is None:
        return [fn(shared, task) for task in tasks]
    results: list[object] = []
    for offset, task in enumerate(tasks):
        _check_deadline(deadline)
        if faults is not None:
            faults.before_task(offset)
        result = fn(shared, task)
        if faults is not None:
            result = faults.after_task(offset, result)
        results.append(result)
    return results


def _run_session_chunk(
    anchor_handle: PayloadHandle | None,
    payload_handle: PayloadHandle,
    fn: Callable[[object, object], object],
    tasks: Sequence[object],
    faults: "ChunkFaults | None" = None,
    deadline: float | None = None,
) -> tuple[list[object], int]:
    """Evaluate one streamed chunk against its anchored payload."""
    global _worker_bytes_copied
    before = _worker_bytes_copied
    if faults is not None:
        faults.check_transport()
    _check_deadline(deadline)
    shared = _load_payload(payload_handle, anchor_handle)
    results = _run_tasks(fn, shared, tasks, faults, deadline)
    return results, _worker_bytes_copied - before


def _run_local_chunk(
    fn: Callable[[object, object], object],
    shared: object,
    tasks: Sequence[object],
    faults: "ChunkFaults | None" = None,
    deadline: float | None = None,
) -> list[object]:
    """In-process chunk evaluation: serial, thread and degraded attempts."""
    if faults is not None:
        faults.check_transport()
    return _run_tasks(fn, shared, tasks, faults, deadline)


def _chunk(tasks: Sequence[_Task], size: int) -> Iterator[Sequence[_Task]]:
    for start in range(0, len(tasks), size):
        yield tasks[start:start + size]


class _ChunkRecord:
    """One submitted chunk, kept from :meth:`DispatchSession.submit` until
    its ``wrapped`` future settles, across every replay and downgrade.

    ``ordinal`` numbers the session's chunks in submit order: it is the
    fault plan's chunk ordinal and the remote wire's chunk id.
    ``faults`` carries the injected failures of the first attempt only
    and ``attempts`` counts replays.  ``raw``, ``generation`` and
    ``launched`` describe the current attempt on a process pool (its
    future, the pool incarnation and the launch instant), which the
    session watchdog reads to spot hung chunks.
    """

    __slots__ = (
        "ordinal", "slot", "tasks", "faults", "deadline", "attempts",
        "wrapped", "raw", "generation", "launched",
    )

    def __init__(
        self,
        ordinal: int,
        slot: int,
        tasks: Sequence[object],
        faults: "ChunkFaults | None",
        deadline: float | None,
    ) -> None:
        self.ordinal = ordinal
        self.slot = slot
        self.tasks = tasks
        self.faults = faults
        self.deadline = deadline
        self.attempts = 0
        self.wrapped: concurrent.futures.Future = concurrent.futures.Future()
        self.raw: concurrent.futures.Future | None = None
        self.generation = -1
        self.launched = 0.0


class DispatchSession:
    """Incremental shared-payload dispatch onto one executor.

    Heavy payloads are registered one at a time (:meth:`add_payload`),
    light task chunks are submitted against a registered payload
    (:meth:`submit`, returning one future per chunk whose result is the
    list of that chunk's outputs, in task order), and :meth:`close`
    releases every transport resource once all futures have drained.
    :meth:`TrialExecutor.map_shared` is one session used once.  Use it
    as a context manager so segments are unlinked even when a worker
    raises.

    The session is the chunk ledger of every transport — inline, thread
    pool, process pool and remote hosts — and so their one recovery
    controller.  It splits each submit into chunks, resolves the fault
    plan per chunk, keeps one :class:`_ChunkRecord` per chunk until its
    future settles and makes every retry decision: an expired deadline
    settles the chunk with :class:`DeadlineExceededError` (never
    replayed, counted under ``deadline_expirations``), a task bug
    propagates, and recoverable worker or transport loss disarms the
    chunk's faults, counts ``retries``/``lost_tasks``, lets the
    transport repair itself and replays the chunk (same tasks, same
    seeds — byte-identical).  A chunk that failed more often than
    ``MIRAGE_TASK_RETRIES`` allows steps down to in-process execution
    against the dispatcher's own payload object, counted under
    ``executor_downgrades``.  The fault plan, retry budget and task
    timeout are read once, when the session opens.  Fault ordinals (one
    trial counter, one chunk counter) are assigned on the submitting
    thread, so injected failures strike exact positions regardless of
    worker scheduling.

    A transport supplies only its chunk size (:meth:`_chunk_size`), how
    one attempt starts (:meth:`_launch`, which reports back through
    :meth:`_completed` or :meth:`_failed`), its repair step
    (:meth:`_repair`) and how a replay waits (:meth:`_replay`).
    """

    def __init__(
        self, executor: "TrialExecutor", fn: Callable[[Any, Any], Any]
    ) -> None:
        self.fn = fn
        self._executor = executor
        # Each slot holds its payload in a 1-tuple, so a ``None`` payload
        # stays distinguishable from a released slot.  The dispatcher's
        # own reference is also the payload of degraded chunks.
        self._payloads: list[tuple[object] | None] = []
        self._closed = False
        self._lock = threading.Lock()
        self._inflight: dict[int, _ChunkRecord] = {}
        self._chunk_ordinal = 0
        self._fault_plan = FaultPlan.from_env()
        self._fault_trials = 0
        self._retry_budget = task_retries()
        self._task_timeout = task_timeout()

    # -- payload slots -------------------------------------------------------

    def add_payload(self, payload: object) -> int:
        """Register a heavy payload; returns its slot for :meth:`submit`."""
        self._payloads.append((payload,))
        return len(self._payloads) - 1

    def release(self, slot: int) -> None:
        """Drop payload ``slot``'s resources once its futures have drained.

        Callers must have collected every future submitted against the
        slot first; streaming drivers call this per circuit so a long
        batch holds only a bounded number of payloads (and shared-memory
        segments) at any moment, rather than all of them until
        :meth:`close`.  Releasing a slot twice is a no-op.
        """
        self._payloads[slot] = None

    def _payload(self, slot: int) -> object:
        """Slot ``slot``'s payload object; a released slot raises."""
        entry = self._payloads[slot]
        if entry is None:
            raise TranspilerError(f"payload slot {slot} is released")
        return entry[0]

    # -- the ledger ----------------------------------------------------------

    def submit(
        self,
        slot: int,
        tasks: Sequence[object],
        *,
        deadline: float | None = None,
    ) -> list[concurrent.futures.Future]:
        """Dispatch ``tasks`` against payload ``slot`` as chunked futures.

        ``deadline`` is an optional absolute ``time.monotonic()`` instant:
        chunks past it settle with
        :class:`~repro.exceptions.DeadlineExceededError` instead of
        running (or finishing) their tasks, without disturbing sibling
        chunks or the pool.  Expiry is counted under the executor's
        ``deadline_expirations`` dispatch counter and is never retried.
        Submitting to a released slot raises :class:`TranspilerError`
        before anything is dispatched.
        """
        self._payload(slot)
        batch = list(tasks)
        records: list[_ChunkRecord] = []
        for chunk in _chunk(batch, self._chunk_size(len(batch))):
            ordinal = self._chunk_ordinal
            self._chunk_ordinal += 1
            faults = None
            if self._fault_plan is not None:
                start = self._fault_trials
                self._fault_trials += len(chunk)
                faults = self._fault_plan.chunk_faults(
                    "trial", start, len(chunk), ordinal
                )
            records.append(_ChunkRecord(ordinal, slot, chunk, faults, deadline))
        with self._lock:
            self._inflight.update((r.ordinal, r) for r in records)
        self._executor._count_dispatch(chunks=len(records), tasks=len(batch))
        for record in records:
            self._dispatch(record)
        return [record.wrapped for record in records]

    def _dispatch(self, record: _ChunkRecord) -> None:
        """Start one attempt of ``record`` unless its deadline has passed."""
        if self._expired(record, "before its chunk was dispatched"):
            return
        try:
            self._launch(record)
        except BaseException as error:  # noqa: BLE001 - settle, don't lose
            self._failed(record, error)

    def _expired(self, record: _ChunkRecord, when: str) -> bool:
        """Settle ``record`` as expired if its deadline has passed."""
        if record.deadline is None or time.monotonic() < record.deadline:
            return False
        self._settle(
            record, error=DeadlineExceededError(f"request deadline expired {when}")
        )
        return True

    def _completed(
        self, record: _ChunkRecord, results: list, bytes_copied: int = 0
    ) -> None:
        """Settle an attempt's results, or fail it on a corrupt one."""
        try:
            _guard_chunk_results(results)
        except CorruptResultError as error:
            self._failed(record, error)
        else:
            self._settle(record, results, bytes_copied=bytes_copied)

    def _failed(self, record: _ChunkRecord, error: BaseException) -> None:
        """The retry decision for one failed attempt of ``record``."""
        if record.wrapped.done():
            return
        if not _is_retryable(error):
            # Task bugs would fail identically on replay, and an expired
            # deadline is terminal: both settle the chunk.
            self._settle(record, error=error)
            return
        record.faults = None  # replays run clean
        record.attempts += 1
        self._executor._count_dispatch(retries=1, lost_tasks=len(record.tasks))
        self._repair(record, error)
        if record.attempts > self._retry_budget:
            self._degrade(record)
        else:
            self._replay(record)

    def _degrade(self, record: _ChunkRecord) -> None:
        """Step a chunk down the executor ladder, off its transport."""
        self._executor._count_dispatch(executor_downgrades=1)
        self._launch_degraded(record)

    def _launch_degraded(self, record: _ChunkRecord) -> None:
        """Run a degraded chunk in-process on a dedicated thread.

        The failure may have been reported on a pool's result thread,
        which must not run a whole chunk; the chunk runs inline only
        when no thread can start (interpreter shutdown).
        """
        try:
            threading.Thread(
                target=self._run_degraded,
                args=(record,),
                name="mirage-degraded-chunk",
                daemon=True,
            ).start()
        except RuntimeError:  # pragma: no cover - interpreter shutdown
            self._run_degraded(record)

    def _run_degraded(self, record: _ChunkRecord) -> None:
        """The in-process rung: no transport, no faults, no further retry."""
        try:
            results = _guard_chunk_results(
                _run_local_chunk(
                    self.fn,
                    self._payload(record.slot),
                    record.tasks,
                    None,
                    record.deadline,
                )
            )
        except BaseException as error:  # noqa: BLE001 - settle, don't lose
            self._settle(record, error=error)
        else:
            self._settle(record, results)

    def _settle(
        self,
        record: _ChunkRecord,
        results: list | None = None,
        *,
        error: BaseException | None = None,
        bytes_copied: int = 0,
    ) -> None:
        """Resolve ``record``'s future; only the first settle counts."""
        with self._lock:
            if self._inflight.pop(record.ordinal, None) is None:
                return
        if bytes_copied:
            self._executor._count_dispatch(bytes_copied=bytes_copied)
        if error is None:
            record.wrapped.set_result(results)
            return
        if isinstance(error, DeadlineExceededError):
            self._executor._count_dispatch(deadline_expirations=1)
        record.wrapped.set_exception(error)

    # -- transport hooks -----------------------------------------------------

    def _chunk_size(self, count: int) -> int:
        """Tasks per chunk: :data:`CHUNKS_PER_WORKER` chunks per worker."""
        workers = self._executor.max_workers or os.cpu_count() or 1
        return max(1, math.ceil(count / (workers * CHUNKS_PER_WORKER)))

    def _launch(self, record: _ChunkRecord) -> None:
        """Start one attempt; report through :meth:`_completed`/:meth:`_failed`."""
        raise NotImplementedError

    def _repair(self, record: _ChunkRecord, error: BaseException) -> None:
        """Mend the transport after ``record`` lost an attempt to ``error``."""

    def _replay(self, record: _ChunkRecord) -> None:
        """Start the next attempt after a capped exponential backoff.

        The backoff is waited out on the thread that reported the
        failure; a remote stream thread thus replays its own lost chunk
        (requeued first), reconnecting on the way.
        """
        time.sleep(_retry_backoff(record.attempts))
        self._dispatch(record)

    # -- lifecycle -----------------------------------------------------------

    def outstanding(self) -> int:
        """Number of submitted chunk futures that have not completed."""
        with self._lock:
            return len(self._inflight)

    def close(self) -> None:
        """Wait for in-flight futures and release transport resources."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            pending = [record.wrapped for record in self._inflight.values()]
        concurrent.futures.wait(pending)

    def __enter__(self) -> "DispatchSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class _LocalDispatchSession(DispatchSession):
    """In-process sessions: attempts run against the payload object itself.

    No process boundary means no serialisation, nothing to repair and
    nothing to wait out between replays; injected crashes and transport
    faults still take the ledger's replay path.
    """

    def _launch(self, record: _ChunkRecord) -> None:
        try:
            results = _run_local_chunk(
                self.fn,
                self._payload(record.slot),
                record.tasks,
                record.faults,
                record.deadline,
            )
        except BaseException as error:  # noqa: BLE001 - settle, don't lose
            self._failed(record, error)
        else:
            self._completed(record, results)

    def _replay(self, record: _ChunkRecord) -> None:
        self._dispatch(record)


class _InlineDispatchSession(_LocalDispatchSession):
    """Serial session: one chunk per submit, settled before submit returns."""

    def _chunk_size(self, count: int) -> int:
        return max(1, count)

    def submit(
        self,
        slot: int,
        tasks: Sequence[object],
        *,
        deadline: float | None = None,
    ) -> list[concurrent.futures.Future]:
        futures = super().submit(slot, tasks, deadline=deadline)
        # Attempts ran on this thread; a degraded chunk runs on its own.
        concurrent.futures.wait(futures)
        return futures


class _ThreadDispatchSession(_LocalDispatchSession):
    """Thread-pool session: chunks close over the payload, no serialisation."""

    def _chunk_size(self, count: int) -> int:
        workers = self._executor.max_workers or os.cpu_count() or 1
        return max(1, math.ceil(count / workers))

    def _launch(self, record: _ChunkRecord) -> None:
        self._executor._ensure_pool().submit(super()._launch, record)


class _ShmDispatchSession(DispatchSession):
    """Process-pool session over published payloads.

    Anchor objects are pickled once; every payload added later is pickled
    with persistent references to them, so the batch's coverage set is
    serialised exactly once.  With shared memory each payload lives in a
    segment and chunks carry only the two :class:`PayloadHandle`
    descriptors — O(1) transport.  Without it (``MIRAGE_SHM_DISABLE=1``)
    the session runs unchanged over inline blobs riding every chunk.

    Segment creation failing (shm pressure) degrades that one payload
    to inline shipping — correct, observable via ``bytes_shipped``, and
    bounded to the chunks of the affected payload.

    Recovery is the ledger's; this transport adds its repair step — a
    pool respawn after worker loss and the shm → inline blob transport
    downgrade after segment loss — capped exponential backoff between
    replays, and a watchdog: a chunk outliving ``MIRAGE_TASK_TIMEOUT``
    has the pool torn down under it (the broken-pool replay path takes
    over), and a chunk past its request deadline settles as expired
    while the pool keeps running.
    """

    def __init__(
        self,
        executor: "ProcessExecutor",
        fn: Callable[[Any, Any], Any],
        anchors: Sequence[object] = (),
    ) -> None:
        super().__init__(executor, fn)
        self._anchors = tuple(anchors)
        self._handles: list[PayloadHandle | None] = []
        self._segments: list[str] = []
        self._anchor_handle: PayloadHandle | None = None
        self._watchdog: threading.Thread | None = None
        # True once any chunk carried a deadline — keeps the watchdog
        # running even when no MIRAGE_TASK_TIMEOUT is configured.
        self._deadline_active = False
        if self._anchors:
            self._anchor_handle = self._record(self._anchors, ())
            executor._count_dispatch(shared_pickles=1)

    def _record(
        self, payload: object, anchors: Sequence[object]
    ) -> PayloadHandle:
        handle = _publish_object(payload, anchors)
        if handle.segment is not None:
            self._segments.append(handle.segment)
            self._executor._count_dispatch(
                shm_segments=1, header_bytes=handle.header
            )
        return handle

    def add_payload(self, payload: object) -> int:
        self._handles.append(self._record(payload, self._anchors))
        self._executor._count_dispatch(payload_pickles=1)
        return super().add_payload(payload)

    def release(self, slot: int) -> None:
        handle = self._handles[slot]
        if handle is None:
            return
        super().release(slot)
        self._handles[slot] = None
        if handle.segment is not None:
            with contextlib.suppress(ValueError):
                self._segments.remove(handle.segment)
            _unlink_segment(handle.segment)

    # -- transport hooks -----------------------------------------------------

    def _launch(self, record: _ChunkRecord) -> None:
        """Submit one attempt to the executor's current pool."""
        executor = self._executor
        if record.deadline is not None:
            self._deadline_active = True
        self._ensure_watchdog()
        self._payload(record.slot)
        handle = self._handles[record.slot]
        if record.attempts == 0:
            anchor = self._anchor_handle
            executor._count_dispatch(
                bytes_shipped=handle.shipped_bytes
                + (anchor.shipped_bytes if anchor is not None else 0)
            )
        record.generation = executor._pool_generation
        record.launched = time.monotonic()
        try:
            raw = executor._ensure_pool().submit(
                _run_session_chunk,
                self._anchor_handle,
                handle,
                self.fn,
                record.tasks,
                record.faults,
                record.deadline,
            )
        except concurrent.futures.BrokenExecutor:
            raise
        except RuntimeError as error:
            # Pool shut down between generation read and submit.
            raise _DispatchInterrupted(str(error)) from error
        record.raw = raw
        raw.add_done_callback(functools.partial(self._on_raw_done, record))

    def _on_raw_done(
        self, record: _ChunkRecord, done: concurrent.futures.Future
    ) -> None:
        try:
            error: BaseException | None = done.exception()
        except concurrent.futures.CancelledError as cancelled:
            error = cancelled
        if error is not None:
            self._failed(record, error)
            return
        results, copied = done.result()
        self._completed(record, results, bytes_copied=copied)

    def _replay(self, record: _ChunkRecord) -> None:
        # Failures arrive on the pool's result thread, which must not
        # sleep: a timer waits out the backoff instead.
        timer = threading.Timer(
            _retry_backoff(record.attempts), self._dispatch, args=(record,)
        )
        timer.daemon = True
        timer.start()

    def _repair(self, record: _ChunkRecord, error: BaseException) -> None:
        """Respawn the pool after worker loss; downgrade a lost segment."""
        if isinstance(
            error,
            (
                concurrent.futures.BrokenExecutor,
                concurrent.futures.CancelledError,
                _DispatchInterrupted,
            ),
        ):
            self._executor._respawn_pool(record.generation)
        if isinstance(error, TransportError) and not isinstance(
            error, CorruptResultError
        ):
            self._downgrade_transport(record.slot)

    def _downgrade_transport(self, slot: int) -> None:
        """Step a payload down the transport ladder: shm → inline blob.

        Republishes the slot's payload from the dispatcher's retained
        reference as a plain pickle blob riding every future chunk —
        byte-identical results, no segment to lose twice.  The vanished
        (or still-live-but-suspect) segment is unlinked; workers that
        already memoised the payload keep their mapping (POSIX semantics)
        and are unaffected.
        """
        handle = self._handles[slot]
        if handle is None or handle.segment is None:
            return
        self._handles[slot] = _inline_payload(
            _dumps_anchored(self._payload(slot), self._anchors)
        )
        with contextlib.suppress(ValueError):
            self._segments.remove(handle.segment)
        _unlink_segment(handle.segment)
        self._executor._count_dispatch(transport_downgrades=1)

    # -- watchdog ----------------------------------------------------------

    def _ensure_watchdog(self) -> None:
        if self._watchdog is not None or (
            self._task_timeout is None and not self._deadline_active
        ):
            return
        with self._lock:
            if self._watchdog is None:
                self._watchdog = threading.Thread(
                    target=self._watchdog_loop,
                    name="mirage-dispatch-watchdog",
                    daemon=True,
                )
                self._watchdog.start()

    def _watchdog_loop(self) -> None:
        """Recover chunks that outlive their timeout or request deadline.

        Two distinct clocks run here.  A chunk past the *task timeout*
        (``MIRAGE_TASK_TIMEOUT``) is presumed hung: a process pool
        cannot cancel a running task, so it is recovered by force —
        terminating the workers breaks the pool, every pending raw
        future fails with ``BrokenProcessPool``, and the crash-replay
        path re-dispatches the lost chunks on a fresh pool.  A chunk
        past its *request deadline* is not hung, just late: its wrapped
        future settles with :class:`DeadlineExceededError` while the
        pool — and every sibling chunk on it — keeps running
        undisturbed (the worker abandons the expired chunk itself at
        its next task boundary).  Runs until the session is closed
        *and* nothing is left in flight, so a close racing a hang still
        drains.
        """
        timeout = self._task_timeout
        while True:
            with self._lock:
                records = list(self._inflight.values())
            if self._closed and not records:
                return
            now = time.monotonic()
            for record in records:
                if self._expired(record, "with its chunk still in flight"):
                    continue
                raw = record.raw
                if (
                    timeout is not None
                    and raw is not None
                    and not raw.done()
                    and now - record.launched > timeout
                ):
                    self._executor._respawn_pool(record.generation)
            if timeout is None:
                time.sleep(0.02)
            else:
                time.sleep(max(0.01, min(0.05, timeout / 4)))

    def close(self) -> None:
        if self._closed:
            return
        try:
            super().close()
        finally:
            while self._segments:
                _unlink_segment(self._segments.pop())


class TrialExecutor:
    """Strategy object evaluating a function over a batch of trial tasks.

    Work reaches an executor only through a :class:`DispatchSession`
    of its transport, which :meth:`open_dispatch` opens: the batch
    engine keeps one open for a whole batch, and :meth:`map_shared` is
    one session used once.
    """

    name: str = "executor"

    def __init__(self) -> None:
        self.dispatch_stats: dict[str, int] = {
            "shared_pickles": 0,
            "payload_pickles": 0,
            "chunks": 0,
            "tasks": 0,
            "shm_segments": 0,
            "bytes_shipped": 0,
            "header_bytes": 0,
            "bytes_copied": 0,
            # Fault-tolerance counters — all zero on a clean run.
            "retries": 0,
            "respawns": 0,
            "lost_tasks": 0,
            "executor_downgrades": 0,
            "transport_downgrades": 0,
            # Remote-transport recovery counters — all zero on a clean
            # run, and always zero on purely local executors.
            "reconnects": 0,
            "host_downgrades": 0,
            "frames_garbled": 0,
            # Chunks abandoned at an expired request deadline — zero on
            # a clean run (and on any run without deadlines).
            "deadline_expirations": 0,
        }
        # Chunk completion callbacks fold worker-side copy counts in from
        # the pool's collector thread, so counter updates are locked.
        self._stats_lock = threading.Lock()
        # Long-lived owners (the service tier) lease the executor around
        # each dispatch; close() refuses while leases are active so a
        # shutdown racing an in-flight batch fails loudly instead of
        # tearing the pool out from under it.
        self._lease_lock = threading.Lock()
        self._lease_count = 0

    @contextlib.contextmanager
    def lease(self) -> Iterator["TrialExecutor"]:
        """Mark this executor in-use for the duration of a dispatch.

        Purely advisory bookkeeping: concurrent leases are fine (the
        dispatch paths are thread-safe), but :meth:`close` raises while
        any lease is held, protecting warm, shared executors from a
        shutdown racing an in-flight batch.
        """
        with self._lease_lock:
            self._lease_count += 1
        try:
            yield self
        finally:
            with self._lease_lock:
                self._lease_count -= 1

    def active_leases(self) -> int:
        """Number of currently held :meth:`lease` contexts."""
        with self._lease_lock:
            return self._lease_count

    def _ensure_unleased(self) -> None:
        active = self.active_leases()
        if active:
            raise TranspilerError(
                f"cannot close executor with {active} active lease(s)"
            )

    def prewarm(self) -> int:
        """Spin up worker resources ahead of the first dispatch.

        Returns the number of workers warmed (0 for executors with no
        pool).  Warm pools turn the first request's latency from
        pool-spawn-plus-work into work alone; the service tier calls
        this at startup.
        """
        return 0

    def worker_pids(self) -> list[int]:
        """PIDs of live worker processes (empty for in-process executors).

        Exposed so lifecycle tests (and operators) can assert that a
        shutdown left no workers behind.
        """
        return []

    def map_shared(
        self,
        fn: Callable[[_Shared, _Task], _Result],
        shared: _Shared,
        tasks: Iterable[_Task],
    ) -> list[_Result]:
        """Apply ``fn(shared, task)`` to every task, in input order.

        ``shared`` is the heavy payload common to all tasks (lowerings,
        coverage set, router factory); ``tasks`` are the light per-trial records.
        One :class:`DispatchSession` of this executor's transport carries
        the call: ``shared`` is added once — serialised once, where the
        transport serialises — and every task is submitted against it,
        so the session's chunking, fault plan and recovery apply.  A
        batch of at most one task runs inline on the calling thread.
        """
        batch = list(tasks)
        if len(batch) <= 1:
            # Not worth a round-trip (keeps single-trial runs pool-free).
            self._count_dispatch(chunks=len(batch), tasks=len(batch))
            return [fn(shared, task) for task in batch]
        with self.open_dispatch(fn) as session:
            slot = session.add_payload(shared)
            futures = session.submit(slot, batch)
            return [result for future in futures for result in future.result()]

    def open_dispatch(
        self,
        fn: Callable[[_Shared, _Task], _Result],
        anchors: Sequence[object] = (),
    ) -> DispatchSession:
        """Open a :class:`DispatchSession` of this executor's transport.

        ``anchors`` are heavy objects shared by many payloads (the batch's
        coverage set); transports that serialise payloads ship each anchor
        exactly once.
        """
        return _InlineDispatchSession(self, fn)

    def _count_dispatch(self, **deltas: int) -> None:
        with self._stats_lock:
            for key, value in deltas.items():
                self.dispatch_stats[key] += value

    def close(self) -> None:
        """Release any worker resources.  Idempotent.

        Raises :class:`TranspilerError` while a :meth:`lease` is active.
        """
        self._ensure_unleased()

    def __enter__(self) -> "TrialExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialExecutor(TrialExecutor):
    """Evaluate trials one after another in the calling process."""

    name = "serial"


class _PoolExecutor(TrialExecutor):
    """Shared lazy-pool plumbing for the ``concurrent.futures`` backends."""

    def __init__(self, max_workers: int | None = None) -> None:
        super().__init__()
        if max_workers is not None and max_workers < 1:
            raise TranspilerError("max_workers must be a positive integer")
        self.max_workers = max_workers
        self._pool: concurrent.futures.Executor | None = None
        # Pool generation fences concurrent respawn requests: a chunk
        # records the generation it was submitted under, and a respawn
        # only tears the pool down if that generation is still current —
        # ten chunks dying with one pool trigger one respawn, not ten.
        self._pool_lock = threading.Lock()
        self._pool_generation = 0

    def _make_pool(self) -> concurrent.futures.Executor:
        raise NotImplementedError

    def _ensure_pool(self) -> concurrent.futures.Executor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = self._make_pool()
            return self._pool

    def _terminate_pool(self, pool: concurrent.futures.Executor) -> None:
        """Stop a (possibly broken) pool without waiting on lost work."""
        with contextlib.suppress(Exception):
            pool.shutdown(wait=False)

    def _respawn_pool(self, generation: int) -> None:
        """Replace the pool if ``generation`` is still the live one.

        Called from chunk-failure and watchdog paths.  The generation
        fence makes the call idempotent per pool incarnation: losers of
        the race observe a newer generation and return — their chunks
        will simply be re-submitted on the already-fresh pool.
        """
        with self._pool_lock:
            if generation != self._pool_generation or self._pool is None:
                return
            pool = self._pool
            self._pool = None
            self._pool_generation += 1
        self._terminate_pool(pool)
        self._count_dispatch(respawns=1)
        # A killed worker may have died between attaching a segment and
        # its cleanup handler; reclaim anything its death orphaned.
        reap_stale_segments()

    def prewarm(self) -> int:
        """Create the pool and spawn its full worker complement now.

        One probe task per worker forces ``concurrent.futures`` to spawn
        every worker up front (both pool flavours start workers on
        demand), so the first real dispatch pays no spawn latency.
        Idempotent: a warm pool absorbs the probes in microseconds.
        """
        pool = self._ensure_pool()
        workers = self.max_workers or os.cpu_count() or 1
        probes = [pool.submit(_prewarm_probe, index) for index in range(workers)]
        concurrent.futures.wait(probes)
        return workers

    def close(self) -> None:
        self._ensure_unleased()
        with self._pool_lock:
            pool = self._pool
            self._pool = None
            self._pool_generation += 1
        if pool is not None:
            pool.shutdown(wait=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(max_workers={self.max_workers})"


class ThreadExecutor(_PoolExecutor):
    """Evaluate trials on a thread pool."""

    name = "threads"

    def _make_pool(self) -> concurrent.futures.Executor:
        return concurrent.futures.ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="repro-trial"
        )

    def open_dispatch(
        self,
        fn: Callable[[_Shared, _Task], _Result],
        anchors: Sequence[object] = (),
    ) -> DispatchSession:
        return _ThreadDispatchSession(self, fn)


class ProcessExecutor(_PoolExecutor):
    """Evaluate trials on a process pool.

    The dispatched function must be a module-level callable and every
    payload and task must be picklable;
    :func:`repro.transpiler.passes.run_trial` over a
    :class:`~repro.transpiler.passes.TrialSpec` payload and
    :class:`~repro.transpiler.passes.TrialRef` tasks satisfies both.

    Every dispatch runs on :class:`_ShmDispatchSession` and its
    recovery: each payload is pickled once per session, published via a
    shared-memory segment when available (chunks then carry an O(1)
    handle instead of the payload bytes) or shipped as a blob once per
    chunk otherwise, and workers memoise deserialisation by content
    digest.
    """

    name = "processes"

    def _make_pool(self) -> concurrent.futures.Executor:
        # Resolve the compiled route scorer before the workers fork, so on
        # a cold cache they inherit it instead of each compiling it.
        load_routec()
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.max_workers
        )

    def worker_pids(self) -> list[int]:
        """PIDs of the pool's live worker processes (empty when cold)."""
        with self._pool_lock:
            pool = self._pool
        if pool is None:
            return []
        return [
            process.pid
            for process in getattr(pool, "_processes", {}).values()
            if process.is_alive()
        ]

    def _terminate_pool(self, pool: concurrent.futures.Executor) -> None:
        """Kill a pool's workers outright before shutting it down.

        ``shutdown(wait=False)`` alone would leave a *hung* worker
        running (and holding its task) indefinitely; killing the worker
        processes breaks the pool, which fails every pending future with
        ``BrokenProcessPool`` — exactly the signal the chunk ledger
        recovers from.
        """
        for process in list(getattr(pool, "_processes", {}).values()):
            with contextlib.suppress(Exception):
                process.kill()
        with contextlib.suppress(Exception):
            pool.shutdown(wait=False)

    def open_dispatch(
        self,
        fn: Callable[[_Shared, _Task], _Result],
        anchors: Sequence[object] = (),
    ) -> DispatchSession:
        return _ShmDispatchSession(self, fn, anchors)


#: Registry of executor names accepted by :func:`resolve_executor` (and by
#: the ``executor=`` argument of the transpile APIs).
EXECUTORS: dict[str, type[TrialExecutor]] = {
    "serial": SerialExecutor,
    "threads": ThreadExecutor,
    "thread": ThreadExecutor,
    "processes": ProcessExecutor,
    "process": ProcessExecutor,
}


def resolve_executor(
    executor: "str | TrialExecutor | None",
    max_workers: int | None = None,
) -> TrialExecutor:
    """Coerce an executor specification into a :class:`TrialExecutor`.

    ``None`` means serial; a string is looked up in :data:`EXECUTORS`; an
    existing executor instance is passed through unchanged (``max_workers``
    is ignored for instances — configure them at construction time).
    """
    if executor is None:
        return SerialExecutor()
    if isinstance(executor, TrialExecutor):
        return executor
    if isinstance(executor, str):
        name = executor.lower()
        if name == "remote":
            # Imported lazily: the remote client builds on this module.
            from repro.transpiler.remote.client import RemoteExecutor

            return RemoteExecutor(max_streams=max_workers)
        try:
            cls = EXECUTORS[name]
        except KeyError:
            known = ", ".join(sorted(set(EXECUTORS) | {"remote"}))
            raise TranspilerError(
                f"unknown executor {executor!r} (known: {known})"
            ) from None
        if cls is SerialExecutor:
            return cls()
        return cls(max_workers=max_workers)
    raise TranspilerError(f"cannot interpret {executor!r} as a trial executor")


def owns_executor(executor: "str | TrialExecutor | None") -> bool:
    """Whether :func:`resolve_executor` would create (and thus own) a new
    executor for this specification, rather than borrow an instance."""
    return not isinstance(executor, TrialExecutor)


@contextlib.contextmanager
def executor_scope(
    executor: "str | TrialExecutor | None",
    max_workers: int | None = None,
) -> Iterator[TrialExecutor]:
    """Resolve an executor spec, closing on exit only executors we created.

    Borrowed :class:`TrialExecutor` instances are yielded untouched and
    left open for the caller to reuse; executors built from ``None`` or a
    string spec are closed when the scope exits.
    """
    resolved = resolve_executor(executor, max_workers)
    try:
        yield resolved
    finally:
        if owns_executor(executor):
            resolved.close()
