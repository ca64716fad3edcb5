"""Client side of multi-host dispatch: ``RemoteExecutor``.

:class:`RemoteExecutor` is a :class:`~repro.transpiler.executors.TrialExecutor`
whose workers are ``mirage-worker-host`` processes, possibly on other
machines.  Its dispatch session keeps the exact contract of the local
transports — payloads registered once, chunks submitted as futures,
results in input order, byte-identical outputs — and adds the fault
ladder a network demands:

* **Content addressing** — the session's anchor tuple and every payload
  are pickled once (anchored persistent references, same bytes as the
  process-pool transport) and shipped to each host at most once, keyed by
  content digest; hosts memoise across connections *and sessions*, so
  a reconnect asks ``HAS`` before re-shipping.
* **Work stealing** — every host runs ``MIRAGE_REMOTE_STREAMS``
  connection threads that pull chunks from one shared session queue,
  so fast hosts drain more of the batch; results reassemble in input
  order through per-chunk futures regardless of which host ran what.
* **The fault ladder** — connection loss, garbled frames
  (CRC-detected), stale hosts (heartbeats silent for
  ``HEARTBEAT_MISSES`` × ``MIRAGE_REMOTE_HEARTBEAT_S``) and expired
  reads all surface as typed
  :class:`~repro.exceptions.RemoteTransportError`; the stream
  reconnects with capped exponential backoff and replays **only the
  lost chunk**, byte-identically, with injected faults disarmed.  A
  host that cannot be reached within the ``MIRAGE_TASK_RETRIES``
  budget is marked down (``host_downgrades``) and its work
  redistributes to the remaining hosts; when *no* host remains, each
  chunk takes the ledger's one in-process rung, like every other
  transport — still byte-identical.
  Recovery is visible only through the ``reconnects`` /
  ``host_downgrades`` / ``frames_garbled`` dispatch counters (all zero
  on a clean run) next to the established ``retries`` /
  ``lost_tasks`` / ``executor_downgrades`` family.

Network fault injection (``drop_conn:chunk:N``, ``garble:frame:N``,
``partition:host:N``, ``slow_net:chunk:N`` in ``MIRAGE_FAULT_PLAN``)
is resolved client-side against first sends only, so replays can never
re-trigger the fault that lost them.
"""

from __future__ import annotations

import collections
import contextlib
import os
import socket
import threading
import time
from typing import Any, Callable, Sequence

from repro.config import MirageConfig
from repro.exceptions import (
    DeadlineExceededError,
    GarbledFrameError,
    ProtocolVersionError,
    RemoteTransportError,
    TranspilerError,
)
from repro.transpiler.executors import (
    DispatchSession,
    TrialExecutor,
    _ChunkRecord,
    _PickledDispatchSession,
    _retry_backoff,
)
from repro.transpiler.remote import protocol
from repro.transpiler.remote.protocol import (
    BYE,
    CHUNK,
    ERROR,
    HAS,
    HAVE,
    HEARTBEAT,
    HEARTBEAT_MISSES,
    HELLO,
    HELLO_ACK,
    PAYLOAD,
    PAYLOAD_ACK,
    PROTOCOL_VERSION,
    RESULT,
    FrameReader,
    HostAddress,
    pack_message,
    unpack_message,
    write_frame,
)

#: Socket receive slice while interleaving liveness checks (seconds).
_RECV_SLICE_S = 0.05


class _HostDown(TranspilerError):
    """Internal control flow: this stream's host is marked down."""


def _recv_step(
    conn: socket.socket, reader: FrameReader
) -> "tuple[int, bytes] | None":
    """The next buffered frame, or ``None`` after one receive slice.

    Callers loop on it, checking their own clocks between slices.
    """
    frame = reader.next_frame()
    if frame is not None:
        return frame
    conn.settimeout(_RECV_SLICE_S)
    try:
        data = conn.recv(1 << 16)
    except socket.timeout:
        return None
    except OSError as error:
        raise RemoteTransportError(f"connection lost: {error}") from error
    if not data:
        raise RemoteTransportError("connection closed by host")
    reader.feed(data)
    return None


def _read_reply(
    conn: socket.socket,
    reader: FrameReader,
    address: HostAddress,
    budget: float,
) -> tuple[int, bytes]:
    """Next frame on ``conn`` within ``budget`` seconds."""
    deadline = time.monotonic() + budget
    while True:
        frame = _recv_step(conn, reader)
        if frame is not None:
            return frame
        if time.monotonic() >= deadline:
            raise RemoteTransportError(
                f"host {address} did not reply within {budget:.1f}s"
            )


def _handshake(
    conn: socket.socket,
    reader: FrameReader,
    address: HostAddress,
    budget: float,
) -> tuple[int, dict]:
    """HELLO → HELLO_ACK → version check; returns (bytes sent, the ack)."""
    sent = write_frame(
        conn,
        HELLO,
        pack_message({"version": PROTOCOL_VERSION, "pid": os.getpid()}),
    )
    ftype, payload = _read_reply(conn, reader, address, budget)
    if ftype != HELLO_ACK:
        raise RemoteTransportError(
            f"expected HELLO_ACK, got frame type {ftype}"
        )
    ack = unpack_message(payload)
    if ack.get("version") != PROTOCOL_VERSION:
        raise ProtocolVersionError(
            f"host {address} speaks protocol {ack.get('version')!r}, "
            f"this client speaks {PROTOCOL_VERSION}"
        )
    return sent, ack


class _HostState:
    """Session-side bookkeeping of one worker host."""

    __slots__ = ("index", "address", "down", "pid", "shipped", "ship_lock")

    def __init__(self, index: int, address: HostAddress) -> None:
        self.index = index
        self.address = address
        self.down = False
        self.pid: int | None = None
        #: Digests confirmed present on the current host *process*
        #: (cleared when a reconnect finds a different host pid).
        self.shipped: set[str] = set()
        #: Serialises payload shipping across this host's streams so
        #: each payload travels at most once per host.
        self.ship_lock = threading.Lock()


class _Stream:
    """One connection thread's state: socket, frame buffer, reconnect flag."""

    __slots__ = ("host", "conn", "reader", "reconnecting")

    def __init__(self, host: _HostState) -> None:
        self.host = host
        self.conn: socket.socket | None = None
        self.reader: FrameReader | None = None
        self.reconnecting = False

    def abandon(self) -> None:
        """Drop the connection; the next use re-establishes (a reconnect)."""
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover - close race
                pass
            self.conn = None
            self.reader = None
            self.reconnecting = True

    def goodbye(self) -> None:
        """Orderly close at session end — not counted as a reconnect."""
        if self.conn is not None:
            try:
                write_frame(self.conn, BYE, b"")
            except Exception:
                pass
            try:
                self.conn.close()
            except OSError:  # pragma: no cover - close race
                pass
            self.conn = None
            self.reader = None


class _RemoteDispatchSession(_PickledDispatchSession):
    """Streaming dispatch session over the framed host protocol.

    Payloads are published exactly as for the process pool (one anchored
    pickle blob each, keyed by its SHA-1 digest) and shipped to each host
    at most once.  Recovery is the ledger's: a chunk lost to connection
    loss, a garbled frame, a stale host or a task-level fault is
    replayed through :meth:`DispatchSession._failed` —
    ``retries``/``lost_tasks`` counted, faults disarmed, capped backoff,
    and the in-process rung once the budget is spent.  This transport
    adds its repair (the broken stream is abandoned, so its next chunk
    reconnects, and a garbled frame counts ``frames_garbled``) and its
    host ladder: a host whose connect budget is spent is marked down and
    its chunks go to the remaining hosts; with no host left, chunks take
    the in-process rung directly.
    """

    def __init__(
        self,
        executor: "RemoteExecutor",
        fn: Callable[[Any, Any], Any],
        anchors: Sequence[object] = (),
    ) -> None:
        super().__init__(executor, fn, anchors)
        self._hosts = [
            _HostState(index, address)
            for index, address in enumerate(executor.addresses)
        ]
        self._queue: "collections.deque[_ChunkRecord]" = collections.deque()
        self._cv = threading.Condition()
        self._threads: list[threading.Thread] = []
        self._closing = False
        self._live_hosts = len(self._hosts)

    # -- transport hooks -----------------------------------------------------

    def _launch(self, record: _ChunkRecord) -> None:
        self._enqueue(record, front=record.attempts > 0)

    def _enqueue(self, record: _ChunkRecord, front: bool) -> None:
        """Queue a chunk for the streams — replays and chunks handed back
        by a downed host go first — or degrade it when no host is left."""
        self._ensure_threads()
        with self._cv:
            live = self._live_hosts > 0
            if live:
                if front:
                    self._queue.appendleft(record)
                else:
                    self._queue.append(record)
                self._cv.notify_all()
        if not live:
            self._degrade(record)

    def _ensure_threads(self) -> None:
        if self._threads:
            return
        streams = self._executor.streams_per_host
        for host in self._hosts:
            for stream_index in range(streams):
                thread = threading.Thread(
                    target=self._stream_main,
                    args=(_Stream(host),),
                    name=f"mirage-remote-h{host.index}s{stream_index}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)

    # -- stream threads ------------------------------------------------------

    def _stream_main(self, stream: _Stream) -> None:
        host = stream.host
        try:
            while True:
                with self._cv:
                    while (
                        not self._queue
                        and not self._closing
                        and not host.down
                    ):
                        self._cv.wait(0.1)
                    if host.down or (self._closing and not self._queue):
                        return
                    if not self._queue:
                        continue
                    record = self._queue.popleft()
                self._process(stream, record)
                if host.down:
                    return
        finally:
            stream.goodbye()

    def _process(self, stream: _Stream, record: _ChunkRecord) -> None:
        """One remote attempt of a chunk on this stream."""
        if self._expired(record, "before its chunk was dispatched"):
            return
        try:
            results = self._execute_remote(stream, record)
        except _HostDown:
            # Host is gone (marked by us or a sibling stream): hand the
            # chunk back for the remaining hosts — not a chunk failure.
            self._enqueue(record, front=True)
        except ProtocolVersionError:
            self._mark_host_down(stream.host)
            self._enqueue(record, front=True)
        except BaseException as error:  # noqa: BLE001 - settle, don't lose
            if isinstance(error, OSError):
                error = RemoteTransportError(f"connection lost: {error}")
            if isinstance(error, RemoteTransportError):
                # Connection-level loss desynchronises the stream.
                # Task-level retryables (a corrupt result, an injected
                # crash) leave it reusable — no reconnect.
                stream.abandon()
                if isinstance(error, GarbledFrameError):
                    self._executor._count_dispatch(frames_garbled=1)
            self._failed(record, error)
        else:
            self._completed(record, results)

    def _net_fault(self, action: str, record: _ChunkRecord) -> bool:
        """Whether network fault ``action`` strikes this chunk's send;
        like every injected fault it targets the first attempt only."""
        return (
            record.attempts == 0
            and self._fault_plan is not None
            and self._fault_plan.network_fault(action, record.ordinal)
        )

    # -- connection management -----------------------------------------------

    def _mark_host_down(self, host: _HostState) -> None:
        drained: list[_ChunkRecord] = []
        with self._cv:
            if not host.down:
                host.down = True
                self._live_hosts -= 1
                self._executor._count_dispatch(host_downgrades=1)
            if self._live_hosts == 0:
                drained = list(self._queue)
                self._queue.clear()
            self._cv.notify_all()
        for record in drained:
            self._degrade(record)

    def _partition_injected(self, host: _HostState) -> bool:
        return self._fault_plan is not None and self._fault_plan.network_fault(
            "partition", host.index
        )

    def _ensure_connection(self, stream: _Stream) -> None:
        """Connect and handshake, with backoff; raises ``_HostDown`` when
        the host's connect budget is spent."""
        if stream.conn is not None:
            return
        host = stream.host
        error: Exception | None = None
        # One connect plus one reconnect per unit of the retry budget.
        for attempt in range(self._config.task_retries + 1):
            if attempt:
                time.sleep(_retry_backoff(attempt))
            if host.down:
                raise _HostDown(str(host.address))
            if self._partition_injected(host):
                error = RemoteTransportError(
                    f"fault injection: host {host.index} "
                    f"({host.address}) is partitioned"
                )
                continue
            try:
                self._connect_once(stream)
                return
            except (OSError, RemoteTransportError) as caught:
                stream.abandon()
                error = caught
        self._mark_host_down(host)
        raise _HostDown(f"{host.address}: {error}")

    def _connect_once(self, stream: _Stream) -> None:
        host = stream.host
        budget = self._config.remote_connect_s
        conn = host.address.connect(budget)
        reader = FrameReader()
        try:
            sent, ack = _handshake(conn, reader, host.address, budget)
        except BaseException:
            with contextlib.suppress(OSError):
                conn.close()
            raise
        stream.conn, stream.reader = conn, reader
        self._executor._count_dispatch(bytes_shipped=sent)
        pid = ack.get("pid")
        with self._cv:
            if host.pid != pid:
                # A different host process answered: whatever the old
                # one spooled is gone.
                host.shipped.clear()
                host.pid = pid
        self._executor._note_host(host.index, pid, ack.get("cpu_count"))
        if stream.reconnecting:
            stream.reconnecting = False
            self._executor._count_dispatch(reconnects=1)

    def _reply(self, stream: _Stream) -> tuple[int, bytes]:
        """Next frame on this stream within the connect budget."""
        return _read_reply(
            stream.conn,
            stream.reader,
            stream.host.address,
            self._config.remote_connect_s,
        )

    def _ensure_hosted(
        self, stream: _Stream, digest: str, blob: bytes
    ) -> None:
        """Ship one content-addressed payload to this host at most once."""
        host = stream.host
        with host.ship_lock:
            if digest in host.shipped:
                return
            sent = write_frame(
                stream.conn, HAS, pack_message({"digest": digest})
            )
            ftype, payload = self._reply(stream)
            if ftype != HAVE:
                raise RemoteTransportError(
                    f"expected HAVE, got frame type {ftype}"
                )
            if not unpack_message(payload).get("have"):
                sent += write_frame(
                    stream.conn,
                    PAYLOAD,
                    pack_message({"digest": digest, "blob": blob}),
                )
                ftype, _ = self._reply(stream)
                if ftype != PAYLOAD_ACK:
                    raise RemoteTransportError(
                        f"expected PAYLOAD_ACK, got frame type {ftype}"
                    )
            self._executor._count_dispatch(bytes_shipped=sent)
            host.shipped.add(digest)

    # -- the remote chunk round-trip -----------------------------------------

    def _execute_remote(
        self, stream: _Stream, record: _ChunkRecord
    ) -> list:
        self._ensure_connection(stream)
        handle = self._handle(record.slot)
        anchor = self._anchor_handle
        if anchor is not None:
            self._ensure_hosted(stream, anchor.digest, anchor.blob)
        self._ensure_hosted(stream, handle.digest, handle.blob)
        deadline_s = None
        if record.deadline is not None:
            deadline_s = max(0.0, record.deadline - time.monotonic())
        request = {
            "chunk": record.ordinal,
            "anchor": anchor.digest if anchor is not None else None,
            "payload": handle.digest,
            "fn": self.fn,
            "tasks": tuple(record.tasks),
            "deadline_s": deadline_s,
            "faults": record.faults,
            "delay_s": (
                self._config.fault_slow_seconds
                if self._net_fault("slow_net", record)
                else 0.0
            ),
        }
        sent = write_frame(
            stream.conn,
            CHUNK,
            pack_message(request),
            garble=self._net_fault("garble", record),
        )
        self._executor._count_dispatch(bytes_shipped=sent)
        if self._net_fault("drop_conn", record):
            stream.abandon()
            raise RemoteTransportError(
                "fault injection: connection dropped after chunk send "
                "(drop_conn)"
            )
        return self._await_result(stream, record)

    def _await_result(
        self, stream: _Stream, record: _ChunkRecord
    ) -> list:
        """Receive the chunk's result, policing heartbeats and deadlines."""
        conn, reader = stream.conn, stream.reader
        sent_at = time.monotonic()
        last_heard = sent_at
        heartbeat_s = self._config.remote_heartbeat_s
        stale_after = HEARTBEAT_MISSES * heartbeat_s
        timeout = self._config.task_timeout
        while True:
            now = time.monotonic()
            if record.deadline is not None and now >= record.deadline:
                # The result would arrive late on a desynchronised
                # stream — abandon the connection along with the chunk.
                stream.abandon()
                raise DeadlineExceededError(
                    "request deadline expired with its chunk on a remote host"
                )
            if timeout is not None and now - sent_at > timeout:
                stream.abandon()
                raise RemoteTransportError(
                    f"chunk {record.ordinal} exceeded MIRAGE_TASK_TIMEOUT "
                    f"({timeout:.1f}s) on host {stream.host.address}"
                )
            if now - last_heard > stale_after:
                stream.abandon()
                raise RemoteTransportError(
                    f"host {stream.host.address} went stale — no frame for "
                    f"{now - last_heard:.1f}s "
                    f"(heartbeat interval {heartbeat_s:.1f}s)"
                )
            frame = _recv_step(conn, reader)
            if frame is None:
                continue
            ftype, payload = frame
            last_heard = time.monotonic()
            if ftype == HEARTBEAT:
                continue
            if ftype == ERROR:
                message = unpack_message(payload)
                stream.abandon()
                if message.get("code") == "garbled":
                    raise GarbledFrameError(
                        f"host reported a garbled frame: "
                        f"{message.get('detail')}"
                    )
                raise RemoteTransportError(
                    f"host protocol error: {message.get('detail')}"
                )
            if ftype == RESULT:
                message = unpack_message(payload)
                if message.get("chunk") != record.ordinal:
                    stream.abandon()
                    raise RemoteTransportError(
                        "result frame for a different chunk — stream "
                        "desynchronised"
                    )
                if message.get("ok"):
                    return message["results"]
                raise message["error"]
            stream.abandon()
            raise RemoteTransportError(
                f"unexpected frame type {ftype} while awaiting a result"
            )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        try:
            # Settle every outstanding future first (stream threads are
            # still consuming the queue), then stop the threads.
            super().close()
        finally:
            with self._cv:
                self._closing = True
                self._cv.notify_all()
            for thread in self._threads:
                thread.join(timeout=10.0)
            self._threads = []


class RemoteExecutor(TrialExecutor):
    """Evaluate trials on remote ``mirage-worker-host`` processes.

    ``hosts`` is a list of host addresses (Unix socket paths or
    ``host:port`` strings, or :class:`HostAddress` instances); when
    omitted it comes from ``MIRAGE_REMOTE_HOSTS`` (comma-separated).
    ``max_streams`` bounds concurrent chunk streams per host (default
    ``MIRAGE_REMOTE_STREAMS``).  The mapped function and every task
    must be picklable, exactly as for :class:`ProcessExecutor`.

    Fixed-seed results are byte-identical to every local executor —
    including under connection loss, garbled frames, partitioned or
    killed hosts — because recovery replays lost chunks with their
    original tasks and seeds, and with every host down runs them
    in-process with the same function and payloads.
    """

    name = "remote"

    def __init__(
        self,
        hosts: "Sequence[HostAddress | str] | None" = None,
        *,
        max_streams: int | None = None,
    ) -> None:
        super().__init__()
        config = MirageConfig.from_env()
        if hosts is None:
            addresses = protocol.parse_hosts(config.remote_hosts)
        else:
            addresses = [
                host
                if isinstance(host, HostAddress)
                else protocol.parse_host(host)
                for host in hosts
            ]
        if not addresses:
            raise TranspilerError(
                "RemoteExecutor needs at least one worker host — pass "
                "hosts=[...] or set MIRAGE_REMOTE_HOSTS"
            )
        self.addresses: tuple[HostAddress, ...] = tuple(addresses)
        self.streams_per_host = (
            max(1, max_streams)
            if max_streams is not None
            else config.remote_streams
        )
        self._connect_s = config.remote_connect_s
        self._host_meta: dict[int, dict] = {}

    @property
    def max_workers(self) -> int:
        """Total concurrent chunk streams (drives chunk sizing)."""
        return self.total_streams()

    def total_streams(self) -> int:
        return len(self.addresses) * self.streams_per_host

    def _note_host(
        self, index: int, pid: "int | None", cpu_count: "int | None"
    ) -> None:
        with self._stats_lock:
            self._host_meta[index] = {
                "address": str(self.addresses[index]),
                "pid": pid,
                "cpu_count": cpu_count,
            }

    def host_meta(self) -> list[dict]:
        """Metadata of every host this executor has handshaken with."""
        with self._stats_lock:
            return [
                dict(self._host_meta[index])
                for index in sorted(self._host_meta)
            ]

    def worker_pids(self) -> list[int]:
        """PIDs of handshaken worker hosts (not children of this process)."""
        return [
            meta["pid"]
            for meta in self.host_meta()
            if meta.get("pid") is not None
        ]

    def prewarm(self) -> int:
        """Handshake every configured host once; returns how many answered.

        Unreachable hosts are *not* marked down — they may come up
        before the first dispatch; the session-level connect budget
        deals with hosts that stay dark.
        """
        reachable = 0
        for index, address in enumerate(self.addresses):
            try:
                conn = address.connect(self._connect_s)
            except OSError:
                continue
            try:
                _, ack = _handshake(
                    conn, FrameReader(), address, self._connect_s
                )
                self._note_host(index, ack.get("pid"), ack.get("cpu_count"))
                reachable += 1
                write_frame(conn, BYE, b"")
            except (OSError, RemoteTransportError):
                continue
            finally:
                with contextlib.suppress(OSError):
                    conn.close()
        return reachable

    def open_dispatch(
        self,
        fn: Callable[[Any, Any], Any],
        anchors: Sequence[object] = (),
    ) -> DispatchSession:
        return _RemoteDispatchSession(self, fn, anchors)
