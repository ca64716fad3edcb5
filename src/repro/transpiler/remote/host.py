"""The ``mirage-worker-host`` process: a remote trial-execution host.

A worker host is the multi-host analogue of one process-pool worker: it
listens on a Unix socket (default, pid-keyed under the temp directory)
or a TCP port, speaks the framed protocol of
:mod:`repro.transpiler.remote.protocol`, and evaluates chunks of trial
tasks against digest-addressed payloads.

Content addressing mirrors the process-pool transport: the client
ships the session's anchor tuple (the batch's coverage set) and each
circuit payload **once per host**, keyed by content digest; the host
spools the pickled bytes into a pid-keyed spool directory and memoises
deserialisation (LRU) exactly like a pool worker does — so chunks carry
only digests, O(1) transport bytes, and a reconnecting client can ask
``HAS`` instead of re-shipping.  Because the spool and the memo live in
the host *process*, payloads survive connection loss; they die with the
host, whereupon the janitor (:func:`reap_stale_host_files`, run at
every host startup) reclaims the socket file and spool of any dead host.

While computing a chunk the host emits ``HEARTBEAT`` frames every
``MIRAGE_REMOTE_HEARTBEAT_S`` seconds, so the client can tell a slow
chunk (heartbeats flowing) from a dead or partitioned host (silence)
without bounding legitimate compute time.  Injected task faults ride
the chunk as :class:`~repro.transpiler.faults.ChunkFaults` records and
fire exactly as they would in a pool worker — ``kill`` terminates the
whole host process (``os._exit``), which is precisely the host-kill
chaos mode the recovery ladder must absorb.

Run one with::

    mirage-worker-host --socket /tmp/my-host.sock
    # or:  python -m repro.transpiler.remote.host --tcp 127.0.0.1:7421

The process prints ``MIRAGE-HOST-READY <address>`` once listening.  Hosts
do not authenticate clients, so TCP binds are limited to loopback
addresses (:class:`~repro.exceptions.InsecureBindError` otherwise).
"""

from __future__ import annotations

import argparse
import contextlib
import ipaddress
import os
import pickle
import shutil
import signal
import socket
import tempfile
import threading
import time
from collections import OrderedDict

from repro.config import MirageConfig
from repro.exceptions import (
    GarbledFrameError,
    InsecureBindError,
    RemoteTransportError,
    TranspilerError,
)
from repro.transpiler.executors import (
    _SHARED_CACHE_LIMIT,
    _loads_anchored,
    _run_tasks,
)
from repro.transpiler.remote import protocol
from repro.transpiler.remote.protocol import (
    BYE,
    CHUNK,
    ERROR,
    HAS,
    HAVE,
    HELLO,
    HELLO_ACK,
    PAYLOAD,
    PAYLOAD_ACK,
    PING,
    PONG,
    PROTOCOL_VERSION,
    RESULT,
    HEARTBEAT,
    HOST_SOCKET_PREFIX,
    SPOOL_PREFIX,
    HostAddress,
    pack_message,
    read_frame,
    unpack_message,
    write_frame,
)


def require_loopback(host: str) -> None:
    """Raise :class:`InsecureBindError` unless ``host`` is a loopback address.

    Accepts ``localhost`` and loopback IP literals (``127.0.0.0/8``,
    ``::1``).  Other names are refused without resolving them.
    """
    if host == "localhost":
        return
    try:
        if ipaddress.ip_address(host).is_loopback:
            return
    except ValueError:
        pass
    raise InsecureBindError(
        f"refusing to listen on TCP {host!r}: worker hosts do not "
        f"authenticate clients, so TCP binds must be loopback (127.0.0.1, "
        f"::1 or localhost); use a Unix socket to serve this machine"
    )


def _pid_alive(pid: int) -> bool:
    """Whether a process with this pid currently exists."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid reused by another user
        return True
    return True


def _stale_owner(name: str, prefix: str) -> bool:
    """Whether ``name`` is ``<prefix><pid>_…`` with a dead owner pid."""
    if not name.startswith(prefix):
        return False
    pid_text = name[len(prefix):].split("_", 1)[0]
    try:
        pid = int(pid_text)
    except ValueError:
        return False
    return not _pid_alive(pid)


def reap_stale_host_files() -> list[str]:
    """Remove worker-host debris whose creating process is dead.

    Two sweeps of the temp directory, both keyed on the pid embedded in
    the resource name:

    * worker-host socket files ``mirage_host_<pid>_<token>.sock`` left
      by a killed ``mirage-worker-host``;
    * remote payload spool directories ``mirage_spool_<pid>_<token>`` of
      the same dead hosts.

    Resources owned by live processes, including this one, are never
    touched.  Returns the basenames of the removed sockets and spools.
    Worker hosts run the janitor at startup.
    """
    reclaimed: list[str] = []
    tmp_root = tempfile.gettempdir()
    try:
        tmp_names = os.listdir(tmp_root)
    except OSError:  # pragma: no cover - unreadable tempdir
        tmp_names = []
    for name in tmp_names:
        path = os.path.join(tmp_root, name)
        if _stale_owner(name, HOST_SOCKET_PREFIX) and not os.path.isdir(path):
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - racing another janitor
                continue
            reclaimed.append(name)
        elif _stale_owner(name, SPOOL_PREFIX) and os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
            reclaimed.append(name)
    return reclaimed


class WorkerHost:
    """One remote trial-execution host serving the framed protocol.

    Each accepted connection gets a dedicated handler thread; within a
    connection the protocol is strictly request/response (the client
    opens several connections — *streams* — per host for overlap).
    ``serve_forever`` blocks; :meth:`start` serves from a daemon thread
    for in-process use (tests); :meth:`close` stops the listener,
    removes the socket file and the spool directory.
    """

    def __init__(
        self,
        socket_path: str | None = None,
        *,
        tcp: "tuple[str, int] | None" = None,
        spool_dir: str | None = None,
        heartbeat_s: float | None = None,
    ) -> None:
        if tcp is not None:
            require_loopback(tcp[0])
        # Every host startup doubles as a janitor pass: dead siblings'
        # socket files and spools are reclaimed before this host adds
        # its own.
        reap_stale_host_files()
        self._heartbeat_s = (
            heartbeat_s
            if heartbeat_s is not None
            else MirageConfig.from_env().remote_heartbeat_s
        )
        self._spool_dir = spool_dir or protocol.default_spool_dir()
        os.makedirs(self._spool_dir, exist_ok=True)
        self._lock = threading.Lock()
        self._blobs: dict[str, str] = {}
        self._objects: "OrderedDict[str, object]" = OrderedDict()
        self._closed = False
        self._socket_path: str | None = None
        if tcp is not None:
            self._listener = socket.create_server(tcp)
            host, port = self._listener.getsockname()[:2]
            self.address = HostAddress(tcp_host=host, tcp_port=port)
        else:
            self._socket_path = socket_path or protocol.default_socket_path()
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self._socket_path)
            self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._listener.bind(self._socket_path)
            self._listener.listen()
            self.address = HostAddress(unix_path=self._socket_path)

    # -- payload store -------------------------------------------------------

    def has_payload(self, digest: str) -> bool:
        """Whether the spool already holds ``digest``'s bytes."""
        with self._lock:
            return digest in self._blobs

    def store_payload(self, digest: str, blob: bytes) -> None:
        """Spool one content-addressed payload (idempotent)."""
        with self._lock:
            if digest in self._blobs:
                return
            path = os.path.join(self._spool_dir, digest)
            temp = f"{path}.{threading.get_ident()}.tmp"
            with open(temp, "wb") as handle:
                handle.write(blob)
            os.replace(temp, path)
            self._blobs[digest] = path

    def _blob(self, digest: str) -> bytes:
        with self._lock:
            path = self._blobs.get(digest)
        if path is None:
            # A restarted host lost its spool; the client treats this
            # as recoverable transport loss and re-ships on replay.
            raise RemoteTransportError(
                f"payload {digest[:12]}… is not spooled on this host"
            )
        with open(path, "rb") as handle:
            return handle.read()

    def _memoised(self, key: str, loader) -> object:
        with self._lock:
            try:
                value = self._objects.pop(key)
                self._objects[key] = value
                return value
            except KeyError:
                pass
        value = loader()
        with self._lock:
            self._objects[key] = value
            while len(self._objects) > _SHARED_CACHE_LIMIT:
                self._objects.popitem(last=False)
        return value

    def _anchor_tuple(self, digest: str) -> tuple:
        """The deserialised anchor tuple for ``digest``, memoised."""
        return self._memoised(
            f"anchors:{digest}", lambda: tuple(pickle.loads(self._blob(digest)))
        )

    def _payload_object(self, digest: str, anchor_digest: str | None) -> object:
        anchors: tuple = ()
        if anchor_digest is not None:
            anchors = self._anchor_tuple(anchor_digest)
        key = f"{anchor_digest}:{digest}"
        return self._memoised(
            key, lambda: _loads_anchored(self._blob(digest), anchors)
        )

    # -- chunk execution -----------------------------------------------------

    def _execute(self, request: dict) -> list:
        """Run one chunk exactly as a pool worker would."""
        anchor_digest = request.get("anchor")
        faults = request.get("faults")
        shared = self._payload_object(request["payload"], anchor_digest)
        deadline = None
        if request.get("deadline_s") is not None:
            deadline = time.monotonic() + max(0.0, request["deadline_s"])
        return _run_tasks(
            request["fn"], shared, request["tasks"], faults, deadline
        )

    def _serve_chunk(self, conn: socket.socket, request: dict) -> None:
        """Compute one chunk, heartbeating until the result frame goes out."""
        delay = request.get("delay_s") or 0.0
        if delay > 0:
            # Injected slow_net: sit on the chunk in silence — no
            # heartbeats — so the client's staleness detector fires.
            time.sleep(delay)
        done = threading.Event()
        box: dict = {}

        def compute() -> None:
            try:
                box["results"] = self._execute(request)
            except BaseException as error:  # noqa: BLE001 - shipped to client
                box["error"] = error
            finally:
                done.set()

        worker = threading.Thread(
            target=compute, name="mirage-host-chunk", daemon=True
        )
        worker.start()
        while not done.wait(self._heartbeat_s):
            write_frame(
                conn, HEARTBEAT, pack_message({"chunk": request["chunk"]})
            )
        error = box.get("error")
        if error is None:
            reply = {
                "chunk": request["chunk"],
                "ok": True,
                "results": box["results"],
            }
            write_frame(conn, RESULT, pack_message(reply))
            return
        try:
            payload = pack_message(
                {"chunk": request["chunk"], "ok": False, "error": error}
            )
        except Exception:  # pragma: no cover - unpicklable task error
            payload = pack_message(
                {
                    "chunk": request["chunk"],
                    "ok": False,
                    "error": TranspilerError(repr(error)),
                }
            )
        write_frame(conn, RESULT, payload)

    # -- connection handling -------------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            ftype, payload = read_frame(conn)
            if ftype != HELLO:
                write_frame(
                    conn,
                    ERROR,
                    pack_message(
                        {"code": "protocol", "detail": "expected HELLO"}
                    ),
                )
                return
            hello = unpack_message(payload)
            write_frame(
                conn,
                HELLO_ACK,
                pack_message(
                    {
                        "version": PROTOCOL_VERSION,
                        "pid": os.getpid(),
                        "cpu_count": os.cpu_count() or 1,
                    }
                ),
            )
            if hello.get("version") != PROTOCOL_VERSION:
                # The client reads the ack, sees the mismatch and marks
                # this host down; nothing more to serve.
                return
            while True:
                try:
                    ftype, payload = read_frame(conn)
                except GarbledFrameError as error:
                    # The stream is unusable past a garbled frame; tell
                    # the client why, then drop the connection.
                    with contextlib.suppress(Exception):
                        write_frame(
                            conn,
                            ERROR,
                            pack_message(
                                {"code": "garbled", "detail": str(error)}
                            ),
                        )
                    return
                if ftype == BYE:
                    return
                if ftype == PING:
                    write_frame(conn, PONG, b"")
                elif ftype == HAS:
                    message = unpack_message(payload)
                    write_frame(
                        conn,
                        HAVE,
                        pack_message(
                            {
                                "digest": message["digest"],
                                "have": self.has_payload(message["digest"]),
                            }
                        ),
                    )
                elif ftype == PAYLOAD:
                    message = unpack_message(payload)
                    self.store_payload(message["digest"], message["blob"])
                    write_frame(
                        conn,
                        PAYLOAD_ACK,
                        pack_message({"digest": message["digest"]}),
                    )
                elif ftype == CHUNK:
                    self._serve_chunk(conn, unpack_message(payload))
                else:
                    write_frame(
                        conn,
                        ERROR,
                        pack_message(
                            {
                                "code": "protocol",
                                "detail": f"unexpected frame type {ftype}",
                            }
                        ),
                    )
                    return
        except RemoteTransportError:
            # Client went away (connection loss, injected drop) — the
            # client side owns recovery; this handler just retires.
            return
        finally:
            with contextlib.suppress(Exception):
                conn.close()

    def serve_forever(self) -> None:
        """Accept and serve connections until :meth:`close`."""
        while not self._closed:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="mirage-host-conn",
                daemon=True,
            )
            thread.start()

    def start(self) -> threading.Thread:
        """Serve from a daemon thread (in-process hosts for tests)."""
        thread = threading.Thread(
            target=self.serve_forever, name="mirage-host-accept", daemon=True
        )
        thread.start()
        return thread

    def close(self) -> None:
        """Stop listening and remove the socket file and spool directory."""
        if self._closed:
            return
        self._closed = True
        with contextlib.suppress(Exception):
            self._listener.close()
        if self._socket_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self._socket_path)
        shutil.rmtree(self._spool_dir, ignore_errors=True)

    def __enter__(self) -> "WorkerHost":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point — the ``mirage-worker-host`` console script."""
    parser = argparse.ArgumentParser(
        prog="mirage-worker-host",
        description=(
            "Serve MIRAGE transpilation trial chunks over the framed "
            "remote-dispatch protocol."
        ),
    )
    parser.add_argument(
        "--socket",
        default=None,
        help=(
            "Unix socket path to listen on (default: a fresh pid-keyed "
            "path under the temp directory)"
        ),
    )
    parser.add_argument(
        "--tcp",
        default=None,
        metavar="HOST:PORT",
        help=(
            "listen on TCP instead of a Unix socket (port 0 picks one); "
            "HOST must be a loopback address"
        ),
    )
    parser.add_argument(
        "--heartbeat",
        type=float,
        default=None,
        metavar="SECONDS",
        help="heartbeat interval (default: MIRAGE_REMOTE_HEARTBEAT_S or 2.0)",
    )
    args = parser.parse_args(argv)
    tcp = None
    if args.tcp is not None:
        address = protocol.parse_host(args.tcp)
        if address.tcp_host is None:
            parser.error("--tcp expects HOST:PORT")
        tcp = (address.tcp_host, address.tcp_port)
        try:
            require_loopback(address.tcp_host)
        except InsecureBindError as error:
            parser.error(str(error))
    host = WorkerHost(
        socket_path=args.socket, tcp=tcp, heartbeat_s=args.heartbeat
    )

    def _terminate(signum: int, frame: object) -> None:
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _terminate)
    print(f"MIRAGE-HOST-READY {host.address}", flush=True)
    try:
        host.serve_forever()
    except (KeyboardInterrupt, SystemExit):
        pass
    finally:
        host.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
