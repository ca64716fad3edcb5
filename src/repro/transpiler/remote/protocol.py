"""Framed wire protocol between the remote dispatcher and worker hosts.

Every message travelling a worker-host connection is one *frame*::

    MAGIC(4)  TYPE(1)  LENGTH(4, LE)  CRC32(4, LE)  PAYLOAD(LENGTH)

``MAGIC`` rejects cross-protocol garbage at the first byte, ``LENGTH``
prefixes the payload so frames can be reassembled from a byte stream,
and ``CRC32`` covers the payload so a corrupted frame is *detected*
rather than deserialised — a garbled frame surfaces as
:class:`~repro.exceptions.GarbledFrameError` on whichever side read it,
and the connection is abandoned (its state is unknowable).  Frame
payloads are pickled Python objects (:func:`pack_message` /
:func:`unpack_message`); the protocol is a trusted-cluster transport,
like the ``multiprocessing`` pipes it generalises, not an
internet-facing one.

Connections open with a version handshake: the client sends ``HELLO``
carrying :data:`PROTOCOL_VERSION` and the host answers ``HELLO_ACK``
with its own version, pid and core count.  A mismatch raises
:class:`~repro.exceptions.ProtocolVersionError` — a deployment bug, not
a retriable fault.

The module also owns the heartbeat miss budget and the
naming scheme of worker-host socket files (``mirage_host_<pid>_<token>``
in the temp directory) and payload spool directories
(``mirage_spool_<pid>_<token>``), both pid-keyed so the janitor
(:func:`repro.transpiler.remote.host.reap_stale_host_files`) can reclaim them
once their host dies.
"""

from __future__ import annotations

import dataclasses
import io
import os
import pickle
import secrets
import socket
import struct
import tempfile
import zlib

from repro.exceptions import (
    GarbledFrameError,
    RemoteTransportError,
    TranspilerError,
)

#: Protocol revision; bumped on any frame-format or message change.
PROTOCOL_VERSION = 1

#: First bytes of every frame.
MAGIC = b"MRGF"

_HEADER = struct.Struct("<4sBII")

#: Upper bound on one frame's payload — a sanity fence against reading
#: a corrupted length prefix as a multi-gigabyte allocation.
MAX_FRAME_BYTES = 1 << 31

# -- frame types -------------------------------------------------------------

HELLO = 1        # client → host: {"version", "pid"}
HELLO_ACK = 2    # host → client: {"version", "pid", "cpu_count", "smoke"}
PING = 3         # client → host: liveness probe
PONG = 4         # host → client: probe reply
HAS = 5          # client → host: {"digest"} — payload presence query
HAVE = 6         # host → client: {"digest", "have"}
PAYLOAD = 7      # client → host: {"digest", "blob"} — store payload
PAYLOAD_ACK = 8  # host → client: {"digest"}
CHUNK = 9        # client → host: one chunk of tasks to run
RESULT = 10      # host → client: {"chunk", "ok", "results"|"error"}
HEARTBEAT = 11   # host → client: {"chunk"} — compute still in progress
ERROR = 12       # host → client: {"code", "detail"} — protocol-level error
BYE = 13         # client → host: orderly goodbye


def pack_message(message: object) -> bytes:
    """Serialise one frame payload (highest-protocol pickle)."""
    return pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)


def unpack_message(payload: bytes) -> object:
    """Deserialise one frame payload."""
    return pickle.loads(payload)


def write_frame(
    sock: socket.socket, ftype: int, payload: bytes, garble: bool = False
) -> int:
    """Send one frame; returns the bytes written.

    With ``garble=True`` (fault injection only) one payload byte is
    flipped *after* the CRC was stamped, so the receiver's integrity
    check must catch it — exactly what line corruption looks like.
    Socket failures surface as
    :class:`~repro.exceptions.RemoteTransportError`.
    """
    crc = zlib.crc32(payload)
    data = bytearray(_HEADER.pack(MAGIC, ftype, len(payload), crc))
    data += payload
    if garble and payload:
        data[_HEADER.size + len(payload) // 2] ^= 0xFF
    try:
        sock.sendall(data)
    except OSError as error:
        raise RemoteTransportError(
            f"connection lost while sending frame: {error}"
        ) from error
    return len(data)


def _read_exact(sock: socket.socket, count: int) -> bytes:
    """Blocking read of exactly ``count`` bytes (host side)."""
    buffer = io.BytesIO()
    remaining = count
    while remaining:
        try:
            data = sock.recv(min(remaining, 1 << 20))
        except OSError as error:
            raise RemoteTransportError(
                f"connection lost while reading frame: {error}"
            ) from error
        if not data:
            raise RemoteTransportError(
                "connection closed mid-frame by the peer"
            )
        buffer.write(data)
        remaining -= len(data)
    return buffer.getvalue()


def _check_frame(
    magic: bytes, ftype: int, length: int, crc: int, payload: bytes
) -> tuple[int, bytes]:
    if magic != MAGIC:
        raise GarbledFrameError(
            f"bad frame magic {magic!r} — stream corrupt or foreign"
        )
    if zlib.crc32(payload) != crc:
        raise GarbledFrameError(
            f"frame type {ftype} failed its CRC check ({length} bytes)"
        )
    return ftype, payload


def read_frame(sock: socket.socket) -> tuple[int, bytes]:
    """Blocking read of one complete frame; returns ``(type, payload)``.

    Used host-side, where each connection is served by a dedicated
    thread.  A closed connection raises
    :class:`~repro.exceptions.RemoteTransportError`; a frame failing
    its magic or CRC check raises
    :class:`~repro.exceptions.GarbledFrameError`.
    """
    magic, ftype, length, crc = _HEADER.unpack(_read_exact(sock, _HEADER.size))
    if magic != MAGIC:
        raise GarbledFrameError(
            f"bad frame magic {magic!r} — stream corrupt or foreign"
        )
    if length > MAX_FRAME_BYTES:
        raise GarbledFrameError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    payload = _read_exact(sock, length) if length else b""
    return _check_frame(magic, ftype, length, crc, payload)


class FrameReader:
    """Incremental frame reassembly over a non-blocking byte stream.

    The client reads its sockets with short timeouts (it interleaves
    heartbeat/deadline bookkeeping with receiving), so a read may stop
    mid-frame; this buffer accumulates bytes via :meth:`feed` and
    yields complete frames via :meth:`next_frame` without ever losing a
    partial prefix.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        """Append freshly received bytes."""
        self._buffer += data

    def next_frame(self) -> tuple[int, bytes] | None:
        """Pop one complete frame, or ``None`` until more bytes arrive."""
        if len(self._buffer) < _HEADER.size:
            return None
        magic, ftype, length, crc = _HEADER.unpack_from(self._buffer)
        if magic != MAGIC:
            raise GarbledFrameError(
                f"bad frame magic {bytes(magic)!r} — stream corrupt or foreign"
            )
        if length > MAX_FRAME_BYTES:
            raise GarbledFrameError(
                f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte cap"
            )
        total = _HEADER.size + length
        if len(self._buffer) < total:
            return None
        payload = bytes(self._buffer[_HEADER.size:total])
        del self._buffer[:total]
        return _check_frame(magic, ftype, length, crc, payload)


# -- host addressing ---------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class HostAddress:
    """One worker-host endpoint: a Unix socket path or a TCP host:port."""

    unix_path: str | None = None
    tcp_host: str | None = None
    tcp_port: int | None = None

    def connect(self, timeout: float) -> socket.socket:
        """Open a connected socket to this host, or raise ``OSError``."""
        if self.unix_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(timeout)
                sock.connect(self.unix_path)
            except BaseException:
                sock.close()
                raise
            return sock
        return socket.create_connection(
            (self.tcp_host, self.tcp_port), timeout=timeout
        )

    def __str__(self) -> str:
        if self.unix_path is not None:
            return self.unix_path
        return f"{self.tcp_host}:{self.tcp_port}"


def parse_host(entry: str) -> HostAddress:
    """Parse one host spec: a socket path, or ``host:port`` for TCP.

    Anything containing a path separator (or ending in ``.sock``) is a
    Unix socket path; otherwise the entry must be ``host:port``.
    """
    spec = entry.strip()
    if not spec:
        raise TranspilerError("empty worker-host address")
    if os.sep in spec or spec.endswith(".sock"):
        return HostAddress(unix_path=spec)
    host, separator, port_text = spec.rpartition(":")
    try:
        if not separator or not host:
            raise ValueError(spec)
        return HostAddress(tcp_host=host, tcp_port=int(port_text))
    except ValueError:
        raise TranspilerError(
            f"bad worker-host address {spec!r} — expected a socket path "
            f"or host:port"
        ) from None


def parse_hosts(spec: str) -> list[HostAddress]:
    """Parse a comma-separated ``MIRAGE_REMOTE_HOSTS`` host list."""
    return [
        parse_host(entry) for entry in spec.split(",") if entry.strip()
    ]


#: Consecutive missed heartbeats before a host is presumed stale.
HEARTBEAT_MISSES = 3


# -- host resource naming ----------------------------------------------------

#: Prefix of worker-host Unix socket files (``mirage_host_<pid>_<token>``
#: under the temp directory).
HOST_SOCKET_PREFIX = "mirage_host_"

#: Prefix of worker-host payload spool directories
#: (``mirage_spool_<pid>_<token>`` under the temp directory).
SPOOL_PREFIX = "mirage_spool_"


def default_socket_path(token: str | None = None) -> str:
    """A fresh pid-keyed Unix socket path for a worker host."""
    token = token or secrets.token_hex(4)
    return os.path.join(
        tempfile.gettempdir(), f"{HOST_SOCKET_PREFIX}{os.getpid()}_{token}.sock"
    )


def default_spool_dir(token: str | None = None) -> str:
    """A fresh pid-keyed payload spool directory path for a worker host."""
    token = token or secrets.token_hex(4)
    return os.path.join(
        tempfile.gettempdir(), f"{SPOOL_PREFIX}{os.getpid()}_{token}"
    )
