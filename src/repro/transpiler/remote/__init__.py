"""Multi-host trial dispatch: a chaos-hardened remote transport.

The package splits along the wire: :mod:`~repro.transpiler.remote.protocol`
owns the framed protocol (CRC-checked length-prefixed frames, the
version handshake and host addressing),
:mod:`~repro.transpiler.remote.host` is the ``mirage-worker-host``
server process, and :mod:`~repro.transpiler.remote.client` is the
:class:`RemoteExecutor` the batch engine mounts like any other
:class:`~repro.transpiler.executors.TrialExecutor`
(``executor="remote"``).
"""

from repro.transpiler.remote.client import RemoteExecutor
from repro.transpiler.remote.host import WorkerHost
from repro.transpiler.remote.protocol import (
    HEARTBEAT_MISSES,
    PROTOCOL_VERSION,
    FrameReader,
    HostAddress,
    parse_host,
    parse_hosts,
    read_frame,
    write_frame,
)

__all__ = [
    "RemoteExecutor",
    "WorkerHost",
    "HostAddress",
    "FrameReader",
    "PROTOCOL_VERSION",
    "HEARTBEAT_MISSES",
    "parse_host",
    "parse_hosts",
    "read_frame",
    "write_frame",
]
