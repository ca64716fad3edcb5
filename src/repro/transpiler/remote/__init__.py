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

# The host module is resolved on first attribute access, so that
# ``python -m repro.transpiler.remote.host`` does not find it imported
# by its own package before running it as ``__main__``.
_LAZY_EXPORTS = {
    "WorkerHost": "repro.transpiler.remote.host",
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        import importlib

        module = importlib.import_module(_LAZY_EXPORTS[name])
        return getattr(module, name)
    raise AttributeError(
        f"module 'repro.transpiler.remote' has no attribute {name!r}"
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
