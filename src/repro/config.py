"""Every environment knob the library reads, parsed in one place.

:meth:`MirageConfig.from_env` reads the ``MIRAGE_*`` variables (and
``XDG_CACHE_HOME``) into a frozen snapshot.  Callers take one snapshot
and pass its values down: a dispatch session, a service, a remote
executor and a worker host each read the environment once, when they
are built, so a variable changed afterwards reaches the *next* one.
The coverage disk-cache paths are read per call instead, so a process
can point later builds at another cache directory.

:data:`KNOBS` is the one parse table.  Each rule keeps the knob's
behaviour for empty, unparsable, zero and negative values:

* *positive* — a positive number, anything else gives the default
  (``None`` means unlimited);
* *clamp* — a number raised to the floor, an unparsable one gives the
  default;
* *flag* — ``1``/``true``/``yes`` (any case, surrounding blanks
  ignored) switches it on, anything else leaves it off;
* *string* — the value as set, ``""`` when unset.

``docs/configuration.md`` documents the same table; the docs check
keeps the two equal.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Callable


def _number(cast: Callable[[str], float], raw: str) -> float | None:
    """``raw`` stripped and cast, or ``None`` when empty or unparsable."""
    text = raw.strip()
    if not text:
        return None
    try:
        return cast(text)
    except ValueError:
        return None


def _positive(cast: Callable[[str], float]) -> Callable:
    def rule(raw: str, default: object) -> object:
        value = _number(cast, raw)
        return value if value is not None and value > 0 else default

    return rule


def _clamp(cast: Callable[[str], float], floor: float) -> Callable:
    def rule(raw: str, default: object) -> object:
        value = _number(cast, raw)
        return default if value is None else max(floor, value)

    return rule


def _flag(raw: str, default: bool) -> bool:
    return raw.strip().lower() in ("1", "true", "yes")


def _string(raw: str, default: str) -> str:
    return raw


#: One row per knob: ``(field, variable, default, rule)``.
KNOBS = (
    ("task_timeout", "MIRAGE_TASK_TIMEOUT", None, _positive(float)),
    ("task_retries", "MIRAGE_TASK_RETRIES", 3, _clamp(int, 0)),
    ("fault_plan", "MIRAGE_FAULT_PLAN", "", _string),
    ("fault_hang_seconds", "MIRAGE_FAULT_HANG_SECONDS", 30.0, _clamp(float, 0.0)),
    ("fault_slow_seconds", "MIRAGE_FAULT_SLOW_SECONDS", 0.25, _clamp(float, 0.0)),
    ("remote_hosts", "MIRAGE_REMOTE_HOSTS", "", _string),
    ("remote_heartbeat_s", "MIRAGE_REMOTE_HEARTBEAT_S", 2.0, _positive(float)),
    ("remote_connect_s", "MIRAGE_REMOTE_CONNECT_S", 5.0, _positive(float)),
    ("remote_streams", "MIRAGE_REMOTE_STREAMS", 2, _clamp(int, 1)),
    ("cache_dir", "MIRAGE_CACHE_DIR", "", _string),
    ("cache_disable", "MIRAGE_CACHE_DISABLE", False, _flag),
    ("xdg_cache_home", "XDG_CACHE_HOME", "", _string),
)


@dataclasses.dataclass(frozen=True)
class MirageConfig:
    """A frozen snapshot of the library's environment knobs.

    Build one with :meth:`from_env`; see ``docs/configuration.md`` for
    the variable behind each field and its rule for bad values.

    Attributes
    ----------
    task_timeout : float or None
        Per-chunk deadline in seconds; ``None`` disables the watchdog.
    task_retries : int
        Replays per lost chunk before it degrades to in-process
        execution.
    fault_plan : str
        Deterministic fault-injection spec, parsed by
        :func:`~repro.transpiler.faults.parse_fault_plan`.
    fault_hang_seconds, fault_slow_seconds : float
        Sleep of an injected ``hang`` and delay of an injected ``slow``
        or ``slow_net`` fault.
    remote_hosts : str
        Comma-separated worker-host addresses for ``RemoteExecutor()``.
    remote_heartbeat_s, remote_connect_s : float
        Worker-host heartbeat interval and connect/handshake deadline.
    remote_streams : int
        Concurrent chunk streams per worker host.
    cache_dir : str
        Coverage disk-cache directory (``""`` = under the cache home).
    cache_disable : bool
        Skip the coverage disk cache.
    xdg_cache_home : str
        Cache home (``""`` = ``~/.cache``).
    """

    task_timeout: float | None
    task_retries: int
    fault_plan: str
    fault_hang_seconds: float
    fault_slow_seconds: float
    remote_hosts: str
    remote_heartbeat_s: float
    remote_connect_s: float
    remote_streams: int
    cache_dir: str
    cache_disable: bool
    xdg_cache_home: str

    @classmethod
    def from_env(cls) -> "MirageConfig":
        """Parse every knob of :data:`KNOBS` from ``os.environ`` now."""
        environ = os.environ
        return cls(**{
            field: rule(environ.get(variable, ""), default)
            for field, variable, default, rule in KNOBS
        })
