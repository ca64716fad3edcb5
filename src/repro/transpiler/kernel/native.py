"""Build-on-first-use loader for the compiled route loop (``_routec.c``).

``_routec.c`` holds the native twin of the flat kernel's whole route
loop, with its SWAP scorer, lookahead walk and MIRAGE mirror decision
(see :mod:`repro.transpiler.kernel.route`).  :func:`load_routec`
compiles it with the interpreter's C compiler the first time a process
on this machine needs it, and imports the result; every later process
imports the cached binary.

* The binary is cached under :func:`native_cache_dir`
  (``${XDG_CACHE_HOME:-~/.cache}/mirage-native``, read through
  :class:`~repro.config.MirageConfig`), outside the coverage cache,
  which callers may empty.
* Its file name is a sha256 of the C source, the compile flags and the
  interpreter's ``EXT_SUFFIX``, so a binary built from other source or
  for another interpreter is never loaded.
* It is compiled to a temporary name and ``os.replace``-d into place, so
  processes racing on a cold cache each see a complete file.
* Without a compiler, or when the build or the import fails, the loader
  logs one warning and returns ``None``; the pure-Python route loop then
  runs, with identical outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.machinery
import importlib.util
import logging
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path
from types import ModuleType

from repro.config import MirageConfig

#: The C source; shipped as package data.
SOURCE = Path(__file__).with_name("_routec.c")
#: Compile flags.  ``-ffp-contract=off`` forbids fused multiply-adds, so
#: the loop's float operations round exactly like the Python ones.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
MODULE_NAME = "repro.transpiler.kernel._routec"
#: Seconds a compile may take before the loader gives up.
COMPILE_TIMEOUT_S = 120

_log = logging.getLogger(__name__)
_lock = threading.Lock()
_UNSET = object()
_loaded: "ModuleType | None | object" = _UNSET


def native_cache_dir() -> Path:
    """Directory of compiled binaries: ``${XDG_CACHE_HOME:-~/.cache}/mirage-native``."""
    xdg = MirageConfig.from_env().xdg_cache_home
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "mirage-native"


def binary_path(source: bytes) -> Path:
    """Cache path of the binary built from ``source`` with :data:`CFLAGS`."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    digest = hashlib.sha256()
    for part in (source, " ".join(CFLAGS).encode(), suffix.encode()):
        digest.update(part)
        digest.update(b"\0")
    return native_cache_dir() / f"_routec-{digest.hexdigest()[:32]}{suffix}"


def compiler_command() -> list[str] | None:
    """The interpreter's configured C compiler, else ``cc``/``gcc``/``clang``."""
    configured = shlex.split(sysconfig.get_config_var("CC") or "")
    if configured and shutil.which(configured[0]):
        return configured
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return [path]
    return None


def load_routec() -> ModuleType | None:
    """The compiled route-loop module, or ``None`` when it is unavailable.

    Resolved once per process (the first call on a machine compiles, which
    takes about a second); a failure is logged as one warning and
    remembered, so callers fall back to the pure-Python route loop without
    retrying.
    """
    global _loaded
    with _lock:
        if _loaded is _UNSET:
            try:
                _loaded = _build_and_import()
            except Exception as error:  # any failure falls back
                _log.warning(
                    "compiled route loop unavailable, using the pure-Python "
                    "route loop (same outputs, slower): %s: %s",
                    type(error).__name__,
                    error,
                )
                _loaded = None
        return _loaded


def _build_and_import() -> ModuleType:
    path = binary_path(SOURCE.read_bytes())
    if not path.exists():
        _compile(path)
    return _import(path)


def _compile(path: Path) -> None:
    command = compiler_command()
    if command is None:
        raise RuntimeError("no C compiler on PATH")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, temporary = tempfile.mkstemp(prefix=".build-", dir=path.parent)
    os.close(fd)
    try:
        completed = subprocess.run(
            [
                *command,
                *CFLAGS,
                "-I" + sysconfig.get_paths()["include"],
                str(SOURCE),
                "-o",
                temporary,
            ],
            capture_output=True,
            text=True,
            timeout=COMPILE_TIMEOUT_S,
        )
        if completed.returncode:
            raise RuntimeError(
                f"{command[0]} exited with {completed.returncode}: "
                f"{completed.stderr.strip()[-500:]}"
            )
        os.replace(temporary, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temporary)


def _import(path: Path) -> ModuleType:
    loader = importlib.machinery.ExtensionFileLoader(MODULE_NAME, str(path))
    spec = importlib.util.spec_from_file_location(
        MODULE_NAME, path, loader=loader
    )
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module
