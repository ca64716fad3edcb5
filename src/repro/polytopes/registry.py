"""Process-wide memo of coverage sets: single-flight builds over the disk cache.

A coverage set is a pure function of its build parameters ``(basis,
mirror, num_samples, seed, max_depth)``, so a long-lived process (the
:mod:`repro.service` tier, a notebook, a benchmark harness) needs one
shared instance per parameter tuple and never a second.
:class:`CoverageRegistry` is that memo:

* **Keying** — entries are keyed by ``(basis, mirror, num_samples,
  seed, max_depth)`` and nothing else: the geometry does not depend on
  the device, so a service routing onto many coupling maps and a direct
  :func:`~repro.polytopes.coverage.get_coverage_set` caller share one
  set.
* **Single-flight builds** — the first thread to miss a key becomes the
  builder; every concurrent requester blocks on the same in-flight build
  and receives the identical object.  One pickle load, one polytope
  build, no matter how many requests arrive at once.
* **Tiering** — the default loader is
  :func:`repro.polytopes.coverage.load_or_build_coverage_set`, i.e. the
  persistent ``$MIRAGE_CACHE_DIR`` disk cache acts as the L2 below this
  in-memory L1.
* **Provenance** — :meth:`CoverageRegistry.stats` reports hits, misses,
  builds, waiters, errors and the resident entry count, suitable for
  service dashboards.

Entries are never evicted: dropping one could only rebuild identical
data, and residency is bounded by the number of build configurations a
process asks for.  A hit takes one lock round-trip and reads no
environment.

The module-level :data:`DEFAULT_REGISTRY` backs
:func:`repro.polytopes.coverage.get_coverage_set`, preserving the
one-shared-set-per-process behaviour every existing caller relies on.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.polytopes.coverage import CoverageSet


@dataclasses.dataclass
class _InFlightBuild:
    """Rendezvous for threads waiting on another thread's build."""

    event: threading.Event = dataclasses.field(default_factory=threading.Event)
    result: "CoverageSet | None" = None
    error: BaseException | None = None


class CoverageRegistry:
    """Thread-safe, single-flight memo of shared coverage sets.

    Parameters
    ----------
    loader : callable, optional
        ``loader(basis, *, mirror, num_samples, seed, max_depth)``
        producing a :class:`~repro.polytopes.coverage.CoverageSet` on a
        registry miss.  Defaults to
        :func:`~repro.polytopes.coverage.load_or_build_coverage_set`
        (the persistent disk cache).  The loader runs *outside* the
        registry lock, so a slow build never blocks hits on other keys.
    """

    def __init__(self, loader: "Callable[..., CoverageSet] | None" = None) -> None:
        self._loader = loader
        self._lock = threading.Lock()
        self._entries: dict[tuple, CoverageSet] = {}
        self._inflight: dict[tuple, _InFlightBuild] = {}
        self._hits = 0
        self._misses = 0
        self._builds = 0
        self._waits = 0
        self._errors = 0

    def get(
        self,
        basis: str,
        *,
        mirror: bool = False,
        num_samples: int = 1200,
        seed: int = 7,
        max_depth: int | None = None,
    ) -> "CoverageSet":
        """Return the shared coverage set for one build configuration.

        On a registry hit the cached instance is returned (identical
        object every time, so memoised cost tables keep accumulating).
        On a miss, exactly one caller builds — concurrent requesters for
        the same key block until that build lands and then share its
        result; a failed build propagates its exception to the builder
        *and* every waiter, and leaves the key cold so the next request
        retries.
        """
        key = (basis, bool(mirror), num_samples, seed, max_depth)
        with self._lock:
            coverage = self._entries.get(key)
            if coverage is not None:
                self._hits += 1
                return coverage
            build = self._inflight.get(key)
            owner = build is None
            if owner:
                build = self._inflight[key] = _InFlightBuild()
                self._misses += 1
            else:
                self._waits += 1
        if not owner:
            build.event.wait()
            if build.error is not None:
                raise build.error
            return build.result
        loader = self._loader
        if loader is None:
            from repro.polytopes.coverage import load_or_build_coverage_set

            loader = load_or_build_coverage_set
        try:
            coverage = loader(
                basis,
                mirror=mirror,
                num_samples=num_samples,
                seed=seed,
                max_depth=max_depth,
            )
        except BaseException as exc:
            with self._lock:
                del self._inflight[key]
                self._errors += 1
            build.error = exc
            build.event.set()
            raise
        build.result = coverage
        with self._lock:
            self._entries[key] = coverage
            del self._inflight[key]
            self._builds += 1
        build.event.set()
        return coverage

    def bind(
        self,
        *,
        mirror: bool = False,
        num_samples: int = 1200,
        seed: int = 7,
        max_depth: int | None = None,
    ) -> "RegistryHandle":
        """Bind build parameters into a handle exposing ``get(basis)``.

        The handle plugs straight into the ``coverage=`` argument of the
        transpile APIs (see :func:`repro.core.pipeline.resolve_coverage`),
        so a service can route every batch's coverage lookup through its
        registry without resolving the set itself.
        """
        return RegistryHandle(
            registry=self,
            mirror=mirror,
            num_samples=num_samples,
            seed=seed,
            max_depth=max_depth,
        )

    def stats(self) -> dict[str, int]:
        """Counters for dashboards: hits/misses/builds/waits/errors and
        the resident entry count (``size``)."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "builds": self._builds,
                "waits": self._waits,
                "errors": self._errors,
                "size": len(self._entries),
            }

    def clear(self) -> None:
        """Drop every cached entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._builds = 0
            self._waits = 0
            self._errors = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CoverageRegistry(size={len(self)})"


@dataclasses.dataclass(frozen=True)
class RegistryHandle:
    """Build parameters bound to a registry, exposing ``get(basis)``.

    Accepted anywhere the transpile APIs take a ``coverage=`` argument:
    :func:`repro.core.pipeline.resolve_coverage` duck-types on ``get``
    and resolves the concrete :class:`~repro.polytopes.coverage.CoverageSet`
    through the bound registry (one lock round-trip per batch on hits).
    """

    registry: CoverageRegistry
    mirror: bool = False
    num_samples: int = 1200
    seed: int = 7
    max_depth: int | None = None

    def get(self, basis: str) -> "CoverageSet":
        """Resolve the shared coverage set for ``basis``."""
        return self.registry.get(
            basis,
            mirror=self.mirror,
            num_samples=self.num_samples,
            seed=self.seed,
            max_depth=self.max_depth,
        )


#: Process-wide default registry backing ``get_coverage_set``: one
#: shared set per build configuration per process, with introspection
#: and single-flight builds.
DEFAULT_REGISTRY = CoverageRegistry()
