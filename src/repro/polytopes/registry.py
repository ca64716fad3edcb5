"""Multi-tenant coverage-set registry: in-memory L1 over the disk L2.

A long-lived process serving many transpilation requests (the
:mod:`repro.service` tier, a notebook, a benchmark harness) wants every
request to share one coverage set per build configuration.  The
:func:`functools.lru_cache` that used to back ``get_coverage_set`` gave
per-process sharing but no introspection, no preloading, and — crucially
for a concurrent front-end — no *single-flight* guarantee: N threads
asking for a cold key would race N disk loads (or worse, N polytope
builds).

:class:`CoverageRegistry` fixes all three:

* **Keying** — entries are keyed by ``(basis, topology, mirror,
  num_samples, seed, max_depth)``.  The ``topology`` component is a
  namespace label for callers that maintain topology-specialised sets
  (the default loader builds topology-independent geometry, so entries
  registered under different topologies share the same disk entry).
* **Single-flight builds** — the first thread to miss a key becomes the
  builder; every concurrent requester blocks on the same in-flight build
  and receives the identical object.  One pickle load, one polytope
  build, no matter how many requests arrive at once.
* **Tiering** — the default loader is
  :func:`repro.polytopes.coverage.load_or_build_coverage_set`, i.e. the
  persistent ``$MIRAGE_CACHE_DIR`` disk cache (PR 2) acts as the L2
  below this in-memory L1.
* **Provenance** — :meth:`CoverageRegistry.stats` reports hits, misses,
  builds, waiters, errors and eviction counters, suitable for service
  dashboards.
* **Bounded residency** — a long-running multi-basis service would
  otherwise accrete one coverage set per configuration forever.  The
  registry is an LRU: ``max_entries`` / ``max_bytes`` (a best-effort
  pickled-size memory watermark) cap residency, and ``ttl_seconds``
  expires entries that have outlived their build.  All three default to
  the ``MIRAGE_REGISTRY_MAX_ENTRIES`` / ``MIRAGE_REGISTRY_MAX_BYTES`` /
  ``MIRAGE_REGISTRY_TTL_S`` environment knobs (read per call, unlimited
  when unset).  Eviction only forgets the *shared* reference — callers
  already holding a set keep it; the next request for the key rebuilds
  through the L2 disk cache.

The module-level :data:`DEFAULT_REGISTRY` backs
:func:`repro.polytopes.coverage.get_coverage_set`, preserving the
one-shared-set-per-process behaviour every existing caller relies on.
"""

from __future__ import annotations

import dataclasses
import pickle
import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable

from repro.config import MirageConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.polytopes.coverage import CoverageSet


@dataclasses.dataclass
class _InFlightBuild:
    """Rendezvous for threads waiting on another thread's build."""

    event: threading.Event = dataclasses.field(default_factory=threading.Event)
    result: "CoverageSet | None" = None
    error: BaseException | None = None


@dataclasses.dataclass
class _RegistryEntry:
    """One resident coverage set plus its eviction bookkeeping."""

    coverage: "CoverageSet"
    size_bytes: int
    created: float


def _estimate_size(coverage: "CoverageSet") -> int:
    """Best-effort resident size of one coverage set, in bytes.

    Uses the pickled size — the same representation the dispatch
    transport ships, and cheap relative to a polytope build.  The
    memoised cost table is deliberately excluded (``__getstate__``
    drops it), so the watermark tracks the irreducible geometry, not a
    cache that can be rebuilt.  Unpicklable exotics count as zero
    rather than failing registration.
    """
    try:
        return len(pickle.dumps(coverage, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # pragma: no cover - exotic custom loaders
        return 0


class CoverageRegistry:
    """Thread-safe, single-flight registry of shared coverage sets.

    Parameters
    ----------
    loader : callable, optional
        ``loader(basis, *, mirror, num_samples, seed, max_depth)``
        producing a :class:`~repro.polytopes.coverage.CoverageSet` on a
        registry miss.  Defaults to
        :func:`~repro.polytopes.coverage.load_or_build_coverage_set`
        (the persistent disk cache).  The loader runs *outside* the
        registry lock, so a slow build never blocks hits on other keys.
    max_entries : int, optional
        LRU residency cap; ``None`` (default) falls back to
        ``MIRAGE_REGISTRY_MAX_ENTRIES`` (unlimited when unset).
    max_bytes : int, optional
        Memory watermark over the summed best-effort (pickled) entry
        sizes; least-recently-used entries are evicted until the total
        fits.  ``None`` falls back to ``MIRAGE_REGISTRY_MAX_BYTES``.
    ttl_seconds : float, optional
        Entries older than this (since build/registration) are dropped
        on their next lookup and rebuilt fresh.  ``None`` falls back to
        ``MIRAGE_REGISTRY_TTL_S``.
    """

    def __init__(
        self,
        loader: "Callable[..., CoverageSet] | None" = None,
        *,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        ttl_seconds: float | None = None,
    ) -> None:
        self._loader = loader
        self._max_entries = max_entries
        self._max_bytes = max_bytes
        self._ttl_seconds = ttl_seconds
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, _RegistryEntry] = OrderedDict()
        self._inflight: dict[tuple, _InFlightBuild] = {}
        self._hits = 0
        self._misses = 0
        self._builds = 0
        self._waits = 0
        self._errors = 0
        self._evictions = 0
        self._expirations = 0

    # -- residency limits --------------------------------------------------

    def _limits(self) -> tuple[int | None, int | None, float | None]:
        """``(max_entries, max_bytes, ttl)``: each constructor argument,
        else its environment knob — read per call, because
        :data:`DEFAULT_REGISTRY` outlives any environment change."""
        config = MirageConfig.from_env()
        limits = (
            (self._max_entries, config.registry_max_entries),
            (self._max_bytes, config.registry_max_bytes),
            (self._ttl_seconds, config.registry_ttl_s),
        )
        return tuple(env if own is None else own for own, env in limits)

    def _expired_locked(self, entry: _RegistryEntry) -> bool:
        ttl = self._limits()[2]
        return ttl is not None and time.monotonic() - entry.created > ttl

    def _evict_locked(self, protect: tuple | None = None) -> None:
        """Evict LRU entries until the residency limits hold.

        The entry named by ``protect`` (the one just inserted or hit) is
        never evicted — a single set larger than ``max_bytes`` stays
        resident alone rather than thrashing rebuild-evict-rebuild.
        """
        max_entries, max_bytes, _ = self._limits()
        if max_entries is None and max_bytes is None:
            return
        while self._entries:
            over_count = (
                max_entries is not None and len(self._entries) > max_entries
            )
            over_bytes = max_bytes is not None and (
                sum(e.size_bytes for e in self._entries.values()) > max_bytes
            )
            if not (over_count or over_bytes):
                return
            victim = next(iter(self._entries))
            if victim == protect:
                if len(self._entries) == 1:
                    return
                victim = next(iter(list(self._entries)[1:]))
            del self._entries[victim]
            self._evictions += 1

    @staticmethod
    def key(
        basis: str,
        *,
        topology: object = None,
        mirror: bool = False,
        num_samples: int = 1200,
        seed: int = 7,
        max_depth: int | None = None,
    ) -> tuple:
        """Canonical registry key of one build configuration.

        ``topology`` may be any hashable label (a topology name string,
        ``None`` for topology-independent sets); unhashable objects are
        keyed by their ``repr`` so coupling-map instances can be passed
        directly.
        """
        try:
            hash(topology)
        except TypeError:
            topology = repr(topology)
        return (basis, topology, bool(mirror), num_samples, seed, max_depth)

    def _load(
        self,
        basis: str,
        *,
        mirror: bool,
        num_samples: int,
        seed: int,
        max_depth: int | None,
    ) -> "CoverageSet":
        loader = self._loader
        if loader is None:
            from repro.polytopes.coverage import load_or_build_coverage_set

            loader = load_or_build_coverage_set
        return loader(
            basis,
            mirror=mirror,
            num_samples=num_samples,
            seed=seed,
            max_depth=max_depth,
        )

    def get(
        self,
        basis: str,
        *,
        topology: object = None,
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
        key = self.key(
            basis,
            topology=topology,
            mirror=mirror,
            num_samples=num_samples,
            seed=seed,
            max_depth=max_depth,
        )
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if self._expired_locked(entry):
                    del self._entries[key]
                    self._expirations += 1
                else:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return entry.coverage
            build = self._inflight.get(key)
            if build is None:
                build = _InFlightBuild()
                self._inflight[key] = build
                self._misses += 1
                owner = True
            else:
                self._waits += 1
                owner = False
        if not owner:
            build.event.wait()
            if build.error is not None:
                raise build.error
            assert build.result is not None
            return build.result
        try:
            coverage = self._load(
                basis,
                mirror=mirror,
                num_samples=num_samples,
                seed=seed,
                max_depth=max_depth,
            )
        except BaseException as exc:
            with self._lock:
                self._inflight.pop(key, None)
                self._errors += 1
            build.error = exc
            build.event.set()
            raise
        build.result = coverage
        size = _estimate_size(coverage)
        with self._lock:
            self._entries[key] = _RegistryEntry(
                coverage, size, time.monotonic()
            )
            self._entries.move_to_end(key)
            self._inflight.pop(key, None)
            self._builds += 1
            self._evict_locked(protect=key)
        build.event.set()
        return coverage

    def put(
        self,
        coverage: "CoverageSet",
        basis: str,
        *,
        topology: object = None,
        mirror: bool = False,
        num_samples: int = 1200,
        seed: int = 7,
        max_depth: int | None = None,
    ) -> None:
        """Preload an already-built set under its configuration key."""
        key = self.key(
            basis,
            topology=topology,
            mirror=mirror,
            num_samples=num_samples,
            seed=seed,
            max_depth=max_depth,
        )
        size = _estimate_size(coverage)
        with self._lock:
            self._entries[key] = _RegistryEntry(
                coverage, size, time.monotonic()
            )
            self._entries.move_to_end(key)
            self._evict_locked(protect=key)

    def bind(
        self,
        *,
        topology: object = None,
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
            topology=topology,
            mirror=mirror,
            num_samples=num_samples,
            seed=seed,
            max_depth=max_depth,
        )

    def stats(self) -> dict[str, int]:
        """Counters for dashboards: hits/misses/builds/waits/errors,
        eviction provenance (``evictions``/``expirations``) and current
        residency (``size`` entries, ``bytes`` best-effort)."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "builds": self._builds,
                "waits": self._waits,
                "errors": self._errors,
                "evictions": self._evictions,
                "expirations": self._expirations,
                "size": len(self._entries),
                "bytes": sum(
                    entry.size_bytes for entry in self._entries.values()
                ),
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
            self._evictions = 0
            self._expirations = 0

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
    topology: object = None
    mirror: bool = False
    num_samples: int = 1200
    seed: int = 7
    max_depth: int | None = None

    def get(self, basis: str) -> "CoverageSet":
        """Resolve the shared coverage set for ``basis``."""
        return self.registry.get(
            basis,
            topology=self.topology,
            mirror=self.mirror,
            num_samples=self.num_samples,
            seed=self.seed,
            max_depth=self.max_depth,
        )


#: Process-wide default registry backing ``get_coverage_set`` — the
#: replacement for its former ``lru_cache``, with the same
#: one-shared-set-per-process behaviour plus introspection and
#: single-flight builds.
DEFAULT_REGISTRY = CoverageRegistry()
