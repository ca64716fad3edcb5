"""Coverage sets: which canonical classes a k-deep basis-gate ansatz reaches.

This is the reproduction's substitute for the ``monodromy`` package used by
the paper.  A *circuit polytope* is the region of the Weyl chamber reachable
by ``k`` applications of a basis gate interleaved with arbitrary
single-qubit gates; a *coverage set* is the list of circuit polytopes of a
basis gate ordered by cost, which supports the two queries MIRAGE needs:

* the minimum decomposition cost of a coordinate (``CoverageSet.cost_of``),
* Haar-weighted volumes and expected costs (Haar scores).

Each region is built numerically as the convex hull of the coordinates of
many randomly instantiated ansatz circuits, anchored by (i) the exact
coordinates of local-free basis-gate powers and (ii) landmark gates whose
reachability is confirmed by the numerical decomposer.  The mirror-inclusive
variant augments every region with its image under the mirror transform
(paper Eq. 1), represented as a union of convex pieces because the transform
is only piecewise affine.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import CoverageError
from repro.linalg.random import _as_rng, haar_unitary
from repro.polytopes.polytope import WeylPolytope
from repro.weyl.canonical import PI4, chamber_vertices
from repro.weyl.catalog import (
    basis_gate_cost,
    basis_gate_matrix,
    max_exact_depth,
)
from repro.weyl.coordinates import weyl_coordinates_many
from repro.weyl.mirror import mirror_coordinate, mirror_coordinates_many

#: Landmark coordinates anchored into the hulls when numerically reachable.
_LANDMARKS: tuple[tuple[float, float, float], ...] = (
    (PI4, 0.0, 0.0),  # CNOT / CZ
    (PI4, PI4, 0.0),  # iSWAP
    (PI4, PI4, PI4),  # SWAP
    (PI4, PI4 / 2, 0.0),  # B gate
    (PI4 / 2, PI4 / 2, 0.0),  # sqrt(iSWAP)
    (PI4 / 2, PI4 / 2, PI4 / 2),  # sqrt(SWAP)
    (PI4 / 2, 0.0, 0.0),  # CPHASE(pi/2)
)

#: Discrete single-qubit angles used for "structured" middle layers; these
#: hit hull corners far more reliably than Haar-random locals do.
_STRUCTURED_ANGLES = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)


def _random_local(rng: np.random.Generator) -> np.ndarray:
    return np.kron(haar_unitary(2, rng), haar_unitary(2, rng))


def _structured_local(rng: np.random.Generator) -> np.ndarray:
    from repro.linalg.su2 import rx, ry, rz

    rotations = (rx, ry, rz)
    factors = []
    for _ in range(2):
        rotation = rotations[rng.integers(len(rotations))]
        angle = _STRUCTURED_ANGLES[rng.integers(len(_STRUCTURED_ANGLES))]
        factors.append(rotation(angle))
    return np.kron(factors[0], factors[1])


def sample_ansatz_coordinates(
    basis: str,
    depth: int,
    num_samples: int,
    seed: int | np.random.Generator | None = None,
    structured_fraction: float = 0.35,
) -> np.ndarray:
    """Coordinates realised by random instantiations of the depth-``k`` ansatz.

    Args:
        basis: basis gate name.
        depth: number of basis-gate applications.
        num_samples: how many random instantiations to draw.
        seed: RNG seed.
        structured_fraction: fraction of samples whose middle locals are
            drawn from axis rotations by multiples of pi/2 (corner-seeking).

    Returns:
        ``(m, 3)`` array of canonical coordinates (``m <= num_samples + depth``).
    """
    rng = _as_rng(seed)
    basis_matrix = basis_gate_matrix(basis)

    # Local-free powers of the basis gate are exact, cheap anchor points.
    matrices: list[np.ndarray] = []
    power = np.eye(4, dtype=complex)
    for _ in range(depth):
        power = basis_matrix @ power
        matrices.append(power)

    if depth == 1:
        return weyl_coordinates_many(np.stack(matrices))

    num_structured = int(num_samples * structured_fraction)
    for index in range(num_samples):
        product = np.array(basis_matrix)
        for _ in range(depth - 1):
            if index < num_structured:
                local = _structured_local(rng)
            else:
                local = _random_local(rng)
            product = basis_matrix @ local @ product
        matrices.append(product)
    # One batched extraction across anchors and samples — the dominant cost
    # of cold coverage construction.
    return weyl_coordinates_many(np.stack(matrices))


def _anchor_landmarks(
    basis: str, depth: int, seed: int | np.random.Generator | None = None
) -> list[tuple[float, float, float]]:
    """Landmark coordinates provably (numerically) reachable at this depth."""
    from repro.decompose.numerical import optimize_to_coordinate

    rng = _as_rng(seed)
    anchors = []
    for landmark in _LANDMARKS:
        result = optimize_to_coordinate(
            landmark, basis, depth, trials=3, maxiter=250, tol=1e-3, seed=rng
        )
        if result.success:
            anchors.append(landmark)
    return anchors


def _split_by_mirror_branch(points: np.ndarray) -> list[np.ndarray]:
    """Split a point cloud at ``a = pi/4`` so each part maps affinely under Eq. 1."""
    points = np.atleast_2d(points)
    low = points[points[:, 0] <= PI4 + 1e-9]
    high = points[points[:, 0] > PI4 - 1e-9]
    return [part for part in (low, high) if len(part)]


@dataclasses.dataclass
class CircuitPolytope:
    """Reachable region of a depth-``k`` ansatz for one basis gate.

    The region is a union of convex pieces (a single piece for the standard
    polytope; typically two once mirror images are included).

    Attributes:
        basis: basis gate name.
        depth: number of basis applications ``k``.
        cost: normalised pulse cost ``k * basis_gate_cost(basis)``.
        pieces: convex components whose union is the region.
        mirrored: whether the region includes mirror-gate images.
    """

    basis: str
    depth: int
    cost: float
    pieces: list[WeylPolytope]
    mirrored: bool = False

    def __post_init__(self) -> None:
        self._stack: tuple[np.ndarray, np.ndarray, list[tuple[int, int]]] | None = None

    def __getstate__(self) -> dict:
        # The stacked half-space matrices are derived data; drop them so
        # process-pool / disk-cache pickles stay small.
        state = self.__dict__.copy()
        state["_stack"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__dict__.setdefault("_stack", None)

    def _halfspace_stack(
        self,
    ) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
        """All pieces' linear constraints stacked into one ``(A, b)`` pair.

        Returns ``(A, b, slices)`` where ``slices[i]`` is the row range of
        piece ``i``, so one matrix product against ``A`` evaluates every
        facet inequality of every piece at once.
        """
        if self._stack is None:
            blocks_a: list[np.ndarray] = []
            blocks_b: list[np.ndarray] = []
            slices: list[tuple[int, int]] = []
            row = 0
            for piece in self.pieces:
                lin_a, lin_b = piece.halfspaces
                blocks_a.append(lin_a)
                blocks_b.append(lin_b)
                slices.append((row, row + len(lin_a)))
                row += len(lin_a)
            stacked_a = (
                np.vstack(blocks_a) if row else np.zeros((0, 3))
            )
            stacked_b = (
                np.concatenate(blocks_b) if row else np.zeros(0)
            )
            self._stack = (stacked_a, stacked_b, slices)
        return self._stack

    def contains(self, coordinate: Iterable[float], atol: float = 1e-6) -> bool:
        point = tuple(coordinate)
        return any(piece.contains(point, atol=atol) for piece in self.pieces)

    def contains_mask(self, samples: np.ndarray, atol: float = 1e-6) -> np.ndarray:
        """Membership mask of ``samples`` in the union of the pieces.

        Facet inequalities of every piece are evaluated in a single matrix
        product against the stacked half-space matrices; only the off-plane
        distance bound of degenerate pieces needs a per-piece product.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        stacked_a, stacked_b, slices = self._halfspace_stack()
        values = (
            samples @ stacked_a.T - stacked_b
            if len(stacked_a)
            else np.zeros((len(samples), 0))
        )
        mask = np.zeros(len(samples), dtype=bool)
        for piece, (start, stop) in zip(self.pieces, slices):
            piece_mask = piece._stack_mask(
                samples, values[:, start:stop], atol=atol
            )
            mask |= piece_mask
            if mask.all():
                break
        return mask

    def haar_volume(self, samples: np.ndarray, atol: float = 1e-6) -> float:
        """Haar-weighted volume estimated over precomputed Haar samples."""
        return float(np.mean(self.contains_mask(samples, atol=atol)))

    def nearest_point(self, coordinate: Iterable[float]) -> np.ndarray:
        """Closest point of the region to ``coordinate`` (Euclidean)."""
        point = tuple(coordinate)
        best: np.ndarray | None = None
        best_distance = np.inf
        for piece in self.pieces:
            candidate = piece.nearest_point(point)
            distance = float(np.linalg.norm(candidate - np.asarray(point)))
            if distance < best_distance:
                best_distance = distance
                best = candidate
        if best is None:
            raise CoverageError("circuit polytope has no pieces")
        return best

    @property
    def label(self) -> str:
        suffix = "+mirror" if self.mirrored else ""
        return f"{self.basis} k={self.depth}{suffix}"


def build_circuit_polytope(
    basis: str,
    depth: int,
    *,
    num_samples: int = 1500,
    seed: int = 7,
    mirror: bool = False,
    anchor: bool = True,
    cumulative_points: np.ndarray | None = None,
) -> CircuitPolytope:
    """Build the reachable region of ``depth`` applications of ``basis``.

    Args:
        basis: basis gate name.
        depth: ansatz depth ``k``.
        num_samples: random ansatz samples.
        seed: RNG seed (deterministic builds).
        mirror: include the mirror image of the region.
        anchor: verify landmark gates numerically and pin them to the hull.
        cumulative_points: points known reachable at lower depth (the region
            is monotone in ``k``), stacked into the hull.

    Returns:
        The constructed :class:`CircuitPolytope`.
    """
    points = sample_ansatz_coordinates(basis, depth, num_samples, seed=seed)
    if cumulative_points is not None and len(cumulative_points):
        points = np.vstack([points, cumulative_points])
    if anchor and depth > 1:
        anchors = _anchor_landmarks(basis, depth, seed=seed + depth)
        if anchors:
            points = np.vstack([points, np.array(anchors)])

    pieces = [WeylPolytope(points, name=f"{basis}-k{depth}")]
    if mirror:
        for part in _split_by_mirror_branch(points):
            pieces.append(
                WeylPolytope(
                    mirror_coordinates_many(part),
                    name=f"{basis}-k{depth}-mirror",
                )
            )
    cost = depth * basis_gate_cost(basis)
    return CircuitPolytope(
        basis=basis, depth=depth, cost=cost, pieces=pieces, mirrored=mirror
    )


def _identity_polytope(basis: str, mirrored: bool) -> CircuitPolytope:
    """The zero-cost region: the identity class (plus SWAP when mirrored).

    A gate whose class is the identity needs no basis pulses at all; with
    mirror gates allowed, a SWAP is also free because it is the mirror of
    the identity (this is exactly the "mirage SWAP" of the paper).
    """
    pieces = [WeylPolytope(np.zeros((1, 3)), name=f"{basis}-k0")]
    if mirrored:
        pieces.append(
            WeylPolytope(np.array([[PI4, PI4, PI4]]), name=f"{basis}-k0-mirror")
        )
    return CircuitPolytope(
        basis=basis, depth=0, cost=0.0, pieces=pieces, mirrored=mirrored
    )


def _full_chamber_polytope(basis: str, depth: int, mirrored: bool) -> CircuitPolytope:
    """A polytope covering the entire chamber (guaranteed-coverage depth)."""
    return CircuitPolytope(
        basis=basis,
        depth=depth,
        cost=depth * basis_gate_cost(basis),
        pieces=[WeylPolytope(chamber_vertices(), name=f"{basis}-full")],
        mirrored=mirrored,
    )


class CoverageSet:
    """Ordered (by cost) coverage polytopes of one basis gate.

    Provides the minimum-cost decomposition estimate used throughout MIRAGE
    and the Haar-score analyses.  Cost queries are memoised on a rounded
    coordinate key, reproducing the LRU lookup table described in the
    paper's Section VI-C.
    """

    def __init__(
        self,
        basis: str,
        polytopes: Sequence[CircuitPolytope],
        *,
        mirrored: bool = False,
        atol: float = 1e-6,
    ) -> None:
        if not polytopes:
            raise CoverageError("a coverage set needs at least one polytope")
        self.basis = basis
        self.mirrored = mirrored
        self.atol = atol
        self.polytopes = sorted(polytopes, key=lambda poly: poly.cost)
        self._cost_cache: dict[tuple[float, float, float], float] = {}
        # One coverage set is shared by every concurrent routing trial
        # under a thread executor, so cache and counters are lock-guarded
        # (matching CoordinateCache).
        self._cache_lock = threading.Lock()
        self._cache_hits = 0
        self._cache_misses = 0

    def __getstate__(self) -> dict:
        # Locks cannot be pickled, and the memoised cost table plus its
        # hit/miss counters are pure derived data — dropping them keeps
        # process-pool trial dispatch and on-disk cache entries small.
        state = self.__dict__.copy()
        del state["_cache_lock"]
        del state["_cost_cache"]
        del state["_cache_hits"]
        del state["_cache_misses"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._cache_lock = threading.Lock()
        self._cost_cache = {}
        self._cache_hits = 0
        self._cache_misses = 0

    # -- queries ---------------------------------------------------------

    @property
    def max_cost(self) -> float:
        return self.polytopes[-1].cost

    @property
    def unit_cost(self) -> float:
        return basis_gate_cost(self.basis)

    def polytope_for_depth(self, depth: int) -> CircuitPolytope:
        for polytope in self.polytopes:
            if polytope.depth == depth:
                return polytope
        raise CoverageError(f"no polytope of depth {depth} in coverage set")

    def cost_of(self, coordinate: Iterable[float]) -> float:
        """Minimum decomposition cost of one canonical coordinate.

        A one-row call of :meth:`cost_of_many`: a length-3 canonical
        Weyl coordinate in, a float cost (in pulse units of ``basis``)
        out, through the same memo.
        """
        return float(self.cost_of_many([tuple(coordinate)])[0])

    def cost_of_many(self, coordinates: np.ndarray) -> np.ndarray:
        """Minimum decomposition costs of a coordinate batch.

        Parameters
        ----------
        coordinates : array_like, shape (n, 3)
            Canonical Weyl coordinates (a sequence of triples is
            accepted and treated as one batch; an empty input yields an
            empty result).

        Returns
        -------
        numpy.ndarray, shape (n,)
            Cost per row, in pulse units of ``basis``.

        Notes
        -----
        Results are memoised in a thread-safe table keyed by the
        coordinate rounded to 6 decimals; the table is deliberately
        excluded from pickles (:meth:`__getstate__`), so process-pool
        workers rebuild theirs lazily.  The uncached coordinates are
        resolved by winnowing: each polytope (cheapest first) classifies
        the still-unresolved rows with one stacked half-space product,
        and resolved rows drop out of the next round.  Rows sharing a
        rounded key with an earlier miss reuse that row's result, exactly
        as a sequential :meth:`cost_of` loop would via the memo, so
        results are element-wise identical to that loop.
        """
        coords = np.asarray(coordinates, dtype=float)
        if coords.size == 0:
            return np.zeros(0)
        coords = np.atleast_2d(coords)
        n = len(coords)
        costs = np.empty(n, dtype=float)
        keys: list[tuple[float, float, float]] = []
        pending: list[int] = []
        # Rows sharing a rounded key with an earlier miss reuse that row's
        # result, exactly as a sequential cost_of loop would via the memo.
        duplicates: list[tuple[int, int]] = []
        pending_by_key: dict[tuple[float, float, float], int] = {}
        rows = coords.tolist()
        with self._cache_lock:
            for index, row in enumerate(rows):
                key = (round(row[0], 6), round(row[1], 6), round(row[2], 6))
                keys.append(key)
                cached = self._cost_cache.get(key)
                if cached is not None:
                    self._cache_hits += 1
                    costs[index] = cached
                elif key in pending_by_key:
                    self._cache_hits += 1
                    duplicates.append((index, pending_by_key[key]))
                else:
                    self._cache_misses += 1
                    pending_by_key[key] = len(pending)
                    pending.append(index)
        if pending:
            pending_rows = np.array(pending)
            subset = coords[pending_rows]
            # The last polytope covers the full chamber, so this default is
            # only reachable for points slightly outside the chamber.
            resolved = np.full(len(pending_rows), self.max_cost)
            remaining = np.arange(len(pending_rows))
            for polytope in self.polytopes:
                if remaining.size == 0:
                    break
                mask = polytope.contains_mask(subset[remaining], atol=self.atol)
                resolved[remaining[mask]] = polytope.cost
                remaining = remaining[~mask]
            costs[pending_rows] = resolved
            for index, position in duplicates:
                costs[index] = resolved[position]
            with self._cache_lock:
                for index, value in zip(pending, resolved.tolist()):
                    self._cost_cache[keys[index]] = value
        return costs

    def depth_of(self, coordinate: Iterable[float]) -> int:
        """Minimum number of basis applications for a coordinate."""
        cost = self.cost_of(coordinate)
        return int(round(cost / self.unit_cost))

    def depth_of_many(self, coordinates: np.ndarray) -> np.ndarray:
        """Minimum basis-gate applications per coordinate.

        Parameters
        ----------
        coordinates : array_like, shape (n, 3)
            Canonical Weyl coordinates.

        Returns
        -------
        numpy.ndarray of int, shape (n,)
            ``round(cost / unit_cost)`` per row — the ``k`` of the
            paper's depth-``k`` circuit polytopes.  Shares the memo table
            and determinism guarantees of :meth:`cost_of_many`.
        """
        costs = self.cost_of_many(coordinates)
        return np.rint(costs / self.unit_cost).astype(int)

    def mirror_cost_of(self, coordinate: Iterable[float]) -> float:
        """Cost of the mirror class of a coordinate."""
        return self.cost_of(mirror_coordinate(tuple(coordinate)))

    def mirror_cost_of_many(self, coordinates: np.ndarray) -> np.ndarray:
        """Decomposition costs of the mirror classes of a batch.

        Parameters
        ----------
        coordinates : array_like, shape (n, 3)
            Canonical Weyl coordinates of the *original* gates.

        Returns
        -------
        numpy.ndarray, shape (n,)
            Cost of each gate's mirror (gate followed by SWAP), in pulse
            units of ``basis``.  The mirrored coordinates are
            canonicalised as one numpy batch and resolved through
            :meth:`cost_of_many`, so the same memo table and determinism
            guarantees apply.
        """
        return self.cost_of_many(mirror_coordinates_many(coordinates))

    def cheaper_polytopes(self, cost: float) -> list[CircuitPolytope]:
        """Polytopes strictly cheaper than ``cost`` (for approximation)."""
        return [poly for poly in self.polytopes if poly.cost < cost - 1e-12]

    def haar_volumes(self, samples: np.ndarray, atol: float | None = None) -> dict[int, float]:
        """Haar-weighted coverage per depth, estimated on ``samples``."""
        atol = self.atol if atol is None else atol
        return {
            polytope.depth: polytope.haar_volume(samples, atol=atol)
            for polytope in self.polytopes
        }

    def cache_info(self) -> dict[str, int]:
        with self._cache_lock:
            return {
                "hits": self._cache_hits,
                "misses": self._cache_misses,
                "size": len(self._cost_cache),
            }

    def clear_cache(self) -> None:
        with self._cache_lock:
            self._cost_cache.clear()
            self._cache_hits = 0
            self._cache_misses = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        depths = [poly.depth for poly in self.polytopes]
        return (
            f"CoverageSet(basis={self.basis!r}, depths={depths}, "
            f"mirrored={self.mirrored})"
        )


def build_coverage_set(
    basis: str,
    *,
    max_depth: int | None = None,
    num_samples: int = 1500,
    seed: int = 7,
    mirror: bool = False,
    anchor: bool = True,
    atol: float = 1e-6,
) -> CoverageSet:
    """Build the full coverage set of a basis gate.

    Depths ``1 .. max_depth`` are built cumulatively (each region includes
    all shallower regions).  The deepest polytope is replaced by the full
    Weyl chamber because at that depth coverage is guaranteed analytically,
    which in turn guarantees ``cost_of`` always terminates with a finite
    answer.
    """
    if max_depth is None:
        max_depth = max_exact_depth(basis)
        if mirror:
            # With mirrors the SWAP corner costs nothing, so full coverage is
            # reached at the depth that covers the mirror of the chamber;
            # keep the same bound — the final chamber polytope handles it.
            max_depth = max(2, max_depth)
    polytopes: list[CircuitPolytope] = [_identity_polytope(basis, mirror)]
    cumulative: np.ndarray | None = None
    for depth in range(1, max_depth + 1):
        if depth == max_depth:
            polytopes.append(_full_chamber_polytope(basis, depth, mirror))
            continue
        polytope = build_circuit_polytope(
            basis,
            depth,
            num_samples=num_samples,
            seed=seed,
            mirror=mirror,
            anchor=anchor,
            cumulative_points=cumulative,
        )
        polytopes.append(polytope)
        base_points = polytope.pieces[0].points
        cumulative = base_points
    return CoverageSet(basis, polytopes, mirrored=mirror, atol=atol)


def load_or_build_coverage_set(
    basis: str,
    *,
    max_depth: int | None = None,
    num_samples: int = 1500,
    seed: int = 7,
    mirror: bool = False,
    anchor: bool = True,
    atol: float = 1e-6,
) -> CoverageSet:
    """Build a coverage set through the persistent on-disk cache.

    On a cache hit the pickled set is loaded from
    ``$MIRAGE_CACHE_DIR`` (see :mod:`repro.polytopes.cache`); on a miss the
    set is built exactly as :func:`build_coverage_set` would and stored
    atomically for subsequent processes and runs.  Construction is
    deterministic in all the key parameters, so a loaded set answers every
    query identically to a freshly built one.
    """
    from repro.polytopes.cache import (
        load_cached_coverage_set,
        store_coverage_set,
    )

    parameters = dict(
        basis=basis,
        max_depth=max_depth,
        num_samples=num_samples,
        seed=seed,
        mirror=mirror,
        anchor=anchor,
        atol=atol,
    )
    cached = load_cached_coverage_set(**parameters)
    if cached is not None:
        return cached
    coverage = build_coverage_set(
        basis,
        max_depth=max_depth,
        num_samples=num_samples,
        seed=seed,
        mirror=mirror,
        anchor=anchor,
        atol=atol,
    )
    store_coverage_set(coverage, **parameters)
    return coverage


def get_coverage_set(
    basis: str,
    mirror: bool = False,
    *,
    num_samples: int = 1200,
    seed: int = 7,
    max_depth: int | None = None,
) -> CoverageSet:
    """Shared, memoised coverage sets used by the transpiler and benches.

    Served from the process-wide
    :data:`repro.polytopes.registry.DEFAULT_REGISTRY` (in-memory L1,
    single-flight builds under concurrency) over the persistent disk
    cache (L2), so the first call of a fresh process loads the pickled
    set instead of rebuilding the polytopes, and repeated calls return
    the identical instance.
    """
    from repro.polytopes.registry import DEFAULT_REGISTRY

    return DEFAULT_REGISTRY.get(
        basis,
        mirror=mirror,
        num_samples=num_samples,
        seed=seed,
        max_depth=max_depth,
    )
