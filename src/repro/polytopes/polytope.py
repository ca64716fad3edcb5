"""Convex polytopes in Weyl-coordinate space.

The paper relies on *monodromy polytopes* — convex regions of the Weyl
chamber reachable by a fixed-depth circuit ansatz.  This module provides the
geometric primitive used by our numerical substitute: a convex polytope
described by the convex hull of a point cloud, with robust handling of
degenerate (lower-dimensional) regions such as the single point reached by a
depth-one ansatz or the planar region reached by two CNOTs.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

import numpy as np
from scipy.optimize import minimize
from scipy.spatial import ConvexHull, QhullError


def _deduplicate(points: np.ndarray, decimals: int = 7) -> np.ndarray:
    """Drop duplicate points (rounded) while keeping original precision."""
    rounded = np.round(points, decimals)
    _, index = np.unique(rounded, axis=0, return_index=True)
    return points[np.sort(index)]


@dataclasses.dataclass
class WeylPolytope:
    """Convex hull of a set of Weyl-chamber points.

    Handles full-dimensional (3-D), planar (2-D), linear (1-D) and single
    point (0-D) hulls uniformly; membership tests use a tolerance ``atol``
    measured in radians of coordinate space.

    Attributes:
        points: the defining point cloud, shape ``(n, 3)``.
        name: optional label used in reports.
    """

    points: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if points.shape[1] != 3:
            raise ValueError("WeylPolytope points must be three dimensional")
        self.points = _deduplicate(points)
        self._build()

    # -- construction ----------------------------------------------------

    def _build(self) -> None:
        centroid = self.points.mean(axis=0)
        centered = self.points - centroid
        # Affine rank via SVD.
        if len(self.points) == 1:
            rank = 0
            basis = np.zeros((0, 3))
        else:
            _, singular_values, v_rows = np.linalg.svd(centered, full_matrices=False)
            rank = int(np.sum(singular_values > 1e-7))
            basis = v_rows[:rank]
        self._centroid = centroid
        self._basis = basis
        self._rank = rank

        self._hull: ConvexHull | None = None
        self._vertices = self.points
        if rank >= 2:
            projected = centered @ basis.T
            try:
                self._hull = ConvexHull(projected[:, :rank])
                self._vertices = self.points[self._hull.vertices]
            except QhullError:
                # Nearly degenerate clouds: fall back to treating the set as
                # rank - 1 dimensional.
                self._rank = rank - 1
                self._basis = basis[: self._rank]
                self._hull = None
                self._vertices = self.points
                if self._rank == 1:
                    projected = (centered @ self._basis.T).ravel()
                    self._interval = (
                        float(projected.min()),
                        float(projected.max()),
                    )
        elif rank == 1:
            projected = (centered @ basis.T).ravel()
            self._interval = (float(projected.min()), float(projected.max()))
            self._vertices = self.points[
                [int(np.argmin(projected)), int(np.argmax(projected))]
            ]
        self._build_halfspaces()

    def _build_halfspaces(self) -> None:
        """Precompute the linear form of the membership test.

        Membership of ``x`` splits into (i) an off-plane distance bound
        ``||orth @ (x - centroid)|| <= atol`` for polytopes of dimension
        below three, and (ii) linear inequalities ``A @ x - b <= atol``
        (hull facets mapped back to ambient coordinates, or the interval
        bounds of a 1-D hull).  Both parts are precomputed here so batched
        membership queries reduce to matrix products.
        """
        rank = self._rank
        centroid = self._centroid
        basis = self._basis

        if rank == 3:
            self._orth = np.zeros((0, 3))
        elif rank == 0:
            self._orth = np.eye(3)
        else:
            # Rows of the orthogonal complement of the (orthonormal) basis.
            _, _, complement = np.linalg.svd(basis, full_matrices=True)
            self._orth = complement[rank:]

        self._degenerate = rank >= 2 and self._hull is None
        if self._hull is not None:
            equations = self._hull.equations
            lin_a = equations[:, :-1] @ basis
            lin_b = lin_a @ centroid - equations[:, -1]
        elif rank == 1:
            direction = basis[0]
            low, high = self._interval
            offset = float(direction @ centroid)
            lin_a = np.vstack([direction, -direction])
            lin_b = np.array([offset + high, -offset - low])
        else:
            lin_a = np.zeros((0, 3))
            lin_b = np.zeros(0)
        self._lin_a = lin_a
        self._lin_b = lin_b

    @property
    def halfspaces(self) -> tuple[np.ndarray, np.ndarray]:
        """Linear inequalities ``(A, b)`` with membership ``A @ x <= b``.

        Off-plane constraints of degenerate polytopes are not included;
        see :meth:`contains_mask` for the complete batched test.
        """
        return self._lin_a, self._lin_b

    # -- properties ------------------------------------------------------

    @property
    def dimension(self) -> int:
        """Affine dimension of the polytope (0 to 3)."""
        return self._rank

    @property
    def vertices(self) -> np.ndarray:
        """Vertices of the hull (or defining points for degenerate cases)."""
        return self._vertices

    @property
    def euclidean_volume(self) -> float:
        """Euclidean volume; zero for polytopes of dimension < 3."""
        if self._rank < 3 or self._hull is None:
            return 0.0
        return float(self._hull.volume)

    # -- queries ---------------------------------------------------------

    def contains(self, point: Iterable[float], atol: float = 1e-6) -> bool:
        """Whether ``point`` lies inside the polytope (within ``atol``).

        Evaluates the same precomputed half-space form as
        :meth:`contains_mask`, so scalar and batched membership can never
        disagree — not even for points floating-point-close to a facet.
        """
        point = np.asarray(tuple(point), dtype=float)
        return bool(self.contains_mask(point[None, :], atol=atol)[0])

    def nearest_point(self, point: Iterable[float]) -> np.ndarray:
        """Euclidean projection of ``point`` onto the polytope.

        Solved as a small quadratic program over the convex combination of
        the hull vertices — the vertex count is tiny (tens), so this is
        cheap and has no external dependencies.
        """
        target = np.asarray(tuple(point), dtype=float)
        vertices = self._vertices
        if len(vertices) == 1:
            return vertices[0].copy()
        if self.contains(target):
            return target.copy()

        count = len(vertices)

        def objective(weights: np.ndarray) -> float:
            combo = weights @ vertices
            diff = combo - target
            return float(diff @ diff)

        start = np.full(count, 1.0 / count)
        constraints = [{"type": "eq", "fun": lambda w: np.sum(w) - 1.0}]
        bounds = [(0.0, 1.0)] * count
        result = minimize(
            objective,
            start,
            method="SLSQP",
            bounds=bounds,
            constraints=constraints,
            options={"maxiter": 200, "ftol": 1e-12},
        )
        weights = np.clip(result.x, 0.0, 1.0)
        weights /= weights.sum()
        return weights @ vertices

    def distance(self, point: Iterable[float]) -> float:
        """Euclidean distance from ``point`` to the polytope."""
        target = np.asarray(tuple(point), dtype=float)
        if self.contains(target):
            return 0.0
        nearest = self.nearest_point(target)
        return float(np.linalg.norm(nearest - target))

    def contains_mask(
        self, samples: np.ndarray, atol: float = 1e-6
    ) -> np.ndarray:
        """Boolean membership mask for an ``(n, 3)`` array of samples.

        Uses the precomputed half-space form for every rank, so the whole
        batch reduces to one matrix product (plus an off-plane distance
        check for degenerate polytopes).
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if self._lin_a.shape[0]:
            values = samples @ self._lin_a.T - self._lin_b
        else:
            values = np.zeros((len(samples), 0))
        return self._stack_mask(samples, values, atol=atol)

    def _stack_mask(
        self, samples: np.ndarray, facet_values: np.ndarray, atol: float = 1e-6
    ) -> np.ndarray:
        """Membership mask given precomputed facet values ``A @ x - b``.

        Lets callers that stacked several polytopes' half-spaces into one
        matrix product (see ``CircuitPolytope.contains_mask``) reuse the
        shared facet evaluation; only the off-plane bound of degenerate
        polytopes is evaluated here.
        """
        if self._degenerate:
            return np.zeros(len(samples), dtype=bool)
        if self._orth.shape[0]:
            off_plane = (samples - self._centroid) @ self._orth.T
            mask = np.einsum("ij,ij->i", off_plane, off_plane) <= atol * atol
        else:
            mask = np.ones(len(samples), dtype=bool)
        if facet_values.shape[1]:
            mask &= np.all(facet_values <= atol, axis=1)
        return mask

    def contains_fraction(
        self, samples: np.ndarray, atol: float = 1e-6
    ) -> float:
        """Fraction of ``samples`` (shape ``(n, 3)``) inside the polytope."""
        mask = self.contains_mask(samples, atol=atol)
        return float(np.mean(mask))

    def union_with(self, other: "WeylPolytope") -> "WeylPolytope":
        """Convex hull of the union of two polytopes' points."""
        return WeylPolytope(
            np.vstack([self.points, other.points]),
            name=f"{self.name}|{other.name}",
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WeylPolytope(name={self.name!r}, dim={self.dimension}, "
            f"vertices={len(self._vertices)})"
        )
