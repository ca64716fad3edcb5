"""Extraction of Weyl (canonical) coordinates from two-qubit unitaries.

Every two-qubit unitary ``U`` is locally equivalent to a canonical gate
``CAN(a, b, c)``; the triple ``(a, b, c)``, reduced to the canonical Weyl
chamber, is the *Weyl coordinate* of ``U``.  MIRAGE performs all of its
decomposition-cost reasoning on these coordinates, never on raw matrices
(paper Section VI-C), so this module is on the transpiler's hot path and the
expensive extraction is memoised by callers (see
:mod:`repro.polytopes.cache`).

The extraction algorithm follows the standard magic-basis construction: the
eigenvalue phases of ``(M^dag U M)^T (M^dag U M)`` are, up to branch and
ordering ambiguities, the four combinations ``±a ± b ± c``.  Rather than
reproduce the delicate branch-folding logic of existing transpilers, we
enumerate the small set of candidate pairings and accept the first whose
Makhlin invariants match those of ``U`` exactly — a self-verifying approach
that is robust for degenerate spectra (CNOT, SWAP, identity, ...).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Iterable

import numpy as np

from repro.exceptions import WeylError
from repro.linalg.constants import MAGIC, MAGIC_DAG
from repro.weyl.canonical import (
    PI4,
    canonical_gate,
    canonicalize_coordinate,
    canonicalize_coordinates_many,
    in_weyl_chamber,
)
from repro.weyl.invariants import makhlin_from_coordinates_many


@dataclasses.dataclass(frozen=True, order=True)
class WeylCoordinate:
    """A point of the canonical Weyl chamber.

    Instances are immutable, hashable (useful as cache keys once rounded)
    and ordered lexicographically.
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if not in_weyl_chamber((self.a, self.b, self.c), atol=1e-6):
            raise WeylError(
                f"({self.a}, {self.b}, {self.c}) is not inside the Weyl chamber"
            )

    # -- constructors -------------------------------------------------

    @classmethod
    def from_raw(cls, coordinate: Iterable[float]) -> "WeylCoordinate":
        """Canonicalise an arbitrary triple and wrap it."""
        a, b, c = canonicalize_coordinate(coordinate)
        return cls(a, b, c)

    @classmethod
    def from_unitary(cls, unitary: np.ndarray) -> "WeylCoordinate":
        """Extract the coordinate of a 4x4 unitary."""
        return cls.from_raw(weyl_coordinates(unitary))

    # -- views ---------------------------------------------------------

    def to_tuple(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)

    def to_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c], dtype=float)

    def rounded(self, decimals: int = 9) -> tuple[float, float, float]:
        """Rounded tuple suitable for use as a dictionary cache key."""
        return (
            round(self.a, decimals),
            round(self.b, decimals),
            round(self.c, decimals),
        )

    def canonical_unitary(self) -> np.ndarray:
        """The canonical-gate representative ``CAN(a, b, c)``."""
        return canonical_gate(self.a, self.b, self.c)

    # -- predicates ----------------------------------------------------

    def is_identity(self, atol: float = 1e-7) -> bool:
        return max(abs(self.a), abs(self.b), abs(self.c)) <= atol

    def is_swap(self, atol: float = 1e-7) -> bool:
        return (
            abs(self.a - PI4) <= atol
            and abs(self.b - PI4) <= atol
            and abs(self.c - PI4) <= atol
        )

    def isclose(self, other: "WeylCoordinate", atol: float = 1e-6) -> bool:
        return bool(
            np.allclose(self.to_tuple(), other.to_tuple(), atol=atol)
        )

    # -- convenience ---------------------------------------------------

    def __iter__(self):
        return iter((self.a, self.b, self.c))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WeylCoordinate({self.a:.6f}, {self.b:.6f}, {self.c:.6f})"


def _build_candidate_tables() -> tuple[np.ndarray, np.ndarray]:
    """Precompute the 96 candidate selections as index/shift tables.

    Candidate ``k`` selects three of the four eigen-phase halves
    (``_CANDIDATE_SELECTION[k]``) and adds a branch shift
    (``_CANDIDATE_SHIFT[k]``, zero or ``pi`` per slot).  The enumeration
    order matches the historical generator exactly: the 24 unshifted
    permutations first, then for each permutation the three single-slot
    ``+pi`` shifts.
    """
    permutations = list(itertools.permutations(range(4), 3))
    selections: list[tuple[int, int, int]] = list(permutations)
    shifts: list[tuple[float, float, float]] = [(0.0, 0.0, 0.0)] * len(permutations)
    for selection in permutations:
        for shift_index in range(3):
            shift = [0.0, 0.0, 0.0]
            shift[shift_index] = math.pi
            selections.append(selection)
            shifts.append(tuple(shift))
    return np.array(selections, dtype=np.intp), np.array(shifts, dtype=float)


#: Index/shift tables enumerating the 96 candidate (a, b, c) pairings.
_CANDIDATE_SELECTION, _CANDIDATE_SHIFT = _build_candidate_tables()


def _candidate_batch(thetas: np.ndarray) -> np.ndarray:
    """All 96 candidate triples of each theta row, as one numpy batch.

    The phases satisfy (up to ordering and mod-pi branches)

        theta_1 = a - b + c,  theta_2 = a + b - c,
        theta_3 = -a + b + c, theta_4 = -(a + b + c)

    so each ordered choice of three of them produces a candidate via the
    linear map ``a = (t1 + t2)/2, b = (t2 + t3)/2, c = (t1 + t3)/2``.
    Branch shifts of +pi are folded away later by canonicalisation.

    Args:
        thetas: ``(m, 4)`` array of eigen-phase halves.

    Returns:
        ``(m, 96, 3)`` array of raw (un-canonicalised) candidate triples.
    """
    selected = thetas[:, _CANDIDATE_SELECTION] + _CANDIDATE_SHIFT[None, :, :]
    t1 = selected[..., 0]
    t2 = selected[..., 1]
    t3 = selected[..., 2]
    return np.stack(
        [(t1 + t2) / 2.0, (t2 + t3) / 2.0, (t1 + t3) / 2.0], axis=-1
    )


def _coordinates_from_thetas(
    thetas: np.ndarray, target_invariants: np.ndarray, atol: float
) -> np.ndarray:
    """Resolve canonical coordinates for a batch of theta rows.

    For each row, all 96 candidate pairings are canonicalised and their
    Makhlin invariants compared against the target in one numpy batch; the
    first matching candidate (in the historical enumeration order) wins, so
    the result is element-wise identical to the former per-candidate Python
    loop.

    Args:
        thetas: ``(m, 4)`` eigen-phase halves.
        target_invariants: ``(m, 3)`` Makhlin invariants of the unitaries.
        atol: invariant matching tolerance.

    Returns:
        ``(m, 3)`` canonical coordinates.

    Raises:
        WeylError: if some row has no candidate within the loose fallback
            tolerance (which indicates a non-unitary input).
    """
    m = len(thetas)
    raw = _candidate_batch(thetas)
    targets = np.asarray(target_invariants, dtype=float).reshape(m, 1, 3)
    out = np.empty((m, 3))
    matched = np.zeros(m, dtype=bool)
    # The unshifted permutations (first 24 candidates) almost always contain
    # the match, so they are scored first and the 72 branch-shifted variants
    # are only evaluated for rows still unresolved — the batched analogue of
    # the early exit the former per-candidate loop had.
    for start, stop in ((0, 24), (24, 96)):
        pending = np.flatnonzero(~matched)
        if pending.size == 0:
            break
        chunk = canonicalize_coordinates_many(
            raw[pending, start:stop].reshape(-1, 3)
        ).reshape(len(pending), stop - start, 3)
        invariants = makhlin_from_coordinates_many(chunk)
        chunk_targets = targets[pending]
        # Same tolerance semantics as np.allclose (used by invariants_close).
        close = np.all(
            np.abs(invariants - chunk_targets)
            <= atol + 1e-5 * np.abs(chunk_targets),
            axis=-1,
        )
        hit = close.any(axis=1)
        first = np.argmax(close, axis=1)
        rows = pending[hit]
        out[rows] = chunk[hit, first[hit]]
        matched[rows] = True

    if not matched.all():
        # Accept a slightly looser match before giving up — the invariant
        # comparison amplifies coordinate error near chamber edges.  Only
        # the unmatched rows re-score their 96 candidates.
        unmatched = np.flatnonzero(~matched)
        candidates = canonicalize_coordinates_many(
            raw[unmatched].reshape(-1, 3)
        ).reshape(len(unmatched), 96, 3)
        invariants = makhlin_from_coordinates_many(candidates)
        errors = np.linalg.norm(invariants - targets[unmatched], axis=-1)
        for position, index in enumerate(unmatched):
            best = int(np.argmin(errors[position]))
            if errors[position, best] < 1e-3:
                out[index] = candidates[position, best]
            else:
                raise WeylError(
                    "could not determine Weyl coordinates for the given matrix"
                )
    return out


def weyl_coordinates(
    unitary: np.ndarray, atol: float = 1e-6
) -> tuple[float, float, float]:
    """Canonical Weyl coordinates of a two-qubit unitary.

    Args:
        unitary: a 4x4 unitary matrix (any global phase).
        atol: tolerance used when matching Makhlin invariants.

    Returns:
        The canonical ``(a, b, c)`` triple inside the Weyl chamber.

    Raises:
        WeylError: if no candidate reproduces the unitary's local invariants
            (which indicates a non-unitary input).
    """
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != (4, 4):
        raise WeylError(f"expected a 4x4 matrix, got shape {unitary.shape}")
    coordinate = weyl_coordinates_many(unitary[None, :, :], atol=atol)[0]
    return (float(coordinate[0]), float(coordinate[1]), float(coordinate[2]))


def weyl_coordinates_many(
    unitaries: np.ndarray | Iterable[np.ndarray],
    atol: float = 1e-6,
) -> np.ndarray:
    """Canonical Weyl coordinates of a batch of two-qubit unitaries.

    Parameters
    ----------
    unitaries : array_like, shape (m, 4, 4)
        Two-qubit unitary matrices, any global phase (an iterable of
        4x4 matrices, or a single 4x4 matrix treated as a batch of one).
    atol : float
        Tolerance used when matching Makhlin invariants.

    Returns
    -------
    numpy.ndarray, shape (m, 3)
        Canonical ``(a, b, c)`` triples inside the Weyl chamber, row per
        input unitary.

    Raises
    ------
    WeylError
        On malformed shapes or non-unitary inputs (``|det| != 1``).

    Notes
    -----
    Both the per-unitary linear algebra (stacked determinants,
    magic-basis conjugations, eigenvalues) and the dominant cost —
    scoring the 96 candidate pairings of each unitary — run as numpy
    batches across the whole input; only the final Makhlin-invariant
    divisions loop per row, because numpy's complex array-division ufunc
    may round one ulp differently than scalar complex division, and a
    batch must stay **bit-identical** to :func:`weyl_coordinates`
    (itself a batch of one).  The result is deterministic and
    independent of batch composition: splitting, concatenating or
    reordering batches never changes any row's coordinates.  Extraction
    is pure computation — coordinate *memoisation* lives one level up in
    :class:`repro.polytopes.cache.CoordinateCache`, which dedups batch
    misses before calling this function.
    """
    stack = np.asarray(
        unitaries if isinstance(unitaries, np.ndarray) else list(unitaries),
        dtype=complex,
    )
    if stack.ndim == 2:
        stack = stack[None, :, :]
    if stack.ndim != 3 or stack.shape[1:] != (4, 4):
        raise WeylError(f"expected (m, 4, 4) matrices, got shape {stack.shape}")
    if len(stack) == 0:
        return np.zeros((0, 3))

    determinants = np.linalg.det(stack)
    if np.any(np.abs(np.abs(determinants) - 1.0) > 1e-6):
        raise WeylError("matrix is not unitary (|det| != 1)")
    su = stack / determinants[:, None, None] ** 0.25
    um = MAGIC_DAG @ su @ MAGIC
    gamma = np.transpose(um, (0, 2, 1)) @ um
    eigenvalues = np.linalg.eigvals(gamma)
    # Normalise away numerical drift off the unit circle.
    eigenvalues = eigenvalues / np.abs(eigenvalues)
    thetas = np.angle(eigenvalues) / 2.0

    # Makhlin invariants of the raw (un-normalised) unitaries.  The final
    # divisions run per row with numpy complex scalars because the complex
    # array-division ufunc rounds differently (by one ulp) than the scalar
    # path used by makhlin_invariants, and a batch must stay bit-identical
    # to the scalar API.
    um_raw = MAGIC_DAG @ stack @ MAGIC
    gamma_raw = np.transpose(um_raw, (0, 2, 1)) @ um_raw
    traces = np.trace(gamma_raw, axis1=1, axis2=2)
    traces_sq = np.trace(gamma_raw @ gamma_raw, axis1=1, axis2=2)
    targets = np.empty((len(stack), 3))
    for index in range(len(stack)):
        g12 = traces[index] ** 2 / (16 * determinants[index])
        g3 = (traces[index] ** 2 - traces_sq[index]) / (4 * determinants[index])
        targets[index] = (g12.real, g12.imag, g3.real)

    return _coordinates_from_thetas(thetas, targets, atol)


def coordinate_distance(
    left: Iterable[float], right: Iterable[float]
) -> float:
    """Euclidean distance between two canonical coordinates."""
    return float(
        np.linalg.norm(np.subtract(tuple(left), tuple(right)))
    )


def canonical_trace_fidelity(
    left: Iterable[float], right: Iterable[float]
) -> float:
    """Average-gate-fidelity proxy between two canonical classes.

    The trace overlap between ``CAN(x)`` and ``CAN(y)`` evaluated at the
    coordinate difference ``d = x - y``::

        Tr(CAN(y)^dag CAN(x)) = 4 * cos(da) cos(db) cos(dc)
                                 - 4 i sin(da) sin(db) sin(dc)

    which we convert to an average gate fidelity ``(|Tr|^2/16 * 4 + 1)/5``.
    This is the decomposition-fidelity estimate used by the approximate
    decomposition search; it is exact when the optimal local corrections are
    the identity and a tight, cheap proxy otherwise.
    """
    da, db, dc = np.subtract(tuple(left), tuple(right))
    real = math.cos(da) * math.cos(db) * math.cos(dc)
    imag = math.sin(da) * math.sin(db) * math.sin(dc)
    trace_sq = 16.0 * (real * real + imag * imag)
    entanglement_fidelity = trace_sq / 16.0
    return float((4.0 * entanglement_fidelity + 1.0) / 5.0)
