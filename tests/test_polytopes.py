"""Tests for the coverage-polytope subsystem (monodromy substitute)."""

import numpy as np
import pytest

from repro.exceptions import CoverageError
from repro.polytopes import (
    CoordinateCache,
    CoverageSet,
    WeylPolytope,
    build_circuit_polytope,
    build_coverage_set,
    cost_to_fidelity,
    expected_cost,
    get_coverage_set,
    haar_score,
    sample_ansatz_coordinates,
    score_comparison,
)
from repro.linalg import CNOT, haar_unitary
from repro.weyl import (
    CNOT_COORD,
    ISWAP_COORD,
    PI4,
    PI8,
    SQRT_ISWAP_COORD,
    SWAP_COORD,
    mirror_coordinate,
)
from repro.weyl.haar import cached_haar_samples

# Small, fast coverage sets shared by the tests in this module.
SAMPLES = 250


@pytest.fixture(scope="module")
def sqrt_iswap_coverage():
    return build_coverage_set("sqrt_iswap", num_samples=SAMPLES, seed=3)


@pytest.fixture(scope="module")
def sqrt_iswap_mirror_coverage():
    return build_coverage_set("sqrt_iswap", num_samples=SAMPLES, seed=3, mirror=True)


@pytest.fixture(scope="module")
def haar_samples():
    return cached_haar_samples(400, 11)


# ---------------------------------------------------------------------------
# WeylPolytope geometry
# ---------------------------------------------------------------------------


def test_polytope_single_point():
    poly = WeylPolytope([[0.1, 0.05, 0.0]])
    assert poly.dimension == 0
    assert poly.contains((0.1, 0.05, 0.0))
    assert not poly.contains((0.2, 0.05, 0.0))
    assert poly.euclidean_volume == 0.0


def test_polytope_segment():
    poly = WeylPolytope([[0.0, 0.0, 0.0], [0.4, 0.0, 0.0]])
    assert poly.dimension == 1
    assert poly.contains((0.2, 0.0, 0.0))
    assert not poly.contains((0.5, 0.0, 0.0))
    assert not poly.contains((0.2, 0.1, 0.0))


def test_polytope_planar():
    points = [[0, 0, 0], [0.5, 0, 0], [0, 0.5, 0], [0.5, 0.5, 0]]
    poly = WeylPolytope(points)
    assert poly.dimension == 2
    assert poly.contains((0.25, 0.25, 0.0))
    assert not poly.contains((0.25, 0.25, 0.05))
    assert poly.euclidean_volume == 0.0


def test_polytope_full_dimensional():
    points = [
        [0, 0, 0],
        [0.6, 0, 0],
        [0, 0.6, 0],
        [0, 0, 0.6],
        [0.6, 0.6, 0.6],
    ]
    poly = WeylPolytope(points)
    assert poly.dimension == 3
    assert poly.euclidean_volume > 0
    assert poly.contains((0.1, 0.1, 0.1))
    assert not poly.contains((0.7, 0.0, 0.0))


def test_polytope_contains_mask_matches_scalar():
    points = [[0, 0, 0], [0.6, 0, 0], [0, 0.6, 0], [0, 0, 0.6]]
    poly = WeylPolytope(points)
    rng = np.random.default_rng(0)
    samples = rng.uniform(0, 0.6, size=(50, 3))
    mask = poly.contains_mask(samples)
    scalar = np.array([poly.contains(row) for row in samples])
    assert np.array_equal(mask, scalar)


def test_polytope_nearest_point_and_distance():
    points = [[0, 0, 0], [0.4, 0, 0], [0, 0.4, 0], [0, 0, 0.4]]
    poly = WeylPolytope(points)
    inside = (0.05, 0.05, 0.05)
    assert np.allclose(poly.nearest_point(inside), inside)
    assert poly.distance(inside) == 0.0
    outside = (1.0, 0.0, 0.0)
    nearest = poly.nearest_point(outside)
    assert np.allclose(nearest, (0.4, 0.0, 0.0), atol=1e-4)
    assert poly.distance(outside) == pytest.approx(0.6, abs=1e-3)


def test_polytope_rejects_bad_shape():
    with pytest.raises(ValueError):
        WeylPolytope([[0.0, 0.1]])


def test_polytope_union():
    left = WeylPolytope([[0, 0, 0], [0.2, 0, 0]])
    right = WeylPolytope([[0.4, 0, 0], [0.6, 0, 0]])
    union = left.union_with(right)
    assert union.contains((0.3, 0, 0))


# ---------------------------------------------------------------------------
# Ansatz sampling and circuit polytopes
# ---------------------------------------------------------------------------


def test_sample_ansatz_depth_one_is_single_class():
    points = sample_ansatz_coordinates("sqrt_iswap", 1, 10, seed=1)
    assert np.allclose(points, SQRT_ISWAP_COORD.to_tuple(), atol=1e-7)


def test_sample_ansatz_depth_two_spreads():
    points = sample_ansatz_coordinates("sqrt_iswap", 2, 60, seed=1)
    assert points.shape[1] == 3
    assert points[:, 0].max() > PI8


def test_circuit_polytope_depth_two_contains_cnot_and_iswap(sqrt_iswap_coverage):
    poly = sqrt_iswap_coverage.polytope_for_depth(2)
    assert poly.contains(CNOT_COORD.to_tuple())
    assert poly.contains(ISWAP_COORD.to_tuple())
    assert not poly.contains(SWAP_COORD.to_tuple())


def test_cnot_basis_depth_two_is_planar():
    polytope = build_circuit_polytope(
        "cx", 2, num_samples=150, seed=5, anchor=False
    )
    assert all(piece.dimension <= 2 for piece in polytope.pieces)
    assert polytope.contains(CNOT_COORD.to_tuple())
    assert polytope.contains(ISWAP_COORD.to_tuple())
    assert not polytope.contains(SWAP_COORD.to_tuple())


def test_circuit_polytope_nearest_point(sqrt_iswap_coverage):
    poly = sqrt_iswap_coverage.polytope_for_depth(2)
    nearest = poly.nearest_point(SWAP_COORD.to_tuple())
    assert not np.allclose(nearest, SWAP_COORD.to_tuple())


def test_circuit_polytope_label(sqrt_iswap_coverage):
    assert "k=2" in sqrt_iswap_coverage.polytope_for_depth(2).label


# ---------------------------------------------------------------------------
# CoverageSet queries
# ---------------------------------------------------------------------------


def test_coverage_costs_of_landmarks(sqrt_iswap_coverage):
    cov = sqrt_iswap_coverage
    assert cov.cost_of(SQRT_ISWAP_COORD) == pytest.approx(0.5)
    assert cov.cost_of(CNOT_COORD) == pytest.approx(1.0)
    assert cov.cost_of(ISWAP_COORD) == pytest.approx(1.0)
    assert cov.cost_of(SWAP_COORD) == pytest.approx(1.5)
    assert cov.cost_of((0, 0, 0)) == pytest.approx(0.0)  # identity needs no pulses


def test_coverage_depth_of(sqrt_iswap_coverage):
    assert sqrt_iswap_coverage.depth_of(CNOT_COORD) == 2
    assert sqrt_iswap_coverage.depth_of(SWAP_COORD) == 3


def test_coverage_mirror_cost(sqrt_iswap_coverage):
    # mirror of SWAP is the identity: decomposition becomes trivial.
    assert sqrt_iswap_coverage.mirror_cost_of(SWAP_COORD) <= 0.5
    # mirror of CNOT is iSWAP: same cost in the sqrt(iSWAP) basis.
    assert sqrt_iswap_coverage.mirror_cost_of(CNOT_COORD) == pytest.approx(
        sqrt_iswap_coverage.cost_of(CNOT_COORD)
    )


def test_coverage_cache_counters(sqrt_iswap_coverage):
    sqrt_iswap_coverage.clear_cache()
    sqrt_iswap_coverage.cost_of(CNOT_COORD)
    sqrt_iswap_coverage.cost_of(CNOT_COORD)
    info = sqrt_iswap_coverage.cache_info()
    assert info["hits"] == 1
    assert info["misses"] == 1
    assert info["size"] == 1


def test_coverage_cheaper_polytopes(sqrt_iswap_coverage):
    cheaper = sqrt_iswap_coverage.cheaper_polytopes(1.5)
    assert all(poly.cost < 1.5 for poly in cheaper)
    assert len(cheaper) == 3  # depths 0, 1 and 2


def test_coverage_requires_polytopes():
    with pytest.raises(CoverageError):
        CoverageSet("sqrt_iswap", [])


def test_coverage_unknown_depth_raises(sqrt_iswap_coverage):
    with pytest.raises(CoverageError):
        sqrt_iswap_coverage.polytope_for_depth(9)


def test_mirror_coverage_is_superset(sqrt_iswap_coverage, sqrt_iswap_mirror_coverage, haar_samples):
    exact = sqrt_iswap_coverage.polytope_for_depth(2)
    mirrored = sqrt_iswap_mirror_coverage.polytope_for_depth(2)
    assert mirrored.haar_volume(haar_samples) >= exact.haar_volume(haar_samples)
    # Mirror coverage contains the mirror of everything in the exact region.
    assert mirrored.contains(mirror_coordinate(CNOT_COORD))
    assert mirrored.contains(mirror_coordinate((0.0, 0.0, 0.0)))


def test_sqrt_iswap_depth2_volume_reasonable(sqrt_iswap_coverage, haar_samples):
    # Paper Fig. 3c: ~79% Haar coverage; allow slack for the small test build.
    volume = sqrt_iswap_coverage.polytope_for_depth(2).haar_volume(haar_samples)
    assert 0.6 < volume < 0.95


def test_get_coverage_set_is_cached():
    first = get_coverage_set("cx", num_samples=100, seed=3)
    second = get_coverage_set("cx", num_samples=100, seed=3)
    assert first is second


# ---------------------------------------------------------------------------
# Haar scores
# ---------------------------------------------------------------------------


def test_expected_cost_and_fidelity(sqrt_iswap_coverage, haar_samples):
    score, costs = expected_cost(sqrt_iswap_coverage, haar_samples)
    assert 0.5 <= score <= 1.5
    assert costs.min() >= 0.5
    assert costs.max() <= 1.5
    fid = cost_to_fidelity(costs)
    assert np.all(fid <= 0.99**0.5 + 1e-12)


def test_haar_score_mirror_improves(sqrt_iswap_coverage, sqrt_iswap_mirror_coverage, haar_samples):
    exact = haar_score(sqrt_iswap_coverage, samples=haar_samples)
    mirrored = haar_score(sqrt_iswap_mirror_coverage, samples=haar_samples)
    assert mirrored.score <= exact.score
    assert mirrored.average_fidelity >= exact.average_fidelity
    rows = score_comparison([exact, mirrored])
    assert rows[0]["basis"] == "sqrt_iswap"
    assert rows[1]["mirrored"] is True


# ---------------------------------------------------------------------------
# Coordinate cache
# ---------------------------------------------------------------------------


def test_coordinate_cache_hits():
    cache = CoordinateCache(maxsize=4)
    first = cache.coordinate(CNOT)
    second = cache.coordinate(CNOT)
    assert first == second
    assert cache.info()["hits"] == 1
    assert cache.info()["misses"] == 1


def test_coordinate_cache_eviction():
    cache = CoordinateCache(maxsize=2)
    rng = np.random.default_rng(0)
    for _ in range(4):
        cache.coordinate(haar_unitary(4, rng))
    assert len(cache) == 2


def test_coordinate_cache_batch_keys_match_scalar_keys():
    """One ``np.round`` over the stacked batch gives every matrix the
    bytes ``_key`` gives it alone: negative zeros, values that round to
    (negative) zero, real-dtype inputs and non-C-ordered views included."""
    cache = CoordinateCache()
    rng = np.random.default_rng(5)
    signed_zeros = np.array(
        [[-0.0, 0.0, -1e-12, 1e-12]] * 4, dtype=complex
    ) + np.array([[0.0, -0.0, -0.0, -1e-11]] * 4) * 1j
    real_permutation = np.eye(4)[[1, 0, 3, 2]]
    real_negative = -np.eye(4, dtype=np.float32)
    unitaries = [
        CNOT,
        signed_zeros,
        real_permutation,
        real_negative,
        haar_unitary(4, rng),
        haar_unitary(4, rng).T,  # a Fortran-ordered view
        CNOT,
    ]
    keys = cache._keys(unitaries)
    assert keys == [cache._key(unitary) for unitary in unitaries]
    assert all(type(key) is bytes for key in keys)
    assert cache._keys([]) == []
    assert cache.coordinates_many([]) == []
    valid = [u for u in unitaries if u is not signed_zeros]
    batch = cache.coordinates_many(valid)
    assert batch == [CoordinateCache().coordinate(u) for u in valid]


def test_coordinate_cache_put_and_clear():
    cache = CoordinateCache()
    cache.put(CNOT, (PI4, 0.0, 0.0))
    assert cache.coordinate(CNOT) == (PI4, 0.0, 0.0)
    assert cache.info()["hits"] == 1
    cache.clear()
    assert len(cache) == 0
