"""Tests for the mirror transform (paper Eq. 1) and the gate catalog."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import SWAP, haar_unitary
from repro.weyl import (
    B_GATE_COORD,
    CNOT_COORD,
    IDENTITY_COORD,
    ISWAP_COORD,
    PI4,
    SQRT_ISWAP_COORD,
    SWAP_COORD,
    WeylCoordinate,
    basis_gate_coordinate,
    basis_gate_cost,
    basis_gate_matrix,
    coordinate_of_named_gate,
    cphase_coordinate,
    in_weyl_chamber,
    is_self_mirror,
    iswap_fraction_coordinate,
    max_exact_depth,
    mirror_coordinate,
    mirror_unitary,
    mirror_weyl,
    nth_root_iswap_coordinate,
    pswap_coordinate,
    weyl_coordinates,
)


def test_mirror_of_cnot_is_iswap():
    assert np.allclose(mirror_coordinate(CNOT_COORD), ISWAP_COORD.to_tuple(), atol=1e-9)


def test_mirror_of_iswap_is_cnot():
    assert np.allclose(mirror_coordinate(ISWAP_COORD), CNOT_COORD.to_tuple(), atol=1e-9)


def test_mirror_of_identity_is_swap():
    assert np.allclose(mirror_coordinate((0, 0, 0)), SWAP_COORD.to_tuple(), atol=1e-9)


def test_mirror_of_swap_is_identity():
    assert np.allclose(mirror_coordinate(SWAP_COORD), (0, 0, 0), atol=1e-9)


def test_mirror_is_an_involution_on_landmarks():
    for coord in (CNOT_COORD, ISWAP_COORD, SQRT_ISWAP_COORD, B_GATE_COORD):
        twice = mirror_coordinate(mirror_coordinate(coord))
        assert np.allclose(twice, coord.to_tuple(), atol=1e-9)


def test_b_gate_is_self_mirror():
    assert is_self_mirror(B_GATE_COORD)
    assert not is_self_mirror(CNOT_COORD)


def test_mirror_matches_swap_composition_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        unitary = haar_unitary(4, rng)
        via_formula = mirror_coordinate(weyl_coordinates(unitary))
        via_matrix = weyl_coordinates(SWAP @ unitary)
        assert np.allclose(via_formula, via_matrix, atol=1e-5)


def test_mirror_unitary_is_swap_product():
    unitary = haar_unitary(4, 19)
    assert np.allclose(mirror_unitary(unitary), SWAP @ unitary)


def test_mirror_weyl_returns_weyl_coordinate():
    mirrored = mirror_weyl(CNOT_COORD)
    assert isinstance(mirrored, WeylCoordinate)
    assert mirrored.isclose(ISWAP_COORD)


def test_cphase_mirrors_into_pswap_family():
    # Paper Fig. 6: mirror(CPHASE(theta)) == pSWAP(theta') for every theta.
    for theta in np.linspace(0.1, np.pi, 7):
        mirrored = mirror_coordinate(cphase_coordinate(theta))
        direct = weyl_coordinates(SWAP @ np.diag([1, 1, 1, np.exp(1j * theta)]))
        assert np.allclose(mirrored, direct, atol=1e-6)
        # pSWAP coordinates sit on the (pi/4, pi/4, c) edge of the chamber.
        assert np.isclose(mirrored[0], PI4, atol=1e-7)
        assert np.isclose(mirrored[1], PI4, atol=1e-7)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_mirror_involution_random(seed):
    unitary = haar_unitary(4, seed)
    coord = weyl_coordinates(unitary)
    assert np.allclose(
        mirror_coordinate(mirror_coordinate(coord)), coord, atol=1e-7
    )
    assert in_weyl_chamber(mirror_coordinate(coord), atol=1e-6)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def test_named_coordinates():
    assert basis_gate_coordinate("cx").isclose(CNOT_COORD)
    assert basis_gate_coordinate("iswap").isclose(ISWAP_COORD)
    assert basis_gate_coordinate("sqrt_iswap").isclose(SQRT_ISWAP_COORD)
    assert basis_gate_coordinate("iswap_1_3").isclose(nth_root_iswap_coordinate(3))
    assert basis_gate_coordinate("iswap_1_4").isclose(
        WeylCoordinate(PI4 / 4, PI4 / 4, 0.0)
    )


def test_basis_gate_cost_convention():
    assert basis_gate_cost("iswap") == 1.0
    assert basis_gate_cost("sqrt_iswap") == 0.5
    assert basis_gate_cost("iswap_1_3") == pytest.approx(1 / 3)
    assert basis_gate_cost("iswap_1_4") == 0.25
    assert basis_gate_cost("cx") == 1.0
    with pytest.raises(ValueError):
        basis_gate_cost("nope")


def test_max_exact_depth():
    assert max_exact_depth("cx") == 3
    assert max_exact_depth("iswap") == 3
    assert max_exact_depth("sqrt_iswap") == 3
    assert max_exact_depth("iswap_1_3") == 5
    assert max_exact_depth("iswap_1_4") == 6


def test_basis_gate_matrix_consistent_with_coordinate():
    for name in ("cx", "iswap", "sqrt_iswap", "iswap_1_4"):
        matrix = basis_gate_matrix(name)
        coord = basis_gate_coordinate(name)
        assert np.allclose(weyl_coordinates(matrix), coord.to_tuple(), atol=1e-7)


def test_iswap_fraction_validation():
    with pytest.raises(ValueError):
        iswap_fraction_coordinate(1.5)
    with pytest.raises(ValueError):
        nth_root_iswap_coordinate(0)


def test_pswap_coordinate_on_swap_edge():
    coord = pswap_coordinate(0.9)
    assert np.isclose(coord.a, PI4, atol=1e-7)
    assert np.isclose(coord.b, PI4, atol=1e-7)
    assert coord.c > 0


def test_coordinate_of_named_gate_parametrics():
    assert coordinate_of_named_gate("cp", np.pi).isclose(CNOT_COORD)
    assert coordinate_of_named_gate("rzz", np.pi / 2).isclose(CNOT_COORD)
    assert coordinate_of_named_gate("swap").isclose(SWAP_COORD)
    assert coordinate_of_named_gate("xx_plus_yy", np.pi).isclose(ISWAP_COORD)
    assert coordinate_of_named_gate("xy", np.pi / 2).isclose(SQRT_ISWAP_COORD)
    with pytest.raises(ValueError):
        coordinate_of_named_gate("unknown_gate")


def test_identity_coordinate_catalog():
    assert IDENTITY_COORD.is_identity()
    assert coordinate_of_named_gate("id").is_identity()
