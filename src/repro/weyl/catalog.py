"""Catalog of named two-qubit gates and their Weyl coordinates.

This is the reproduction's equivalent of the session equivalence library the
paper extends: a single place that knows the coordinate (and matrix) of
every gate the transpiler and the analysis scripts talk about.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.exceptions import InvalidModeError
from repro.linalg.constants import (
    CNOT,
    CZ,
    ISWAP,
    SWAP,
    cphase,
    iswap_power,
    pswap,
)
from repro.weyl.canonical import PI4, PI8
from repro.weyl.coordinates import WeylCoordinate

# ---------------------------------------------------------------------------
# Fixed, named coordinates
# ---------------------------------------------------------------------------

IDENTITY_COORD = WeylCoordinate(0.0, 0.0, 0.0)
CNOT_COORD = WeylCoordinate(PI4, 0.0, 0.0)
ISWAP_COORD = WeylCoordinate(PI4, PI4, 0.0)
SWAP_COORD = WeylCoordinate(PI4, PI4, PI4)
SQRT_ISWAP_COORD = WeylCoordinate(PI8, PI8, 0.0)
B_GATE_COORD = WeylCoordinate(PI4, PI8, 0.0)
SQRT_SWAP_COORD = WeylCoordinate(PI8, PI8, PI8)

NAMED_COORDINATES: dict[str, WeylCoordinate] = {
    "id": IDENTITY_COORD,
    "cx": CNOT_COORD,
    "cz": CNOT_COORD,
    "cnot": CNOT_COORD,
    "iswap": ISWAP_COORD,
    "swap": SWAP_COORD,
    "sqrt_iswap": SQRT_ISWAP_COORD,
    "siswap": SQRT_ISWAP_COORD,
    "b": B_GATE_COORD,
    "sqrt_swap": SQRT_SWAP_COORD,
}

NAMED_MATRICES: dict[str, np.ndarray] = {
    "cx": CNOT,
    "cnot": CNOT,
    "cz": CZ,
    "iswap": ISWAP,
    "swap": SWAP,
    "sqrt_iswap": iswap_power(0.5),
}


def iswap_fraction_coordinate(exponent: float) -> WeylCoordinate:
    """Coordinate of ``iSWAP ** exponent`` (the XY family).

    ``iSWAP**t`` sits at ``(t*pi/4, t*pi/4, 0)`` for ``t`` in ``[0, 1]``.
    """
    if not 0.0 <= exponent <= 1.0:
        raise ValueError("iSWAP exponent must lie in [0, 1]")
    return WeylCoordinate.from_raw(
        (exponent * PI4, exponent * PI4, 0.0)
    )


def cphase_coordinate(theta: float) -> WeylCoordinate:
    """Coordinate of ``CPHASE(theta)``: ``(|theta|/4 mod ..., 0, 0)``."""
    return WeylCoordinate.from_raw((theta / 4.0, 0.0, 0.0))


def pswap_coordinate(theta: float) -> WeylCoordinate:
    """Coordinate of the parametric SWAP ``SWAP . CPHASE(theta)``."""
    return WeylCoordinate.from_unitary(pswap(theta))


def nth_root_iswap_coordinate(n: int) -> WeylCoordinate:
    """Coordinate of the ``n``-th root of iSWAP (``n >= 1``)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return iswap_fraction_coordinate(1.0 / n)


#: Callable matrix constructors for parametric families, keyed by name.
PARAMETRIC_MATRICES: dict[str, Callable[[float], np.ndarray]] = {
    "cphase": cphase,
    "pswap": pswap,
    "iswap_power": iswap_power,
}


def basis_gate_cost(basis: str) -> float:
    """Normalised pulse cost of a named basis gate (iSWAP == 1.0).

    The paper's convention (Section III-C / V): an iSWAP costs 1.0, its
    n-th roots cost 1/n, and a CNOT-family basis gate costs 1.0 (it needs
    the full interaction strength of an iSWAP-class pulse).

    Raises:
        InvalidModeError: if ``basis`` is not a str or names no known
            basis gate (``iswap_1_<n>`` needs ``n >= 1``).
    """
    if not isinstance(basis, str):
        raise InvalidModeError(f"basis must be a str, not {type(basis).__name__}")
    name = basis.lower()
    if name in {"iswap"}:
        return 1.0
    if name in {"sqrt_iswap", "siswap", "iswap_1_2"}:
        return 0.5
    if name in {"cbrt_iswap", "iswap_1_3"}:
        return 1.0 / 3.0
    if name in {"qtrt_iswap", "fourth_root_iswap", "iswap_1_4"}:
        return 0.25
    if name in {"cx", "cnot", "cz"}:
        return 1.0
    match = _parse_iswap_root(name)
    if match is not None:
        return 1.0 / match
    raise InvalidModeError(
        f"unknown basis gate {basis!r} — accepted: iswap, sqrt_iswap, "
        f"cbrt_iswap, qtrt_iswap, iswap_1_<n> (n >= 1), cx, cnot, cz"
    )


def _parse_iswap_root(name: str) -> int | None:
    """Parse names like ``iswap_1_5`` meaning the fifth root of iSWAP.

    Raises:
        InvalidModeError: if the root is below 1 (``iswap_1_0``,
            ``iswap_1_-2``).
    """
    parts = name.split("_")
    if len(parts) == 3 and parts[0] == "iswap" and parts[1] == "1":
        try:
            root = int(parts[2])
        except ValueError:
            return None
        if root < 1:
            raise InvalidModeError(
                f"basis {name!r}: the iSWAP root must be at least 1, got {root}"
            )
        return root
    return None


def basis_gate_coordinate(basis: str) -> WeylCoordinate:
    """Weyl coordinate of a named basis gate."""
    name = basis.lower()
    if name in NAMED_COORDINATES:
        return NAMED_COORDINATES[name]
    if name in {"iswap_1_2"}:
        return SQRT_ISWAP_COORD
    if name in {"cbrt_iswap", "iswap_1_3"}:
        return nth_root_iswap_coordinate(3)
    if name in {"qtrt_iswap", "fourth_root_iswap", "iswap_1_4"}:
        return nth_root_iswap_coordinate(4)
    root = _parse_iswap_root(name)
    if root is not None:
        return nth_root_iswap_coordinate(root)
    raise ValueError(f"unknown basis gate {basis!r}")


def basis_gate_matrix(basis: str) -> np.ndarray:
    """Unitary matrix of a named basis gate."""
    name = basis.lower()
    if name in NAMED_MATRICES:
        return NAMED_MATRICES[name]
    root = _parse_iswap_root(name)
    if root is not None:
        return iswap_power(1.0 / root)
    if name in {"cbrt_iswap"}:
        return iswap_power(1.0 / 3.0)
    if name in {"qtrt_iswap", "fourth_root_iswap"}:
        return iswap_power(0.25)
    raise ValueError(f"unknown basis gate {basis!r}")


def coordinate_of_named_gate(name: str, *params: float) -> WeylCoordinate:
    """Coordinate of a named (possibly parametric) two-qubit gate.

    Supports the gate names used by :mod:`repro.circuits.gates`:
    ``cx, cz, swap, iswap, cp/cphase, rzz, rxx, ryy, czz`` etc.
    """
    lowered = name.lower()
    if lowered in NAMED_COORDINATES:
        return NAMED_COORDINATES[lowered]
    if lowered in {"cp", "cphase", "cu1"}:
        return cphase_coordinate(params[0])
    if lowered in {"rzz", "rxx", "ryy"}:
        # exp(-i theta/2 PP) is locally equivalent to CAN(theta/2, 0, 0).
        return WeylCoordinate.from_raw((params[0] / 2.0, 0.0, 0.0))
    if lowered == "pswap":
        return pswap_coordinate(params[0])
    if lowered in {"xx_plus_yy", "xy"}:
        return WeylCoordinate.from_raw((params[0] / 4.0, params[0] / 4.0, 0.0))
    raise ValueError(f"no coordinate rule for gate {name!r}")


def max_exact_depth(basis: str) -> int:
    """Number of basis applications guaranteeing full Weyl-chamber coverage.

    The worst-case two-qubit target is SWAP, whose total interaction
    content corresponds to 1.5 iSWAP units; a basis gate of unit cost ``t``
    therefore needs ``ceil(1.5 / t)`` applications (3 for CNOT / sqrt(iSWAP),
    5 for the cube root, 6 for the fourth root, 3 for the full iSWAP which
    cannot do better than one SWAP per three applications).
    """
    cost = basis_gate_cost(basis)
    if cost >= 1.0:
        return 3
    return int(math.ceil(1.5 / cost - 1e-9))
