"""Gate definitions for the circuit IR.

A :class:`Gate` is a named operation with a fixed number of qubits and an
optional parameter list; its matrix (little-endian convention, qubit 0 least
significant) is produced on demand.  Consolidated two-qubit blocks are
represented by :class:`UnitaryGate`, which carries an explicit matrix and an
optional cached Weyl coordinate — the representation the MIRAGE routing pass
works with.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from repro.exceptions import CircuitError
from repro.linalg import constants as mat
from repro.linalg.su2 import rx, ry, rz, u3
from repro.linalg.unitary import is_unitary

# ---------------------------------------------------------------------------
# Matrix builders
# ---------------------------------------------------------------------------


def _phase(lam: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * lam)]).astype(complex)


def _crx(theta: float) -> np.ndarray:
    out = np.eye(4, dtype=complex)
    block = rx(theta)
    out[1, 1], out[1, 3] = block[0, 0], block[0, 1]
    out[3, 1], out[3, 3] = block[1, 0], block[1, 1]
    return out


def _cry(theta: float) -> np.ndarray:
    out = np.eye(4, dtype=complex)
    block = ry(theta)
    out[1, 1], out[1, 3] = block[0, 0], block[0, 1]
    out[3, 1], out[3, 3] = block[1, 0], block[1, 1]
    return out


def _crz(theta: float) -> np.ndarray:
    out = np.eye(4, dtype=complex)
    block = rz(theta)
    out[1, 1], out[1, 3] = block[0, 0], block[0, 1]
    out[3, 1], out[3, 3] = block[1, 0], block[1, 1]
    return out


def _rxx(theta: float) -> np.ndarray:
    return mat.xx_yy_interaction(-theta / 2.0, 0.0, 0.0)


def _ryy(theta: float) -> np.ndarray:
    return mat.xx_yy_interaction(0.0, -theta / 2.0, 0.0)


def _rzz(theta: float) -> np.ndarray:
    """``exp(-i theta/2 ZZ)`` as its closed-form diagonal.

    Bit for bit the matrix ``xx_yy_interaction(0, 0, -theta/2)`` builds
    through ``eigh`` (whose eigenvectors of the diagonal ``ZZ`` are exact),
    for every ``theta`` of magnitude above about ``1e-146``.  Below that
    LAPACK rescales the input and ``eigh`` loses the last bit that this
    form keeps.
    """
    half = -theta / 2.0
    even, odd = np.exp(1j * np.array([half, -half]))
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = out[3, 3] = even
    out[1, 1] = out[2, 2] = odd
    return out


def _xx_plus_yy(theta: float, beta: float = 0.0) -> np.ndarray:
    prephase = np.kron(_phase(beta), np.eye(2))
    core = mat.iswap_power(-theta / np.pi)
    return prephase.conj().T @ core @ prephase


def _ccx() -> np.ndarray:
    out = np.eye(8, dtype=complex)
    # Controls are qubits 0 and 1, target qubit 2 (little endian).
    out[3, 3], out[3, 7] = 0, 1
    out[7, 3], out[7, 7] = 1, 0
    return out


def _cswap() -> np.ndarray:
    out = np.eye(8, dtype=complex)
    # Control qubit 0; swap qubits 1 and 2.
    out[np.ix_([3, 5], [3, 5])] = np.array([[0, 1], [1, 0]])
    return out


def _ccz() -> np.ndarray:
    out = np.eye(8, dtype=complex)
    out[7, 7] = -1
    return out


_FIXED_MATRICES: dict[str, np.ndarray] = {
    "id": mat.ID,
    "x": mat.X,
    "y": mat.Y,
    "z": mat.Z,
    "h": mat.H,
    "s": mat.S,
    "sdg": mat.SDG,
    "t": mat.T,
    "tdg": mat.TDG,
    "sx": mat.SX,
    "cx": mat.CNOT,
    "cz": mat.CZ,
    "swap": mat.SWAP,
    "iswap": mat.ISWAP,
    "siswap": mat.SQRT_ISWAP,
    "ccx": _ccx(),
    "ccz": _ccz(),
    "cswap": _cswap(),
}

_PARAMETRIC_MATRICES: dict[str, Callable[..., np.ndarray]] = {
    "rx": rx,
    "ry": ry,
    "rz": rz,
    "p": _phase,
    "u": u3,
    "u3": u3,
    "cp": mat.cphase,
    "crx": _crx,
    "cry": _cry,
    "crz": _crz,
    "rxx": _rxx,
    "ryy": _ryy,
    "rzz": _rzz,
    "xx_plus_yy": _xx_plus_yy,
    "iswap_power": mat.iswap_power,
    "pswap": mat.pswap,
}

_GATE_QUBITS: dict[str, int] = {
    **{name: 1 for name in ("id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx",
                            "rx", "ry", "rz", "p", "u", "u3")},
    **{name: 2 for name in ("cx", "cz", "swap", "iswap", "siswap", "cp", "crx",
                            "cry", "crz", "rxx", "ryy", "rzz", "xx_plus_yy",
                            "iswap_power", "pswap")},
    **{name: 3 for name in ("ccx", "ccz", "cswap")},
}

#: Names of directives that are not unitary operations.
DIRECTIVES = {"barrier", "measure"}

#: Self-inverse gates (used by simple circuit simplification).
SELF_INVERSE = {"id", "x", "y", "z", "h", "cx", "cz", "swap", "ccx", "ccz", "cswap"}


@dataclasses.dataclass(frozen=True)
class Gate:
    """An immutable named gate.

    Attributes:
        name: lower-case gate name (e.g. ``"cx"``, ``"rz"``).
        num_qubits: arity.
        params: tuple of float parameters (possibly empty).
    """

    name: str
    num_qubits: int
    params: tuple[float, ...] = ()

    @property
    def is_directive(self) -> bool:
        return self.name in DIRECTIVES

    @property
    def is_two_qubit(self) -> bool:
        return self.num_qubits == 2 and not self.is_directive

    def matrix(self) -> np.ndarray:
        """The unitary matrix of this gate.

        Raises:
            CircuitError: for directives (barrier / measure).
        """
        if self.is_directive:
            raise CircuitError(f"directive {self.name!r} has no matrix")
        if self.name in _FIXED_MATRICES:
            return _FIXED_MATRICES[self.name].copy()
        if self.name in _PARAMETRIC_MATRICES:
            return _PARAMETRIC_MATRICES[self.name](*self.params)
        raise CircuitError(f"unknown gate {self.name!r}")

    def inverse(self) -> "Gate":
        """The inverse gate (kept in the same family when possible)."""
        if self.is_directive:
            raise CircuitError(f"directive {self.name!r} has no inverse")
        if self.name in SELF_INVERSE:
            return self
        inverses = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}
        if self.name in inverses:
            return Gate(inverses[self.name], self.num_qubits)
        if self.name in {"rx", "ry", "rz", "p", "cp", "crx", "cry", "crz",
                         "rxx", "ryy", "rzz"}:
            return Gate(self.name, self.num_qubits, (-self.params[0],))
        if self.name in {"u", "u3"}:
            theta, phi, lam = self.params
            return Gate(self.name, 1, (-theta, -lam, -phi))
        if self.name == "iswap":
            return Gate("iswap_power", 2, (-1.0,))
        if self.name == "siswap":
            return Gate("iswap_power", 2, (-0.5,))
        if self.name == "iswap_power":
            return Gate("iswap_power", 2, (-self.params[0],))
        raise CircuitError(f"no inverse rule for gate {self.name!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.params:
            rendered = ", ".join(f"{p:.4g}" for p in self.params)
            return f"{self.name}({rendered})"
        return self.name


class UnitaryGate(Gate):
    """A gate defined by an explicit unitary matrix.

    Used for consolidated two-qubit blocks.  The constructor skips the
    unitarity check when ``check=False`` (the MIRAGE hot path, mirroring the
    paper's removal of ``is_unitary`` in Section VI-C); a cached Weyl
    coordinate may be attached by the consolidation pass.  The ``label`` is
    the gate's ``name`` but never selects a rule: cleaning and unrolling
    apply their name rules to standard gates only, and a unitary is never
    a directive, whatever it is called.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        *,
        label: str = "unitary",
        check: bool = True,
        coordinate: tuple[float, float, float] | None = None,
    ) -> None:
        matrix = np.asarray(matrix, dtype=complex)
        dim = matrix.shape[0]
        if matrix.shape != (dim, dim) or dim & (dim - 1):
            raise CircuitError("unitary matrix must be square with power-of-two size")
        if check and not is_unitary(matrix):
            raise CircuitError("matrix is not unitary")
        num_qubits = int(math.log2(dim))
        object.__setattr__(self, "name", label)
        object.__setattr__(self, "num_qubits", num_qubits)
        object.__setattr__(self, "params", ())
        object.__setattr__(self, "_matrix", matrix)
        object.__setattr__(self, "coordinate", coordinate)

    @property
    def is_directive(self) -> bool:
        # A label names the block; it never makes it a barrier or measure.
        return False

    def matrix(self) -> np.ndarray:
        return self._matrix.copy()

    def inverse(self) -> "UnitaryGate":
        return UnitaryGate(
            self._matrix.conj().T, label=self.name, check=False
        )

    def with_coordinate(
        self, coordinate: tuple[float, float, float]
    ) -> "UnitaryGate":
        """Copy of the gate with a cached Weyl coordinate annotation."""
        return UnitaryGate(
            self._matrix, label=self.name, check=False, coordinate=coordinate
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UnitaryGate({self.name}, {self.num_qubits}q)"


def standard_gate(name: str, *params: float) -> Gate:
    """Construct a standard gate by name, validating the arity and parameters.

    Parameters must be finite: a NaN or infinite angle raises
    :class:`CircuitError` here rather than poisoning the matrices (and
    the LAPACK calls) of every later stage.
    """
    lowered = name.lower()
    if lowered in DIRECTIVES:
        raise CircuitError("use QuantumCircuit.barrier()/measure() for directives")
    if lowered not in _GATE_QUBITS:
        raise CircuitError(f"unknown gate {name!r}")
    expected_params = {
        "rx": 1, "ry": 1, "rz": 1, "p": 1, "cp": 1, "crx": 1, "cry": 1,
        "crz": 1, "rxx": 1, "ryy": 1, "rzz": 1, "iswap_power": 1, "pswap": 1,
        "u": 3, "u3": 3, "xx_plus_yy": (1, 2),
    }
    if lowered in expected_params:
        allowed = expected_params[lowered]
        allowed = (allowed,) if isinstance(allowed, int) else allowed
        if len(params) not in allowed:
            raise CircuitError(
                f"gate {name!r} expects {allowed} parameter(s), got {len(params)}"
            )
    elif params:
        raise CircuitError(f"gate {name!r} takes no parameters")
    values = tuple(float(p) for p in params)
    if not all(math.isfinite(value) for value in values):
        raise CircuitError(
            f"gate {name!r} parameters must be finite, got {values}"
        )
    return Gate(lowered, _GATE_QUBITS[lowered], values)


def gate_names() -> list[str]:
    """All supported standard-gate names."""
    return sorted(_GATE_QUBITS)
