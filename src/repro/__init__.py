"""MIRAGE reproduction: mirror-gate aware quantum transpilation.

The top-level package re-exports the small public API most users need:

* :func:`repro.transpile` — transpile a circuit for a topology + basis gate,
  with or without MIRAGE mirror-gate routing.
* :class:`repro.circuits.QuantumCircuit` — the circuit IR.
* :mod:`repro.circuits.library` — benchmark circuit generators.
* :mod:`repro.polytopes` — coverage-set / Haar-score analysis.
"""

from __future__ import annotations

__version__ = "1.0.0"

# Re-exported lazily to keep import time low for scripts that only need a
# subpackage; the names below are resolved on first attribute access.
_LAZY_EXPORTS = {
    "transpile": "repro.core.transpile",
    "transpile_many": "repro.core.transpile",
    "TranspileResult": "repro.core.results",
    "BatchResult": "repro.core.results",
    "QuantumCircuit": "repro.circuits.circuit",
    "WeylCoordinate": "repro.weyl.coordinates",
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        import importlib

        module = importlib.import_module(_LAZY_EXPORTS[name])
        return getattr(module, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__all__ = [
    "transpile",
    "transpile_many",
    "TranspileResult",
    "BatchResult",
    "QuantumCircuit",
    "WeylCoordinate",
    "__version__",
]
