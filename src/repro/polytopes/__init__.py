"""Coverage polytopes — the numerical substitute for monodromy polytopes."""

from repro.polytopes.cache import (
    GLOBAL_COORDINATE_CACHE,
    CoordinateCache,
    clear_coverage_cache,
    coverage_cache_dir,
    coverage_cache_path,
)
from repro.polytopes.coverage import (
    CircuitPolytope,
    CoverageSet,
    build_circuit_polytope,
    build_coverage_set,
    get_coverage_set,
    load_or_build_coverage_set,
    sample_ansatz_coordinates,
)
from repro.polytopes.haar_score import (
    HaarScoreResult,
    cost_to_fidelity,
    coverage_volume_report,
    expected_cost,
    haar_score,
    score_comparison,
)
from repro.polytopes.polytope import WeylPolytope
from repro.polytopes.registry import (
    DEFAULT_REGISTRY,
    CoverageRegistry,
    RegistryHandle,
)

__all__ = [
    "DEFAULT_REGISTRY",
    "CoverageRegistry",
    "RegistryHandle",
    "GLOBAL_COORDINATE_CACHE",
    "CoordinateCache",
    "CircuitPolytope",
    "CoverageSet",
    "build_circuit_polytope",
    "build_coverage_set",
    "clear_coverage_cache",
    "coverage_cache_dir",
    "coverage_cache_path",
    "get_coverage_set",
    "load_or_build_coverage_set",
    "sample_ansatz_coordinates",
    "HaarScoreResult",
    "cost_to_fidelity",
    "coverage_volume_report",
    "expected_cost",
    "haar_score",
    "score_comparison",
    "WeylPolytope",
]
