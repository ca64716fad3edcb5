"""MIRAGE core: the mirror-gate router, aggression policy and public API."""

from repro.core.aggression import (
    Aggression,
    DEFAULT_AGGRESSION_DISTRIBUTION,
    accept_mirror,
    aggression_schedule,
    fixed_schedule,
    schedule_from_spec,
)
from repro.core.mirage_pass import MirageSwap
from repro.core.pipeline import (
    MirageRouterFactory,
    PlannedCircuit,
    TrialPlan,
    finish_plan,
    run_plan,
)
from repro.core.results import BatchResult, TranspileResult
from repro.core.transpile import (
    compare_methods,
    prepare_circuit,
    transpile,
    transpile_many,
)

__all__ = [
    "Aggression",
    "DEFAULT_AGGRESSION_DISTRIBUTION",
    "accept_mirror",
    "aggression_schedule",
    "fixed_schedule",
    "schedule_from_spec",
    "MirageSwap",
    "MirageRouterFactory",
    "PlannedCircuit",
    "TrialPlan",
    "finish_plan",
    "run_plan",
    "BatchResult",
    "TranspileResult",
    "compare_methods",
    "prepare_circuit",
    "transpile",
    "transpile_many",
]
