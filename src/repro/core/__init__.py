"""MIRAGE core: the aggression policy, the Section V flow and the public API."""

from repro.core.aggression import (
    Aggression,
    DEFAULT_AGGRESSION_DISTRIBUTION,
    accept_mirror,
    aggression_schedule,
    fixed_schedule,
    schedule_from_spec,
)
from repro.core.pipeline import (
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
