"""Transpiler passes: cleaning, unrolling, consolidation, SABRE routing."""

from repro.transpiler.passes.cleanup import (
    clean_input,
    clean_input_permuted,
    elide_input_swaps,
    elide_input_swaps_permuted,
)
from repro.transpiler.passes.consolidate import consolidate_blocks
from repro.transpiler.passes.sabre_layout import (
    DepthMetric,
    LayoutResult,
    SabreLayout,
    SabreRouterFactory,
    TrialOutcome,
    TrialRef,
    TrialSpec,
    depth_metric,
    run_trial,
    seed_sequence,
    select_best,
    swap_count_metric,
)
from repro.transpiler.passes.sabre_swap import RoutingResult, SabreSwap
from repro.transpiler.passes.unroll import unroll_to_two_qubit

__all__ = [
    "clean_input",
    "clean_input_permuted",
    "elide_input_swaps",
    "elide_input_swaps_permuted",
    "consolidate_blocks",
    "DepthMetric",
    "LayoutResult",
    "SabreLayout",
    "SabreRouterFactory",
    "TrialOutcome",
    "TrialRef",
    "TrialSpec",
    "depth_metric",
    "run_trial",
    "seed_sequence",
    "select_best",
    "swap_count_metric",
    "RoutingResult",
    "SabreSwap",
    "unroll_to_two_qubit",
]
