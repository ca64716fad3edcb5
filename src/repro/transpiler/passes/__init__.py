"""Transpiler passes: cleaning, unrolling, consolidation, SABRE/MIRAGE routing."""

from repro.transpiler.passes.cleanup import (
    clean_input,
    clean_input_permuted,
    elide_input_swaps,
    elide_input_swaps_permuted,
)
from repro.transpiler.passes.consolidate import consolidate_blocks
from repro.transpiler.passes.mirror import MirrorTable, mirror_gate, mirror_table
from repro.transpiler.passes.sabre_layout import (
    SabreLayout,
    TrialOutcome,
    TrialRef,
    run_trial,
    seed_sequence,
    select_best,
    trial_refs,
)
from repro.transpiler.passes.sabre_swap import RoutingResult, route
from repro.transpiler.passes.unroll import unroll_to_two_qubit

__all__ = [
    "clean_input",
    "clean_input_permuted",
    "elide_input_swaps",
    "elide_input_swaps_permuted",
    "consolidate_blocks",
    "MirrorTable",
    "mirror_gate",
    "mirror_table",
    "SabreLayout",
    "TrialOutcome",
    "TrialRef",
    "run_trial",
    "seed_sequence",
    "select_best",
    "trial_refs",
    "RoutingResult",
    "route",
    "unroll_to_two_qubit",
]
