"""SABRE layout: multi-trial initial-placement search with routing refinement.

For each trial a random initial layout is refined by routing the circuit
forward and backward (the final layout of one direction becomes the initial
layout of the other), then the refined layout is routed one final time and
the best trial is kept according to a *post-selection metric* — SWAP count
(stock SABRE) or decomposition-aware circuit depth (MIRAGE's improvement,
paper Section IV-B).

Trials are fully independent: each one draws from its own RNG stream
spawned via :class:`numpy.random.SeedSequence`, so the best result is
identical no matter in which order — or on which
:class:`~repro.transpiler.executors.TrialExecutor` — the trials run.
One frozen :class:`SabreLayout` record says what every trial of a circuit
runs, :func:`trial_refs` spawns one :class:`TrialRef` per trial, the
batch engine dispatches the pairs to :func:`run_trial`, and
:func:`select_best` picks the winner from the delivered outcomes.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Sequence

import numpy as np

from repro.exceptions import TranspilerError
from repro.polytopes.coverage import CoverageSet
from repro.transpiler.kernel import IntDAG
from repro.transpiler.layout import Layout
from repro.transpiler.metrics import ops_depth
from repro.transpiler.passes.mirror import mirror_rule
from repro.transpiler.passes.sabre_swap import (
    RoutingResult,
    route_state,
    routing_result,
)
from repro.transpiler.topologies import CouplingMap


def seed_sequence(
    seed: int | np.random.SeedSequence | np.random.Generator | None,
) -> np.random.SeedSequence:
    """Coerce any supported seed specification into a ``SeedSequence``.

    A caller-provided ``SeedSequence`` is rebuilt from its entropy and
    spawn key rather than used directly: ``spawn()`` mutates the parent's
    spawn counter, so reusing the caller's instance would make every run
    draw different child streams (silently breaking "same seed, same
    result").  The rebuilt copy always spawns from a fresh counter.
    A caller-provided ``Generator``, by contrast, is consumed — one draw
    of entropy advances its state, so reusing it gives fresh randomness.

    Anything else is handed to ``SeedSequence`` as entropy: ``None``, a
    non-negative integer (numpy integers included) or a sequence of them.
    What ``SeedSequence`` rejects (a negative integer, a float, a string)
    raises :class:`~repro.exceptions.TranspilerError`.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            entropy=seed.entropy, spawn_key=seed.spawn_key
        )
    if isinstance(seed, np.random.Generator):
        return np.random.SeedSequence(int(seed.integers(2**63)))
    try:
        return np.random.SeedSequence(seed)
    except (TypeError, ValueError) as exc:
        raise TranspilerError(
            f"invalid seed {seed!r}: expected None, a non-negative integer, "
            f"a sequence of them, a SeedSequence or a Generator ({exc})"
        ) from None



@dataclasses.dataclass(frozen=True)
class SabreLayout:
    """What every layout trial of one circuit runs, picklable.

    Every trial of one circuit shares this record; only the
    ``(trial_index, seed)`` pair of its :class:`TrialRef` differs.  The
    batch engine registers the record as one
    :class:`~repro.transpiler.executors.DispatchSession` payload,
    serialised once per circuit instead of once per trial (the coverage
    set rides as the session anchor).

    Attributes:
        intdag: the circuit's flat lowering
            (:meth:`~repro.transpiler.kernel.IntDAG.from_ops`), shipped
            as plain ndarrays.  The record carries no reverse direction:
            each process derives it with
            :meth:`~repro.transpiler.kernel.IntDAG.reversed` (memoised on
            the lowering).
        coupling: the device coupling map.
        coverage: the basis gate's coverage set; it prices MIRAGE's
            mirror decision and the depth post-selection.
        schedule: MIRAGE's aggression levels, trial ``i`` routing at
            ``schedule[i % len(schedule)]``, or ``None`` for SABRE.
        selection: ``"swaps"`` (fewest inserted SWAPs) or ``"depth"``
            (smallest decomposition-aware critical path).
        refinement_rounds: forward/backward routing rounds per trial.
        routing_trials: independent final routings per refined layout.
        name: names the routed circuit.
    """

    intdag: IntDAG
    coupling: CouplingMap
    coverage: CoverageSet
    schedule: tuple[int, ...] | None
    selection: str
    refinement_rounds: int
    routing_trials: int
    name: str = "dag"


@dataclasses.dataclass(frozen=True)
class TrialRef:
    """The light, per-trial half: which trial, and its private RNG stream."""

    trial_index: int
    seed: np.random.SeedSequence


def trial_refs(
    seed: int | np.random.SeedSequence | np.random.Generator | None,
    layout_trials: int,
) -> list[TrialRef]:
    """Spawn the light, order-insensitive per-trial seed records."""
    trial_seeds = seed_sequence(seed).spawn(layout_trials)
    return [
        TrialRef(trial_index=trial, seed=trial_seeds[trial])
        for trial in range(layout_trials)
    ]


@dataclasses.dataclass
class TrialOutcome:
    """Score, routing and wall time of one completed layout trial."""

    routing: RoutingResult
    score: float
    trial_index: int
    seconds: float = 0.0


def run_trial(spec: SabreLayout, ref: TrialRef) -> TrialOutcome:
    """Run one independent layout trial (module-level for picklability).

    The trial's entire randomness — initial layout, router tie-breaking in
    every refinement round and final routing — comes from one generator
    seeded by ``ref.seed``, so the outcome depends only on ``(spec, ref)``,
    never on sibling trials or execution order.

    That purity is also the replay contract of the fault-tolerant
    dispatch layer: after a worker crash or hang the lost ``(spec, ref)``
    pairs are simply re-dispatched (possibly on a respawned pool, a
    downgraded transport, or in-process), and the replayed outcomes are
    byte-identical to what the dead worker would have returned.  Keep
    this function free of hidden state — no module globals, no
    side effects beyond the memoised derived lowerings and mirror
    tables — or crash recovery silently stops being deterministic.

    Every round routes ``spec.intdag`` forward and its
    :meth:`~repro.transpiler.kernel.IntDAG.reversed` backward: the
    reverse lowering is derived from the forward arrays, shares their
    gate slots and mirror table, and is built at most once per lowering
    and process.  Rounds pass plain ``v2p`` lists; the ``Layout``s and
    the :class:`RoutingResult` are built for the kept run only.  A run
    scores ``float(swaps_added)`` under ``"swaps"``; under ``"depth"``
    a MIRAGE run scores the loop's own depth (priced by
    ``spec.coverage``) and a SABRE run the
    :func:`~repro.transpiler.metrics.ops_depth` of its ops.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(ref.seed)
    forward = spec.intdag
    reverse = forward.reversed()
    coupling = spec.coupling
    mirror = None
    if spec.schedule is not None:
        level = spec.schedule[ref.trial_index % len(spec.schedule)]
        mirror = mirror_rule(forward, spec.coverage, level)
    layout = Layout.random(forward.num_qubits, coupling.num_qubits, seed=rng)
    v2p = layout.virtual_to_physical()
    for _ in range(spec.refinement_rounds):
        v2p = route_state(forward, coupling, v2p, rng, mirror).v2p
        v2p = route_state(reverse, coupling, v2p, rng, mirror).v2p
    best = None
    best_score = math.inf
    for _ in range(max(1, spec.routing_trials)):
        state = route_state(forward, coupling, v2p, rng, mirror)
        if spec.selection == "swaps":
            score = float(state.swaps_added)
        elif mirror is not None:
            score = state.depth
        else:
            score = ops_depth(state.ops, spec.coverage)
        if best is None or score < best_score:
            best = state
            best_score = score
    assert best is not None  # routing_trials >= 1
    return TrialOutcome(
        routing=routing_result(
            best, Layout(v2p, coupling.num_qubits), coupling, spec.name
        ),
        score=best_score,
        trial_index=ref.trial_index,
        seconds=time.perf_counter() - start,
    )


def select_best(outcomes: Sequence[TrialOutcome]) -> TrialOutcome:
    """Pick the winning trial: lowest score, ties to the lowest index.

    The tie-break keeps the winner independent of trial execution order,
    so any executor returns the same outcome.
    """
    return min(outcomes, key=lambda o: (o.score, o.trial_index))
