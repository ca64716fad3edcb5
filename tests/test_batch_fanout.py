"""Tests for the circuit-level batch fan-out engine and shared dispatch.

Covers the three hard guarantees of the batch engine:

* fixed-seed :func:`repro.core.transpile.transpile_many` outputs are
  byte-identical to per-circuit :func:`repro.core.transpile.transpile`
  calls on the same seed tree, and across all three executors;
* the chunked shared-payload dispatch pickles the coverage set exactly
  once per batch (the re-pickling regression check);
* MIRAGE's mirror decision (:func:`repro.transpiler.passes.route` at an
  aggression level) is byte-identical in the compiled and the
  pure-Python route loop.
"""

import pickle

import numpy as np
import pytest

from repro.exceptions import TranspilerError
from repro.circuits.library import ghz, qft, twolocal_full
from repro.core import transpile, transpile_many
from repro.core.transpile import prepare_circuit
from repro.polytopes import get_coverage_set
from repro.polytopes.coverage import CoverageSet
from repro.transpiler import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    line_topology,
)
from repro.circuits.circuit import OpList
from repro.transpiler.kernel import IntDAG, route
from repro.transpiler.kernel.native import load_routec
from repro.transpiler.layout import Layout
from repro.transpiler import passes
from repro.transpiler.passes import trial_refs

COVERAGE = get_coverage_set("sqrt_iswap", num_samples=250, seed=3)


def _lower(circuit):
    """The circuit's routing lowering, as the ``plan`` stage builds it."""
    return IntDAG.from_ops(circuit.num_qubits, OpList.of(circuit).ops)


def _fingerprint(result):
    """Byte-level identity of a transpile result, modulo wall-clock."""
    return (
        [(instr.gate.name, instr.qubits) for instr in result.circuit],
        result.initial_layout.virtual_to_physical(),
        result.final_layout.virtual_to_physical(),
        result.swaps_added,
        result.mirrors_accepted,
        result.trial_index,
        round(result.metrics.depth, 9),
    )


def _circuits():
    return [qft(4), ghz(5), twolocal_full(4)]


def _batch(executor=None, circuits=None, **kwargs):
    return transpile_many(
        circuits if circuits is not None else _circuits(),
        line_topology(5),
        coverage=COVERAGE,
        use_vf2=False,
        layout_trials=3,
        seed=7,
        executor=executor,
        **kwargs,
    )


def _sequential(circuits=None, coupling=None, seed=7, **kwargs):
    """Per-circuit ``transpile()`` on the batch's spawn-by-position seeds."""
    circuits = circuits if circuits is not None else _circuits()
    options = dict(coverage=COVERAGE, use_vf2=False, layout_trials=3)
    options.update(kwargs)
    roots = np.random.SeedSequence(seed).spawn(len(circuits))
    return [
        transpile(circuit, coupling or line_topology(5), seed=root, **options)
        for circuit, root in zip(circuits, roots)
    ]


# ---------------------------------------------------------------------------
# Byte-identical results across the batch engine and executors
# ---------------------------------------------------------------------------


def test_circuit_fanout_matches_sequential():
    assert [_fingerprint(r) for r in _sequential()] == [
        _fingerprint(r) for r in _batch()
    ]


@pytest.mark.parametrize("make_executor", [
    SerialExecutor,
    lambda: ThreadExecutor(max_workers=2),
    lambda: ProcessExecutor(max_workers=2),
], ids=["serial", "threads", "processes"])
def test_circuit_fanout_identical_across_executors(make_executor):
    reference = _sequential()
    with make_executor() as executor:
        fanned = _batch(executor=executor)
    assert [_fingerprint(r) for r in reference] == [
        _fingerprint(r) for r in fanned
    ]


def test_batch_of_one_runs_through_the_engine():
    """A batch of one is planned, dispatched and selected like any other
    batch, and ``transpile()`` is that batch with its seed as the root."""
    single = _batch(circuits=[qft(4)], circuit_seeds=[7])
    assert single.dispatch["tasks"] == 3
    direct = transpile(qft(4), line_topology(5), coverage=COVERAGE,
                       use_vf2=False, layout_trials=3, seed=7)
    assert _fingerprint(single[0]) == _fingerprint(direct)


def test_fanout_rejects_unknown_mode():
    """``fanout=`` is gone: every value is an unknown keyword."""
    for mode in ("galaxies", "trials", "circuits"):
        with pytest.raises(TypeError, match="fanout"):
            _batch(fanout=mode)


def test_scheduler_argument_is_gone():
    """One engine: ``scheduler=`` is an unknown keyword, whatever its value."""
    for mode in ("auto", "stream", "barrier"):
        with pytest.raises(TypeError, match="scheduler"):
            _batch(scheduler=mode)


def test_mode_error_is_both_transpiler_and_value_error():
    """Callers catching either historical type keep working."""
    with pytest.raises(TranspilerError):
        transpile_many([], line_topology(4), coverage=COVERAGE, basis="warp")
    with pytest.raises(ValueError):
        transpile_many([], line_topology(4), coverage=COVERAGE,
                       on_error="warp")


def test_explicit_circuit_seeds_match_direct_transpile():
    """``circuit_seeds`` pins each slot to its own seed root: position i
    is byte-identical to ``transpile(seed=circuit_seeds[i])``, which is
    what lets the service tier coalesce requests without changing any
    output bit."""
    seeds = [5, 91, 17]
    circuits = [qft(4), ghz(5), twolocal_full(4)]
    batch = _batch(circuits=circuits, circuit_seeds=seeds)
    direct = [
        transpile(circuit, line_topology(5), coverage=COVERAGE,
                  use_vf2=False, layout_trials=3, seed=seed)
        for circuit, seed in zip(circuits, seeds)
    ]
    assert [_fingerprint(r) for r in batch] == [
        _fingerprint(r) for r in direct
    ]


def test_circuit_seeds_length_mismatch_rejected():
    with pytest.raises(TranspilerError, match="circuit_seeds"):
        _batch(circuits=[qft(4), ghz(5)], circuit_seeds=[1])


def test_circuit_fanout_handles_vf2_embedded_circuits():
    """Circuits VF2 embeds contribute no trials but keep their slot."""
    circuits = [ghz(4), qft(4), ghz(3)]
    sequential = _sequential(circuits, line_topology(4), seed=5,
                             use_vf2=True, layout_trials=2)
    fanned = transpile_many(
        circuits, line_topology(4), coverage=COVERAGE, layout_trials=2,
        seed=5,
    )
    assert [r.method for r in fanned] == ["vf2", "mirage", "vf2"]
    assert [_fingerprint(r) for r in sequential] == [
        _fingerprint(r) for r in fanned
    ]
    assert fanned.dispatch["routed"] == 1
    assert fanned.dispatch["circuits"] == 3


def test_circuit_fanout_empty_batch():
    batch = transpile_many([], line_topology(4), coverage=COVERAGE, seed=1)
    assert len(batch) == 0
    assert batch.summary()["circuits"] == 0
    assert batch.stage_seconds() == {}


def test_circuit_fanout_reports_and_provenance():
    fanned = _batch()
    # Per-circuit reports show the full front pipeline plus route/select.
    names = [rec["name"] for rec in fanned[0].pipeline_report]
    assert names == [
        "clean", "unroll", "consolidate", "coupling",
        "coverage", "analyze", "vf2", "plan", "route", "select",
    ]
    assert all(r.trial_seconds is not None and r.trial_seconds > 0
               for r in fanned)
    assert all(r.runtime_seconds > 0 for r in fanned)
    assert fanned.trial_seconds() > 0
    assert len(fanned.circuit_seconds()) == 3
    assert fanned.dispatch["tasks"] == 9  # 3 circuits x 3 layout trials


# ---------------------------------------------------------------------------
# Chunked shared-payload dispatch: re-pickling regression checks
# ---------------------------------------------------------------------------


def test_process_fanout_pickles_coverage_once(monkeypatch):
    """One batch dispatch must serialise the coverage set exactly once.

    Before the shared-payload dispatch, process-pool trials re-pickled
    the coverage set (inside the router factory / metric) once per chunk
    of every circuit; the batch engine serialises it once, as the
    session anchor.
    """
    calls = {"count": 0}
    original = CoverageSet.__getstate__

    def counting_getstate(self):
        calls["count"] += 1
        return original(self)

    monkeypatch.setattr(CoverageSet, "__getstate__", counting_getstate)
    with ProcessExecutor(max_workers=2) as executor:
        fanned = _batch(executor=executor)
    assert fanned.dispatch["shared_pickles"] == 1  # the session anchor
    assert calls["count"] == 1
    assert fanned.dispatch["chunks"] >= 1
    assert fanned.dispatch["tasks"] == 9


def test_trial_refs_are_light():
    """The per-trial records must not drag the lowering or coverage along."""
    refs = trial_refs(2, 4)
    payload = pickle.dumps(refs, protocol=pickle.HIGHEST_PROTOCOL)
    # A SeedSequence plus an int pickles to well under a kilobyte each.
    assert len(payload) < 1024 * len(refs)
    assert b"CoverageSet" not in payload
    assert b"IntDAG" not in payload


def test_map_shared_preserves_order_and_results():
    tasks = list(range(23))
    expected = [x * 3 for x in tasks]
    serial = SerialExecutor()
    assert serial.map_shared(lambda s, x: x * s, 3, tasks) == expected
    with ThreadExecutor(max_workers=3) as threads:
        assert threads.map_shared(lambda s, x: x * s, 3, tasks) == expected
    with ProcessExecutor(max_workers=2) as processes:
        assert processes.map_shared(_times, 3, tasks) == expected
        stats = processes.dispatch_stats
        assert stats["payload_pickles"] == 1
        assert stats["shared_pickles"] == 0
        assert stats["tasks"] == 23
        assert stats["chunks"] >= 2


def _times(shared, task):
    return task * shared


def test_map_shared_single_task_stays_inline():
    with ProcessExecutor(max_workers=2) as processes:
        assert processes.map_shared(_times, 5, [7]) == [35]
        assert processes.dispatch_stats["payload_pickles"] == 0
        assert processes.dispatch_stats["shared_pickles"] == 0


# ---------------------------------------------------------------------------
# MIRAGE mirror decision: compiled loop vs Python loop
# ---------------------------------------------------------------------------


def _routing_digest(result):
    return [(gate.name, tuple(physical)) for gate, physical in result.ops]


@pytest.mark.parametrize("aggression", [1, 2, 3])
@pytest.mark.parametrize("circuit", [qft(6), twolocal_full(5)],
                         ids=["qft6", "twolocal5"])
def test_delta_mirror_commit_matches_copy_rescore(circuit, aggression):
    """Both loops take the same mirror decisions.  The Python loop's
    ``route._mirror_routing_costs`` sums the lookahead window directly,
    before and after the virtual SWAP, so it is the rescore reference."""
    lowering = _lower(prepare_circuit(circuit))
    coupling = line_topology(lowering.num_qubits)
    compiled = load_routec()
    for seed in (1, 5):
        layout = Layout.random(lowering.num_qubits, coupling.num_qubits, seed=seed)
        runs = []
        for module in (None, compiled):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(route, "load_routec", lambda: module)
                runs.append(passes.route(
                    lowering, coupling, layout, seed,
                    coverage=COVERAGE, aggression=aggression,
                ))
        python, native = runs
        assert python.mirror_candidates
        assert _routing_digest(native) == _routing_digest(python)
        assert native.mirrors_accepted == python.mirrors_accepted
        assert native.final_layout == python.final_layout
