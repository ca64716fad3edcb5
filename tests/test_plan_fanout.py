"""Tests for the plan stage of circuit-level batch fan-out.

Every circuit of a :func:`repro.core.transpile.transpile_many` batch is
planned on the dispatching thread; only its routing trials are shipped
to the executor.  Covers:

* fixed-seed outputs are **byte-identical** across transports and
  executors (one shared digest pins every variant);
* plan provenance lands on ``BatchResult.dispatch`` (``plan_seconds``,
  trial ``tasks``, worker-side ``bytes_copied``), and a process pool
  never receives a planning task;
* a circuit whose deadline already expired is never planned;
* a circuit failing mid-plan propagates the error without leaking
  shared-memory segments;
* the coverage set crosses the process boundary exactly once per batch,
  as the session anchor.
"""

import functools
import glob
import hashlib
import importlib
import os
import time

import numpy as np
import pytest

from repro.exceptions import DeadlineExceededError, TranspilerError
from repro.circuits.library import ghz, qft, twolocal_full
from repro.core import compare_methods, transpile, transpile_many
from repro.polytopes import get_coverage_set
from repro.polytopes.coverage import CoverageSet
from repro.transpiler import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    line_topology,
)
from repro.transpiler.executors import SHM_SEGMENT_PREFIX, shm_transport_enabled

COVERAGE = get_coverage_set("sqrt_iswap", num_samples=250, seed=3)

needs_shm = pytest.mark.skipif(
    not shm_transport_enabled(),
    reason="POSIX shared memory unavailable on this platform",
)


def _own_segments() -> list[str]:
    return glob.glob(f"/dev/shm/{SHM_SEGMENT_PREFIX}{os.getpid()}_*")


def _digest(batch) -> str:
    """One digest pinning the byte-level identity of a whole batch."""
    hasher = hashlib.sha256()
    for result in batch:
        for instruction in result.circuit:
            params = ",".join(f"{p:.12e}" for p in instruction.gate.params)
            hasher.update(
                f"{instruction.gate.name}({params})@{instruction.qubits}\n"
                .encode()
            )
        hasher.update(
            f"{result.trial_index}|{result.swaps_added}|"
            f"{result.mirrors_accepted}\n".encode()
        )
    return hasher.hexdigest()


def _batch(executor=None, **kwargs):
    return transpile_many(
        [qft(4), ghz(5), twolocal_full(4)],
        line_topology(5),
        coverage=COVERAGE,
        use_vf2=False,
        layout_trials=3,
        seed=7,
        executor=executor,
        **kwargs,
    )


#: Per-circuit ``transpile()`` on the batch's spawn-by-position seeds.
REFERENCE_DIGEST = _digest(
    transpile(
        circuit,
        line_topology(5),
        coverage=COVERAGE,
        use_vf2=False,
        layout_trials=3,
        seed=root,
    )
    for circuit, root in zip(
        [qft(4), ghz(5), twolocal_full(4)], np.random.SeedSequence(7).spawn(3)
    )
)


def _counting_run_plan(monkeypatch) -> dict:
    """Count the dispatching thread's :func:`run_plan` calls."""
    # `repro.core` re-exports a `transpile` *function*, which shadows the
    # submodule under plain attribute-style import.
    transpile_mod = importlib.import_module("repro.core.transpile")
    real_run_plan = transpile_mod.run_plan
    calls = {"n": 0}

    def counting_run_plan(spec, task):
        calls["n"] += 1
        return real_run_plan(spec, task)

    monkeypatch.setattr(transpile_mod, "run_plan", counting_run_plan)
    return calls


# ---------------------------------------------------------------------------
# Digest-pinned byte identity across executors / transports
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("plan", ["local", "executor", "auto"])
@pytest.mark.parametrize("make_executor", [
    SerialExecutor,
    lambda: ThreadExecutor(max_workers=2),
    lambda: ProcessExecutor(max_workers=2),
], ids=["serial", "threads", "processes"])
def test_plan_modes_digest_identical_across_executors(make_executor, plan):
    """Every retired plan mode's output survives the single engine.

    The ``plan=`` argument is refused outright rather than silently
    ignored, and a caller that drops it gets the digest each mode was
    pinned to.
    """
    with pytest.raises(TypeError):
        _batch(plan=plan)
    with make_executor() as executor:
        fanned = _batch(executor)
    assert _digest(fanned) == REFERENCE_DIGEST
    assert "plan_mode" not in fanned.dispatch
    assert _own_segments() == []


def test_plan_digest_identical_without_shm(monkeypatch):
    monkeypatch.setenv("MIRAGE_SHM_DISABLE", "1")
    with ProcessExecutor(max_workers=2) as executor:
        fanned = _batch(executor)
    assert _digest(fanned) == REFERENCE_DIGEST
    # The pool streamed over inline blobs: no segment, and the coverage
    # set still pickled once, as the session anchor.
    assert fanned.dispatch["shm_segments"] == 0
    assert fanned.dispatch["shared_pickles"] == 1


@functools.cache
def _per_variant_digests() -> dict[str, str]:
    """Digest of a per-variant ``transpile(use_vf2=False)`` call."""
    variants = [("sabre", "sabre", "swaps"), ("mirage-swaps", "mirage", "swaps"),
                ("mirage-depth", "mirage", "depth")]
    return {
        key: _digest([transpile(
            twolocal_full(4), line_topology(4), method=method,
            selection=selection, layout_trials=3, coverage=COVERAGE,
            use_vf2=False, seed=5,
        )])
        for key, method, selection in variants
    }


@pytest.mark.parametrize("kind", [
    "serial", "threads", "processes", "processes-blob",
])
def test_compare_methods_identical_across_executors(monkeypatch, kind):
    """``compare_methods`` runs its variants as items of the one engine:
    each variant equals a per-variant ``transpile(use_vf2=False)`` on
    every executor, with and without shared memory."""
    expected = _per_variant_digests()
    if kind == "processes-blob":
        monkeypatch.setenv("MIRAGE_SHM_DISABLE", "1")
    make_executor = {
        "serial": SerialExecutor,
        "threads": lambda: ThreadExecutor(max_workers=2),
        "processes": lambda: ProcessExecutor(max_workers=2),
        "processes-blob": lambda: ProcessExecutor(max_workers=2),
    }[kind]
    with make_executor() as executor:
        results = compare_methods(
            twolocal_full(4), line_topology(4), layout_trials=3, coverage=COVERAGE,
            seed=5, executor=executor,
        )
    assert {key: _digest([result]) for key, result in results.items()} == expected
    assert _own_segments() == []


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def test_plan_provenance_local():
    fanned = _batch()
    dispatch = fanned.dispatch
    assert "plan_mode" not in dispatch
    assert dispatch["plan_seconds"] > 0.0


@needs_shm
def test_process_fanout_plans_in_parent_and_ships_only_trials(monkeypatch):
    """A process pool receives routing trials only; planning stays home."""
    calls = _counting_run_plan(monkeypatch)
    with ProcessExecutor(max_workers=2) as executor:
        fanned = _batch(executor)
    dispatch = fanned.dispatch
    assert _digest(fanned) == REFERENCE_DIGEST
    assert calls["n"] == 3  # one front pipeline per circuit, in the parent
    assert dispatch["tasks"] == 9  # 3 circuits x 3 layout trials
    for key in ("plan_tasks", "plan_mode", "plan_return_bytes"):
        assert key not in dispatch


@needs_shm
def test_plan_executor_process_provenance_and_transport():
    with ProcessExecutor(max_workers=2) as executor:
        fanned = _batch(executor)
    dispatch = fanned.dispatch
    assert dispatch["payload_pickles"] == 3  # one trial spec per circuit
    assert dispatch["shared_pickles"] == 1  # the coverage anchor
    # Zero-copy transport: workers materialised index headers only.
    assert dispatch["header_bytes"] > 0
    assert 0 < dispatch["bytes_copied"] <= 2 * dispatch["header_bytes"]
    assert _own_segments() == []


def test_expired_circuit_is_never_planned(monkeypatch):
    """A circuit already past its deadline settles without planning,
    and its siblings match an undeadlined batch bit for bit."""
    reference = _batch()
    calls = _counting_run_plan(monkeypatch)
    fanned = _batch(
        circuit_deadlines=[None, time.monotonic() - 1.0, None],
        on_error="return",
    )
    assert calls["n"] == 2
    assert isinstance(fanned[1], DeadlineExceededError)
    assert _digest([fanned[0]]) == _digest([reference[0]])
    assert _digest([fanned[2]]) == _digest([reference[2]])
    assert fanned.dispatch["deadline_expirations"] == 1
    assert fanned.dispatch["routed"] == 2


@needs_shm
def test_plan_executor_pickles_coverage_once(monkeypatch):
    """Planning in the parent must not re-serialise the coverage set:
    it crosses the process boundary once, as the session anchor."""
    calls = {"count": 0}
    original = CoverageSet.__getstate__

    def counting_getstate(self):
        calls["count"] += 1
        return original(self)

    monkeypatch.setattr(CoverageSet, "__getstate__", counting_getstate)
    with ProcessExecutor(max_workers=2) as executor:
        fanned = _batch(executor)
    assert _digest(fanned) == REFERENCE_DIGEST
    assert calls["count"] == 1
    assert fanned.dispatch["shared_pickles"] == 1


def test_plan_executor_handles_vf2_embedded_circuits():
    circuits = [ghz(4), qft(4), ghz(3)]
    kwargs = dict(coverage=COVERAGE, layout_trials=2, seed=5)
    sequential = [
        transpile(circuit, line_topology(4), coverage=COVERAGE,
                  layout_trials=2, seed=root)
        for circuit, root in zip(circuits, np.random.SeedSequence(5).spawn(3))
    ]
    with ThreadExecutor(max_workers=2) as threads:
        fanned = transpile_many(
            circuits, line_topology(4), executor=threads, **kwargs,
        )
    assert [r.method for r in fanned] == ["vf2", "mirage", "vf2"]
    assert _digest(fanned) == _digest(sequential)
    assert fanned.dispatch["routed"] == 1  # but only one needed trials


def test_plan_executor_reports_full_pipeline():
    with ThreadExecutor(max_workers=2) as threads:
        fanned = _batch(threads)
    names = [record["name"] for record in fanned[0].pipeline_report]
    assert names == [
        "clean", "unroll", "consolidate", "coupling",
        "coverage", "analyze", "vf2", "plan", "route", "select",
    ]
    assert all(r.trial_seconds is not None and r.trial_seconds > 0
               for r in fanned)
    assert all(r.runtime_seconds > 0 for r in fanned)


def test_plan_executor_long_batch_bounded_window():
    """A batch far larger than the stream window drains correctly."""
    circuits = [qft(4), ghz(5), twolocal_full(4)] * 8  # 24 circuits
    sequential = transpile_many(
        circuits, line_topology(5), coverage=COVERAGE, use_vf2=False,
        layout_trials=2, seed=11,
    )
    with ThreadExecutor(max_workers=2) as threads:
        fanned = transpile_many(
            circuits, line_topology(5), coverage=COVERAGE, use_vf2=False,
            layout_trials=2, seed=11, executor=threads,
        )
    assert _digest(fanned) == _digest(sequential)


# ---------------------------------------------------------------------------
# Failure hygiene
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("trials_on", ["local", "executor"])
def test_plan_failure_propagates_without_segment_leak(trials_on):
    """A circuit failing mid-plan surfaces the error and leaks nothing.

    The 9-qubit circuit cannot fit the 5-qubit device, so its front
    pipeline raises on the producer thread while the first circuit's
    trials are in flight — in-line on the dispatching thread
    (``local``) or on a process pool (``executor``).
    """
    circuits = [qft(4), qft(9), ghz(5)]
    make_executor = {
        "local": SerialExecutor,
        "executor": lambda: ProcessExecutor(max_workers=2),
    }[trials_on]
    with make_executor() as executor:
        with pytest.raises(TranspilerError, match="9 qubits"):
            transpile_many(
                circuits, line_topology(5), coverage=COVERAGE,
                use_vf2=False, layout_trials=2, seed=3,
                executor=executor,
            )
    assert _own_segments() == []
