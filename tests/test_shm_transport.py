"""Tests for the process-pool payload transport and the streaming engine.

Covers the transport guarantees of the dispatch layer:

* :meth:`ProcessExecutor.map_shared` pickles the payload once and ships
  that blob with every chunk, with identical results on every executor;
  serial and thread sessions ship nothing;
* :class:`PayloadHandle` round-trips through pickle, and workers
  unpickle a payload at most once (digest-keyed memo, bounded by
  ``_SHARED_CACHE_LIMIT``);
* sessions close idempotently and drop a released payload's blob;
* the streaming batch engine of
  :func:`repro.core.transpile.transpile_many` is byte-identical to
  per-circuit ``transpile()`` on every executor;
* anchored streaming payloads serialise the batch's coverage set exactly
  once.
"""

import pickle

import numpy as np
import pytest

from repro.circuits.library import ghz, qft, twolocal_full
from repro.core import transpile, transpile_many
from repro.polytopes import get_coverage_set
from repro.polytopes.coverage import CoverageSet
from repro.transpiler import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    line_topology,
)
from repro.transpiler import executors as executors_mod
from repro.transpiler.executors import (
    PayloadHandle,
    _load_payload,
    _publish_object,
    _shared_cache,
    reset_worker_state,
)

COVERAGE = get_coverage_set("sqrt_iswap", num_samples=250, seed=3)

def _times(shared, task):
    return task * shared


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


def _sequential():
    """Per-circuit ``transpile()`` on the batch's spawn-by-position seeds."""
    return [
        transpile(circuit, line_topology(5), coverage=COVERAGE,
                  use_vf2=False, layout_trials=3, seed=root)
        for circuit, root in zip([qft(4), ghz(5), twolocal_full(4)],
                                 np.random.SeedSequence(7).spawn(3))
    ]


# ---------------------------------------------------------------------------
# map_shared over pickled blobs
# ---------------------------------------------------------------------------


def test_map_shared_ships_one_blob_per_chunk():
    with ProcessExecutor(max_workers=2) as executor:
        results = executor.map_shared(_times, 3, list(range(23)))
        stats = executor.dispatch_stats
    assert results == [task * 3 for task in range(23)]
    assert stats["payload_pickles"] == 1
    assert stats["shared_pickles"] == 0
    assert stats["chunks"] >= 2
    # The payload's blob rides every chunk, and workers unpickle a copy
    # of it at most once each.
    handle = _publish_object(3)
    assert stats["bytes_shipped"] == handle.shipped_bytes * stats["chunks"]
    assert handle.size <= stats["bytes_copied"] <= 2 * handle.size


def test_serial_and_thread_map_shared_never_touch_transport():
    serial = SerialExecutor()
    assert serial.map_shared(_times, 3, [1, 2, 3]) == [3, 6, 9]
    with ThreadExecutor(max_workers=2) as threads:
        assert threads.map_shared(_times, 3, [1, 2, 3]) == [3, 6, 9]
        assert threads.dispatch_stats["bytes_shipped"] == 0
        assert threads.dispatch_stats["bytes_copied"] == 0
    assert serial.dispatch_stats["bytes_shipped"] == 0


def test_payload_handle_roundtrip_and_shipped_bytes():
    handle = _publish_object(b"hello payload")
    try:
        assert handle.shipped_bytes == handle.size + len(handle.digest) + 16
        clone = pickle.loads(pickle.dumps(handle))
        assert (clone.digest, clone.size, clone.blob) == (
            handle.digest, handle.size, handle.blob
        )
        assert _load_payload(clone) == b"hello payload"
    finally:
        reset_worker_state()


def test_payload_handle_blob_mode():
    handle = _publish_object(b"hello payload")
    assert handle.blob == pickle.dumps(
        b"hello payload", protocol=pickle.HIGHEST_PROTOCOL
    )
    assert handle.size == len(handle.blob)
    assert _load_payload(handle) == b"hello payload"
    assert isinstance(handle, PayloadHandle)
    reset_worker_state()


def test_payload_memo_loads_blob_once():
    reset_worker_state()
    handle = _publish_object({"matrix": np.arange(64.0).reshape(8, 8)})
    try:
        first = _load_payload(handle)
        second = _load_payload(handle)
        assert first is second
        assert executors_mod._worker_bytes_copied == handle.size
    finally:
        reset_worker_state()


def test_shared_cache_stays_bounded(monkeypatch):
    """The worker memo evicts least-recently-used payloads at the limit."""
    reset_worker_state()
    monkeypatch.setattr(executors_mod, "_SHARED_CACHE_LIMIT", 2)
    handles = [_publish_object({"index": np.full(16, i)}) for i in range(3)]
    try:
        for handle in handles:
            _load_payload(handle)
        assert list(_shared_cache) == [h.digest for h in handles[1:]]
        # A reload of the evicted payload unpickles it again.
        copied = executors_mod._worker_bytes_copied
        _load_payload(handles[0])
        assert executors_mod._worker_bytes_copied == copied + handles[0].size
        assert len(_shared_cache) == 2
    finally:
        reset_worker_state()


# ---------------------------------------------------------------------------
# Session lifecycle
# ---------------------------------------------------------------------------


def test_session_close_is_idempotent():
    with ProcessExecutor(max_workers=2) as executor:
        session = executor.open_dispatch(_times)
        slot = session.add_payload(2)
        futures = session.submit(slot, [1, 2, 3])
        assert [r for f in futures for r in f.result()] == [2, 4, 6]
        session.close()
        session.close()
        assert session.outstanding() == 0


def test_session_release_drops_drained_payload_blobs():
    """Streamed payload blobs are dropped per circuit, not at close.

    A long batch would otherwise hold one pickled payload per circuit
    until the session closed, defeating the bounded in-flight window.
    """
    from repro.exceptions import TranspilerError

    with ProcessExecutor(max_workers=2) as executor:
        with executor.open_dispatch(_times, anchors=(object(),)) as session:
            slot = session.add_payload(3)
            futures = session.submit(slot, [1, 2, 3])
            assert [r for f in futures for r in f.result()] == [3, 6, 9]
            session.release(slot)
            session.release(slot)  # idempotent
            assert session._handles[slot] is None
            with pytest.raises(TranspilerError, match="released"):
                session.submit(slot, [1])


# ---------------------------------------------------------------------------
# Streaming batch engine: byte identity on every transport
# ---------------------------------------------------------------------------


def test_stream_matches_sequential_serial():
    reference = [_fingerprint(r) for r in _sequential()]
    stream = _batch()
    assert [_fingerprint(r) for r in stream] == reference


@pytest.mark.parametrize("make_executor", [
    SerialExecutor,
    lambda: ThreadExecutor(max_workers=2),
    lambda: ProcessExecutor(max_workers=2),
], ids=["serial", "threads", "processes"])
def test_stream_identical_across_executors(make_executor):
    reference = [_fingerprint(r) for r in _sequential()]
    with make_executor() as executor:
        stream = _batch(executor)
    assert [_fingerprint(r) for r in stream] == reference


def test_stream_pickles_coverage_once(monkeypatch):
    """The anchored streaming dispatch serialises the coverage set once."""
    calls = {"count": 0}
    original = CoverageSet.__getstate__

    def counting_getstate(self):
        calls["count"] += 1
        return original(self)

    monkeypatch.setattr(CoverageSet, "__getstate__", counting_getstate)
    with ProcessExecutor(max_workers=2) as executor:
        fanned = _batch(executor)
    assert fanned.dispatch["shared_pickles"] == 1
    assert calls["count"] == 1
    assert fanned.dispatch["payload_pickles"] == 3  # one spec per circuit


def test_stream_handles_vf2_embedded_circuits():
    circuits = [ghz(4), qft(4), ghz(3)]
    kwargs = dict(coverage=COVERAGE, layout_trials=2, seed=5)
    sequential = [
        transpile(circuit, line_topology(4), coverage=COVERAGE,
                  layout_trials=2, seed=root)
        for circuit, root in zip(circuits, np.random.SeedSequence(5).spawn(3))
    ]
    stream = transpile_many(circuits, line_topology(4), **kwargs)
    assert [r.method for r in stream] == ["vf2", "mirage", "vf2"]
    assert [_fingerprint(r) for r in sequential] == [
        _fingerprint(r) for r in stream
    ]
    assert stream.dispatch["routed"] == 1
    assert stream.dispatch["circuits"] == 3


def test_stream_reports_overlap_provenance():
    fanned = _batch()
    assert "overlap_seconds" in fanned.dispatch
    assert fanned.dispatch["overlap_seconds"] >= 0.0
    # Streamed circuits keep the full per-circuit pipeline reports.
    names = [record["name"] for record in fanned[0].pipeline_report]
    assert names == [
        "clean", "unroll", "consolidate", "coupling",
        "coverage", "analyze", "vf2", "plan", "route", "select",
    ]

