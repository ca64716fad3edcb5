"""Tests for the shared-memory trial transport and streaming scheduler.

Covers the transport guarantees introduced with the zero-copy dispatch
layer:

* :meth:`ProcessExecutor.map_shared` publishes the payload through one
  shared-memory segment and ships O(1) bytes per chunk; with
  ``MIRAGE_SHM_DISABLE=1`` (or without POSIX shm) the same dispatch
  session ships the blob with every chunk, with identical results;
* segments never leak — not after a clean dispatch, not after a worker
  exception mid-batch, not after an abandoned streaming session;
* the streaming overlap scheduler of
  :func:`repro.core.transpile.transpile_many` is byte-identical to the
  barrier scheduler (and to per-circuit ``transpile()``) on every
  executor, and
  falls back to the barrier engine when the transport is unavailable;
* anchored streaming payloads serialise the batch's coverage set exactly
  once.
"""

import glob
import os
import pickle

import numpy as np
import pytest

from repro.exceptions import TranspilerError
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
from repro.transpiler.executors import (
    SHM_SEGMENT_PREFIX,
    PayloadHandle,
    _load_payload,
    _publish_object,
    _unlink_segment,
    reset_worker_state,
    shm_transport_enabled,
)

COVERAGE = get_coverage_set("sqrt_iswap", num_samples=250, seed=3)

#: An O(1) per-chunk transport budget: segment name + digest + slack.
#: Any full payload (coverage set + DAGs) is megabytes, so an accidental
#: regression to blob shipping trips this immediately.
SHM_CHUNK_BYTE_BUDGET = 256

needs_shm = pytest.mark.skipif(
    not shm_transport_enabled(),
    reason="POSIX shared memory unavailable on this platform",
)


def _own_segments() -> list[str]:
    """Shared-memory segments created by this process and still linked."""
    return glob.glob(f"/dev/shm/{SHM_SEGMENT_PREFIX}{os.getpid()}_*")


def _times(shared, task):
    return task * shared


def _explode(shared, task):
    if task == shared:
        raise ValueError(f"task {task} exploded")
    return task


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


def _batch(scheduler="auto", executor=None, **kwargs):
    return transpile_many(
        [qft(4), ghz(5), twolocal_full(4)],
        line_topology(5),
        coverage=COVERAGE,
        use_vf2=False,
        layout_trials=3,
        seed=7,
        scheduler=scheduler,
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
# map_shared over shared memory: O(1) transport, blob fallback
# ---------------------------------------------------------------------------


@needs_shm
def test_map_shared_uses_shm_and_ships_constant_bytes():
    with ProcessExecutor(max_workers=2) as executor:
        results = executor.map_shared(_times, 3, list(range(23)))
        stats = executor.dispatch_stats
    assert results == [task * 3 for task in range(23)]
    assert stats["payload_pickles"] == 1
    assert stats["shared_pickles"] == 0
    assert stats["shm_segments"] == 1
    assert stats["chunks"] >= 2
    assert stats["bytes_shipped"] <= SHM_CHUNK_BYTE_BUDGET * stats["chunks"]
    assert _own_segments() == []


@needs_shm
def test_map_shared_shm_transport_is_payload_size_independent():
    """Per-chunk transport stays O(1) even for a megabyte payload."""
    payload = b"x" * (1 << 20)
    with ProcessExecutor(max_workers=2) as executor:
        results = executor.map_shared(_len_of, payload, list(range(16)))
        stats = executor.dispatch_stats
    assert results == [len(payload)] * 16
    assert stats["bytes_shipped"] <= SHM_CHUNK_BYTE_BUDGET * stats["chunks"]
    assert _own_segments() == []


def _len_of(shared, task):
    return len(shared)


def test_map_shared_blob_fallback_when_disabled(monkeypatch):
    monkeypatch.setenv("MIRAGE_SHM_DISABLE", "1")
    assert not shm_transport_enabled()
    with ProcessExecutor(max_workers=2) as executor:
        results = executor.map_shared(_times, 3, list(range(23)))
        stats = executor.dispatch_stats
    assert results == [task * 3 for task in range(23)]
    assert stats["payload_pickles"] == 1
    assert stats["shared_pickles"] == 0
    assert stats["shm_segments"] == 0
    # Blob mode ships the payload bytes with every chunk, and workers
    # unpickle a copy of them (no out-of-band index header).
    payload_size = len(pickle.dumps(3, protocol=pickle.HIGHEST_PROTOCOL))
    assert stats["bytes_shipped"] >= payload_size * stats["chunks"]
    assert stats["header_bytes"] == 0
    assert stats["bytes_copied"] >= payload_size
    assert _own_segments() == []


def test_serial_and_thread_map_shared_never_touch_transport():
    serial = SerialExecutor()
    assert serial.map_shared(_times, 3, [1, 2, 3]) == [3, 6, 9]
    with ThreadExecutor(max_workers=2) as threads:
        assert threads.map_shared(_times, 3, [1, 2, 3]) == [3, 6, 9]
        assert threads.dispatch_stats["shm_segments"] == 0
        assert threads.dispatch_stats["bytes_shipped"] == 0
    assert serial.dispatch_stats["shm_segments"] == 0


@needs_shm
def test_payload_handle_roundtrip_and_shipped_bytes():
    handle = _publish_object(b"hello payload")
    try:
        assert handle.segment is not None
        assert handle.shipped_bytes <= SHM_CHUNK_BYTE_BUDGET
        clone = pickle.loads(pickle.dumps(handle))
        assert _load_payload(clone) == b"hello payload"
    finally:
        _unlink_segment(handle.segment)
        reset_worker_state()
    assert _own_segments() == []


def test_payload_handle_blob_mode(monkeypatch):
    monkeypatch.setenv("MIRAGE_SHM_DISABLE", "1")
    handle = _publish_object(b"hello payload")
    assert handle.segment is None
    assert handle.blob == pickle.dumps(
        b"hello payload", protocol=pickle.HIGHEST_PROTOCOL
    )
    assert _load_payload(handle) == b"hello payload"
    assert isinstance(handle, PayloadHandle)
    reset_worker_state()


# ---------------------------------------------------------------------------
# Cleanup guarantees
# ---------------------------------------------------------------------------


@needs_shm
def test_no_segment_leak_after_worker_exception():
    """A worker raising mid-batch must not leave a segment behind."""
    with ProcessExecutor(max_workers=2) as executor:
        with pytest.raises(ValueError, match="exploded"):
            executor.map_shared(_explode, 7, list(range(16)))
    assert _own_segments() == []


@needs_shm
def test_no_segment_leak_after_session_worker_exception():
    """A streaming session closed after a worker error unlinks segments."""
    with ProcessExecutor(max_workers=2) as executor:
        session = executor.open_dispatch(_explode, anchors=(object(),))
        assert session is not None
        slot = session.add_payload(7)
        futures = session.submit(slot, list(range(12)))
        with pytest.raises(ValueError, match="exploded"):
            for future in futures:
                future.result()
        session.close()
    assert _own_segments() == []


@needs_shm
def test_session_close_is_idempotent_and_unlinks():
    with ProcessExecutor(max_workers=2) as executor:
        session = executor.open_dispatch(_times)
        slot = session.add_payload(2)
        futures = session.submit(slot, [1, 2, 3])
        assert [r for f in futures for r in f.result()] == [2, 4, 6]
        assert _own_segments() != []  # payload segment live while open
        session.close()
        session.close()
    assert _own_segments() == []


@needs_shm
def test_session_release_unlinks_drained_payload_segments():
    """Streamed payload segments are unlinked per circuit, not at close.

    A long batch would otherwise accumulate one segment per circuit in
    ``/dev/shm`` until the session closed, defeating the bounded
    in-flight window.
    """
    with ProcessExecutor(max_workers=2) as executor:
        session = executor.open_dispatch(_times, anchors=(object(),))
        before = len(_own_segments())  # anchor segment only
        slot = session.add_payload(3)
        assert len(_own_segments()) == before + 1
        futures = session.submit(slot, [1, 2, 3])
        assert [r for f in futures for r in f.result()] == [3, 6, 9]
        session.release(slot)
        session.release(slot)  # idempotent
        assert len(_own_segments()) == before
        session.close()
    assert _own_segments() == []


@needs_shm
def test_atexit_guard_unlinks_created_segments():
    """The parent-side atexit guard sweeps segments a crash left behind."""
    from repro.transpiler.executors import _cleanup_segments

    handle = _publish_object(b"orphan")
    assert _own_segments() != []
    _cleanup_segments()
    assert _own_segments() == []
    assert handle.segment is not None


# ---------------------------------------------------------------------------
# Streaming scheduler: byte identity and fallback parity
# ---------------------------------------------------------------------------


def test_stream_matches_barrier_and_sequential_serial():
    reference = [_fingerprint(r) for r in _sequential()]
    stream = _batch("stream")
    barrier = _batch("barrier")
    assert [_fingerprint(r) for r in stream] == reference
    assert [_fingerprint(r) for r in barrier] == reference
    assert stream.dispatch["scheduler"] == "stream"
    assert barrier.dispatch["scheduler"] == "barrier"
    assert barrier.dispatch["overlap_seconds"] == 0.0


@pytest.mark.parametrize("make_executor", [
    SerialExecutor,
    lambda: ThreadExecutor(max_workers=2),
    lambda: ProcessExecutor(max_workers=2),
], ids=["serial", "threads", "processes"])
def test_stream_identical_across_executors(make_executor):
    reference = [_fingerprint(r) for r in _sequential()]
    with make_executor() as executor:
        stream = _batch("stream", executor)
    assert [_fingerprint(r) for r in stream] == reference
    assert _own_segments() == []


def test_stream_falls_back_to_barrier_without_shm(monkeypatch):
    reference = [_fingerprint(r) for r in _sequential()]
    monkeypatch.setenv("MIRAGE_SHM_DISABLE", "1")
    with ProcessExecutor(max_workers=2) as executor:
        fanned = _batch("stream", executor)
    assert [_fingerprint(r) for r in fanned] == reference
    assert fanned.dispatch["scheduler"] == "barrier"
    assert fanned.dispatch["shm_segments"] == 0


@needs_shm
def test_stream_process_dispatch_ships_constant_bytes():
    with ProcessExecutor(max_workers=2) as executor:
        fanned = _batch("stream", executor)
    dispatch = fanned.dispatch
    assert dispatch["scheduler"] == "stream"
    assert dispatch["shm_segments"] >= 1
    assert dispatch["chunks"] >= 1
    # O(1) transport per chunk: two handles (anchor + spec), never blobs.
    assert dispatch["bytes_shipped"] <= (
        2 * SHM_CHUNK_BYTE_BUDGET * dispatch["chunks"]
    )
    assert _own_segments() == []


@needs_shm
def test_stream_pickles_coverage_once(monkeypatch):
    """The anchored streaming dispatch serialises the coverage set once."""
    calls = {"count": 0}
    original = CoverageSet.__getstate__

    def counting_getstate(self):
        calls["count"] += 1
        return original(self)

    monkeypatch.setattr(CoverageSet, "__getstate__", counting_getstate)
    with ProcessExecutor(max_workers=2) as executor:
        fanned = _batch("stream", executor)
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
    stream = transpile_many(
        circuits, line_topology(4), scheduler="stream", **kwargs,
    )
    assert [r.method for r in stream] == ["vf2", "mirage", "vf2"]
    assert [_fingerprint(r) for r in sequential] == [
        _fingerprint(r) for r in stream
    ]
    assert stream.dispatch["routed"] == 1
    assert stream.dispatch["circuits"] == 3


def test_stream_reports_overlap_provenance():
    fanned = _batch("stream")
    assert "overlap_seconds" in fanned.dispatch
    assert fanned.dispatch["overlap_seconds"] >= 0.0
    # Streamed circuits keep the full per-circuit pipeline reports.
    names = [record["name"] for record in fanned[0].pipeline_report]
    assert names == [
        "clean", "unroll", "consolidate", "coupling",
        "coverage", "analyze", "vf2", "plan", "route", "select",
    ]


def test_scheduler_rejects_unknown_mode():
    with pytest.raises(TranspilerError):
        _batch("teleport")
