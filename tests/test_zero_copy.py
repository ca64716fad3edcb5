"""Tests for the zero-copy (out-of-band) shared-memory payload layout.

Covers the transport guarantees of the protocol-5 segment layout:

* payloads published while the shm transport is active are laid out as
  out-of-band sections and unpickled as **read-only numpy views** over
  the attached segment — worker processes materialise only the index
  header, never the payload bytes;
* view lifetime: arrays stay valid while their payload is memoised,
  survive the dispatcher unlinking the segment name (POSIX semantics),
  and the mapping is released only after the last detach;
* a segment that cannot be created ships the same sections inline, and
  without shm at all payloads ride as inline blobs with identical
  results;
* worker crashes (raising chunks and hard process death) never leak
  segments.
"""

import glob
import os
import pickle

import numpy as np
import pytest

from repro.transpiler import ProcessExecutor
from repro.transpiler import executors as executors_mod
from repro.transpiler.executors import (
    SHM_SEGMENT_PREFIX,
    _load_payload,
    _publish_object,
    _segment_attachments,
    _shared_cache,
    _unlink_segment,
    reset_worker_state,
    shm_transport_enabled,
)

needs_shm = pytest.mark.skipif(
    not shm_transport_enabled(),
    reason="POSIX shared memory unavailable on this platform",
)


def _own_segments() -> list[str]:
    return glob.glob(f"/dev/shm/{SHM_SEGMENT_PREFIX}{os.getpid()}_*")


def _payload(rows: int = 256) -> dict:
    return {
        "matrix": np.arange(rows * 8, dtype=float).reshape(rows, 8),
        "offsets": np.arange(rows, dtype=np.int64),
        "label": ("coverage", rows),
    }


def _probe_arrays(shared, task):
    """Worker probe: writability flag and checksum of the shared arrays."""
    matrix = shared["matrix"]
    return (
        bool(matrix.flags.writeable),
        float(matrix.sum()),
        int(shared["offsets"][task]),
    )


def _explode(shared, task):
    raise ValueError(f"task {task} exploded")


# ---------------------------------------------------------------------------
# In-process layout round trip and view lifetime
# ---------------------------------------------------------------------------


@needs_shm
def test_publish_object_uses_oob_layout():
    handle = _publish_object(_payload())
    try:
        assert handle.segment is not None
        assert handle.header > 0
        # O(1) transport bytes per chunk regardless of payload size.
        assert handle.shipped_bytes < 256
    finally:
        _unlink_segment(handle.segment)
        reset_worker_state()


@needs_shm
def test_oob_arrays_are_readonly_views_and_survive_unlink():
    """Arrays view the segment; the name unlinking does not kill them.

    This is the dispatcher's lifecycle: the parent unlinks a payload's
    segment as soon as its futures drain, while workers may still hold
    memoised views — POSIX keeps the mapping alive until the last
    detach.
    """
    payload = _payload()
    expected = float(payload["matrix"].sum())
    handle = _publish_object(payload)
    loaded = _load_payload(handle)
    assert loaded["matrix"].flags.writeable is False
    assert loaded["offsets"].flags.writeable is False
    assert np.array_equal(loaded["matrix"], payload["matrix"])
    assert loaded["label"] == payload["label"]
    with pytest.raises((ValueError, RuntimeError)):
        loaded["matrix"][0, 0] = 99.0
    assert handle.segment in {p.rsplit("/", 1)[-1] for p in _own_segments()}
    # The attachment is refcounted and pinned to the payload memo.
    assert handle.segment in _segment_attachments

    _unlink_segment(handle.segment)
    assert _own_segments() == []  # name gone ...
    assert float(loaded["matrix"].sum()) == expected  # ... views still valid

    # Last detach: the memo entry is evicted, releasing the attachment;
    # the views themselves keep the mapping readable until they die.
    reset_worker_state()
    assert handle.segment not in _segment_attachments
    assert float(loaded["matrix"].sum()) == expected


@needs_shm
def test_payload_memo_loads_segment_once():
    handle = _publish_object(_payload())
    try:
        first = _load_payload(handle)
        second = _load_payload(handle)
        assert first is second
        assert _segment_attachments[handle.segment].refs == 1
    finally:
        _unlink_segment(handle.segment)
        reset_worker_state()


@needs_shm
def test_segment_creation_failure_ships_oob_sections_inline(monkeypatch):
    """Shm pressure mid-publish must not re-run the object-graph pickle.

    When the segment cannot be created, the already-serialised pickle
    body and its protocol-5 buffers ship inline on the handle instead.
    """
    monkeypatch.setattr(executors_mod, "_new_segment", lambda size: None)
    payload = _payload()
    handle = _publish_object(payload)
    assert handle.segment is None
    assert handle.header == 0
    assert handle.oob_buffers  # out-of-band sections travelled inline
    clone = pickle.loads(pickle.dumps(handle))
    loaded = _load_payload(clone)
    assert np.array_equal(loaded["matrix"], payload["matrix"])
    assert loaded["label"] == payload["label"]
    reset_worker_state()


def test_blob_fallback_without_shm(monkeypatch):
    monkeypatch.setenv("MIRAGE_SHM_DISABLE", "1")
    payload = _payload()
    handle = _publish_object(payload)
    assert handle.segment is None
    assert handle.header == 0
    loaded = _load_payload(handle)
    assert np.array_equal(loaded["matrix"], payload["matrix"])
    reset_worker_state()


@needs_shm
def test_oob_layout_roundtrips_through_pickled_handle():
    """Worker-side handles arrive pickled; the layout must survive that."""
    payload = _payload()
    handle = _publish_object(payload)
    try:
        clone = pickle.loads(pickle.dumps(handle))
        loaded = _load_payload(clone)
        assert np.array_equal(loaded["matrix"], payload["matrix"])
    finally:
        _unlink_segment(handle.segment)
        reset_worker_state()


# ---------------------------------------------------------------------------
# Cross-process: zero worker copies, accounting, crash hygiene
# ---------------------------------------------------------------------------


@needs_shm
def test_workers_get_readonly_views_without_copying():
    payload = _payload(rows=4096)  # ~256 KiB of array data
    expected = float(payload["matrix"].sum())
    with ProcessExecutor(max_workers=2) as executor:
        results = executor.map_shared(_probe_arrays, payload, list(range(16)))
        stats = dict(executor.dispatch_stats)
    assert all(not writeable for writeable, _, _ in results)
    assert all(checksum == expected for _, checksum, _ in results)
    assert [value for _, _, value in results] == list(range(16))
    assert stats["shm_segments"] == 1
    assert stats["header_bytes"] > 0
    # Each worker materialises the index header exactly once — never the
    # payload bytes (the arrays are views into the segment).
    assert 0 < stats["bytes_copied"] <= 2 * stats["header_bytes"]
    assert _own_segments() == []


@needs_shm
def test_no_segment_leak_after_worker_exception_with_zero_copy():
    with ProcessExecutor(max_workers=2) as executor:
        with pytest.raises(ValueError, match="exploded"):
            executor.map_shared(_explode, _payload(), list(range(8)))
    assert _own_segments() == []


@needs_shm
def test_no_segment_leak_after_worker_death_mid_dispatch(monkeypatch):
    """A worker dying outright is replayed — no abort, no leaked segments.

    The fault plan kills the worker executing global trial ordinal 2 at
    exact dispatch position; the session detects the broken pool,
    respawns it and replays only the lost chunk (with the injected fault
    disarmed), so the batch completes with results identical to an
    undisturbed run and every segment is reclaimed.
    """
    monkeypatch.setenv("MIRAGE_FAULT_PLAN", "kill:trial:2")
    tasks = list(range(8))
    payload = _payload(rows=64)
    expected = [_probe_arrays(payload, task)[1:] for task in tasks]
    with ProcessExecutor(max_workers=2) as executor:
        session = executor.open_dispatch(_probe_arrays, anchors=(_payload(),))
        assert session is not None
        slot = session.add_payload(payload)
        futures = session.submit(slot, tasks)
        results = [r for future in futures for r in future.result()]
        session.close()
        stats = executor.dispatch_stats
        assert stats["retries"] >= 1
        assert stats["respawns"] >= 1
        assert stats["lost_tasks"] >= 1
    assert [r[1:] for r in results] == expected
    assert _own_segments() == []


@needs_shm
def test_zero_copy_and_copy_results_identical(monkeypatch):
    """Segment views and inline copies (no shm) give identical values."""
    tasks = list(range(12))
    payload = _payload(rows=512)
    with ProcessExecutor(max_workers=2) as executor:
        zero_copy = executor.map_shared(_probe_arrays, payload, tasks)
    monkeypatch.setenv("MIRAGE_SHM_DISABLE", "1")
    with ProcessExecutor(max_workers=2) as executor:
        copied = executor.map_shared(_probe_arrays, payload, tasks)
    # Identical values; only the writability flag differs.
    assert all(not writeable for writeable, _, _ in zero_copy)
    assert all(writeable for writeable, _, _ in copied)
    assert [r[1:] for r in zero_copy] == [r[1:] for r in copied]
    assert _own_segments() == []


@needs_shm
def test_coverage_set_arrays_become_shared_views():
    """A published coverage set answers queries through zero-copy views.

    Arrays at or above the in-band threshold must arrive as read-only
    segment views; smaller ones ride inside the pickle body as ordinary
    (writable) copies — cheaper than an index entry plus padding.
    """
    from repro.polytopes import get_coverage_set

    coverage = get_coverage_set("sqrt_iswap", num_samples=250, seed=3)
    probes = np.array([
        [0.0, 0.0, 0.0],
        [np.pi / 4, 0.0, 0.0],
        [np.pi / 8, np.pi / 16, 0.0],
    ])
    expected = coverage.cost_of_many(probes)
    threshold = executors_mod._OOB_INLINE_MAX
    handle = _publish_object(coverage)
    try:
        loaded = _load_payload(handle)
        views = 0
        for polytope in loaded.polytopes:
            for piece in polytope.pieces:
                lin_a, _ = piece.halfspaces
                for array in (piece.points, lin_a):
                    if array.nbytes >= threshold:
                        assert array.flags.writeable is False
                        views += 1
        assert views > 0
        # The view-backed set answers exactly as the original.
        assert np.array_equal(loaded.cost_of_many(probes), expected)
    finally:
        _unlink_segment(handle.segment)
        reset_worker_state()
    assert _own_segments() == []


@needs_shm
def test_tiny_arrays_stay_in_band_and_shrink_the_header(monkeypatch):
    """Sub-threshold arrays must not earn index-header entries.

    A payload with one big array and many tiny ones gets a header sized
    for the big sections only; a threshold of 0 exports every buffer and
    the header grows accordingly.
    """
    tiny = {f"t{i}": np.arange(4, dtype=np.int64) for i in range(32)}
    payload = {"big": np.arange(512, dtype=float), **tiny}

    handle = _publish_object(payload)
    try:
        # Sections: pickle body + the one big array.
        assert handle.header == 16 + 16 * 2
        loaded = _load_payload(handle)
        assert loaded["big"].flags.writeable is False
        for i in range(32):
            array = loaded[f"t{i}"]
            assert array.flags.writeable is True  # in-band copy
            assert np.array_equal(array, tiny[f"t{i}"])
    finally:
        _unlink_segment(handle.segment)
        reset_worker_state()

    monkeypatch.setattr(executors_mod, "_OOB_INLINE_MAX", 0)
    handle = _publish_object(payload)
    try:
        # Every contiguous buffer exported: body + big + 32 tiny arrays.
        assert handle.header == 16 + 16 * 34
        loaded = _load_payload(handle)
        assert loaded["t0"].flags.writeable is False
    finally:
        _unlink_segment(handle.segment)
        reset_worker_state()
    assert _own_segments() == []


def test_shared_cache_eviction_releases_attachments():
    """Evicted payloads drop their attachment references."""
    if not shm_transport_enabled():
        pytest.skip("POSIX shared memory unavailable on this platform")
    reset_worker_state()
    limit = executors_mod._SHARED_CACHE_LIMIT
    handles = []
    try:
        executors_mod._SHARED_CACHE_LIMIT = 2
        for index in range(3):
            handle = _publish_object({"index": np.full(16, index)})
            handles.append(handle)
            _load_payload(handle)
        assert len(_shared_cache) == 2
        # The first payload was evicted, releasing its attachment.
        assert handles[0].segment not in _segment_attachments
        assert handles[2].segment in _segment_attachments
    finally:
        executors_mod._SHARED_CACHE_LIMIT = limit
        for handle in handles:
            if handle.segment is not None:
                _unlink_segment(handle.segment)
        reset_worker_state()
    assert _own_segments() == []
