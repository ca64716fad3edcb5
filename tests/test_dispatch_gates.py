"""Transport, identity and clean-run gates on small fixed workloads.

Each test runs a fixed-seed workload on the serial, thread, process and
remote executors and checks one promise of the dispatch layers:

* every fan-out mode, scheduler and transport returns the serial
  routing byte for byte (the same holds for the compiled and the
  pure-Python route loop, and for trial fan-out on a process pool);
* a clean run reports every recovery and overload counter as zero —
  a retry or respawn here means the environment misbehaved;
* the shared-memory transport ships O(1) bytes per chunk (at most 512 B)
  and at most one full payload per batch;
* workers copy only the out-of-band index headers, never payload bytes:
  ``0 < bytes_copied <= header_bytes * max(2, cpu_count)``;
* ``map_shared`` is one dispatch session on every executor: the same
  fault plan is recovered the same way, and the barrier scheduler's
  chunk and transport accounting is the session's;
* no session type dispatches anything against a released payload slot.

The shared-memory gates skip where POSIX shared memory is unavailable.
"""

from __future__ import annotations

import asyncio
import hashlib
import operator
import os
import pickle

import pytest

from repro.circuits.library import ghz, qft, twolocal_full
from repro.core import transpile, transpile_many
from repro.exceptions import TranspilerError
from repro.polytopes import get_coverage_set
from repro.transpiler import (
    SHM_SEGMENT_PREFIX,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    line_topology,
    shm_transport_enabled,
)
from repro.transpiler import executors
from repro.transpiler.kernel import route

COVERAGE = get_coverage_set("sqrt_iswap", num_samples=700, seed=7)
#: Counters every dispatch reports; a clean run leaves them all zero.
RECOVERY_COUNTERS = ("retries", "respawns", "lost_tasks",
                     "executor_downgrades", "transport_downgrades",
                     "deadline_expirations")
REMOTE_COUNTERS = ("reconnects", "host_downgrades", "frames_garbled")
SERVICE_COUNTERS = ("shed_requests", "deadline_expirations",
                    "breaker_trips", "degraded_windows")
#: Bytes a shared-memory chunk may ship: a segment name and a digest.
SHM_CHUNK_BYTES = 512

needs_shm = pytest.mark.skipif(
    not shm_transport_enabled(),
    reason="POSIX shared memory unavailable on this platform",
)


def circuit_digest(circuit) -> str:
    """Digest of a circuit's gate stream (names, params, qubits)."""
    lines = []
    for instruction in circuit:
        gate = instruction.gate
        params = ",".join(f"{p:.12e}" for p in gate.params)
        lines.append(f"{gate.name}({params})@{instruction.qubits}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def batch_digests(batch) -> list[str]:
    return [circuit_digest(result.circuit) for result in batch]


def small_circuits(copies: int) -> list:
    return [qft(4), twolocal_full(4), ghz(5), qft(5), twolocal_full(5)] * copies


def prewarm(pool: ProcessExecutor) -> None:
    """Fork every worker before the dispatch under test opens."""
    workers = pool.max_workers or os.cpu_count() or 1
    pool.map(len, [()] * (2 * workers))


def assert_clean(dispatch: dict, label: str, counters=RECOVERY_COUNTERS) -> None:
    for counter in counters:
        assert counter in dispatch, f"{label}: no {counter!r} in {dispatch}"
        assert dispatch[counter] == 0, f"{label}: {counter}={dispatch[counter]}"


@pytest.fixture(scope="module")
def batch_fanout():
    """One batch under every fan-out mode, scheduler and transport."""
    circuits = small_circuits(2)
    coupling = line_topology(5)
    kwargs = dict(coverage=COVERAGE, use_vf2=False, layout_trials=2,
                  refinement_rounds=2, seed=29)

    def run(fanout, executor=None, scheduler="auto"):
        return transpile_many(circuits, coupling, fanout=fanout,
                              scheduler=scheduler, executor=executor, **kwargs)

    batches = {"sequential": run("trials")}
    with ProcessExecutor() as pool:
        prewarm(pool)
        batches["trials"] = run("trials", pool)
        batches["stream"] = run("circuits", pool, "stream")
        batches["barrier"] = run("circuits", pool, "barrier")
    # The transport is chosen when a dispatch opens; a fresh pool keeps
    # worker-side payload memos from leaking between transports.
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("MIRAGE_SHM_DISABLE", "1")
        with ProcessExecutor() as pool:
            prewarm(pool)
            batches["blob"] = run("circuits", pool)
    return batches


def test_batch_fanout_identical_across_modes_and_transports(batch_fanout):
    reference = batch_digests(batch_fanout["sequential"])
    for mode in ("trials", "stream", "barrier", "blob"):
        assert batch_digests(batch_fanout[mode]) == reference, mode


def test_batch_fanout_clean_run_has_zero_recovery_counters(batch_fanout):
    for mode in ("stream", "barrier", "blob"):
        assert_clean(batch_fanout[mode].dispatch, mode)


@needs_shm
def test_shm_transport_ships_constant_bytes_and_one_payload(batch_fanout):
    dispatch = batch_fanout["stream"].dispatch
    assert dispatch["shm_segments"] >= 1, dispatch
    per_chunk = dispatch["bytes_shipped"] / max(1, dispatch["chunks"])
    assert per_chunk <= SHM_CHUNK_BYTES, f"{per_chunk:.0f} B per chunk"
    # The blob fallback ships the whole payload with every chunk, so its
    # bytes per chunk measure one payload.
    blob = batch_fanout["blob"].dispatch
    payload_bytes = blob["bytes_shipped"] // max(1, blob["chunks"])
    assert payload_bytes > 0, blob
    assert dispatch["bytes_shipped"] / payload_bytes <= 1.0


@needs_shm
def test_workers_copy_index_headers_only(batch_fanout):
    dispatch = batch_fanout["stream"].dispatch
    assert dispatch["shm_segments"] >= 1, dispatch
    assert dispatch["header_bytes"] > 0, dispatch
    budget = dispatch["header_bytes"] * max(2, os.cpu_count() or 1)
    assert 0 < dispatch["bytes_copied"] <= budget, dispatch


def _wide_transpile(method="mirage", executor=None):
    return transpile(qft(6), line_topology(6), method=method,
                     selection="depth", layout_trials=4, refinement_rounds=2,
                     routing_trials=2, coverage=COVERAGE, use_vf2=False,
                     seed=13, executor=executor)


def test_trial_fanout_on_a_process_pool_matches_serial():
    serial = _wide_transpile(executor=SerialExecutor())
    with ProcessExecutor() as pool:
        prewarm(pool)
        parallel = _wide_transpile(executor=pool)
    assert circuit_digest(parallel.circuit) == circuit_digest(serial.circuit)
    assert parallel.trial_index == serial.trial_index


@pytest.mark.parametrize("method", ["sabre", "mirage"])
def test_flat_and_object_kernels_route_identically(monkeypatch, method):
    """The compiled route loop and the pure-Python one route alike."""
    compiled = _wide_transpile(method)
    monkeypatch.setattr(route, "load_routec", lambda: None)
    python = _wide_transpile(method)
    assert circuit_digest(python.circuit) == circuit_digest(compiled.circuit)


def test_service_clean_run_has_zero_overload_counters():
    from repro.service import MirageService

    coupling = line_topology(4)
    requests = [("alice", ghz(4), 5), ("bob", qft(4), 6),
                ("alice", qft(4), 7), ("bob", ghz(4), 8)]

    async def run():
        async with MirageService(
            executor="threads", max_workers=2, window_ms=10.0,
            coverage_params=dict(num_samples=700, seed=7),
        ) as service:
            results = await asyncio.gather(*[
                service.submit(circuit, coupling, seed=seed, tenant=tenant,
                               use_vf2=False, layout_trials=4)
                for tenant, circuit, seed in requests
            ])
            return results, service.stats()

    results, stats = asyncio.run(run())
    assert len(results) == len(requests)
    counters = dict(stats, breaker_trips=stats["breaker"]["trips"])
    assert_clean(counters, "service", SERVICE_COUNTERS)


def test_remote_dispatch_matches_serial_with_zero_recovery_counters():
    from repro.transpiler.remote import RemoteExecutor, WorkerHost

    circuits = small_circuits(1)
    coupling = line_topology(5)
    kwargs = dict(coverage=COVERAGE, use_vf2=False, layout_trials=2,
                  refinement_rounds=2, seed=41)
    serial = transpile_many(circuits, coupling, fanout="trials",
                            executor=SerialExecutor(), **kwargs)
    hosts = [WorkerHost(heartbeat_s=0.5), WorkerHost(heartbeat_s=0.5)]
    try:
        for host in hosts:
            host.start()
        executor = RemoteExecutor(hosts=[host.address for host in hosts],
                                  max_streams=2)
        try:
            executor.prewarm()
            remote = transpile_many(circuits, coupling, fanout="circuits",
                                    scheduler="stream", executor=executor,
                                    **kwargs)
        finally:
            executor.close()
    finally:
        for host in hosts:
            host.close()
    assert batch_digests(remote) == batch_digests(serial)
    dispatch = remote.dispatch
    assert_clean(dispatch, "remote")
    assert_clean(dispatch, "remote", REMOTE_COUNTERS)


def _times(shared, task):
    return shared * task


@pytest.mark.parametrize("make_executor", [
    pytest.param(SerialExecutor, id="serial"),
    pytest.param(lambda: ThreadExecutor(max_workers=2), id="threads"),
    # One worker: a real kill fails every chunk queued on the pool, so
    # only a sequential pool with the kill in the last chunk loses
    # exactly one chunk.
    pytest.param(lambda: ProcessExecutor(max_workers=1), id="processes"),
    pytest.param(lambda: ProcessExecutor(max_workers=1), id="processes-blob"),
])
def test_map_shared_recovers_one_kill_on_every_executor(
    monkeypatch, request, make_executor
):
    if request.node.callspec.id == "processes-blob":
        monkeypatch.setenv("MIRAGE_SHM_DISABLE", "1")
    monkeypatch.setenv("MIRAGE_FAULT_PLAN", "kill:trial:1")
    with make_executor() as executor:
        results = executor.map_shared(_times, 3, [4, 5])
        stats = dict(executor.dispatch_stats)
    assert results == [12, 15]
    assert stats["retries"] == 1, stats
    assert stats["executor_downgrades"] == 0, stats


@pytest.mark.parametrize("shm", [
    pytest.param(True, id="shm", marks=needs_shm),
    pytest.param(False, id="blob"),
])
def test_barrier_dispatch_keeps_its_chunk_and_transport_accounting(
    monkeypatch, shm
):
    """The barrier scheduler's one ``map_shared`` call ships one payload.

    Nine trials on two workers split into five chunks, each carrying
    the payload handle: a segment name and digest over shared memory,
    the whole in-band pickle blob without it.
    """
    if not shm:
        monkeypatch.setenv("MIRAGE_SHM_DISABLE", "1")
    published = []
    publish = executors._publish_object

    def recording_publish(obj, anchors=()):
        handle = publish(obj, anchors)
        published.append((obj, handle))
        return handle

    monkeypatch.setattr(executors, "_publish_object", recording_publish)
    with ProcessExecutor(max_workers=2) as pool:
        batch = transpile_many(
            [qft(4), ghz(5), twolocal_full(4)], line_topology(5),
            coverage=COVERAGE, use_vf2=False, layout_trials=3, seed=7,
            fanout="circuits", scheduler="barrier", executor=pool,
        )
    dispatch = batch.dispatch
    assert (dispatch["chunks"], dispatch["tasks"]) == (5, 9), dispatch
    assert len(published) == 1
    payload, handle = published[0]
    if shm:
        assert dispatch["shm_segments"] == 1
        per_chunk = len(f"{SHM_SEGMENT_PREFIX}{os.getpid()}_") + 8
    else:
        assert dispatch["shm_segments"] == 0
        per_chunk = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    assert handle.shipped_bytes == per_chunk + len(handle.digest) + 16
    assert dispatch["bytes_shipped"] == 5 * handle.shipped_bytes, dispatch


def _open_released_slot_session(kind, stack):
    if kind == "inline":
        executor = stack.enter_context(SerialExecutor())
    elif kind == "thread":
        executor = stack.enter_context(ThreadExecutor(max_workers=2))
    elif kind == "shm":
        executor = stack.enter_context(ProcessExecutor(max_workers=2))
    else:
        from repro.transpiler.remote import RemoteExecutor, WorkerHost

        hosts = [WorkerHost(heartbeat_s=0.5)]
        for host in hosts:
            host.start()
            stack.callback(host.close)
        executor = stack.enter_context(
            RemoteExecutor(hosts=[host.address for host in hosts])
        )
    session = executor.open_dispatch(operator.mul)
    assert session is not None
    stack.enter_context(session)
    return executor, session


@pytest.mark.parametrize("kind", [
    "inline", "thread", pytest.param("shm", marks=needs_shm), "remote",
])
def test_submit_to_released_slot_raises_before_dispatch(kind):
    import contextlib

    with contextlib.ExitStack() as stack:
        executor, session = _open_released_slot_session(kind, stack)
        live = session.add_payload(3)
        released = session.add_payload(4)
        session.release(released)
        with pytest.raises(TranspilerError, match="released"):
            session.submit(released, [1, 2, 3])
        assert executor.dispatch_stats["chunks"] == 0
        assert executor.dispatch_stats["tasks"] == 0
        assert session.outstanding() == 0
        assert not getattr(session, "_inflight", {})
        # The session stays usable for its live slots.
        futures = session.submit(live, [1, 2, 3])
        assert [r for f in futures for r in f.result()] == [3, 6, 9]
