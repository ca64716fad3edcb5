"""Transport, identity and clean-run gates on small fixed workloads.

Each test runs a fixed-seed workload on the serial, thread, process and
remote executors and checks one promise of the dispatch layers:

* every transport returns the serial routing byte for byte, as do per-circuit ``transpile()`` calls (the same holds for the
  compiled and the pure-Python route loop, and for one circuit's trials
  on a process pool);
* a clean run reports every recovery and overload counter as zero —
  a retry or respawn here means the environment misbehaved;
* ``map_shared`` is one dispatch session on every executor, so the
  same fault plan is recovered the same way;
* the batch session's chunk and transport accounting: one anchor blob
  and one spec blob per chunk, each unpickled at most once per worker;
* no session type dispatches anything against a released payload slot.
"""

from __future__ import annotations

import asyncio
import hashlib
import operator

import numpy as np
import pytest

from repro.circuits.library import ghz, qft, twolocal_full
from repro.core import transpile, transpile_many
from repro.exceptions import TranspilerError
from repro.polytopes import get_coverage_set
from repro.transpiler import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    line_topology,
)
from repro.transpiler import executors
from repro.transpiler.kernel import route

COVERAGE = get_coverage_set("sqrt_iswap", num_samples=700, seed=7)
#: Counters every dispatch reports; a clean run leaves them all zero.
RECOVERY_COUNTERS = ("retries", "respawns", "lost_tasks",
                     "executor_downgrades", "deadline_expirations")
REMOTE_COUNTERS = ("reconnects", "host_downgrades", "frames_garbled")
SERVICE_COUNTERS = ("shed_requests", "deadline_expirations",
                    "breaker_trips", "degraded_windows")


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
    pool.prewarm()


def assert_clean(dispatch: dict, label: str, counters=RECOVERY_COUNTERS) -> None:
    for counter in counters:
        assert counter in dispatch, f"{label}: no {counter!r} in {dispatch}"
        assert dispatch[counter] == 0, f"{label}: {counter}={dispatch[counter]}"


@pytest.fixture(scope="module")
def batch_fanout():
    """One batch, serially and on a process pool, plus the same
    circuits as per-circuit ``transpile()`` calls on the batch's seeds."""
    circuits = small_circuits(2)
    coupling = line_topology(5)
    kwargs = dict(coverage=COVERAGE, use_vf2=False, layout_trials=2,
                  refinement_rounds=2)

    def run(executor=None):
        return transpile_many(circuits, coupling, executor=executor,
                              seed=29, **kwargs)

    batches = {"sequential": run()}
    roots = np.random.SeedSequence(29).spawn(len(circuits))
    with ProcessExecutor() as pool:
        prewarm(pool)
        batches["stream"] = run(pool)
        batches["trials"] = [
            transpile(circuit, coupling, seed=root, executor=pool, **kwargs)
            for circuit, root in zip(circuits, roots)
        ]
    return batches


def test_batch_fanout_identical_across_modes_and_transports(batch_fanout):
    reference = batch_digests(batch_fanout["sequential"])
    for mode in ("trials", "stream"):
        assert batch_digests(batch_fanout[mode]) == reference, mode


def test_batch_fanout_clean_run_has_zero_recovery_counters(batch_fanout):
    assert_clean(batch_fanout["stream"].dispatch, "stream")


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
    serial = transpile_many(circuits, coupling, executor=SerialExecutor(),
                            **kwargs)
    hosts = [WorkerHost(heartbeat_s=0.5), WorkerHost(heartbeat_s=0.5)]
    try:
        for host in hosts:
            host.start()
        executor = RemoteExecutor(hosts=[host.address for host in hosts],
                                  max_streams=2)
        try:
            executor.prewarm()
            remote = transpile_many(circuits, coupling, executor=executor,
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
])
def test_map_shared_recovers_one_kill_on_every_executor(
    monkeypatch, make_executor
):
    monkeypatch.setenv("MIRAGE_FAULT_PLAN", "kill:trial:1")
    with make_executor() as executor:
        results = executor.map_shared(_times, 3, [4, 5])
        stats = dict(executor.dispatch_stats)
    assert results == [12, 15]
    assert stats["retries"] == 1, stats
    assert stats["executor_downgrades"] == 0, stats


def test_stream_dispatch_keeps_its_chunk_and_transport_accounting(
    monkeypatch,
):
    """The batch session ships one anchor and one spec per circuit.

    Three trials per circuit on two workers split into three chunks,
    nine in all, each carrying its circuit's spec blob next to the
    anchor blob.  Workers unpickle each blob at most once: the bytes
    they copy lie between one and two (workers) copies of every blob.
    """
    published = []
    publish = executors._publish_object

    def recording_publish(obj, anchors=()):
        handle = publish(obj, anchors)
        published.append((obj, anchors, handle))
        return handle

    monkeypatch.setattr(executors, "_publish_object", recording_publish)
    with ProcessExecutor(max_workers=2) as pool:
        batch = transpile_many(
            [qft(4), ghz(5), twolocal_full(4)], line_topology(5),
            coverage=COVERAGE, use_vf2=False, layout_trials=3, seed=7,
            executor=pool,
        )
    dispatch = batch.dispatch
    assert (dispatch["chunks"], dispatch["tasks"]) == (9, 9), dispatch
    (anchor, _, anchor_handle), *specs = published
    assert anchor == (COVERAGE,) and len(specs) == 3
    for payload, anchors, handle in published:
        blob = executors._dumps_anchored(payload, anchors)
        assert handle.shipped_bytes == len(blob) + len(handle.digest) + 16
    assert dispatch["bytes_shipped"] == sum(
        3 * (handle.shipped_bytes + anchor_handle.shipped_bytes)
        for _, _, handle in specs
    ), dispatch
    blobs = sum(handle.size for _, _, handle in published)
    assert blobs <= dispatch["bytes_copied"] <= 2 * blobs, dispatch


def _open_released_slot_session(kind, stack):
    if kind == "inline":
        executor = stack.enter_context(SerialExecutor())
    elif kind == "thread":
        executor = stack.enter_context(ThreadExecutor(max_workers=2))
    elif kind == "processes":
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
    session = stack.enter_context(executor.open_dispatch(operator.mul))
    return executor, session


@pytest.mark.parametrize("kind", ["inline", "thread", "processes", "remote"])
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
