"""Tests for fault-tolerant dispatch: crash recovery, injection, janitor.

Covers the reliability layer end to end:

* the ``MIRAGE_FAULT_PLAN`` grammar and its error reporting;
* digest-pinned retry determinism — fixed-seed ``transpile_many``
  outputs are byte-identical with and without injected worker kills,
  hangs and corrupt results, across serial/thread/process executors and
  both transports, with the recovery recorded in dispatch provenance;
* deadline-driven respawn of hung workers (``MIRAGE_TASK_TIMEOUT``);
* graceful degradation down the executor ladder
  (``MIRAGE_TASK_RETRIES=0``) and the transport ladder (``corrupt_shm``);
* typed :class:`~repro.exceptions.TransportError` on vanished segments;
* the shared-memory janitor (:func:`reap_stale_segments`), idempotent
  ``_cleanup_segments`` teardown, and orphan-free exception paths
  through ``transpile_many``.
"""

import glob
import multiprocessing
import os
import pickle
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.library import ghz, qft
from repro.core import transpile_many
from repro.exceptions import (
    DeadlineExceededError,
    InvalidModeError,
    TranspilerError,
    TransportError,
)
from repro.polytopes import get_coverage_set
from repro.transpiler import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    line_topology,
)
from repro.transpiler.executors import (
    SHM_SEGMENT_PREFIX,
    _attach_segment,
    _cleanup_segments,
    _created_segments,
    _load_payload,
    _publish_object,
    reset_worker_state,
    shm_transport_enabled,
)
from repro.transpiler.faults import (
    ChunkFaults,
    CorruptResult,
    CorruptResultError,
    FaultPlan,
    InjectedWorkerCrash,
    parse_fault_plan,
    reap_stale_segments,
)

COVERAGE = get_coverage_set("sqrt_iswap", num_samples=250, seed=3)

needs_shm = pytest.mark.skipif(
    not shm_transport_enabled(),
    reason="POSIX shared memory unavailable on this platform",
)


def _own_segments() -> list[str]:
    return glob.glob(f"/dev/shm/{SHM_SEGMENT_PREFIX}{os.getpid()}_*")


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
        [qft(4), ghz(5)],
        line_topology(5),
        coverage=COVERAGE,
        use_vf2=False,
        layout_trials=3,
        seed=7,
        executor=executor,
        **kwargs,
    )


@pytest.fixture
def quick_recovery(monkeypatch):
    """Short hangs/backoffs so fault scenarios finish in test time."""
    monkeypatch.setenv("MIRAGE_FAULT_HANG_SECONDS", "5")
    monkeypatch.setenv("MIRAGE_TASK_TIMEOUT", "1.0")
    return monkeypatch


# ---------------------------------------------------------------------------
# Fault-plan grammar
# ---------------------------------------------------------------------------


def test_fault_plan_parses_task_and_chunk_entries():
    plan = parse_fault_plan("kill:trial:7, hang:trial:2 ,corrupt_shm:1")
    assert bool(plan)
    faults = plan.chunk_faults("trial", start=4, count=8, chunk_ordinal=0)
    assert faults.kills == (3,)
    hung = plan.chunk_faults("trial", start=2, count=1, chunk_ordinal=1)
    assert hung.hangs == (0,)
    by_chunk = plan.chunk_faults("trial", start=100, count=2, chunk_ordinal=1)
    assert by_chunk.corrupt_shm


def test_fault_plan_misses_return_none():
    plan = parse_fault_plan("corrupt:trial:50")
    assert plan.chunk_faults("trial", start=0, count=50, chunk_ordinal=0) is None
    assert plan.chunk_faults("trial", start=51, count=9, chunk_ordinal=0) is None


def test_fault_plan_empty_spec_is_empty():
    assert not parse_fault_plan("")
    assert not parse_fault_plan(" , ")
    assert FaultPlan([]).chunk_faults("trial", 0, 10, 0) is None


@pytest.mark.parametrize("spec", [
    "explode:trial:1",          # unknown action
    "kill:route:1",             # unknown kind
    "kill:trial",               # missing index
    "kill:trial:x",             # non-integer index
    "corrupt_shm",              # missing chunk ordinal
    "shed:trial:1",             # shed only targets the request stage
    "trip_breaker:request:0",   # trip_breaker only targets windows
    "slow:request:1",           # slow is a task fault, not a service one
    "kill:plan:1",              # planning never runs on a worker
])
def test_fault_plan_rejects_bad_entries(spec):
    with pytest.raises(TranspilerError, match="MIRAGE_FAULT_PLAN"):
        parse_fault_plan(spec)


def test_fault_plan_errors_name_the_grammar():
    """A parse failure tells the operator what shapes are accepted."""
    with pytest.raises(TranspilerError, match="kind:stage:ordinal"):
        parse_fault_plan("shed:request")


def test_fault_plan_parses_service_entries():
    plan = parse_fault_plan("shed:request:3, trip_breaker:window:0, slow:trial:2")
    assert bool(plan)
    assert plan.service_fault("shed", 3)
    assert not plan.service_fault("shed", 2)
    assert plan.service_fault("trip_breaker", 0)
    assert not plan.service_fault("trip_breaker", 1)
    faults = plan.chunk_faults("trial", start=0, count=8, chunk_ordinal=0)
    assert faults.slows == (2,)


def test_fault_plan_parses_network_entries():
    plan = parse_fault_plan(
        "drop_conn:chunk:2, garble:frame:0, partition:host:1, slow_net:chunk:4"
    )
    assert bool(plan)
    assert plan.network_fault("drop_conn", 2)
    assert not plan.network_fault("drop_conn", 1)
    assert plan.network_fault("garble", 0)
    assert plan.network_fault("partition", 1)
    assert not plan.network_fault("partition", 0)
    assert plan.network_fault("slow_net", 4)
    # Network entries never leak into the task/chunk fault resolution.
    assert plan.chunk_faults("trial", start=0, count=50, chunk_ordinal=2) is None


@pytest.mark.parametrize("spec", [
    "drop_conn:frame:1",     # drop_conn counts chunks, not frames
    "garble:chunk:1",        # garble counts frames
    "partition:chunk:0",     # partition targets host indices
    "slow_net:host:0",       # slow_net counts chunks
    "drop_conn:chunk",       # missing ordinal
    "partition:host:x",      # non-integer ordinal
])
def test_fault_plan_rejects_bad_network_entries(spec):
    with pytest.raises(TranspilerError, match="MIRAGE_FAULT_PLAN"):
        parse_fault_plan(spec)


def test_chunk_faults_fire_positionally():
    faults = ChunkFaults(
        kills=(1,), corrupts=(2,), dispatcher_pid=os.getpid()
    )
    faults.before_task(0)  # no fault at offset 0
    with pytest.raises(InjectedWorkerCrash):
        faults.before_task(1)
    assert isinstance(faults.after_task(2, "real"), CorruptResult)
    assert faults.after_task(0, "real") == "real"
    with pytest.raises(TransportError):
        ChunkFaults(corrupt_shm=True).check_transport()


def test_corrupt_result_pickles():
    marker = pickle.loads(pickle.dumps(CorruptResult(5)))
    assert isinstance(marker, CorruptResult)
    assert marker.ordinal == 5


# ---------------------------------------------------------------------------
# Digest-pinned retry determinism across executors, transports and faults
# ---------------------------------------------------------------------------


BASELINE = None


def _baseline():
    global BASELINE
    if BASELINE is None:
        BASELINE = [_fingerprint(r) for r in _batch()]
    return BASELINE


@pytest.mark.parametrize("make_executor", [
    SerialExecutor,
    ThreadExecutor,
    lambda: ProcessExecutor(max_workers=2),
])
@pytest.mark.parametrize("fault_spec", [
    "kill:trial:2",
    "corrupt:trial:4",
    "kill:trial:1,corrupt:trial:5",
])
def test_injected_faults_preserve_digests(
    monkeypatch, make_executor, fault_spec
):
    """Recovered batches are byte-identical to undisturbed ones."""
    expected = _baseline()
    monkeypatch.setenv("MIRAGE_FAULT_PLAN", fault_spec)
    with make_executor() as executor:
        faulted = _batch(executor)
        stats = dict(executor.dispatch_stats)
    assert [_fingerprint(r) for r in faulted] == expected
    assert stats["retries"] >= 1
    assert stats["lost_tasks"] >= 1
    assert faulted.dispatch["retries"] >= 1
    assert _own_segments() == []


@pytest.mark.parametrize("fault_spec", ["kill:trial:3", "corrupt:trial:2"])
def test_injected_faults_preserve_digests_inline_transport(
    monkeypatch, fault_spec
):
    """The inline-pickle transport recovers identically to shm."""
    expected = _baseline()
    monkeypatch.setenv("MIRAGE_SHM_DISABLE", "1")
    monkeypatch.setenv("MIRAGE_FAULT_PLAN", fault_spec)
    with ProcessExecutor(max_workers=2) as executor:
        faulted = _batch(executor)
        stats = dict(executor.dispatch_stats)
    assert [_fingerprint(r) for r in faulted] == expected
    assert stats["retries"] >= 1
    assert _own_segments() == []


def test_clean_run_reports_zero_fault_counters(monkeypatch):
    # CI's fault-injection job exports a global MIRAGE_FAULT_PLAN; a
    # *clean*-run assertion must explicitly run without one.
    monkeypatch.delenv("MIRAGE_FAULT_PLAN", raising=False)
    result = _batch()
    for key in (
        "retries", "respawns", "lost_tasks",
        "executor_downgrades", "transport_downgrades",
        "deadline_expirations",
    ):
        assert result.dispatch[key] == 0


def test_injected_slow_tasks_preserve_digests(monkeypatch):
    """Slowed tasks delay delivery but never lose work or change bits."""
    expected = _baseline()
    monkeypatch.setenv("MIRAGE_FAULT_PLAN", "slow:trial:1,slow:trial:3")
    monkeypatch.setenv("MIRAGE_FAULT_SLOW_SECONDS", "0.05")
    with ThreadExecutor(max_workers=2) as executor:
        faulted = _batch(executor)
    assert [_fingerprint(r) for r in faulted] == expected
    assert faulted.dispatch["retries"] == 0
    assert faulted.dispatch["lost_tasks"] == 0


#: The recovery-provenance subset of the dispatch counters — the part a
#: deterministic fault plan must reproduce exactly run over run.
RECOVERY_COUNTERS = (
    "retries", "respawns", "lost_tasks",
    "executor_downgrades", "transport_downgrades",
    "deadline_expirations",
)


# The process pool runs one worker: in-process injections fail exactly
# one chunk, but a *real* worker kill takes down every chunk in flight,
# and with >1 worker the sibling's progress at kill time is a race.  One
# sequential worker makes the lost-chunk set — and so the counters —
# a pure function of the plan.
@pytest.mark.parametrize("make_executor", [
    lambda: ThreadExecutor(max_workers=2),
    lambda: ProcessExecutor(max_workers=1),
])
def test_recovery_counters_reproducible_across_runs(monkeypatch, make_executor):
    """Same fault plan + same seed => byte-identical results AND
    byte-identical recovery counters across two runs of one executor."""
    monkeypatch.setenv("MIRAGE_FAULT_PLAN", "kill:trial:1,corrupt:trial:4")
    runs = []
    for _ in range(2):
        with make_executor() as executor:
            batch = _batch(executor)
        runs.append((
            [_fingerprint(r) for r in batch],
            {key: batch.dispatch[key] for key in RECOVERY_COUNTERS},
        ))
    assert runs[0] == runs[1]
    assert runs[0][1]["retries"] >= 1
    assert _own_segments() == []


def test_recovery_results_identical_across_executors(monkeypatch):
    """The same plan recovered on different executors converges on the
    same bytes, whatever each executor's recovery path counted."""
    monkeypatch.setenv("MIRAGE_FAULT_PLAN", "kill:trial:2")
    fingerprints = []
    for make_executor in (
        lambda: ThreadExecutor(max_workers=2),
        lambda: ProcessExecutor(max_workers=2),
    ):
        with make_executor() as executor:
            batch = _batch(executor)
            assert dict(executor.dispatch_stats)["retries"] >= 1
        fingerprints.append([_fingerprint(r) for r in batch])
    assert fingerprints[0] == fingerprints[1] == _baseline()


_FUZZ_EXECUTORS = {
    "serial": SerialExecutor,
    "threads": lambda: ThreadExecutor(max_workers=2),
    "processes": lambda: ProcessExecutor(max_workers=1),
}


@pytest.fixture(scope="module", params=sorted(_FUZZ_EXECUTORS))
def fuzz_executor(request):
    """One executor per kind, reused by every fuzzed example."""
    with _FUZZ_EXECUTORS[request.param]() as executor:
        yield executor


_TRIAL_FAULTS = st.lists(
    st.tuples(st.sampled_from(["kill", "corrupt", "slow"]), st.integers(0, 7)),
    min_size=1,
    max_size=3,
)


@settings(max_examples=40, deadline=None)
@given(
    trial_faults=_TRIAL_FAULTS,
    corrupt_shm=st.none() | st.integers(0, 5),
    budget=st.integers(0, 2),
)
def test_fuzzed_fault_plans_recover_byte_identically(
    fuzz_executor, trial_faults, corrupt_shm, budget
):
    """Any plan of kills, corruptions, slow tasks and segment losses, under
    any retry budget, recovers to the clean bytes and leaks nothing."""
    entries = [f"{action}:trial:{index}" for action, index in trial_faults]
    if corrupt_shm is not None:
        entries.append(f"corrupt_shm:{corrupt_shm}")
    env = {
        "MIRAGE_FAULT_PLAN": ",".join(entries),
        "MIRAGE_TASK_RETRIES": str(budget),
        "MIRAGE_FAULT_SLOW_SECONDS": "0.01",
    }
    runs = []
    with mock.patch.dict(os.environ, env):
        for _ in range(2):
            batch = _batch(fuzz_executor)
            runs.append((
                [_fingerprint(r) for r in batch],
                {key: batch.dispatch[key] for key in RECOVERY_COUNTERS},
            ))
    assert runs[0][0] == runs[1][0] == _baseline()
    racy = set()
    if fuzz_executor.name == "processes":
        kills = {index for action, index in trial_faults if action == "kill"}
        racy = _warm_pool_racy_counters(kills, corrupt_shm is not None)
    exact = [key for key in RECOVERY_COUNTERS if key not in racy]
    assert [runs[0][1][key] for key in exact] == [
        runs[1][1][key] for key in exact
    ]
    assert _own_segments() == []


def _warm_pool_racy_counters(kills: set, corrupt_shm: bool) -> set:
    """The recovery counters a reused process pool may count differently
    from run to run under one plan (see docs/reliability.md).

    A worker kill, or a segment unlinked by the transport downgrade,
    also costs whichever queued chunks the worker reached first.  Lost
    chunks replay with their faults disarmed, so a second kill, or a
    ``corrupt_shm`` next to a kill, fires or not depending on that race.
    """
    racy = set()
    if kills or corrupt_shm:
        racy |= {"retries", "lost_tasks", "executor_downgrades"}
    if len(kills) > 1 or (kills and corrupt_shm):
        racy.add("respawns")
    if kills and corrupt_shm:
        racy.add("transport_downgrades")
    return racy


#: Warm-pool runs per plan in the exact-counter test below.
WARM_RUNS = 20


@pytest.mark.parametrize("plan, exact", [
    ("kill:trial:0", {
        "respawns": 1, "executor_downgrades": 0,
        "transport_downgrades": 0, "deadline_expirations": 0,
    }),
    ("slow:trial:2,corrupt_shm:3", {
        "respawns": 0, "executor_downgrades": 0,
        "transport_downgrades": 1, "deadline_expirations": 0,
    }),
])
def test_warm_pool_counters_outside_the_race_are_exact(
    monkeypatch, plan, exact
):
    """On one reused single-worker pool, every run of a plan counts the
    same respawns, downgrades and expirations; only ``retries`` and
    ``lost_tasks`` depend on how many queued chunks a loss took along.
    With the default retry budget no lost chunk runs out of replays, so
    ``executor_downgrades`` stays exact too."""
    monkeypatch.setenv("MIRAGE_FAULT_PLAN", plan)
    monkeypatch.setenv("MIRAGE_FAULT_SLOW_SECONDS", "0.01")
    monkeypatch.delenv("MIRAGE_TASK_RETRIES", raising=False)
    monkeypatch.delenv("MIRAGE_SHM_DISABLE", raising=False)
    with ProcessExecutor(max_workers=1) as pool:
        for _ in range(WARM_RUNS):
            batch = _batch(pool)
            assert [_fingerprint(r) for r in batch] == _baseline()
            assert {key: batch.dispatch[key] for key in exact} == exact
            assert 1 <= batch.dispatch["retries"] <= batch.dispatch["lost_tasks"]
    assert _own_segments() == []


# ---------------------------------------------------------------------------
# Deadline propagation: typed expiry, sibling isolation, counters
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make_executor", [
    SerialExecutor,
    lambda: ThreadExecutor(max_workers=2),
    lambda: ProcessExecutor(max_workers=2),
])
def test_expired_deadline_fails_one_circuit_not_its_siblings(make_executor):
    """on_error="return" places a typed error at the expired circuit's
    position; siblings stay byte-identical and nothing leaks."""
    expected = _baseline()
    with make_executor() as executor:
        batch = _batch(
            executor,
            circuit_deadlines=[time.monotonic() - 1.0, None],
            on_error="return",
        )
        stats = dict(executor.dispatch_stats)
    assert isinstance(batch.results[0], DeadlineExceededError)
    assert _fingerprint(batch.results[1]) == expected[1]
    assert stats["deadline_expirations"] >= 1
    assert batch.dispatch["deadline_expirations"] >= 1
    # Aggregate helpers skip the placeholder instead of crashing.
    assert batch.summary()["circuits"] == 2
    assert batch.circuit_seconds()[0] == 0.0
    assert _own_segments() == []


@pytest.mark.parametrize("make_executor", [
    SerialExecutor,
    lambda: ThreadExecutor(max_workers=2),
    lambda: ProcessExecutor(max_workers=2),
], ids=["serial", "threads", "processes-blob"])
def test_batch_of_one_honours_a_mid_flight_deadline(
    monkeypatch, request, make_executor
):
    """A lone circuit's deadline rides its trial chunks: a slow first
    trial carries it past the deadline mid-flight, and the batch settles
    it as a typed error instead of returning a late result — on a
    process pool without shared memory too."""
    if request.node.callspec.id == "processes-blob":
        monkeypatch.setenv("MIRAGE_SHM_DISABLE", "1")
    monkeypatch.setenv("MIRAGE_FAULT_PLAN", "slow:trial:0")
    monkeypatch.setenv("MIRAGE_FAULT_SLOW_SECONDS", "0.6")
    with make_executor() as executor:
        batch = transpile_many(
            [qft(4)],
            line_topology(5),
            coverage=COVERAGE,
            use_vf2=False,
            layout_trials=4,
            seed=7,
            executor=executor,
            circuit_deadlines=[time.monotonic() + 0.3],
            on_error="return",
        )
    (error,) = batch.results
    assert isinstance(error, DeadlineExceededError)
    # Expired while its trials ran (in the worker, or by the session
    # watchdog), not before it was planned.
    assert (
        "before its trials completed" in str(error)
        or "with its chunk still in flight" in str(error)
    ), error
    assert batch.dispatch["deadline_expirations"] >= 1


def test_expired_deadline_raises_by_default():
    with pytest.raises(DeadlineExceededError):
        _batch(circuit_deadlines=[time.monotonic() - 1.0, None])


def test_on_error_rejects_unknown_mode():
    with pytest.raises(InvalidModeError, match="on_error"):
        _batch(on_error="bogus")


def test_circuit_deadlines_length_must_match():
    with pytest.raises(TranspilerError, match="circuit_deadlines"):
        _batch(circuit_deadlines=[None])


# ---------------------------------------------------------------------------
# Hung workers: deadline, pool respawn, replay
# ---------------------------------------------------------------------------


@needs_shm
def test_hung_worker_is_respawned_and_replayed(quick_recovery):
    """A hang outliving MIRAGE_TASK_TIMEOUT is killed and re-dispatched."""
    quick_recovery.setenv("MIRAGE_FAULT_PLAN", "hang:trial:2")
    expected = _baseline()
    with ProcessExecutor(max_workers=2) as executor:
        faulted = _batch(executor)
        stats = dict(executor.dispatch_stats)
    assert [_fingerprint(r) for r in faulted] == expected
    assert stats["retries"] >= 1
    assert stats["respawns"] >= 1
    assert _own_segments() == []


# ---------------------------------------------------------------------------
# Degradation ladders
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make_executor", [
    SerialExecutor,
    lambda: ThreadExecutor(max_workers=2),
    lambda: ProcessExecutor(max_workers=2),
], ids=["serial", "threads", "processes"])
def test_exhausted_retries_degrade_to_in_process(monkeypatch, make_executor):
    """With a zero retry budget the chunk runs on the dispatcher itself,
    on every executor: a spent budget degrades, it never raises."""
    expected = _baseline()
    monkeypatch.setenv("MIRAGE_TASK_RETRIES", "0")
    monkeypatch.setenv("MIRAGE_FAULT_PLAN", "kill:trial:2")
    with make_executor() as executor:
        faulted = _batch(executor)
        stats = dict(executor.dispatch_stats)
    assert [_fingerprint(r) for r in faulted] == expected
    assert stats["executor_downgrades"] >= 1
    assert _own_segments() == []


def test_inline_degraded_chunk_settles_before_submit_returns(monkeypatch):
    """The degraded rung runs off-thread, yet an inline session still
    hands back settled futures."""
    monkeypatch.setenv("MIRAGE_TASK_RETRIES", "0")
    monkeypatch.setenv("MIRAGE_FAULT_PLAN", "kill:trial:1")
    executor = SerialExecutor()
    with executor.open_dispatch(_slow_divide) as session:
        slot = session.add_payload({"d": 2})
        futures = session.submit(slot, [4, 6, 8])
        assert all(future.done() for future in futures)
        assert [r for f in futures for r in f.result()] == [2, 3, 4]
    assert executor.dispatch_stats["executor_downgrades"] == 1


@needs_shm
def test_transport_fault_downgrades_to_inline(monkeypatch):
    """An injected segment loss republishes the payload inline."""
    expected = _baseline()
    monkeypatch.setenv("MIRAGE_FAULT_PLAN", "corrupt_shm:1")
    with ProcessExecutor(max_workers=2) as executor:
        faulted = _batch(executor)
        stats = dict(executor.dispatch_stats)
    assert [_fingerprint(r) for r in faulted] == expected
    assert stats["transport_downgrades"] >= 1
    assert _own_segments() == []


# ---------------------------------------------------------------------------
# Typed transport errors
# ---------------------------------------------------------------------------


@needs_shm
def test_vanished_segment_raises_transport_error():
    handle = _publish_object({"x": list(range(256))})
    assert handle.segment is not None
    from repro.transpiler.executors import _unlink_segment

    _unlink_segment(handle.segment)
    reset_worker_state()  # no memoised copy may answer for the segment
    with pytest.raises(TransportError, match="vanished"):
        _load_payload(handle)
    with pytest.raises(TransportError):
        _attach_segment(f"{SHM_SEGMENT_PREFIX}{os.getpid()}_deadbeef")
    assert _own_segments() == []


def test_corrupt_result_error_is_transport_error():
    # The retry layer catches TransportError; corruption must ride that
    # path (replay) while NOT triggering a transport downgrade — the
    # distinction the isinstance checks in the dispatcher rely on.
    assert issubclass(CorruptResultError, TransportError)
    assert issubclass(TransportError, TranspilerError)


# ---------------------------------------------------------------------------
# Janitor and teardown
# ---------------------------------------------------------------------------


def _publish_and_die(conn):
    """Child: publish a segment, signal, then die without cleanup."""
    from repro.transpiler.executors import _publish_object as publish

    handle = publish({"payload": list(range(512))})
    conn.send(handle.segment)
    conn.close()
    os._exit(1)  # hard death: no finally, no atexit


@needs_shm
def test_reaper_reclaims_segments_of_dead_process():
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe()
    child = ctx.Process(target=_publish_and_die, args=(child_conn,))
    child.start()
    assert parent_conn.poll(30)
    segment = parent_conn.recv()
    child.join(timeout=30)
    assert segment is not None
    leaked = f"/dev/shm/{segment}"
    assert os.path.exists(leaked)
    reclaimed = reap_stale_segments()
    assert segment in reclaimed
    assert not os.path.exists(leaked)


@needs_shm
def test_reaper_never_touches_live_segments():
    handle = _publish_object({"x": list(range(256))})
    assert handle.segment is not None
    try:
        assert handle.segment not in reap_stale_segments()
        assert os.path.exists(f"/dev/shm/{handle.segment}")
    finally:
        from repro.transpiler.executors import _unlink_segment

        _unlink_segment(handle.segment)


def test_reaper_ignores_foreign_names(tmp_path):
    assert reap_stale_segments(prefix="no_such_prefix_") == []


def test_reaper_sweeps_dead_host_sockets_and_spools():
    """The janitor reclaims socket files and spool dirs of dead hosts."""
    import shutil
    import subprocess
    import sys
    import tempfile

    from repro.transpiler.faults import HOST_SOCKET_PREFIX, SPOOL_PREFIX

    # Create host artefacts owned by a real, now-dead pid.
    probe = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True,
        text=True,
        check=True,
    )
    dead_pid = int(probe.stdout)
    tmp = tempfile.gettempdir()
    socket_file = os.path.join(tmp, f"{HOST_SOCKET_PREFIX}{dead_pid}_t.sock")
    spool_dir = os.path.join(tmp, f"{SPOOL_PREFIX}{dead_pid}_t")
    open(socket_file, "w").close()
    os.makedirs(spool_dir, exist_ok=True)
    open(os.path.join(spool_dir, "payload"), "w").close()
    # And artefacts owned by this live process, which must survive.
    live_socket = os.path.join(
        tmp, f"{HOST_SOCKET_PREFIX}{os.getpid()}_t.sock"
    )
    live_spool = os.path.join(tmp, f"{SPOOL_PREFIX}{os.getpid()}_t")
    open(live_socket, "w").close()
    os.makedirs(live_spool, exist_ok=True)
    try:
        reclaimed = reap_stale_segments()
        assert os.path.basename(socket_file) in reclaimed
        assert os.path.basename(spool_dir) in reclaimed
        assert not os.path.exists(socket_file)
        assert not os.path.exists(spool_dir)
        assert os.path.exists(live_socket)
        assert os.path.exists(live_spool)
    finally:
        for path in (socket_file, live_socket):
            if os.path.exists(path):
                os.unlink(path)
        for path in (spool_dir, live_spool):
            shutil.rmtree(path, ignore_errors=True)


@needs_shm
def test_cleanup_segments_is_idempotent():
    handle = _publish_object({"x": list(range(256))})
    assert handle.segment is not None
    assert handle.segment in _created_segments
    # Unlink behind the guard's back: cleanup must tolerate it.
    os.unlink(f"/dev/shm/{handle.segment}")
    _cleanup_segments()
    assert handle.segment not in _created_segments
    _cleanup_segments()  # second call: nothing left, still no error
    assert _own_segments() == []


# ---------------------------------------------------------------------------
# Exception paths through transpile_many leave no orphans
# ---------------------------------------------------------------------------


def test_failing_batch_leaves_no_orphan_segments(monkeypatch):
    """A mid-batch planning failure closes the session and segments."""
    import importlib

    # `repro.core` re-exports a `transpile` *function*, which shadows the
    # submodule under plain attribute-style import.
    transpile_mod = importlib.import_module("repro.core.transpile")
    real_run_plan = transpile_mod.run_plan
    calls = {"n": 0}

    def failing_run_plan(spec, task):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise TranspilerError("injected mid-batch planning failure")
        return real_run_plan(spec, task)

    monkeypatch.setattr(transpile_mod, "run_plan", failing_run_plan)
    with ProcessExecutor(max_workers=2) as executor:
        with pytest.raises(TranspilerError, match="mid-batch"):
            _batch(executor)
    assert _own_segments() == []


def test_failing_trials_leave_no_orphan_segments():
    """A task exception drains the dispatch and unlinks every segment."""

    with ProcessExecutor(max_workers=2) as executor:
        with pytest.raises(ZeroDivisionError):
            executor.map_shared(_divide, {"d": 0}, list(range(8)))
    assert _own_segments() == []


def _divide(shared, task):
    return task // shared["d"]


def _slow_divide(shared, task):
    time.sleep(0.02)
    return _divide(shared, task)
