"""Tests for fault-tolerant dispatch: crash recovery, injection, janitor.

Covers the reliability layer end to end:

* the ``MIRAGE_FAULT_PLAN`` grammar and its error reporting;
* digest-pinned retry determinism — fixed-seed ``transpile_many``
  outputs are byte-identical with and without injected worker kills,
  hangs and corrupt results, across serial/thread/process executors,
  with the recovery recorded in dispatch provenance;
* deadline-driven respawn of hung workers (``MIRAGE_TASK_TIMEOUT``);
* graceful degradation down the executor ladder
  (``MIRAGE_TASK_RETRIES=0``);
* the worker-host janitor (:func:`reap_stale_host_files`), and exception
  paths through ``transpile_many`` that leave the pool reusable.
"""

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
from repro.transpiler.faults import (
    ChunkFaults,
    CorruptResult,
    CorruptResultError,
    FaultPlan,
    InjectedWorkerCrash,
    parse_fault_plan,
)
from repro.transpiler.remote.host import reap_stale_host_files

COVERAGE = get_coverage_set("sqrt_iswap", num_samples=250, seed=3)


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
    plan = parse_fault_plan("kill:trial:7, hang:trial:2 ,drop_conn:chunk:1")
    assert bool(plan)
    faults = plan.chunk_faults("trial", start=4, count=8)
    assert faults.kills == (3,)
    hung = plan.chunk_faults("trial", start=2, count=1)
    assert hung.hangs == (0,)
    assert plan.chunk_faults("trial", start=100, count=2) is None
    assert plan.network_fault("drop_conn", 1)


def test_fault_plan_misses_return_none():
    plan = parse_fault_plan("corrupt:trial:50")
    assert plan.chunk_faults("trial", start=0, count=50) is None
    assert plan.chunk_faults("trial", start=51, count=9) is None


def test_fault_plan_empty_spec_is_empty():
    assert not parse_fault_plan("")
    assert not parse_fault_plan(" , ")
    assert FaultPlan([]).chunk_faults("trial", 0, 10) is None


@pytest.mark.parametrize("spec", [
    "explode:trial:1",          # unknown action
    "kill:route:1",             # unknown kind
    "kill:trial",               # missing index
    "kill:trial:x",             # non-integer index
    "corrupt_shm",              # retired kind
    "corrupt_shm:1",            # retired kind, with the old chunk ordinal
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
    faults = plan.chunk_faults("trial", start=0, count=8)
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
    assert plan.chunk_faults("trial", start=0, count=50) is None


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


@pytest.mark.parametrize("fault_spec", ["kill:trial:3", "corrupt:trial:2"])
def test_injected_faults_preserve_digests_inline_transport(
    monkeypatch, fault_spec
):
    """The process pool's inline pickle blobs recover at further
    ordinals too."""
    expected = _baseline()
    monkeypatch.setenv("MIRAGE_FAULT_PLAN", fault_spec)
    with ProcessExecutor(max_workers=2) as executor:
        faulted = _batch(executor)
        stats = dict(executor.dispatch_stats)
    assert [_fingerprint(r) for r in faulted] == expected
    assert stats["retries"] >= 1


def test_clean_run_reports_zero_fault_counters(monkeypatch):
    # CI's fault-injection job exports a global MIRAGE_FAULT_PLAN; a
    # *clean*-run assertion must explicitly run without one.
    monkeypatch.delenv("MIRAGE_FAULT_PLAN", raising=False)
    result = _batch()
    for key in (
        "retries", "respawns", "lost_tasks",
        "executor_downgrades", "deadline_expirations",
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
    "executor_downgrades", "deadline_expirations",
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
@given(trial_faults=_TRIAL_FAULTS, budget=st.integers(0, 2))
def test_fuzzed_fault_plans_recover_byte_identically(
    fuzz_executor, trial_faults, budget
):
    """Any plan of kills, corruptions and slow tasks, under any retry
    budget, recovers to the clean bytes."""
    entries = [f"{action}:trial:{index}" for action, index in trial_faults]
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
        racy = _warm_pool_racy_counters(kills)
    exact = [key for key in RECOVERY_COUNTERS if key not in racy]
    assert [runs[0][1][key] for key in exact] == [
        runs[1][1][key] for key in exact
    ]


def _warm_pool_racy_counters(kills: set) -> set:
    """The recovery counters a reused process pool may count differently
    from run to run under one plan (see docs/reliability.md).

    A worker kill also costs whichever queued chunks the worker reached
    first.  Lost chunks replay with their faults disarmed, so a second
    kill fires or not depending on that race.
    """
    racy = set()
    if kills:
        racy |= {"retries", "lost_tasks", "executor_downgrades"}
    if len(kills) > 1:
        racy.add("respawns")
    return racy


#: Warm-pool runs per plan in the exact-counter test below.
WARM_RUNS = 20


@pytest.mark.parametrize("plan, exact", [
    ("kill:trial:0", {
        "respawns": 1, "executor_downgrades": 0, "deadline_expirations": 0,
    }),
])
def test_warm_pool_counters_outside_the_race_are_exact(
    monkeypatch, plan, exact
):
    """On one reused single-worker pool, every run of a plan counts the
    same respawns, downgrades and expirations; only ``retries`` and
    ``lost_tasks`` depend on how many queued chunks a kill took along.
    With the default retry budget no lost chunk runs out of replays, so
    ``executor_downgrades`` stays exact too."""
    monkeypatch.setenv("MIRAGE_FAULT_PLAN", plan)
    monkeypatch.setenv("MIRAGE_FAULT_SLOW_SECONDS", "0.01")
    monkeypatch.delenv("MIRAGE_TASK_RETRIES", raising=False)
    with ProcessExecutor(max_workers=1) as pool:
        for _ in range(WARM_RUNS):
            batch = _batch(pool)
            assert [_fingerprint(r) for r in batch] == _baseline()
            assert {key: batch.dispatch[key] for key in exact} == exact
            assert 1 <= batch.dispatch["retries"] <= batch.dispatch["lost_tasks"]


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


@pytest.mark.parametrize("make_executor", [
    SerialExecutor,
    lambda: ThreadExecutor(max_workers=2),
    lambda: ProcessExecutor(max_workers=2),
], ids=["serial", "threads", "processes-blob"])
def test_batch_of_one_honours_a_mid_flight_deadline(monkeypatch, make_executor):
    """A lone circuit's deadline rides its trial chunks: a slow first
    trial carries it past the deadline mid-flight, and the batch settles
    it as a typed error instead of returning a late result — on a
    process pool shipping pickled blobs too."""
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


def test_corrupt_result_error_is_transport_error():
    # The retry layer catches TransportError; corruption must ride that
    # path (replay) like a lost remote connection does.
    assert issubclass(CorruptResultError, TransportError)
    assert issubclass(TransportError, TranspilerError)


# ---------------------------------------------------------------------------
# Janitor and teardown
# ---------------------------------------------------------------------------


def _dead_pid() -> int:
    """The pid of a real process that has already exited."""
    import subprocess
    import sys

    probe = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True,
        text=True,
        check=True,
    )
    return int(probe.stdout)


def test_reaper_ignores_foreign_names():
    """Only the host socket and spool prefixes are swept: a dead pid in
    any other name is none of the janitor's business."""
    import tempfile

    foreign = os.path.join(
        tempfile.gettempdir(), f"no_such_prefix_{_dead_pid()}_t"
    )
    open(foreign, "w").close()
    try:
        assert os.path.basename(foreign) not in reap_stale_host_files()
        assert os.path.exists(foreign)
    finally:
        os.unlink(foreign)


def test_reaper_sweeps_dead_host_sockets_and_spools():
    """The janitor reclaims socket files and spool dirs of dead hosts."""
    import shutil
    import tempfile

    from repro.transpiler.remote.protocol import HOST_SOCKET_PREFIX, SPOOL_PREFIX

    # Create host artefacts owned by a real, now-dead pid.
    dead_pid = _dead_pid()
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
        reclaimed = reap_stale_host_files()
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


# ---------------------------------------------------------------------------
# Exception paths through transpile_many leave the pool reusable
# ---------------------------------------------------------------------------


def test_failing_batch_propagates_the_planning_error(monkeypatch):
    """A mid-batch planning failure surfaces, and the pool runs the next
    batch."""
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
        monkeypatch.setattr(transpile_mod, "run_plan", real_run_plan)
        assert [_fingerprint(r) for r in _batch(executor)] == _baseline()


def test_failing_trials_propagate_the_task_error():
    """A task exception drains the dispatch, and the pool serves the next
    call."""
    with ProcessExecutor(max_workers=2) as executor:
        with pytest.raises(ZeroDivisionError):
            executor.map_shared(_divide, {"d": 0}, list(range(8)))
        assert executor.map_shared(_divide, {"d": 2}, [4, 6]) == [2, 3]


def _divide(shared, task):
    return task // shared["d"]


def _slow_divide(shared, task):
    time.sleep(0.02)
    return _divide(shared, task)
