"""Remote smoke driver: real worker hosts, injected network faults.

CI's ``remote`` job runs this script under a matrix of network fault
plans (clean control, dropped connections, garbled frames, a silent
host) plus a SIGKILL-mid-dispatch scenario.  It launches two real
``mirage-worker-host`` processes on localhost unix sockets, drives a
fixed-seed batch through :class:`RemoteExecutor`, and asserts the
distributed contract end to end:

* the batch is **byte-identical** to the serial executor's at the same
  seed — clean and under every injected fault plan;
* the recovery counters are **exact**: a dropped connection costs one
  ``reconnect`` and one replayed chunk, a garbled frame one
  ``frames_garbled``, a partitioned host one ``host_downgrades`` with
  zero reconnects, a silent host one staleness replay — and a clean
  run records the whole family at zero;
* a host SIGKILLed mid-dispatch loses only its in-flight chunks (the
  survivor absorbs the replays), the janitor reclaims its socket file
  and spool directory, and the follow-up batch still matches serial;
* after ``close()`` and host shutdown nothing leaks: no socket files,
  no spool directories, no ``mirage_shm_*`` segments.

Run from the repo root (optionally under a fault plan):

    MIRAGE_FAULT_PLAN="drop_conn:chunk:1" \
        PYTHONPATH=src python tools/remote_smoke.py
    REMOTE_SMOKE_KILL_HOST=1 PYTHONPATH=src python tools/remote_smoke.py
"""

from __future__ import annotations

import glob
import hashlib
import importlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.circuits.library import ghz, qft
from repro.core import transpile_many
from repro.polytopes import get_coverage_set
from repro.transpiler import RemoteExecutor, line_topology
from repro.transpiler.executors import SHM_SEGMENT_PREFIX
from repro.transpiler.faults import SPOOL_PREFIX, reap_stale_segments

REPO_ROOT = Path(__file__).resolve().parent.parent

COVERAGE_PARAMS = dict(num_samples=250, seed=3)
TOPOLOGY = line_topology(5)
SEED = 7

#: Exact recovery counters per fault plan — the CI matrix.  Every value
#: is asserted with ``==``: recovery that *almost* worked (extra
#: reconnects, consumed retry budget on a partitioned host) fails the
#: job just as loudly as recovery that failed.
EXPECTED = {
    "": {
        "retries": 0, "lost_tasks": 0, "reconnects": 0,
        "host_downgrades": 0, "frames_garbled": 0,
        "executor_downgrades": 0, "deadline_expirations": 0,
    },
    "drop_conn:chunk:1": {
        "retries": 1, "reconnects": 1,
        "host_downgrades": 0, "frames_garbled": 0,
    },
    "garble:frame:2": {
        "retries": 1, "frames_garbled": 1, "host_downgrades": 0,
    },
    "partition:host:0": {
        "retries": 0, "reconnects": 0, "host_downgrades": 1,
    },
    "slow_net:chunk:3": {
        "retries": 1, "reconnects": 1, "host_downgrades": 0,
    },
}


def _slow_scale(shared, task):
    """Deliberately slow chunk body — keeps a dispatch in flight long
    enough for the driver to SIGKILL a host under it."""
    time.sleep(0.25)
    return shared * task


def digest(batch) -> str:
    hasher = hashlib.sha256()
    for result in batch:
        for instruction in result.circuit:
            params = ",".join(f"{p:.12e}" for p in instruction.gate.params)
            hasher.update(
                f"{instruction.gate.name}({params})@{instruction.qubits}\n"
                .encode()
            )
        hasher.update(f"{result.trial_index}\n".encode())
    return hasher.hexdigest()


def run_batch(executor, coverage):
    return transpile_many(
        [qft(4), ghz(5)],
        TOPOLOGY,
        coverage=coverage,
        use_vf2=False,
        layout_trials=2,
        seed=SEED,
        executor=executor,
    )


def spawn_host(socket_path: str) -> subprocess.Popen:
    """Launch a real ``mirage-worker-host`` process and wait for READY."""
    env = dict(os.environ)
    # Faults are injected client-side (shipped per chunk); the hosts run
    # clean.  The tools dir rides along so hosts can unpickle the
    # driver's chunk functions by module name.
    env.pop("MIRAGE_FAULT_PLAN", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT / "tools")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.transpiler.remote.host",
            "--socket", socket_path, "--heartbeat", "0.1",
        ],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    ready = process.stdout.readline()
    assert ready.startswith("MIRAGE-HOST-READY"), ready
    return process


def host_leftovers(pids) -> list[str]:
    tmp = tempfile.gettempdir()
    leftovers: list[str] = []
    for pid in pids:
        leftovers.extend(glob.glob(os.path.join(tmp, f"{SPOOL_PREFIX}{pid}_*")))
    return sorted(leftovers)


def leaked_segments() -> list[str]:
    return sorted(glob.glob(f"/dev/shm/{SHM_SEGMENT_PREFIX}{os.getpid()}_*"))


def drive_fault_plan(plan: str, coverage, host_paths) -> dict:
    """One batch under ``plan``; returns the dispatch counters."""
    os.environ.pop("MIRAGE_FAULT_PLAN", None)
    reference = digest(run_batch(None, coverage))
    if plan:
        os.environ["MIRAGE_FAULT_PLAN"] = plan
    executor = RemoteExecutor(hosts=host_paths)
    try:
        fanned = run_batch(executor, coverage)
    finally:
        executor.close()
        os.environ.pop("MIRAGE_FAULT_PLAN", None)
    assert digest(fanned) == reference, (
        f"fault plan {plan!r}: remote batch diverged from serial"
    )
    dispatch = dict(fanned.dispatch)
    for counter, value in EXPECTED[plan].items():
        assert dispatch[counter] == value, (
            f"fault plan {plan!r}: expected {counter}={value}, got "
            f"{dispatch[counter]} "
            f"({ {k: v for k, v in dispatch.items() if isinstance(v, int) and v} })"
        )
    return dispatch


def drive_host_kill(coverage, tmp_dir: str) -> dict:
    """SIGKILL one real host mid-dispatch; the survivor absorbs replays."""
    os.environ.pop("MIRAGE_FAULT_PLAN", None)
    victim_path = os.path.join(tmp_dir, "victim.sock")
    survivor_path = os.path.join(tmp_dir, "survivor.sock")
    victim = spawn_host(victim_path)
    survivor = spawn_host(survivor_path)
    # The chunk function must be importable by the host processes, so
    # resolve it through the module name rather than ``__main__``.
    slow_scale = importlib.import_module("remote_smoke")._slow_scale
    try:
        executor = RemoteExecutor(
            hosts=[victim_path, survivor_path], max_streams=1
        )
        with executor.open_dispatch(slow_scale) as session:
            slot = session.add_payload(9)
            futures = session.submit(slot, list(range(12)))
            time.sleep(0.3)  # let chunks land on both hosts
            os.kill(victim.pid, signal.SIGKILL)
            results = [
                value for future in futures for value in future.result()
            ]
        assert results == [9 * task for task in range(12)], results
        stats = dict(executor.dispatch_stats)
        assert stats["retries"] >= 1, stats  # killed host's chunks replayed
        assert stats["host_downgrades"] == 1, stats
        assert stats["executor_downgrades"] == 0, stats  # survivor absorbed

        # The follow-up batch runs on the surviving host alone and still
        # matches serial byte for byte.
        reference = digest(run_batch(None, coverage))
        assert digest(run_batch(executor, coverage)) == reference
        executor.close()
    finally:
        victim.wait(timeout=10)
        survivor.send_signal(signal.SIGTERM)
        survivor.wait(timeout=10)

    # The SIGKILL left the victim's pid-keyed spool behind; a janitor
    # pass — the same one every starting host runs — reclaims it because
    # the owning pid is dead.  The socket file sits at a caller-chosen
    # path the janitor cannot know, so the driver removes that corpse.
    reap_stale_segments()
    assert host_leftovers([victim.pid, survivor.pid]) == []
    if os.path.exists(victim_path):
        os.unlink(victim_path)
    assert not os.path.exists(survivor_path), survivor_path  # SIGTERM tidied
    return stats


def main() -> int:
    plan = os.environ.get("MIRAGE_FAULT_PLAN", "")
    kill_host = os.environ.get("REMOTE_SMOKE_KILL_HOST", "") not in ("", "0")
    if not kill_host and plan not in EXPECTED:
        print(f"unknown fault plan {plan!r}; known: "
              f"{sorted(p for p in EXPECTED if p)}", file=sys.stderr)
        return 2
    # Fast recovery: tight heartbeats so staleness detection and the CI
    # job stay in seconds, and a short injected slow-down.
    os.environ.setdefault("MIRAGE_REMOTE_HEARTBEAT_S", "0.1")
    os.environ.setdefault("MIRAGE_REMOTE_CONNECT_S", "2.0")
    os.environ.setdefault("MIRAGE_FAULT_SLOW_SECONDS", "1.0")
    coverage = get_coverage_set("sqrt_iswap", **COVERAGE_PARAMS)

    with tempfile.TemporaryDirectory(prefix="mirage_remote_smoke_") as tmp:
        if kill_host:
            stats = drive_host_kill(coverage, tmp)
            scenario = "kill_host"
        else:
            paths = [os.path.join(tmp, f"host{i}.sock") for i in (0, 1)]
            hosts = [spawn_host(path) for path in paths]
            try:
                stats = drive_fault_plan(plan, coverage, paths)
            finally:
                for host in hosts:
                    host.send_signal(signal.SIGTERM)
                for host in hosts:
                    host.wait(timeout=10)
            for path in paths:
                assert not os.path.exists(path), path
            assert host_leftovers([host.pid for host in hosts]) == []
            scenario = plan or "clean"

    leaks = leaked_segments()
    assert not leaks, f"leaked shared-memory segments: {leaks}"

    print(json.dumps({
        "scenario": scenario,
        "byte_identical": True,
        "chunks": stats.get("chunks", 0),
        "chunks_replayed": stats.get("retries", 0),
        "lost_tasks": stats.get("lost_tasks", 0),
        "reconnects": stats.get("reconnects", 0),
        "host_downgrades": stats.get("host_downgrades", 0),
        "frames_garbled": stats.get("frames_garbled", 0),
        "executor_downgrades": stats.get("executor_downgrades", 0),
        "leaked_segments": leaks,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
