"""Benchmark entry point: one workload, one seed, fresh processes.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig12_serial --seed 1 --trace 0

The workload runs in a fresh child process.  Before and after it, a probe
process forks children that only set up (import the library, resolve the
coverage set from an empty cache, prewarm executors, start the service)
and serve one probe request.  ``setup_s`` is the fastest of the probes
and the measured run's own set-up: on a shared machine whose speed
switches between phases lasting seconds to minutes, the median of a run
flips with whichever phase held most of it, while a slower set-up makes
every sample slower, the fastest too.  Every process gets its own empty
``$MIRAGE_CACHE_DIR`` and temp directory under ``.bench_run/``.

Throughput and latency are scaled to a reference machine by the speed
the measured run's own probes read between units of work (see
``workloads.machine_scale``); the unscaled values are in the provenance.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it holds the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 12
#: Set-up probes before and after the measured run (which is one more).
SETUP_PROBES = 3
#: Wall-clock limit of a whole run, probes included.
RUN_LIMIT_S = 170


def source_digest(root: str) -> str:
    """SHA-256 over the library's source files, for checkouts without git."""
    hasher = hashlib.sha256()
    base = os.path.join(root, "src", "repro")
    for directory, dirs, files in sorted(os.walk(base)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                hasher.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
    return hasher.hexdigest()


def git_sha(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def child_env(root: str, rundir: str) -> dict[str, str]:
    """A clean environment: no inherited MIRAGE_* knobs, private dirs."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("MIRAGE_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    env["MIRAGE_CACHE_DIR"] = os.path.join(rundir, "cache")
    env["TMPDIR"] = os.path.join(rundir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def run_child(root: str, rundir: str, args, mode: str,
              deadline: float) -> dict:
    """Run one fresh child process; kill its whole process group on overrun."""
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--mode", mode, "--count", str(SETUP_PROBES),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--rundir", rundir]
    child = subprocess.Popen(command, cwd=root, env=child_env(root, rundir),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        stdout, stderr = child.communicate(
            timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        # The group holds the child's pool workers and worker hosts too.
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise SystemExit(f"{mode} process for {args.workload} overran the "
                         f"{RUN_LIMIT_S} s limit")
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(stderr[-4000:])
        raise SystemExit(f"{mode} process for {args.workload} failed "
                         f"with code {child.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    root = os.getcwd()
    # BENCHMARK.json names the workloads and the metrics with their units.
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        sys.stderr.write("run from the root of a checkout: src/repro is "
                         "missing here\n")
        return 2

    base = os.path.join(root, ".bench_run")
    rundir = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    sha = git_sha(root)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
        "source_sha256": None if sha else source_digest(root),
        "python": platform.python_version(),
    }

    def probes(name: str) -> list[float]:
        if args.trace:
            return []
        return run_child(root, os.path.join(rundir, name), args, "probes",
                         deadline)["setup_samples_s"]

    try:
        before = probes("before")
        result = run_child(root, os.path.join(rundir, "run"), args, "run",
                           deadline)
        after = probes("after")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    setups = before + [result["setup_s"]] + after

    provenance.update({
        "setup_samples_s": setups,
        "latency_samples": result["latency_samples"],
        "passes": result["passes"],
        "machine": result["machine"],
        "raw": {key: result[key] for key in
                ("throughput_cps", "latency_p50_s", "latency_p90_s")},
        "quality_pairs": result["quality"]["pairs"],
        "recoveries": result["recoveries"],
        "errors": result["errors"],
        "layers": result["layers"],
        **result["versions"],
    })
    if args.trace:
        provenance["trace_files"] = result["trace_files"]
        metrics = spec["per_layer"]
        # A layer a workload does not exercise reads zero.
        values = {m["name"]: result["layers"].get(m["name"], 0.0)
                  for m in metrics}
    else:
        metrics = spec["end_to_end"]
        # Throughput and latency as the reference machine would read them.
        scale = result["machine"]["scale"]
        values = {
            "setup_s": min(setups),
            "throughput_cps": result["throughput_cps"] * scale,
            "latency_p50_s": result["latency_p50_s"] / scale,
            "latency_p90_s": result["latency_p90_s"] / scale,
            "peak_rss_mb": result["peak_rss_mb"],
            "depth_ratio": result["quality"]["depth_ratio"],
            "cost_ratio": result["quality"]["cost_ratio"],
            "swap_ratio": result["quality"]["swap_ratio"],
        }
    clean = all(value == 0 for value in result["recoveries"].values())
    summary = {
        "correct": result["failed"] == 0 and clean and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
