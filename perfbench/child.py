"""One benchmark process: a series of set-up probes or a measured run.

Run from the root of a checkout (``run.py`` does this)::

    python3 perfbench/child.py --workload fig12_serial --seed 1 \
        --mode run --seconds 20 --trace 0 --rundir .bench_run/x

With ``--mode probes --count N`` the process forks N children one after
another; each imports the library afresh, sets the workload up from an
empty ``$MIRAGE_CACHE_DIR``, serves one probe request and tears down.

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# Third-party modules the library imports; loaded before the set-up clock
# starts (and before probes fork) because they are not the library's own
# start-up cost.
import networkx  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402
import scipy.optimize  # noqa: E402,F401
import scipy.spatial  # noqa: E402,F401

from perfbench.trace import Tracer  # noqa: E402
from perfbench.workloads import (WORKLOADS, EchoProbe,  # noqa: E402
                                 machine_scale, stop_hosts)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (workers, hosts)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@contextlib.contextmanager
def started(workload):
    """Launch and set ``workload`` up; yield the set-up seconds; tear down."""
    try:
        workload.launch()
        start = time.perf_counter()
        workload.setup()
        yield time.perf_counter() - start
    finally:
        try:
            if hasattr(workload, "executor"):
                workload.teardown()
        finally:
            stop_hosts(getattr(workload, "hosts", []))


def probe(args, index: int) -> float:
    """Set-up seconds of one forked child with a fresh ``repro`` import."""
    rundir = os.path.join(args.rundir, f"probe{index}")
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            os.makedirs(rundir, exist_ok=True)
            os.environ["MIRAGE_CACHE_DIR"] = os.path.join(rundir, "cache")
            with started(WORKLOADS[args.workload](args.seed, None,
                                                  rundir)) as seconds:
                pass
            with os.fdopen(write_fd, "w") as pipe:
                pipe.write(json.dumps(seconds))
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not data:
        raise SystemExit(f"set-up probe {index} of {args.workload} failed")
    return json.loads(data)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probes", "run"), required=True)
    parser.add_argument("--count", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rundir", required=True)
    args = parser.parse_args()

    if args.mode == "probes":
        return _emit({"setup_samples_s": [probe(args, index)
                                          for index in range(args.count)]})

    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, tracer, args.rundir)
    out: dict = {}
    workload.probe = EchoProbe()
    try:
        with started(workload) as out["setup_s"]:
            workload.make_inputs()
            workload.run(args.seconds)
    finally:
        workload.probe.close()
    out["peak_rss_mb"] = peak_rss_mb()

    failed = workload.check()
    layers = workload.layers()
    recoveries = {
        "dispatch.recoveries": layers["dispatch.recoveries"],
        "remote.recoveries": layers.get("remote.recoveries", 0),
        "dispatch.deadline_expirations": layers.get(
            "service.deadline_expirations", 0),
    }
    quality = workload.quality()
    p50, p90, samples = workload.latency()
    out.update({
        "attempted": workload.attempted,
        "failed": failed,
        "recoveries": recoveries,
        "errors": workload.errors[:10],
        "throughput_cps": workload.throughput(),
        "latency_p50_s": p50,
        "latency_p90_s": p90,
        "latency_samples": samples,
        "passes": len(workload.pass_seconds) or None,
        "machine": {
            "round_trip_s": statistics.median(workload.round_trip_samples),
            "calibration_loop_s": statistics.median(workload.loop_samples),
            "samples": len(workload.loop_samples),
            "scale": machine_scale(workload.round_trip_samples,
                                   workload.loop_samples)},
        "quality": quality,
        "layers": layers,
        "versions": {module.__name__: module.__version__
                     for module in (numpy, scipy, networkx)},
    })
    if tracer is not None:
        out["layers"].update(workload.trace_layers())
        prefix = os.path.join(".bench_run", "trace",
                              f"{args.workload}-seed{args.seed}")
        tracer.write(prefix)
        out["trace_files"] = [prefix + ".trace.json", prefix + ".layers.json"]
    return _emit(out)


def _emit(out: dict) -> int:
    print(json.dumps(out, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
