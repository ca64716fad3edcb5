"""Hot-path micro-benchmarks: batched vs scalar, emitting BENCH_hotpaths.json.

Measures the four paths the vectorized overhaul touched, each against a
faithful reimplementation of the pre-overhaul scalar code, and asserts the
outputs are element-wise / byte-for-byte identical while timing both:

* ``coverage_cost``   — ``CoverageSet.cost_of`` loop vs ``cost_of_many``.
* ``weyl``            — per-candidate Python loop vs ``weyl_coordinates_many``.
* ``swap_choice``     — the object path's copy-layout-and-rescore SWAP
                        selection vs the flat kernel's Python and compiled
                        scorers, each timed inside the same QFT routing.
* ``coverage_cache``  — cold coverage build vs warm load from the persistent
                        disk cache (isolated in a temporary ``MIRAGE_CACHE_DIR``).

Run ``python benchmarks/bench_hotpaths.py --smoke`` for the CI-sized run or
without flags for the full sizes; the machine-readable result lands in
``BENCH_hotpaths.json`` (override with ``--out``).  The JSON also records
fixed-seed transpile digests so perf trajectories across PRs can confirm
behaviour never drifted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

from repro.circuits.library import benchmark_circuit, twolocal_full
from repro.core.transpile import transpile
from repro.linalg.constants import MAGIC, MAGIC_DAG
from repro.linalg.random import haar_unitary
from repro.polytopes.coverage import build_coverage_set, load_or_build_coverage_set
from repro.transpiler.kernel import route
from repro.transpiler.kernel.native import load_routec
from repro.transpiler.layout import Layout
from repro.transpiler.passes.sabre_swap import SabreSwap
from repro.transpiler.topologies import topology_by_name
from repro.weyl.canonical import canonicalize_coordinate
from repro.weyl.coordinates import weyl_coordinates_many
from repro.weyl.haar import cached_haar_samples
from repro.weyl.invariants import (
    invariants_close,
    makhlin_from_coordinate,
    makhlin_invariants,
)


def circuit_digest(circuit) -> str:
    """Stable digest of a circuit's gate stream (names, params, qubits)."""
    lines = []
    for instruction in circuit:
        gate = instruction.gate
        params = ",".join(f"{p:.12e}" for p in gate.params)
        lines.append(f"{gate.name}({params})@{instruction.qubits}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# -- pre-overhaul reference implementations ---------------------------------


def _reference_weyl(unitary: np.ndarray, atol: float = 1e-6):
    """The historical per-candidate Python loop for Weyl extraction."""
    import itertools

    det = np.linalg.det(unitary)
    su = unitary / det**0.25
    um = MAGIC_DAG @ su @ MAGIC
    gamma = um.T @ um
    eigenvalues = np.linalg.eigvals(gamma)
    eigenvalues = eigenvalues / np.abs(eigenvalues)
    thetas = np.angle(eigenvalues) / 2.0
    target = makhlin_invariants(unitary)

    def candidates():
        for selection in itertools.permutations(range(4), 3):
            t1, t2, t3 = (thetas[i] for i in selection)
            yield ((t1 + t2) / 2.0, (t2 + t3) / 2.0, (t1 + t3) / 2.0)
        for selection in itertools.permutations(range(4), 3):
            base = [thetas[i] for i in selection]
            for shift_index in range(3):
                shifted = list(base)
                shifted[shift_index] += math.pi
                t1, t2, t3 = shifted
                yield ((t1 + t2) / 2.0, (t2 + t3) / 2.0, (t1 + t3) / 2.0)

    best = None
    for raw in candidates():
        candidate = canonicalize_coordinate(raw)
        cand_inv = makhlin_from_coordinate(candidate)
        if invariants_close(cand_inv, target, atol=atol):
            return candidate
        error = float(np.linalg.norm(np.subtract(cand_inv, target)))
        if best is None or error < best[0]:
            best = (error, candidate)
    return best[1]


class _FullRescoreSwap(SabreSwap):
    """Router with the historical copy-layout-and-rescore SWAP selection."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.choose_seconds = 0.0

    def _choose_swap(self, front, layout, dag, rng):
        start = time.perf_counter()
        candidates = self._swap_candidates(front, layout)
        if not candidates:
            raise RuntimeError("no SWAP candidates")
        extended = self._extended_set(front, dag)
        best_score = np.inf
        best_edges = []
        for edge in candidates:
            trial = layout.copy()
            trial.swap_physical(*edge)
            score = self.routing_heuristic(front, extended, trial)
            score *= max(self._decay[edge[0]], self._decay[edge[1]])
            if score < best_score - 1e-12:
                best_score = score
                best_edges = [edge]
            elif abs(score - best_score) <= 1e-12:
                best_edges.append(edge)
        choice = best_edges[int(rng.integers(len(best_edges)))]
        self.choose_seconds += time.perf_counter() - start
        return choice


# -- benchmark sections ------------------------------------------------------


def bench_coverage_cost(num_coordinates: int, coverage_samples: int) -> dict:
    coverage = build_coverage_set(
        "sqrt_iswap", num_samples=coverage_samples, seed=7, mirror=True
    )
    samples = cached_haar_samples(num_coordinates, 2024)

    coverage.clear_cache()
    start = time.perf_counter()
    scalar = np.array([coverage.cost_of(row) for row in samples])
    scalar_seconds = time.perf_counter() - start

    coverage.clear_cache()
    start = time.perf_counter()
    batched = coverage.cost_of_many(samples)
    batched_seconds = time.perf_counter() - start

    start = time.perf_counter()
    warm = coverage.cost_of_many(samples)
    warm_seconds = time.perf_counter() - start

    return {
        "num_coordinates": num_coordinates,
        "scalar_s": scalar_seconds,
        "batched_s": batched_seconds,
        "warm_cache_s": warm_seconds,
        "speedup": scalar_seconds / batched_seconds,
        "equal": bool(np.array_equal(scalar, batched) and np.array_equal(warm, batched)),
    }


def bench_weyl(num_unitaries: int) -> dict:
    rng = np.random.default_rng(5)
    unitaries = np.stack([haar_unitary(4, rng) for _ in range(num_unitaries)])

    start = time.perf_counter()
    scalar = np.array([_reference_weyl(u) for u in unitaries])
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched = weyl_coordinates_many(unitaries)
    batched_seconds = time.perf_counter() - start

    return {
        "num_unitaries": num_unitaries,
        "scalar_s": scalar_seconds,
        "batched_s": batched_seconds,
        "speedup": scalar_seconds / batched_seconds,
        "equal": bool(np.array_equal(scalar, batched)),
    }


def _route_flat(coupling, dag, layout, scorer_module) -> tuple[object, float, float]:
    """Route on the flat kernel with one scorer; (result, route s, choose s)."""
    choose_seconds = 0.0
    choose = route._choose_swap

    def timed_choose(*args):
        nonlocal choose_seconds
        start = time.perf_counter()
        edge = choose(*args)
        choose_seconds += time.perf_counter() - start
        return edge

    with mock.patch.object(route, "load_routec", lambda: scorer_module), \
            mock.patch.object(route, "_choose_swap", timed_choose), \
            mock.patch.dict(os.environ, {"MIRAGE_ROUTE_KERNEL": "flat"}):
        start = time.perf_counter()
        result = SabreSwap(coupling, seed=3).run(dag, layout.copy(), seed=3)
        route_seconds = time.perf_counter() - start
    return result, route_seconds, choose_seconds


def _ratio(numerator: float, denominator: float) -> float | None:
    return numerator / denominator if denominator > 0 else None


def bench_swap_choice(width: int) -> dict:
    """The three SWAP scorers on one QFT routing: the object path's full
    rescore, the flat kernel's Python scorer and its compiled scorer."""
    coupling = topology_by_name("square", width)
    circuit = benchmark_circuit("qft", width)
    dag = circuit.to_dag()
    layout = Layout.trivial(width, coupling.num_qubits)

    full = _FullRescoreSwap(coupling, seed=3)
    with mock.patch.dict(os.environ, {"MIRAGE_ROUTE_KERNEL": "object"}):
        start = time.perf_counter()
        full_result = full.run(dag, layout.copy(), seed=3)
        full_seconds = time.perf_counter() - start
    results = {"full": (full_result, full_seconds, full.choose_seconds)}
    results["python"] = _route_flat(coupling, dag, layout, None)
    compiled = load_routec()
    if compiled is not None:
        results["native"] = _route_flat(coupling, dag, layout, compiled)

    digests = {
        name: (result.swaps_added, circuit_digest(result.dag.to_circuit()))
        for name, (result, _, _) in results.items()
    }
    report = {
        "width": width,
        "swaps": results["python"][0].swaps_added,
        "native_available": compiled is not None,
    }
    for name, (_, route_seconds, choose_seconds) in results.items():
        report[f"{name}_route_s"] = route_seconds
        report[f"{name}_choose_s"] = choose_seconds
    fastest = "native" if compiled is not None else "python"
    report["choose_speedup"] = _ratio(
        full.choose_seconds, results[fastest][2]
    )
    report["native_over_python_choose"] = (
        _ratio(results["python"][2], results["native"][2])
        if compiled is not None
        else None
    )
    report["equal"] = len(set(digests.values())) == 1
    return report


def bench_coverage_cache(coverage_samples: int) -> dict:
    samples = cached_haar_samples(500, 2024)
    with tempfile.TemporaryDirectory() as tmp:
        previous = os.environ.get("MIRAGE_CACHE_DIR")
        disable = os.environ.pop("MIRAGE_CACHE_DISABLE", None)
        os.environ["MIRAGE_CACHE_DIR"] = tmp
        try:
            start = time.perf_counter()
            cold = load_or_build_coverage_set(
                "sqrt_iswap", num_samples=coverage_samples, seed=7, mirror=True
            )
            cold_seconds = time.perf_counter() - start

            start = time.perf_counter()
            warm = load_or_build_coverage_set(
                "sqrt_iswap", num_samples=coverage_samples, seed=7, mirror=True
            )
            warm_seconds = time.perf_counter() - start
        finally:
            if previous is None:
                os.environ.pop("MIRAGE_CACHE_DIR", None)
            else:
                os.environ["MIRAGE_CACHE_DIR"] = previous
            if disable is not None:
                os.environ["MIRAGE_CACHE_DISABLE"] = disable
    return {
        "coverage_samples": coverage_samples,
        "cold_s": cold_seconds,
        "warm_s": warm_seconds,
        "speedup": cold_seconds / warm_seconds,
        "equal": bool(
            np.array_equal(cold.cost_of_many(samples), warm.cost_of_many(samples))
        ),
    }


def bench_transpile_digests() -> dict:
    digests = {}
    for method in ("sabre", "mirage"):
        result = transpile(
            twolocal_full(6, reps=1),
            coupling="line",
            basis="sqrt_iswap",
            method=method,
            layout_trials=2,
            refinement_rounds=1,
            seed=11,
        )
        digests[method] = {
            "digest": circuit_digest(result.circuit),
            "swaps": result.swaps_added,
            "mirrors": result.mirrors_accepted,
            "depth": result.metrics.depth,
        }
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run (smaller coverage sets, fewer samples)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_hotpaths.json"),
        help="output JSON path (default: ./BENCH_hotpaths.json)",
    )
    args = parser.parse_args()

    if args.smoke:
        coverage_samples, num_coordinates, num_unitaries, width = 400, 1000, 150, 25
    else:
        coverage_samples, num_coordinates, num_unitaries, width = 1200, 2000, 500, 36

    report = {
        "config": {
            "smoke": args.smoke,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "coverage_cost": bench_coverage_cost(num_coordinates, coverage_samples),
        "weyl": bench_weyl(num_unitaries),
        "swap_choice": bench_swap_choice(width),
        "coverage_cache": bench_coverage_cache(coverage_samples),
        "transpile_digests": bench_transpile_digests(),
    }

    args.out.write_text(json.dumps(report, indent=2) + "\n")

    print(f"[hotpaths] {'smoke' if args.smoke else 'full'} -> {args.out}")
    for section in ("coverage_cost", "weyl", "swap_choice", "coverage_cache"):
        entry = report[section]
        speedup = entry.get("choose_speedup", entry.get("speedup"))
        shown = "   n/a" if speedup is None else f"{speedup:6.1f}"
        print(f"  {section:<14} speedup {shown}x  equal={entry['equal']}")

    failures = [
        section
        for section in ("coverage_cost", "weyl", "swap_choice", "coverage_cache")
        if not report[section]["equal"]
    ]
    if failures:
        print(f"EQUIVALENCE FAILURES: {failures}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
