"""Quickstart: transpile a QFT circuit with MIRAGE vs. the SABRE baseline.

Covers the entry points of the staged Section V flow (clean → unroll →
consolidate → VF2 → multi-trial routing → post-selection, run as the two
functions ``repro.core.run_plan`` and ``repro.core.finish_plan``):

* :func:`repro.core.compare_methods` — SABRE vs. MIRAGE on one circuit;
* the per-stage timing report every :class:`TranspileResult` carries;
* :func:`repro.core.transpile_many` — batch transpilation sharing one
  coverage set and one (optionally parallel) trial executor;
* the batched coverage queries (``cost_of_many`` / ``mirror_cost_of_many``
  / ``depth_of_many``) behind every cost estimate, and the persistent
  coverage cache that makes warm starts near-instant.

Coverage sets built through :func:`repro.polytopes.get_coverage_set` (what
``transpile`` uses) are persisted under ``$MIRAGE_CACHE_DIR`` (default
``~/.cache/mirage``), so every process after the first skips the dominant
cold-start cost.  Set ``MIRAGE_CACHE_DISABLE=1`` to opt out.

Run with ``python examples/quickstart.py``.
"""

import numpy as np

from repro.circuits.library import ghz, qft, twolocal_full
from repro.core import compare_methods, transpile_many
from repro.polytopes import get_coverage_set
from repro.transpiler import square_lattice_topology
from repro.weyl.haar import cached_haar_samples


def main() -> None:
    circuit = qft(8)
    lattice = square_lattice_topology(3)  # 3x3 square lattice, 9 qubits
    print(f"input: {circuit.name}, {circuit.num_qubits} qubits, "
          f"{circuit.num_two_qubit_gates()} two-qubit gates")

    results = compare_methods(circuit, lattice, layout_trials=3, seed=7)
    print(f"{'method':<14} {'depth':>8} {'2Q cost':>8} {'swaps':>6} {'mirrors':>8}")
    for name, result in results.items():
        metrics = result.metrics
        print(
            f"{name:<14} {metrics.depth:>8.2f} {metrics.total_cost:>8.2f} "
            f"{result.swaps_added:>6} {result.mirrors_accepted:>8}"
        )

    baseline = results["sabre"].metrics.depth
    best = results["mirage-depth"].metrics.depth
    print(f"\nMIRAGE depth reduction vs SABRE: {(baseline - best) / baseline:.1%}")

    # Every result carries the per-stage timing report of the pipeline
    # that produced it (clean/unroll/consolidate/vf2/route/select).
    print("\npipeline stages (mirage-depth):")
    for name, seconds in results["mirage-depth"].stage_seconds().items():
        print(f"  {name:<12} {seconds:8.4f} s")

    # Batch API: one coverage set and one trial executor shared across the
    # whole batch.  executor="processes" fans the routing trials of each
    # circuit out over a process pool; fixed seeds keep the output
    # identical to a serial run.
    batch = transpile_many(
        [qft(6), ghz(7), twolocal_full(6)],
        lattice,
        layout_trials=3,
        seed=7,
        executor="processes",
        max_workers=2,
    )
    print(f"\nbatch of {len(batch)} circuits via {batch.executor!r} "
          f"in {batch.runtime_seconds:.2f} s")
    for row in batch.summaries():
        print(f"  {row['method']:<8} depth={row['depth']:<8} "
              f"swaps={row['swaps']:<3} mirrors={row['mirrors']}")

    # Batched coverage queries: every per-gate hot path is array-shaped.
    # cost_of_many answers a whole coordinate batch with stacked half-space
    # matrix products (element-wise identical to cost_of in a loop).
    coverage = get_coverage_set("sqrt_iswap", mirror=True)
    samples = cached_haar_samples(1000, 2024)
    costs = coverage.cost_of_many(samples)
    mirror_costs = coverage.mirror_cost_of_many(samples)
    print(f"\nbatched coverage queries over {len(samples)} Haar samples:")
    print(f"  mean cost        {costs.mean():.3f}")
    print(f"  mean mirror cost {mirror_costs.mean():.3f}")
    print(f"  mirror cheaper for {np.mean(mirror_costs < costs):.1%} of classes")


if __name__ == "__main__":
    main()
