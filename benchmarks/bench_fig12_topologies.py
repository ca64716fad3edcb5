"""Fig. 12 — MIRAGE vs Qiskit-SABRE on heavy-hex and square-lattice machines.

Paper averages: heavy-hex depth -31.2%, gate cost -17.0%, SWAPs -56.2%;
square lattice depth -29.6%, gate cost -10.3%, SWAPs -59.9%.

The bench routes a four-circuit subset of Table III per topology with a
reduced trial budget (``SUBSET`` and ``layout_trials=2`` below, coverage
from ``conftest.py``).  No full-suite numbers are recorded in the repository
yet: ``EXPERIMENTS.md`` is to be written by a full-budget Table III
scorecard script, which does not exist yet either.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.library import benchmark_circuit
from repro.core import compare_methods
from repro.transpiler import heavy_hex_topology, square_lattice_topology

SUBSET = ["seca", "qec9xz", "bigadder", "sat"]
TOPOLOGIES = {
    "heavy-hex-57": heavy_hex_topology(57),
    "square-6x6": square_lattice_topology(6),
}
PAPER_DEPTH_REDUCTION = {"heavy-hex-57": 0.312, "square-6x6": 0.296}


@pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
def test_fig12_topology_comparison(benchmark, topology_name, sqrt_iswap_coverage):
    topology = TOPOLOGIES[topology_name]
    circuits = [benchmark_circuit(name) for name in SUBSET]

    def run():
        rows = {}
        for circuit in circuits:
            rows[circuit.name] = compare_methods(
                circuit, topology, layout_trials=2, seed=11, selections=("depth",)
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    depth_gains, cost_gains, swap_gains = [], [], []
    print(f"\n[fig12] {topology_name}: circuit, sabre/mirage depth, gates, swaps")
    for name, results in rows.items():
        sabre = results["sabre"]
        mirage = results["mirage-depth"]
        print(
            f"  {name:<16} depth {sabre.metrics.depth:7.1f} -> {mirage.metrics.depth:7.1f}   "
            f"cost {sabre.metrics.total_cost:7.1f} -> {mirage.metrics.total_cost:7.1f}   "
            f"swaps {sabre.swaps_added:3d} -> {mirage.swaps_added:3d} "
            f"(mirror rate {mirage.mirror_acceptance_rate:.2f})"
        )
        depth_gains.append(
            (sabre.metrics.depth - mirage.metrics.depth) / sabre.metrics.depth
        )
        cost_gains.append(
            (sabre.metrics.total_cost - mirage.metrics.total_cost)
            / sabre.metrics.total_cost
        )
        if sabre.swaps_added:
            swap_gains.append(
                (sabre.swaps_added - mirage.swaps_added) / sabre.swaps_added
            )
    print(
        f"  mean: depth -{np.mean(depth_gains):.1%} "
        f"(paper -{PAPER_DEPTH_REDUCTION[topology_name]:.1%}), "
        f"gate cost -{np.mean(cost_gains):.1%}, swaps -{np.mean(swap_gains):.1%}"
    )
    # Shape check: MIRAGE reduces depth and removes a large fraction of SWAPs.
    assert np.mean(depth_gains) > 0.05
    assert np.mean(swap_gains) > 0.25
