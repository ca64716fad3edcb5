"""Golden digest corpus: 198 fixed-seed ``transpile`` results, pinned.

The corpus is paper Table III on ``heavy_hex_topology(57)`` and
``square_lattice_topology(6)`` at seeds 1, 7 and 9 (180 results), plus
``qft`` on 4 to 12 qubits on ``grid_topology(3, 4)`` (18 results), each
under SABRE (``selection="swaps"``) and MIRAGE (``selection="depth"``)
with 2 layout trials.

Each result is pinned twice in ``golden_digests.json``:

* ``structure`` — gate names, qubits, layouts and reported metrics.  It
  does not depend on floating-point library details and is checked
  everywhere.
* ``full`` — the same fields plus every gate matrix's bytes, so a
  one-ulp drift in a consolidated block is caught.  Matrix bits depend
  on the numpy build: they held under OpenBLAS's Haswell to
  SapphireRapids and Zen kernels and at every numpy SIMD level, but
  moved under the pre-AVX2 Nehalem and Sandybridge kernels.  So this
  check runs only where numpy version, machine and platform equal the
  recorded ones (the ``environment`` entry of the JSON file) and skips
  elsewhere with the mismatch as its reason (``pytest -rs`` prints it).
  The tier-1 CI job installs the recorded numpy on its Python 3.11 leg
  so the check runs there.

A change that moves these digests changes routing or synthesis output
for everyone.  Regenerate the file on purpose with::

    PYTHONPATH=src python tests/test_golden_digests.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.circuits.library import TABLE_III_SUITE, qft
from repro.core import transpile
from repro.polytopes import get_coverage_set
from repro.transpiler import (
    grid_topology,
    heavy_hex_topology,
    square_lattice_topology,
)

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")
METHODS = (("sabre", "swaps"), ("mirage", "depth"))
FIG12_SEEDS = (1, 7, 9)
QFT_WIDTHS = range(4, 13)
QFT_SEED = 7
LAYOUT_TRIALS = 2


def result_digest(result, matrices: bool) -> str:
    """Digest of a routed circuit, its layouts and its reported metrics.

    The same fields as ``perfbench.checks.result_digest``, kept here so
    the pins do not move when the benchmark changes.
    """
    hasher = hashlib.sha256()
    for instruction in result.circuit:
        gate = instruction.gate
        hasher.update(gate.name.encode())
        hasher.update(repr(instruction.qubits).encode())
        if matrices and not gate.is_directive:
            hasher.update(np.ascontiguousarray(gate.matrix()).tobytes())
    hasher.update(repr(result.initial_layout.virtual_to_physical()).encode())
    hasher.update(repr(result.final_layout.virtual_to_physical()).encode())
    metrics = result.metrics
    hasher.update(
        repr(
            (result.method, result.swaps_added, result.mirrors_accepted,
             result.mirror_candidates, metrics.depth, metrics.total_cost,
             metrics.swap_count)
        ).encode()
    )
    return hasher.hexdigest()


def environment() -> dict:
    """What the matrix bits depend on, as far as it can be named."""
    return {"numpy": np.__version__, "machine": platform.machine(),
            "platform": sys.platform}


def corpus_jobs():
    """``(key, circuit, coupling, seed, method, selection)`` in corpus order."""
    topologies = (("heavy_hex_57", heavy_hex_topology(57)),
                  ("square_6x6", square_lattice_topology(6)))
    for seed in FIG12_SEEDS:
        for spec in TABLE_III_SUITE:
            for topology, coupling in topologies:
                for method, selection in METHODS:
                    yield (f"fig12/{spec.name}/{topology}/s{seed}/{method}",
                           spec.build(), coupling, seed, method, selection)
    grid = grid_topology(3, 4)
    for width in QFT_WIDTHS:
        for method, selection in METHODS:
            yield (f"qft/{width}/grid_3x4/s{QFT_SEED}/{method}",
                   qft(width), grid, QFT_SEED, method, selection)


@functools.lru_cache(maxsize=1)
def corpus_digests() -> dict[str, dict[str, str]]:
    coverage = get_coverage_set("sqrt_iswap")
    digests = {}
    for key, circuit, coupling, seed, method, selection in corpus_jobs():
        result = transpile(circuit, coupling, basis="sqrt_iswap",
                           method=method, selection=selection,
                           layout_trials=LAYOUT_TRIALS, coverage=coverage,
                           seed=seed)
        digests[key] = {"structure": result_digest(result, matrices=False),
                        "full": result_digest(result, matrices=True)}
    return digests


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_corpus_has_198_results():
    golden = load_golden()["results"]
    assert len(golden) == 198
    assert list(golden) == [job[0] for job in corpus_jobs()]


def test_structure_digests_match_golden():
    golden = load_golden()["results"]
    drifted = [key for key, digests in corpus_digests().items()
               if digests["structure"] != golden[key]["structure"]]
    assert not drifted, f"{len(drifted)} results changed: {drifted[:5]}"


def test_full_digests_match_golden():
    recorded = load_golden()
    if recorded["environment"] != environment():
        pytest.skip(f"matrix pins recorded on {recorded['environment']}, "
                    f"not on {environment()}")
    golden = recorded["results"]
    drifted = [key for key, digests in corpus_digests().items()
               if digests["full"] != golden[key]["full"]]
    assert not drifted, f"{len(drifted)} results changed: {drifted[:5]}"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {"environment": environment(), "results": corpus_digests()},
        indent=1) + "\n")
    print(f"wrote {len(corpus_digests())} digests to {GOLDEN_PATH}")
