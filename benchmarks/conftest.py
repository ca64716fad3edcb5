"""Shared fixtures for the reproduction benchmarks.

Coverage sets and Haar samples are expensive to build, so they are created
once per session and shared across all benchmark modules.  Sample counts and
trial budgets are deliberately smaller than the paper's (which used hours of
compute).  The settings live in the constants below and in each bench
module's own arguments (``layout_trials``, ``seed``, circuit subsets); raise
them there to scale up.  No results file exists yet: ``EXPERIMENTS.md`` is
to be written by a full-budget Table III scorecard script, which does not
exist yet either.
"""

from __future__ import annotations

import pytest

from repro.polytopes import build_coverage_set
from repro.weyl.haar import cached_haar_samples

#: Monte-Carlo sample count shared by the coverage / Haar-score benches.
HAAR_SAMPLES = 2500
#: Ansatz samples per coverage polytope (paper uses exact monodromy instead).
COVERAGE_SAMPLES = 700
#: Routing budget (the paper uses 20 layout trials x 20 routing trials).
LAYOUT_TRIALS = 2


@pytest.fixture(scope="session")
def haar_samples():
    return cached_haar_samples(HAAR_SAMPLES, 2024)


@pytest.fixture(scope="session")
def small_haar_samples():
    return cached_haar_samples(400, 2024)


def _coverage(basis: str, mirror: bool, anchor: bool = True):
    return build_coverage_set(
        basis,
        num_samples=COVERAGE_SAMPLES,
        seed=7,
        mirror=mirror,
        anchor=anchor,
    )


@pytest.fixture(scope="session")
def coverage_sets():
    """Exact and mirror-inclusive coverage sets for the iSWAP family."""
    sets = {}
    for basis in ("sqrt_iswap", "iswap_1_3", "iswap_1_4"):
        anchor = basis == "sqrt_iswap"
        sets[(basis, False)] = _coverage(basis, mirror=False, anchor=anchor)
        sets[(basis, True)] = _coverage(basis, mirror=True, anchor=anchor)
    return sets


@pytest.fixture(scope="session")
def sqrt_iswap_coverage(coverage_sets):
    return coverage_sets[("sqrt_iswap", False)]


@pytest.fixture(scope="session")
def sqrt_iswap_mirror_coverage(coverage_sets):
    return coverage_sets[("sqrt_iswap", True)]


@pytest.fixture(scope="session")
def cnot_coverage():
    return _coverage("cx", mirror=False, anchor=False)


@pytest.fixture(scope="session")
def cnot_mirror_coverage():
    return _coverage("cx", mirror=True, anchor=False)
