"""Equivalence tests for the vectorized hot paths.

Every batched API must match its scalar counterpart element-wise (bitwise,
in fact — the vectorized code replicates the scalar IEEE operations), the
delta-scored SWAP selection must choose the same edges as a full rescore,
and a disk-cached coverage set must answer queries identically to a fresh
build.
"""

from __future__ import annotations

import itertools
import math
import pickle

import numpy as np
import pytest

from repro.circuits.circuit import OpList
from repro.circuits.library import benchmark_circuit, twolocal_full
from repro.linalg.constants import MAGIC, MAGIC_DAG
from repro.linalg.random import haar_unitary
from repro.polytopes.cache import CoordinateCache
from repro.polytopes.coverage import (
    build_coverage_set,
    load_or_build_coverage_set,
)
from repro.transpiler.kernel import IntDAG, route
from repro.transpiler.kernel.native import load_routec
from repro.transpiler.layout import Layout
from repro.transpiler.passes.consolidate import consolidate_blocks
from repro.transpiler.passes.sabre_swap import route as route_circuit
from repro.transpiler.topologies import topology_by_name
from repro.weyl.canonical import (
    PI4,
    canonicalize_coordinate,
    canonicalize_coordinates_many,
)
from repro.weyl.coordinates import weyl_coordinates, weyl_coordinates_many
from repro.weyl.haar import cached_haar_samples
from repro.weyl.invariants import (
    invariants_close,
    makhlin_from_coordinate,
    makhlin_invariants,
)
from repro.weyl.mirror import mirror_coordinate, mirror_coordinates_many


@pytest.fixture(scope="module")
def coverage():
    return build_coverage_set(
        "sqrt_iswap", num_samples=250, seed=7, mirror=True, anchor=False
    )


@pytest.fixture(scope="module")
def haar_points():
    return cached_haar_samples(300, 2024)


LANDMARKS = np.array(
    [
        [0.0, 0.0, 0.0],
        [PI4, 0.0, 0.0],
        [PI4, PI4, 0.0],
        [PI4, PI4, PI4],
        [PI4 / 2, PI4 / 2, 0.0],
        [PI4, PI4 / 2, 0.0],
    ]
)


# -- weyl machinery ----------------------------------------------------------


def test_canonicalize_many_matches_scalar():
    rng = np.random.default_rng(11)
    raw = rng.normal(scale=3.0, size=(2000, 3))
    scalar = np.array([canonicalize_coordinate(row) for row in raw])
    batched = canonicalize_coordinates_many(raw)
    assert np.array_equal(scalar, batched)


def test_canonicalize_many_handles_boundaries():
    boundary = np.vstack([LANDMARKS, -LANDMARKS, LANDMARKS + np.pi / 2])
    scalar = np.array([canonicalize_coordinate(row) for row in boundary])
    batched = canonicalize_coordinates_many(boundary)
    assert np.array_equal(scalar, batched)


def test_mirror_many_matches_scalar(haar_points):
    scalar = np.array([mirror_coordinate(row) for row in haar_points])
    batched = mirror_coordinates_many(haar_points)
    assert np.array_equal(scalar, batched)
    assert np.array_equal(
        mirror_coordinates_many(LANDMARKS),
        np.array([mirror_coordinate(row) for row in LANDMARKS]),
    )


def test_weyl_many_matches_scalar():
    rng = np.random.default_rng(23)
    unitaries = np.stack([haar_unitary(4, rng) for _ in range(60)])
    scalar = np.array([weyl_coordinates(u) for u in unitaries])
    batched = weyl_coordinates_many(unitaries)
    assert np.array_equal(scalar, batched)


def test_weyl_many_degenerate_spectra():
    from repro.weyl.canonical import canonical_gate

    specials = np.stack(
        [
            np.eye(4, dtype=complex),
            canonical_gate(PI4, 0.0, 0.0),
            canonical_gate(PI4, PI4, 0.0),
            canonical_gate(PI4, PI4, PI4),
            canonical_gate(PI4 / 2, PI4 / 2, PI4 / 2),
        ]
    )
    scalar = np.array([weyl_coordinates(u) for u in specials])
    batched = weyl_coordinates_many(specials)
    assert np.array_equal(scalar, batched)


def test_batched_apis_accept_empty_input(coverage):
    assert canonicalize_coordinates_many([]).shape == (0, 3)
    assert mirror_coordinates_many([]).shape == (0, 3)
    assert coverage.cost_of_many([]).shape == (0,)
    assert coverage.mirror_cost_of_many([]).shape == (0,)
    assert coverage.depth_of_many([]).shape == (0,)


def test_scalar_contains_agrees_with_mask_on_facets(coverage):
    # Points exactly on hull facets (convex combinations of vertices) are
    # the worst case for floating-point association differences; scalar
    # contains() and the batched mask share the half-space form, so they
    # must agree everywhere.
    rng = np.random.default_rng(7)
    for polytope in coverage.polytopes:
        for piece in polytope.pieces:
            vertices = piece.vertices
            if len(vertices) < 2:
                continue
            weights = rng.dirichlet(np.ones(min(3, len(vertices))), size=50)
            points = weights @ vertices[: weights.shape[1]]
            mask = piece.contains_mask(points)
            scalar = np.array([piece.contains(row) for row in points])
            assert np.array_equal(mask, scalar)


def test_cost_of_many_duplicate_keys_reuse_first_result(coverage):
    coverage.clear_cache()
    point = np.array([0.3, 0.2, 0.1])
    batch = np.vstack([point, point + 1e-9, point])  # same rounded key
    costs = coverage.cost_of_many(batch)
    assert costs[0] == costs[1] == costs[2]
    info = coverage.cache_info()
    assert info["misses"] == 1 and info["hits"] == 2


def test_weyl_many_shape_validation():
    from repro.exceptions import WeylError

    with pytest.raises(WeylError):
        weyl_coordinates_many(np.zeros((2, 3, 3)))
    assert weyl_coordinates_many(np.zeros((0, 4, 4))).shape == (0, 3)


def test_weyl_stacked_rounding_targets_within_one_ulp():
    """The array-division Makhlin targets drift by at most one ulp.

    This pins the reason ``weyl_coordinates_many`` divides the Makhlin
    invariants row by row: numpy's complex array-division ufunc and
    scalar complex division may round the invariant targets differently
    (never by more than one ulp), and the batch must stay bit-identical
    to the scalar :func:`weyl_coordinates`.
    """
    from repro.linalg.constants import MAGIC, MAGIC_DAG

    rng = np.random.default_rng(37)
    stack = np.stack([haar_unitary(4, rng) for _ in range(200)])
    determinants = np.linalg.det(stack)
    um = MAGIC_DAG @ stack @ MAGIC
    gamma = np.transpose(um, (0, 2, 1)) @ um
    traces = np.trace(gamma, axis1=1, axis2=2)
    traces_sq = np.trace(gamma @ gamma, axis1=1, axis2=2)

    g12_array = traces**2 / (16 * determinants)
    g3_array = (traces**2 - traces_sq) / (4 * determinants)
    for index in range(len(stack)):
        g12 = traces[index] ** 2 / (16 * determinants[index])
        g3 = (
            traces[index] ** 2 - traces_sq[index]
        ) / (4 * determinants[index])
        for scalar, stacked in (
            (g12.real, g12_array[index].real),
            (g12.imag, g12_array[index].imag),
            (g3.real, g3_array[index].real),
        ):
            assert abs(scalar - stacked) <= np.spacing(max(abs(scalar), 1.0))


# -- batched coverage queries ------------------------------------------------


def test_cost_of_many_matches_scalar(coverage, haar_points):
    points = np.vstack([haar_points, LANDMARKS])
    coverage.clear_cache()
    scalar = np.array([coverage.cost_of(row) for row in points])
    coverage.clear_cache()
    batched = coverage.cost_of_many(points)
    assert np.array_equal(scalar, batched)


def test_cost_of_many_uses_the_memo_table(coverage, haar_points):
    coverage.clear_cache()
    first = coverage.cost_of_many(haar_points)
    info = coverage.cache_info()
    assert info["misses"] == len(haar_points)
    second = coverage.cost_of_many(haar_points)
    assert coverage.cache_info()["hits"] >= len(haar_points)
    assert np.array_equal(first, second)


def test_mirror_and_depth_many_match_scalar(coverage, haar_points):
    mirror_scalar = np.array(
        [coverage.mirror_cost_of(row) for row in haar_points]
    )
    assert np.array_equal(
        mirror_scalar, coverage.mirror_cost_of_many(haar_points)
    )
    depth_scalar = np.array([coverage.depth_of(row) for row in haar_points])
    assert np.array_equal(depth_scalar, coverage.depth_of_many(haar_points))


def test_circuit_polytope_mask_matches_contains(coverage, haar_points):
    for polytope in coverage.polytopes:
        mask = polytope.contains_mask(haar_points, atol=coverage.atol)
        scalar = np.array(
            [polytope.contains(row, atol=coverage.atol) for row in haar_points]
        )
        assert np.array_equal(mask, scalar)


def test_coverage_pickle_drops_cost_cache(coverage, haar_points):
    coverage.clear_cache()
    expected = coverage.cost_of_many(haar_points)
    assert coverage.cache_info()["size"] > 0
    state = coverage.__getstate__()
    assert "_cost_cache" not in state
    assert "_cache_hits" not in state
    restored = pickle.loads(pickle.dumps(coverage))
    assert restored.cache_info() == {"hits": 0, "misses": 0, "size": 0}
    assert np.array_equal(restored.cost_of_many(haar_points), expected)


# -- persistent disk cache ---------------------------------------------------


def test_disk_cache_round_trip(tmp_path, monkeypatch, haar_points):
    monkeypatch.setenv("MIRAGE_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("MIRAGE_CACHE_DISABLE", raising=False)
    kwargs = dict(num_samples=200, seed=7, mirror=True, anchor=False)
    first = load_or_build_coverage_set("sqrt_iswap", **kwargs)
    entries = list(tmp_path.glob("coverage-v*.pkl"))
    assert len(entries) == 1
    second = load_or_build_coverage_set("sqrt_iswap", **kwargs)
    fresh = build_coverage_set("sqrt_iswap", **kwargs)
    assert np.array_equal(
        second.cost_of_many(haar_points), fresh.cost_of_many(haar_points)
    )
    assert np.array_equal(
        first.cost_of_many(haar_points), fresh.cost_of_many(haar_points)
    )


def test_disk_cache_key_separates_configs(tmp_path, monkeypatch):
    monkeypatch.setenv("MIRAGE_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("MIRAGE_CACHE_DISABLE", raising=False)
    load_or_build_coverage_set(
        "sqrt_iswap", num_samples=150, seed=7, mirror=False, anchor=False
    )
    load_or_build_coverage_set(
        "sqrt_iswap", num_samples=150, seed=8, mirror=False, anchor=False
    )
    assert len(list(tmp_path.glob("coverage-v*.pkl"))) == 2


def test_disk_cache_corrupt_entry_rebuilds(tmp_path, monkeypatch):
    monkeypatch.setenv("MIRAGE_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("MIRAGE_CACHE_DISABLE", raising=False)
    kwargs = dict(num_samples=150, seed=7, mirror=False, anchor=False)
    load_or_build_coverage_set("sqrt_iswap", **kwargs)
    entry = next(tmp_path.glob("coverage-v*.pkl"))
    entry.write_bytes(b"not a pickle")
    rebuilt = load_or_build_coverage_set("sqrt_iswap", **kwargs)
    assert rebuilt.basis == "sqrt_iswap"
    # The corrupt entry was replaced with a fresh, loadable one.
    with open(next(tmp_path.glob("coverage-v*.pkl")), "rb") as handle:
        assert pickle.load(handle).basis == "sqrt_iswap"


def test_disk_cache_truncated_entry_rebuilds(tmp_path, monkeypatch):
    """A writer crash mid-pickle must read as a miss, not an error."""
    monkeypatch.setenv("MIRAGE_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("MIRAGE_CACHE_DISABLE", raising=False)
    kwargs = dict(num_samples=150, seed=7, mirror=False, anchor=False)
    load_or_build_coverage_set("sqrt_iswap", **kwargs)
    entry = next(tmp_path.glob("coverage-v*.pkl"))
    payload = entry.read_bytes()
    entry.write_bytes(payload[: len(payload) // 2])
    rebuilt = load_or_build_coverage_set("sqrt_iswap", **kwargs)
    assert rebuilt.basis == "sqrt_iswap"
    # The truncated entry was atomically replaced with a loadable one.
    restored = next(tmp_path.glob("coverage-v*.pkl")).read_bytes()
    assert pickle.loads(restored).basis == "sqrt_iswap"
    assert len(restored) == len(payload)


def test_disk_cache_wrong_object_entry_rebuilds(tmp_path, monkeypatch):
    """A well-formed pickle of the wrong thing is poison, not a hit."""
    monkeypatch.setenv("MIRAGE_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("MIRAGE_CACHE_DISABLE", raising=False)
    kwargs = dict(num_samples=150, seed=7, mirror=False, anchor=False)
    load_or_build_coverage_set("sqrt_iswap", **kwargs)
    entry = next(tmp_path.glob("coverage-v*.pkl"))
    entry.write_bytes(pickle.dumps({"looks": "plausible", "is": "not"}))
    rebuilt = load_or_build_coverage_set("sqrt_iswap", **kwargs)
    assert rebuilt.basis == "sqrt_iswap"
    assert pickle.loads(entry.read_bytes()).basis == "sqrt_iswap"


def test_disk_cache_mismatched_entry_rebuilds(tmp_path, monkeypatch):
    """An entry whose contents contradict its key is rejected."""
    monkeypatch.setenv("MIRAGE_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("MIRAGE_CACHE_DISABLE", raising=False)
    kwargs = dict(num_samples=150, seed=7, mirror=False, anchor=False)
    load_or_build_coverage_set("sqrt_iswap", **kwargs)
    entry = next(tmp_path.glob("coverage-v*.pkl"))
    other = load_or_build_coverage_set("cnot", **kwargs)
    entry.write_bytes(pickle.dumps(other))
    rebuilt = load_or_build_coverage_set("sqrt_iswap", **kwargs)
    assert rebuilt.basis == "sqrt_iswap"
    assert pickle.loads(entry.read_bytes()).basis == "sqrt_iswap"


def test_disk_cache_disable(tmp_path, monkeypatch):
    monkeypatch.setenv("MIRAGE_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("MIRAGE_CACHE_DISABLE", "1")
    load_or_build_coverage_set(
        "sqrt_iswap", num_samples=150, seed=7, mirror=False, anchor=False
    )
    assert not list(tmp_path.glob("coverage-v*.pkl"))


def test_disk_cache_key_tracks_construction_fingerprint(monkeypatch):
    from repro.polytopes import cache as cache_mod

    params = dict(
        basis="sqrt_iswap",
        max_depth=None,
        num_samples=100,
        seed=7,
        mirror=False,
        anchor=False,
        atol=1e-6,
    )
    original = cache_mod.coverage_cache_key(**params)
    monkeypatch.setattr(cache_mod, "_CONSTRUCTION_FINGERPRINT", "different")
    assert cache_mod.coverage_cache_key(**params) != original


def test_clear_coverage_cache_sweeps_orphan_tmp_files(tmp_path, monkeypatch):
    from repro.polytopes import clear_coverage_cache

    monkeypatch.setenv("MIRAGE_CACHE_DIR", str(tmp_path))
    (tmp_path / "tmp-coverage-orphan123").write_bytes(b"partial write")
    (tmp_path / "coverage-v1-deadbeef.pkl").write_bytes(b"stale")
    assert clear_coverage_cache() == 2
    assert not list(tmp_path.iterdir())


# -- coordinate cache batching ----------------------------------------------


def test_coordinates_many_matches_scalar_and_dedupes():
    rng = np.random.default_rng(3)
    unitaries = [haar_unitary(4, rng) for _ in range(20)]
    unitaries += unitaries[:5]  # duplicates within one batch

    scalar_cache = CoordinateCache()
    scalar = [scalar_cache.coordinate(u) for u in unitaries]

    batch_cache = CoordinateCache()
    batched = batch_cache.coordinates_many(unitaries)
    assert batched == scalar
    # Only distinct matrices were extracted.
    assert batch_cache.info()["misses"] == 20
    assert batch_cache.info()["hits"] == 5
    # A second batch is served fully from the cache.
    again = batch_cache.coordinates_many(unitaries[:10])
    assert again == scalar[:10]
    assert batch_cache.info()["misses"] == 20


def test_consolidate_batched_annotations_match_scalar():
    circuit = twolocal_full(5, reps=2)
    batched = consolidate_blocks(circuit, cache=CoordinateCache())

    scalar_cache = CoordinateCache()
    for instruction in batched:
        gate = instruction.gate
        if len(instruction.qubits) == 2 and gate.coordinate is not None:
            assert gate.coordinate == scalar_cache.coordinate(gate.matrix())


# -- delta-scored SWAP selection --------------------------------------------


def _full_rescore_ties(state, front, extended, decay, extended_set_weight):
    """Reference SWAP choice for ``route._swap_ties``: no deltas.

    Every candidate edge is rescored from scratch — the layout with that
    SWAP applied, the front and lookahead distances summed directly —
    then weighed by the same decay product and kept by the same ``1e-12``
    tie scan as the route loop.
    """
    table = state.table
    distance = table.dist.tolist()
    lists = state.intdag.lists()
    v2p = state.v2p
    active = {v2p[lists.qubit0[i]] for i in front}
    active |= {v2p[lists.qubit1[i]] for i in front}
    candidates = sorted(
        edge for edge in zip(*table.edge_lists())
        if edge[0] in active or edge[1] in active
    )
    assert candidates

    def window_sum(nodes, a, b):
        def moved(p):
            return b if p == a else a if p == b else p

        return sum(
            distance[moved(v2p[lists.qubit0[i]])][moved(v2p[lists.qubit1[i]])]
            for i in nodes
        )

    best_score = np.inf
    best_edges = []
    for a, b in candidates:
        score = 0.0
        if front:
            score += window_sum(front, a, b) / len(front)
        if extended:
            score += extended_set_weight * window_sum(extended, a, b) / len(
                extended
            )
        score *= max(decay[a], decay[b])
        if score < best_score - 1e-12:
            best_score = score
            best_edges = [(a, b)]
        elif abs(score - best_score) <= 1e-12:
            best_edges.append((a, b))
    return best_edges


def _lower(circuit):
    """The circuit's routing lowering, as the ``plan`` stage builds it."""
    return IntDAG.from_ops(circuit.num_qubits, OpList.of(circuit).ops)


def _route_stream(coupling, lowering, layout, seed, module, ties=None):
    """One SABRE routing with ``module`` as the compiled extension and,
    when given, ``ties`` as the Python loop's SWAP scorer."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(route, "load_routec", lambda: module)
        if ties is not None:
            patch.setattr(route, "_swap_ties", ties)
        result = route_circuit(lowering, coupling, layout.copy(), seed)
    return (
        result.swaps_added,
        [(i.gate.name, i.qubits) for i in result.to_circuit()],
    )


def _assert_scorers_match_full_rescore(coupling, lowering, layout, seed):
    """The Python loop's delta scorer and the compiled loop both route as
    the Python loop does with the full-rescore scorer."""
    calls = []

    def counted(*args):
        calls.append(1)
        return _full_rescore_ties(*args)

    reference = _route_stream(coupling, lowering, layout, seed, None, counted)
    assert calls, "the routing never stalled"
    assert _route_stream(coupling, lowering, layout, seed, None) == reference
    compiled = load_routec()
    if compiled is not None:  # without a C compiler only Python routes
        assert _route_stream(coupling, lowering, layout, seed, compiled) == reference


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("topology", ["line", "square"])
def test_delta_swap_choice_matches_full_rescore(seed, topology):
    width = 9
    coupling = topology_by_name(topology, width)
    lowering = _lower(benchmark_circuit("qft", width))
    layout = Layout.trivial(width, coupling.num_qubits)
    _assert_scorers_match_full_rescore(coupling, lowering, layout, seed)


def test_delta_swap_choice_matches_on_random_layouts():
    coupling = topology_by_name("heavy_hex", 57)
    lowering = _lower(benchmark_circuit("qft", 12))
    for seed in (1, 2):
        layout = Layout.random(12, coupling.num_qubits, seed=seed)
        _assert_scorers_match_full_rescore(coupling, lowering, layout, seed)


def test_swap_scorers_agree_on_a_wide_qft():
    """Full rescore, Python delta scorer and compiled loop: one routing."""
    width = 25
    coupling = topology_by_name("square", width)
    lowering = _lower(benchmark_circuit("qft", width))
    layout = Layout.trivial(width, coupling.num_qubits)
    _assert_scorers_match_full_rescore(coupling, lowering, layout, 3)


# -- Weyl extraction against the historical scalar loop ----------------------


def _reference_weyl(unitary: np.ndarray, atol: float = 1e-6):
    """The historical per-candidate Python loop for Weyl extraction."""
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


def test_weyl_many_matches_the_historical_scalar_loop():
    rng = np.random.default_rng(5)
    unitaries = np.stack([haar_unitary(4, rng) for _ in range(150)])
    reference = np.array([_reference_weyl(u) for u in unitaries])
    assert np.array_equal(reference, weyl_coordinates_many(unitaries))
