"""Tests for the flat routing kernel (``repro.transpiler.kernel``).

Covers the PR-6 guarantees:

* ``MIRAGE_ROUTE_KERNEL`` resolution (flat default, object opt-out,
  unknown values rejected);
* fixed-seed byte-identity between the flat and object kernels across
  seeds x topologies x executors, for SABRE and MIRAGE, plus a pinned
  digest so *both* kernels drifting together is caught;
* ``IntDAG`` round-trip properties (op table, CSR adjacency, front
  layer, interpreter-cache hygiene under pickle);
* the decay-reset ordering regression at the ``DECAY_RESET_INTERVAL``
  boundary (reset-on-execute vs. reset-on-interval must interleave
  identically in both kernels).
"""

import hashlib
import pickle

import numpy as np
import pytest

from repro.exceptions import TranspilerError
from repro.circuits.circuit import random_two_qubit_block_circuit
from repro.circuits.dag import DAGCircuit
from repro.circuits.library import ghz, qft, twolocal_full
from repro.core import MirageSwap, transpile
from repro.polytopes import get_coverage_set
from repro.transpiler import (
    CouplingMap,
    Layout,
    grid_topology,
    heavy_hex_topology,
    line_topology,
    ring_topology,
)
from repro.transpiler.kernel import (
    IntDAG,
    adopt_intdag,
    int_dag,
    neighbor_table,
    route_kernel_mode,
)
from repro.transpiler.passes import SabreSwap

COVERAGE = get_coverage_set("sqrt_iswap", num_samples=250, seed=3)

#: Digest of the fixed reference config in :func:`test_pinned_digest` —
#: gate names, qubits and params of the routed circuit (matrices are
#: excluded so the pin is libm-independent).  Both kernels must produce
#: it; a change here means routing behaviour changed for everyone.
PINNED_SHA256 = (
    "6ca10f054205fb28db1a48fbbbd75f071d4084b047ba826d1f365d377a8c7413"
)


def _op_stream(result, with_matrices: bool = True):
    stream = []
    for instr in result.circuit.instructions:
        entry = (instr.gate.name, tuple(instr.qubits), tuple(instr.gate.params))
        if with_matrices:
            try:
                entry += (instr.gate.matrix().tobytes(),)
            except Exception:
                pass
        stream.append(entry)
    return stream


def _digest(result, with_matrices: bool = True) -> str:
    payload = hashlib.sha256()
    for entry in _op_stream(result, with_matrices):
        payload.update(repr(entry).encode())
    return payload.hexdigest()


def _transpile_both(monkeypatch, *args, **kwargs):
    monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", "flat")
    flat = transpile(*args, **kwargs)
    monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", "object")
    obj = transpile(*args, **kwargs)
    monkeypatch.delenv("MIRAGE_ROUTE_KERNEL")
    return flat, obj


# ---------------------------------------------------------------------------
# Kernel switch
# ---------------------------------------------------------------------------


def test_route_kernel_mode_resolution(monkeypatch):
    monkeypatch.delenv("MIRAGE_ROUTE_KERNEL", raising=False)
    assert route_kernel_mode() == "flat"
    for value in ("flat", "default", "", "  FLAT "):
        monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", value)
        assert route_kernel_mode() == "flat"
    for value in ("object", "legacy", "OBJECT"):
        monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", value)
        assert route_kernel_mode() == "object"
    monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", "turbo")
    with pytest.raises(TranspilerError, match="MIRAGE_ROUTE_KERNEL"):
        route_kernel_mode()


def test_object_mode_skips_the_flat_kernel(monkeypatch):
    """``object`` must dispatch to the object-path router, not the kernel."""
    from repro.transpiler.passes import sabre_swap as sabre_mod

    def _boom(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("flat kernel invoked in object mode")

    monkeypatch.setattr(sabre_mod, "route_kernel", _boom)
    monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", "object")
    coupling = line_topology(4)
    router = SabreSwap(coupling)
    dag = DAGCircuit.from_circuit(ghz(4))
    result = router.run(dag, Layout.trivial(4, 4), seed=2)
    assert result.swaps_added >= 0

    monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", "flat")
    with pytest.raises(AssertionError, match="flat kernel"):
        router.run(dag, Layout.trivial(4, 4), seed=2)


# ---------------------------------------------------------------------------
# Flat vs object identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [3, 11, 29])
@pytest.mark.parametrize(
    "topology",
    [
        line_topology(5),
        ring_topology(6),
        grid_topology(2, 3),
        heavy_hex_topology(12),
    ],
    ids=["line5", "ring6", "grid23", "hh12"],
)
def test_flat_object_identity_across_seeds_and_topologies(
    monkeypatch, topology, seed
):
    circuit = qft(5)
    flat, obj = _transpile_both(
        monkeypatch,
        circuit,
        topology,
        method="mirage",
        layout_trials=2,
        use_vf2=False,
        coverage=COVERAGE,
        seed=seed,
    )
    assert _digest(flat) == _digest(obj)
    assert flat.metrics.swap_count == obj.metrics.swap_count
    assert flat.metrics.depth == obj.metrics.depth


@pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
@pytest.mark.parametrize("method", ["sabre", "mirage"])
def test_flat_object_identity_across_executors(monkeypatch, method, executor):
    flat, obj = _transpile_both(
        monkeypatch,
        twolocal_full(5),
        grid_topology(2, 3),
        method=method,
        layout_trials=3,
        use_vf2=False,
        coverage=COVERAGE,
        seed=17,
        executor=executor,
    )
    assert _digest(flat) == _digest(obj)


def test_pinned_digest(monkeypatch):
    """Both kernels must reproduce the pinned reference digest.

    The identity tests above would pass if flat and object drifted
    *together*; this pin detects that.  Matrices are excluded from the
    digest (gate parameters are exact binary fractions of pi, so their
    reprs are platform-stable; matrix entries go through libm).
    """
    flat, obj = _transpile_both(
        monkeypatch,
        qft(5),
        grid_topology(2, 3),
        method="mirage",
        layout_trials=2,
        use_vf2=False,
        coverage=COVERAGE,
        seed=7,
    )
    assert _digest(flat, with_matrices=False) == PINNED_SHA256
    assert _digest(obj, with_matrices=False) == PINNED_SHA256


def test_direct_router_identity_with_aggressions(monkeypatch):
    """Router-level identity: full op streams, layouts and stats."""
    coupling = heavy_hex_topology(12)
    dag = DAGCircuit.from_circuit(qft(6))
    rng = np.random.default_rng(9)
    layout = Layout.random(dag.num_qubits, coupling.num_qubits, rng)

    def run(mode, aggression):
        monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", mode)
        router = MirageSwap(coupling, coverage=COVERAGE, aggression=aggression)
        result = router.run(dag, layout.copy(), seed=13)
        ops = [
            (node.gate.name, tuple(node.qubits), node.gate.matrix().tobytes())
            for node_id in sorted(result.dag.nodes)
            for node in (result.dag.nodes[node_id],)
        ]
        return (
            ops,
            result.final_layout.virtual_to_physical(),
            result.swaps_added,
            result.mirrors_accepted,
            result.mirror_candidates,
        )

    for aggression in (0, 1, 2, 3):
        assert run("flat", aggression) == run("object", aggression)


# ---------------------------------------------------------------------------
# IntDAG round-trip properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "circuit", [ghz(5), qft(4), twolocal_full(4)], ids=["ghz5", "qft4", "tl4"]
)
def test_intdag_round_trip(circuit):
    dag = DAGCircuit.from_circuit(circuit)
    lowered = int_dag(dag)

    assert lowered.num_qubits == dag.num_qubits
    assert lowered.num_nodes == len(dag.nodes)
    for node_id, node in dag.nodes.items():
        assert lowered.gate(node_id) is node.gate
        assert lowered.node_qubits(node_id) == tuple(node.qubits)
        assert lowered.successor_ids(node_id) == dag._successors[node_id]
        assert lowered.predecessor_ids(node_id) == dag._predecessors[node_id]
        assert bool(lowered.two_qubit[node_id]) == node.is_two_qubit
    assert lowered.front_ids() == [n.node_id for n in dag.front_layer()]

    rebuilt = lowered.to_dag(dag.name)
    assert len(rebuilt.nodes) == len(dag.nodes)
    for node_id, node in dag.nodes.items():
        clone = rebuilt.nodes[node_id]
        assert clone.gate is node.gate
        assert tuple(clone.qubits) == tuple(node.qubits)
    assert rebuilt._successors == dag._successors
    assert rebuilt._predecessors == dag._predecessors


def test_intdag_csr_consistency():
    dag = DAGCircuit.from_circuit(qft(5))
    lowered = int_dag(dag)
    # CSR pointers are monotone and the in-degree vector matches the
    # predecessor table (what the kernel's front advance relies on).
    assert list(lowered.succ_indptr) == sorted(lowered.succ_indptr)
    assert list(lowered.pred_indptr) == sorted(lowered.pred_indptr)
    assert lowered.succ_indptr[-1] == len(lowered.succ_ids)
    for node_id in range(lowered.num_nodes):
        assert lowered.indegree[node_id] == len(dag._predecessors[node_id])
    lists = lowered.lists()
    assert lists.succ_tuples == tuple(
        tuple(dag._successors[i]) for i in range(lowered.num_nodes)
    )


def test_intdag_memo_and_adoption():
    dag = DAGCircuit.from_circuit(ghz(4))
    lowered = int_dag(dag)
    assert int_dag(dag) is lowered  # memoised on the DAG

    fresh = DAGCircuit.from_circuit(ghz(4))
    adopt_intdag(fresh, lowered)
    assert int_dag(fresh) is lowered  # adopted table wins

    # A stale table (node-count mismatch) is refused.
    smaller = DAGCircuit.from_circuit(ghz(3))
    adopt_intdag(smaller, lowered)
    assert int_dag(smaller) is not lowered


def test_intdag_pickle_drops_interpreter_caches():
    dag = DAGCircuit.from_circuit(qft(4))
    lowered = int_dag(dag)
    lowered.lists()  # populate the caches
    MirageSwap(line_topology(4), coverage=COVERAGE).run(
        dag, Layout.trivial(4, 4), seed=1
    )
    for cache in ("_lists", "_lookahead_cache", "_mirror_tables"):
        assert cache in lowered.__dict__
    clone = pickle.loads(pickle.dumps(lowered))
    for cache in ("_lists", "_lookahead_cache", "_mirror_tables"):
        assert cache not in clone.__dict__
    assert clone.num_nodes == lowered.num_nodes
    assert np.array_equal(clone.qubit0, lowered.qubit0)
    assert np.array_equal(clone.succ_ids, lowered.succ_ids)
    assert clone.lists().qubit_tuples == lowered.lists().qubit_tuples


def test_intdag_requires_dense_node_ids():
    dag = DAGCircuit.from_circuit(ghz(4))
    del dag.nodes[0]
    with pytest.raises(TranspilerError, match="densely numbered"):
        IntDAG.from_dag(dag)


def test_neighbor_table_matches_coupling():
    coupling = heavy_hex_topology(12)
    table = neighbor_table(coupling)
    assert neighbor_table(coupling) is table  # memoised
    assert table.num_qubits == coupling.num_qubits
    edges = sorted(set(coupling.edges))
    assert list(zip(table.edges_a, table.edges_b)) == edges
    for qubit in range(coupling.num_qubits):
        start, stop = table.indptr[qubit], table.indptr[qubit + 1]
        assert list(table.neighbor_ids[start:stop]) == coupling.neighbors(qubit)
        assert [edges[e] for e in table.incident[qubit]] == [
            edge for edge in edges if qubit in edge
        ]
    assert table.connected
    assert np.array_equal(
        table.dist_int.astype(float), coupling.distance_matrix
    )


# ---------------------------------------------------------------------------
# Property-based differential fuzzing: random DAGs x couplings x seeds
# ---------------------------------------------------------------------------
#
# A seeded generator rather than hypothesis keeps every case exactly
# reproducible from its index (no shrinking, no example database) while
# still sweeping structurally random inputs: Haar-random two-qubit block
# circuits, random connected couplings (random spanning tree plus random
# chords), random layouts, seeds and aggressions.


def _random_connected_coupling(rng, num_qubits):
    """Random connected topology: a spanning tree plus random chords."""
    order = rng.permutation(num_qubits)
    edges = set()
    for position in range(1, num_qubits):
        anchor = order[int(rng.integers(0, position))]
        edges.add(tuple(sorted((int(order[position]), int(anchor)))))
    for _ in range(int(rng.integers(0, num_qubits))):
        a, b = rng.choice(num_qubits, size=2, replace=False)
        edges.add(tuple(sorted((int(a), int(b)))))
    return CouplingMap(
        sorted(edges), num_qubits=num_qubits, name=f"random-{num_qubits}"
    )


def _routing_stream(result):
    return (
        [
            (node.gate.name, tuple(node.qubits))
            for node_id in sorted(result.dag.nodes)
            for node in (result.dag.nodes[node_id],)
        ],
        result.final_layout.virtual_to_physical(),
        result.swaps_added,
    )


@pytest.mark.parametrize("case", range(10))
def test_property_random_dag_coupling_seed_identity(monkeypatch, case):
    """Differential fuzz: both kernels route every random instance
    identically — op stream, final layout and SWAP count."""
    rng = np.random.default_rng(0xC0FFEE + case)
    num_qubits = int(rng.integers(4, 8))
    circuit = random_two_qubit_block_circuit(
        num_qubits, int(rng.integers(5, 16)), rng
    )
    coupling = _random_connected_coupling(
        rng, num_qubits + int(rng.integers(0, 3))
    )
    dag = DAGCircuit.from_circuit(circuit)
    layout = Layout.random(dag.num_qubits, coupling.num_qubits, rng)
    seed = int(rng.integers(0, 2**31))
    aggression = int(rng.integers(0, 4))

    def run(mode, router_factory):
        monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", mode)
        return _routing_stream(
            router_factory().run(dag, layout.copy(), seed=seed)
        )

    sabre = lambda: SabreSwap(coupling)  # noqa: E731 - tiny local factories
    mirage = lambda: MirageSwap(  # noqa: E731
        coupling, coverage=COVERAGE, aggression=aggression
    )
    assert run("flat", sabre) == run("object", sabre)
    assert run("flat", mirage) == run("object", mirage)


@pytest.mark.parametrize("case", range(3))
def test_property_full_transpile_identity_on_random_couplings(
    monkeypatch, case
):
    """End-to-end digests agree on random couplings (layout trials,
    selection and routing all downstream of the kernel switch)."""
    rng = np.random.default_rng(1729 + case)
    circuit = random_two_qubit_block_circuit(5, int(rng.integers(6, 12)), rng)
    coupling = _random_connected_coupling(rng, 6)
    seed = int(rng.integers(0, 2**31))
    flat, obj = _transpile_both(
        monkeypatch,
        circuit,
        coupling,
        method="mirage",
        layout_trials=2,
        use_vf2=False,
        coverage=COVERAGE,
        seed=seed,
    )
    assert _digest(flat) == _digest(obj)
    assert flat.metrics.depth == obj.metrics.depth


# ---------------------------------------------------------------------------
# Decay-reset ordering at the DECAY_RESET_INTERVAL boundary
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("interval", [1, 2, 5])
def test_decay_reset_boundary_identity(monkeypatch, interval):
    """Interval-reset and execute-reset must interleave identically.

    Small ``decay_reset_interval`` values force resets *between*
    consecutive stalls (the interval branch) as well as after execution
    sweeps (the dirty-flag branch); any ordering difference between the
    kernels shifts decay factors and changes the SWAP stream.
    """
    coupling = line_topology(6)  # line = stall-heavy
    dag = DAGCircuit.from_circuit(qft(6))
    layout = Layout.random(6, 6, np.random.default_rng(21))

    def run(mode):
        monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", mode)
        router = SabreSwap(coupling, decay_reset_interval=interval)
        result = router.run(dag, layout.copy(), seed=33)
        return (
            [
                (node.gate.name, tuple(node.qubits))
                for node_id in sorted(result.dag.nodes)
                for node in (result.dag.nodes[node_id],)
            ],
            result.final_layout.virtual_to_physical(),
            result.swaps_added,
        )

    assert run("flat") == run("object")
