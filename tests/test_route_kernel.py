"""Tests for the flat routing kernel (``repro.transpiler.kernel``).

The route loop exists twice: compiled (``_routec.c``) and the pure-Python
reference, which runs when ``route.load_routec`` returns ``None``.  Covers:

* fixed-seed byte-identity between the two loops across seeds x
  topologies x executors, for SABRE and MIRAGE, at the router level and
  end to end, plus a pinned digest so *both* loops drifting together is
  caught;
* ``IntDAG`` lowering properties (op table, CSR adjacency, front
  layer, interpreter-cache hygiene under pickle), and the reverse
  lowering against ``IntDAG.from_ops`` of the ops in reversed Kahn
  order (Hypothesis);
* the decay-reset ordering regression at the ``DECAY_RESET_INTERVAL``
  boundary (reset-on-execute vs. reset-on-interval must interleave
  identically in both loops);
* the compiled scorer and lookahead walk (``_routec.c``) against the
  Python reference, their bounds checks, and the build-on-first-use
  loader's fallback and cache keying;
* the compiled route loop against the Python loop (Hypothesis over
  couplings, circuits, SABRE/MIRAGE settings and seeds), including the
  depth both score under a mirror rule, mirror-cost near-ties, error
  parity, corrupt arrays, re-entry, and the disconnected-coupling
  fallback.
"""

import dataclasses
import hashlib
import logging
import pickle
import shutil
import sys
import sysconfig
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TranspilerError
from repro.circuits.circuit import (
    OpList,
    QuantumCircuit,
    random_two_qubit_block_circuit,
)
from repro.circuits.dag import kahn_order
from repro.circuits.gates import Gate
from repro.circuits.library import ghz, qft, twolocal_full
from repro.core import transpile
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
    KernelState,
    native,
    neighbor_table,
    route,
)
from repro.transpiler.kernel.intdag import KIND_CHECK2
from repro.transpiler.metrics import ops_depth
from repro.transpiler.passes import mirror_table
from repro.transpiler.passes import route as route_circuit
from repro.transpiler.passes.sabre_swap import (
    DECAY_DELTA,
    EXTENDED_SET_SIZE,
    EXTENDED_SET_WEIGHT,
)

COVERAGE = get_coverage_set("sqrt_iswap", num_samples=250, seed=3)

#: The compiled module, built (or loaded from the cache) on first use.
ROUTEC = native.load_routec()
needs_routec = pytest.mark.skipif(
    ROUTEC is None, reason="compiled route kernel unavailable"
)

#: Digest of the fixed reference config in :func:`test_pinned_digest` —
#: gate names, qubits and params of the routed circuit (matrices are
#: excluded so the pin is libm-independent).  Both loops must produce
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


def _both_loops(monkeypatch, run):
    """``run()`` on the compiled loop, then on the Python loop.

    Without a C compiler ``ROUTEC`` is ``None`` and both runs take the
    Python loop; the pinned digest still anchors them.
    """
    monkeypatch.setattr(route, "load_routec", lambda: ROUTEC)
    compiled = run()
    monkeypatch.setattr(route, "load_routec", lambda: None)
    python = run()
    return compiled, python


def _transpile_both(monkeypatch, *args, **kwargs):
    return _both_loops(monkeypatch, lambda: transpile(*args, **kwargs))


def _routed_ops(result, with_matrices=False):
    """A routing result's op stream (emission order), layout and counts."""
    ops = [
        (gate.name, tuple(physical))
        + ((gate.matrix().tobytes(),) if with_matrices else ())
        for gate, physical in result.ops
    ]
    return ops, result.final_layout.virtual_to_physical(), result.swaps_added


def _lower(circuit):
    """The circuit's routing lowering, as the ``plan`` stage builds it."""
    return IntDAG.from_ops(circuit.num_qubits, OpList.of(circuit).ops)


# ---------------------------------------------------------------------------
# Compiled vs Python loop identity
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
    """End-to-end MIRAGE transpiles: compiled loop == Python loop."""
    circuit = qft(5)
    compiled, python = _transpile_both(
        monkeypatch,
        circuit,
        topology,
        method="mirage",
        layout_trials=2,
        use_vf2=False,
        coverage=COVERAGE,
        seed=seed,
    )
    assert _digest(compiled) == _digest(python)
    assert compiled.metrics.swap_count == python.metrics.swap_count
    assert compiled.metrics.depth == python.metrics.depth


@pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
@pytest.mark.parametrize("method", ["sabre", "mirage"])
def test_flat_object_identity_across_executors(monkeypatch, method, executor):
    """Every executor on the compiled loop, and the Python loop, route as
    the serial compiled run does.  A process pool's children cannot see
    the ``load_routec`` patch, so there the Python run is serial."""

    def run(executor):
        return transpile(
            twolocal_full(5),
            grid_topology(2, 3),
            method=method,
            layout_trials=3,
            use_vf2=False,
            coverage=COVERAGE,
            seed=17,
            executor=executor,
        )

    serial = _digest(run("serial"))
    assert _digest(run(executor)) == serial
    monkeypatch.setattr(route, "load_routec", lambda: None)
    assert _digest(run("serial" if executor == "processes" else executor)) == serial


def test_pinned_digest(monkeypatch):
    """Both loops must reproduce the pinned reference digest.

    The identity tests above would pass if the two loops drifted
    *together*; this pin detects that.  Matrices are excluded from the
    digest (gate parameters are exact binary fractions of pi, so their
    reprs are platform-stable; matrix entries go through libm).
    """
    compiled, python = _transpile_both(
        monkeypatch,
        qft(5),
        grid_topology(2, 3),
        method="mirage",
        layout_trials=2,
        use_vf2=False,
        coverage=COVERAGE,
        seed=7,
    )
    assert _digest(compiled, with_matrices=False) == PINNED_SHA256
    assert _digest(python, with_matrices=False) == PINNED_SHA256


def test_direct_router_identity_with_aggressions(monkeypatch):
    """Router-level identity: full op streams, layouts and stats."""
    coupling = heavy_hex_topology(12)
    lowered = _lower(qft(6))
    rng = np.random.default_rng(9)
    layout = Layout.random(lowered.num_qubits, coupling.num_qubits, rng)

    def run(aggression):
        result = route_circuit(
            lowered, coupling, layout.copy(), 13,
            coverage=COVERAGE, aggression=aggression,
        )
        return (
            _routed_ops(result, with_matrices=True),
            result.mirrors_accepted,
            result.mirror_candidates,
        )

    for aggression in (0, 1, 2, 3):
        compiled, python = _both_loops(monkeypatch, lambda: run(aggression))
        assert compiled == python


# ---------------------------------------------------------------------------
# IntDAG lowering properties
# ---------------------------------------------------------------------------


def _wire_edges(circuit):
    """Predecessor and successor lists by the wire rule, spelled out: an
    op depends once on the last earlier op on each of its wires."""
    last: dict[int, int] = {}
    predecessors, successors = [], [[] for _ in range(len(circuit))]
    for index, instruction in enumerate(circuit):
        linked = list(
            dict.fromkeys(last[q] for q in instruction.qubits if q in last)
        )
        predecessors.append(linked)
        for previous in linked:
            successors[previous].append(index)
        last.update((q, index) for q in instruction.qubits)
    return predecessors, successors


@pytest.mark.parametrize(
    "circuit", [ghz(5), qft(4), twolocal_full(4)], ids=["ghz5", "qft4", "tl4"]
)
def test_intdag_round_trip(circuit):
    lowered = _lower(circuit)
    predecessors, successors = _wire_edges(circuit)

    assert lowered.num_qubits == circuit.num_qubits
    assert lowered.num_nodes == len(circuit)
    for node_id, instruction in enumerate(circuit):
        assert lowered.gate(node_id) is instruction.gate
        assert lowered.node_qubits(node_id) == tuple(instruction.qubits)
        assert lowered.successor_ids(node_id) == successors[node_id]
        assert lowered.predecessor_ids(node_id) == predecessors[node_id]
        assert bool(lowered.two_qubit[node_id]) == instruction.is_two_qubit
    assert lowered.front_ids() == [
        node_id for node_id, linked in enumerate(predecessors) if not linked
    ]


def test_intdag_csr_consistency():
    circuit = qft(5)
    lowered = _lower(circuit)
    predecessors, successors = _wire_edges(circuit)
    # CSR pointers are monotone and the in-degree vector matches the
    # predecessor table (what the kernel's front advance relies on).
    assert list(lowered.succ_indptr) == sorted(lowered.succ_indptr)
    assert list(lowered.pred_indptr) == sorted(lowered.pred_indptr)
    assert lowered.succ_indptr[-1] == len(lowered.succ_ids)
    for node_id in range(lowered.num_nodes):
        assert lowered.indegree[node_id] == len(predecessors[node_id])
    lists = lowered.lists()
    assert lists.succ_tuples == tuple(tuple(row) for row in successors)


def test_intdag_pickle_drops_interpreter_caches(monkeypatch):
    # The Python route loop is what fills the lookahead cache (the
    # compiled loop walks its windows natively), and any flat run fills
    # the mirror cache.
    monkeypatch.setattr(route, "load_routec", lambda: None)
    lowered = _lower(qft(4))
    lowered.lists()  # populate the caches
    route_circuit(
        lowered, line_topology(4), Layout.trivial(4, 4), 1,
        coverage=COVERAGE, aggression=1,
    )
    reverse = lowered.reversed()
    caches = ("_lists", "_lookahead_cache", "_mirror_tables", "_reversed")
    for cache in caches:
        assert cache in lowered.__dict__
    clone = pickle.loads(pickle.dumps(lowered))
    for cache in caches:
        assert cache not in clone.__dict__
    # The reverse's own pickle drops the shared mirror memo too.
    assert "_mirror_tables" in reverse.__dict__
    assert "_mirror_tables" not in pickle.loads(pickle.dumps(reverse)).__dict__
    assert clone.num_nodes == lowered.num_nodes
    assert np.array_equal(clone.qubit0, lowered.qubit0)
    assert np.array_equal(clone.succ_ids, lowered.succ_ids)
    assert clone.lists().qubit_tuples == lowered.lists().qubit_tuples


def _reverse_lowering(circuit):
    """The reference reverse: the lowering of the ops in reversed Kahn
    order."""
    ops = OpList.of(circuit).ops
    order = kahn_order([qubits for _, qubits in ops], circuit.num_qubits)
    return IntDAG.from_ops(circuit.num_qubits, [ops[i] for i in reversed(order)])


_INTDAG_ARRAYS = (
    "qubit0", "qubit1", "kind", "two_qubit", "qarg_indptr", "qargs",
    "succ_indptr", "succ_ids", "pred_indptr", "pred_ids", "indegree",
)


@st.composite
def _reused_gate_circuits(draw):
    """1Q/2Q gates drawn from a small pool of shared gate objects, plus
    measures and barriers, some over 3 or more qubits."""
    num_qubits = draw(st.integers(1, 6))
    pool = [Gate(name, 1) for name in _ONE_QUBIT] + [Gate("measure", 1)]
    pool += [Gate(name, 2) for name in _TWO_QUBIT]
    circuit = QuantumCircuit(num_qubits, "drawn")
    for _ in range(draw(st.integers(0, 40))):
        if draw(st.integers(0, 5)) == 0:
            width = draw(st.integers(1, num_qubits))
            circuit.barrier(*draw(st.permutations(range(num_qubits)))[:width])
            continue
        gate = draw(st.sampled_from(pool))
        if gate.num_qubits > num_qubits:
            continue
        qubits = draw(st.permutations(range(num_qubits)))[:gate.num_qubits]
        circuit.append(gate, qubits)
    return circuit


@settings(max_examples=200, deadline=None, derandomize=True)
@given(circuit=_reused_gate_circuits())
def test_reversed_lowering_matches_the_reversed_dag(circuit):
    lowered = _lower(circuit)
    reverse = lowered.reversed()
    reference = _reverse_lowering(circuit)
    assert reverse.num_qubits == reference.num_qubits
    assert reverse.num_nodes == reference.num_nodes
    for name in _INTDAG_ARRAYS:
        got, want = getattr(reverse, name), getattr(reference, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    for node_id in range(reverse.num_nodes):
        assert reverse.gate(node_id) is reference.gate(node_id)
    # Memoised, sharing the forward's gate slots and mirror-table memo.
    assert lowered.reversed() is reverse
    assert reverse.gates is lowered.gates
    assert reverse.__dict__["_mirror_tables"] is lowered.__dict__["_mirror_tables"]


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


@pytest.mark.parametrize("case", range(10))
def test_property_random_dag_coupling_seed_identity(monkeypatch, case):
    """Differential fuzz: both loops route every random instance
    identically — op stream, final layout and SWAP count."""
    rng = np.random.default_rng(0xC0FFEE + case)
    num_qubits = int(rng.integers(4, 8))
    circuit = random_two_qubit_block_circuit(
        num_qubits, int(rng.integers(5, 16)), rng
    )
    coupling = _random_connected_coupling(
        rng, num_qubits + int(rng.integers(0, 3))
    )
    lowered = _lower(circuit)
    layout = Layout.random(lowered.num_qubits, coupling.num_qubits, rng)
    seed = int(rng.integers(0, 2**31))
    aggression = int(rng.integers(0, 4))

    for level in (None, aggression):
        compiled, python = _both_loops(
            monkeypatch,
            lambda: _routed_ops(route_circuit(
                lowered, coupling, layout.copy(), seed,
                coverage=COVERAGE, aggression=level,
            )),
        )
        assert compiled == python


@pytest.mark.parametrize("case", range(3))
def test_property_full_transpile_identity_on_random_couplings(
    monkeypatch, case
):
    """End-to-end digests agree on random couplings (layout trials,
    selection and routing all downstream of the route loop)."""
    rng = np.random.default_rng(1729 + case)
    circuit = random_two_qubit_block_circuit(5, int(rng.integers(6, 12)), rng)
    coupling = _random_connected_coupling(rng, 6)
    seed = int(rng.integers(0, 2**31))
    compiled, python = _transpile_both(
        monkeypatch,
        circuit,
        coupling,
        method="mirage",
        layout_trials=2,
        use_vf2=False,
        coverage=COVERAGE,
        seed=seed,
    )
    assert _digest(compiled) == _digest(python)
    assert compiled.metrics.depth == python.metrics.depth


# ---------------------------------------------------------------------------
# Decay-reset ordering at the DECAY_RESET_INTERVAL boundary
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("interval", [1, 2, 5])
def test_decay_reset_boundary_identity(monkeypatch, interval):
    """Interval-reset and execute-reset must interleave identically.

    Small ``decay_reset_interval`` values force resets *between*
    consecutive stalls (the interval branch) as well as after execution
    sweeps (the dirty-flag branch); any ordering difference between the
    loops shifts decay factors and changes the SWAP stream.
    """
    coupling = line_topology(6)  # line = stall-heavy
    lowered = _lower(qft(6))
    layout = Layout.random(6, 6, np.random.default_rng(21))

    def run():
        state = route.route_kernel(
            lowered,
            neighbor_table(coupling),
            layout.virtual_to_physical(),
            np.random.default_rng(33),
            extended_set_size=EXTENDED_SET_SIZE,
            extended_set_weight=EXTENDED_SET_WEIGHT,
            decay_delta=DECAY_DELTA,
            decay_reset_interval=interval,
            stall_limit=10 * max(10, coupling.num_qubits),
        )
        ops = [(gate.name, tuple(physical)) for gate, physical in state.ops]
        return ops, state.v2p, state.swaps_added

    compiled, python = _both_loops(monkeypatch, run)
    assert compiled == python


# ---------------------------------------------------------------------------
# Compiled scorer and lookahead walk vs the Python reference
# ---------------------------------------------------------------------------

def _states(monkeypatch, intdag, table, v2p, extended_set_size=20):
    """A Python-scorer state and a compiled-scorer state over one run."""
    monkeypatch.setattr(route, "load_routec", lambda: None)
    python = KernelState(intdag, table, v2p, extended_set_size)
    monkeypatch.setattr(route, "load_routec", lambda: ROUTEC)
    compiled = KernelState(intdag, table, v2p, extended_set_size)
    assert python._native is None and compiled._native is not None
    return python, compiled


def _random_routing_window(rng, case):
    """Random coupling, lowering, layout, front and extended sets."""
    num_physical = int(rng.integers(3, 12))
    coupling = _random_connected_coupling(rng, num_physical)
    num_virtual = int(rng.integers(2, num_physical + 1))
    circuit = random_two_qubit_block_circuit(
        num_virtual, int(rng.integers(3, 25)), rng
    )
    intdag = _lower(circuit)
    v2p = [int(p) for p in rng.permutation(num_physical)[:num_virtual]]
    two_qubit = [i for i in range(intdag.num_nodes) if intdag.kind[i] == KIND_CHECK2]
    order = [int(i) for i in rng.permutation(two_qubit)]
    num_front = 1 if case % 4 == 0 else int(rng.integers(1, len(order) + 1))
    front = order[:num_front]
    # Empty, single-gate and full extended sets.
    extended = order[num_front:][: (0, 1, len(order))[case % 3]]
    return coupling, intdag, v2p, front, extended


@needs_routec
@pytest.mark.parametrize("case", range(54))
def test_native_swap_ties_match_python(monkeypatch, case):
    """Same tie list, same order, for random windows, decays and weights
    (including a single-gate front, empty and single-gate extended sets,
    and decay vectors full of exact ties).  Weight 1/3 makes float
    near-ties, which only the shared 1e-12 scan keeps together."""
    rng = np.random.default_rng(0x5EED + case)
    weight = (0.0, 0.5, 1 / 3)[case // 3 % 3]
    decay_choices = ([1.0], [1.0, 1.001], [1.0, 1.001, 1.002, 1.003])[case // 9 % 3]
    for _ in range(10):
        coupling, intdag, v2p, front, extended = _random_routing_window(rng, case)
        table = neighbor_table(coupling)
        python, compiled = _states(monkeypatch, intdag, table, v2p)
        decay = [float(d) for d in rng.choice(decay_choices, size=coupling.num_qubits)]
        expected = route._swap_ties(python, front, extended, decay, weight)
        got = compiled._native.swap_ties(front, extended, v2p, decay, weight)
        assert got == expected


@needs_routec
def test_native_swap_ties_keep_float_near_ties(monkeypatch):
    """A 3-gate front with weight 1/3 gives candidate scores that are
    equal in exact arithmetic but differ in the last bit; both scorers
    must keep the same near-tie sets (about one window in 300 has one)."""
    rng = np.random.default_rng(0x71E)
    for coupling in (line_topology(8), grid_topology(3, 3), grid_topology(2, 4)):
        num_qubits = coupling.num_qubits
        circuit = random_two_qubit_block_circuit(num_qubits, 30, rng)
        intdag = _lower(circuit)
        table = neighbor_table(coupling)
        decay = [1.0] * num_qubits
        for _ in range(400):
            v2p = [int(p) for p in rng.permutation(num_qubits)]
            order = [int(i) for i in rng.permutation(intdag.num_nodes)]
            front, extended = order[:3], order[3 : 3 + int(rng.integers(1, 7))]
            python, compiled = _states(monkeypatch, intdag, table, v2p)
            expected = route._swap_ties(python, front, extended, decay, 1 / 3)
            got = compiled._native.swap_ties(front, extended, v2p, decay, 1 / 3)
            assert got == expected


@needs_routec
@pytest.mark.parametrize("case", range(12))
def test_native_extended_ids_match_python(monkeypatch, case):
    rng = np.random.default_rng(0xB0F + case)
    width = int(rng.integers(3, 8))
    circuit = (
        random_two_qubit_block_circuit(width, int(rng.integers(2, 30)), rng),
        qft(width),
        twolocal_full(width),
    )[case % 3]
    intdag = _lower(circuit)
    table = neighbor_table(line_topology(width))
    v2p = list(range(width))
    for limit in (0, 1, 20, intdag.num_nodes + 5):
        python, compiled = _states(monkeypatch, intdag, table, v2p, limit)
        size = int(rng.integers(1, min(5, intdag.num_nodes) + 1))
        roots = [int(i) for i in rng.choice(intdag.num_nodes, size, replace=False)]
        for window in (roots, intdag.front_ids()):
            assert compiled._native.extended_ids(
                window, limit
            ) == python.extended_ids(window)


@needs_routec
@pytest.mark.parametrize("method", ["sabre", "mirage"])
def test_native_scorer_transpile_digest_identity(monkeypatch, method):
    kernels = []

    def counting_kernel(*arrays):
        kernels.append(1)
        return ROUTEC.RouteKernel(*arrays)

    def run(module):
        monkeypatch.setattr(route, "load_routec", lambda: module)
        return transpile(
            qft(7),
            grid_topology(3, 3),
            method=method,
            layout_trials=3,
            use_vf2=False,
            coverage=COVERAGE,
            seed=23,
        )

    python = run(None)
    compiled = run(types.SimpleNamespace(RouteKernel=counting_kernel))
    assert kernels, "the compiled kernel was never bound"
    assert _digest(compiled) == _digest(python)
    assert compiled.metrics.swap_count == python.metrics.swap_count


@needs_routec
def test_native_kernel_rejects_bad_indices(monkeypatch):
    """Out-of-range indices raise ``TranspilerError``; they never crash,
    and a failed call leaves the kernel's scratch state clean."""
    coupling = line_topology(4)
    table = neighbor_table(coupling)
    intdag = _lower(qft(4))
    v2p = [0, 1, 2, 3]
    python, compiled = _states(monkeypatch, intdag, table, v2p)
    kernel = compiled._native
    node = next(i for i in range(intdag.num_nodes) if intdag.kind[i] == KIND_CHECK2)
    decay = [1.0] * 4
    too_high, negative = list(v2p), list(v2p)
    too_high[intdag.qubit0[node]] = 99
    negative[intdag.qubit1[node]] = -1
    bad_calls = [
        lambda: kernel.swap_ties([node], [], too_high, decay, 0.5),
        lambda: kernel.swap_ties([node], [], negative, decay, 0.5),
        lambda: kernel.swap_ties([node], [], [0], decay, 0.5),
        lambda: kernel.swap_ties([node], [], v2p, [1.0], 0.5),
        lambda: kernel.swap_ties([intdag.num_nodes], [], v2p, decay, 0.5),
        lambda: kernel.swap_ties([node], [-1], v2p, decay, 0.5),
        lambda: kernel.swap_ties([node], [2**70], v2p, decay, 0.5),
        lambda: kernel.swap_ties([node], ["0"], v2p, decay, 0.5),
        lambda: kernel.extended_ids([intdag.num_nodes], 5),
        lambda: kernel.extended_ids([-3], 5),
    ]
    for call in bad_calls:
        with pytest.raises(TranspilerError):
            call()
    assert kernel.swap_ties([node], [], v2p, decay, 0.5) == route._swap_ties(
        python, [node], [], decay, 0.5
    )
    with pytest.raises(TranspilerError, match="integer array"):
        ROUTEC.RouteKernel(
            table.dist,  # float64: refused
            table.edges_a,
            table.edges_b,
            *table.incident_csr(),
            intdag.qubit0,
            intdag.qubit1,
            intdag.kind,
            intdag.succ_indptr,
            intdag.succ_ids,
            KIND_CHECK2,
        )
    with pytest.raises(TranspilerError, match="inconsistent"):
        ROUTEC.RouteKernel(
            table.dist_int,
            table.edges_a,
            table.edges_b[:-1],
            *table.incident_csr(),
            intdag.qubit0,
            intdag.qubit1,
            intdag.kind,
            intdag.succ_indptr,
            intdag.succ_ids,
            KIND_CHECK2,
        )


# ---------------------------------------------------------------------------
# The compiled route loop vs the Python reference loop
# ---------------------------------------------------------------------------


def test_integers_of_one_consumes_no_random_bits():
    """The compiled loop skips ``rng.integers(1)`` when one edge ties.

    That is only stream-neutral while numpy's bounded-integer sampler
    returns 0 for a range of one without drawing; this pins it, so a
    numpy that changes it fails here by name before any digest drifts.
    """
    for seed in (0, 1, 7, 12345, 2**63 - 1):
        rng = np.random.default_rng(seed)
        rng.integers(10)  # a state away from the freshly seeded one
        before = rng.bit_generator.state
        for _ in range(100):
            assert rng.integers(1) == 0
        assert rng.bit_generator.state == before


_ONE_QUBIT = ("h", "x", "s", "t")
_TWO_QUBIT = ("cx", "cz", "swap", "iswap")
_ROTATIONS_2Q = ("cp", "rzz", "rxx")


@st.composite
def _connected_couplings(draw, min_qubits=2, max_qubits=8):
    """A random spanning tree plus random chords."""
    num_qubits = draw(st.integers(min_qubits, max_qubits))
    edges = {
        tuple(sorted((qubit, draw(st.integers(0, qubit - 1)))))
        for qubit in range(1, num_qubits)
    }
    chords = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_qubits - 1), st.integers(0, num_qubits - 1)
            ).filter(lambda pair: pair[0] != pair[1]),
            max_size=num_qubits,
        )
    )
    edges.update(tuple(sorted(pair)) for pair in chords)
    return CouplingMap(sorted(edges), num_qubits=num_qubits, name="drawn")


@st.composite
def _circuits(draw, num_qubits):
    """1Q and 2Q gates, measures and barriers (some over 3+ qubits)."""
    circuit = QuantumCircuit(num_qubits, "drawn")
    qubit = st.integers(0, num_qubits - 1)
    for _ in range(draw(st.integers(0, 30))):
        op = draw(st.sampled_from(("1q", "2q", "2q", "2q", "rot", "measure",
                                   "barrier")))
        if op == "1q":
            circuit.add(draw(st.sampled_from(_ONE_QUBIT)), [draw(qubit)])
        elif op == "measure":
            circuit.append(Gate("measure", 1), [draw(qubit)])
        elif op == "barrier":
            width = draw(st.integers(1, num_qubits))
            circuit.barrier(*draw(st.permutations(range(num_qubits)))[:width])
        elif num_qubits >= 2:
            a, b = draw(st.permutations(range(num_qubits)))[:2]
            if op == "rot":
                theta = draw(st.sampled_from((0.25, 0.5, 1.0, 3.0)))
                circuit.add(draw(st.sampled_from(_ROTATIONS_2Q)), [a, b], theta)
            else:
                circuit.add(draw(st.sampled_from(_TWO_QUBIT)), [a, b])
    return circuit


def _mirror_rule(intdag, aggression, weight, coverage=COVERAGE):
    table = mirror_table(intdag, coverage)
    return route.MirrorRule(
        table.mirror_gates, table.gate_costs, table.mirror_costs, weight,
        aggression, table.gate_prices, table.mirror_prices, table.swap_price,
        coverage, table.accepted_mirror,
    )


def _run_loop(monkeypatch, module, intdag, coupling, v2p, seed, mirror, **knobs):
    """One route_kernel run with ``module`` as the compiled extension."""
    monkeypatch.setattr(route, "load_routec", lambda: module)
    rng = np.random.default_rng(seed)
    options = dict(
        extended_set_size=20,
        extended_set_weight=0.5,
        decay_delta=0.001,
        decay_reset_interval=5,
        stall_limit=10 * max(10, coupling.num_qubits),
    )
    options.update(knobs)
    state = route.route_kernel(
        intdag, neighbor_table(coupling), list(v2p), rng, mirror=mirror,
        **options,
    )
    return state, rng.bit_generator.state


def _assert_same_run(python, compiled):
    (expected, expected_rng), (got, got_rng) = python, compiled
    assert len(got.ops) == len(expected.ops)
    for (gate, physical), (want_gate, want_physical) in zip(
        got.ops, expected.ops
    ):
        # The very same gate objects: the DAG's, the shared SWAP and the
        # mirror table's per-slot mirrors.
        assert gate is want_gate
        assert physical == want_physical
        assert all(type(q) is int for q in physical)
    assert got.v2p == expected.v2p
    assert got.p2v == expected.p2v
    assert got.swaps_added == expected.swaps_added
    assert got.mirrors_accepted == expected.mirrors_accepted
    assert got.mirror_candidates == expected.mirror_candidates
    assert got.depth == expected.depth
    # The compiled loop skips ``integers(1)``; the stream must not notice.
    assert got_rng == expected_rng


@needs_routec
@settings(max_examples=250, deadline=None, derandomize=True)
@given(data=st.data())
def test_compiled_route_loop_matches_python_loop(data):
    coupling = data.draw(_connected_couplings())
    num_virtual = data.draw(st.integers(1, coupling.num_qubits))
    circuit = data.draw(_circuits(num_virtual))
    intdag = _lower(circuit)
    v2p = data.draw(st.permutations(range(coupling.num_qubits)))[:num_virtual]
    seed = data.draw(st.integers(0, 2**32 - 1))
    method = data.draw(st.sampled_from(("sabre", 0, 1, 2, 3)))
    mirror = None
    if method != "sabre":
        weight = data.draw(st.sampled_from((0, 1.0, 2.5)))
        mirror = _mirror_rule(intdag, method, weight)
    knobs = dict(
        extended_set_size=data.draw(st.sampled_from((0, 1, 20))),
        decay_reset_interval=data.draw(st.sampled_from((1, 5))),
    )
    with pytest.MonkeyPatch.context() as patch:
        python = _run_loop(patch, None, intdag, coupling, v2p, seed, mirror, **knobs)
        compiled = _run_loop(
            patch, ROUTEC, intdag, coupling, v2p, seed, mirror, **knobs
        )
    _assert_same_run(python, compiled)
    # Both loops score the depth of what they emit, bit for bit the
    # depth the metrics walk gives the op stream.
    for state, _ in (python, compiled):
        if mirror is None:
            assert state.depth is None
        else:
            assert type(state.depth) is float
            assert state.depth == ops_depth(state.ops, COVERAGE)


@needs_routec
@pytest.mark.parametrize("aggression", [1, 2])
def test_compiled_loop_keeps_mirror_near_ties(monkeypatch, aggression):
    """Mirror costs one tolerance away from the gate's, and one ulp either
    side of that: both loops must take the same side of ``1e-9``."""
    coupling = line_topology(6)
    circuit = random_two_qubit_block_circuit(6, 40, seed=11)
    intdag = _lower(circuit)
    table = mirror_table(intdag, COVERAGE)
    rng = np.random.default_rng(5)
    near = []
    for cost in (1.0, 2.5, 3.0):
        for edge in (cost - 1e-9, cost + 1e-9):
            near += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
    gate_costs, mirror_costs = list(table.gate_costs), list(table.mirror_costs)
    for slot, coordinate in enumerate(table.mirror_coords):
        if coordinate is not None:
            cost = float(rng.choice((1.0, 2.5, 3.0)))
            gate_costs[slot] = cost
            mirror_costs[slot] = float(
                rng.choice([c for c in near if abs(c - cost) < 1e-8])
            )
    accepted = rejected = 0
    for window in (0, 1, 20):
        mirror = _mirror_rule(intdag, aggression, 1.0)._replace(
            gate_costs=gate_costs, mirror_costs=mirror_costs
        )
        v2p = list(range(6))
        python = _run_loop(monkeypatch, None, intdag, coupling, v2p, 3, mirror,
                           extended_set_size=window)
        compiled = _run_loop(monkeypatch, ROUTEC, intdag, coupling, v2p, 3,
                             mirror, extended_set_size=window)
        _assert_same_run(python, compiled)
        accepted += compiled[0].mirrors_accepted
        rejected += compiled[0].mirror_candidates - compiled[0].mirrors_accepted
    assert accepted and rejected


def _error(monkeypatch, module, *args, **knobs):
    with pytest.raises(Exception) as caught:
        _run_loop(monkeypatch, module, *args, **knobs)
    return caught.value


@needs_routec
def test_compiled_loop_error_parity(monkeypatch):
    """The same ``TranspilerError`` from both loops."""
    coupling = line_topology(4)
    wide = IntDAG.from_ops(4, [(Gate("h", 1), (0,)), (Gate("ccx", 3), (0, 1, 2))])
    stalled = _lower(ghz(4).cx(0, 3))
    ghz_dag = _lower(ghz(4))
    cases = [
        ((wide, coupling, [0, 1, 2, 3], 1, None), {},
         "at most two qubits"),
        ((stalled, coupling, [0, 1, 2, 3], 1, None), {"stall_limit": 0},
         "failed to make progress"),
        ((ghz_dag, coupling, [0, 1, 2, 9], 1, None), {}, "invalid or repeated"),
        ((ghz_dag, coupling, [0, 1, 2, -1], 1, None), {}, "invalid or repeated"),
        ((ghz_dag, coupling, [0, 1, 1, 2], 1, None), {}, "invalid or repeated"),
        ((ghz_dag, coupling, [0, 1, 2], 1, None), {}, "places 3 of"),
    ]
    for args, knobs, message in cases:
        python = _error(monkeypatch, None, *args, **knobs)
        compiled = _error(monkeypatch, ROUTEC, *args, **knobs)
        assert isinstance(python, TranspilerError), message
        assert type(compiled) is type(python)
        assert str(compiled) == str(python)
        assert message in str(compiled)


@needs_routec
def test_compiled_loop_rejects_corrupt_arrays(monkeypatch):
    """A corrupt lowering raises ``TranspilerError``; it never crashes."""
    coupling = line_topology(5)
    intdag = _lower(qft(5).barrier())

    def corrupt(name, position, value):
        array = getattr(intdag, name).copy()
        array[position] = value
        return dataclasses.replace(intdag, **{name: array})

    two_qubit = int(np.flatnonzero(intdag.kind == KIND_CHECK2)[0])
    wide = intdag.num_nodes - 1  # the barrier
    bad = [
        corrupt("qubit0", two_qubit, 99),
        corrupt("qubit1", two_qubit, -7),
        corrupt("gate_ids", 0, len(intdag.gates)),
        corrupt("qargs", int(intdag.qarg_indptr[wide]), 40),
        corrupt("succ_ids", 0, intdag.num_nodes + 3),
        corrupt("succ_indptr", 1, -5),
        corrupt("qarg_indptr", wide, 10**6),
    ]
    for lowering in bad:
        for mirror in (None, _mirror_rule(intdag, 2, 1.0)):
            with pytest.raises(TranspilerError, match="route kernel"):
                _run_loop(monkeypatch, ROUTEC, lowering, coupling,
                          list(range(5)), 1, mirror)

    state = KernelState(intdag, neighbor_table(coupling), list(range(5)), 20)
    kernel = state._native
    good = [
        state.v2p, state.p2v, np.random.default_rng(0), intdag.gates,
        intdag.gate_ids, intdag.indegree, intdag.qarg_indptr, intdag.qargs,
        route.KIND_FREE, route.SWAP_GATE, 20, 0.5, 0.001, 5, 100, None,
    ]
    mirror = _mirror_rule(intdag, 2, 1.0)
    for position, value in [
        (0, [0, 1, 2, 3, 99]),
        (1, [-1] * 4),
        (4, intdag.gate_ids[:-1]),
        (5, intdag.indegree.astype(np.int64)),
        (15, mirror[:4]),
        (15, mirror._replace(gates=mirror.gates[:-1])),
        (15, mirror._replace(gate_costs=["x"] * len(intdag.gates))),
        (15, mirror._replace(mirror_prices=mirror.mirror_prices[:-1])),
        (15, mirror._replace(accepted_mirror=None)),
    ]:
        args = list(good)
        args[position] = value
        with pytest.raises(TranspilerError, match="route kernel"):
            kernel.route(*args)
    with pytest.raises(ValueError, match="aggression level 7"):
        kernel.route(*good[:15], mirror._replace(aggression=7))
    with pytest.raises(TypeError):
        kernel.route(*good[:15], mirror._replace(swap_price="x"))

    def refuse(slot):
        raise RuntimeError(f"no mirror for slot {slot}")

    # An error building an accepted mirror propagates out of the loop.
    unbuilt = mirror._replace(
        gates=[None] * len(intdag.gates), aggression=3, accepted_mirror=refuse
    )
    with pytest.raises(RuntimeError, match="no mirror for slot"):
        kernel.route(list(state.v2p), list(state.p2v), *good[2:15], unbuilt)
    # A failed call leaves the kernel usable.
    ops, swaps, mirrors, candidates, depth = kernel.route(*good)
    assert depth is None
    assert len(ops) >= intdag.num_nodes and swaps == len(ops) - intdag.num_nodes


class _ReenteringGenerator:
    """A generator whose draw tries to call back into the running kernel."""

    def __init__(self, seed, kernel_of):
        self._rng = np.random.default_rng(seed)
        self._kernel_of = kernel_of
        self.refusals = []

    def integers(self, bound):
        kernel = self._kernel_of()
        for call in (
            lambda: kernel.extended_ids([0], 3),
            lambda: kernel.swap_ties([], [], [], [], 0.5),
        ):
            try:
                call()
            except TranspilerError as error:
                self.refusals.append(str(error))
        return self._rng.integers(bound)


@needs_routec
def test_compiled_loop_refuses_reentry_from_the_draw(monkeypatch):
    coupling = line_topology(7)
    intdag = _lower(qft(7))
    states = []
    real_state = route.KernelState

    def recording_state(*args):
        states.append(real_state(*args))
        return states[-1]

    monkeypatch.setattr(route, "KernelState", recording_state)
    rng = _ReenteringGenerator(4, lambda: states[-1]._native)
    monkeypatch.setattr(route, "load_routec", lambda: ROUTEC)
    state = route.route_kernel(
        intdag, neighbor_table(coupling), list(range(7)), rng,
        extended_set_size=20, extended_set_weight=0.5, decay_delta=0.001,
        decay_reset_interval=5, stall_limit=100,
    )
    assert rng.refusals
    assert all("routing run is active" in r for r in rng.refusals)
    monkeypatch.setattr(route, "KernelState", real_state)
    reference, _ = _run_loop(monkeypatch, None, intdag, coupling, range(7), 4,
                             None, stall_limit=100)
    assert [(g, p) for g, p in state.ops] == [(g, p) for g, p in reference.ops]


class _RouteForbidden:
    """A stand-in extension whose route loop must not run."""

    def __init__(self, *arrays):
        pass

    def route(self, *args):
        raise AssertionError("compiled loop ran")


def test_disconnected_coupling_takes_the_python_loop(monkeypatch):
    """A disconnected coupling routes in Python, with the float scorer."""
    coupling = CouplingMap([(0, 1), (1, 2), (3, 4), (4, 5)], num_qubits=6)
    circuit = ghz(3).cx(0, 2).h(1)
    intdag = _lower(circuit)
    stub = types.SimpleNamespace(RouteKernel=_RouteForbidden)
    for mirror in (None, _mirror_rule(intdag, 3, 1.0)):
        expected = _run_loop(monkeypatch, None, intdag, coupling, [0, 1, 2], 9,
                             mirror)
        got = _run_loop(monkeypatch, stub, intdag, coupling, [0, 1, 2], 9,
                        mirror)
        _assert_same_run(expected, got)
        assert got[0].swaps_added
    # The same circuit on a connected coupling does take the compiled loop.
    with pytest.raises(AssertionError, match="compiled loop ran"):
        _run_loop(monkeypatch, stub, intdag, line_topology(6), [0, 1, 2], 9,
                  None)


# ---------------------------------------------------------------------------
# The build-on-first-use loader
# ---------------------------------------------------------------------------


def _fresh_loader(monkeypatch, cache_home):
    """Forget this process's loader result and point the cache elsewhere."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
    monkeypatch.setattr(native, "_loaded", native._UNSET)


def _pinned_config_digest():
    result = transpile(
        qft(5),
        grid_topology(2, 3),
        method="mirage",
        layout_trials=2,
        use_vf2=False,
        coverage=COVERAGE,
        seed=7,
    )
    return _digest(result, with_matrices=False)


def _assert_one_warning_fallback(caplog):
    with caplog.at_level(logging.WARNING, logger=native.__name__):
        assert native.load_routec() is None
        assert native.load_routec() is None
        assert _pinned_config_digest() == PINNED_SHA256
    warnings = [r for r in caplog.records if r.name == native.__name__]
    assert len(warnings) == 1
    assert "pure-Python" in warnings[0].getMessage()


def test_loader_falls_back_when_the_compiler_fails(monkeypatch, tmp_path, caplog):
    _fresh_loader(monkeypatch, tmp_path)
    monkeypatch.setattr(
        native,
        "compiler_command",
        lambda: [sys.executable, "-c", "import sys; sys.exit(3)"],
    )
    _assert_one_warning_fallback(caplog)
    # The failed build left no partial binary behind.
    assert list((tmp_path / "mirage-native").iterdir()) == []


def test_loader_falls_back_when_the_cache_is_unwritable(
    monkeypatch, tmp_path, caplog
):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    _fresh_loader(monkeypatch, blocker)
    _assert_one_warning_fallback(caplog)


@needs_routec
def test_loader_never_loads_a_binary_built_from_other_source(
    monkeypatch, tmp_path
):
    _fresh_loader(monkeypatch, tmp_path)
    # Plant the binary of the shipped source under its own cache name.
    planted = native.binary_path(native.SOURCE.read_bytes())
    planted.parent.mkdir(parents=True)
    shutil.copy(ROUTEC.__file__, planted)
    # A different source version must build and load its own binary.
    edited = tmp_path / "_routec.c"
    edited.write_bytes(native.SOURCE.read_bytes() + b"\n/* edited */\n")
    monkeypatch.setattr(native, "SOURCE", edited)
    builds = []
    real_compile = native._compile

    def counting_compile(path):
        builds.append(path)
        real_compile(path)

    monkeypatch.setattr(native, "_compile", counting_compile)
    module = native.load_routec()
    expected = native.binary_path(edited.read_bytes())
    assert expected != planted
    assert builds == [expected]
    assert Path(module.__file__) == expected
    assert sorted(p.name for p in planted.parent.iterdir()) == sorted(
        [planted.name, expected.name]
    )


def test_compiled_scorer_loads_when_a_compiler_is_on_path():
    """A silent fallback must not hide a broken build where one can work."""
    has_compiler = any(shutil.which(cc) for cc in ("cc", "gcc", "clang"))
    has_headers = Path(sysconfig.get_paths()["include"], "Python.h").exists()
    if not (has_compiler and has_headers):
        pytest.skip("no C compiler or Python headers on this machine")
    assert ROUTEC is not None
    assert isinstance(ROUTEC.RouteKernel, type)
