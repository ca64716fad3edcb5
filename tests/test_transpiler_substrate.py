"""Tests for topologies, layouts, metrics, cleanup/unroll/consolidate passes."""

import pytest

from repro.exceptions import TranspilerError
from repro.circuits import QuantumCircuit
from repro.circuits.library import ghz, qft
from repro.linalg import equal_up_to_global_phase
from repro.polytopes import CoordinateCache, get_coverage_set
from repro.transpiler import (
    CouplingMap,
    Layout,
    all_to_all_topology,
    evaluate,
    grid_topology,
    heavy_hex_topology,
    improvement,
    interaction_graph,
    line_topology,
    ring_topology,
    square_lattice_topology,
    topology_by_name,
    vf2_layout,
)
from repro.transpiler.passes import (
    clean_input,
    consolidate_blocks,
    elide_input_swaps,
    unroll_to_two_qubit,
)


# ---------------------------------------------------------------------------
# Topologies
# ---------------------------------------------------------------------------


def test_line_ring_grid_shapes():
    line = line_topology(5)
    assert line.num_qubits == 5
    assert line.distance(0, 4) == 4
    ring = ring_topology(6)
    assert ring.distance(0, 3) == 3
    assert ring.distance(0, 5) == 1
    grid = grid_topology(3, 4)
    assert grid.num_qubits == 12
    assert grid.distance(0, 11) == 5


def test_square_lattice_default_size():
    lattice = square_lattice_topology()
    assert lattice.num_qubits == 36
    assert lattice.is_connected_graph()
    degrees = [lattice.degree(q) for q in range(36)]
    assert max(degrees) == 4


def test_heavy_hex_properties():
    heavy = heavy_hex_topology(57)
    assert heavy.num_qubits == 57
    assert heavy.is_connected_graph()
    # Heavy-hex is sparse: degree never exceeds 3.
    assert max(heavy.degree(q) for q in range(57)) <= 3


def test_all_to_all_distances():
    full = all_to_all_topology(5)
    assert full.distance(0, 4) == 1


def test_coupling_map_validation():
    with pytest.raises(TranspilerError):
        CouplingMap([(0, 0)])
    with pytest.raises(TranspilerError):
        CouplingMap([(0, 3)], num_qubits=2)
    with pytest.raises(TranspilerError):
        ring_topology(2)


def test_coupling_map_rejects_negative_qubit_indices():
    for edges in ([(-1, 1), (1, 2), (0, 2)], [(0, 1), (1, -2)]):
        with pytest.raises(TranspilerError, match="negative qubit index"):
            CouplingMap(edges, 3)
        with pytest.raises(TranspilerError, match="negative qubit index"):
            CouplingMap(edges)


def test_topology_by_name():
    assert topology_by_name("line", 5).num_qubits == 5
    assert topology_by_name("square", 30).num_qubits == 36
    assert topology_by_name("heavy-hex", 57).num_qubits == 57
    assert topology_by_name("a2a", 4).distance(0, 3) == 1
    with pytest.raises(TranspilerError):
        topology_by_name("torus", 9)


# ---------------------------------------------------------------------------
# Layout and VF2
# ---------------------------------------------------------------------------


def test_layout_swap_physical_and_virtual():
    layout = Layout([2, 0, 1], 4)
    assert layout.v2p(0) == 2
    assert layout.p2v(2) == 0
    layout.swap_physical(2, 3)
    assert layout.v2p(0) == 3
    assert layout.p2v(2) is None
    layout.swap_virtual(0, 1)
    assert layout.v2p(1) == 3
    assert layout.v2p(0) == 0


def test_layout_validation_and_copy():
    with pytest.raises(TranspilerError):
        Layout([0, 0], 2)
    with pytest.raises(TranspilerError):
        Layout([0, 5], 2)
    layout = Layout.trivial(3, 5)
    clone = layout.copy()
    clone.swap_physical(0, 1)
    assert layout.v2p(0) == 0
    assert clone != layout
    random_layout = Layout.random(3, 5, seed=1)
    assert len(set(random_layout.virtual_to_physical())) == 3


def test_interaction_graph_and_vf2_success():
    circuit = ghz(4)  # linear chain of CNOTs
    graph = interaction_graph(circuit)
    assert graph.number_of_edges() == 3
    layout = vf2_layout(circuit, line_topology(4))
    assert layout is not None
    # Every program edge must land on a hardware edge.
    coupling = line_topology(4)
    for a, b in graph.edges:
        assert coupling.are_connected(layout.v2p(a), layout.v2p(b))


def test_vf2_fails_for_star_on_line():
    circuit = QuantumCircuit(4)
    for target in range(1, 4):
        circuit.cx(0, target)
    assert vf2_layout(circuit, line_topology(4)) is None


def test_vf2_trivial_for_gate_free_circuit():
    circuit = QuantumCircuit(3)
    circuit.h(0)
    layout = vf2_layout(circuit, line_topology(3))
    assert layout is not None


def test_vf2_rejects_oversized_circuit():
    assert vf2_layout(ghz(5), line_topology(3)) is None


# ---------------------------------------------------------------------------
# Cleaning / unrolling / consolidation passes
# ---------------------------------------------------------------------------


def test_remove_identity_and_directives():
    circuit = QuantumCircuit(2)
    circuit.id(0).rz(0.0, 1).h(0).barrier().measure_all()
    cleaned = clean_input(circuit)
    assert cleaned.count_ops() == {"h": 1}


def test_elide_input_swaps_permutes_downstream():
    circuit = QuantumCircuit(3)
    circuit.cx(0, 1).swap(0, 2).cx(0, 1)
    elided = elide_input_swaps(circuit)
    assert "swap" not in elided.count_ops()
    assert elided.instructions[1].qubits == (2, 1)


def test_unroll_toffoli_matches_matrix():
    circuit = QuantumCircuit(3)
    circuit.ccx(0, 1, 2)
    unrolled = unroll_to_two_qubit(circuit)
    assert all(len(instr.qubits) <= 2 for instr in unrolled)
    assert equal_up_to_global_phase(unrolled.to_matrix(), circuit.to_matrix())


def test_unroll_fredkin_and_ccz_match_matrices():
    for builder in ("cswap", "ccz"):
        circuit = QuantumCircuit(3)
        getattr(circuit, builder)(0, 1, 2)
        unrolled = unroll_to_two_qubit(circuit)
        assert equal_up_to_global_phase(
            unrolled.to_matrix(), circuit.to_matrix(), atol=1e-7
        )


def test_consolidate_blocks_preserves_unitary_and_annotates():
    circuit = QuantumCircuit(3)
    circuit.h(0).cx(0, 1).rz(0.3, 1).cx(0, 1).cx(1, 2).h(2)
    cache = CoordinateCache()
    blocks = consolidate_blocks(circuit, cache=cache)
    assert equal_up_to_global_phase(blocks.to_matrix(), circuit.to_matrix())
    block_gates = [instr.gate for instr in blocks if instr.is_two_qubit]
    # cx(0,1) rz cx(0,1) merge into one block; cx(1,2) h(2) into another.
    assert len(block_gates) == 2
    assert all(gate.coordinate is not None for gate in block_gates)


def test_consolidate_reduces_two_qubit_count_on_qft():
    circuit = qft(5)
    blocks = consolidate_blocks(circuit)
    assert blocks.num_two_qubit_gates() <= circuit.num_two_qubit_gates()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def test_metrics_known_costs_in_sqrt_iswap_basis():
    coverage = get_coverage_set("sqrt_iswap", num_samples=250, seed=3)
    circuit = QuantumCircuit(2)
    circuit.cx(0, 1)
    metrics = evaluate(circuit, coverage=coverage)
    assert metrics.depth == pytest.approx(1.0)
    assert metrics.total_cost == pytest.approx(1.0)
    assert metrics.swap_count == 0

    swap_circuit = QuantumCircuit(2)
    swap_circuit.swap(0, 1)
    swap_metrics = evaluate(swap_circuit, coverage=coverage)
    assert swap_metrics.depth == pytest.approx(1.5)
    assert swap_metrics.swap_count == 1


def test_metrics_depth_accounts_for_parallelism():
    coverage = get_coverage_set("sqrt_iswap", num_samples=250, seed=3)
    circuit = QuantumCircuit(4)
    circuit.cx(0, 1).cx(2, 3)  # parallel pair
    metrics = evaluate(circuit, coverage=coverage)
    assert metrics.depth == pytest.approx(1.0)
    assert metrics.total_cost == pytest.approx(2.0)
    assert metrics.gate_depth == 1


def test_improvement_report():
    coverage = get_coverage_set("sqrt_iswap", num_samples=250, seed=3)
    a = QuantumCircuit(2)
    a.cx(0, 1).swap(0, 1)
    b = QuantumCircuit(2)
    b.cx(0, 1)
    before = evaluate(a, coverage=coverage)
    after = evaluate(b, coverage=coverage)
    gains = improvement(before, after)
    assert gains["depth"] > 0
    assert gains["swap_count"] == 1.0
