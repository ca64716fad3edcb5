"""Trial-invariant mirror data and lazy routed DAGs.

Covers:

* the per-circuit :class:`~repro.core.mirage_pass.MirrorTable` equals the
  scalar chain ``gate_coordinate`` -> ``mirror_coordinate`` -> ``cost_of``
  on forward and reverse lowerings, under two coverage sets;
* deterministic performance invariants that need no timing: one
  coverage query per circuit across both routing directions and every
  run, one coverage row per distinct coordinate in the table and in the
  metrics walk, mirror gates built only for accepted slots, no
  ``DAGCircuit`` built while refining or scoring trials, and a pickled
  :class:`~repro.transpiler.passes.RoutingResult` that carries ops only;
* the ops-based depth metric, and the depth the route loop scores,
  equal ``evaluate(dag).depth`` exactly; ``DepthMetric`` uses the scored
  depth only under the coverage set that priced it.
"""

import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.circuits.circuit import OpList, random_two_qubit_block_circuit
from repro.circuits.dag import DAGCircuit
from repro.circuits.gates import Gate, UnitaryGate
from repro.circuits.library import TABLE_III_SUITE, qft, twolocal_full
from repro.core import MirageSwap, prepare_circuit
from repro.core import mirage_pass
from repro.core.mirage_pass import mirror_table
from repro.core.pipeline import MirageRouterFactory
from repro.linalg import haar_unitary
from repro.polytopes import get_coverage_set
from repro.polytopes.coverage import CoverageSet
from repro.transpiler import Layout, grid_topology, heavy_hex_topology
from repro.transpiler.kernel import IntDAG
from repro.transpiler.kernel.intdag import KIND_CHECK2
from repro.transpiler import metrics as metrics_mod
from repro.transpiler.kernel.route import SWAP_GATE
from repro.transpiler.metrics import evaluate, gate_coordinate, ops_depth
from repro.transpiler.passes import DepthMetric, SabreLayout, SabreSwap, run_trial
from repro.weyl.mirror import mirror_coordinate

COVERAGE = get_coverage_set("sqrt_iswap", num_samples=250, seed=3)


def _seca():
    (spec,) = [spec for spec in TABLE_III_SUITE if spec.name == "seca"]
    return prepare_circuit(spec.build())


CIRCUITS = {
    "qft8": lambda: qft(8),
    "twolocal6": lambda: twolocal_full(6),
    "random6": lambda: random_two_qubit_block_circuit(6, 20, seed=5),
    "seca": _seca,
}


@pytest.fixture(scope="module", params=["default", "small"])
def coverage(request):
    if request.param == "default":
        return get_coverage_set("sqrt_iswap")
    return COVERAGE


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_table_matches_scalar_chain(name, coverage):
    forward = IntDAG.from_dag(DAGCircuit.from_circuit(CIRCUITS[name]()))
    for intdag in (forward, forward.reversed()):
        table = mirror_table(intdag, coverage)
        assert mirror_table(intdag, coverage) is table  # memoised
        unit = coverage.unit_cost
        slots = {
            int(intdag.gate_ids[i])
            for i in range(intdag.num_nodes)
            if intdag.kind[i] == KIND_CHECK2
        }
        assert slots
        for slot in range(len(intdag.gates)):
            if slot not in slots:
                assert table.mirror_coords[slot] is None
                continue
            coordinate = gate_coordinate(intdag.gates[slot])
            mirrored = mirror_coordinate(coordinate)
            assert table.mirror_coords[slot] == mirrored
            assert table.gate_costs[slot] == coverage.cost_of(coordinate) / unit
            assert table.mirror_costs[slot] == coverage.cost_of(mirrored) / unit
            assert table.gate_prices[slot] == coverage.cost_of(coordinate)
            assert table.mirror_prices[slot] == coverage.cost_of(mirrored)
        assert table.swap_price == coverage.cost_of(gate_coordinate(SWAP_GATE))


def test_coverage_sets_get_distinct_tables():
    intdag = IntDAG.from_dag(DAGCircuit.from_circuit(qft(6)))
    default = mirror_table(intdag, get_coverage_set("sqrt_iswap"))
    small = mirror_table(intdag, COVERAGE)
    assert default is not small
    assert mirror_table(intdag, COVERAGE) is small
    assert mirror_table(intdag, get_coverage_set("sqrt_iswap")) is default


@pytest.fixture
def cost_many_calls(monkeypatch):
    calls = []
    original = CoverageSet.cost_of_many

    def counting(self, coordinates):
        calls.append(len(np.atleast_2d(np.asarray(coordinates, dtype=float))))
        return original(self, coordinates)

    monkeypatch.setattr(CoverageSet, "cost_of_many", counting)
    return calls


def test_coverage_queries_per_route_run_are_bounded(cost_many_calls):
    """One batched query per lowering, then none: independent of commits."""
    coupling = grid_topology(3, 3)
    router = MirageSwap(coupling, coverage=COVERAGE)
    for circuit in (qft(4), qft(8), twolocal_full(8)):
        dag = DAGCircuit.from_circuit(circuit)
        lowering = IntDAG.from_dag(dag)
        layout = Layout.random(dag.num_qubits, coupling.num_qubits, seed=1)
        del cost_many_calls[:]
        candidates = 0
        for seed in range(4):
            result = router.run(lowering, layout, seed=seed)
            candidates += result.mirror_candidates
            assert len(cost_many_calls) <= 1
        # Every two-qubit gate is a candidate in every run.
        assert candidates == 4 * len(dag.two_qubit_nodes())
        assert len(cost_many_calls) == 1


def _distinct(values):
    return list(dict.fromkeys(values))


def test_one_coverage_query_per_circuit_across_directions(cost_many_calls):
    """Forward and reverse lowerings share one table: one batched query
    (each distinct coordinate among the two-qubit slots and their
    mirrors, plus the SWAP) serves every run."""
    coupling = grid_topology(3, 4)
    router = MirageSwap(coupling, coverage=COVERAGE)
    for circuit in (qft(6), twolocal_full(7), _seca()):
        forward = IntDAG.from_dag(DAGCircuit.from_circuit(circuit))
        reverse = forward.reversed()
        del cost_many_calls[:]
        layout = Layout.random(forward.num_qubits, coupling.num_qubits, seed=3)
        for seed in range(3):
            layout = router.run(forward, layout, seed=seed).final_layout
            layout = router.run(reverse, layout, seed=seed).final_layout
        slots = set(forward.gate_ids[forward.kind == KIND_CHECK2].tolist())
        coordinates = _distinct(
            gate_coordinate(forward.gates[slot]) for slot in sorted(slots)
        )
        mirrored = [mirror_coordinate(c) for c in coordinates]
        rows = len(_distinct(coordinates + mirrored))
        assert rows < 2 * len(slots)
        assert cost_many_calls == [rows + 1]
        assert mirror_table(reverse, COVERAGE) is mirror_table(forward, COVERAGE)


def test_walk_prices_each_distinct_gate_once(cost_many_calls):
    coupling = heavy_hex_topology(12)
    dag = DAGCircuit.from_circuit(random_two_qubit_block_circuit(7, 25, seed=4))
    layout = Layout.random(7, coupling.num_qubits, seed=4)
    result = MirageSwap(coupling, coverage=COVERAGE, aggression=2).run(
        dag, layout, seed=4
    )
    ops = result.ops + result.ops  # every gate object appears twice
    distinct = {
        gate_coordinate(gate) for gate, qubits in ops
        if len(qubits) == 2 and not gate.is_directive
    }
    assert result.swaps_added  # the shared SWAP gate is among them
    del cost_many_calls[:]
    metrics = evaluate(ops, coverage=COVERAGE)
    assert cost_many_calls == [len(distinct)]
    # Fanning the prices back out is exact: the per-op total is unchanged.
    costs = [
        COVERAGE.cost_of(gate_coordinate(gate)) for gate, qubits in ops
        if len(qubits) == 2 and not gate.is_directive
    ]
    assert metrics.total_cost == float(sum(costs))


def _per_op_reference(ops, coverage):
    """Total cost and depth, each op priced by its own scalar query."""
    wire = {}
    total = 0.0
    for gate, qubits in ops:
        if len(qubits) != 2:
            continue
        price = coverage.cost_of(gate_coordinate(gate))
        total += price
        a, b = qubits
        wire[a] = wire[b] = max(wire.get(a, 0.0), wire.get(b, 0.0)) + price
    return float(total), max(wire.values(), default=0.0)


def _block(coordinate, seed=0):
    matrix = haar_unitary(4, np.random.default_rng(seed))
    return UnitaryGate(matrix, label="block", check=False, coordinate=coordinate)


def test_walk_prices_equal_coordinates_once(cost_many_calls):
    """Distinct gate objects with equal coordinates, and coordinates that
    differ only in the sign of a zero, take one row each and the price
    the per-op scalar query gives."""
    coverage = get_coverage_set("sqrt_iswap", num_samples=250, seed=3)
    cx = Gate("cx", 2)
    ops = [
        (_block((0.5, 0.25, 0.0), seed=1), (0, 1)),
        (_block((0.5, 0.25, 0.0), seed=2), (1, 2)),
        (cx, (0, 2)),
        (Gate("cx", 2), (2, 1)),
        (_block((0.3, 0.0, 0.0)), (0, 1)),
        (_block((0.3, -0.0, 0.0)), (1, 2)),
        (_block((-0.0, 0.0, 0.0)), (0, 2)),
        (_block((0.0, 0.0, 0.0)), (0, 1)),
        (_block((0.5, 0.25, -0.0), seed=3), (2, 0)),
        (cx, (1, 0)),
    ]
    del cost_many_calls[:]
    metrics = evaluate(ops, coverage=coverage)
    assert cost_many_calls == [4]
    assert (metrics.total_cost, metrics.depth) == _per_op_reference(
        ops, coverage
    )


def test_table_prices_equal_coordinates_once(cost_many_calls):
    """Slots whose coordinates are equal, or differ only in the sign of a
    zero, share one row, and every slot still matches the scalar chain
    bit for bit."""
    coverage = get_coverage_set("sqrt_iswap", num_samples=250, seed=3)
    gates = [
        _block((0.5, 0.25, 0.0), seed=1),
        _block((0.5, 0.25, -0.0), seed=2),
        _block((0.3, 0.0, 0.0), seed=3),
        _block((0.3, -0.0, -0.0), seed=4),
        Gate("cx", 2),
        Gate("iswap", 2),
    ]
    pairs = [(0, 1), (1, 2), (2, 0)]
    ops = [(gate, pairs[i % 3]) for i, gate in enumerate(gates)]
    intdag = IntDAG.from_ops(3, ops)
    del cost_many_calls[:]
    table = mirror_table(intdag, coverage)
    # Gates: 4 distinct coordinates; mirrors: cx <-> iswap coincide with
    # gates, the two blocks add 2 more; plus the SWAP.
    assert cost_many_calls == [4 + 2 + 1]
    for slot, gate in enumerate(intdag.gates):
        coordinate = gate_coordinate(gate)
        mirrored = mirror_coordinate(coordinate)
        assert np.array(table.mirror_coords[slot]).tobytes() == (
            np.array(mirrored).tobytes()
        )
        assert table.gate_prices[slot] == coverage.cost_of(coordinate)
        assert table.mirror_prices[slot] == coverage.cost_of(mirrored)


@pytest.mark.parametrize("aggression", [1, 2, 3])
def test_mirror_gates_are_built_on_acceptance(monkeypatch, aggression):
    """A fresh table holds no mirror gate; after routing only the slots
    whose mirror some run accepted hold one, each built once and equal to
    ``mirror_gate(gate, coordinate)``, and every run emits that object."""
    built = []
    original = mirage_pass.mirror_gate

    def counting(gate, coordinate):
        built.append(gate)
        return original(gate, coordinate)

    monkeypatch.setattr(mirage_pass, "mirror_gate", counting)
    coupling = heavy_hex_topology(12)
    forward = IntDAG.from_dag(
        DAGCircuit.from_circuit(random_two_qubit_block_circuit(7, 30, seed=9))
    )
    table = mirror_table(forward, COVERAGE)
    assert table.mirror_gates == [None] * len(forward.gates)
    router = MirageSwap(coupling, coverage=COVERAGE, aggression=aggression)
    emitted = set()
    layout = Layout.random(7, coupling.num_qubits, seed=9)
    for seed in range(3):
        for lowering in (forward, forward.reversed()):
            result = router.run(lowering, layout, seed=seed)
            layout = result.final_layout
            emitted |= {id(gate) for gate, _ in result.ops}
    accepted = [
        slot for slot, gate in enumerate(table.mirror_gates) if gate is not None
    ]
    assert accepted and len(built) == len(accepted)
    if aggression < 3:
        assert any(
            table.mirror_gates[slot] is None
            for slot in forward.gate_ids[forward.kind == KIND_CHECK2].tolist()
        )
    for slot in accepted:
        gate, reference = table.mirror_gates[slot], original(
            forward.gates[slot], table.mirror_coords[slot]
        )
        assert id(gate) in emitted
        assert gate.matrix().tobytes() == reference.matrix().tobytes()
        assert gate.name == reference.name
        assert gate.coordinate == reference.coordinate


class _CountingInit:
    def __init__(self, monkeypatch):
        self.count = 0
        original = DAGCircuit.__init__

        def init(dag, *args, **kwargs):
            self.count += 1
            original(dag, *args, **kwargs)

        monkeypatch.setattr(DAGCircuit, "__init__", init)


def test_trials_build_no_dag_until_the_winner_is_read(monkeypatch):
    coupling = heavy_hex_topology(12)
    factory = MirageRouterFactory(coupling, COVERAGE, (1,))
    layout_search = SabreLayout(
        coupling,
        factory,
        layout_trials=1,
        refinement_rounds=3,
        routing_trials=2,
        selection_metric=DepthMetric(coverage=COVERAGE),
        seed=4,
    )
    spec = layout_search.trial_spec(DAGCircuit.from_circuit(qft(6)))
    (ref,) = layout_search.trial_refs()
    counter = _CountingInit(monkeypatch)
    outcome = run_trial(spec, ref)
    assert counter.count == 0
    outcome.routing.dag
    assert counter.count == 1


@pytest.mark.parametrize("shipped_lowering", [True, False])
def test_run_trial_builds_no_dag(monkeypatch, shipped_lowering):
    """Neither direction of any refinement round builds a ``DAGCircuit``,
    whether the spec went through a pickle (as a worker receives it) or
    stays in process."""
    coupling = heavy_hex_topology(12)
    factory = MirageRouterFactory(coupling, COVERAGE, (1, 2))
    layout_search = SabreLayout(
        coupling,
        factory,
        layout_trials=2,
        refinement_rounds=2,
        routing_trials=2,
        selection_metric=DepthMetric(coverage=COVERAGE),
        seed=6,
    )
    lowered = OpList.of(twolocal_full(7))
    spec = layout_search.trial_spec(
        IntDAG.from_ops(lowered.num_qubits, lowered.ops), lowered.name
    )
    if shipped_lowering:
        spec = pickle.loads(pickle.dumps(spec))
    counter = _CountingInit(monkeypatch)
    for ref in layout_search.trial_refs():
        run_trial(spec, ref)
    assert counter.count == 0


def test_threads_share_the_reverse_and_table_memos_safely():
    """Trials racing on one fresh lowering (its reverse, its mirror table
    and the mirror gates built on acceptance) under a tiny switch
    interval give the serial outcomes, and every mirror gate any of them
    emitted is the one object the table holds for its slot."""
    coupling = heavy_hex_topology(12)
    factory = MirageRouterFactory(coupling, COVERAGE, (1, 2, 3))
    layout_search = SabreLayout(
        coupling,
        factory,
        layout_trials=8,
        refinement_rounds=2,
        selection_metric=DepthMetric(coverage=COVERAGE),
        seed=12,
    )
    refs = layout_search.trial_refs()

    emitted = []

    def outcomes(spec, runner):
        results = list(runner(lambda ref: run_trial(spec, ref), refs))
        emitted.extend(g for o in results for g, _ in o.routing.ops)
        return [(o.score, [(g.name, q) for g, q in o.routing.ops])
                for o in results]

    circuit = twolocal_full(8)
    expected = outcomes(
        layout_search.trial_spec(DAGCircuit.from_circuit(circuit)), map
    )
    del emitted[:]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        spec = layout_search.trial_spec(DAGCircuit.from_circuit(circuit))
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = outcomes(spec, lambda fn, items: list(
                pool.map(fn, items, timeout=120)
            ))
    finally:
        sys.setswitchinterval(interval)
    assert got == expected
    built = {id(g) for g in mirror_table(spec.intdag, COVERAGE).mirror_gates}
    mirrors = [g for g in emitted if g.name.endswith("_mirror")]
    assert mirrors and all(id(g) in built for g in mirrors)


def test_depth_metric_uses_the_scored_depth_only_for_its_own_coverage(
    monkeypatch,
):
    coupling = heavy_hex_topology(12)
    dag = DAGCircuit.from_circuit(random_two_qubit_block_circuit(7, 25, seed=2))
    layout = Layout.random(7, coupling.num_qubits, seed=2)
    result = MirageSwap(coupling, coverage=COVERAGE, aggression=2).run(
        dag, layout, seed=2
    )
    assert result.depth_coverage is COVERAGE
    assert result.depth == ops_depth(result.ops, COVERAGE)

    other = get_coverage_set("iswap", num_samples=250, seed=3)
    expected = ops_depth(result.ops, other)
    assert DepthMetric(coverage=other)(result) == expected
    # Sanity: the two coverage sets price this circuit differently, so
    # handing back the router's depth would be caught.
    assert expected != result.depth

    # Under its own coverage set the metric never walks the ops.
    def forbidden(*args, **kwargs):
        raise AssertionError("re-walked the routed ops")

    monkeypatch.setattr(metrics_mod, "ops_depth", forbidden)
    assert DepthMetric(coverage=COVERAGE)(result) == result.depth

    # The coverage reference and the depth stay out of the pickle.
    clone = pickle.loads(pickle.dumps(result))
    assert clone.depth is None and clone.depth_coverage is None
    monkeypatch.undo()
    assert DepthMetric(coverage=COVERAGE)(clone) == result.depth


def test_routing_result_pickles_one_representation():
    """A routing result pickles its op list, never a DAG, even after
    its ``dag`` has been read."""
    coupling = grid_topology(2, 3)
    dag = DAGCircuit.from_circuit(twolocal_full(5))
    layout = Layout.random(5, 6, seed=2)
    result = MirageSwap(coupling, coverage=COVERAGE).run(dag, layout, seed=8)
    built = result.dag

    clone = pickle.loads(pickle.dumps(result))
    assert not [v for v in vars(clone).values() if isinstance(v, DAGCircuit)]

    def stream(routed):
        return [
            (node.gate.name, node.qubits, node.gate.matrix().tobytes())
            for node in routed.dag.nodes.values()
        ]

    assert stream(clone) == stream(result)
    assert clone.dag._successors == built._successors
    assert clone.final_layout.virtual_to_physical() == (
        result.final_layout.virtual_to_physical()
    )
    assert (clone.swaps_added, clone.mirrors_accepted) == (
        result.swaps_added,
        result.mirrors_accepted,
    )


@pytest.mark.parametrize("router_kind", ["sabre", "mirage"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ops_depth_equals_evaluated_depth(router_kind, seed):
    coupling = heavy_hex_topology(12)
    dag = DAGCircuit.from_circuit(
        random_two_qubit_block_circuit(7, 25, seed=seed)
    )
    layout = Layout.random(7, coupling.num_qubits, seed=seed)
    router = (
        SabreSwap(coupling)
        if router_kind == "sabre"
        else MirageSwap(coupling, coverage=COVERAGE, aggression=seed)
    )
    result = router.run(dag, layout, seed=seed)
    depth = ops_depth(result.ops, COVERAGE)
    assert depth == evaluate(result.dag, coverage=COVERAGE).depth
    # After materialisation the op stream is read back from the DAG.
    assert ops_depth(result.ops, COVERAGE) == depth
