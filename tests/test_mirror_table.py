"""Trial-invariant mirror data and lazy routed DAGs.

Covers:

* the per-circuit :class:`~repro.core.mirage_pass.MirrorTable` equals the
  scalar chain ``gate_coordinate`` -> ``mirror_coordinate`` -> ``cost_of``
  on forward and reverse lowerings, under two coverage sets;
* deterministic performance invariants that need no timing: one
  coverage query per circuit across both routing directions and every
  run, one coverage row per distinct gate in the metrics walk, no
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
from repro.circuits.library import TABLE_III_SUITE, qft, twolocal_full
from repro.core import MirageSwap, prepare_circuit
from repro.core.mirage_pass import mirror_table
from repro.core.pipeline import MirageRouterFactory
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


def test_one_coverage_query_per_circuit_across_directions(cost_many_calls):
    """Forward and reverse lowerings share one table: one batched query
    (every two-qubit slot, its mirror and the SWAP) serves every run."""
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
        slots = len(set(forward.gate_ids[forward.kind == KIND_CHECK2].tolist()))
        assert cost_many_calls == [2 * slots + 1]
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
        id(gate) for gate, qubits in ops
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
    """Trials racing on one fresh lowering (its reverse, its mirror table)
    under a tiny switch interval give the serial outcomes."""
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

    def outcomes(spec, runner):
        return [
            (o.score, [(g.name, q) for g, q in o.routing.ops])
            for o in runner(lambda ref: run_trial(spec, ref), refs)
        ]

    circuit = twolocal_full(8)
    expected = outcomes(
        layout_search.trial_spec(DAGCircuit.from_circuit(circuit)), map
    )
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
