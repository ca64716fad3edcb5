"""Trial-invariant mirror data and lazy routed DAGs.

Covers:

* the per-circuit :class:`~repro.core.mirage_pass.MirrorTable` equals the
  scalar chain ``gate_coordinate`` -> ``mirror_coordinate`` -> ``cost_of``
  on forward and reverse lowerings, under two coverage sets;
* deterministic performance invariants that need no timing: a bounded
  number of coverage queries per MIRAGE route run, no ``DAGCircuit``
  built while refining or scoring trials, and one representation per
  pickled :class:`~repro.transpiler.passes.RoutingResult`;
* the ops-based depth metric equals ``evaluate(dag).depth`` exactly.
"""

import pickle

import numpy as np
import pytest

from repro.circuits.circuit import random_two_qubit_block_circuit
from repro.circuits.dag import DAGCircuit
from repro.circuits.library import TABLE_III_SUITE, qft, twolocal_full
from repro.core import MirageSwap, prepare_circuit
from repro.core.mirage_pass import mirror_table
from repro.core.pipeline import MirageRouterFactory
from repro.polytopes import get_coverage_set
from repro.polytopes.coverage import CoverageSet
from repro.transpiler import Layout, grid_topology, heavy_hex_topology
from repro.transpiler.kernel import int_dag
from repro.transpiler.kernel.intdag import KIND_CHECK2
from repro.transpiler.metrics import evaluate, gate_coordinate, ops_depth
from repro.transpiler.passes import DepthMetric, SabreLayout, SabreSwap, run_trial
from repro.transpiler.passes.sabre_layout import _reverse_dag
from repro.weyl.mirror import mirror_coordinate

COVERAGE = get_coverage_set("sqrt_iswap", num_samples=250, seed=3)


@pytest.fixture(autouse=True)
def _flat_kernel(monkeypatch):
    """The invariants below are properties of the flat kernel."""
    monkeypatch.setenv("MIRAGE_ROUTE_KERNEL", "flat")


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
    forward = DAGCircuit.from_circuit(CIRCUITS[name]())
    for dag in (forward, _reverse_dag(forward)):
        intdag = int_dag(dag)
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


def test_coverage_sets_get_distinct_tables():
    intdag = int_dag(DAGCircuit.from_circuit(qft(6)))
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
        layout = Layout.random(dag.num_qubits, coupling.num_qubits, seed=1)
        del cost_many_calls[:]
        candidates = 0
        for seed in range(4):
            result = router.run(dag, layout, seed=seed)
            candidates += result.mirror_candidates
            assert len(cost_many_calls) <= 1
        # Every two-qubit gate is a candidate in every run.
        assert candidates == 4 * len(dag.two_qubit_nodes())
        assert len(cost_many_calls) == 1


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
    routed = outcome.routing.dag
    assert counter.count == 1
    assert outcome.routing.dag is routed


def test_routing_result_pickles_one_representation():
    coupling = grid_topology(2, 3)
    dag = DAGCircuit.from_circuit(twolocal_full(5))
    layout = Layout.random(5, 6, seed=2)
    result = MirageSwap(coupling, coverage=COVERAGE).run(dag, layout, seed=8)

    lazy = pickle.loads(pickle.dumps(result))
    assert vars(lazy)["_dag"] is None and vars(lazy)["_ops"] is not None

    built = result.dag
    eager = pickle.loads(pickle.dumps(result))
    assert vars(eager)["_dag"] is not None and vars(eager)["_ops"] is None

    def stream(routed):
        return [
            (node.gate.name, node.qubits, node.gate.matrix().tobytes())
            for node in routed.dag.nodes.values()
        ]

    assert stream(lazy) == stream(eager) == stream(result)
    assert lazy.dag._successors == built._successors
    assert lazy.final_layout.virtual_to_physical() == (
        result.final_layout.virtual_to_physical()
    )
    assert (lazy.swaps_added, lazy.mirrors_accepted) == (
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
