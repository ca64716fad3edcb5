"""Tests for the staged pipeline, trial executors and the batch API."""

import importlib

import pytest

from repro.exceptions import InvalidModeError, TranspilerError
from repro.circuits import OpList, QuantumCircuit
from repro.circuits.library import ghz, qft, twolocal_full
from repro.core import (
    build_batch_back_pipeline,
    build_batch_front_pipeline,
    compare_methods,
    prepare_circuit,
    transpile,
    transpile_many,
)
from repro.core import pipeline as pipeline_mod
from repro.polytopes import get_coverage_set
from repro.transpiler import (
    BasePass,
    PassManager,
    ProcessExecutor,
    PropertySet,
    SerialExecutor,
    ThreadExecutor,
    TrialExecutor,
    line_topology,
    resolve_executor,
)
from repro.transpiler.kernel import IntDAG
from repro.transpiler.passes import (
    DepthMetric,
    SabreLayout,
    run_trial,
    seed_sequence,
    select_best,
    swap_count_metric,
)

COVERAGE = get_coverage_set("sqrt_iswap", num_samples=250, seed=3)


def _lower(circuit):
    """The circuit's routing lowering, as the ``plan`` stage builds it."""
    return IntDAG.from_ops(circuit.num_qubits, OpList.of(circuit).ops)


def _fingerprint(result):
    """Byte-level identity of a transpile result, modulo wall-clock."""
    return (
        [(instr.gate.name, instr.qubits) for instr in result.circuit],
        result.initial_layout.virtual_to_physical(),
        result.final_layout.virtual_to_physical(),
        result.swaps_added,
        result.mirrors_accepted,
        result.trial_index,
        round(result.metrics.depth, 9),
    )


# ---------------------------------------------------------------------------
# PassManager / PropertySet
# ---------------------------------------------------------------------------


class _ProducerPass(BasePass):
    name = "producer"

    def run(self, state):
        state.properties["token"] = state.circuit.num_qubits * 10


class _ConsumerPass(BasePass):
    name = "consumer"

    def run(self, state):
        state.properties["echo"] = state.properties.require("token") + 1


class _ConditionalPass(BasePass):
    name = "conditional"

    def should_run(self, state):
        return state.properties.get("enabled", False)

    def run(self, state):  # pragma: no cover - never enabled in the test
        state.properties["ran"] = True


def test_property_set_handoff_between_stages():
    manager = PassManager([_ProducerPass(), _ConsumerPass()])
    state = manager.execute(ghz(3))
    assert state.properties["token"] == 30
    assert state.properties["echo"] == 31


def test_property_set_require_raises_for_missing_key():
    with pytest.raises(TranspilerError):
        PropertySet().require("nope")
    manager = PassManager([_ConsumerPass()])
    with pytest.raises(TranspilerError):
        manager.execute(ghz(2))


def test_skipped_stage_is_recorded():
    manager = PassManager([_ConditionalPass(), _ProducerPass()])
    state = manager.execute(ghz(2))
    assert [record.skipped for record in state.records] == [True, False]
    report = manager.report()
    assert report[0]["name"] == "conditional"
    assert report[0]["seconds"] == 0.0
    assert "ran" not in state.properties


def test_pass_manager_records_gate_counts_and_timings():
    circuit = QuantumCircuit(3)
    circuit.ccx(0, 1, 2).barrier()
    manager = build_batch_front_pipeline(
        line_topology(3), coverage=COVERAGE, use_vf2=False, layout_trials=1, seed=1
    )
    state = manager.execute(circuit)
    plan = state.properties["trial_plan"]
    state.properties["trial_outcomes"] = [
        run_trial(plan.spec, ref) for ref in plan.refs
    ]
    build_batch_back_pipeline().execute_state(state)
    by_name = {record.name: record for record in state.records}
    assert set(by_name) == {
        "clean", "unroll", "consolidate", "coupling",
        "coverage", "analyze", "vf2", "plan", "route", "select",
    }
    # Unrolling a Toffoli grows the circuit; analysis stages leave it alone.
    assert by_name["unroll"].gates_after > by_name["unroll"].gates_before
    assert by_name["coverage"].gates_after == by_name["coverage"].gates_before
    assert manager.total_seconds() == pytest.approx(
        sum(row["seconds"] for row in manager.report())
    )
    assert all(row["seconds"] >= 0 for row in manager.report())
    # Initial properties are visible to every stage.
    assert state.properties["result"].method == "mirage"


def test_records_survive_stage_failure():
    """A stage that raises must not discard the records of earlier stages."""
    manager = build_batch_front_pipeline(
        line_topology(3), coverage=COVERAGE, seed=1
    )
    with pytest.raises(TranspilerError):
        manager.execute(qft(5))  # device too small: the coupling stage raises
    assert [r.name for r in manager.records] == [
        "clean", "unroll", "consolidate"
    ]


def test_pipeline_rejects_unknown_method_and_selection():
    with pytest.raises(TranspilerError):
        build_batch_front_pipeline(line_topology(3), method="magic")
    with pytest.raises(TranspilerError):
        build_batch_front_pipeline(line_topology(3), selection="volume")


BAD_BUDGETS = [
    ("layout_trials", 0, "layout_trials must be at least 1"),
    ("layout_trials", -3, "layout_trials must be at least 1"),
    ("layout_trials", 2.5, "layout_trials must be an int, not float"),
    ("layout_trials", True, "layout_trials must be an int, not bool"),
    ("refinement_rounds", -1, "refinement_rounds must be at least 0"),
    ("refinement_rounds", 1.0, "refinement_rounds must be an int"),
    ("refinement_rounds", False, "refinement_rounds must be an int"),
    ("routing_trials", 0, "routing_trials must be at least 1"),
    ("routing_trials", "2", "routing_trials must be an int, not str"),
    ("routing_trials", True, "routing_trials must be an int, not bool"),
]


@pytest.mark.parametrize("knob, value, message", BAD_BUDGETS)
def test_bad_trial_budgets_fail_before_any_stage(monkeypatch, knob, value, message):
    """A bad budget raises ``TranspilerError`` before the front stages and
    before any coverage set is resolved or built."""

    def forbidden(*args, **kwargs):
        raise AssertionError("ran past budget validation")

    monkeypatch.setattr(pipeline_mod.CleanInputPass, "run", forbidden)
    monkeypatch.setattr(pipeline_mod, "resolve_coverage", forbidden)
    # ``repro.core.transpile`` the module, not the function it exports.
    transpile_mod = importlib.import_module("repro.core.transpile")
    monkeypatch.setattr(transpile_mod, "resolve_coverage", forbidden)
    with pytest.raises(TranspilerError, match=message):
        transpile(qft(4), line_topology(4), **{knob: value})
    for batch in ([], [qft(4)]):
        with pytest.raises(TranspilerError, match=message):
            transpile_many(batch, line_topology(4), **{knob: value})
    if knob == "layout_trials":
        with pytest.raises(TranspilerError, match=message):
            compare_methods(qft(4), line_topology(4), layout_trials=value)


def test_compare_methods_validates_every_variant_before_coverage(monkeypatch):
    """A bad ``selections`` entry fails before the coverage set is
    resolved, so no variant is planned or dispatched first."""

    def forbidden(*args, **kwargs):
        raise AssertionError("resolved coverage before validating variants")

    monkeypatch.setattr(pipeline_mod, "resolve_coverage", forbidden)
    transpile_mod = importlib.import_module("repro.core.transpile")
    monkeypatch.setattr(transpile_mod, "resolve_coverage", forbidden)
    with pytest.raises(TranspilerError, match="unknown selection metric 'volume'"):
        compare_methods(qft(4), line_topology(4), selections=("volume",))


BAD_MODES = [
    ("aggression", 7, "invalid aggression level 7"),
    ("aggression", -1, "invalid aggression level -1"),
    ("aggression", [0, 9], "invalid aggression level 9"),
    ("aggression", True, "invalid aggression level True"),
    ("aggression", "bogus", "unknown aggression spec 'bogus'"),
    ("aggression", [], "empty aggression schedule"),
    ("aggression", 1.5, "not float"),
    ("basis", "nope", "unknown basis gate 'nope'"),
    ("basis", "iswap_1_0", "root must be at least 1, got 0"),
    ("basis", "iswap_1_-2", "root must be at least 1, got -2"),
    ("basis", None, "basis must be a str, not NoneType"),
]


@pytest.mark.parametrize("knob, value, message", BAD_MODES)
def test_bad_modes_fail_before_any_stage(monkeypatch, knob, value, message):
    """A bad ``aggression`` or ``basis`` raises ``InvalidModeError`` (a
    ``ValueError`` too) before the front stages and before any coverage
    set is resolved or built."""

    def forbidden(*args, **kwargs):
        raise AssertionError("ran past mode validation")

    monkeypatch.setattr(pipeline_mod.CleanInputPass, "run", forbidden)
    monkeypatch.setattr(pipeline_mod, "resolve_coverage", forbidden)
    transpile_mod = importlib.import_module("repro.core.transpile")
    monkeypatch.setattr(transpile_mod, "resolve_coverage", forbidden)
    calls = [
        lambda: transpile(qft(4), line_topology(4), **{knob: value}),
        lambda: transpile_many([], line_topology(4), **{knob: value}),
        lambda: transpile_many([qft(4)], line_topology(4), **{knob: value}),
    ]
    if knob == "basis":
        calls.append(lambda: compare_methods(qft(4), line_topology(4), basis=value))
    for call in calls:
        with pytest.raises(InvalidModeError, match=message) as caught:
            call()
        assert isinstance(caught.value, ValueError)


def test_good_modes_are_accepted():
    for basis in ("sqrt_iswap", "iswap_1_1", "iswap_1_5", "CX"):
        pipeline_mod.validate_modes(basis, None)
    for aggression in (0, 3, "mixed", "MIXED", (1, 2), [3]):
        pipeline_mod.validate_modes("sqrt_iswap", aggression)


def test_smallest_trial_budget_is_accepted():
    result = transpile(
        qft(4), line_topology(4), coverage=COVERAGE, use_vf2=False,
        layout_trials=1, refinement_rounds=0, routing_trials=1, seed=2,
    )
    assert result.method == "mirage"


def test_vf2_embedding_skips_routing():
    result = transpile(ghz(4), line_topology(4), coverage=COVERAGE, seed=1)
    assert result.method == "vf2"
    report = {rec["name"]: rec for rec in result.pipeline_report}
    assert report["route"]["skipped"] is True
    assert report["vf2"]["skipped"] is False
    assert result.stage_seconds()["route"] == 0.0


def test_prepare_circuit_still_pipeline_backed():
    circuit = QuantumCircuit(3)
    circuit.ccx(0, 1, 2).barrier()
    prepared = prepare_circuit(circuit)
    assert all(len(instr.qubits) <= 2 for instr in prepared)


# ---------------------------------------------------------------------------
# Trial executors
# ---------------------------------------------------------------------------


class _ReversedExecutor(TrialExecutor):
    """Runs tasks in reverse order — results must still come back in order."""

    name = "reversed"

    def map_shared(self, fn, shared, tasks):
        tasks = list(tasks)
        outcomes = [fn(shared, task) for task in reversed(tasks)]
        return list(reversed(outcomes))


def _search(driver, lowering, executor=None):
    """Run a layout search as one ``map_shared`` dispatch of its
    trials, then :func:`select_best`."""
    executor = executor or SerialExecutor()
    outcomes = executor.map_shared(
        run_trial, driver.trial_spec(lowering), driver.trial_refs()
    )
    return select_best(outcomes, driver.metric_name)


def test_resolve_executor_specs():
    assert isinstance(resolve_executor(None), SerialExecutor)
    assert isinstance(resolve_executor("serial"), SerialExecutor)
    assert isinstance(resolve_executor("threads", 2), ThreadExecutor)
    assert isinstance(resolve_executor("processes", 2), ProcessExecutor)
    instance = ThreadExecutor(max_workers=1)
    assert resolve_executor(instance) is instance
    with pytest.raises(TranspilerError):
        resolve_executor("quantum")
    with pytest.raises(TranspilerError):
        ThreadExecutor(max_workers=0)


def test_executors_preserve_order():
    tasks = list(range(7))
    for executor in (SerialExecutor(), ThreadExecutor(max_workers=3)):
        with executor:
            squares = executor.map_shared(lambda s, x: x * x, None, tasks)
            assert squares == [x * x for x in tasks]


def test_sabre_layout_deterministic_across_executor_order():
    lowering = _lower(prepare_circuit(qft(5)))
    outcomes = {}
    for name, executor in (
        ("serial", SerialExecutor()),
        ("reversed", _ReversedExecutor()),
        ("threads", ThreadExecutor(max_workers=2)),
    ):
        driver = SabreLayout(
            line_topology(5),
            layout_trials=3,
            refinement_rounds=1,
            selection_metric=swap_count_metric,
            seed=2,
        )
        with executor:
            best = _search(driver, lowering, executor)
        outcomes[name] = (
            best.score,
            best.trial_index,
            best.trial_scores,
            [(i.gate.name, i.qubits) for i in best.routing.to_circuit()],
        )
    assert outcomes["serial"] == outcomes["reversed"] == outcomes["threads"]


def test_sabre_layout_same_seed_same_result():
    lowering = _lower(prepare_circuit(qft(4)))
    runs = [
        _search(SabreLayout(line_topology(4), layout_trials=2, seed=5), lowering)
        for _ in range(2)
    ]
    assert runs[0].score == runs[1].score
    assert runs[0].trial_index == runs[1].trial_index
    assert runs[0].trial_scores == runs[1].trial_scores


def test_run_layout_trial_is_self_contained():
    """One layout trial — :func:`run_trial` over the shared spec and its
    own ref — depends on nothing else: rerunning it gives the same
    outcome."""
    driver = SabreLayout(
        line_topology(4),
        layout_trials=2,
        selection_metric=DepthMetric(coverage=COVERAGE),
        seed=8,
    )
    spec = driver.trial_spec(_lower(prepare_circuit(qft(4))))
    ref = driver.trial_refs()[0]
    first = run_trial(spec, ref)
    again = run_trial(spec, ref)
    assert first.score == again.score
    assert first.trial_index == 0


# ---------------------------------------------------------------------------
# transpile() determinism across executors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method", ["sabre", "mirage"])
def test_transpile_identical_across_executors(method):
    circuit = qft(5)
    selection = "swaps" if method == "sabre" else "depth"
    reference = transpile(
        circuit, line_topology(5), method=method, selection=selection,
        layout_trials=3, coverage=COVERAGE, use_vf2=False, seed=9,
    )
    for executor in ("serial", "threads", "processes"):
        result = transpile(
            circuit, line_topology(5), method=method, selection=selection,
            layout_trials=3, coverage=COVERAGE, use_vf2=False, seed=9,
            executor=executor, max_workers=2,
        )
        assert _fingerprint(result) == _fingerprint(reference), executor


def test_transpile_parity_with_direct_driver():
    """The pipeline-built transpile() matches driving SabreLayout by hand."""
    from repro.core import MirageRouterFactory, schedule_from_spec

    circuit = twolocal_full(4)
    coupling = line_topology(4)
    result = transpile(
        circuit, coupling, method="mirage", selection="depth",
        layout_trials=4, coverage=COVERAGE, use_vf2=False, seed=3,
    )

    prepared = prepare_circuit(circuit)
    schedule = tuple(schedule_from_spec(4, None))
    driver = SabreLayout(
        coupling,
        MirageRouterFactory(coupling, COVERAGE, schedule),
        layout_trials=4,
        refinement_rounds=2,
        routing_trials=1,
        selection_metric=DepthMetric(coverage=COVERAGE),
        metric_name="depth",
        seed=3,
    )
    best = _search(driver, _lower(prepared))
    assert best.trial_index == result.trial_index
    assert [(i.gate.name, i.qubits) for i in best.routing.to_circuit()] == [
        (i.gate.name, i.qubits) for i in result.circuit
    ]


def test_transpile_seed_still_produces_mirage_gains():
    """Behavioural parity with the seed suite's Fig. 8 expectation."""
    circuit = twolocal_full(4)
    sabre = transpile(circuit, line_topology(4), method="sabre",
                      selection="swaps", layout_trials=4, coverage=COVERAGE,
                      use_vf2=False, seed=3)
    mirage = transpile(circuit, line_topology(4), method="mirage",
                       selection="depth", layout_trials=4, coverage=COVERAGE,
                       use_vf2=False, seed=3)
    assert mirage.metrics.depth < sabre.metrics.depth
    assert mirage.mirrors_accepted > 0


# ---------------------------------------------------------------------------
# transpile_many batch API
# ---------------------------------------------------------------------------


def test_transpile_many_returns_per_circuit_results():
    circuits = [qft(4), ghz(5), twolocal_full(4)]
    batch = transpile_many(
        circuits, line_topology(5), coverage=COVERAGE, use_vf2=False,
        layout_trials=2, seed=7,
    )
    assert len(batch) == 3
    assert [r.circuit.num_qubits for r in batch] == [5, 5, 5]
    assert batch.executor == "serial"
    summary = batch.summary()
    assert summary["circuits"] == 3
    assert summary["mean_depth"] > 0
    assert len(batch.summaries()) == 3
    assert batch[0].pipeline_report is not None


def test_transpile_many_aggregates_stage_timings():
    batch = transpile_many(
        [qft(4), ghz(4)], line_topology(4), coverage=COVERAGE,
        use_vf2=False, layout_trials=1, seed=7,
    )
    stage_seconds = batch.stage_seconds()
    assert set(stage_seconds) >= {"clean", "unroll", "route", "select"}
    assert stage_seconds["route"] > 0
    total = sum(stage_seconds.values())
    assert total <= batch.runtime_seconds


def test_transpile_many_identical_across_executors():
    circuits = [qft(4), twolocal_full(4)]
    serial = transpile_many(
        circuits, line_topology(4), coverage=COVERAGE, use_vf2=False,
        layout_trials=2, seed=11,
    )
    with ThreadExecutor(max_workers=2) as executor:
        threaded = transpile_many(
            circuits, line_topology(4), coverage=COVERAGE, use_vf2=False,
            layout_trials=2, seed=11, executor=executor,
        )
    assert [_fingerprint(r) for r in serial] == [_fingerprint(r) for r in threaded]


def test_seed_sequence_instance_is_reusable():
    """Passing the same SeedSequence object twice gives identical results
    (spawn state must not leak back into the caller's instance)."""
    import numpy as np

    seed = np.random.SeedSequence(9)
    runs = [
        transpile(qft(5), line_topology(5), coverage=COVERAGE, use_vf2=False,
                  layout_trials=3, seed=seed)
        for _ in range(2)
    ]
    assert _fingerprint(runs[0]) == _fingerprint(runs[1])
    # ... and matches the equivalent integer seed.
    from_int = transpile(qft(5), line_topology(5), coverage=COVERAGE,
                         use_vf2=False, layout_trials=3, seed=9)
    assert _fingerprint(runs[0]) == _fingerprint(from_int)


def test_transpile_many_accepts_generator_seed():
    """Seed coercion matches transpile(): Generators are accepted."""
    import numpy as np

    batch = transpile_many(
        [qft(4)], line_topology(4), coverage=COVERAGE, use_vf2=False,
        layout_trials=2, seed=np.random.default_rng(3),
    )
    assert len(batch) == 1
    assert batch[0].metrics.depth > 0


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, "x", b"x", [3, -1]])
def test_malformed_seeds_fail_before_any_stage(monkeypatch, seed):
    """A seed ``SeedSequence`` rejects raises ``TranspilerError`` through
    ``seed=`` and ``circuit_seeds=``, before the front stages and before
    any coverage set is resolved."""

    def forbidden(*args, **kwargs):
        raise AssertionError("ran past seed validation")

    monkeypatch.setattr(pipeline_mod.CleanInputPass, "run", forbidden)
    transpile_mod = importlib.import_module("repro.core.transpile")
    monkeypatch.setattr(transpile_mod, "resolve_coverage", forbidden)
    calls = [
        lambda: transpile(qft(4), line_topology(4), seed=seed),
        lambda: transpile_many([qft(4)], line_topology(4), seed=seed),
        lambda: transpile_many(
            [qft(4), qft(4)], line_topology(4), circuit_seeds=[1, seed]
        ),
    ]
    for call in calls:
        with pytest.raises(TranspilerError, match="invalid seed"):
            call()
    monkeypatch.undo()
    with pytest.raises(TranspilerError, match="invalid seed"):
        compare_methods(qft(4), line_topology(4), coverage=COVERAGE, seed=seed)


def test_accepted_seeds_keep_their_streams():
    """Validation changes no accepted seed's stream: numpy integers, big
    ints and entropy sequences spawn exactly what ``SeedSequence`` does."""
    import numpy as np

    for seed in (0, 7, np.int64(7), np.uint8(4), 2**70, [1, 2], (1, 2),
                 np.array([1, 2]), True, None):
        got = seed_sequence(seed)
        if seed is None:
            continue
        want = np.random.SeedSequence(seed)
        assert np.array_equal(got.generate_state(4), want.generate_state(4))
        assert [c.generate_state(2).tolist() for c in got.spawn(3)] == [
            c.generate_state(2).tolist() for c in want.spawn(3)
        ]
    kwargs = dict(coverage=COVERAGE, use_vf2=False, layout_trials=2)
    assert _fingerprint(
        transpile(qft(4), line_topology(4), seed=np.int64(7), **kwargs)
    ) == _fingerprint(transpile(qft(4), line_topology(4), seed=7, **kwargs))


def test_transpile_many_empty_batch():
    batch = transpile_many([], line_topology(4), coverage=COVERAGE, seed=1)
    assert len(batch) == 0
    assert batch.summary()["circuits"] == 0
    assert batch.stage_seconds() == {}


def test_transpile_many_validates_before_running():
    """Typos fail fast — even with an empty batch, before any real work."""
    with pytest.raises(TranspilerError):
        transpile_many([], line_topology(4), coverage=COVERAGE, method="sabrre")
    with pytest.raises(TranspilerError):
        transpile_many([], line_topology(4), coverage=COVERAGE,
                       selection="volume")
    with pytest.raises(TranspilerError):
        transpile_many([qft(4)], line_topology(4), coverage=COVERAGE,
                       executor="procesess")


def test_coordinate_cache_thread_safe_under_eviction():
    """Concurrent hits and evicting inserts must not corrupt the LRU."""
    import threading

    from repro.polytopes import CoordinateCache
    from repro.linalg import haar_unitary

    cache = CoordinateCache(maxsize=8)
    unitaries = [haar_unitary(4, seed=i) for i in range(32)]
    expected = {i: cache.coordinate(u) for i, u in enumerate(unitaries[:4])}
    errors = []

    def worker(offset):
        try:
            for _ in range(50):
                for i, u in enumerate(unitaries):
                    value = cache.coordinate(u)
                    if i in expected:
                        assert value == expected[i]
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(cache) <= 8
