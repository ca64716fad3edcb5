"""Tests for the staged flow, trial executors and the batch API."""

import importlib

import numpy as np
import pytest

from repro.exceptions import InvalidModeError, TranspilerError
from repro.circuits import OpList, QuantumCircuit
from repro.circuits.library import ghz, qft, twolocal_full
from repro.core import (
    compare_methods,
    finish_plan,
    prepare_circuit,
    run_plan,
    transpile,
    transpile_many,
)
from repro.core import pipeline as pipeline_mod
from repro.core.pipeline import PlanSpec, PlanTask
from repro.polytopes import get_coverage_set
from repro.transpiler import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    TrialExecutor,
    line_topology,
    resolve_executor,
)
from repro.transpiler.kernel import IntDAG
from repro.transpiler.metrics import ops_depth
from repro.transpiler.passes import (
    SabreLayout,
    run_trial,
    seed_sequence,
    select_best,
    trial_refs,
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
# Front stages (run_plan) and finish (finish_plan)
# ---------------------------------------------------------------------------


def _transpile_mod():
    """``repro.core.transpile`` the module, not the function it exports."""
    return importlib.import_module("repro.core.transpile")


def test_stage_report_records_gate_counts_and_timings():
    circuit = QuantumCircuit(3)
    circuit.ccx(0, 1, 2).barrier()
    spec = PlanSpec(
        coupling=line_topology(3), basis="sqrt_iswap", method="mirage",
        selection="depth", aggression=None, layout_trials=1,
        refinement_rounds=2, routing_trials=1, coverage=COVERAGE,
        use_vf2=False,
    )
    planned = run_plan(spec, PlanTask(circuit, seed_sequence(1)))
    plan = planned.trial_plan
    result = finish_plan(planned, [run_trial(plan.spec, ref) for ref in plan.refs])
    by_name = {row["name"]: row for row in result.pipeline_report}
    assert set(by_name) == {
        "clean", "unroll", "consolidate", "coupling",
        "coverage", "analyze", "vf2", "plan", "route", "select",
    }
    # Unrolling a Toffoli grows the circuit; analysis stages leave it alone.
    assert by_name["unroll"]["gates_after"] > by_name["unroll"]["gates_before"]
    assert by_name["coverage"]["gates_after"] == by_name["coverage"]["gates_before"]
    assert sum(result.stage_seconds().values()) == pytest.approx(
        sum(row["seconds"] for row in result.pipeline_report)
    )
    assert all(row["seconds"] >= 0 for row in result.pipeline_report)
    # The planned front rows are the result's first rows, unchanged.
    assert result.pipeline_report[: len(planned.report)] == planned.report
    assert result.method == "mirage"


def test_device_too_small_raises():
    """The ``coupling`` stage rejects a circuit wider than the device."""
    with pytest.raises(
        TranspilerError, match="circuit needs 5 qubits but the device has 3"
    ):
        transpile(qft(5), line_topology(3), coverage=COVERAGE, seed=1)


def test_pipeline_rejects_unknown_method_and_selection():
    with pytest.raises(TranspilerError):
        transpile(qft(3), line_topology(3), coverage=COVERAGE, method="magic")
    with pytest.raises(TranspilerError):
        transpile(qft(3), line_topology(3), coverage=COVERAGE, selection="volume")


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

    transpile_mod = _transpile_mod()
    monkeypatch.setattr(transpile_mod, "run_plan", forbidden)
    monkeypatch.setattr(pipeline_mod, "resolve_coverage", forbidden)
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
    """A bad ``selections`` entry or a malformed seed fails before the
    coverage set is resolved, so no variant is planned or dispatched
    first."""

    def forbidden(*args, **kwargs):
        raise AssertionError("resolved coverage before validating variants")

    monkeypatch.setattr(pipeline_mod, "resolve_coverage", forbidden)
    monkeypatch.setattr(_transpile_mod(), "resolve_coverage", forbidden)
    for kwargs, message in (
        ({"selections": ("volume",)}, "unknown selection metric 'volume'"),
        ({"seed": -1}, "invalid seed -1"),
    ):
        with pytest.raises(TranspilerError, match=message):
            compare_methods(qft(4), line_topology(4), **kwargs)


def test_compare_methods_gives_every_variant_one_seed_root(monkeypatch):
    """A ``Generator`` seed is drawn once: SABRE and both MIRAGE variants
    plan from the same root entropy."""
    import numpy as np

    transpile_mod = _transpile_mod()
    real_run_plan = transpile_mod.run_plan
    entropies = []

    def recording_run_plan(spec, task):
        entropies.append(task.seed.entropy)
        return real_run_plan(spec, task)

    monkeypatch.setattr(transpile_mod, "run_plan", recording_run_plan)
    results = compare_methods(
        qft(4), line_topology(4), coverage=COVERAGE, layout_trials=1,
        seed=np.random.default_rng(3),
    )
    assert list(results) == ["sabre", "mirage-swaps", "mirage-depth"]
    assert len(entropies) == 3
    assert len(set(entropies)) == 1


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

    transpile_mod = _transpile_mod()
    monkeypatch.setattr(transpile_mod, "run_plan", forbidden)
    monkeypatch.setattr(pipeline_mod, "resolve_coverage", forbidden)
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


_STAGES = ("clean", "unroll", "consolidate", "coupling", "coverage",
           "analyze", "vf2", "plan", "route", "select")

STAGE_REPORTS = [
    pytest.param(
        qft(5), line_topology(5), {}, "mirage",
        [(False, 17, 15), (False, 15, 15), (False, 15, 14), (False, 14, 14),
         (False, 14, 14), (False, 14, 14), (False, 14, 14), (False, 14, 14),
         (False, 14, 20), (False, 20, 20)],
        id="qft5-routed",
    ),
    pytest.param(
        ghz(4), line_topology(4), {}, "vf2",
        [(False, 4, 4)] * 7 + [(True, 4, 4), (True, 4, 4), (False, 4, 4)],
        id="ghz4-vf2",
    ),
    pytest.param(
        qft(4), line_topology(4), {"use_vf2": False}, "mirage",
        [(False, 12, 10), (False, 10, 10), (False, 10, 9), (False, 9, 9),
         (False, 9, 9), (False, 9, 9), (True, 9, 9), (False, 9, 9),
         (False, 9, 12), (False, 12, 12)],
        id="qft4-no-vf2",
    ),
]


@pytest.mark.parametrize("circuit, coupling, kwargs, method, rows", STAGE_REPORTS)
def test_stage_report_is_pinned(circuit, coupling, kwargs, method, rows):
    """Every ``pipeline_report`` row as ``(name, skipped, gates_before,
    gates_after)``: stage names, order, skips and gate counts."""
    result = transpile(circuit, coupling, coverage=COVERAGE, seed=11, **kwargs)
    assert result.method == method
    assert [
        (row["name"], row["skipped"], row["gates_before"], row["gates_after"])
        for row in result.pipeline_report
    ] == [(name, *row) for name, row in zip(_STAGES, rows, strict=True)]
    assert all(
        list(row) == ["name", "seconds", "gates_before", "gates_after", "skipped"]
        for row in result.pipeline_report
    )
    assert all(
        row["seconds"] == 0.0 for row in result.pipeline_report if row["skipped"]
    )


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


def _record(lowering, coupling, *, schedule=None, selection="swaps",
            refinement_rounds=2):
    """A :class:`SabreLayout` record with one routing trial per layout."""
    return SabreLayout(
        intdag=lowering,
        coupling=coupling,
        coverage=COVERAGE,
        schedule=schedule,
        selection=selection,
        refinement_rounds=refinement_rounds,
        routing_trials=1,
    )


def _search(spec, seed, layout_trials, executor=None):
    """Run a layout search as one ``map_shared`` dispatch of its
    trials; returns the :func:`select_best` winner and every score."""
    executor = executor or SerialExecutor()
    outcomes = executor.map_shared(
        run_trial, spec, trial_refs(seed, layout_trials)
    )
    return select_best(outcomes), [outcome.score for outcome in outcomes]


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
        spec = _record(lowering, line_topology(5), refinement_rounds=1)
        with executor:
            best, scores = _search(spec, 2, 3, executor)
        outcomes[name] = (
            best.score,
            best.trial_index,
            scores,
            [(i.gate.name, i.qubits) for i in best.routing.to_circuit()],
        )
    assert outcomes["serial"] == outcomes["reversed"] == outcomes["threads"]


def test_sabre_layout_same_seed_same_result():
    lowering = _lower(prepare_circuit(qft(4)))
    runs = [
        _search(_record(lowering, line_topology(4)), 5, 2) for _ in range(2)
    ]
    assert runs[0][0].score == runs[1][0].score
    assert runs[0][0].trial_index == runs[1][0].trial_index
    assert runs[0][1] == runs[1][1]


def test_run_layout_trial_is_self_contained():
    """One layout trial — :func:`run_trial` over the shared spec and its
    own ref — depends on nothing else: rerunning it gives the same
    outcome."""
    spec = _record(
        _lower(prepare_circuit(qft(4))), line_topology(4), selection="depth"
    )
    ref = trial_refs(8, 2)[0]
    first = run_trial(spec, ref)
    again = run_trial(spec, ref)
    assert first.score == again.score
    assert first.trial_index == 0


def test_run_trial_builds_layouts_for_the_kept_run_only(monkeypatch):
    """A trial with 2 refinement rounds and 3 routing trials constructs
    at most 3 ``Layout``s (the random one, then the kept run's initial
    and final), and its outcome equals the trial composed from
    per-run :func:`route` calls, which build two per run."""
    from repro.transpiler.layout import Layout
    from repro.transpiler.passes import route

    coupling = line_topology(5)
    lowering = _lower(prepare_circuit(twolocal_full(5)))
    spec = SabreLayout(
        intdag=lowering,
        coupling=coupling,
        coverage=COVERAGE,
        schedule=(2,),
        selection="depth",
        refinement_rounds=2,
        routing_trials=3,
    )
    ref = trial_refs(4, 1)[0]

    built = []
    init = Layout.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Layout, "__init__", counting)
    outcome = run_trial(spec, ref)
    monkeypatch.undo()
    assert len(built) <= 3

    rng = np.random.default_rng(ref.seed)
    layout = Layout.random(lowering.num_qubits, coupling.num_qubits, seed=rng)
    options = dict(coverage=COVERAGE, aggression=2)
    for _ in range(2):
        layout = route(lowering, coupling, layout, rng, **options).final_layout
        layout = route(
            lowering.reversed(), coupling, layout, rng, **options
        ).final_layout
    best, best_score = None, None
    for _ in range(3):
        routing = route(lowering, coupling, layout, rng, **options)
        score = ops_depth(routing.ops, COVERAGE)
        if best is None or score < best_score:
            best, best_score = routing, score

    def stream(routing):
        return [(gate.name, qubits, gate.matrix().tobytes())
                for gate, qubits in routing.ops]

    kept = outcome.routing
    assert stream(kept) == stream(best)
    assert kept.initial_layout == best.initial_layout
    assert kept.final_layout == best.final_layout
    assert outcome.score == best_score
    assert (kept.swaps_added, kept.mirrors_accepted, kept.mirror_candidates) == (
        best.swaps_added, best.mirrors_accepted, best.mirror_candidates
    )
    assert outcome.trial_index == 0


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
    from repro.core import schedule_from_spec

    circuit = twolocal_full(4)
    coupling = line_topology(4)
    result = transpile(
        circuit, coupling, method="mirage", selection="depth",
        layout_trials=4, coverage=COVERAGE, use_vf2=False, seed=3,
    )

    prepared = prepare_circuit(circuit)
    spec = _record(
        _lower(prepared),
        coupling,
        schedule=tuple(schedule_from_spec(4, None)),
        selection="depth",
    )
    best, _ = _search(spec, 3, 4)
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

    transpile_mod = _transpile_mod()
    monkeypatch.setattr(transpile_mod, "run_plan", forbidden)
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
