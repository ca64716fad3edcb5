"""The one environment reader: ``repro.config.MirageConfig``.

* The parse pin runs every knob over the same seven raw values
  (unset, empty, junk, padded, negative, zero, positive).  The expected
  outcomes were captured by running this table against the per-module
  reader functions that ``MirageConfig`` replaced.
* The flag test drives one flag knob through the library behaviour it
  switches.
* The snapshot test pins when knobs are read: a dispatch session keeps
  the values it opened with, and the next session sees a change.
"""

import dataclasses

import pytest

from repro.config import KNOBS, MirageConfig
from repro.exceptions import TranspilerError
from repro.polytopes import coverage_cache_dir
from repro.polytopes.cache import store_coverage_set
from repro.transpiler.executors import SerialExecutor
from repro.transpiler.faults import parse_fault_plan
from repro.transpiler.remote.protocol import parse_hosts

#: The raw values every knob is parsed from (``None`` = unset); the
#: last one is each knob's positive value, from :data:`POSITIVE`.
CASES = (None, "", "soon", " 7 ", "-1", "0", "positive")

POSITIVE = {
    "MIRAGE_FAULT_PLAN": "kill:trial:3,shed:request:1",
    "MIRAGE_REMOTE_HOSTS": "/tmp/h.sock, 127.0.0.1:7000",
    "MIRAGE_CACHE_DIR": "/tmp/mirage-pin",
    "MIRAGE_CACHE_DISABLE": "1",
}

#: ``XDG_CACHE_HOME`` while the pin runs, so the cache-dir default is
#: the same on every machine.
XDG = "/xdg"


def _outcome(read):
    """``read()``, or ``"error"`` when it raises ``TranspilerError``."""
    try:
        return read()
    except TranspilerError:
        return "error"


def _plan(spec):
    plan = parse_fault_plan(spec) or None
    if plan is None:
        return None
    return [sorted(plan._by_kind["trial"].items()), sorted(plan._service["shed"])]


#: Knob -> (what the library makes of the snapshot, expected outcome
#: per entry of :data:`CASES`).
PIN = {
    "MIRAGE_TASK_TIMEOUT": (
        lambda c: c.task_timeout,
        [None, None, None, 7.0, None, None, 3.0],
    ),
    "MIRAGE_TASK_RETRIES": (
        lambda c: c.task_retries, [3, 3, 3, 7, 0, 0, 3],
    ),
    "MIRAGE_FAULT_PLAN": (
        lambda c: _outcome(lambda: _plan(c.fault_plan)),
        [None, None, "error", "error", "error", "error",
         [[(3, "kill")], [1]]],
    ),
    "MIRAGE_FAULT_HANG_SECONDS": (
        lambda c: c.fault_hang_seconds,
        [30.0, 30.0, 30.0, 7.0, 0.0, 0.0, 3.0],
    ),
    "MIRAGE_FAULT_SLOW_SECONDS": (
        lambda c: c.fault_slow_seconds,
        [0.25, 0.25, 0.25, 7.0, 0.0, 0.0, 3.0],
    ),
    "MIRAGE_REMOTE_HOSTS": (
        lambda c: _outcome(lambda: [str(h) for h in parse_hosts(c.remote_hosts)]),
        [[], [], "error", "error", "error", "error",
         ["/tmp/h.sock", "127.0.0.1:7000"]],
    ),
    "MIRAGE_REMOTE_HEARTBEAT_S": (
        lambda c: c.remote_heartbeat_s,
        [2.0, 2.0, 2.0, 7.0, 2.0, 2.0, 3.0],
    ),
    "MIRAGE_REMOTE_CONNECT_S": (
        lambda c: c.remote_connect_s,
        [5.0, 5.0, 5.0, 7.0, 5.0, 5.0, 3.0],
    ),
    "MIRAGE_REMOTE_STREAMS": (
        lambda c: c.remote_streams, [2, 2, 2, 7, 1, 1, 3],
    ),
    "MIRAGE_CACHE_DIR": (
        lambda c: str(coverage_cache_dir()),
        ["/xdg/mirage", "/xdg/mirage", "soon", " 7 ", "-1", "0",
         "/tmp/mirage-pin"],
    ),
    "MIRAGE_CACHE_DISABLE": (
        lambda c: c.cache_disable,
        [False, False, False, False, False, False, True],
    ),
}


@pytest.fixture
def clean_env(monkeypatch):
    """No inherited knob leaks into a parse."""
    for _, variable, _, _ in KNOBS:
        monkeypatch.delenv(variable, raising=False)
    return monkeypatch


def test_pin_covers_every_mirage_knob():
    knobs = {variable for _, variable, _, _ in KNOBS}
    assert set(PIN) == {k for k in knobs if k.startswith("MIRAGE_")}
    assert len(PIN) == 11


@pytest.mark.parametrize("case", range(len(CASES)), ids=[
    "unset", "empty", "junk", "padded", "negative", "zero", "positive",
])
@pytest.mark.parametrize("knob", sorted(PIN))
def test_parse_pin(clean_env, knob, case):
    clean_env.setenv("XDG_CACHE_HOME", XDG)
    raw = CASES[case]
    if raw == "positive":
        raw = POSITIVE.get(knob, "3")
    if raw is not None:
        clean_env.setenv(knob, raw)
    read, expected = PIN[knob]
    assert read(MirageConfig.from_env()) == expected[case]


def test_fields_follow_the_table_and_defaults_hold(clean_env):
    clean_env.delenv("XDG_CACHE_HOME", raising=False)
    fields = [field.name for field in dataclasses.fields(MirageConfig)]
    assert fields == [field for field, _, _, _ in KNOBS]
    config = MirageConfig.from_env()
    for field, _, default, _ in KNOBS:
        assert getattr(config, field) == default, field
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.task_retries = 5


# ---------------------------------------------------------------------------
# One flag rule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value, enabled", [
    ("false", True), ("no", True), (" 0", True), ("0", True), ("", True),
    ("1", False), ("true", False), ("YES", False),
])
def test_cache_disable_is_a_flag(clean_env, tmp_path, value, enabled):
    clean_env.setenv("MIRAGE_CACHE_DIR", str(tmp_path))
    clean_env.setenv("MIRAGE_CACHE_DISABLE", value)
    stored = store_coverage_set({"probe": value}, basis="flag-probe")
    assert (stored is not None) is enabled


# ---------------------------------------------------------------------------
# One snapshot per dispatch session
# ---------------------------------------------------------------------------


def _scale(payload, task):
    return payload * task


def _run(session, tasks=(1, 2, 3)):
    slot = session.add_payload(10)
    futures = session.submit(slot, list(tasks))
    return [value for future in futures for value in future.result()]


def _delta(executor, before, key):
    return executor.dispatch_stats[key] - before.get(key, 0)


def test_session_keeps_the_fault_plan_it_opened_with(clean_env):
    with SerialExecutor() as executor:
        session = executor.open_dispatch(_scale)
        clean_env.setenv("MIRAGE_FAULT_PLAN", "kill:trial:0")
        before = dict(executor.dispatch_stats)
        with session:
            assert _run(session) == [10, 20, 30]
        assert _delta(executor, before, "retries") == 0
        before = dict(executor.dispatch_stats)
        with executor.open_dispatch(_scale) as session:
            assert _run(session) == [10, 20, 30]
        assert _delta(executor, before, "retries") == 1


def test_session_keeps_the_retry_budget_it_opened_with(clean_env):
    clean_env.setenv("MIRAGE_FAULT_PLAN", "kill:trial:0")
    with SerialExecutor() as executor:
        session = executor.open_dispatch(_scale)
        clean_env.setenv("MIRAGE_TASK_RETRIES", "0")
        before = dict(executor.dispatch_stats)
        with session:
            assert _run(session) == [10, 20, 30]
        # Opened with the default budget: the killed chunk is replayed.
        assert _delta(executor, before, "retries") == 1
        assert _delta(executor, before, "executor_downgrades") == 0
        before = dict(executor.dispatch_stats)
        with executor.open_dispatch(_scale) as session:
            assert _run(session) == [10, 20, 30]
        # The next session has no replays left and degrades at once.
        assert _delta(executor, before, "executor_downgrades") == 1
