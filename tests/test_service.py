"""Concurrency harness for the transpilation-as-a-service tier.

Pins the four hard guarantees of :class:`repro.service.MirageService`
under genuinely concurrent, multi-tenant load:

* **Byte-identity** — results returned through the service (coalesced,
  interleaved, on warm pools) are byte-identical to direct
  :func:`repro.core.transpile.transpile` calls at the same seed;
* **Single-flight coverage** — a coverage set is built exactly once per
  registry key no matter how many concurrent requests race the cold
  cache;
* **Coalescing provenance** — requests admitted within one window
  produce exactly one batch dispatch, and the provenance log says so;
* **Clean shutdown** — ``aclose()`` leaks no worker processes,
  including when a fault plan kills a worker mid-window;
* **Overload safety** — admission quotas shed excess load with typed
  errors while in-quota tenants are served byte-identically, expired
  deadlines fail only their own request, a tripped circuit breaker
  degrades to in-process execution without changing an output bit, and
  a drain refuses new work while finishing what was admitted.

No pytest-asyncio: each test drives a private event loop through
``asyncio.run`` with an internal deadline, so a wedged service fails
the test instead of hanging the suite.
"""

import asyncio
import copy
import os
import threading
import time

import pytest

from repro.circuits.library import ghz, qft, twolocal_full
from repro.core.transpile import transpile
from repro.exceptions import (
    DeadlineExceededError,
    InvalidModeError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadError,
    TranspilerError,
)
from repro.polytopes import CoverageRegistry, get_coverage_set
from repro.service import MirageService, ServiceClient
from repro.transpiler import ProcessExecutor, grid_topology, line_topology

COVERAGE_PARAMS = dict(num_samples=250, seed=3)
COVERAGE = get_coverage_set("sqrt_iswap", **COVERAGE_PARAMS)
TOPOLOGY = line_topology(5)

#: Per-request knobs shared by the service submits and the direct
#: ``transpile`` baselines — byte-identity only holds when both sides
#: run the identical configuration.
REQUEST_KNOBS = dict(use_vf2=False, layout_trials=2)


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


def _direct(circuit, seed):
    """The ground truth: a one-shot transpile at the request's seed."""
    return transpile(
        circuit, TOPOLOGY, coverage=COVERAGE, seed=seed, **REQUEST_KNOBS
    )


def _registry() -> CoverageRegistry:
    """A service registry whose loader hands out the module's coverage set."""
    return CoverageRegistry(loader=lambda basis, **kwargs: COVERAGE)


def _service(**kwargs) -> MirageService:
    kwargs.setdefault("executor", "threads")
    kwargs.setdefault("max_workers", 2)
    kwargs.setdefault("registry", _registry())
    kwargs.setdefault("coverage_params", COVERAGE_PARAMS)
    return MirageService(**kwargs)


def _run(coro, timeout=600.0):
    """Drive a coroutine on a fresh loop with a hang-proof deadline."""

    async def _bounded():
        return await asyncio.wait_for(coro, timeout)

    return asyncio.run(_bounded())


# ---------------------------------------------------------------------------
# Guarantee 1: byte-identity with direct transpile, per request seed
# ---------------------------------------------------------------------------


#: (circuit, seed, tenant) for the staggered multi-tenant load test;
#: qft(4) appears twice under different seeds, so coalescing must keep
#: per-request seeds straight even for identical payloads.
LOAD = [
    (qft(4), 3, "alice"),
    (ghz(5), 11, "bob"),
    (twolocal_full(4), 17, "alice"),
    (qft(4), 23, "carol"),
    (ghz(5), 5, "bob"),
    (twolocal_full(4), 41, "carol"),
]


def test_staggered_multi_tenant_requests_match_direct_transpile():
    """Dozens of interleaved awaits, three tenants, one warm pool —
    every response byte-identical to a direct call at its own seed."""
    expected = [_fingerprint(_direct(circuit, seed)) for circuit, seed, _ in LOAD]

    async def main():
        async with _service(window_ms=40.0) as service:
            async def one(delay, circuit, seed, tenant):
                await asyncio.sleep(delay)
                return await service.submit(
                    circuit, TOPOLOGY, seed=seed, tenant=tenant,
                    **REQUEST_KNOBS,
                )

            results = await asyncio.gather(*(
                one(0.015 * (index % 4), circuit, seed, tenant)
                for index, (circuit, seed, tenant) in enumerate(LOAD)
            ))
            return results, service.stats()

    results, stats = _run(main())
    assert [_fingerprint(result) for result in results] == expected
    assert stats["requests"] == len(LOAD)
    assert stats["completed"] == len(LOAD)
    assert stats["failed"] == 0
    assert stats["tenants"] == {"alice": 2, "bob": 2, "carol": 2}
    assert stats["open_windows"] == 0
    assert sum(record["requests"] for record in stats["window_log"]) == len(LOAD)


def test_client_binds_tenant_and_forwards():
    expected = _fingerprint(_direct(qft(4), 9))

    async def main():
        async with _service(window_ms=0.0) as service:
            client = service.client("tenant-a")
            assert isinstance(client, ServiceClient)
            result = await client.transpile(
                qft(4), TOPOLOGY, seed=9, **REQUEST_KNOBS
            )
            return result, service.stats()

    result, stats = _run(main())
    assert _fingerprint(result) == expected
    assert stats["tenants"] == {"tenant-a": 1}


# ---------------------------------------------------------------------------
# Guarantee 2: coverage built exactly once per key under contention
# ---------------------------------------------------------------------------


def test_registry_single_flight_under_thread_contention():
    """Eight threads race a cold key; exactly one build, shared object."""
    calls = {"count": 0}
    release = threading.Event()

    def loader(basis, **kwargs):
        calls["count"] += 1
        release.wait(5.0)
        return COVERAGE

    registry = CoverageRegistry(loader=loader)
    results = [None] * 8
    threads = [
        threading.Thread(
            target=lambda i=i: results.__setitem__(
                i, registry.get("sqrt_iswap", **COVERAGE_PARAMS)
            )
        )
        for i in range(8)
    ]
    for thread in threads:
        thread.start()
    while registry.stats()["misses"] == 0:
        time.sleep(0.001)
    release.set()
    for thread in threads:
        thread.join(timeout=10.0)
    assert calls["count"] == 1
    assert all(result is COVERAGE for result in results)
    stats = registry.stats()
    assert stats["builds"] == 1
    assert stats["misses"] == 1
    assert stats["waits"] == 7
    assert stats["errors"] == 0


def test_registry_failed_build_propagates_and_leaves_key_cold():
    attempts = {"count": 0}

    def loader(basis, **kwargs):
        attempts["count"] += 1
        if attempts["count"] == 1:
            raise RuntimeError("simulated build failure")
        return COVERAGE

    registry = CoverageRegistry(loader=loader)
    with pytest.raises(RuntimeError, match="simulated build failure"):
        registry.get("sqrt_iswap", **COVERAGE_PARAMS)
    assert registry.stats()["errors"] == 1
    assert len(registry) == 0
    # The key went cold, so the next request retries — and succeeds.
    assert registry.get("sqrt_iswap", **COVERAGE_PARAMS) is COVERAGE
    assert attempts["count"] == 2


def test_service_builds_coverage_once_across_windows():
    """Sequential windows on one service share a single coverage build."""
    calls = {"count": 0}

    def loader(basis, **kwargs):
        calls["count"] += 1
        return COVERAGE

    registry = CoverageRegistry(loader=loader)

    async def main():
        async with _service(window_ms=0.0, registry=registry) as service:
            for seed in (2, 4, 6):
                await service.submit(
                    ghz(5), TOPOLOGY, seed=seed, **REQUEST_KNOBS
                )
            return service.stats()

    stats = _run(main())
    assert calls["count"] == 1
    assert stats["registry"]["builds"] == 1
    assert stats["registry"]["misses"] == 1
    assert stats["registry"]["hits"] == 2
    assert stats["windows"] == 3
    assert stats["coalesced_requests"] == 0


# ---------------------------------------------------------------------------
# Guarantee 3: one admission window -> one batch dispatch
# ---------------------------------------------------------------------------


def test_window_coalesces_concurrent_requests_into_one_dispatch():
    expected = [_fingerprint(_direct(circuit, seed)) for circuit, seed, _ in LOAD[:4]]

    async def main():
        async with _service(window_ms=250.0) as service:
            results = await asyncio.gather(*(
                service.submit(
                    circuit, TOPOLOGY, seed=seed, tenant=tenant,
                    **REQUEST_KNOBS,
                )
                for circuit, seed, tenant in LOAD[:4]
            ))
            return results, service.stats()

    results, stats = _run(main())
    assert [_fingerprint(result) for result in results] == expected
    # One window, one dispatch, all four circuits inside it.
    assert stats["windows"] == 1
    assert stats["coalesced_requests"] == 4
    (record,) = stats["window_log"]
    assert record["requests"] == 4
    assert record["tenants"] == {"alice": 2, "bob": 1, "carol": 1}
    assert record["dispatch"]["circuits"] == 4
    assert record["queue_wait_seconds"]["max"] >= 0.0
    assert record["runtime_seconds"] > 0


def test_incompatible_requests_open_separate_windows():
    """Different trial knobs cannot share a batch, so they never coalesce."""

    async def main():
        async with _service(window_ms=250.0) as service:
            results = await asyncio.gather(
                service.submit(
                    qft(4), TOPOLOGY, seed=7, use_vf2=False, layout_trials=2
                ),
                service.submit(
                    qft(4), TOPOLOGY, seed=7, use_vf2=False, layout_trials=3
                ),
            )
            return results, service.stats()

    results, stats = _run(main())
    assert stats["windows"] == 2
    assert stats["coalesced_requests"] == 0
    assert all(record["requests"] == 1 for record in stats["window_log"])
    assert _fingerprint(results[0]) == _fingerprint(
        transpile(
            qft(4), TOPOLOGY, coverage=COVERAGE, seed=7,
            use_vf2=False, layout_trials=2,
        )
    )


def test_aclose_flushes_open_windows():
    """Requests parked in a not-yet-expired window resolve on aclose."""
    expected = [_fingerprint(_direct(qft(4), 13)), _fingerprint(_direct(ghz(5), 29))]

    async def main():
        service = _service(window_ms=30_000.0)  # would park ~forever
        first = asyncio.ensure_future(
            service.submit(qft(4), TOPOLOGY, seed=13, **REQUEST_KNOBS)
        )
        second = asyncio.ensure_future(
            service.submit(ghz(5), TOPOLOGY, seed=29, **REQUEST_KNOBS)
        )
        await asyncio.sleep(0.1)  # both admitted, window still open
        await service.aclose()
        results = [await first, await second]
        return results, service.stats()

    results, stats = _run(main())
    assert [_fingerprint(result) for result in results] == expected
    assert stats["windows"] == 1
    assert stats["coalesced_requests"] == 2
    assert stats["completed"] == 2


def test_closed_service_rejects_submissions():
    async def main():
        service = _service(prewarm=False)
        await service.aclose()
        with pytest.raises(ServiceError, match="closed"):
            await service.submit(qft(4), TOPOLOGY, **REQUEST_KNOBS)
        assert service.closed
        await service.aclose()  # idempotent

    _run(main())


def test_bad_trial_budget_fails_the_request_with_a_typed_error():
    async def main():
        async with _service(window_ms=0.0) as service:
            with pytest.raises(TranspilerError, match="layout_trials"):
                await service.submit(
                    qft(4), TOPOLOGY, use_vf2=False, layout_trials=0
                )
            # The service keeps serving well-formed requests.
            return await service.submit(qft(4), TOPOLOGY, seed=9, **REQUEST_KNOBS)

    result = _run(main())
    assert _fingerprint(result) == _fingerprint(_direct(qft(4), 9))


def test_bad_modes_fail_the_request_with_a_typed_error():
    async def main():
        async with _service(window_ms=0.0) as service:
            for knobs, message in (
                (dict(aggression=7), "aggression level 7"),
                (dict(aggression=1.5), "aggression must be"),
                (dict(basis="iswap_1_0"), "root must be at least 1"),
            ):
                with pytest.raises(InvalidModeError, match=message):
                    await service.submit(qft(4), TOPOLOGY, use_vf2=False, **knobs)
            return await service.submit(qft(4), TOPOLOGY, seed=9, **REQUEST_KNOBS)

    result = _run(main())
    assert _fingerprint(result) == _fingerprint(_direct(qft(4), 9))


# ---------------------------------------------------------------------------
# Guarantee 4: aclose leaks nothing -- clean runs and killed workers alike
# ---------------------------------------------------------------------------


def _assert_workers_dead(pids):
    assert pids, "expected the pool to expose worker pids"
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_process_service_shutdown_leaves_no_workers():
    expected = [_fingerprint(_direct(circuit, seed)) for circuit, seed, _ in LOAD[:3]]

    async def main():
        async with _service(executor="processes", window_ms=50.0) as service:
            pids = service.executor.worker_pids()
            assert len(pids) == 2  # prewarmed before the first request
            results = await asyncio.gather(*(
                service.submit(
                    circuit, TOPOLOGY, seed=seed, tenant=tenant,
                    **REQUEST_KNOBS,
                )
                for circuit, seed, tenant in LOAD[:3]
            ))
        return results, pids

    results, pids = _run(main())
    assert [_fingerprint(result) for result in results] == expected
    _assert_workers_dead(pids)


def test_worker_kill_mid_window_recovers_and_leaks_nothing(monkeypatch):
    """A worker killed mid-window is respawned; the affected requests
    still resolve byte-identically and shutdown still leaks nothing."""
    expected = [_fingerprint(_direct(circuit, seed)) for circuit, seed, _ in LOAD[:3]]
    monkeypatch.setenv("MIRAGE_FAULT_PLAN", "kill:trial:1")
    monkeypatch.setenv("MIRAGE_TASK_TIMEOUT", "1.0")

    async def main():
        async with _service(executor="processes", window_ms=120.0) as service:
            pids = service.executor.worker_pids()
            results = await asyncio.gather(*(
                service.submit(
                    circuit, TOPOLOGY, seed=seed, tenant=tenant,
                    **REQUEST_KNOBS,
                )
                for circuit, seed, tenant in LOAD[:3]
            ))
            stats = service.stats()
        return results, stats, pids

    results, stats, pids = _run(main())
    assert [_fingerprint(result) for result in results] == expected
    assert stats["failed"] == 0
    assert stats["executor"]["retries"] >= 1
    assert stats["executor"]["lost_tasks"] >= 1
    _assert_workers_dead(pids)


def test_shutdown_refuses_to_race_borrowed_executor_leases():
    """close() on a leased executor fails loudly instead of killing the
    pool under an in-flight window (the service always holds a lease
    while dispatching)."""
    with ProcessExecutor(max_workers=2) as executor:
        with executor.lease():
            with pytest.raises(TranspilerError, match="active lease"):
                executor.close()
        # Lease released: the context manager close below succeeds.
    assert executor.worker_pids() == []


# ---------------------------------------------------------------------------
# Guarantee 5a: admission control -- quotas shed, in-quota tenants served
# ---------------------------------------------------------------------------


def test_breaker_trip_with_quota_shed_and_no_starvation(monkeypatch):
    """The overload acceptance scenario: under a fault plan that trips
    the breaker, a multi-tenant batch completes with every response
    byte-identical to direct ``transpile()`` at the same seed; the
    over-quota submission gets ``ServiceOverloadError`` while in-quota
    tenants show no starvation; the breaker serves the next window
    degraded and half-open-probes back to closed."""
    monkeypatch.setenv("MIRAGE_FAULT_PLAN", "trip_breaker:window:0")
    expected = [_fingerprint(_direct(circuit, seed)) for circuit, seed, _ in LOAD]
    degraded_expected = _fingerprint(_direct(ghz(5), 77))
    probe_expected = _fingerprint(_direct(qft(4), 88))

    async def main():
        async with _service(
            window_ms=80.0, tenant_quota=2, breaker_cooldown_s=0.1,
            prewarm=False,
        ) as service:
            admitted = [
                asyncio.ensure_future(service.submit(
                    circuit, TOPOLOGY, seed=seed, tenant=tenant,
                    **REQUEST_KNOBS,
                ))
                for circuit, seed, tenant in LOAD
            ]
            await asyncio.sleep(0.02)  # all six admitted; window still open
            with pytest.raises(ServiceOverloadError, match="over quota") as info:
                await service.submit(
                    qft(4), TOPOLOGY, seed=99, tenant="alice", **REQUEST_KNOBS
                )
            assert info.value.retry_after_ms > 0
            results = await asyncio.gather(*admitted)
            stats_mid = service.stats()
            degraded = await service.submit(
                ghz(5), TOPOLOGY, seed=77, tenant="bob", **REQUEST_KNOBS
            )
            await asyncio.sleep(0.12)  # breaker cooldown elapses
            probe = await service.submit(
                qft(4), TOPOLOGY, seed=88, tenant="carol", **REQUEST_KNOBS
            )
            return results, degraded, probe, stats_mid, service.stats()

    results, degraded, probe, stats_mid, stats = _run(main())
    # Every in-quota response is byte-identical to a direct call --
    # including the window served while the breaker was tripping and
    # the degraded (serial in-process) and probe windows after it.
    assert [_fingerprint(result) for result in results] == expected
    assert _fingerprint(degraded) == degraded_expected
    assert _fingerprint(probe) == probe_expected
    # The over-quota submission shed; nothing else did.
    assert stats["shed"] == {"tenant_quota": 1}
    assert stats["shed_requests"] == 1
    assert stats["completed"] == len(LOAD) + 2
    assert stats["failed"] == 0
    # Breaker lifecycle: tripped by window 0, degraded window 1,
    # half-open probe window 2 closed it again.
    assert stats_mid["breaker"]["state"] == "open"
    assert stats["breaker"]["state"] == "closed"
    assert stats["breaker"]["trips"] == 1
    assert stats["degraded_windows"] == 1
    transitions = [
        (t["from"], t["to"]) for t in stats["breaker"]["transitions"]
    ]
    assert transitions == [
        ("closed", "open"), ("open", "half_open"), ("half_open", "closed"),
    ]
    first, second, third = stats["window_log"]
    assert first["tenants"] == {"alice": 2, "bob": 2, "carol": 2}
    assert "by_tenant" in first["queue_wait_seconds"]
    assert not first["degraded"]
    assert second["degraded"] and second["executor"] == "serial"
    assert third["probe"] and not third["degraded"]


def test_service_wide_pending_cap_sheds(monkeypatch):
    async def main():
        async with _service(
            window_ms=80.0, max_pending=1, prewarm=False
        ) as service:
            first = asyncio.ensure_future(
                service.submit(qft(4), TOPOLOGY, seed=3, **REQUEST_KNOBS)
            )
            await asyncio.sleep(0.01)
            with pytest.raises(ServiceOverloadError, match="queue is full"):
                await service.submit(
                    ghz(5), TOPOLOGY, seed=4, **REQUEST_KNOBS
                )
            return await first, service.stats()

    result, stats = _run(main())
    assert _fingerprint(result) == _fingerprint(_direct(qft(4), 3))
    assert stats["shed"] == {"queue_full": 1}
    assert stats["requests"] == 1  # the shed submission was never admitted


def test_fault_plan_sheds_targeted_submission(monkeypatch):
    """``shed:request:N`` deterministically sheds the Nth submission."""
    monkeypatch.setenv("MIRAGE_FAULT_PLAN", "shed:request:1")

    async def main():
        async with _service(window_ms=0.0, prewarm=False) as service:
            await service.submit(qft(4), TOPOLOGY, seed=1, **REQUEST_KNOBS)
            with pytest.raises(ServiceOverloadError, match="fault plan"):
                await service.submit(
                    qft(4), TOPOLOGY, seed=2, **REQUEST_KNOBS
                )
            await service.submit(qft(4), TOPOLOGY, seed=3, **REQUEST_KNOBS)
            return service.stats()

    stats = _run(main())
    assert stats["shed"] == {"injected": 1}
    assert stats["completed"] == 2


def test_malformed_fault_plan_fails_fast_at_construction(monkeypatch):
    """A bad ``MIRAGE_FAULT_PLAN`` refuses to construct the service,
    naming the accepted grammar — instead of crashing mid-window."""
    monkeypatch.setenv("MIRAGE_FAULT_PLAN", "shed:trial:1")
    with pytest.raises(TranspilerError, match="kind:stage:ordinal"):
        _service(prewarm=False)


# ---------------------------------------------------------------------------
# Guarantee 5b: deadlines fail only their own request, typed, never a hang
# ---------------------------------------------------------------------------


def test_expired_deadline_fails_only_its_own_request():
    expected = _fingerprint(_direct(ghz(5), 41))

    async def main():
        async with _service(window_ms=40.0, prewarm=False) as service:
            doomed = asyncio.ensure_future(service.submit(
                twolocal_full(4), TOPOLOGY, seed=5, deadline_ms=1.0,
                **REQUEST_KNOBS,
            ))
            sibling = asyncio.ensure_future(service.submit(
                ghz(5), TOPOLOGY, seed=41, **REQUEST_KNOBS,
            ))
            results = await asyncio.gather(
                doomed, sibling, return_exceptions=True
            )
            return results, service.stats()

    results, stats = _run(main())
    assert isinstance(results[0], DeadlineExceededError)
    assert _fingerprint(results[1]) == expected  # sibling untouched
    assert stats["deadline_expirations"] >= 1
    assert stats["completed"] == 1


def test_lone_request_deadline_expires_mid_flight(monkeypatch):
    """A window of one request carries its deadline into its trial
    chunks: the batch itself fails the request once a slow trial runs
    past the deadline, rather than finishing it late.  Four trials on
    two workers put the slow trial's sibling in its chunk, where the
    deadline is checked next."""
    monkeypatch.setenv("MIRAGE_FAULT_PLAN", "slow:trial:0")
    monkeypatch.setenv("MIRAGE_FAULT_SLOW_SECONDS", "0.8")

    async def main():
        async with _service(window_ms=0.0, prewarm=False) as service:
            with pytest.raises(DeadlineExceededError):
                await service.submit(
                    qft(4), TOPOLOGY, seed=3, deadline_ms=400.0,
                    use_vf2=False, layout_trials=4,
                )
        return service.stats()

    stats = _run(main())
    (record,) = stats["window_log"]
    assert record["requests"] == 1
    assert record["expired"] == 1
    assert record["dispatch"]["deadline_expirations"] >= 1
    assert stats["completed"] == 0
    assert stats["deadline_expirations"] >= 1


def test_non_positive_deadline_expires_at_submission():
    async def main():
        async with _service(window_ms=0.0, prewarm=False) as service:
            with pytest.raises(DeadlineExceededError, match="at submission"):
                await service.submit(
                    qft(4), TOPOLOGY, seed=1, deadline_ms=0.0,
                    **REQUEST_KNOBS,
                )
            return service.stats()

    stats = _run(main())
    assert stats["deadline_expirations"] == 1
    assert stats["requests"] == 0  # never admitted


# ---------------------------------------------------------------------------
# Guarantee 5c: graceful drain -- typed rejection, nothing leaked
# ---------------------------------------------------------------------------


def test_submit_during_drain_raises_typed_closed_error():
    """A drain in progress rejects new work with ServiceClosedError
    while finishing what was already admitted."""
    expected = _fingerprint(_direct(qft(4), 13))

    async def main():
        service = _service(window_ms=30_000.0, prewarm=False)
        parked = asyncio.ensure_future(
            service.submit(qft(4), TOPOLOGY, seed=13, **REQUEST_KNOBS)
        )
        await asyncio.sleep(0.01)  # admitted, window still open
        closer = asyncio.ensure_future(service.aclose())
        await asyncio.sleep(0)  # drain begun, dispatch in flight
        assert service.closed
        with pytest.raises(ServiceClosedError, match="closed"):
            await service.submit(ghz(5), TOPOLOGY, seed=1, **REQUEST_KNOBS)
        result = await parked
        await closer
        return result, service.stats()

    result, stats = _run(main())
    assert _fingerprint(result) == expected
    assert stats["drain_abandoned"] == 0


def test_drain_under_injected_hang_leaks_nothing(monkeypatch):
    """aclose() during an injected worker hang waits out the recovery:
    admitted requests resolve byte-identically, zero leaked workers."""
    monkeypatch.setenv("MIRAGE_FAULT_PLAN", "hang:trial:1")
    monkeypatch.setenv("MIRAGE_FAULT_HANG_SECONDS", "5")
    monkeypatch.setenv("MIRAGE_TASK_TIMEOUT", "1.0")
    expected = [_fingerprint(_direct(circuit, seed)) for circuit, seed, _ in LOAD[:2]]

    async def main():
        service = _service(executor="processes", window_ms=60.0)
        # Warm the pool up-front so admission (and the open window) is
        # not still parked behind the first submit's prewarm when the
        # drain begins.
        await asyncio.to_thread(service.executor.prewarm)
        futures = [
            asyncio.ensure_future(service.submit(
                circuit, TOPOLOGY, seed=seed, tenant=tenant, **REQUEST_KNOBS
            ))
            for circuit, seed, tenant in LOAD[:2]
        ]
        while service.stats()["pending"] < 2:
            await asyncio.sleep(0.005)
        pids = service.executor.worker_pids()
        await service.aclose()  # drains through the hang + respawn
        results = await asyncio.gather(*futures)
        return results, pids, service.stats()

    results, pids, stats = _run(main())
    assert [_fingerprint(result) for result in results] == expected
    assert stats["drain_abandoned"] == 0
    assert stats["executor"]["respawns"] >= 1
    _assert_workers_dead(pids)


# ---------------------------------------------------------------------------
# Registry keyed by build parameters only
# ---------------------------------------------------------------------------


def test_service_and_direct_caller_share_one_set_across_topologies():
    """Windows on two coupling maps and a direct lookup on the same
    registry share the one set a single build produced."""
    built = []

    def loader(basis, **kwargs):
        built.append(copy.copy(COVERAGE))
        return built[-1]

    registry = CoverageRegistry(loader=loader)

    async def main():
        async with _service(
            executor="serial", window_ms=0.0, registry=registry
        ) as service:
            for topology in (TOPOLOGY, grid_topology(2, 3)):
                await service.submit(
                    ghz(5), topology, seed=3, **REQUEST_KNOBS
                )
            return service.stats()

    stats = _run(main())
    assert stats["windows"] == 2
    assert registry.get("sqrt_iswap", **COVERAGE_PARAMS) is built[0]
    assert len(built) == 1
    assert registry.stats() == {
        "hits": 2, "misses": 1, "builds": 1, "waits": 0, "errors": 0,
        "size": 1,
    }


def test_registry_hit_reads_no_environment(monkeypatch):
    registry = _registry()
    coverage = registry.get("sqrt_iswap", **COVERAGE_PARAMS)

    def from_env(*args):
        raise AssertionError("a registry hit read the environment")

    monkeypatch.setattr("repro.config.MirageConfig.from_env", from_env)
    assert registry.get("sqrt_iswap", **COVERAGE_PARAMS) is coverage
    assert registry.bind(**COVERAGE_PARAMS).get("sqrt_iswap") is coverage
    assert get_coverage_set("sqrt_iswap", **COVERAGE_PARAMS) is COVERAGE


def test_registry_takes_no_eviction_or_topology_arguments():
    with pytest.raises(TypeError):
        CoverageRegistry(max_entries=2)
    with pytest.raises(TypeError):
        _registry().get("sqrt_iswap", topology=TOPOLOGY)


# ---------------------------------------------------------------------------
# Bounded service state
# ---------------------------------------------------------------------------


def test_window_log_is_bounded_and_counts_stay_exact(monkeypatch):
    """Ten times the log bound of windows: the log keeps the newest
    ``LOG_LIMIT`` records while every counter still counts all of them."""
    from repro.service import service as service_mod

    monkeypatch.setattr(service_mod, "LOG_LIMIT", 4)
    singles = 36

    async def main():
        async with _service(executor="serial", window_ms=0.0) as service:
            for index in range(singles):
                await service.submit(ghz(3), TOPOLOGY, seed=index)
            for index in range(2):
                await asyncio.gather(
                    service.submit(ghz(3), TOPOLOGY, seed=100 + index),
                    service.submit(ghz(4), TOPOLOGY, seed=200 + index),
                )
            return service.stats(), len(service._window_log)

    stats, kept = _run(main())
    assert stats["requests"] == stats["completed"] == singles + 4
    assert stats["windows"] == singles + 2
    assert stats["coalesced_requests"] == 4
    assert kept == len(stats["window_log"]) == 4
    assert [record["requests"] for record in stats["window_log"]] == [1, 1, 2, 2]


def test_breaker_transitions_are_bounded(monkeypatch):
    from repro.service import service as service_mod

    monkeypatch.setattr(service_mod, "LOG_LIMIT", 4)
    breaker = service_mod._CircuitBreaker(
        threshold=1, window_s=10.0, cooldown_s=0.0, t0=0.0
    )
    cycles = 14  # three transitions each: 10x the bound and then some
    for cycle in range(cycles):
        now = float(cycle)
        breaker.record(1, now, cycle, injected=False)
        assert breaker.route(now, cycle) == "probe"
        breaker.record(0, now, cycle, injected=False)
    stats = breaker.stats()
    assert stats["trips"] == cycles
    assert stats["state"] == "closed"
    assert [(t["from"], t["to"], t["window"]) for t in stats["transitions"]] == [
        ("half_open", "closed", cycles - 2),
        ("closed", "open", cycles - 1),
        ("open", "half_open", cycles - 1),
        ("half_open", "closed", cycles - 1),
    ]
