"""Overload smoke driver: quotas + deadlines + breaker + drain in one run.

CI's ``overload`` job runs this script under a matrix of fault plans
(clean control, worker kills, deterministic breaker trips).  It drives a
multi-tenant burst through one ``MirageService`` and asserts the whole
overload contract end to end:

* concurrent tenants over quota are shed with ``ServiceOverloadError``
  (and a positive ``retry_after_ms``) while admitted requests — including
  the other tenant's — complete **byte-identical** to direct
  ``transpile()`` calls at the same seed;
* expiring deadlines fail only their own request with
  ``DeadlineExceededError`` and are counted in ``deadline_expirations``;
* injected worker kills are recovered (``respawns`` recorded) and
  injected breaker trips walk the breaker state machine, serving the
  next window degraded but still byte-identical;
* after ``aclose()`` nothing is left pending and no request was
  abandoned by the drain.

Run from the repo root (optionally under a fault plan):

    MIRAGE_FAULT_PLAN="kill:trial:1,trip_breaker:window:0" \
        PYTHONPATH=src python tools/overload_smoke.py
"""

from __future__ import annotations

import asyncio
import json
import os
import sys

from repro.circuits.library import ghz, qft
from repro.core.transpile import transpile
from repro.exceptions import (
    DeadlineExceededError,
    ServiceClosedError,
    ServiceOverloadError,
)
from repro.polytopes.coverage import get_coverage_set
from repro.service import MirageService
from repro.transpiler.topologies import line_topology

COVERAGE_PARAMS = dict(num_samples=150, seed=3)
KNOBS = dict(use_vf2=False, layout_trials=2)
TOPOLOGY = line_topology(5)

#: (tenant, circuit factory, width, seed) — two tenants, shared window.
ADMITTED = [
    ("hot", ghz, 4, 101),
    ("hot", qft, 4, 102),
    ("cold", ghz, 5, 201),
    ("cold", qft, 5, 202),
]


def fingerprint(result):
    return (
        [(instr.gate.name, instr.qubits) for instr in result.circuit],
        result.initial_layout.virtual_to_physical(),
        result.final_layout.virtual_to_physical(),
        result.swaps_added,
        result.mirrors_accepted,
        result.trial_index,
    )


async def drive(plan: str) -> dict:
    service = MirageService(
        executor="processes",
        max_workers=2,
        window_ms=150.0,
        tenant_quota=2,
        # Longer than the admission window, so a tripped breaker is still
        # open (not half-open) when the follow-up window dispatches.
        breaker_cooldown_s=5.0,
        coverage_params=COVERAGE_PARAMS,
        prewarm=False,
    )
    await asyncio.to_thread(service.executor.prewarm)

    tasks = []
    for tenant, factory, width, seed in ADMITTED:
        tasks.append(asyncio.ensure_future(service.submit(
            factory(width), TOPOLOGY, seed=seed, tenant=tenant, **KNOBS)))
    # A deadline that expires while parked in the 150 ms window: the
    # safety timer must fail it without touching its window siblings.
    doomed = asyncio.ensure_future(service.submit(
        qft(4), TOPOLOGY, seed=301, tenant="deadline", deadline_ms=1.0, **KNOBS))
    # The doomed request expires ~1 ms after admission (releasing its
    # pending slot), so synchronise on the hot tenant's quota being full
    # rather than on the total pending count.
    while service.stats()["tenant_pending"].get("hot", 0) < 2:
        await asyncio.sleep(0.002)

    # Concurrent over-quota pressure from the hot tenant: both rejected,
    # neither starves the cold tenant's admitted work.
    shed = 0
    for seed in (103, 104):
        try:
            await service.submit(ghz(4), TOPOLOGY, seed=seed,
                                 tenant="hot", **KNOBS)
        except ServiceOverloadError as exc:
            assert exc.retry_after_ms > 0, exc.retry_after_ms
            shed += 1
    assert shed == 2, f"expected 2 quota sheds, saw {shed}"

    # Already-expired deadline: typed rejection at admission.
    try:
        await service.submit(ghz(4), TOPOLOGY, seed=302, deadline_ms=0.0,
                             tenant="deadline", **KNOBS)
    except DeadlineExceededError:
        pass
    else:
        raise AssertionError("deadline_ms=0 did not expire at admission")

    results = await asyncio.gather(*tasks)
    try:
        await doomed
    except DeadlineExceededError:
        pass
    else:
        raise AssertionError("parked 1 ms deadline did not expire")

    # A follow-up window: degraded (serial, in-process) when the plan
    # tripped the breaker, primary otherwise — byte-identical either way.
    followup = await service.submit(ghz(5), TOPOLOGY, seed=401,
                                    tenant="cold", **KNOBS)

    stats = service.stats()
    await service.aclose()
    try:
        await service.submit(ghz(3), TOPOLOGY, seed=999, **KNOBS)
    except ServiceClosedError:
        pass
    else:
        raise AssertionError("submit after aclose() was admitted")
    return {
        "results": results,
        "followup": followup,
        "stats": stats,
    }


def main() -> int:
    plan = os.environ.get("MIRAGE_FAULT_PLAN", "")
    outcome = asyncio.run(drive(plan))
    stats = outcome["stats"]

    # Counter assertions: sheds and deadline expirations are exact and
    # plan-independent; recovery counters depend on the injected plan.
    assert stats["shed_requests"] == 2, stats["shed_requests"]
    assert stats["shed"] == {"tenant_quota": 2}, stats["shed"]
    assert stats["deadline_expirations"] == 2, stats["deadline_expirations"]
    dispatch = stats["executor"]
    breaker = stats["breaker"]
    if "kill:" in plan:
        assert dispatch["respawns"] >= 1, dispatch
    if "trip_breaker" in plan:
        assert breaker["trips"] >= 1, breaker
        assert stats["degraded_windows"] >= 1, stats["degraded_windows"]
    if not plan:
        assert dispatch["respawns"] == 0, dispatch
        assert breaker["trips"] == 0, breaker
        assert stats["degraded_windows"] == 0, stats["degraded_windows"]
    assert stats["pending"] == 0, stats["pending"]
    assert stats["drain_abandoned"] == 0, stats["drain_abandoned"]

    # Byte-identity against direct transpile() at the same seeds, with
    # the fault plan cleared so baselines run undisturbed.
    os.environ.pop("MIRAGE_FAULT_PLAN", None)
    coverage = get_coverage_set("sqrt_iswap", **COVERAGE_PARAMS)
    for (tenant, factory, width, seed), result in zip(
        ADMITTED, outcome["results"]
    ):
        direct = transpile(factory(width), TOPOLOGY, coverage=coverage,
                           seed=seed, **KNOBS)
        assert fingerprint(result) == fingerprint(direct), (tenant, seed)
    direct = transpile(ghz(5), TOPOLOGY, coverage=coverage, seed=401, **KNOBS)
    assert fingerprint(outcome["followup"]) == fingerprint(direct)

    print(json.dumps({
        "fault_plan": plan,
        "shed_requests": stats["shed_requests"],
        "deadline_expirations": stats["deadline_expirations"],
        "breaker_trips": breaker["trips"],
        "degraded_windows": stats["degraded_windows"],
        "respawns": dispatch["respawns"],
        "windows": stats["windows"],
        "byte_identical": True,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
