"""Result objects returned by the top-level transpilation API.

:class:`TranspileResult` describes one transpiled circuit, including the
per-stage timing report of the pipeline that produced it;
:class:`BatchResult` aggregates the results of one
:func:`repro.core.transpile.transpile_many` call, plus the provenance of
how the batch was dispatched (executor, dispatch counters).
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from repro.circuits.circuit import QuantumCircuit
from repro.transpiler.layout import Layout
from repro.transpiler.metrics import CircuitMetrics


@dataclasses.dataclass
class TranspileResult:
    """Everything produced by one transpilation run.

    Attributes
    ----------
    circuit : QuantumCircuit
        The routed circuit on physical qubits.
    metrics : CircuitMetrics
        Depth / cost / SWAP metrics of the routed circuit.
    method : str
        ``"mirage"``, ``"sabre"`` or ``"vf2"`` (SWAP-free embedding).
    basis : str
        Basis gate the cost metrics are expressed in.
    initial_layout : Layout
        Virtual-to-physical layout at circuit start.
    final_layout : Layout
        Layout after the last gate (differs when SWAPs or mirror gates
        moved data).
    swaps_added : int
        SWAP gates inserted by routing.
    mirrors_accepted : int
        Mirror substitutions performed (MIRAGE only).
    mirror_candidates : int
        Two-qubit gates that reached the intermediate layer.
    runtime_seconds : float
        Transpilation time of this circuit.  From
        :func:`~repro.core.transpile.transpile` it is the elapsed wall
        clock of the call (parallel trials overlap); from
        :func:`~repro.core.transpile.transpile_many` and
        :func:`~repro.core.transpile.compare_methods` it is the
        circuit's planning and selection work plus its summed *worker*
        trial time, which a parallel executor overlaps across circuits.
        Compare batch timings through ``BatchResult.runtime_seconds``,
        not through this field.
    selection_metric : str
        Post-selection metric used across trials.
    trial_index : int
        Index of the winning routing trial (``-1`` if routing was skipped).
    input_metrics : CircuitMetrics or None
        Metrics of the cleaned, consolidated input circuit (before
        routing) for improvement reporting.
    pipeline_report : list of dict or None
        Per-stage timing records (name, seconds, gate counts, skipped
        flag) of the pipeline run that produced this result.  The
        ``plan`` stage builds the routing trials; the executor runs
        them outside any stage, so the ``route`` record holds selection
        only, with the trial time reported in ``trial_seconds``.
    trial_seconds : float or None
        Summed wall-clock seconds spent inside this circuit's routing
        trials (worker time).  ``None`` when routing was skipped (VF2
        embedding) or for results predating this field.
    input_permutation : list of int or None
        Wire permutation applied by eliding the input program's SWAP
        gates: the input circuit's output on virtual qubit ``q`` is the
        routed output of virtual qubit ``input_permutation[q]``, i.e. it
        sits on physical qubit
        ``final_layout.v2p(input_permutation[q])``.  The identity when
        the input has no SWAPs; ``None`` when no cleaning stage ran.
    """

    circuit: QuantumCircuit
    metrics: CircuitMetrics
    method: str
    basis: str
    initial_layout: Layout
    final_layout: Layout
    swaps_added: int
    mirrors_accepted: int
    mirror_candidates: int
    runtime_seconds: float
    selection_metric: str
    trial_index: int
    input_metrics: CircuitMetrics | None = None
    pipeline_report: list[dict] | None = None
    trial_seconds: float | None = None
    input_permutation: list[int] | None = None

    def stage_seconds(self) -> dict[str, float]:
        """Wall-clock seconds per pipeline stage.

        Returns
        -------
        dict of str to float
            Stage name to summed seconds; empty if no report is attached.
        """
        seconds: dict[str, float] = {}
        for record in self.pipeline_report or []:
            seconds[record["name"]] = (
                seconds.get(record["name"], 0.0) + record["seconds"]
            )
        return seconds

    @property
    def mirror_acceptance_rate(self) -> float:
        """Fraction of intermediate-layer candidates accepted as mirrors."""
        if self.mirror_candidates == 0:
            return 0.0
        return self.mirrors_accepted / self.mirror_candidates

    def summary(self) -> dict[str, float | int | str]:
        """Flat summary row, convenient for tables and benches."""
        return {
            "method": self.method,
            "basis": self.basis,
            "depth": round(self.metrics.depth, 3),
            "total_cost": round(self.metrics.total_cost, 3),
            "swaps": self.swaps_added,
            "two_qubit_gates": self.metrics.two_qubit_count,
            "mirrors": self.mirrors_accepted,
            "mirror_rate": round(self.mirror_acceptance_rate, 3),
            "runtime_s": round(self.runtime_seconds, 3),
            "selection": self.selection_metric,
        }


@dataclasses.dataclass
class BatchResult:
    """Results of one :func:`repro.core.transpile.transpile_many` call.

    Attributes
    ----------
    results : list of TranspileResult
        One result per input circuit, in input order — regardless of the
        executor that produced them.  Under
        ``transpile_many(..., on_error="return")`` a circuit whose
        deadline expired holds its
        :class:`~repro.exceptions.DeadlineExceededError` instance at
        that position instead; the aggregate helpers below skip such
        entries.
    runtime_seconds : float
        Wall-clock time of the whole batch.
    executor : str
        Name of the trial executor used (``"serial"``, ``"threads"``,
        ``"processes"``, ...).
    dispatch : dict or None
        Provenance counters of the shared dispatch accumulated on the
        executor during this batch: ``shared_pickles`` (anchor
        serialisations — the batch's coverage set),
        ``payload_pickles`` (payload serialisations: one per routed
        circuit's trial spec), ``chunks``,
        ``tasks`` (routing trials dispatched), ``bytes_shipped``
        (payload-transport bytes attached to chunks — the anchor and
        payload blobs, once per chunk) and ``bytes_copied`` (payload
        bytes workers unpickled — each blob at most once per worker),
        plus ``circuits`` and ``routed`` counts.  It also records ``overlap_seconds``
        (planning/selection wall-clock performed while dispatched trials
        were still in flight) and
        ``plan_seconds`` (summed :func:`~repro.core.pipeline.run_plan` seconds, all spent on
        the dispatching thread).  ``None`` when unavailable (e.g.
        results predating this field).
    """

    results: list[TranspileResult]
    runtime_seconds: float
    executor: str
    dispatch: dict | None = None

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[TranspileResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> TranspileResult:
        return self.results[index]

    def stage_seconds(self) -> dict[str, float]:
        """Per-stage wall-clock seconds summed across the batch.

        Returns
        -------
        dict of str to float
            Stage name to summed seconds across all circuits.  Under
            parallel executors the sum can exceed ``runtime_seconds``
            (worker time vs. elapsed time).
        """
        seconds: dict[str, float] = {}
        for result in self._completed():
            for name, value in result.stage_seconds().items():
                seconds[name] = seconds.get(name, 0.0) + value
        return seconds

    def _completed(self) -> list[TranspileResult]:
        """Results that are actual results (skips ``on_error="return"``
        exception placeholders)."""
        return [r for r in self.results if isinstance(r, TranspileResult)]

    def circuit_seconds(self) -> list[float]:
        """Per-circuit ``runtime_seconds``, in input order.

        Exception placeholders contribute ``0.0`` (no result exists to
        time) so positions stay aligned with the input batch.
        """
        return [
            result.runtime_seconds if isinstance(result, TranspileResult)
            else 0.0
            for result in self.results
        ]

    def trial_seconds(self) -> float:
        """Summed routing-trial worker seconds across the batch."""
        return sum(
            result.trial_seconds or 0.0 for result in self._completed()
        )

    def summary(self) -> dict[str, float | int | str]:
        """Flat summary row of the whole batch."""
        completed = self._completed()
        return {
            "circuits": len(self.results),
            "executor": self.executor,
            "total_swaps": sum(r.swaps_added for r in completed),
            "total_mirrors": sum(r.mirrors_accepted for r in completed),
            "mean_depth": round(
                sum(r.metrics.depth for r in completed) / len(completed),
                3,
            )
            if completed
            else 0.0,
            "runtime_s": round(self.runtime_seconds, 3),
        }

    def summaries(self) -> list[dict[str, float | int | str]]:
        """Per-circuit summary rows (exception placeholders skipped)."""
        return [result.summary() for result in self._completed()]
