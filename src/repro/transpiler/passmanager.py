"""Staged transpilation pipeline: property set, passes and pass manager.

A pipeline is an ordered list of named *stages* operating on a shared
:class:`PipelineState` — the circuit being transformed plus a
:class:`PropertySet` of analysis results (coupling map, coverage set,
layouts, routing outcome, ...) that flows between stages instead of
through ad-hoc locals.  Every executed stage is timed and recorded as a
:class:`PassRecord`, which is what the runtime benchmarks (paper Fig. 13)
report per stage.

Two kinds of stages are supported:

* plain callables ``QuantumCircuit -> QuantumCircuit`` (wrapped in a
  :class:`FunctionPass`) for simple circuit transforms, and
* :class:`BasePass` subclasses, which read and write the property set and
  may skip themselves via :meth:`BasePass.should_run` — e.g. routing is
  skipped once the VF2 stage has found a SWAP-free embedding.

The paper's full flow (clean → unroll → consolidate → VF2 → route →
select) is built from these pieces in two halves:
:func:`repro.core.pipeline.build_batch_front_pipeline` runs up to a
``plan`` stage that parks the routing trials, and
:func:`repro.core.pipeline.build_batch_back_pipeline` resumes the same
:class:`PipelineState` (:meth:`PassManager.execute_state`) once the
executor has run them.  :func:`repro.core.transpile.transpile` and
the batch API drive both halves through one engine.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Iterable, Mapping

from repro.exceptions import TranspilerError
from repro.circuits.circuit import QuantumCircuit

CircuitPass = Callable[[QuantumCircuit], QuantumCircuit]


class PropertySet(dict):
    """Shared key/value store flowing through a pipeline run.

    A plain ``dict`` plus :meth:`require` for properties that an upstream
    stage is expected to have produced already.
    """

    def require(self, key: str) -> Any:
        if key not in self:
            raise TranspilerError(
                f"pipeline property {key!r} has not been computed by any "
                "upstream stage"
            )
        return self[key]


@dataclasses.dataclass(frozen=True)
class PassRecord:
    """Timing record of one pipeline stage."""

    name: str
    seconds: float
    gates_before: int
    gates_after: int
    skipped: bool = False


@dataclasses.dataclass
class PipelineState:
    """Mutable state threaded through the stages of one pipeline run."""

    circuit: QuantumCircuit
    properties: PropertySet = dataclasses.field(default_factory=PropertySet)
    records: list[PassRecord] = dataclasses.field(default_factory=list)


class BasePass:
    """A named pipeline stage operating on a :class:`PipelineState`.

    Subclasses override :meth:`run` (and optionally :meth:`should_run` to
    make the stage conditional).  Stages communicate exclusively through
    ``state.circuit`` and ``state.properties``.
    """

    name: str = "pass"

    def should_run(self, state: PipelineState) -> bool:
        return True

    def run(self, state: PipelineState) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


class FunctionPass(BasePass):
    """Adapter wrapping a plain circuit-to-circuit callable as a stage."""

    def __init__(self, name: str, fn: CircuitPass) -> None:
        self.name = name
        self.fn = fn

    def run(self, state: PipelineState) -> None:
        state.circuit = self.fn(state.circuit)


def _as_pass(item: BasePass | tuple[str, CircuitPass]) -> BasePass:
    if isinstance(item, BasePass):
        return item
    if isinstance(item, tuple) and len(item) == 2:
        return FunctionPass(*item)
    raise TypeError(
        "pipeline stages must be BasePass instances or (name, callable) "
        f"tuples, got {item!r}"
    )


class PassManager:
    """Run a fixed sequence of named stages over a shared property set."""

    def __init__(
        self,
        passes: Iterable[BasePass | tuple[str, CircuitPass]] = (),
    ) -> None:
        self.passes: list[BasePass] = [_as_pass(item) for item in passes]
        self.records: list[PassRecord] = []

    def append(
        self, stage: BasePass | tuple[str, CircuitPass]
    ) -> "PassManager":
        """Append a stage: a :class:`BasePass` or a ``(name, fn)`` tuple."""
        self.passes.append(_as_pass(stage))
        return self

    def execute(
        self,
        circuit: QuantumCircuit,
        properties: Mapping[str, Any] | None = None,
    ) -> PipelineState:
        """Run the pipeline and return the full :class:`PipelineState`.

        Stages whose :meth:`BasePass.should_run` returns ``False`` are
        recorded with ``skipped=True`` so reports still show the complete
        pipeline shape.
        """
        state = PipelineState(
            circuit=circuit, properties=PropertySet(properties or {})
        )
        return self.execute_state(state)

    def execute_state(self, state: PipelineState) -> PipelineState:
        """Run the pipeline over an existing :class:`PipelineState`.

        This is how multi-phase drivers (the circuit-level batch engine in
        :func:`repro.core.transpile.transpile_many`) resume a pipeline:
        the front half runs via :meth:`execute`, external work happens on
        the state's properties, then the back half continues on the same
        state — records accumulate across both halves.
        """
        # Shared list so records of a stage that raises are not lost.
        self.records = state.records
        for stage in self.passes:
            gates_before = len(state.circuit)
            if not stage.should_run(state):
                state.records.append(
                    PassRecord(
                        name=stage.name,
                        seconds=0.0,
                        gates_before=gates_before,
                        gates_after=gates_before,
                        skipped=True,
                    )
                )
                continue
            start = time.perf_counter()
            stage.run(state)
            state.records.append(
                PassRecord(
                    name=stage.name,
                    seconds=time.perf_counter() - start,
                    gates_before=gates_before,
                    gates_after=len(state.circuit),
                )
            )
        return state

    def run(
        self,
        circuit: QuantumCircuit,
        properties: Mapping[str, Any] | None = None,
    ) -> QuantumCircuit:
        """Run the pipeline and return the transformed circuit."""
        return self.execute(circuit, properties).circuit

    def total_seconds(self) -> float:
        return sum(record.seconds for record in self.records)

    def report(self) -> list[dict[str, float | str | int | bool]]:
        return [dataclasses.asdict(record) for record in self.records]
