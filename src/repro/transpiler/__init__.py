"""Transpiler substrate: topologies, layouts, metrics, executors."""

from repro.transpiler.executors import (
    EXECUTORS,
    DispatchSession,
    PayloadHandle,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    TrialExecutor,
    executor_scope,
    resolve_executor,
)
from repro.transpiler.remote import HostAddress, RemoteExecutor
from repro.transpiler.faults import (
    ChunkFaults,
    CorruptResultError,
    FaultPlan,
    InjectedWorkerCrash,
    parse_fault_plan,
)
from repro.transpiler.kernel import (
    IntDAG,
    NeighborTable,
    neighbor_table,
    route_kernel,
)
from repro.transpiler.layout import Layout, apply_layout, interaction_graph, vf2_layout
from repro.transpiler.metrics import (
    CircuitMetrics,
    evaluate,
    gate_coordinate,
    improvement,
)
from repro.transpiler.topologies import (
    CouplingMap,
    all_to_all_topology,
    grid_topology,
    heavy_hex_topology,
    line_topology,
    ring_topology,
    square_lattice_topology,
    topology_by_name,
)

# Resolved on first attribute access: importing the worker-host module
# eagerly would make ``python -m repro.transpiler.remote.host`` run a
# second copy of it as ``__main__``.
_LAZY_EXPORTS = {
    "WorkerHost": "repro.transpiler.remote.host",
    "reap_stale_host_files": "repro.transpiler.remote.host",
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        import importlib

        module = importlib.import_module(_LAZY_EXPORTS[name])
        return getattr(module, name)
    raise AttributeError(f"module 'repro.transpiler' has no attribute {name!r}")


__all__ = [
    "EXECUTORS",
    "DispatchSession",
    "PayloadHandle",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "TrialExecutor",
    "executor_scope",
    "resolve_executor",
    "HostAddress",
    "RemoteExecutor",
    "WorkerHost",
    "ChunkFaults",
    "CorruptResultError",
    "FaultPlan",
    "InjectedWorkerCrash",
    "parse_fault_plan",
    "reap_stale_host_files",
    "Layout",
    "apply_layout",
    "interaction_graph",
    "vf2_layout",
    "IntDAG",
    "NeighborTable",
    "neighbor_table",
    "route_kernel",
    "CircuitMetrics",
    "evaluate",
    "gate_coordinate",
    "improvement",
    "CouplingMap",
    "all_to_all_topology",
    "grid_topology",
    "heavy_hex_topology",
    "line_topology",
    "ring_topology",
    "square_lattice_topology",
    "topology_by_name",
]
