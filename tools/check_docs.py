"""Executable-documentation checks: run doc snippets, lint docstrings.

Four jobs, all wired into CI (and into the tier-1 suite via
``tests/test_docs.py``) so documentation cannot rot:

1. **Snippet execution** — every fenced ```` ```python ```` block in
   ``README.md`` and ``docs/*.md`` is executed, top to bottom, with the
   blocks of one document sharing a namespace (so a later block can use
   names defined by an earlier one).  Blocks fenced as
   ```` ```python no-run ```` are syntax-checked but not executed —
   reserve that for snippets needing hardware or long wall-clock.

2. **Docstring lint** — the public API must carry real docstrings, and
   the documented numpy-style surfaces must keep their section headers
   (``Parameters``/``Returns``/``Attributes``), shapes and determinism
   notes from silently disappearing in refactors.

3. **Environment knob inventory** — every ``MIRAGE_*`` variable the
   library reads (as a quoted literal under ``src/``) is named in
   ``README.md`` or ``docs/*.md``, and every ``MIRAGE_*`` name that
   docs, tests, tools, benchmarks, examples or CI mention is one the
   library reads, so no test sets a knob that does nothing.  The knob
   table of ``docs/configuration.md`` lists exactly the rows of
   ``repro.config.KNOBS``, with the same fields and defaults.

4. **One environment reader** — no ``src/`` module but
   ``repro/config.py`` names ``os.environ`` or ``os.getenv``.

Run from the repo root:

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import ast
import re
import sys
import traceback
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

FENCE_RE = re.compile(r"^```(\S+)?(.*)$")

#: An environment knob name, and one quoted as a string literal.
KNOB_RE = re.compile(r"\bMIRAGE_[A-Z0-9]+(?:_[A-Z0-9]+)*")
QUOTED_KNOB_RE = re.compile(r"[\"'](MIRAGE_[A-Z0-9]+(?:_[A-Z0-9]+)*)[\"']")

#: A direct environment read.
ENV_READ_RE = re.compile(r"\bos\.(?:environ|getenv)\b")

#: The one module allowed to read the environment, and the page holding
#: its knob table (both relative to the repo root).
CONFIG_MODULE = Path("src/repro/config.py")
CONFIG_PAGE = Path("docs/configuration.md")

#: One row of the configuration page's knob table: knob, field, default.
KNOB_ROW_RE = re.compile(r"^\| `(\w+)` \| `(\w+)` \| `([^`]*)` \|", re.MULTILINE)

#: Files and directories (relative to the repo root) whose knob mentions
#: must all name a knob the library reads.
KNOB_MENTIONS = (
    "README.md", "docs", "tests", "tools", "benchmarks", "examples", ".github",
)

#: Public API callables that must have a substantive docstring.
#: Entries are (module, attribute path) pairs.
PUBLIC_API = [
    ("repro.core.transpile", "transpile"),
    ("repro.core.transpile", "transpile_many"),
    ("repro.core.transpile", "compare_methods"),
    ("repro.core.results", "TranspileResult"),
    ("repro.core.results", "BatchResult"),
    ("repro.polytopes.coverage", "CoverageSet.cost_of"),
    ("repro.polytopes.coverage", "CoverageSet.cost_of_many"),
    ("repro.polytopes.coverage", "CoverageSet.mirror_cost_of_many"),
    ("repro.polytopes.coverage", "CoverageSet.depth_of_many"),
    ("repro.weyl.coordinates", "weyl_coordinates"),
    ("repro.weyl.coordinates", "weyl_coordinates_many"),
    ("repro.transpiler.executors", "TrialExecutor.map_shared"),
    ("repro.transpiler.executors", "TrialExecutor.open_dispatch"),
    ("repro.transpiler.executors", "DispatchSession"),
    ("repro.transpiler.executors", "PayloadHandle"),
    ("repro.transpiler.kernel.intdag", "IntDAG"),
    ("repro.transpiler.kernel.intdag", "IntDAG.reversed"),
    ("repro.transpiler.kernel.intdag", "IntDAG.from_ops"),
    ("repro.transpiler.kernel.neighbors", "NeighborTable"),
    ("repro.transpiler.kernel.neighbors", "neighbor_table"),
    ("repro.transpiler.kernel.route", "route_kernel"),
    ("repro.transpiler.kernel.route", "MirrorRule"),
    ("repro.transpiler.kernel.route", "KernelState"),
    ("repro.transpiler.kernel.native", "load_routec"),
    ("repro.transpiler.kernel.native", "native_cache_dir"),
    ("repro.transpiler.kernel.native", "binary_path"),
    ("repro.transpiler.kernel.native", "compiler_command"),
    ("repro.transpiler.passes.mirror", "MirrorTable"),
    ("repro.transpiler.passes.mirror", "mirror_table"),
    ("repro.transpiler.passes.mirror", "mirror_gate"),
    ("repro.transpiler.passes.mirror", "mirror_rule"),
    ("repro.transpiler.passes.sabre_swap", "route"),
    ("repro.transpiler.passes.sabre_swap", "RoutingResult"),
    ("repro.transpiler.metrics", "ops_depth"),
    ("repro.transpiler.metrics", "evaluate"),
    ("repro.transpiler.passes.cleanup", "elide_input_swaps_permuted"),
    ("repro.transpiler.passes.cleanup", "clean_input_permuted"),
    ("repro.transpiler.passes.sabre_swap", "RoutingResult.to_circuit"),
    ("repro.circuits.dag", "kahn_order"),
    ("repro.transpiler.passes.sabre_layout", "run_trial"),
    ("repro.transpiler.passes.sabre_layout", "SabreLayout"),
    ("repro.core.pipeline", "run_plan"),
    ("repro.core.pipeline", "finish_plan"),
    ("repro.core.pipeline", "PlanSpec"),
    ("repro.core.pipeline", "PlannedCircuit"),
    ("repro.exceptions", "TransportError"),
    ("repro.config", "MirageConfig"),
    ("repro.config", "MirageConfig.from_env"),
    ("repro.transpiler.faults", "FaultPlan"),
    ("repro.transpiler.faults", "FaultPlan.chunk_faults"),
    ("repro.transpiler.faults", "ChunkFaults"),
    ("repro.transpiler.faults", "parse_fault_plan"),
    ("repro.transpiler.faults", "InjectedWorkerCrash"),
    ("repro.transpiler.faults", "CorruptResultError"),
    ("repro.service.service", "MirageService"),
    ("repro.service.service", "MirageService.submit"),
    ("repro.service.service", "MirageService.stats"),
    ("repro.service.service", "MirageService.aclose"),
    ("repro.service.service", "ServiceClient"),
    ("repro.polytopes.registry", "CoverageRegistry"),
    ("repro.polytopes.registry", "CoverageRegistry.get"),
    ("repro.polytopes.registry", "RegistryHandle"),
    ("repro.core.pipeline", "resolve_coverage"),
    ("repro.transpiler.executors", "TrialExecutor.lease"),
    ("repro.transpiler.executors", "TrialExecutor.prewarm"),
    ("repro.exceptions", "InvalidModeError"),
    ("repro.exceptions", "ServiceError"),
    ("repro.exceptions", "ServiceOverloadError"),
    ("repro.exceptions", "ServiceClosedError"),
    ("repro.exceptions", "DeadlineExceededError"),
    ("repro.transpiler.faults", "FaultPlan.service_fault"),
    ("repro.transpiler.faults", "FaultPlan.network_fault"),
    ("repro.transpiler.remote.client", "RemoteExecutor"),
    ("repro.transpiler.remote.client", "RemoteExecutor.prewarm"),
    ("repro.transpiler.remote.client", "RemoteExecutor.host_meta"),
    ("repro.transpiler.remote.host", "WorkerHost"),
    ("repro.transpiler.remote.host", "WorkerHost.serve_forever"),
    ("repro.transpiler.remote.protocol", "HostAddress"),
    ("repro.transpiler.remote.protocol", "FrameReader"),
    ("repro.transpiler.remote.protocol", "write_frame"),
    ("repro.transpiler.remote.protocol", "read_frame"),
    ("repro.transpiler.remote.protocol", "parse_hosts"),
    ("repro.exceptions", "RemoteTransportError"),
    ("repro.exceptions", "GarbledFrameError"),
    ("repro.exceptions", "ProtocolVersionError"),
    ("repro.exceptions", "InsecureBindError"),
    ("repro.transpiler.remote.host", "require_loopback"),
    ("repro.transpiler.remote.host", "reap_stale_host_files"),
]

#: Subset that must keep numpy-style section headers.
NUMPY_STYLE = {
    "repro.core.transpile.transpile_many",
    "repro.core.results.TranspileResult",
    "repro.core.results.BatchResult",
    "repro.polytopes.coverage.CoverageSet.cost_of_many",
    "repro.polytopes.coverage.CoverageSet.mirror_cost_of_many",
    "repro.polytopes.coverage.CoverageSet.depth_of_many",
    "repro.weyl.coordinates.weyl_coordinates_many",
    "repro.service.service.MirageService",
    "repro.polytopes.registry.CoverageRegistry",
    "repro.config.MirageConfig",
}

NUMPY_SECTIONS = ("Parameters", "Returns", "Attributes")


def extract_blocks(path: Path) -> list[tuple[int, str, bool]]:
    """Pull fenced python blocks out of a markdown file.

    Returns ``(first_line_number, source, runnable)`` triples; blocks
    fenced with an extra ``no-run`` word are marked non-runnable.
    """
    blocks: list[tuple[int, str, bool]] = []
    lines = path.read_text().splitlines()
    inside = False
    runnable = True
    start = 0
    buffer: list[str] = []
    for number, line in enumerate(lines, start=1):
        match = FENCE_RE.match(line.strip())
        if match is None:
            if inside:
                buffer.append(line)
            continue
        if not inside:
            language = (match.group(1) or "").lower()
            if language == "python":
                inside = True
                runnable = "no-run" not in (match.group(2) or "")
                start = number + 1
                buffer = []
            continue
        blocks.append((start, "\n".join(buffer), runnable))
        inside = False
    if inside:
        # A missing closing fence must not silently drop the block — keep
        # it so the snippet still gets compiled/executed (and fails loudly
        # if the truncation broke it).
        blocks.append((start, "\n".join(buffer), runnable))
    return blocks


def run_document(path: Path) -> list[str]:
    """Execute every runnable block of one document in one namespace."""
    errors: list[str] = []
    namespace: dict = {"__name__": f"docsnippet:{path.name}"}
    for lineno, source, runnable in extract_blocks(path):
        label = f"{path.relative_to(REPO_ROOT)}:{lineno}"
        try:
            code = compile(source, label, "exec")
        except SyntaxError:
            errors.append(f"{label}: snippet does not parse\n"
                          f"{traceback.format_exc(limit=0)}")
            continue
        if not runnable:
            continue
        try:
            exec(code, namespace)
        except Exception:
            errors.append(f"{label}: snippet raised\n"
                          f"{traceback.format_exc(limit=3)}")
    return errors


def _resolve(module_name: str, attribute_path: str):
    module = __import__(module_name, fromlist=["_"])
    target = module
    for part in attribute_path.split("."):
        target = getattr(target, part)
    return target


def lint_docstrings() -> list[str]:
    """Check the public API carries substantive (and styled) docstrings."""
    errors: list[str] = []
    for module_name, attribute_path in PUBLIC_API:
        qualified = f"{module_name}.{attribute_path}"
        try:
            target = _resolve(module_name, attribute_path)
        except (ImportError, AttributeError) as exc:
            errors.append(f"{qualified}: cannot resolve ({exc})")
            continue
        doc = target.__doc__ or ""
        if len(doc.strip()) < 40:
            errors.append(f"{qualified}: missing or trivial docstring")
            continue
        if qualified in NUMPY_STYLE and not any(
            section in doc for section in NUMPY_SECTIONS
        ):
            errors.append(
                f"{qualified}: expected a numpy-style section header "
                f"({'/'.join(NUMPY_SECTIONS)})"
            )
    return errors


def documentation_files() -> list[Path]:
    docs = sorted((REPO_ROOT / "docs").glob("*.md"))
    return [REPO_ROOT / "README.md", *docs]


def _text_files(path: Path) -> list[Path]:
    if path.is_file():
        return [path]
    return sorted(
        file for file in path.rglob("*")
        if file.is_file() and "__pycache__" not in file.parts
    )


def _knobs(files: list[Path], pattern: re.Pattern) -> dict[str, Path]:
    """Knob name -> first file naming it."""
    found: dict[str, Path] = {}
    for file in files:
        for name in pattern.findall(file.read_text(errors="ignore")):
            found.setdefault(name, file)
    return found


def src_env_knobs(root: Path = REPO_ROOT) -> set[str]:
    """The ``MIRAGE_*`` knobs the library reads: quoted literals in src."""
    return set(_knobs(_text_files(root / "src"), QUOTED_KNOB_RE))


def lint_env_knobs(root: Path = REPO_ROOT) -> list[str]:
    """Check the knob inventory both ways (see the module docstring)."""
    errors: list[str] = []
    read = src_env_knobs(root)
    docs = [root / "README.md", *sorted((root / "docs").glob("*.md"))]
    documented = _knobs([path for path in docs if path.exists()], KNOB_RE)
    for name in sorted(read - set(documented)):
        errors.append(f"{name}: read by src but named in no README/docs page")
    mentions: list[Path] = []
    for entry in KNOB_MENTIONS:
        if (root / entry).exists():
            mentions += _text_files(root / entry)
    for name, file in sorted(_knobs(mentions, KNOB_RE).items()):
        if name not in read:
            errors.append(
                f"{name}: named in {file.relative_to(root)} but src never reads it"
            )
    if (root / CONFIG_MODULE).exists():
        errors.extend(_lint_knob_table(root))
    return errors


def _config_knobs(root: Path) -> dict[str, tuple[str, str]]:
    """Knob -> ``(field, repr(default))`` from ``KNOBS`` in config.py."""
    tree = ast.parse((root / CONFIG_MODULE).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "KNOBS"
            for target in node.targets
        ):
            return {
                ast.literal_eval(row.elts[1]): (
                    ast.literal_eval(row.elts[0]),
                    repr(ast.literal_eval(row.elts[2])),
                )
                for row in node.value.elts
            }
    raise ValueError(f"{CONFIG_MODULE}: no KNOBS table")


def _lint_knob_table(root: Path) -> list[str]:
    """The configuration page's table against ``KNOBS``, both ways."""
    page = root / CONFIG_PAGE
    text = page.read_text() if page.exists() else ""
    documented = {
        knob: (field, default)
        for knob, field, default in KNOB_ROW_RE.findall(text)
    }
    table = _config_knobs(root)
    errors = [
        f"{knob}: in {CONFIG_MODULE} KNOBS but not in the {CONFIG_PAGE} table"
        for knob in sorted(set(table) - set(documented))
    ]
    errors += [
        f"{knob}: in the {CONFIG_PAGE} table but not in {CONFIG_MODULE} KNOBS"
        for knob in sorted(set(documented) - set(table))
    ]
    for knob in sorted(set(table) & set(documented)):
        if table[knob] != documented[knob]:
            errors.append(
                f"{knob}: {CONFIG_PAGE} says field/default "
                f"{documented[knob]}, {CONFIG_MODULE} KNOBS says {table[knob]}"
            )
    return errors


def lint_env_reads(root: Path = REPO_ROOT) -> list[str]:
    """Name every ``src/`` module but config.py that reads the environment."""
    return [
        f"{path.relative_to(root)}: reads the environment directly — "
        f"add a field to {CONFIG_MODULE} instead"
        for path in sorted((root / "src").rglob("*.py"))
        if path.relative_to(root) != CONFIG_MODULE
        and ENV_READ_RE.search(path.read_text())
    ]


def main() -> int:
    failures: list[str] = []
    for path in documentation_files():
        if not path.exists():
            failures.append(f"{path}: missing documentation file")
            continue
        count = len(extract_blocks(path))
        print(f"[snippets] {path.relative_to(REPO_ROOT)}: {count} block(s)")
        failures.extend(run_document(path))
    failures.extend(lint_docstrings())
    print(f"[knobs] {len(src_env_knobs())} MIRAGE_* environment knob(s) read by src")
    failures.extend(lint_env_knobs())
    failures.extend(lint_env_reads())
    if failures:
        print(f"\n{len(failures)} documentation failure(s):", file=sys.stderr)
        for failure in failures:
            print(f"- {failure}", file=sys.stderr)
        return 1
    print(
        "documentation OK: snippets execute, public API is documented, "
        "knob inventory matches src, only repro/config.py reads the "
        "environment"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
