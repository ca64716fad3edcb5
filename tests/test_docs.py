"""Tier-1 wiring for the executable-documentation checks.

``tools/check_docs.py`` executes every python snippet in ``README.md``
and ``docs/*.md``, lints docstring coverage on the public API and checks
the ``MIRAGE_*`` knob inventory against src; these tests run the same
checks under pytest so documented examples cannot rot even without the
dedicated CI job.
"""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_docs", module)
    spec.loader.exec_module(module)
    return module


CHECK_DOCS = _load_check_docs()


def test_documentation_files_exist():
    for path in CHECK_DOCS.documentation_files():
        assert path.exists(), path


def test_readme_snippets_execute():
    readme = REPO_ROOT / "README.md"
    blocks = CHECK_DOCS.extract_blocks(readme)
    assert blocks, "README must carry at least one runnable snippet"
    assert CHECK_DOCS.run_document(readme) == []


def test_docs_snippets_execute():
    for path in sorted((REPO_ROOT / "docs").glob("*.md")):
        assert CHECK_DOCS.run_document(path) == [], path


def test_public_api_docstrings():
    assert CHECK_DOCS.lint_docstrings() == []


def test_env_knob_inventory():
    assert CHECK_DOCS.src_env_knobs()
    assert CHECK_DOCS.lint_env_knobs() == []


def test_env_knob_lint_flags_both_directions(tmp_path):
    """An undocumented knob src reads, and a knob a test sets that src
    never reads, are each reported by name."""
    # Spelled in pieces so this file itself names no knob.
    documented, hidden, gone = (
        "MIRAGE" + "_" + word for word in ("DOCUMENTED", "HIDDEN", "GONE")
    )
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "knobs.py").write_text(
        f'import os\nos.environ.get("{documented}")\n'
        f'os.environ.get("{hidden}")\n'
    )
    (tmp_path / "README.md").write_text(f"Set `{documented}=1`.\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_x.py").write_text(
        f'monkeypatch.setenv("{documented}", "1")\n'
        f'monkeypatch.setenv("{gone}", "object")\n'
    )
    errors = CHECK_DOCS.lint_env_knobs(tmp_path)
    assert len(errors) == 2, errors
    assert errors[0].startswith(f"{hidden}: read by src")
    assert errors[1].startswith(f"{gone}: named in tests/test_x.py")


def test_env_read_lint_flags_a_stray_read(tmp_path):
    """Only ``repro/config.py`` may touch the environment."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "config.py").write_text("import os\nos.environ.get('X')\n")
    (package / "clean.py").write_text("import os\nos.getpid()\n")
    (package / "stray.py").write_text("import os\nos.getenv('X')\n")
    assert CHECK_DOCS.lint_env_reads(tmp_path) == [
        "src/repro/stray.py: reads the environment directly — "
        "add a field to src/repro/config.py instead"
    ]
    assert CHECK_DOCS.lint_env_reads() == []


def test_knob_table_lint_flags_both_directions(tmp_path):
    """A knob missing from the docs table, a docs row src does not
    parse and a stale default are each reported by name."""
    kept, undocumented, stale = (
        "MIRAGE" + "_" + word for word in ("KEPT", "UNDOCUMENTED", "STALE")
    )
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "config.py").write_text(
        "KNOBS = (\n"
        f"    ('kept', '{kept}', 3, int),\n"
        f"    ('undocumented', '{undocumented}', None, int),\n"
        ")\n"
    )
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "configuration.md").write_text(
        "| Knob | Field | Default |\n| --- | --- | --- |\n"
        f"| `{kept}` | `kept` | `4` |\n"
        f"| `{stale}` | `stale` | `''` |\n"
    )
    # The first two are the inventory's own findings; the table's follow.
    *_, missing, extra, changed = CHECK_DOCS.lint_env_knobs(tmp_path)
    assert missing.startswith(
        f"{undocumented}: in src/repro/config.py KNOBS but not in the "
        "docs/configuration.md table"
    )
    assert extra.startswith(
        f"{stale}: in the docs/configuration.md table but not in "
        "src/repro/config.py KNOBS"
    )
    assert changed.startswith(f"{kept}: ")
    assert "('kept', '4')" in changed and "('kept', '3')" in changed
