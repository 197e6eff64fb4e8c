"""What other code imports from ``repro`` keeps resolving.

Two frozen surfaces, checked without running them:

* the F16 benchmark under ``benchmarks/e2e/`` is never edited with the
  engine, so every ``from repro… import name`` it spells (at any depth)
  must still name something;
* ``import repro.cli`` — every CLI op's start-up — loads the whole
  package except the distributed and service layers, which stay lazy
  (``--dispatch distributed`` and ``serve`` import them on use); a
  module that starts loading more, or a split that introduces a cycle,
  shows here.

Two boundaries are checked the same way: nothing under ``repro.dist``
imports ``repro.core.cache`` — the fleet computes, and the preparing
process alone stores results; and ``repro.core.ladder`` imports nothing
from the executor, the pipeline or ``repro.dist`` — its shard task and
its fleet rung are injected, and it counts onto the leaf
``repro.core.stats``.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
E2E = sorted((ROOT / "benchmarks" / "e2e").glob("*.py"))

#: The packages ``import repro.cli`` must not load.
LAZY = ("repro.dist", "repro.service")


def repro_imports(path: Path):
    """``(module, name)`` for every ``from repro… import name`` in
    ``path``, nested imports included."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        module = getattr(node, "module", None) or ""
        if isinstance(node, ast.ImportFrom) and module.partition(".")[0] == "repro":
            for alias in node.names:
                yield module, alias.name


@pytest.mark.parametrize("path", E2E, ids=lambda path: path.name)
def test_every_benchmark_import_resolves(path):
    for module, name in repro_imports(path):
        imported = importlib.import_module(module)
        found = hasattr(imported, name) or importlib.util.find_spec(f"{module}.{name}")
        assert found, f"{path.name}: from {module} import {name} no longer resolves"


def test_the_benchmark_imports_something_from_repro():
    assert sum(1 for path in E2E for _ in repro_imports(path)) > 10


def test_cli_import_loads_the_package_but_the_lazy_layers():
    modules = set()
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        modules.add(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    expected = {name for name in modules if not name.startswith(LAZY)}
    assert {"repro.core.plan", "repro.core.ladder"} <= expected
    probe = (
        "import sys, repro.cli; "
        "print('\\n'.join(m for m in sys.modules if m.startswith('repro')))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    assert set(out.split()) == expected


def imported_modules(path: Path):
    """Every module ``path`` imports, at any depth: ``import a.b`` gives
    ``a.b``; ``from a import b`` gives ``a`` and ``a.b``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize(
    "path",
    sorted((SRC / "repro" / "dist").glob("*.py")),
    ids=lambda path: path.name,
)
def test_the_fleet_holds_no_cache(path):
    # Workers only compute (an EBS1 lease in, an EBC1 commit out); the
    # preparing process is the one writer of the shard cache.
    imported = set(imported_modules(path))
    assert "repro.core.cache" not in imported


def test_the_ladder_knows_no_caller():
    imported = set(imported_modules(SRC / "repro" / "core" / "ladder.py"))
    above = ("repro.core.executor", "repro.core.pipeline", "repro.dist")
    assert not {name for name in imported if name.startswith(above)}
    assert "repro.core.stats" in imported
