"""What other code imports from ``repro`` keeps resolving.

Two frozen surfaces, checked without running them:

* the F16 benchmark under ``benchmarks/e2e/`` is never edited with the
  engine, so every ``from repro… import name`` it spells (at any depth)
  must still name something;
* each CLI op loads exactly the ``repro`` modules it runs: the package
  facades resolve their names on first use, so ``import repro.cli``
  loads the parser and the recipe (and no numpy), a flat prep adds the
  GDSII reader, the engine, fracture and machine models, and a PEC prep
  through the cells door adds that door and the PEC layer; the CIF
  reader, the shard cache's file store, the fault injector and the
  process pool load only for a CIF input, a ``--cache-dir``, a fault
  plan and ``--workers`` > 1, and the distributed and service layers
  only for ``--dispatch distributed``, ``work`` and ``serve``.  A
  module that starts loading more shows here, and so does a fork that
  leaves a pool worker something to import.

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

from repro.layout import generators
from repro.layout.gdsii import write_gdsii

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


#: ``import repro.cli``: every CLI op's start-up — the parser and the
#: recipe, no layout reader and no numpy.
CLI_IMPORT = {
    "repro",
    "repro._facade",
    "repro.analysis",
    "repro.analysis.tables",
    "repro.cli",
    "repro.core",
    "repro.core.recipe",
}

#: What a flat prep of a GDSII file without PEC adds: the GDSII reader,
#: engine, fracture, machine models and program export.
FLAT_PREP = {
    "repro.core.executor",
    "repro.core.fields",
    "repro.core.job",
    "repro.core.jobfile",
    "repro.core.ladder",
    "repro.core.pipeline",
    "repro.core.plan",
    "repro.core.stats",
    "repro.fracture",
    "repro.fracture.base",
    "repro.fracture.quality",
    "repro.fracture.trapezoidal",
    "repro.geometry",
    "repro.geometry.boolean",
    "repro.geometry.point",
    "repro.geometry.polygon",
    "repro.geometry.predicates",
    "repro.geometry.scanline",
    "repro.geometry.scanline_fast",
    "repro.geometry.transform",
    "repro.geometry.trapezoid",
    "repro.geometry.vertex_array",
    "repro.layout",
    "repro.layout.cell",
    "repro.layout.cursor",
    "repro.layout.flatten",
    "repro.layout.gdsii",
    "repro.layout.gdsii_records",
    "repro.layout.layer",
    "repro.layout.library",
    "repro.layout.reference",
    "repro.layout.stream",
    "repro.machine",
    "repro.machine.base",
    "repro.machine.column",
    "repro.machine.datapath",
    "repro.machine.program",
    "repro.machine.raster",
    "repro.machine.rle",
    "repro.machine.stage",
    "repro.machine.vector",
    "repro.machine.vsb",
    "repro.physics",
    "repro.physics.constants",
}

#: What a dense-PEC prep through the cells door adds to that.
DENSE_PEC = {
    "repro.core.hierarchical",
    "repro.pec",
    "repro.pec.base",
    "repro.pec.dose_iter",
    "repro.pec.operator",
    "repro.physics.materials",
    "repro.physics.psf",
}

#: Modules outside ``repro`` whose loading a step pins: numpy, and the
#: process pool a serial run never builds.
PINNED = ("numpy", "multiprocessing", "concurrent.futures.process")

#: What a prep imports only where it calls it: the CIF reader, the cells
#: door, the fault injector and the process pool.
CALLED_ONLY = {
    "repro.layout.cif",
    "repro.core.hierarchical",
    "repro.core.faults",
    "concurrent.futures.process",
}

STEPS = f"""
import sys
from repro.cli import _load_prep_path, main

def loaded():
    print("loaded:", *sorted(m for m in sys.modules if m.startswith("repro")))
    print("pinned:", *[m for m in {PINNED!r} if m in sys.modules])

loaded()
flat = ["--field-size", "15", "--machine", "vsb"]
dense_pec = ["--pec", "--hierarchy", "cells", "--machine", "raster"]
for options in (flat, dense_pec):
    assert main(["prep", "in.gds", *options]) == 0
    loaded()
_load_prep_path()
loaded()
"""


def run_on_a_grating(tmp_path, script: str, **grating) -> str:
    """``script``'s stdout, run in a fresh interpreter in ``tmp_path``
    beside ``in.gds``, a small grating."""
    write_gdsii(generators.grating(**grating), tmp_path / "in.gds")
    return subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=tmp_path,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout


def test_each_cli_op_loads_only_the_modules_it_runs(tmp_path):
    out = run_on_a_grating(tmp_path, STEPS, lines=5)
    lines = out.splitlines()
    steps = [set(line.split()[1:]) for line in lines if line.startswith("loaded:")]
    pinned = [set(line.split()[1:]) for line in lines if line.startswith("pinned:")]
    assert steps[0] == CLI_IMPORT
    assert pinned[0] == set()
    assert steps[1] == CLI_IMPORT | FLAT_PREP
    assert steps[2] == CLI_IMPORT | FLAT_PREP | DENSE_PEC
    # Both preps ran serially: no process pool.
    assert pinned[1] == pinned[2] == {"numpy"}
    # What serve and work import before their first job: every run's
    # modules, the vsb fracturer and what a prep imports where it is
    # called.
    preloaded = steps[2] | {"repro.fracture.shots"} | CALLED_ONLY | set(PINNED)
    assert steps[3] | pinned[3] == preloaded
    assert not {name for name in steps[3] if name.startswith(LAZY)}


WITNESS = """
import os, sys
from repro.cli import main

parent = os.getpid()

class Witness:
    # Fork copies this finder into every pool worker, and the import
    # system asks it only for modules not imported yet.
    def find_spec(self, name, path=None, target=None):
        if os.getpid() != parent and name.startswith("repro"):
            with open("first-imports.txt", "a") as stream:
                stream.write(name + "\\n")
        return None

sys.meta_path.insert(0, Witness())
pool = ["--field-size", "15", "--workers", "2"]
# The cells run reuses the pool the flat run forked before the parent
# imported the cells door.
for hierarchy in ("flat", "cells"):
    assert main(["prep", "in.gds", *pool, "--hierarchy", hierarchy]) == 0
"""


def test_pool_workers_first_import_no_repro_module(tmp_path):
    # README "Fork note": the parent loads every module a shard needs
    # before the pool forks.
    out = run_on_a_grating(tmp_path, WITNESS, lines=10)
    assert out.count("2 workers, parallel") == 2
    assert not (tmp_path / "first-imports.txt").exists()


def facade_table(package: str) -> dict:
    """The ``{public name: leaf module}`` literal ``package``'s
    ``__init__`` hands to ``facade``, as written."""
    init = SRC.joinpath(*package.split("."), "__init__.py")
    (call,) = [
        node
        for node in ast.walk(ast.parse(init.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "facade"
    ]
    names = [key.value for key in call.args[1].keys]
    assert len(names) == len(set(names)), f"{package}: a name listed twice"
    return ast.literal_eval(call.args[1])


FACADES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in (SRC / "repro").glob("**/__init__.py")
)


@pytest.mark.parametrize("package", FACADES)
def test_facade_resolves_each_name_to_its_leaf(package):
    table = facade_table(package)
    module = importlib.import_module(package)
    assert set(module.__all__) - {"__version__"} == set(table)
    for name, leaf in table.items():
        # The leaf first: a submodule the import system binds onto its
        # package (geometry's ``offset``) must not hide the name.
        own = importlib.import_module(f"{package}.{leaf or name}")
        assert getattr(module, name) is (own if leaf is None else getattr(own, name))
    assert set(module.__all__) <= set(dir(module))
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    message = f"module '{package}' has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=f"^{message}$"):
        module.no_such_name


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
