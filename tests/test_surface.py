"""No definition in ``src/repro`` is reached only from the tests.

One ``ast`` pass over the code that runs or ships the package —
``src/``, ``benchmarks/``, ``tools/`` and ``examples/``, never
``tests/`` — collects every name the code spells: a name, an
attribute, an imported name and a string constant that is an
identifier (a name looked up with ``getattr`` or sent over the wire).
A package facade's table (the dict handed to ``repro._facade.facade``)
and a module's ``__all__`` export a name; they do not use it.

A definition — a module-level function, class or assignment, or a
method of such a class — is used when its name is spelled outside its
own body (for an assignment, outside its own statement).  Names
are matched bare, so a common name (``area``, ``run``) counts as used
wherever anything spells it; the walk can miss dead code, but what it
flags is unused.  Dunder names are the language's protocol and exempt.

The flagged set must equal :data:`KEPT`, both ways: a new definition
that only a test calls fails, and so does a kept one that code outside
the tests starts to use (it leaves the table).  One pass, not a
closure: a definition used only by an unused one is not flagged until
its user goes, so a newly dead chain shows its root.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "tools", "examples")

#: Definitions only tests reach, kept on purpose: the oracles tests
#: check live code against, the HTTP hooks ``http.server`` calls by
#: name, names README's examples use, and a substrate tests contrast
#: with silicon.
KEPT = {
    "repro.core.hierarchical.transform_trapezoid": (
        "scalar oracle of transform_trapezoid_array "
        "(tests/test_scanline_fast.py, tests/test_hierarchical.py)"
    ),
    "repro.core.job.MachineJob.portable_digest": (
        "the committed golden digests of prepared jobs "
        "(tests/test_golden_jobs.py, tests/test_shot_record.py)"
    ),
    "repro.core.jobfile.loads_program": (
        ".ebp reader the program writer is checked with "
        "(tests/test_machine_program.py)"
    ),
    "repro.core.pipeline.PipelineResult.total_write_time": (
        "README quick-start: result.total_write_time('raster')"
    ),
    "repro.geometry.polygon.Polygon.contains_point": (
        "containment oracle for the boolean engine and the fracturers "
        "(tests/test_boolean.py, tests/test_properties.py)"
    ),
    "repro.machine.program.decode_shot_segment": (
        "decoder of the shot records export_program writes "
        "(tests/test_machine_program.py)"
    ),
    "repro.machine.program.raster_coverage_lines": (
        "decoder of the raster runs export_program writes "
        "(tests/test_machine_program.py)"
    ),
    "repro.machine.rle.decode_to_coverage": (
        "runs back to an address map, against the membership oracle "
        "and the rasterizer (tests/test_rle.py, tests/test_machine_program.py)"
    ),
    "repro.pec.base.interaction_matrix_at_points": (
        "dense matrix the sparse operator is compared with bit for bit "
        "(tests/test_exposure_operator.py, tests/test_pec.py)"
    ),
    "repro.pec.base.trapezoid_exposure": (
        "closed-form per-shot exposure (through rectangle_exposure) the "
        "operators, the FFT simulator and the PSF levels are checked with "
        "(tests/test_exposure_operator.py, tests/test_pec.py)"
    ),
    "repro.physics.materials.GAAS": (
        "the high-Z substrate the scattering models are checked against "
        "silicon with (tests/test_montecarlo.py, tests/test_psf.py)"
    ),
    "repro.physics.psf.DoubleGaussianPSF.radial": (
        "the profile fit_double_gaussian must recover "
        "(tests/test_montecarlo.py)"
    ),
    "repro.service.app.PrepRequestHandler.do_GET": "http.server hook",
    "repro.service.app.PrepRequestHandler.do_POST": "http.server hook",
    "repro.service.app.PrepRequestHandler.do_DELETE": "http.server hook",
    "repro.service.app.PrepRequestHandler.log_message": "http.server hook",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_ASSIGNMENTS = (ast.Assign, ast.AnnAssign)


def _names(root: ast.AST) -> Iterator[str]:
    """Every name spelled under ``root``, facade tables and ``__all__``
    lists apart: they export names, they do not use them."""
    stack = [root]
    while stack:
        node = stack.pop()
        children = list(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value
        elif isinstance(node, ast.Call) and getattr(node.func, "id", "") == "facade":
            children = [child for child in children if not isinstance(child, ast.Dict)]
        elif isinstance(node, ast.Assign) and any(
            getattr(target, "id", "") == "__all__" for target in node.targets
        ):
            children = node.targets
        stack.extend(children)


def _regions(module: str, tree: ast.Module) -> Iterator[Tuple[ast.AST, Tuple]]:
    """The module split into ``(subtree, (qualified name, name) of each
    definition it lies in)``, every node in exactly one subtree: the
    definitions are module-level functions, classes and assignments to
    a bare name, and the members of those classes."""
    for node in tree.body:
        if isinstance(node, _ASSIGNMENTS):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
            yield node, tuple((f"{module}.{name}", name) for name in names)
            continue
        if not isinstance(node, _DEFINITIONS):
            yield node, ()
            continue
        outer = (f"{module}.{node.name}", node.name)
        if not isinstance(node, ast.ClassDef):
            yield node, (outer,)
            continue
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFINITIONS):
                inner = (f"{outer[0]}.{child.name}", child.name)
                yield child, (outer, inner)
            else:
                yield child, (outer,)


def unused_definitions() -> Set[str]:
    """Qualified names of the definitions in ``src/repro`` whose name
    nothing outside ``tests/`` spells, except in their own body."""
    uses: Counter = Counter()
    own: Counter = Counter()
    defined: Dict[str, str] = {}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_bytes(), str(path))
            relative = path.relative_to(ROOT).with_suffix("")
            if relative.parts[0] != "src":
                uses.update(_names(tree))
                continue
            for root, enclosing in _regions(".".join(relative.parts[1:]), tree):
                defined.update(enclosing)
                for name in _names(root):
                    uses[name] += 1
                    for qualified, own_name in enclosing:
                        own[qualified] += name == own_name
    return {
        qualified
        for qualified, name in defined.items()
        if uses[name] == own[qualified]
        if not (name.startswith("__") and name.endswith("__"))
    }


def test_only_the_kept_definitions_are_reached_from_tests_alone():
    unused = unused_definitions()
    assert sorted(unused - KEPT.keys()) == [], "reached only from tests/"
    assert sorted(KEPT.keys() - unused) == [], "used outside tests/: drop from KEPT"
