"""Paper-facing benchmark tables pinned in tier-1.

The experiment benchmarks under ``benchmarks/`` are not collected by the
tier-1 run, so a refactor could drift a committed table unnoticed.  The
tables pinned here are regenerated from their benchmark module and held
against the committed ``benchmarks/results/BENCH_*.json`` row by row.
"""

import importlib.util
import json
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_t2_fracture_quality_matches_committed_table():
    """T2 (figure count, sliver and rectangle share, area error by
    fracturer and workload): counts and percentages exact, the area
    error column within 1e-12 of exact cover.

    The area-error column is the one that moves with the interpreter:
    the benchmark's reference is a builtin ``sum`` (compensated on
    CPython ≥ 3.12), the report's total a left-to-right sum, so rows
    that print ``0`` on 3.11 print ~2e-15 on 3.12 — hence the bound
    instead of equality, and this test on the CI version matrix.
    """
    committed = json.loads(
        (BENCHMARKS / "results" / "BENCH_t2_fracture_quality.json").read_text()
    )["table"]
    table = _bench_module("bench_t2_fracture_quality").run_experiment().splitlines()
    assert table[:3] == committed[:3]
    assert len(table) == len(committed) > 3
    for row, golden in zip(table[3:], committed[3:]):
        *cells, area_error = row.split()
        *golden_cells, golden_error = golden.split()
        assert cells == golden_cells
        assert float(area_error) <= 1e-12 and float(golden_error) <= 1e-12
