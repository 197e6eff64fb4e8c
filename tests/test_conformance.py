"""The conformance matrix in tier-1 (``tools/conformance.py``).

Every content column's all-pairs cover of the execution axes runs
through the python door, plus the busiest cli cell (a real
``python -m repro.cli`` process) and the busiest service cell (HTTP
against a live ``serve``) of each column; every cell must be
``cmp``-identical — ``.ebj`` and ``.ebp`` — to its column's reference,
with the mode-independent counters equal and each mode's honesty
witness present.  ``python tools/conformance.py`` runs the full cli and
service covers.  The table's own shape — knob classification, the
unsupported list, README's copy — is pinned at the bottom.
"""

from __future__ import annotations

import dataclasses
import itertools
from pathlib import Path

import pytest

import conformance
from conformance import AXES, COLUMNS, DOORS, Cell, cover, unsupported
from repro.core.executor import shutdown_worker_pool
from repro.core.recipe import PrepRecipe
from repro.core.stats import ExecutionStats
from repro.dist import shutdown_coordinators

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    with conformance.Fleet(tmp_path_factory.mktemp("fleet")) as running:
        yield running
    shutdown_coordinators()
    shutdown_worker_pool()


def busiest(cells):
    """The cell farthest from the reference (table order on ties)."""
    reference = Cell(cells[0].column).axes()
    return max(cells, key=lambda c: sum(a != b for a, b in zip(c.axes(), reference)))


PYTHON_CELLS = [cell for column in COLUMNS.values() for cell in cover(column)]
PROCESS_CELLS = [
    busiest(cover(column, door))
    for door in ("cli", "service")
    for column in COLUMNS.values()
    if cover(column, door)
]


@pytest.mark.parametrize("cell", PYTHON_CELLS + PROCESS_CELLS, ids=str)
def test_cell_is_identical_to_its_reference(cell, fleet, tmp_path):
    assert conformance.verdict(cell, conformance.run(cell, tmp_path, fleet)) == []


class TestTheTable:
    def test_every_recipe_field_is_content_or_execution(self):
        # A new knob must say whether it may change bytes.
        names = [f.name for f in dataclasses.fields(PrepRecipe)]
        assert sorted(conformance.CONTENT + conformance.EXECUTION) == sorted(names)
        assert set(AXES) - {"cache", "faults", "source"} <= set(conformance.EXECUTION)

    def test_columns_span_the_content_knobs(self):
        knobs = [dict(column.knobs) for column in COLUMNS.values()]
        assert len(COLUMNS) >= 6
        assert {k.get("hierarchy", "flat") for k in knobs} == {"flat", "cells"}
        assert {k.get("pec_matrix") for k in knobs if k.get("pec")} >= {
            "sparse",
            "hybrid",
            None,  # dense, the default
        }
        assert {k.get("fracture", "trapezoid") for k in knobs} == {"trapezoid", "vsb"}
        assert {k.get("machine") for k in knobs} == {"raster", "vsb", "vector"}
        assert any(not k.get("pec") for k in knobs)

    @pytest.mark.parametrize("column", COLUMNS.values(), ids=lambda c: c.name)
    @pytest.mark.parametrize("door", DOORS)
    def test_cover_meets_every_supported_pair(self, column, door):
        def pairs(cell):
            return set(itertools.combinations(zip(AXES, cell.axes()), 2))

        supported = [c for c in conformance.cells(column, door) if not unsupported(c)]
        wanted = set().union(*map(pairs, supported)) if supported else set()
        chosen = cover(column, door)
        assert set().union(*map(pairs, chosen)) == wanted if chosen else not wanted
        assert len(chosen) <= 16 and all(not unsupported(c) for c in chosen)

    def test_pairs_no_suite_ran_before_are_in_the_cover(self):
        def met(**settings):
            return any(
                all(
                    dict(cell.column.knobs).get(k, getattr(cell, k, None)) == v
                    for k, v in settings.items()
                )
                for cell in PYTHON_CELLS
            )

        assert met(dispatch="distributed", hierarchy="cells")
        assert met(dispatch="distributed", pec_matrix="sparse")
        assert met(dispatch="distributed", pec_matrix="hybrid")
        assert met(streaming=True, pec_matrix="sparse")
        assert met(streaming=True, pec_matrix="hybrid")
        assert met(faults="transient", hierarchy="cells")
        assert met(faults="kill_worker", hierarchy="cells")
        assert met(dispatch="distributed", source="cif")

    def test_an_unsupported_cell_says_why_and_does_not_run(self, tmp_path):
        cell = Cell(COLUMNS["memory-cells-raster"], streaming=True)
        with pytest.raises(ValueError, match="requires hierarchy='flat'") as refusal:
            conformance.run(cell, tmp_path)
        # The recipe's own words, not a second copy of them.
        with pytest.raises(ValueError) as recipe:
            PrepRecipe(streaming=True, hierarchy="cells")
        assert str(recipe.value) in str(refusal.value)
        assert "built-in workloads only" in unsupported(
            Cell(COLUMNS["fzp-pec-vsb"], door="service")
        )

    def test_a_drifted_fracture_report_is_red(self):
        # Same bytes and counters, one report field off: the verdict
        # names the field.
        cell = Cell(COLUMNS["grating-raster"])
        want = conformance.reference(cell.column)
        drifted = want.report.area_error + 1e-14
        outcome = want._replace(
            report=dataclasses.replace(want.report, area_error=drifted)
        )
        (problem,) = conformance.verdict(cell, outcome)
        assert problem.startswith(f"fracture_report.area_error is {drifted!r}")

    def test_readme_shows_the_rendered_matrix(self):
        assert conformance.render() in (ROOT / "README.md").read_text()


class TestReadingStatisticsBack:
    """The cli and service doors hand back text and JSON; the verdict
    needs the record they were rendered from."""

    SAMPLES = [
        ExecutionStats(),
        ExecutionStats(
            shard_count=9, occupied_shards=8, workers=2, parallel=True,
            field_size=12.5, cache_enabled=True, cache_hits=3, cache_misses=6,
            cache_evictions=1, hierarchy="cells", cells_fractured=4,
            instances_reused=60, instances_fallback=2, kernel_fallbacks=3,
            kernel_coord_fallbacks=1, kernel_slab_fallbacks=1,
            kernel_merge_fallbacks=1, shard_retries=2, shards_salvaged=5,
            pool_restarts=1, shard_timeouts=1, cache_write_failures=1,
            cache_degraded=True, dispatch="distributed", dist_workers=2,
            leases_granted=11, leases_reclaimed=1, worker_deaths=1,
            heartbeats_missed=2, speculative_wins=1, speculative_losses=1,
            duplicate_commits=1, dist_local_fallbacks=1, streamed=True,
            stream_windows=3, peak_window_bytes=1234567, shards_spilled=7,
            spill_bytes=7654321, spill_fallbacks=1,
        ),
    ]  # fmt: skip

    @pytest.mark.parametrize("stats", SAMPLES, ids=["defaults", "everything"])
    def test_lines_and_json_invert(self, stats):
        assert conformance.stats_from_json(stats.to_json()) == stats
        assert conformance.stats_from_lines("\n".join(stats.lines())) == stats
