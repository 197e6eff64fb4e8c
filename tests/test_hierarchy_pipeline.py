"""Hierarchy-aware pipeline: cells-mode execution, sharding and caching.

The ``hierarchy="cells"`` path fractures each cell once, replicates the
figures per placement and ships *pre-fractured figure shards* through
the same executor/cache machinery as flat runs.  These tests pin the
semantics: figure parity with flat runs on well-formed arrays, reuse
statistics, cache-key separation between the flat and figure key
families, warm-run determinism and the CLI surface.
"""

import pytest

from repro.cli import main
from repro.core.cache import ShardCache, shard_cache_key
from repro.core.executor import (
    ExecutionResult,
    Shard,
    ShardOverlapWarning,
    plan_figure_shards,
)
from repro.core.pipeline import PreparationPipeline
from repro.core.recipe import RULES
from repro.fracture.trapezoidal import TrapezoidFracturer
from repro.geometry.polygon import Polygon
from repro.geometry.trapezoid import Trapezoid
from repro.layout import generators
from repro.layout.flatten import flatten_cell
from repro.pec.dose_iter import IterativeDoseCorrector
from repro.physics.psf import DoubleGaussianPSF

PSF = DoubleGaussianPSF(alpha=0.2, beta=2.0, eta=0.74)


@pytest.fixture
def memory_lib():
    return generators.memory_array(words=4, bits=4, blocks=(3, 3))


class TestPlanFigureShards:
    FIGS = [
        Trapezoid.from_rectangle(x * 10.0, y * 10.0, x * 10.0 + 4, y * 10.0 + 4)
        for y in range(3)
        for x in range(3)
    ]

    def test_single_shard_without_field_size(self):
        plan = plan_figure_shards(self.FIGS, None)
        assert len(plan) == 1
        assert plan[0].figures == tuple(self.FIGS)
        assert plan[0].polygons == ()

    def test_buckets_row_major(self):
        plan = plan_figure_shards(self.FIGS, 10.0)
        assert len(plan) == 9
        assert [s.index for s in plan] == [
            (c, r) for r in range(3) for c in range(3)
        ]
        assert all(len(s.figures) == 1 for s in plan)

    def test_empty_and_validation(self):
        assert plan_figure_shards([], 10.0) == []
        with pytest.raises(ValueError):
            plan_figure_shards(self.FIGS, -1.0)

    def test_cross_shard_figure_overlap_warns(self):
        from repro.core.executor import ShardOverlapWarning

        # One figure straddles the tile boundary and overlaps a figure
        # of the neighbouring shard — same diagnostic as polygon plans.
        figs = [
            # Centre in tile 0 but reaching into tile 1...
            Trapezoid.from_rectangle(4.0, 0.0, 13.0, 4.0),
            # ...overlapping this tile-1 figure's interior.
            Trapezoid.from_rectangle(12.0, 0.0, 16.0, 4.0),
        ]
        with pytest.warns(ShardOverlapWarning):
            plan_figure_shards(figs, 10.0)
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            plan_figure_shards(figs, 10.0, overlap_policy="ignore")
            plan_figure_shards(self.FIGS, 10.0)  # disjoint: no warning

    def test_union_policy_rejected_for_figures(self):
        with pytest.raises(ValueError, match="union"):
            plan_figure_shards(self.FIGS, 10.0, overlap_policy="union")
        pipe = PreparationPipeline(
            overlap_policy="union", field_size=10.0, hierarchy="cells"
        )
        lib = generators.memory_array(words=2, bits=2, blocks=(2, 2))
        with pytest.raises(ValueError, match="union"):
            pipe.run(lib)

    def test_cells_with_union_is_refused_before_any_fracture(self, monkeypatch):
        import repro.core.hierarchical as hierarchical

        def fracture(*args, **kwargs):
            raise AssertionError("fractured a hierarchy the run refuses")

        monkeypatch.setattr(hierarchical, "fracture_hierarchical", fracture)
        pipe = PreparationPipeline(
            hierarchy="cells", overlap_policy="union", field_size=20.0
        )
        with pytest.raises(ValueError) as refused:
            pipe.run(generators.memory_array(blocks=(4, 4)))
        cells_union = {"hierarchy": "cells", "overlap_policy": "union"}
        assert (cells_union, str(refused.value)) in RULES
        # Raw polygons carry no hierarchy: they run flat, unioned.
        overlapping = [
            Polygon.rectangle(0.0, 0.0, 2.0, 2.0),
            Polygon.rectangle(1.0, 0.0, 3.0, 2.0),
        ]
        result = pipe.run(overlapping)
        assert result.execution.hierarchy == "flat"
        assert result.fracture_report.total_area == pytest.approx(6.0)


class TestCellsModeParity:
    def test_figure_parity_with_flat(self, memory_lib):
        flat = PreparationPipeline().run(memory_lib)
        cells = PreparationPipeline(hierarchy="cells").run(memory_lib)
        assert cells.job.figure_count() == flat.job.figure_count()
        assert cells.fracture_report.total_area == pytest.approx(
            flat.fracture_report.total_area
        )
        assert cells.source_polygons == flat.source_polygons

    def test_reuse_statistics_surface(self, memory_lib):
        result = PreparationPipeline(hierarchy="cells").run(memory_lib)
        stats = result.execution
        assert stats.hierarchy == "cells"
        assert stats.cells_fractured == 1
        # 4x4 bits per block, 3x3 blocks: every placement after the
        # first reuses the cached cell fracture.
        assert stats.instances_reused == 4 * 4 * 3 * 3 - 1
        assert stats.instances_fallback == 0

    def test_flat_runs_report_flat(self, memory_lib):
        result = PreparationPipeline().run(memory_lib)
        assert result.execution.hierarchy == "flat"
        assert result.execution.instances_reused == 0

    def test_raw_polygons_fall_back_to_flat(self):
        polys = [
            p
            for v in generators.grating(lines=4)
            .top_cell()
            .polygons.values()
            for p in v
        ]
        result = PreparationPipeline(hierarchy="cells").run(polys)
        assert result.execution.hierarchy == "flat"
        assert result.job.figure_count() == 4

    def test_invalid_hierarchy_rejected(self, memory_lib):
        with pytest.raises(ValueError):
            PreparationPipeline(hierarchy="deep")

    def test_per_layer_runs_cells(self, memory_lib):
        flat = PreparationPipeline()
        cells = PreparationPipeline(hierarchy="cells")
        layers = sorted(flatten_cell(memory_lib.top_cell()))
        assert layers
        for layer in layers:
            one_flat = flat.run(memory_lib, layer=layer)
            one_cells = cells.run(memory_lib, layer=layer)
            assert one_cells.job.figure_count() == one_flat.job.figure_count()
            assert one_cells.execution.hierarchy == "cells"
            assert one_cells.source_polygons == one_flat.source_polygons

    def test_one_pipeline_runs_library_and_raw_sources(self, memory_lib):
        polys = [
            p
            for v in generators.grating(lines=3)
            .top_cell()
            .polygons.values()
            for p in v
        ]
        pipe = PreparationPipeline(hierarchy="cells")
        results = [pipe.run(source) for source in (memory_lib, polys, memory_lib)]
        assert [r.execution.hierarchy for r in results] == [
            "cells",
            "flat",
            "cells",
        ]
        assert results[0].job.figure_count() == results[2].job.figure_count()
        assert results[1].job.figure_count() == 3

    def test_multi_layer_geometry_exposes_once(self):
        # The flat path fractures the union of every requested layer in
        # one pass; cells mode must match — geometry drawn on several
        # layers of a cell exposes once, not once per layer.
        from repro.layout.cell import Cell

        cell = Cell("DOUBLE")
        cell.add_rectangle(0, 0, 1, 1, layer=1)
        cell.add_rectangle(0, 0, 1, 1, layer=2)
        flat = PreparationPipeline().run(cell)
        cells = PreparationPipeline(hierarchy="cells").run(cell)
        assert flat.job.figure_count() == 1
        assert cells.job.figure_count() == 1
        assert cells.fracture_report.total_area == pytest.approx(1.0)

    def test_cells_mode_with_field_sharding_and_pec(self, memory_lib):
        pipe = PreparationPipeline(
            corrector=IterativeDoseCorrector(),
            psf=PSF,
            field_size=15.0,
            hierarchy="cells",
        )
        result = pipe.run(memory_lib)
        assert result.corrected
        assert result.execution.shard_count > 1
        lo, hi = result.job.dose_range()
        assert 0.0 < lo <= hi


class TestFigureShardCache:
    def test_flat_and_figure_keys_never_collide(self, memory_lib, tmp_path):
        shared = ShardCache(tmp_path)
        PreparationPipeline(cache=shared, field_size=20.0, hierarchy="cells").run(
            memory_lib
        )
        # The flat expansion of the memory array has polygons straddling
        # the 20 µm tile boundaries — the planner is expected to flag
        # them (the cells run buckets per-cell figures and stays quiet).
        with pytest.warns(ShardOverlapWarning):
            flat = PreparationPipeline(cache=shared, field_size=20.0).run(memory_lib)
        # Same geometry, different key family: all flat shards miss.
        assert flat.execution.cache_hits == 0

    def test_key_covers_figures(self):
        fig = Trapezoid.from_rectangle(0, 0, 2, 2)
        moved = Trapezoid.from_rectangle(0, 0, 2, 2.0000001)
        frac = TrapezoidFracturer()
        base = shard_cache_key(
            Shard(index=(0, 0), polygons=(), figures=(fig,)), frac
        )
        assert base == shard_cache_key(
            Shard(index=(0, 0), polygons=(), figures=(fig,)), frac
        )
        assert base != shard_cache_key(
            Shard(index=(0, 0), polygons=(), figures=(moved,)), frac
        )
        assert base != shard_cache_key(
            Shard(index=(1, 0), polygons=(), figures=(fig,)), frac
        )

    def test_figure_key_ignores_fracturer_config(self):
        # Figures are the full input of a pre-fractured shard; the
        # fracturer never runs, so its configuration must not force
        # spurious misses.
        fig = Trapezoid.from_rectangle(0, 0, 2, 2)
        shard = Shard(index=(0, 0), polygons=(), figures=(fig,))
        assert shard_cache_key(
            shard, TrapezoidFracturer(kernel="fast")
        ) == shard_cache_key(shard, TrapezoidFracturer(kernel="exact"))


class TestExecutorFigures:
    FIGS = [
        Trapezoid.from_rectangle(x * 10.0, 0.0, x * 10.0 + 4, 4.0)
        for x in range(6)
    ]

    def executed(self, pipe):
        """``FIGS`` as a cells run's shard loop leaves them, held."""
        shards = plan_figure_shards(self.FIGS, pipe.field_size)
        execution = ExecutionResult(pipe.corrector is not None)
        pipe._run_shards([(shards, 0)], len(shards), execution, True)
        return execution

    def test_prefractured_shots(self):
        result = self.executed(PreparationPipeline())
        assert [s.trapezoid for s in result.shots] == self.FIGS
        assert all(s.dose == 1.0 for s in result.shots)
        assert not result.corrected

    def test_sharded_equals_unsharded(self):
        one = self.executed(PreparationPipeline())
        sharded = self.executed(PreparationPipeline(field_size=10.0))
        assert sharded.stats.shard_count == 6
        assert [s.trapezoid for s in sharded.shots] == [
            s.trapezoid for s in one.shots
        ]

    def test_corrected_figures(self):
        pipe = PreparationPipeline(corrector=IterativeDoseCorrector(), psf=PSF)
        result = self.executed(pipe)
        assert result.corrected
        assert len(result.shots) == len(self.FIGS)
        assert any(s.dose != 1.0 for s in result.shots)


class TestCLIHierarchy:
    def test_demo_cells_reports_reuse(self, capsys):
        assert (
            main(["demo", "--workload", "memory", "--hierarchy", "cells"])
            == 0
        )
        out = capsys.readouterr().out
        assert "hierarchy:" in out
        assert "instances reused" in out

    def test_demo_flat_stays_quiet(self, capsys):
        assert main(["demo", "--workload", "memory"]) == 0
        assert "hierarchy:" not in capsys.readouterr().out

    def test_figure_counts_match_across_modes(self, capsys):
        def figures(args):
            assert main(args) == 0
            out = capsys.readouterr().out
            return [
                line for line in out.splitlines() if "figures:" in line
            ][0]

        flat = figures(["demo", "--workload", "memory"])
        cells = figures(
            ["demo", "--workload", "memory", "--hierarchy", "cells"]
        )
        assert flat == cells
