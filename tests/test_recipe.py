"""Tests for the shared CLI/service preparation recipe."""

import pytest

from repro.core.pipeline import PreparationPipeline
from repro.core.recipe import PrepRecipe
from repro.fracture.shots import ShotFracturer
from repro.fracture.trapezoidal import TrapezoidFracturer
from repro.physics.psf import DoubleGaussianPSF


class TestValidation:
    def test_defaults_are_valid(self):
        recipe = PrepRecipe()
        assert recipe.fracture == "trapezoid"
        assert recipe.machine is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fracture": "squares"},
            {"pec_matrix": "banded"},
            {"hierarchy": "deep"},
            {"machine": "laser"},
            {"max_shot": 0.0},
            {"max_shot": -1.0},
            {"energy": -3.0},
            {"dose": 0.0},
            {"address_unit": -0.5},
            {"pec_grid_cell": 0.0},
            {"field_size": -15.0},
            {"workers": -1},
            {"workers": 1.5},
            {"workers": True},
            {"pec": "yes"},
            {"dose": "high"},
            {"shard_retries": -1},
            {"shard_retries": 1.5},
            {"shard_retries": True},
            {"shard_timeout": 0.0},
            {"shard_timeout": -5.0},
            {"shard_timeout": True},
            {"shard_timeout": "later"},
        ],
    )
    def test_bad_values_raise_value_error(self, kwargs):
        with pytest.raises(ValueError):
            PrepRecipe(**kwargs)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown recipe option"):
            PrepRecipe.from_dict({"fractur": "vsb"})

    def test_round_trips_through_dict(self):
        recipe = PrepRecipe(pec=True, field_size=15.0, machine="raster")
        assert PrepRecipe.from_dict(recipe.to_dict()) == recipe

    def test_retry_knobs_round_trip(self):
        recipe = PrepRecipe(shard_retries=5, shard_timeout=2.5)
        assert PrepRecipe.from_dict(recipe.to_dict()) == recipe
        assert recipe.shard_retries == 5
        assert recipe.shard_timeout == 2.5

    def test_recipes_are_hashable_and_comparable(self):
        assert PrepRecipe() == PrepRecipe()
        assert len({PrepRecipe(), PrepRecipe(), PrepRecipe(pec=True)}) == 2


class TestBuildPipeline:
    def test_builds_trapezoid_pipeline(self):
        pipeline = PrepRecipe().build_pipeline()
        assert isinstance(pipeline, PreparationPipeline)
        assert isinstance(pipeline.fracturer, TrapezoidFracturer)
        assert pipeline.corrector is None
        assert pipeline.cache is None

    def test_builds_vsb_pec_pipeline(self):
        recipe = PrepRecipe(
            fracture="vsb", max_shot=1.5, pec=True, pec_matrix="sparse"
        )
        pipeline = recipe.build_pipeline()
        assert isinstance(pipeline.fracturer, ShotFracturer)
        assert pipeline.fracturer.max_shot == 1.5
        assert pipeline.corrector is not None
        assert pipeline.corrector.matrix_mode == "sparse"
        assert pipeline.psf is not None

    def test_explicit_cache_wins_over_cache_dir(self, tmp_path):
        from repro.core.cache import ShardCache

        cache = ShardCache(tmp_path / "a")
        pipeline = PrepRecipe().build_pipeline(
            cache=cache, cache_dir=tmp_path / "b"
        )
        assert pipeline.cache is cache

    def test_arguments_win_over_the_recipe(self):
        # What no recipe says is given at construction, never rebound.
        psf = DoubleGaussianPSF(alpha=0.2, beta=2.0, eta=0.74)
        pipeline = PrepRecipe(pec=True, machine="raster").build_pipeline(
            psf=psf, machine=None, overlap_policy="union"
        )
        assert (pipeline.psf, pipeline.machine) == (psf, None)
        assert pipeline.overlap_policy == "union"

    def test_cache_dir_builds_cache(self, tmp_path):
        pipeline = PrepRecipe().build_pipeline(cache_dir=tmp_path / "c")
        assert pipeline.cache is not None
        assert pipeline.cache.root == tmp_path / "c"
