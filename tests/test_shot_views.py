"""The carried form: figure/shot lists as block-backed views.

Four things are pinned here:

* the views behave as the ``List[Trapezoid]``/``List[Shot]`` they
  replace (``==``, slicing, ``take``, pickling, the cache fingerprint);
* the array validation of a block from outside accepts and rejects
  exactly what building the objects row by row would — lazily built
  objects must not make the check lazy;
* a resident preparation constructs **no** ``Trapezoid`` or ``Shot``,
  a ``hierarchy="cells"`` one no ``Transform`` or ``Point`` per cell
  placement, and a reticle read from its GDSII file — resident,
  streamed to a pool, or through an ``EBS1`` shard payload — **no**
  ``Point``, nor does the overlap advisory planning a zone plate read
  from one (an object count is exactly what a warmed cache from an
  earlier test can hide: CI also runs this file alone, in a cold
  process);
* shard and segment keys are the bytes the object lists hashed to
  (literals computed at the commit before the views existed).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import plan
from repro.core.cache import fingerprint, program_segment_key, shard_cache_key
from repro.core.executor import (
    Shard,
    _process_shard,
    plan_figure_shards,
    plan_shards,
    shutdown_worker_pool,
)
from repro.core.hierarchical import fracture_hierarchical
from repro.core.jobfile import (
    JobFileError,
    dumps_job,
    dumps_shard,
    dumps_shard_result,
    job_file_bytes,
    loads_job,
    loads_shard,
    loads_shard_result,
    write_job,
)
from repro.core.recipe import PrepRecipe
from repro.fracture.base import (
    Shot,
    ShotView,
    dosed,
    shot_rows,
    shots_from_rows,
    with_doses,
)
from repro.fracture.trapezoidal import TrapezoidFracturer
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.transform import Transform
from repro.geometry.trapezoid import Trapezoid
from repro.geometry.vertex_array import (
    FigureView,
    trapezoid_array,
    trapezoid_fields,
)
from repro.layout import generators
from repro.layout.flatten import flatten_cell
from repro.layout.gdsii import read_gdsii, write_gdsii
from repro.machine.program import MachineSpec

FIGURES = [
    Trapezoid(0.0, 1.0, 0.0, 2.0, 0.5, 1.5),
    Trapezoid(-1.0, 3.5, 0.0, 2.0, 0.5, 1.5),
    Trapezoid.from_rectangle(4.0, 4.0, 6.0, 5.0),
]
SHOTS = [Shot(t, dose) for t, dose in zip(FIGURES, (1.0, 0.25, 1.732))]


def shot_fields(shot):
    return (*trapezoid_fields(shot.trapezoid), shot.dose)


# -- the views as sequences ---------------------------------------------------


class TestViewsAreSequences:
    figures = FigureView(trapezoid_array(FIGURES))
    shots = ShotView(shot_rows(SHOTS))

    def test_equal_to_the_list_they_replace(self):
        assert self.figures == FIGURES and FIGURES == self.figures
        assert self.figures == tuple(FIGURES)
        assert self.shots == SHOTS and SHOTS == self.shots
        assert list(self.figures) == FIGURES
        assert [shot_fields(s) for s in self.shots] == [
            shot_fields(s) for s in SHOTS
        ]
        assert self.figures != FIGURES[:2] and self.figures != FIGURES[::-1]
        assert self.shots != [s.with_dose(2.0) for s in SHOTS]
        assert self.figures != [1, 2, 3] and self.figures != "abc"
        assert self.shots != self.figures

    def test_empty_views(self):
        for empty in (FigureView.concat([]), ShotView.concat([]), dosed([])):
            assert empty == [] and len(empty) == 0 and not empty
            assert list(empty) == []
        assert shot_rows([]).shape == (0, 7) and dosed([]).rows.shape == (0, 7)

    def test_indexing_slicing_and_take(self):
        assert self.figures[0] == FIGURES[0] and self.figures[-1] == FIGURES[-1]
        assert shot_fields(self.shots[-2]) == shot_fields(SHOTS[-2])
        for out_of_range in (3, -4):
            with pytest.raises(IndexError):
                self.figures[out_of_range]
            with pytest.raises(IndexError):
                self.shots[out_of_range]
        tail = self.figures[1:]
        assert isinstance(tail, FigureView) and tail == FIGURES[1:]
        assert self.shots[::-1] == SHOTS[::-1]
        picked = self.figures.take([2, 0])
        assert isinstance(picked, FigureView) and picked == [FIGURES[2], FIGURES[0]]
        assert self.shots.take(np.array([1])) == [SHOTS[1]]
        assert self.shots.figures == FIGURES

    def test_sequence_protocol(self):
        assert FIGURES[1] in self.figures and self.figures.index(FIGURES[2]) == 2
        assert list(reversed(self.figures)) == FIGURES[::-1]
        with pytest.raises(TypeError):
            hash(self.figures)

    def test_blocks_are_read_only_and_handed_over_without_a_loop(self):
        assert trapezoid_array(self.figures) is self.figures.rows
        assert shot_rows(self.shots) is self.shots.rows
        for view in (self.figures, self.shots, self.shots.figures):
            with pytest.raises(ValueError):
                view.rows[0, 0] = 9.0

    def test_pickle_round_trip(self):
        for view in (self.figures, self.shots, FigureView.concat([])):
            clone = pickle.loads(pickle.dumps(view))
            assert type(clone) is type(view) and clone == view
            assert not clone.rows.flags.writeable
        shard = Shard((0, 0), (), figures=self.figures)
        assert pickle.loads(pickle.dumps(shard)) == shard
        assert shard != Shard((0, 0), (), figures=self.figures[:2])

    def test_fingerprint_is_the_lists(self):
        assert fingerprint(self.figures) == fingerprint(FIGURES)
        assert fingerprint(self.figures) == fingerprint(tuple(FIGURES))
        assert fingerprint(self.shots) == fingerprint(SHOTS)
        assert fingerprint(self.figures[:0]) == fingerprint([])
        assert fingerprint(self.figures[1:]) != fingerprint(self.figures[:2])

    def test_dose_helpers(self):
        assert dosed(FIGURES, 2.0) == [Shot(t, 2.0) for t in FIGURES]
        redosed = with_doses(SHOTS, [3.0, 2.0, 1.0])
        assert redosed == [
            s.with_dose(d) for s, d in zip(SHOTS, (3.0, 2.0, 1.0))
        ]
        assert with_doses(self.shots, [3.0, 2.0, 1.0]) == redosed
        for bad in (-1.0, [1.0, -0.5, 1.0]):
            with pytest.raises(ValueError, match="non-negative"):
                dosed(FIGURES, bad)


# -- validation equivalence ---------------------------------------------------

_value = st.one_of(
    st.integers(-4, 4).map(float),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e-9]),
)
_blocks = st.lists(
    st.one_of(
        # mostly-valid rows, so that a late bad row is reached
        st.tuples(
            st.just(0.0), st.just(1.0), st.just(0.0), st.just(2.0),
            st.just(0.5), st.just(1.5), st.sampled_from([0.0, 1.0, 2.5]),
        ),
        st.tuples(*[_value] * 7),
    ),
    max_size=6,
).map(lambda rows: np.array(rows, dtype=np.float64).reshape(-1, 7))


def object_loop_complaint(rows):
    """What building the objects says (the parent's reader, verbatim)."""
    try:
        if not np.isfinite(rows).all():
            raise ValueError("non-finite coordinate or dose")
        figures = [Trapezoid(*row) for row in rows[:, :6].tolist()]
        [Shot(t, dose) for t, dose in zip(figures, rows[:, 6].tolist())]
    except ValueError as exc:
        return str(exc)
    return None


@settings(deadline=None, max_examples=200)
@given(_blocks)
def test_array_validation_is_the_object_loops(rows):
    expected = object_loop_complaint(rows)
    # A well-sized payload carrying the block: header count patched.
    header_and_report = _UNIT_PAYLOAD[: -7 * 8]
    forged = (
        header_and_report[:8]
        + len(rows).to_bytes(4, "big")
        + header_and_report[12:]
        + rows.astype(">f8").tobytes()
    )
    if expected is None:
        view = shots_from_rows(rows)
        assert np.array_equal(view.rows, rows, equal_nan=True)
        assert loads_shard_result(forged).shots == view
    else:
        with pytest.raises(ValueError) as caught:
            shots_from_rows(rows)
        assert str(caught.value) == expected
        with pytest.raises(JobFileError, match="bad figure record"):
            loads_shard_result(forged)


_UNIT_SHARD = (
    Shard((0, 0), (Polygon.rectangle(0, 0, 1, 1),)),
    TrapezoidFracturer(),
    None,
    None,
)
#: One shard's ``EBC1`` payload, made once: each example forges its own
#: copy.
_UNIT_PAYLOAD = dumps_shard_result(_process_shard(*_UNIT_SHARD))


def test_a_bad_job_file_fails_at_load_not_at_first_touch():
    good = dumps_job(loads_job(dumps_job(_job_of(SHOTS))))
    # y_top (second int32 of the first record) below y_bottom.
    bad = bytearray(good)
    y_top = job_file_bytes(0) + 4
    bad[y_top : y_top + 4] = (-5000).to_bytes(4, "big", signed=True)
    with pytest.raises(JobFileError, match="bad figure record: y_top"):
        loads_job(bytes(bad))


def _job_of(shots):
    from repro.core.job import MachineJob

    return MachineJob(shots, name="views")


# -- the object count ---------------------------------------------------------


@pytest.fixture
def constructed(monkeypatch):
    """Counts of ``Trapezoid``/``Shot``/``Point``/``Transform``
    constructions in this process."""
    counts = {Trapezoid: 0, Shot: 0, Point: 0, Transform: 0}
    for cls in counts:
        original = cls.__init__

        def counting(self, *args, _cls=cls, _original=original, **kwargs):
            counts[_cls] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def mini_memory():
    return generators.memory_array(blocks=(1, 1))


def mini_reticle(tmp_path):
    return read_gdsii(mini_reticle_file(tmp_path))


def mini_reticle_file(tmp_path):
    path = tmp_path / "reticle.gds"
    generators.write_full_reticle(path, tiles=2)
    return path


MEMORY = dict(
    pec=True, pec_matrix="dense", hierarchy="cells", field_size=25.0,
    machine="raster",
)
RETICLE = dict(field_size=100.0, machine="vsb")


def prepare(recipe, source, out, cache_dir=None):
    pipeline = recipe.build_pipeline(cache_dir=cache_dir)
    result = recipe.prepare(
        pipeline, source, program_path=out / "out.ebp", job_path=out / "out.ebj"
    )
    write_job(result.job, out / "again.ebj")
    return result


def figures_built(constructed):
    return constructed[Trapezoid], constructed[Shot]


def assert_materialises_what_the_rows_say(job, constructed):
    assert figures_built(constructed) == (0, 0)
    rows = np.concatenate(job.row_blocks)
    shots = list(job.shots)
    assert figures_built(constructed) == (len(rows), len(rows))
    assert len(shots) == job.figure_count() == len(rows) > 0
    assert [shot_fields(s) for s in shots] == [tuple(r) for r in rows.tolist()]


class TestNoObjectOnThePrepPath:
    def test_cells_dense_pec_raster_cold_then_warm(self, tmp_path, constructed):
        recipe = PrepRecipe(**MEMORY)
        library = mini_memory()
        cold = prepare(recipe, library, tmp_path, tmp_path / "cache")
        assert cold.execution.cache_misses == cold.execution.shard_count > 1
        assert figures_built(constructed) == (0, 0)
        artifacts = [(tmp_path / n).read_bytes() for n in ("out.ebj", "out.ebp")]
        warm = prepare(recipe, library, tmp_path, tmp_path / "cache")
        assert warm.execution.cache_hits == warm.execution.shard_count
        assert warm.machine_program.cache_hits == warm.machine_program.segment_count
        assert artifacts == [
            (tmp_path / n).read_bytes() for n in ("out.ebj", "out.ebp")
        ]
        assert (tmp_path / "again.ebj").read_bytes() == artifacts[0]
        assert_materialises_what_the_rows_say(warm.job, constructed)

    def test_cells_hierarchy_builds_no_object_per_placement(
        self, tmp_path, constructed
    ):
        # 1 and 16 blocks of 256 bit cells: the expansion carries the
        # placements as arrays, so the counts must not grow with them.
        built = []
        for blocks in ((1, 1), (4, 4)):
            path = tmp_path / f"memory{blocks[0]}.gds"
            write_gdsii(generators.memory_array(blocks=blocks), path)
            library = read_gdsii(path)
            before = dict(constructed)
            prepare(PrepRecipe(**dict(MEMORY, pec=False)), library, tmp_path)
            built.append([constructed[c] - before[c] for c in (Transform, Point)])
        assert built[0] == built[1]

    def test_flat_reticle_vsb(self, tmp_path, constructed):
        result = prepare(PrepRecipe(**RETICLE), mini_reticle(tmp_path), tmp_path)
        assert result.execution.shard_count == 4
        assert_materialises_what_the_rows_say(result.job, constructed)

    def test_pool_parent_builds_none_either(self, tmp_path, constructed):
        library = mini_reticle(tmp_path)
        serial = prepare(PrepRecipe(**RETICLE), library, tmp_path)
        expected = (tmp_path / "out.ebj").read_bytes()
        constructed.update({Trapezoid: 0, Shot: 0})
        shutdown_worker_pool()  # fork after the counters are in place
        try:
            pooled = prepare(PrepRecipe(workers=2, **RETICLE), library, tmp_path)
        finally:
            shutdown_worker_pool()
        assert pooled.execution.parallel
        assert (tmp_path / "out.ebj").read_bytes() == expected
        assert pooled.job.digest() == serial.job.digest()
        assert_materialises_what_the_rows_say(pooled.job, constructed)

    def test_reticle_file_resident_builds_no_point(self, tmp_path, constructed):
        path = mini_reticle_file(tmp_path)
        constructed[Point] = 0  # the generator's own, writing the file
        result = prepare(PrepRecipe(**RETICLE), read_gdsii(path), tmp_path)
        assert result.execution.shard_count == 4
        assert constructed[Point] == 0

    def test_reticle_file_streamed_to_a_pool_builds_no_point(
        self, tmp_path, constructed
    ):
        path = mini_reticle_file(tmp_path)
        prepare(PrepRecipe(**RETICLE), read_gdsii(path), tmp_path)
        artifacts = [(tmp_path / n).read_bytes() for n in ("out.ebj", "out.ebp")]
        constructed[Point] = 0
        shutdown_worker_pool()  # fork after the counters are in place
        recipe = PrepRecipe(streaming=True, workers=2, **RETICLE)
        try:
            # Not prepare(): a streamed job is written as it runs.
            streamed = recipe.prepare(
                recipe.build_pipeline(),
                path,
                program_path=tmp_path / "out.ebp",
                job_path=tmp_path / "out.ebj",
            )
        finally:
            shutdown_worker_pool()
        assert streamed.execution.parallel
        assert artifacts == [
            (tmp_path / n).read_bytes() for n in ("out.ebj", "out.ebp")
        ]
        assert constructed[Point] == 0

    def test_ebs1_round_trip_builds_no_point(self, tmp_path, constructed):
        path = mini_reticle_file(tmp_path)
        points_backed = Shard((1, 2), (Polygon.rectangle(0, 0, 1, 1),) * 2)
        constructed[Point] = 0
        flat = flatten_cell(read_gdsii(path).top_cell())
        polygons = [p for polys in flat.values() for p in polys]
        for shard in (*plan_shards(polygons, RETICLE["field_size"]), points_backed):
            again = loads_shard(dumps_shard(shard))
            assert dumps_shard(again) == dumps_shard(shard)
        assert constructed[Point] == 0

    def test_overlap_advisory_on_curves_builds_no_point(
        self, tmp_path, constructed, monkeypatch
    ):
        path = tmp_path / "fzp.gds"
        write_gdsii(generators.fresnel_zone_plate(), path)
        checked = []
        real = plan._interiors_overlap

        def counting(*pair):
            checked.append(pair)
            return real(*pair)

        monkeypatch.setattr(plan, "_interiors_overlap", counting)
        constructed[Point] = 0  # the generator's own
        flat = flatten_cell(read_gdsii(path).top_cell())
        shards = plan_shards([p for polys in flat.values() for p in polys], 10.0)
        assert len(checked) > 0  # the exact check ran
        assert constructed[Point] == 0
        assert all(p.ring is not None for s in shards for p in s.polygons)


# -- keys pinned to the bytes the object lists hashed to ---------------------


class TestKeysAreTheParents:
    def test_figure_shard_keys(self):
        pipeline = PrepRecipe(**MEMORY).build_pipeline()
        hier = fracture_hierarchical(
            mini_memory(), pipeline.fracturer, merge_layers=True
        )
        shards = plan_figure_shards(hier.figures[None], MEMORY["field_size"])
        keys = [
            shard_cache_key(s, pipeline.fracturer, pipeline.corrector, pipeline.psf)
            for s in shards
        ]
        assert [len(s.figures) for s in shards] == FIGURE_SHARD_SIZES
        assert (keys[0], keys[-1]) == FIGURE_SHARD_KEYS
        # The same shard carried as the objects hashes the same.
        as_objects = Shard(shards[0].index, (), figures=tuple(shards[0].figures))
        config = (None, pipeline.corrector, pipeline.psf)
        assert shard_cache_key(as_objects, *config) == keys[0]
        result = _process_shard(shards[0], pipeline.fracturer, None, None)
        spec = MachineSpec("raster", address_unit=0.5)
        assert program_segment_key(result, spec, (0.0, 0.0), 1.0) == FIGURE_SEGMENT_KEY

    def test_polygon_shard_and_segment_keys(self, tmp_path):
        flat = flatten_cell(mini_reticle(tmp_path).top_cell())
        polygons = [p for polys in flat.values() for p in polys]
        shards = plan_shards(polygons, RETICLE["field_size"])
        fracturer = TrapezoidFracturer()
        assert shard_cache_key(shards[0], fracturer, None, None) == POLYGON_SHARD_KEY
        result = _process_shard(shards[0], fracturer, None, None)
        assert len(result.shots) == 2332
        assert (
            program_segment_key(result, MachineSpec("vsb"), (0.0, 0.0), 1.0)
            == POLYGON_SEGMENT_KEY
        )


FIGURE_SHARD_SIZES = [224, 224, 224, 224, 64, 64]
FIGURE_SHARD_KEYS = (
    "ae22dfafea61bcfc02b7d908e9ba36cd280cda505cad0beae788dc38554e526c",
    "57bac1eb261c9e3c2de4a0f49eb3454ef885b5e969e67798b5722862d1b6845c",
)
FIGURE_SEGMENT_KEY = "fe3f1fa9a1899bf36ef61d6b478ed2d2d174807cb5e76d16436c267d34142ca0"
POLYGON_SHARD_KEY = "37cf080b38a6e60ef3c0465a067de0da47c76bcfbb6ccc0d17be4c5390f73ca9"
POLYGON_SEGMENT_KEY = "d8e333969149f61dd7d64ea06c063a6cca92e4ce3e1562be0e5efdf64bb97f67"
