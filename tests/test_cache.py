"""Tests for the content-addressed shard cache.

Covers the three guarantees of :mod:`repro.core.cache`: keys change iff
an input changes (hypothesis-swept), payload round-trips are exact, and
cached execution is byte-identical to cold serial execution.
"""

import os
import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layout_strategies import grid_of_squares

from repro.core.cache import (
    CACHE_SCHEMA_VERSION,
    ShardCache,
    fingerprint,
    shard_cache_key,
)
from repro.core.executor import Shard, _process_shard
from repro.core.jobfile import (
    JobFileError,
    dumps_shard_result,
    loads_shard_result,
)
from repro.core.pipeline import PreparationPipeline
from repro.fracture.shots import ShotFracturer
from repro.fracture.trapezoidal import TrapezoidFracturer
from repro.geometry.polygon import Polygon
from repro.pec.dose_iter import IterativeDoseCorrector
from repro.physics.psf import DoubleGaussianPSF

PSF = DoubleGaussianPSF(alpha=0.2, beta=2.0, eta=0.74)


# -- strategies -------------------------------------------------------------

coords = st.integers(min_value=-40, max_value=40)


@st.composite
def rectangles(draw):
    x0 = draw(coords)
    y0 = draw(coords)
    w = draw(st.integers(min_value=1, max_value=20))
    h = draw(st.integers(min_value=1, max_value=20))
    return Polygon.rectangle(x0, y0, x0 + w, y0 + h)


@st.composite
def shards(draw):
    index = (
        draw(st.integers(min_value=0, max_value=5)),
        draw(st.integers(min_value=0, max_value=5)),
    )
    polys = draw(st.lists(rectangles(), min_size=1, max_size=4))
    return Shard(index=index, polygons=tuple(polys))


@st.composite
def fracturer_configs(draw):
    if draw(st.booleans()):
        return TrapezoidFracturer(
            merge=draw(st.booleans()),
            max_height=draw(
                st.one_of(st.none(), st.floats(min_value=0.5, max_value=4.0))
            ),
        )
    return ShotFracturer(
        max_shot=draw(st.floats(min_value=0.5, max_value=4.0)),
        avoid_slivers=draw(st.booleans()),
    )


# -- key properties ---------------------------------------------------------


class TestCacheKeys:
    @given(shard=shards(), fracturer=fracturer_configs())
    @settings(max_examples=40, deadline=None)
    def test_equal_inputs_equal_keys(self, shard, fracturer):
        """Independently rebuilt but identical inputs share a key."""
        clone = Shard(
            index=shard.index,
            polygons=tuple(
                Polygon([(v.x, v.y) for v in p.vertices])
                for p in shard.polygons
            ),
        )
        rebuilt = type(fracturer)(**_config_of(fracturer))
        assert shard_cache_key(shard, fracturer, None, PSF) == shard_cache_key(
            clone, rebuilt, None, PSF
        )

    @given(shard=shards())
    @settings(max_examples=40, deadline=None)
    def test_field_index_perturbation_changes_key(self, shard):
        moved = Shard(
            index=(shard.index[0] + 1, shard.index[1]),
            polygons=shard.polygons,
        )
        fracturer = TrapezoidFracturer()
        assert shard_cache_key(shard, fracturer) != shard_cache_key(
            moved, fracturer
        )

    @given(shard=shards(), delta=st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_vertex_perturbation_changes_key(self, shard, delta):
        first = shard.polygons[0]
        moved_vertices = [(v.x, v.y) for v in first.vertices]
        moved_vertices[0] = (
            moved_vertices[0][0] + delta,
            moved_vertices[0][1],
        )
        perturbed = Shard(
            index=shard.index,
            polygons=(Polygon(moved_vertices),) + shard.polygons[1:],
        )
        fracturer = TrapezoidFracturer()
        assert shard_cache_key(shard, fracturer) != shard_cache_key(
            perturbed, fracturer
        )

    @given(shard=shards(), factor=st.floats(min_value=1.01, max_value=3.0))
    @settings(max_examples=40, deadline=None)
    def test_psf_beta_perturbation_changes_key(self, shard, factor):
        fracturer = TrapezoidFracturer()
        corrector = IterativeDoseCorrector()
        scaled = DoubleGaussianPSF(PSF.alpha, PSF.beta * factor, PSF.eta)
        assert shard_cache_key(
            shard, fracturer, corrector, PSF
        ) != shard_cache_key(shard, fracturer, corrector, scaled)

    @given(shard=shards(), factor=st.floats(min_value=1.5, max_value=8.0))
    @settings(max_examples=40, deadline=None)
    def test_fracture_grid_perturbation_changes_key(self, shard, factor):
        base = TrapezoidFracturer()
        finer = TrapezoidFracturer(grid=base.grid * factor)
        assert shard_cache_key(shard, base) != shard_cache_key(shard, finer)

    def test_corrector_parameters_enter_key(self):
        shard = Shard(index=(0, 0), polygons=(Polygon.rectangle(0, 0, 2, 2),))
        fracturer = TrapezoidFracturer()
        a = shard_cache_key(
            shard, fracturer, IterativeDoseCorrector(max_iterations=30), PSF
        )
        b = shard_cache_key(
            shard, fracturer, IterativeDoseCorrector(max_iterations=10), PSF
        )
        assert a != b

    def test_no_corrector_differs_from_corrector(self):
        shard = Shard(index=(0, 0), polygons=(Polygon.rectangle(0, 0, 2, 2),))
        fracturer = TrapezoidFracturer()
        assert shard_cache_key(shard, fracturer, None, PSF) != shard_cache_key(
            shard, fracturer, IterativeDoseCorrector(), PSF
        )

    def test_salt_changes_key(self):
        shard = Shard(index=(0, 0), polygons=(Polygon.rectangle(0, 0, 2, 2),))
        fracturer = TrapezoidFracturer()
        assert shard_cache_key(shard, fracturer) != shard_cache_key(
            shard, fracturer, salt=CACHE_SCHEMA_VERSION + 1
        )

    def test_corrector_runtime_state_is_volatile(self):
        """A corrector that has already run hashes like a fresh one."""
        shard = Shard(index=(0, 0), polygons=(Polygon.rectangle(0, 0, 2, 2),))
        fracturer = TrapezoidFracturer()
        corrector = IterativeDoseCorrector()
        before = shard_cache_key(shard, fracturer, corrector, PSF)
        corrector.correct(
            fracturer.fracture_to_shots([Polygon.rectangle(0, 0, 2, 2)]), PSF
        )
        assert corrector.last_trace is not None
        assert shard_cache_key(shard, fracturer, corrector, PSF) == before

    def test_fingerprint_is_type_tagged(self):
        assert fingerprint(1) != fingerprint(1.0)
        assert fingerprint("1") != fingerprint(1)
        assert fingerprint((1, 2)) != fingerprint([1, [2]])

    def test_polygon_digests_are_the_points_lists(self):
        # Digests computed when a polygon's one public slot was its
        # ``vertices`` list of points: a polygon must not hash as its
        # class name alone, and old caches must keep hitting.
        triangle = Polygon([(0, 0), (1.5, -0.0), (2.25, 3e9)])
        square = Polygon.rectangle(0, 0, 2, 2)
        assert fingerprint(triangle) == (
            "ee7c89421803bd455bbe45fa8144553567ce2558144df165b3d58f03be632b79"
        )
        assert fingerprint([square, triangle]) == (
            "b0de97f753e686e4c10aa43991206dfe3297fbb5cfffd8c7c4fa1474506dddd0"
        )
        shard = Shard((2, -3), (triangle, square))
        assert shard_cache_key(shard, TrapezoidFracturer()) == (
            "d0cad39cce4f18619922b7ac252dd384d7db67b2751e31b7ae1da9d28e025bf4"
        )


def _config_of(fracturer):
    if isinstance(fracturer, TrapezoidFracturer):
        return {
            "grid": fracturer.grid,
            "max_height": fracturer.max_height,
            "merge": fracturer.merge,
        }
    return {
        "max_shot": fracturer.max_shot,
        "grid": fracturer.grid,
        "avoid_slivers": fracturer.avoid_slivers,
        "allow_trapezoids": fracturer.allow_trapezoids,
    }


# -- payload round-trips ----------------------------------------------------


class TestShardPayload:
    def _result(self):
        shard = Shard(
            index=(2, 3),
            polygons=(
                Polygon.rectangle(0, 0, 3, 3),
                Polygon([(4, 0), (7, 0), (5.5, 2.5)]),
            ),
        )
        return _process_shard(
            shard, TrapezoidFracturer(), IterativeDoseCorrector(), PSF
        )

    def test_round_trip_is_exact(self):
        result = self._result()
        loaded = loads_shard_result(dumps_shard_result(result))
        assert loaded.index == result.index
        assert loaded.reference_area == result.reference_area
        assert loaded.report == result.report
        assert [
            (s.trapezoid.y_bottom, s.trapezoid.y_top, s.dose)
            for s in loaded.shots
        ] == [
            (s.trapezoid.y_bottom, s.trapezoid.y_top, s.dose)
            for s in result.shots
        ]
        # Serialization is canonical: a round-trip re-serializes to the
        # same bytes.
        assert dumps_shard_result(loaded) == dumps_shard_result(result)

    def test_truncated_payload_rejected(self):
        data = dumps_shard_result(self._result())
        with pytest.raises(JobFileError):
            loads_shard_result(data[:-4])

    def test_bad_magic_rejected(self):
        data = dumps_shard_result(self._result())
        with pytest.raises(JobFileError):
            loads_shard_result(b"XXXX" + data[4:])

    def test_kernel_fallback_counters_round_trip(self):
        from repro.geometry.scanline_fast import KernelFallbacks

        result = self._result()
        result.kernel_fallbacks = KernelFallbacks(
            coord_limit=3, rational_slab=17, scalar_merge=5
        )
        loaded = loads_shard_result(dumps_shard_result(result))
        assert loaded.kernel_fallbacks == KernelFallbacks(3, 17, 5)
        assert dumps_shard_result(loaded) == dumps_shard_result(result)

    def test_previous_payload_version_rejected(self):
        # Older payloads carry fewer fallback counters (none before v2,
        # two in v2); an old cache entry must read as a miss, not as
        # garbage counters.
        from repro.core import jobfile

        data = dumps_shard_result(self._result())
        header = jobfile._SHARD_HEADER
        magic, version, count, col, row = header.unpack_from(data, 0)
        assert version == jobfile.SHARD_PAYLOAD_VERSION
        downgraded = (
            header.pack(magic, version - 1, count, col, row)
            + data[header.size :]
        )
        with pytest.raises(JobFileError):
            loads_shard_result(downgraded)


# -- the on-disk store ------------------------------------------------------


class TestShardCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ShardCache(tmp_path)
        shard = Shard(index=(0, 0), polygons=(Polygon.rectangle(0, 0, 2, 2),))
        fracturer = TrapezoidFracturer()
        key = cache.key_for(shard, fracturer)
        assert cache.get(key) is None
        result = _process_shard(shard, fracturer, None, None)
        cache.put(key, result)
        loaded = cache.get(key)
        assert loaded is not None
        assert dumps_shard_result(loaded) == dumps_shard_result(result)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.entry_count() == 1

    def test_corrupt_entry_is_evicted(self, tmp_path):
        cache = ShardCache(tmp_path)
        shard = Shard(index=(0, 0), polygons=(Polygon.rectangle(0, 0, 2, 2),))
        fracturer = TrapezoidFracturer()
        key = cache.key_for(shard, fracturer)
        cache.put(key, _process_shard(shard, fracturer, None, None))
        cache.path_for(key).write_bytes(b"garbage")
        assert cache.get(key) is None
        assert cache.stats.evictions == 1
        assert not cache.path_for(key).exists()

    def test_no_staging_files_left_behind(self, tmp_path):
        cache = ShardCache(tmp_path)
        shard = Shard(index=(0, 0), polygons=(Polygon.rectangle(0, 0, 2, 2),))
        fracturer = TrapezoidFracturer()
        cache.put(
            cache.key_for(shard, fracturer),
            _process_shard(shard, fracturer, None, None),
        )
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp")]
        assert leftovers == []

    def test_clear(self, tmp_path):
        cache = ShardCache(tmp_path)
        shard = Shard(index=(0, 0), polygons=(Polygon.rectangle(0, 0, 2, 2),))
        fracturer = TrapezoidFracturer()
        cache.put(
            cache.key_for(shard, fracturer),
            _process_shard(shard, fracturer, None, None),
        )
        assert cache.clear() == 1
        assert cache.entry_count() == 0

    def test_salted_caches_do_not_collide(self, tmp_path):
        shard = Shard(index=(0, 0), polygons=(Polygon.rectangle(0, 0, 2, 2),))
        fracturer = TrapezoidFracturer()
        a = ShardCache(tmp_path, salt="a")
        b = ShardCache(tmp_path, salt="b")
        key = a.key_for(shard, fracturer)
        a.put(key, _process_shard(shard, fracturer, None, None))
        assert b.get(b.key_for(shard, fracturer)) is None


class TestConcurrentStore:
    def test_every_hit_is_a_whole_published_payload(self, tmp_path):
        """More writer threads than cores, a one-microsecond switch
        interval and a ``clear()`` loop racing them for about a second:
        every hit ``lookup``/``get_blob`` returns is byte-equal to a
        payload some writer published under that key — never torn,
        never half-evicted."""
        cache = ShardCache(tmp_path)
        fracturer = TrapezoidFracturer()
        # Two differently sized payloads per key, so a read stitched
        # from two publishes cannot pass for either.
        small = Shard(index=(0, 0), polygons=(Polygon.rectangle(0, 0, 2, 2),))
        large = Shard(
            index=(0, 0),
            polygons=tuple(
                Polygon.rectangle(x, y, x + 0.5, y + 0.5)
                for x in range(6)
                for y in range(6)
            ),
        )
        shard_payloads = {
            f"{n:02x}" + "a" * 62: [
                dumps_shard_result(_process_shard(s, fracturer, None, None))
                for s in (small, large)
            ]
            for n in range(3)
        }
        blob_payloads = {
            f"{n:02x}" + "b" * 62: [bytes([n]) * 64, bytes([n + 1]) * 40_000]
            for n in range(3)
        }
        results = {
            key: [loads_shard_result(p) for p in payloads]
            for key, payloads in shard_payloads.items()
        }
        stop = threading.Event()
        torn, hits = [], [0]

        def writer(seed):
            rng = random.Random(seed)
            while not stop.is_set():
                key = rng.choice(sorted(shard_payloads))
                cache.put(key, rng.choice(results[key]))
                found, _ = cache.lookup(key)
                if found is not None:
                    hits[0] += 1
                    if dumps_shard_result(found) not in shard_payloads[key]:
                        torn.append(key)
                key = rng.choice(sorted(blob_payloads))
                cache.put_blob(key, rng.choice(blob_payloads[key]))
                found = cache.get_blob(key)
                if found is not None:
                    hits[0] += 1
                    if found not in blob_payloads[key]:
                        torn.append(key)

        def clearer():
            while not stop.is_set():
                cache.clear()

        threads = [
            threading.Thread(target=writer, args=(seed,))
            for seed in range((os.cpu_count() or 1) + 4)
        ]
        threads.append(threading.Thread(target=clearer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            time.sleep(1.0)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert torn == []
        assert hits[0] > 0  # the race was run, not starved
        assert cache.stats.evictions == 0  # no reader ever saw a partial entry


# -- cached execution: byte-identical, incremental --------------------------


class TestCachedExecution:
    def pipeline(self, tmp_path=None):
        """The PEC pipeline under test; cached in ``tmp_path`` if given."""
        return PreparationPipeline(
            corrector=IterativeDoseCorrector(),
            psf=PSF,
            field_size=20.0,
            cache_dir=tmp_path / "shard-cache" if tmp_path is not None else None,
        )

    def test_one_field_edit_recomputes_one_shard(self, tmp_path):
        polys = grid_of_squares(4, 4, pitch=10.0, side=4.0)
        pipe = self.pipeline(tmp_path)
        cold = pipe.run(polys)
        shard_count = cold.execution.shard_count
        edited = list(polys)
        edited[0] = Polygon.rectangle(1.0, 1.0, 4.0, 4.0)  # same field
        rerun = pipe.run(edited)
        assert rerun.execution.cache_misses == 1
        assert rerun.execution.cache_hits == shard_count - 1
        reference = self.pipeline().run(edited)
        assert rerun.job.digest() == reference.job.digest()

    def test_cache_disabled_reports_no_lookups(self):
        result = self.pipeline().run(grid_of_squares(2, 2))
        assert result.execution.cache_enabled is False
        assert result.execution.cache_hits == 0
        assert result.execution.cache_misses == 0

    def test_uncached_pipeline_never_touches_disk(self):
        pipe = PreparationPipeline(field_size=20.0)
        result = pipe.run(grid_of_squares(3, 3))
        assert result.execution.cache_enabled is False

    def test_two_pipelines_share_one_cache(self, tmp_path):
        polys = grid_of_squares(3, 3)
        shared = ShardCache(tmp_path / "explicit")
        first = PreparationPipeline(field_size=20.0, cache=shared).run(polys)
        second = PreparationPipeline(field_size=20.0, cache=shared).run(polys)
        assert first.execution.cache_misses == first.execution.shard_count
        assert second.execution.cache_hits == second.execution.shard_count

    def test_two_executions_share_one_cache(self, tmp_path):
        pipe = self.pipeline(tmp_path)
        polys = grid_of_squares(4, 4)
        cold = pipe.run(polys)
        warm = pipe.run(polys)
        assert cold.execution.cache_misses == cold.execution.shard_count
        assert warm.execution.cache_hits == warm.execution.shard_count
        assert [s.dose for s in warm.job.shots] == [s.dose for s in cold.job.shots]


class TestReviewRegressions:
    """Regressions for the key-coverage and fault-tolerance review."""

    def test_numpy_scalar_configs_do_not_collide(self):
        import numpy as np

        shard = Shard(index=(0, 0), polygons=(Polygon.rectangle(0, 0, 2, 2),))
        a = shard_cache_key(shard, ShotFracturer(max_shot=np.float64(1.0)))
        b = shard_cache_key(shard, ShotFracturer(max_shot=np.float64(2.0)))
        assert a != b
        assert fingerprint(np.int64(3)) != fingerprint(np.int64(5))
        assert fingerprint(np.float32(0.2)) != fingerprint(np.float32(2.0))

    def test_numpy_scalar_matches_python_value_within_dtype(self):
        import numpy as np

        shard = Shard(index=(0, 0), polygons=(Polygon.rectangle(0, 0, 2, 2),))
        assert shard_cache_key(
            shard, ShotFracturer(max_shot=np.float64(1.5))
        ) != shard_cache_key(shard, ShotFracturer(max_shot=np.float32(1.5)))

    def test_callable_config_attribute_rejected(self):
        from repro.core.cache import CacheKeyError

        fracturer = TrapezoidFracturer()
        fracturer.postprocess = lambda shots: shots
        shard = Shard(index=(0, 0), polygons=(Polygon.rectangle(0, 0, 2, 2),))
        with pytest.raises(CacheKeyError):
            shard_cache_key(shard, fracturer)

    def test_user_salt_composes_with_schema_version(self):
        """A salted cache must still miss after a schema bump: the user
        salt augments CACHE_SCHEMA_VERSION instead of replacing it."""
        shard = Shard(index=(0, 0), polygons=(Polygon.rectangle(0, 0, 2, 2),))
        fracturer = TrapezoidFracturer()
        salted = ShardCache("unused", salt="site-a")
        unsalted_key = shard_cache_key(
            shard, fracturer, salt=CACHE_SCHEMA_VERSION
        )
        composed_key = shard_cache_key(
            shard, fracturer, salt=(CACHE_SCHEMA_VERSION, "site-a")
        )
        bare_user_salt_key = shard_cache_key(shard, fracturer, salt="site-a")
        assert salted.key_for(shard, fracturer) == composed_key
        assert salted.key_for(shard, fracturer) != unsalted_key
        assert salted.key_for(shard, fracturer) != bare_user_salt_key

    def test_put_failure_degrades_to_no_store(self, tmp_path):
        # A plain file where the cache root should be makes every write
        # fail with NotADirectoryError (permission tricks don't work
        # when the suite runs as root).
        target = tmp_path / "not-a-dir"
        target.write_bytes(b"occupied")
        cache = ShardCache(target)
        shard = Shard(index=(0, 0), polygons=(Polygon.rectangle(0, 0, 2, 2),))
        fracturer = TrapezoidFracturer()
        result = _process_shard(shard, fracturer, None, None)
        cache.put(cache.key_for(shard, fracturer), result)  # must not raise
        assert cache.stats.write_errors == 1
        assert cache.stats.stores == 0
        assert cache.entry_count() == 0

    def test_root_expands_home_directory(self):
        cache = ShardCache("~/some-cache")
        assert "~" not in str(cache.root)


class TestKernelFallbackObservability:
    """The fallback counters are observability, not identity: they ride
    along with cached payloads but must never perturb cache keys."""

    #: Layout units that snap beyond the fast kernel's 2**53 dbu range
    #: at the default 1e-3 grid — guaranteed coord-limit fallback.
    FAR = (1 << 53) * 1e-3 * 2.0

    def _far_polygons(self):
        far = self.FAR
        return [Polygon.rectangle(far, far, far + 5.0, far + 5.0)]

    def test_fallback_state_never_enters_cache_key(self):
        shard = Shard(index=(0, 0), polygons=(Polygon.rectangle(0, 0, 2, 2),))
        fracturer = TrapezoidFracturer()
        before = shard_cache_key(shard, fracturer)
        fracturer.fracture(self._far_polygons())
        assert fracturer.last_fallbacks.coord_limit == 1
        assert shard_cache_key(shard, fracturer) == before

    def test_executor_aggregates_fallback_counters(self):
        # Two shards, (0, 0) and (1000, 1000): a 20 µm pitch over this
        # extent would need tile indices no shard header can hold.
        pipe = PreparationPipeline(field_size=self.FAR / 1000.0)
        stats = pipe.run(
            self._far_polygons() + [Polygon.rectangle(0, 0, 5, 5)]
        ).execution
        assert stats.shard_count == 2
        assert stats.kernel_coord_fallbacks >= 1
        assert stats.kernel_fallbacks == (
            stats.kernel_coord_fallbacks
            + stats.kernel_slab_fallbacks
            + stats.kernel_merge_fallbacks
        )

    def test_warm_cache_reports_cold_run_counters(self, tmp_path):
        # The counters describe the shard's geometry, so a cache hit
        # must replay them — a warm run may not pretend the kernel
        # never degraded.
        pipe = PreparationPipeline(field_size=20.0, cache=ShardCache(tmp_path))
        polys = self._far_polygons()
        cold = pipe.run(polys).execution
        warm = pipe.run(polys).execution
        assert warm.cache_hits == warm.shard_count
        assert cold.kernel_coord_fallbacks >= 1
        assert warm.kernel_fallbacks == cold.kernel_fallbacks
        assert warm.kernel_coord_fallbacks == cold.kernel_coord_fallbacks
        assert warm.kernel_slab_fallbacks == cold.kernel_slab_fallbacks

    def test_merge_hand_back_is_reported_cold_and_warm(self, tmp_path):
        # Two triangles meeting a third at one apex: the array merge
        # declines the sweep (three edges share a triple), the scalar
        # merge runs instead, and the run says so — from the cache too.
        apex = [
            Polygon([(0, 0), (4, 0), (5, 5)]),
            Polygon([(6, 0), (10, 0), (5, 5)]),
            Polygon([(5, 5), (8, 10), (2, 10)]),
        ]
        pipe = PreparationPipeline(field_size=20.0, cache=ShardCache(tmp_path))
        cold = pipe.run(apex).execution
        warm = pipe.run(apex).execution
        assert warm.cache_hits == warm.shard_count == 1
        for stats in (cold, warm):
            assert stats.kernel_merge_fallbacks == 1
            assert stats.kernel_fallbacks == 1
            assert stats.lines()[-1].endswith(
                "(0 coord-limit, 0 rational-slab, 1 scalar-merge)"
            )
