"""The fast kernel's kept sweep (``scanline_fast._slot``).

A call whose rings are a whole-dbu translation of the last call's skips
the sweep and re-emits the kept exact rows at its own offset.  These
tests hold a warm call to what a cold call gives — the same row bytes,
the same ``KernelFallbacks`` — and hold the slot to being process state:
nothing pickled or cache-keyed changes with it, its arrays are
read-only, and it keeps one sweep.  CI also runs this file alone, in a
cold process.
"""

import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import ShardCache
from repro.core.plan import Shard
from repro.fracture.trapezoidal import TrapezoidFracturer
from repro.geometry import scanline_fast
from repro.geometry.boolean import boolean_trapezoids
from repro.geometry.polygon import Polygon
from repro.geometry.scanline_fast import (
    COORD_LIMIT,
    KernelFallbacks,
    sweep_trapezoids_fast,
)
from repro.geometry.vertex_array import trapezoid_array
from repro.layout import generators
from repro.layout.flatten import flatten_cell
from repro.pec.dose_iter import IterativeDoseCorrector
from repro.physics.psf import DoubleGaussianPSF


def placed(rings, kx, ky, grid=1e-3):
    """Integer rings moved by ``(kx, ky)`` dbu, as layout-unit polygons."""
    return [Polygon((np.asarray(r) + (kx, ky)) * grid) for r in rings]


def regrouped(rings):
    """The same vertex sequence with the first two rings joined into one:
    equal ring bytes, other offsets."""
    return [rings[0] + rings[1]] + rings[2:]


def sweep(polys_a, polys_b, **kwargs):
    """``(kind, row bytes, fallbacks)`` of one call as it is made."""
    fallbacks = KernelFallbacks()
    out = sweep_trapezoids_fast(polys_a, polys_b, fallbacks=fallbacks, **kwargs)
    if out is None:
        return None, None, fallbacks
    return type(out).__name__, trapezoid_array(out).tobytes(), fallbacks


def cold(polys_a, polys_b, **kwargs):
    scanline_fast.clear_sweep_slot()
    return sweep(polys_a, polys_b, **kwargs)


coord = st.integers(min_value=-40, max_value=60)
triangle = st.lists(st.tuples(coord, coord), min_size=3, max_size=3).filter(
    lambda t: (t[1][0] - t[0][0]) * (t[2][1] - t[0][1])
    != (t[1][1] - t[0][1]) * (t[2][0] - t[0][0])
)
# Shifts that carry the moved coordinates across the float-key (2**24),
# wide-crossing (2**29) and int64-key (2**31) limits, either sign.
shift = st.builds(
    lambda base, sign, jitter: sign * base + jitter,
    st.sampled_from([0, 1 << 24, 1 << 29, 1 << 31, 1 << 40]),
    st.sampled_from([1, -1]),
    st.integers(min_value=-64, max_value=64),
)


class TestWarmEqualsCold:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(triangle, min_size=3, max_size=5),
        shift,
        shift,
        st.sampled_from(["or", "and", "sub", "xor"]),
        st.sampled_from(["nonzero", "evenodd"]),
        st.booleans(),
    )
    def test_translated_copy_is_the_cold_call(
        self, tris, kx, ky, operation, fill_rule, merge
    ):
        # Crossing triangles: rational slab boundaries are the norm.  The
        # default 1 nm grid: a float moved by whole dbu is not exact there.
        half = len(tris) // 2
        kwargs = dict(operation=operation, fill_rule=fill_rule, merge=merge)
        there = placed(tris, kx, ky)
        split = placed(regrouped(tris), kx, ky)
        want_there = cold(there[:half], there[half:], **kwargs)
        want_split = cold(split[:half], split[half:], **kwargs)
        # The cold call shares the emission; the reference engine does not.
        exact = boolean_trapezoids(
            there[:half], there[half:], kernel="exact", **kwargs
        )
        assert want_there[1] == trapezoid_array(exact).tobytes()

        home = placed(tris, 0, 0)
        sweep(home[:half], home[half:], **kwargs)
        kept = scanline_fast._slot[1]
        assert sweep(there[:half], there[half:], **kwargs) == want_there
        assert scanline_fast._slot[1] is kept  # a hit, not a new sweep
        # Same ring bytes, other offsets: a miss, swept afresh.
        assert sweep(split[:half], split[half:], **kwargs) == want_split

    def test_coordinate_limit_is_checked_before_the_slot(self):
        rings = [[(0, 0), (10, 1), (5, 9)], [(1, 5), (9, 0), (8, 8)]]
        tris = placed(rings, 0, 0, grid=1.0)
        far = placed(rings, COORD_LIMIT, 0, grid=1.0)
        want = cold(far, (), operation="or", grid=1.0)
        assert want == (None, None, KernelFallbacks(coord_limit=1))
        sweep(tris, (), operation="or", grid=1.0)
        kept = scanline_fast._slot
        assert sweep(far, (), operation="or", grid=1.0) == want
        assert scanline_fast._slot is kept
        fast = boolean_trapezoids(far, (), "or", grid=1.0)
        assert list(fast) == boolean_trapezoids(
            far, (), "or", grid=1.0, kernel="exact"
        )


def die_polygons():
    flat = flatten_cell(generators.fresnel_zone_plate(zones=6).top_cell())
    return [p for v in flat.values() for p in v]


class TestSlotIsProcessState:
    def test_configuration_and_cache_keys_do_not_see_it(self, tmp_path):
        die = die_polygons()
        fracturer = TrapezoidFracturer()
        config = (fracturer, IterativeDoseCorrector(), DoubleGaussianPSF(
            alpha=0.15, beta=2.0, eta=0.74))
        shard = Shard(index=(0, 0), polygons=tuple(die))
        cache = ShardCache(tmp_path)

        def state():
            return pickle.dumps(config), cache.key_for(shard, *config)

        fracturer.fracture(die)
        before = state()
        fracturer.fracture([Polygon(p.ring + 100.0) for p in die])
        fracturer.fracture(die[:2])  # a miss: the slot now holds another
        assert state() == before

    def test_kept_arrays_are_read_only_and_never_handed_out(self):
        die = die_polygons()
        first = sweep_trapezoids_fast(die, (), "or", merge=False)
        expected = first.rows.copy()
        for family in scanline_fast._slot[1]:
            for array in (family.slab, *family.y_num, *(family.y_den or ()),
                          *family.x_num, *family.x_den):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = 0
        first.rows.base[...] = -1.0  # the caller's block, written in place
        again = sweep_trapezoids_fast(die, (), "or", merge=False)
        assert again.rows.tobytes() == expected.tobytes()

    def test_one_sweep_at_a_time(self):
        die = die_polygons()
        sweep_trapezoids_fast(die, (), "or")
        old = weakref.ref(scanline_fast._slot[1][0].slab)
        sweep_trapezoids_fast(die[:2], (), "or")
        gc.collect()
        assert old() is None  # the replaced sweep is gone
        key, families = scanline_fast._slot
        assert key is not None and len(families) == 1
        scanline_fast.clear_sweep_slot()
        assert scanline_fast._slot[0] is None  # forgotten: the next call sweeps
