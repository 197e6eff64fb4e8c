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
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import ShardCache
from repro.core.pipeline import PreparationPipeline
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
from repro.geometry.vertex_array import snap_coords, trapezoid_array
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
        # The plan, too: built on a merged hit, served on the next.
        sweep_trapezoids_fast(die, (), "or")
        for array in scanline_fast._slot[2][3:]:
            assert not array.flags.writeable
        served = sweep_trapezoids_fast(die, (), "or")
        merged = served.rows.copy()
        served.rows.base[...] = -1.0
        assert sweep_trapezoids_fast(die, (), "or").rows.tobytes() == merged.tobytes()

    def test_one_sweep_at_a_time(self):
        die = die_polygons()
        sweep_trapezoids_fast(die, (), "or")
        old = weakref.ref(scanline_fast._slot[1][0].slab)
        sweep_trapezoids_fast(die[:2], (), "or")
        gc.collect()
        assert old() is None  # the replaced sweep is gone
        key, families, plan = scanline_fast._slot
        assert key is not None and len(families) == 1 and plan is None
        scanline_fast.clear_sweep_slot()
        assert scanline_fast._slot[0] is None  # forgotten: the next call sweeps


# -- the merge plan ("Merged copies" in the kernel's module docstring) -------


@st.composite
def banded_rings(draw):
    """Two to four quadrilaterals with slanted sides, each in its own x
    band: no two edges cross, so the sweep is one integer-bounded family
    (what a plan needs), and each shape's vertices cut the others' sides
    into rows that chain."""
    rings = []
    for band in range(draw(st.integers(2, 4))):
        y0 = draw(st.integers(0, 40))
        y1 = draw(st.integers(y0 + 1, 90))
        xs = sorted(draw(st.lists(st.integers(0, 50), min_size=4, max_size=4,
                                  unique=True)))
        left0, left1, right0, right1 = (band * 60 + x for x in xs)
        if draw(st.booleans()):
            left0, left1 = left1, left0
        rings.append([(left0, y0), (right0, y0), (right1, y1), (left1, y1)])
    return rings


def counted_merges(monkeypatch):
    """The list every ``merge_rows`` call appends to from now on."""
    calls = []
    merge = scanline_fast.merge_rows

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return merge(*args, **kwargs)

    monkeypatch.setattr(scanline_fast, "merge_rows", counting)
    return calls


def magnitude(polys, grid=1e-3):
    """What a plan compares: the largest snapped |coordinate| times grid."""
    return max(int(np.abs(snap_coords(p.ring, grid)).max()) for p in polys) * grid


def doubted(polys):
    """How many links the kept plan leaves to a spot check on ``polys``."""
    plan = scanline_fast._slot[2]
    return int(np.searchsorted(plan.link_reach, magnitude(polys), "right"))


class TestMergePlan:
    @settings(max_examples=20, deadline=None)
    @given(banded_rings(), st.lists(st.tuples(shift, shift), min_size=3, max_size=3))
    def test_a_planned_copy_is_the_cold_call(self, rings, moves):
        wants = [cold(placed(rings, kx, ky), (), operation="or")
                 for kx, ky in moves]
        sweep(placed(rings, 0, 0), (), operation="or")
        # The first hit builds the plan, the later ones are served from
        # it wherever it certifies them — the bytes and the counters are
        # the cold call's, merge_rows of the cold emitted rows, either way.
        for (kx, ky), want in zip(moves, wants):
            assert sweep(placed(rings, kx, ky), (), operation="or") == want

    def test_a_copy_with_doubted_links_is_still_served(self, monkeypatch):
        die = die_polygons()
        there = [Polygon(p.ring + (500.0, -300.0)) for p in die]
        want = cold(there, (), operation="or")
        sweep(die, (), operation="or")
        sweep([Polygon(p.ring + 100.0) for p in die], (), operation="or")
        assert scanline_fast._slot[2] is not None  # planned on the first hit
        assert 0 < doubted(there) < len(scanline_fast._slot[2].taken)
        calls = counted_merges(monkeypatch)
        assert sweep(there, (), operation="or") == want
        assert calls == []  # served: no row emitted beyond the ends

    def test_a_doubted_decision_that_differs_falls_back(self, monkeypatch):
        # A slanted side cut into 1-dbu rows by a zigzag's vertices.  At
        # the origin they merge into one figure; 2**24 dbu away, their
        # slopes differ by more than tol in the copy's own floats, so
        # its merge leaves more figures, and the spot check must see it.
        zigzag = [(2000 + k % 2, k) for k in range(41)] + [(2010, 40), (2010, 0)]
        rings = [[(0, 0), (1000, 0), (0, 997)], zigzag]
        far = placed(rings, 1 << 24, 0)
        want = cold(far, (), operation="or")
        sweep(placed(rings, 0, 0), (), operation="or")
        home = sweep(placed(rings, 7, 3), (), operation="or")
        plan = scanline_fast._slot[2]
        assert magnitude(far) < plan.reach and doubted(far) > 0
        calls = counted_merges(monkeypatch)
        assert sweep(far, (), operation="or") == want
        assert len(calls) == 1  # emitted and merged whole
        assert len(want[1]) > len(home[1])  # the copy's merge differs
        assert scanline_fast._slot[2] is plan  # and the plan is kept

    def test_a_copy_past_the_joins_reach_is_merged_whole(self, monkeypatch):
        # Levels 2.5e-9 apart clear the merge's 2e-9 level guard by 5e-10;
        # 2**51 dbu up, rounding closes some gaps to 1.6e-9 and the guard
        # refuses the copy — counted.  The plan must not vouch for it.
        grid = 2.5e-9
        rings = [[(0, 0), (10, 0), (10, 1), (0, 1)],
                 [(0, 2), (10, 2), (10, 3), (0, 3)],
                 [(20, 0), (30, 0), (30, 3), (20, 3)]]
        far = placed(rings, 0, 1 << 51, grid=grid)
        want = cold(far, (), operation="or", grid=grid)
        assert want[2] == KernelFallbacks(scalar_merge=1)
        sweep(placed(rings, 0, 0, grid=grid), (), operation="or", grid=grid)
        sweep(placed(rings, 1, 1, grid=grid), (), operation="or", grid=grid)
        assert not magnitude(far, grid) < scanline_fast._slot[2].reach
        calls = counted_merges(monkeypatch)
        assert sweep(far, (), operation="or", grid=grid) == want
        assert len(calls) == 1

    def test_equal_floats_must_be_equal_rationals(self):
        # Two stacked rows whose right sides are 5 + 2**-20 and
        # 5 + 1/(2**20 + 1) dbu: 2**40 dbu out both round to 2**40 + 5
        # and the rows link, near the origin they are 9e-13 apart and the
        # merge refuses them.  A plan read off the far copy must not be.
        one, den = np.ones(2, dtype=np.int64), np.array([1 << 20, (1 << 20) + 1])
        right = 5 * den + 1
        family = scanline_fast._Candidates(
            np.arange(2), (np.arange(2), np.arange(2) + 1), None,
            (0 * one, right, 0 * one, right), (one, den, one, den),
        )
        far = (1 << 40) + 6
        _, rows = scanline_fast._emit(family, 1 << 40, 0, far, 1.0)
        found = []
        assert len(scanline_fast.merge_rows(rows, found=found)) == 1
        assert scanline_fast._plan(found[0], [family], 6, far, 1.0) is None
        _, near = scanline_fast._emit(family, 0, 0, 6, 1.0)
        assert scanline_fast.merge_rows(near) is None

    def test_a_spot_check_makes_the_final_check_too(self):
        # Three unit rows whose left side turns by 6.6e-10 a row: each
        # pair is within tol, the whole chain by 1e-11 at the origin.
        # 3e5 dbu out the pairs still agree but the chain does not, so
        # the copy's merge leaves two figures, not one.
        left = [0, 0, 66, 198]  # numerators over 10**11
        one = np.ones(3, dtype=np.int64)
        den, right = np.full(3, 10**11), np.full(3, 100)
        family = scanline_fast._Candidates(
            np.arange(3), (np.arange(3), np.arange(3) + 1), None,
            (np.array(left[:3]), right, np.array(left[1:]), right),
            (den, one, den, one),
        )
        found = []
        _, home = scanline_fast._emit(family, 0, 0, 100, 1e-3)
        assert len(scanline_fast.merge_rows(home, found=found)) == 1
        plan = scanline_fast._plan(found[0], [family], 100, 100, 1e-3)
        far = 300_000
        _, rows = scanline_fast._emit(family, far, 0, far + 100, 1e-3)
        found = []
        assert len(scanline_fast.merge_rows(rows, found=found)) == 2
        links = found[0]
        assert scanline_fast._continues(links.first, links.up, 1e-9).all()
        assert scanline_fast._serve(plan, family, far, 0, far + 100, 1e-3) is None

    def test_a_plan_serves_only_its_own_grid(self):
        # The same snapped rings on a 1e-9 grid: their levels are 1e-9
        # apart, which the merge's level guard refuses — counted.
        rings = [[(0, 0), (10, 0), (10, 10), (0, 10)], [(20, 0), (30, 4), (25, 9)]]
        fine = placed(rings, 3, 0, grid=1e-9)
        want = cold(fine, (), operation="or", grid=1e-9)
        assert want[2] == KernelFallbacks(scalar_merge=1)
        sweep(placed(rings, 0, 0, grid=1.0), (), operation="or", grid=1.0)
        sweep(placed(rings, 1, 0, grid=1.0), (), operation="or", grid=1.0)
        assert scanline_fast._slot[2] is not None
        assert sweep(fine, (), operation="or", grid=1e-9) == want

    def test_clearing_drops_the_plan_and_a_miss_replaces_all_three(self):
        die = die_polygons()
        sweep(die, (), operation="or")
        sweep([Polygon(p.ring + 100.0) for p in die], (), operation="or")
        key, families, plan = scanline_fast._slot
        assert plan is not None
        scanline_fast.clear_sweep_slot()
        assert scanline_fast._slot == (None, families, None)
        sweep(die, (), operation="or")  # a sweep: no plan yet
        assert scanline_fast._slot[2] is None
        sweep([Polygon(p.ring + 100.0) for p in die], (), operation="or")
        assert scanline_fast._slot[2] is not None
        sweep(die[:3], (), operation="or")  # another input: a miss
        new_key, new_families, new_plan = scanline_fast._slot
        assert new_key != key and new_families is not families
        assert new_plan is None

    def test_two_threads_on_two_dies_each_get_cold_bytes(self):
        dies = [
            die_polygons(),
            [p for v in flatten_cell(generators.grating().top_cell()).values()
             for p in v],
        ]
        moves = [(0.0, 0.0), (100.0, 0.0), (0.0, 100.0), (250.0, -75.0)]
        wants = [
            [cold([Polygon(p.ring + m) for p in die], (), operation="or")
             for m in moves]
            for die in dies
        ]
        wrong = []
        start = threading.Barrier(2)

        def fracture(which):
            start.wait()
            for _ in range(3):
                for m, want in zip(moves, wants[which]):
                    got = sweep([Polygon(p.ring + m) for p in dies[which]], (),
                                operation="or")
                    if got != want:
                        wrong.append((which, m))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=fracture, args=(k,)) for k in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []


def test_a_reticle_merges_twice_and_writes_the_cold_bytes(tmp_path, monkeypatch):
    """Four shards of one die: the sweep and the plan's reference copy
    merge, the other two copies are served — and the job file is the one
    a run that sweeps every shard afresh writes."""
    reticle = generators.full_reticle(tiles=2)
    calls = counted_merges(monkeypatch)
    scanline_fast.clear_sweep_slot()
    PreparationPipeline(workers=1, field_size=100.0).run(
        reticle, job_path=tmp_path / "kept.ebj"
    )
    assert len(calls) == 2
    kernel = scanline_fast.sweep_trapezoids_fast

    def swept_afresh(*args, **kwargs):
        scanline_fast.clear_sweep_slot()
        return kernel(*args, **kwargs)

    monkeypatch.setattr(scanline_fast, "sweep_trapezoids_fast", swept_afresh)
    PreparationPipeline(workers=1, field_size=100.0).run(
        reticle, job_path=tmp_path / "cold.ebj"
    )
    assert len(calls) == 2 + 4
    kept = (tmp_path / "kept.ebj").read_bytes()
    assert kept == (tmp_path / "cold.ebj").read_bytes()
