"""Equivalence suite: the vectorized kernel vs. the Fraction oracle.

The fast kernel's whole contract is *bit-identity* with the reference
scanline engine — same trapezoids, same floats, same order.  These
tests assert exactly that (``Trapezoid.__eq__`` compares exact float
values) over generator-drawn layouts and over the degenerate inputs the
sweep is most fragile on: collinear/shared edges, shared vertices,
zero-height slab candidates, self-touching polygons and proper interior
crossings (which exercise the rational-slab big-integer keys).  The array
merge (``merge_rows``) is held to the same standard against the scalar
``merge_trapezoids``, on the kernel's own unmerged rows and on hand-built
rows a sweep rarely produces.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import scanline_fast
from repro.geometry.boolean import boolean_trapezoids
from repro.geometry.polygon import Polygon
from repro.geometry.scanline import merge_trapezoids, snap_polygon
from repro.geometry.scanline_fast import (
    COORD_LIMIT,
    KernelFallbacks,
    merge_rows,
    sweep_trapezoids_fast,
)
from repro.geometry.transform import Transform
from repro.geometry.trapezoid import Trapezoid
from repro.geometry.vertex_array import (
    snap_stacked,
    stack_polygons,
    transform_polygons,
    transform_trapezoid_array,
    trapezoid_array,
    trapezoids_from_array,
)
from repro.core.hierarchical import transform_trapezoid
from repro.layout import generators
from repro.layout.flatten import flatten_cell

from layout_strategies import (
    crossing_dense_polygons,
    generated_libraries,
    large_coordinate_polygons,
)


def both_kernels(polys_a, polys_b=(), operation="or", **kwargs):
    exact = boolean_trapezoids(
        polys_a, polys_b, operation, kernel="exact", **kwargs
    )
    fast = boolean_trapezoids(
        polys_a, polys_b, operation, kernel="fast", **kwargs
    )
    return exact, fast


def assert_identical(polys_a, polys_b=(), operation="or", **kwargs):
    exact, fast = both_kernels(polys_a, polys_b, operation, **kwargs)
    assert fast == exact  # Trapezoid equality is exact float equality
    return exact


class TestGeneratedLayouts:
    @settings(max_examples=30, deadline=None)
    @given(generated_libraries())
    def test_union_bit_identical(self, library):
        flat = flatten_cell(library.top_cell())
        polys = [p for v in flat.values() for p in v]
        assert_identical(polys)

    @settings(max_examples=15, deadline=None)
    @given(generated_libraries(), generated_libraries())
    def test_binary_operations_bit_identical(self, lib_a, lib_b):
        polys_a = [
            p for v in flatten_cell(lib_a.top_cell()).values() for p in v
        ]
        polys_b = [
            p for v in flatten_cell(lib_b.top_cell()).values() for p in v
        ]
        for operation in ("or", "and", "sub", "xor"):
            assert_identical(polys_a, polys_b, operation)

    @settings(max_examples=15, deadline=None)
    @given(generated_libraries())
    def test_evenodd_and_unmerged_bit_identical(self, library):
        flat = flatten_cell(library.top_cell())
        polys = [p for v in flat.values() for p in v]
        assert_identical(polys, fill_rule="evenodd")
        assert_identical(polys, merge=False)


@st.composite
def crossing_triangles(draw):
    """Triangles with random slanted edges — proper interior crossings
    (rational slab boundaries) are the norm here, not the exception."""
    coord = st.floats(
        min_value=-40.0, max_value=40.0, allow_nan=False, allow_infinity=False
    )
    tris = []
    for _ in range(draw(st.integers(min_value=2, max_value=5))):
        pts = [(draw(coord), draw(coord)) for _ in range(3)]
        ax, ay = pts[0]
        bx, by = pts[1]
        cx, cy = pts[2]
        if abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)) < 1e-3:
            continue  # degenerate sliver; the fixed cases cover those
        tris.append(Polygon(pts))
    return tris


class TestCrossingHeavyLayouts:
    @settings(max_examples=40, deadline=None)
    @given(crossing_triangles(), crossing_triangles())
    def test_crossing_triangles_bit_identical(self, tris_a, tris_b):
        for operation in ("or", "and", "sub", "xor"):
            assert_identical(tris_a, tris_b, operation)


class TestDegenerateInputs:
    def test_collinear_overlapping_edges(self):
        a = Polygon.rectangle(0, 0, 10, 10)
        b = Polygon.rectangle(0, 5, 10, 15)  # shares the full x-range
        c = Polygon.rectangle(3, 2, 7, 10)  # right edge inside a's interior
        for operation in ("or", "and", "sub", "xor"):
            assert_identical([a, c], [b], operation)

    def test_shared_vertices(self):
        a = Polygon([(0, 0), (10, 0), (5, 8)])
        b = Polygon([(5, 8), (10, 16), (0, 16)])  # touches a at its apex
        c = Polygon([(10, 0), (20, 0), (20, 8)])  # shares a corner with a
        assert_identical([a, b, c])
        assert_identical([a, b], [c], "xor")

    def test_zero_height_slab_candidates(self):
        # Horizontal edges at many shared ys produce coincident slab
        # boundaries; the sweep must not emit zero-height slabs.
        polys = [
            Polygon.rectangle(i * 2.0, 0.0, i * 2.0 + 1.0, 5.0)
            for i in range(6)
        ]
        polys.append(Polygon.rectangle(0.0, 5.0, 11.0, 5.0 + 1e-9))
        assert_identical(polys)

    def test_self_touching_polygon(self):
        # A bow-tie-like ring that touches itself at one point.
        p = Polygon([(0, 0), (4, 4), (8, 0), (8, 8), (4, 4), (0, 8)])
        assert_identical([p])
        assert_identical([p], fill_rule="evenodd")

    def test_self_intersecting_polygon(self):
        bowtie = Polygon([(0, 0), (10, 10), (10, 0), (0, 10)])
        assert_identical([bowtie])
        assert_identical([bowtie], fill_rule="evenodd")

    def test_duplicate_and_sliver_polygons(self):
        a = Polygon.rectangle(0, 0, 10, 10)
        sliver = Polygon([(0, 0), (10, 0), (10, 1e-12)])  # snaps flat
        assert_identical([a, a, sliver])

    def test_proper_interior_crossings(self):
        tri1 = Polygon([(0, 0), (10, 1), (5, 9)])
        tri2 = Polygon([(1, 5), (9, 0.5), (8, 8)])
        for operation in ("or", "and", "sub", "xor"):
            assert_identical([tri1], [tri2], operation)

    def test_shared_y_band_triangle_row(self):
        # Many disjoint slanted edges sharing one y band: the worst
        # case for crossing-candidate generation (every pair y-overlaps
        # but none cross).  Guards the batched-pruning path.
        polys = [
            Polygon(
                [(i * 3.0, 0.0), (i * 3.0 + 2.0, 0.1), (i * 3.0 + 1.0, 10.0)]
            )
            for i in range(300)
        ]
        traps = assert_identical(polys)
        assert len(traps) >= 300

    def test_rotated_squares_star(self):
        base = Polygon.square((0.0, 0.0), 10.0)
        rotated = [
            base.rotated(math.radians(angle)) for angle in (0, 15, 30, 45)
        ]
        assert_identical(rotated)

    def test_empty_inputs(self):
        assert sweep_trapezoids_fast([], [], "or") == []
        a = Polygon.rectangle(0, 0, 5, 5)
        assert_identical([a], [], "and")


def assert_fast_path(polys_a, polys_b=(), operation="or", **kwargs):
    """Bit-identity AND an undegraded sweep: every slab must be swept
    on the vectorized path.  (The merge may hand a drawn input back —
    ``TestMergeRows`` pins when, and that the result is unchanged.)"""
    fallbacks = KernelFallbacks()
    fast = sweep_trapezoids_fast(
        polys_a, polys_b, operation, fallbacks=fallbacks, **kwargs
    )
    assert fast is not None
    assert fallbacks.coord_limit == 0
    assert fallbacks.rational_slab == 0
    exact = boolean_trapezoids(
        polys_a, polys_b, operation, kernel="exact", **kwargs
    )
    assert fast == exact  # Trapezoid equality is exact float equality
    return fast


def shifted_triangles(dx, dy):
    """A fixed overlapping slanted-triangle cluster translated so its
    extreme coordinate lands exactly where the caller aims it."""
    base = [
        Polygon([(0, 0), (60, 13), (17, 41)]),
        Polygon([(5, -8), (47, 30), (-11, 22)]),
        Polygon([(-20, 5), (33, -17), (28, 35)]),
    ]
    return [
        Polygon([(v.x + dx, v.y + dy) for v in p.vertices]) for p in base
    ]


class TestCoordinateLimitFallback:
    def test_oversized_coordinates_fall_back_to_exact(self):
        # Beyond 2**53 database units integers are no longer exactly
        # representable in the snapped float64 arrays, so the kernel
        # must defer to the reference engine — and say so.
        far = COORD_LIMIT * 1e-3 * 2.0
        a = Polygon.rectangle(far, far, far + 10.0, far + 10.0)
        fallbacks = KernelFallbacks()
        assert sweep_trapezoids_fast([a], [], "or", fallbacks=fallbacks) is None
        assert fallbacks.coord_limit == 1
        assert fallbacks.rational_slab == 0
        exact = assert_identical([a])  # public API falls back silently
        assert len(exact) == 1

    def test_astronomical_raw_coordinates_fall_back_before_snap(self):
        # 1e30 / grid overflows int64 — the raw-peak pre-check must
        # refuse (counted) before float->int conversion goes undefined.
        a = Polygon.rectangle(0.0, 0.0, 1e30, 1e30)
        fallbacks = KernelFallbacks()
        assert sweep_trapezoids_fast([a], [], "or", fallbacks=fallbacks) is None
        assert fallbacks.coord_limit == 1

    def test_within_limit_uses_fast_path(self):
        a = Polygon.rectangle(0, 0, 10, 10)
        assert sweep_trapezoids_fast([a], [], "or") is not None


def regimes_taken(polys_a, polys_b, operation):
    """One cold fast call with the order-embedding helpers counted: how
    many key arrays each regime built (two per slab family: the lower
    and the upper boundary) and the ``wide`` flag of the crossing
    search, beside the bit-identity and undegraded-sweep checks."""
    seen = {"float": 0, "int64": 0, "object": 0, "wide": []}
    with pytest.MonkeyPatch.context() as patch:
        for regime in ("float", "int64", "object"):
            real = getattr(scanline_fast, f"_keys_{regime}")

            def counted(*args, _real=real, _regime=regime):
                seen[_regime] += 1
                return _real(*args)

            patch.setattr(scanline_fast, f"_keys_{regime}", counted)
        real_crossings = scanline_fast._strict_crossings

        def crossings(*args, wide=False):
            seen["wide"].append(wide)
            return real_crossings(*args, wide=wide)

        patch.setattr(scanline_fast, "_strict_crossings", crossings)
        scanline_fast.clear_sweep_slot()
        assert_fast_path(polys_a, polys_b, operation, grid=1.0)
    return seen


def two_clusters(off):
    """The triangle cluster at the origin and again at ``(off, -off)``,
    in both groups: the sweep's extent is ``off + 80`` dbu."""
    return (
        shifted_triangles(0, 0) + shifted_triangles(off, -off),
        shifted_triangles(13, -7) + shifted_triangles(off + 13, -off - 7),
    )


#: ``regimes_taken`` of a sweep with integer-bounded and rational-bounded
#: slabs, by the extent's regime.  Rational slabs always key on Python
#: ints; integer slabs take the float, int64 or object keys.
FLOAT_KEYS = {"float": 2, "int64": 0, "object": 2, "wide": [False]}
INT64_KEYS = {"float": 0, "int64": 2, "object": 2, "wide": [False]}
INT64_KEYS_WIDE = {"float": 0, "int64": 2, "object": 2, "wide": [True]}
OBJECT_KEYS_WIDE = {"float": 0, "int64": 0, "object": 4, "wide": [True]}


class TestOrderEmbeddingBoundaries:
    """Pins at every regime boundary of the widened order embedding
    (grid=1.0 so layout units are database units verbatim).  The sweep
    runs on the rings moved to their minimum corner, so the regime
    follows the layout's extent: each case spans the limit it pins, and
    checks the regime it lands in."""

    def test_old_float_key_boundary_stays_fast(self):
        # 2**24 was the old kernel's hard fallback limit; both sides of
        # it must now run vectorized and bit-identical.
        for off, regime in (
            ((1 << 24) - 100, FLOAT_KEYS),
            (1 << 24, INT64_KEYS),
            ((1 << 24) + 1, INT64_KEYS),
        ):
            assert regimes_taken(*two_clusters(off), "xor") == regime

    def test_wide_crossing_boundary_stays_fast(self):
        # Beyond 2**29 the crossing search's cross products leave int64.
        for off, regime in (
            ((1 << 29) - 100, INT64_KEYS),
            ((1 << 29) + 1, INT64_KEYS_WIDE),
        ):
            assert regimes_taken(*two_clusters(off), "xor") == regime

    def test_int64_key_boundary_stays_fast(self):
        # 2**31 - 1 separates the pure-int64 keys from the big-integer
        # digit-word keys; both regimes must agree with the oracle.
        for off, regime in (
            ((1 << 31) - 1000, INT64_KEYS_WIDE),
            ((1 << 31) + 1, OBJECT_KEYS_WIDE),
        ):
            assert regimes_taken(*two_clusters(off), "or") == regime

    def test_full_range_up_to_2_53_stays_fast(self):
        # The docstring proof covers |coord| <= 2**53 inclusive: a
        # vertex exactly at the limit must still take the fast path, and
        # a layout from -2**53 to 2**53 (extent 2**54, the largest the
        # moved frame sees) whose two long triangles cross mid-span,
        # where the crossing's cross products exceed int64.
        lim = 1 << 53
        polys = [
            Polygon([(lim - 80, lim - 90), (lim, lim - 25), (lim - 55, lim)]),
            Polygon([(lim - 95, lim - 60), (lim - 10, lim - 70),
                     (lim - 30, lim - 5)]),
        ]
        assert_fast_path(polys, (), "or", grid=1.0)
        span = [
            Polygon([(-lim, -lim), (lim, lim - 30), (lim - 30, lim)]),
            Polygon([(-lim, lim), (lim - 30, -lim), (lim, -lim + 30)]),
        ]
        far = shifted_triangles(-lim + 20, -lim + 17)
        for operation in ("or", "xor"):
            assert regimes_taken(
                polys + far, span, operation
            ) == OBJECT_KEYS_WIDE

    def test_just_beyond_2_53_falls_back_counted(self):
        # lim + 2, not lim + 1: odd integers above 2**53 are not float64
        # values, so lim + 1 would round back to the limit in the input
        # Polygon before the kernel ever saw it.
        lim = 1 << 53
        polys = [Polygon([(lim - 80, 0), (lim + 2, 40), (lim - 30, 90)])]
        fallbacks = KernelFallbacks()
        assert (
            sweep_trapezoids_fast(polys, (), "or", grid=1.0,
                                  fallbacks=fallbacks)
            is None
        )
        assert fallbacks.coord_limit == 1


class TestExactCrossingArithmetic:
    """Crossing ys that only collide after float rounding: detection,
    dedup and slab assembly must compare exact rationals throughout."""

    N = 1 << 28

    def _collision_cluster(self, y_off=0):
        # The slanted edges cross the vertical edge x=1 at
        # y = y_off + (N+1)/(N+2) and y = y_off + (N+2)/(N+3):
        # distinct rationals whose float64 renderings coincide.
        n = self.N
        tri1 = Polygon([(0, y_off), (n + 2, y_off + n + 1),
                        (0, y_off + n + 1)])
        tri2 = Polygon([(0, y_off), (n + 3, y_off + n + 2),
                        (0, y_off + n + 2)])
        rect = Polygon.rectangle(1, y_off - 10, 2, y_off + n)
        return [tri1, tri2, rect]

    def test_crossing_ys_collide_only_as_floats(self):
        n = self.N
        a = Fraction(n + 1, n + 2)
        b = Fraction(n + 2, n + 3)
        assert a != b
        assert float(a) == float(b)  # the construction's whole point

    def test_float_colliding_crossings_bit_identical(self):
        polys = self._collision_cluster()
        for operation in ("or", "and", "xor"):
            assert_fast_path(polys[:2], polys[2:], operation, grid=1.0)

    def test_subulp_slab_at_large_magnitude(self):
        # Translated to y ~ 2**48 the two crossing ys still differ as
        # rationals but render to the *same* float64, so the slab
        # between them has exact positive height and zero rendered
        # height.  Regression: the reference engine used to crash here
        # ("y_top must exceed y_bottom") and the fast kernel, falling
        # back at 2**24, crashed with it; both engines now drop the
        # zero-area slab and stay bit-identical.
        k = 1 << 48
        n = self.N
        assert float(k + Fraction(n + 1, n + 2)) == float(
            k + Fraction(n + 2, n + 3)
        )
        polys = self._collision_cluster(y_off=k)
        for operation in ("or", "xor"):
            assert_fast_path(polys[:2], polys[2:], operation, grid=1.0)


class TestRationalSlabVectorization:
    def test_crossing_rich_sweep_never_hits_scalar_loop(self):
        # The rational-slab safety valve must be dead for every reachable
        # input: a crossing-dense layout through all operations stays on
        # the vectorized path (assert_fast_path: no None, no count).
        tris = [
            Polygon([(i * 3, (i * 7) % 11), (i * 3 + 40, (i * 5) % 13 + 2),
                     (i * 3 + 15, 35 + (i * 3) % 7)])
            for i in range(12)
        ]
        for operation in ("or", "and", "sub", "xor"):
            assert_fast_path(tris[:6], tris[6:], operation, grid=1.0)
        # ... including at an extent that forces the big-integer keys.
        wide = [
            Polygon([(v.x + (1 << 40), v.y - (1 << 40)) for v in p.vertices])
            for p in tris
        ] + tris
        assert regimes_taken(
            wide[:6] + wide[12:18], wide[6:12] + wide[18:], "xor"
        ) == OBJECT_KEYS_WIDE

    @pytest.mark.parametrize("merge", [True, False])
    @pytest.mark.parametrize("fill_rule", ["nonzero", "evenodd"])
    @pytest.mark.parametrize("operation", ["or", "and", "sub", "xor"])
    def test_safety_valve_is_counted_and_still_exact(
        self, monkeypatch, operation, fill_rule, merge
    ):
        # Force the (normally unreachable) valve: the sweep hands itself
        # back to the reference engine once, counted, and the public
        # entry point's result stays bit-identical.
        monkeypatch.setattr(scanline_fast, "_MAX_FRACTION_WORDS", 0)
        scanline_fast.clear_sweep_slot()  # a kept sweep would skip the valve
        tri1 = Polygon([(0, 0), (10, 1), (5, 9)])
        tri2 = Polygon([(1, 5), (9, 0), (8, 8)])
        kwargs = dict(grid=1.0, fill_rule=fill_rule, merge=merge)
        fallbacks = KernelFallbacks()
        fast = sweep_trapezoids_fast(
            [tri1], [tri2], operation, fallbacks=fallbacks, **kwargs
        )
        assert fast is None
        assert fallbacks == KernelFallbacks(rational_slab=1)
        fallbacks = KernelFallbacks()
        handed_back = boolean_trapezoids(
            [tri1], [tri2], operation, fallbacks=fallbacks, **kwargs
        )
        exact = boolean_trapezoids([tri1], [tri2], operation, kernel="exact", **kwargs)
        assert list(handed_back) == list(exact)
        assert fallbacks == KernelFallbacks(rational_slab=1)


class TestWideCoordinateEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(large_coordinate_polygons(), st.sampled_from(
        ["or", "and", "sub", "xor"]
    ))
    def test_large_coordinates_bit_identical_no_fallbacks(
        self, polys, operation
    ):
        half = len(polys) // 2
        assert_fast_path(polys[:half], polys[half:], operation, grid=1.0)

    @settings(max_examples=40, deadline=None)
    @given(crossing_dense_polygons(), st.sampled_from(
        ["or", "and", "sub", "xor"]
    ))
    def test_crossing_dense_bit_identical_no_fallbacks(
        self, polys, operation
    ):
        half = len(polys) // 2
        assert_fast_path(polys[:half], polys[half:], operation, grid=1.0)

    @settings(max_examples=20, deadline=None)
    @given(large_coordinate_polygons())
    def test_large_coordinates_evenodd_and_unmerged(self, polys):
        assert_fast_path(polys, (), "or", grid=1.0, fill_rule="evenodd")
        assert_fast_path(polys, (), "or", grid=1.0, merge=False)


def assert_merge_agrees(traps):
    """``merge_rows`` either declines or reproduces the scalar merge row
    for row — floats by ``==``, order included."""
    merged = merge_rows(trapezoid_array(traps))
    if merged is not None:
        assert np.array_equal(
            merged, trapezoid_array(merge_trapezoids(traps))
        )
    return merged


def flat_polygons(library):
    flat = flatten_cell(library.top_cell())
    return [p for v in flat.values() for p in v]


def unmerged_sweeps(polys_a, polys_b):
    for operation in ("or", "and", "sub", "xor"):
        for fill_rule in ("nonzero", "evenodd"):
            yield sweep_trapezoids_fast(
                polys_a, polys_b, operation, fill_rule=fill_rule, merge=False
            )


def stack(*rows):
    return np.array(rows, dtype=np.float64)


def lexsort_order(s, keys_lo, keys_hi):
    """The order ``_sweep_block`` used to compute, kept as the oracle."""
    return np.lexsort(
        tuple(reversed(keys_hi)) + tuple(reversed(keys_lo)) + (s,)
    )


def assert_same_order(s, keys_lo, keys_hi):
    """The same permutation — not merely some sorted arrangement."""
    assert np.array_equal(
        scanline_fast._sweep_order(s, keys_lo, keys_hi),
        lexsort_order(s, keys_lo, keys_hi),
    )


def key_block(rows, fraction_dtype=np.int64):
    """``(s, keys_lo, keys_hi)`` arrays from ``(slab, x_lo, x_hi)`` rows,
    each x a ``(q, word, ...)`` tuple; dtypes as the kernel builds them
    (int64 throughout, the float regime's fraction float64)."""

    def columns(xs):
        width = len(xs[0])
        dtypes = (np.int64,) + (fraction_dtype,) * (width - 1)
        return tuple(
            np.array([x[k] for x in xs], dtype=dtypes[k])
            for k in range(width)
        )

    s = np.array([row[0] for row in rows], dtype=np.int64)
    lo, hi = ([row[side] for row in rows] for side in (1, 2))
    return s, columns(lo), columns(hi)


def first_rows(block, n):
    s, keys_lo, keys_hi = block
    return s[:n], tuple(k[:n] for k in keys_lo), tuple(k[:n] for k in keys_hi)


_ONE_ULP_BELOW_ONE = math.nextafter(1.0, 0.0)


def _words(bits, count):
    top = (1 << bits) - 1
    word = st.sampled_from([0, 1, top]) | st.integers(0, top)
    return st.tuples(*[word] * count)


@st.composite
def sweep_key_rows(draw):
    """Incidence rows in one of the three key shapes the kernel builds,
    drawn from a handful of x values so that ties of every sort —
    same ``lo`` under different ``hi``, whole rows repeated, ``lo`` keys
    that differ only below the coarse key's resolution — are the rule,
    not the exception."""
    shape = draw(st.sampled_from(["float", "int64", "object"]))
    if shape == "float":
        limit = (1 << 24) + 1
        tail = st.tuples(
            st.sampled_from(
                [0.0, 0.5, math.nextafter(0.5, 1.0), _ONE_ULP_BELOW_ONE]
            )
            | st.floats(0.0, 1.0, exclude_max=True)
        )
    elif shape == "int64":
        limit = 1 << 31
        tail = _words(31, 3)
    else:
        limit = (1 << 53) + 1
        tail = _words(54, draw(st.integers(1, 7)))
    whole = st.sampled_from(
        [-limit, 1 - limit, -1, 0, limit - 2, limit - 1, limit]
    ) | st.integers(-limit, limit)
    xs = draw(
        st.lists(
            st.builds(lambda q, rest: (q,) + rest, whole, tail),
            min_size=1,
            max_size=5,
        )
    )
    x = st.sampled_from(xs)
    rows = draw(st.lists(st.tuples(st.integers(0, 2), x, x), max_size=60))
    fraction_dtype = np.float64 if shape == "float" else np.int64
    if not rows:
        return first_rows(key_block([(0, xs[0], xs[0])], fraction_dtype), 0)
    return key_block(rows, fraction_dtype)


class TestSweepOrder:
    """``_sweep_order`` is ``lexsort``'s permutation, tie-breaks and all
    ("Ordering" in the kernel's module docstring)."""

    @settings(max_examples=100, deadline=None)
    @given(sweep_key_rows())
    def test_equals_lexsort_on_every_key_shape(self, block):
        assert_same_order(*block)

    def test_hi_keys_decide_where_lo_keys_tie(self):
        # Two edges leaving one vertex (a local minimum): same x at the
        # bottom of the slab, told apart only by x at the top.
        apex = (7, 0.25)
        rows = [(0, apex, (9, 0.5)), (0, apex, (3, 0.0)), (0, apex, (3, 0.5))]
        block = key_block(rows, np.float64)
        assert_same_order(*block)
        assert scanline_fast._sweep_order(*block).tolist() == [1, 2, 0]

    def test_repeated_rows_stay_in_input_order(self):
        # Enough rows, few enough values, that any unstable first sort
        # shows: equal rows must come out by ascending input index.
        rng = np.random.default_rng(24)
        xs = [(3, 0.5), (3, math.nextafter(0.5, 1.0)), (4, 0.0)]
        rows = [
            (int(slab), xs[lo], xs[hi])
            for slab, lo, hi in rng.integers(0, 3, size=(2000, 3))
        ]
        block = key_block(rows, np.float64)
        assert_same_order(*block)
        order = scanline_fast._sweep_order(*block)
        image = np.array([rows.index(rows[i]) for i in order])
        same = image[1:] == image[:-1]
        assert same.any() and (order[1:][same] > order[:-1][same]).all()

    def test_fractions_one_ulp_apart(self):
        f, hi = 0.3, (5, 0.0)
        rows = [(0, (5, math.nextafter(f, 1.0)), hi), (0, (5, f), hi)]
        block = key_block(rows, np.float64)
        assert 5 + math.nextafter(f, 1.0) == 5 + f  # one coarse key
        assert scanline_fast._sweep_order(*block).tolist() == [1, 0]
        # q + f rounds up to the next integer: a coarse tie across two qs.
        top = 1 << 24
        assert float(top) + _ONE_ULP_BELOW_ONE == float(top + 1)
        rows = [(0, (top + 1, 0.0), hi), (0, (top, _ONE_ULP_BELOW_ONE), hi)]
        block = key_block(rows, np.float64)
        assert scanline_fast._sweep_order(*block).tolist() == [1, 0]

    def test_integer_parts_that_round_to_one_double(self):
        big = 1 << 53
        assert float(big + 1) == float(big)
        for q_first, q_second in ((big + 1, big), (-big, -big - 1)):
            rows = [(1, (q_first, 9), (0, 0)), (1, (q_second, 5), (0, 0))]
            block = key_block(rows)
            assert scanline_fast._sweep_order(*block).tolist() == [1, 0]
            assert_same_order(*block)

    @pytest.mark.parametrize("fraction_dtype", [np.float64, np.int64])
    def test_empty_and_one_row_blocks(self, fraction_dtype):
        one = key_block([(4, (1, 0), (2, 0))], fraction_dtype)
        assert scanline_fast._sweep_order(*one).tolist() == [0]
        assert scanline_fast._sweep_order(*first_rows(one, 0)).tolist() == []

    def test_lexsort_sees_only_rows_the_coarse_key_ties(self, monkeypatch):
        """The gate against sliding back: a sweep hands ``lexsort`` the
        rows that tie on ``(slab, q_lo + f_lo)`` and no others — none at
        all on the F16 die."""
        handed, tied = [], []
        lexsort, sweep_order = np.lexsort, scanline_fast._sweep_order

        def counting_lexsort(keys):
            handed.append(len(keys[-1]))
            return lexsort(keys)

        def watching_order(s, keys_lo, keys_hi):
            coarse = keys_lo[0] + keys_lo[1]  # both layouts: float keys
            _, counts = np.unique(
                np.stack((s, coarse)), axis=1, return_counts=True
            )
            tied.append(int(counts[counts > 1].sum()))
            return sweep_order(s, keys_lo, keys_hi)

        monkeypatch.setattr(scanline_fast.np, "lexsort", counting_lexsort)
        monkeypatch.setattr(scanline_fast, "_sweep_order", watching_order)
        scanline_fast.clear_sweep_slot()  # the die must be swept, not kept
        die = flat_polygons(generators.fresnel_zone_plate())
        sweep_trapezoids_fast(die, (), "or")
        assert tied == [0] and handed == []
        memory = flat_polygons(generators.memory_array(blocks=(2, 2)))
        sweep_trapezoids_fast(memory, (), "or")
        assert sum(handed) <= sum(tied)
        # Where rows do tie — the two lower edges of every triangle leave
        # one vertex — those rows, and only those, are re-sorted.
        band = [
            Polygon([(30 * i, 0), (30 * i + 20, 1), (30 * i + 10, 100)])
            for i in range(50)
        ]
        handed.clear()
        tied.clear()
        sweep_trapezoids_fast(band, (), "or", grid=1.0)
        assert handed == tied == [100]


class TestMergeRows:
    """The array merge against ``merge_trapezoids``."""

    @settings(max_examples=15, deadline=None)
    @given(generated_libraries(), generated_libraries())
    def test_generated_layouts(self, lib_a, lib_b):
        polys_a, polys_b = flat_polygons(lib_a), flat_polygons(lib_b)
        for traps in unmerged_sweeps(polys_a, polys_b):
            assert_merge_agrees(traps)

    @settings(max_examples=40, deadline=None)
    @given(crossing_triangles(), crossing_triangles())
    def test_random_overlapping_polygons(self, tris_a, tris_b):
        for traps in unmerged_sweeps(tris_a, tris_b):
            assert_merge_agrees(traps)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                *[st.sampled_from([0.0, 1.0, 2.0, 3.0, 1.0 + 1e-9])] * 2,
                *[st.sampled_from([0.0, 1.0, 2.0, 1.0 + 5e-10, 0.5])] * 4,
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_arbitrary_rows(self, drawn):
        # Not sweep output: duplicates, overlaps, near-coincident levels
        # and corners in any order.  Whatever is not declined must match.
        traps = [
            Trapezoid(min(a, b), max(a, b), min(c, d), max(c, d),
                      min(e, f), max(e, f))
            for a, b, c, d, e, f in drawn
            if a != b
        ]
        assert_merge_agrees(traps)

    def test_shipped_workloads_never_hand_back(self):
        for name, build in generators.WORKLOADS.items():
            fallbacks = KernelFallbacks()
            boolean_trapezoids(
                flat_polygons(build()), [], "or", fallbacks=fallbacks
            )
            assert fallbacks.total() == 0, name

    def test_drifting_chain_needs_the_fixed_point(self, monkeypatch):
        # Four unit-height rows whose left slope grows 0.8e-9 a step:
        # each neighbouring pair is within tol, but the scalar merge
        # compares against the merged-so-far figure and stops after two.
        slopes = [0.0, 0.8e-9, 1.6e-9, 2.4e-9]
        rows, x_left = [], 0.0
        for k, slope in enumerate(slopes):
            rows.append(
                [float(k), k + 1.0, x_left, 10.0, x_left + slope, 10.0]
            )
            x_left += slope
        traps = trapezoids_from_array(stack(*rows))
        assert len(merge_trapezoids(traps)) == 2
        assert len(assert_merge_agrees(traps)) == 2
        # The pairwise prediction (one figure) is corrected in passes;
        # a budget too small for them is a hand-back, not a wrong answer.
        monkeypatch.setattr(scanline_fast, "_MERGE_PASSES", 2)
        assert merge_rows(stack(*rows)) is None

    def test_straight_chain_merges_in_any_input_order(self):
        rows = [
            [float(k), k + 1.0, k * 0.5, 30.0, (k + 1) * 0.5, 30.0]
            for k in range(40)
        ]
        merged = assert_merge_agrees(trapezoids_from_array(stack(*rows)))
        assert merged.tolist() == [[0.0, 40.0, 0.0, 30.0, 20.0, 30.0]]
        shuffled = stack(*rows[::3], *rows[1::3], *rows[2::3])
        again = assert_merge_agrees(trapezoids_from_array(shuffled))
        assert again.tolist() == merged.tolist()

    def test_ties_keep_input_order(self):
        wide = [0.0, 1.0, 0.0, 2.0, 0.0, 2.0]
        tall = [0.0, 2.0, 0.0, 1.0, 0.0, 1.0]
        for rows in (stack(wide, tall), stack(tall, wide)):
            merged = assert_merge_agrees(trapezoids_from_array(rows))
            assert merged.tolist() == rows.tolist()

    #: rows each guard must decline, and polygons (with the grid that
    #: keeps the near-coincidence) whose sweep produces such rows.
    GUARDED = {
        "levels 1e-9 apart": (
            stack([0, 1, 0, 1, 0, 1], [1 + 1e-9, 2, 0, 1, 0, 1]),
            [Polygon.rectangle(0, 0, 1, 1),
             Polygon.rectangle(0, 1 + 1e-9, 1, 2)],
            1e-9,
        ),
        "corners 5e-10 apart": (
            stack([0, 1, 0, 1, 0, 1], [1, 2, 5e-10, 1, 5e-10, 1]),
            [Polygon.rectangle(0, 0, 1, 1),
             Polygon.rectangle(5e-10, 1, 1, 2)],
            5e-10,
        ),
        "shared apex": (
            stack([0, 5, 0, 4, 5, 5], [0, 5, 6, 10, 5, 5],
                  [5, 10, 5, 5, 2, 8]),
            [Polygon([(0, 0), (4, 0), (5, 5)]),
             Polygon([(6, 0), (10, 0), (5, 5)]),
             Polygon([(5, 5), (8, 10), (2, 10)])],
            1e-3,
        ),
    }

    @pytest.mark.parametrize("case", sorted(GUARDED))
    def test_guard_declines_and_sweep_hands_back_counted(self, case):
        rows, polys, grid = self.GUARDED[case]
        assert merge_rows(rows) is None
        fallbacks = KernelFallbacks()
        fast = boolean_trapezoids(
            polys, [], "or", grid=grid, kernel="fast", fallbacks=fallbacks
        )
        assert fast == boolean_trapezoids(
            polys, [], "or", grid=grid, kernel="exact"
        )
        assert fallbacks.scalar_merge == 1
        assert fallbacks.total() == 1

    def test_unanswerable_inputs_are_declined(self):
        row = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
        assert merge_rows(stack(row), tol=-1.0) is None
        assert merge_rows(stack(row[:5] + [math.inf])) is None
        assert merge_rows(stack([0.0, math.nan] + row[2:])) is None

    def test_invalid_row_raises_the_constructor_error(self):
        good = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
        with pytest.raises(ValueError, match="y_top must exceed y_bottom"):
            merge_rows(stack(good, [1.0, 1.0, 0.0, 1.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="right x must not be left"):
            merge_rows(stack(good, [0.0, 1.0, 0.0, 1.0, 2.0, 1.0]))

    def test_empty_input(self):
        merged = merge_rows(np.empty((0, 6)))
        assert merged is not None and merged.shape == (0, 6)

    def test_unmerged_sweep_runs_no_merge(self, monkeypatch):
        def _boom(*args, **kwargs):
            raise AssertionError("merge reached")

        monkeypatch.setattr(scanline_fast, "merge_rows", _boom)
        monkeypatch.setattr(scanline_fast, "merge_trapezoids", _boom)
        a = Polygon.rectangle(0, 0, 10, 10)
        b = Polygon.rectangle(0, 5, 10, 15)
        assert len(sweep_trapezoids_fast([a, b], [], "or", merge=False)) == 3


class TestVertexArrayHelpers:
    @settings(max_examples=20, deadline=None)
    @given(generated_libraries())
    def test_snap_stacked_matches_snap_polygon(self, library):
        flat = flatten_cell(library.top_cell())
        polys = [p for v in flat.values() for p in v]
        ints, offsets = snap_stacked(*stack_polygons(polys), 1e-3)
        for i, poly in enumerate(polys):
            ring = [tuple(v) for v in ints[offsets[i] : offsets[i + 1]].tolist()]
            assert ring == snap_polygon(poly, 1e-3)

    def test_snap_stacked_drops_closing_duplicate(self):
        p = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (1e-5, 1e-5)])
        ints, offsets = snap_stacked(*stack_polygons([p]), 1e-3)
        assert [tuple(v) for v in ints.tolist()] == snap_polygon(p, 1e-3)

    @settings(max_examples=20, deadline=None)
    @given(generated_libraries())
    def test_transform_polygons_matches_scalar(self, library):
        flat = flatten_cell(library.top_cell())
        polys = [p for v in flat.values() for p in v]
        t = Transform.gdsii(
            origin=(3.25, -7.5), rotation_deg=180.0,
            magnification=1.5, x_reflection=True,
        )
        row = np.array([[t.a, t.b, t.c, t.d, t.e, t.f]])
        batch = list(transform_polygons(polys, row))
        scalar = [p.transformed(t) for p in polys]
        assert batch == scalar  # Polygon equality is exact Point equality

    def test_transform_trapezoid_array_matches_scalar(self):
        traps = [
            Trapezoid(0, 2, 0, 10, 2, 8),
            Trapezoid(-3, -1, -5, 5, -5, 5),
            Trapezoid(1, 4, 2, 2, 0, 6),  # zero-length bottom edge
        ]
        transforms = [
            Transform.translation(5, 7),
            Transform.mirror_x(),
            Transform.scaling(-1.0, 1.0),
            Transform.rotation(math.pi),
            Transform.gdsii(origin=(2, 3), rotation_deg=180.0,
                            magnification=2.0, x_reflection=True),
        ]
        for t in transforms:
            batch = trapezoids_from_array(
                transform_trapezoid_array(trapezoid_array(traps), t)
            )
            scalar = [transform_trapezoid(trap, t) for trap in traps]
            assert batch == scalar  # exact float equality per corner

    def test_transform_trapezoid_array_rejects_tilt(self):
        arr = trapezoid_array([Trapezoid(0, 1, 0, 1, 0, 1)])
        with pytest.raises(ValueError):
            transform_trapezoid_array(arr, Transform.rotation(0.3))

    def test_trapezoid_array_round_trip(self):
        traps = [Trapezoid(0, 2, 0, 10, 2, 8), Trapezoid(5, 6, 1, 2, 1, 2)]
        arr = trapezoid_array(traps)
        assert arr.shape == (2, 6)
        assert trapezoids_from_array(arr) == traps
        assert trapezoids_from_array(np.empty((0, 6))) == []
