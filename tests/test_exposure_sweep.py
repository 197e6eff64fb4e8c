"""The one sweep behind every exposure matrix, held to an oracle.

The dense and CSR builders share :func:`repro.pec.base._kept_entries`,
so "CSR equals dense" no longer checks the sweep itself.  Here both are
compared, bit for bit, with an all-pairs reference written below (the
full ``(P, S)`` broadcast of the same expressions, every erf evaluated,
no blocks, no cell index), on layouts that cross block boundaries, hold
a reach outlier, sit far from the origin, or send a block's β factors
through the edge table, the per-pair form or one of each; and the work
the sweep does is counted in erf arguments — for β exactly what the
kept pairs and the path each block and axis takes imply (recomputed
here from the oracle's kept pairs), for α four per pair whose
arguments are not all saturated, and the distance test on a few times
the kept pairs, whatever the empty space between them.
"""

import numpy as np
import pytest

from repro.fracture.base import Shot
from repro.fracture.shots import ShotFracturer
from repro.geometry.polygon import Polygon
from repro.geometry.trapezoid import Trapezoid
from repro.pec import base
from repro.pec.operator import HybridExposureOperator, build_exposure_operator
from repro.physics.psf import DoubleGaussianPSF

PSF = DoubleGaussianPSF(alpha=0.2, beta=2.0, eta=0.74)


def all_pairs_reference(points, shots, psf, cutoff, term="full"):
    """``(near, matrix)`` by brute force: every point against every shot."""
    from scipy.special import erf

    x0, y0, x1, y1, scale = base._shot_bbox_arrays(shots)
    px, py = points[:, 0][:, None], points[:, 1][:, None]
    sigma = psf.beta if term == "full" else psf.alpha
    reach = cutoff * sigma + np.hypot(x1 - x0, y1 - y0) / 2.0
    near = np.hypot(px - (x0 + x1) / 2.0, py - (y0 + y1) / 2.0) <= reach

    def integral(s):
        ax = 0.5 * (erf((x1 - px) / s) - erf((x0 - px) / s))
        ay = 0.5 * (erf((y1 - py) / s) - erf((y0 - py) / s))
        return ax * ay

    level = integral(psf.alpha)
    if term == "full":
        level = level + psf.eta * integral(psf.beta)
    return near, np.where(near, scale * (level / (1.0 + psf.eta)), 0.0)


def scattered_shots(count, extent, seed, offset=0.0):
    """``count`` trapezoids (rectangles, skewed ones, triangles) in
    clusters of ~40 spread over an ``extent`` µm square whose corner is
    at ``(offset, offset)``: dense enough inside a cluster to interact,
    far enough apart to leave most cells of the index empty."""
    rng = np.random.default_rng(seed)
    centres = offset + rng.uniform(0.0, extent, (max(1, count // 40), 2))
    spread = min(extent, 30.0) / 2.0
    shots = []
    for k in range(count):
        cx, cy = centres[k % len(centres)] + rng.uniform(-spread, spread, 2)
        height, bottom, top = rng.uniform(0.05, 12.0, 3).round(3)
        if k % 5 == 0:
            top = 0.0  # a triangle
        xbl = round(cx, 3)
        xtl = round(cx + (rng.uniform(-2.0, 2.0) if k % 3 else 0.0), 3)
        yb = round(cy, 3)
        trap = Trapezoid(yb, yb + height, xbl, xbl + bottom, xtl, xtl + top)
        shots.append(Shot(trap, round(rng.uniform(0.1, 4.0), 3)))
    return shots


def sample_points(shots, sampling):
    if sampling == "edge":
        return base.edge_sample_points(shots)[0]
    return base.shot_sample_points(shots, sampling)


def assert_builders_match(points, shots, cutoff, block, terms=("full", "forward")):
    for term in terms:
        near, expected = all_pairs_reference(points, shots, PSF, cutoff, term)
        sparse = base._exposure_matrix_csr(
            points, shots, PSF, cutoff, block=block, term=term
        )
        # The stored entries themselves, not toarray(): summing into
        # zeros would turn a stored −0.0 into +0.0.
        rows = np.repeat(np.arange(len(points)), np.diff(sparse.indptr))
        assert np.array_equal(rows, np.nonzero(near)[0])
        assert np.array_equal(sparse.indices, np.nonzero(near)[1])
        assert sparse.data.tobytes() == expected[near].tobytes()
        if term == "full":
            dense = base._exposure_matrix(points, shots, PSF, cutoff, block=block)
            assert dense.tobytes() == expected.tobytes()


#: The sweep's default block of sample points.
BLOCK = 256


def total_order(values):
    """IEEE total-order keys: −0.0 sorts just below, and apart from, 0.0."""
    bits = np.ascontiguousarray(values, dtype=float).view(np.int64)
    return np.where(bits < 0, bits ^ np.int64(2**63 - 1), bits)


def beta_paths(points, shots, near, block=BLOCK):
    """Per block of ``block`` points, per axis, ``(table, direct)``: the
    β erf arguments of an edge table (every distinct shot edge from the
    lowest to the highest one a point's kept pairs touch, per point) and
    of the per-pair form (two per kept pair)."""
    x0, y0, x1, y1, _ = base._shot_bbox_arrays(shots)
    rows, cols = np.nonzero(near)
    starts = np.arange(0, len(points), block)
    axes = []
    for lo, hi in ((x0, x1), (y0, y1)):
        distinct = np.unique(total_order(np.concatenate((lo, hi))))
        rank_lo = np.searchsorted(distinct, total_order(lo))[cols]
        rank_hi = np.searchsorted(distinct, total_order(hi))[cols]
        first = np.full(len(points), len(distinct))
        last = np.full(len(points), -1)
        np.minimum.at(first, rows, np.minimum(rank_lo, rank_hi))
        np.maximum.at(last, rows, np.maximum(rank_lo, rank_hi))
        width = np.where(last >= 0, last - first + 1, 0)
        table = np.add.reduceat(width, starts)
        direct = 2 * np.bincount(rows // block, minlength=len(starts))
        axes.append(list(zip(table.tolist(), direct.tolist())))
    return list(zip(*axes))


def taken(paths):
    """The path of each block and axis: the table where it holds fewer
    than ``EDGE_TABLE_SHARE`` of the per-pair arguments."""
    return [
        tuple("table" if t < base.EDGE_TABLE_SHARE * d else "pairs" for t, d in axes)
        for axes in paths
    ]


def beta_arguments(paths):
    """β erf arguments a sweep evaluates over the blocks of ``paths``."""
    return sum(
        t if path == "table" else d
        for axes, kinds in zip(paths, taken(paths))
        for (t, d), path in zip(axes, kinds)
    )


def assert_sweep(points, shots, paths_taken):
    """The oracle holds on every path, the blocks and axes take
    ``paths_taken`` (a set of ``(x, y)`` paths), and one sweep hands erf
    exactly the arguments those paths imply."""
    assert_builders_match(points, shots, 4.0, BLOCK, terms=("full",))
    near, _ = all_pairs_reference(points, shots, PSF, 4.0)
    paths = beta_paths(points, shots, near)
    assert set(taken(paths)) == paths_taken
    with pytest.MonkeyPatch.context() as patch:
        counters = SweepCounters(patch)
        base._exposure_matrix_csr(points, shots, PSF, 4.0)
    assert counters.erf_arguments[PSF.beta] == beta_arguments(paths)


def square_shots(xs, ys, side):
    return [
        Shot(Trapezoid(y, y + side, x, x + side, x, x + side), 1.0)
        for x in xs
        for y in ys
    ]


def minus_zero_layout():
    """``(points, shots)``: a square array, a shot from 0.0 to −0.0 wide
    and two more, sampled at the shot centres and at (0.0, 0.5) and
    (0.0, 2.5).  At x = 0.0 that shot's β and α x-factors are
    0.5 · (erf(−0.0) − erf(0.0)) = −0.0, and so are its entries in the
    last two rows; a table that merged the two zeros would store +0.0.
    (0.0, 2.5) is beyond the shot's α reach in y: a y-factor of +0.0
    known without erf, times the x-factor −0.0."""
    shots = square_shots(np.arange(-10.0, 10.0, 2.0), np.arange(0.0, 20.0, 2.0), 1.0)
    shots += [
        Shot(Trapezoid(0.0, 1.0, 0.0, -0.0, 0.0, -0.0), 1.0),
        Shot(Trapezoid(2.0, 3.0, -1.0, -0.0, -1.0, -0.0), 1.0),
        Shot(Trapezoid(2.0, 3.0, 0.0, 1.0, 0.0, 1.0), 1.0),
    ]
    points = np.vstack([sample_points(shots, "center"), [[0.0, 0.5], [0.0, 2.5]]])
    return points, shots


class TestAgainstAllPairsOracle:
    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("count", [1, 2, 63, 64, 65, 129, 220])
    def test_across_block_boundaries(self, count, block):
        shots = scattered_shots(count, 60.0, seed=count)
        points = sample_points(shots, "centroid")
        assert_builders_match(points, shots, 4.0, block)

    @pytest.mark.parametrize("cutoff", [1.0, 4.0, 6.0])
    @pytest.mark.parametrize("sampling", ["centroid", "edge"])
    @pytest.mark.parametrize("extent", [5.0, 60.0, 400.0, 3e3, 3e4])
    def test_across_extents_sampling_and_cutoffs(self, extent, sampling, cutoff):
        shots = scattered_shots(150, extent, seed=int(extent) + int(cutoff))
        points = sample_points(shots, sampling)
        assert_builders_match(points, shots, cutoff, BLOCK)

    def test_points_that_are_not_the_shots_own(self):
        # exposure_at_points evaluates a shot list at foreign points.
        shots = scattered_shots(100, 60.0, seed=3)
        points = np.random.default_rng(4).uniform(-20.0, 80.0, (300, 2))
        assert_builders_match(points, shots, 4.0, 7)

    def test_candidates_without_a_kept_pair(self):
        # Both points fall in the shot's cell window and miss its cutoff.
        shots = [Shot(Trapezoid(0.0, 1.0, 0.0, 1.0, 0.0, 1.0), 1.0)]
        points = np.array([[9.5, 0.5], [0.5, 9.6]])
        assert_builders_match(points, shots, 4.0, 64)
        assert base._exposure_matrix_csr(points, shots, PSF, 4.0).nnz == 0

    @pytest.mark.parametrize("sampling", ["centroid", "edge"])
    def test_a_reach_outlier(self, sampling):
        # One 200 µm pad among 2 µm shots: its half diagonal sets the
        # longest reach, and with it the cell of the whole index.
        pad = Shot(Trapezoid(0.0, 200.0, 0.0, 200.0, 0.0, 200.0), 1.0)
        small = [
            Shot(Trapezoid(y, y + 2.0, x, x + 2.0, x, x + 2.0), 1.0)
            for x in np.arange(-20.0, 224.0, 8.0)
            for y in (-10.0, 99.0, 205.0)
        ]
        shots = small[:40] + [pad] + small[40:]
        assert_builders_match(sample_points(shots, sampling), shots, 4.0, 7)

    @pytest.mark.parametrize("sampling", ["centroid", "edge"])
    def test_a_layout_far_from_the_origin(self, sampling):
        # 1e5 µm from the origin: cell keys are taken relative to the
        # layout's corner, and the window slack covers the rounding of
        # coordinates this large.
        shots = scattered_shots(150, 60.0, seed=5, offset=1e5)
        assert_builders_match(sample_points(shots, sampling), shots, 4.0, 64)

    @pytest.mark.parametrize("offset", [2.5, 8.5, 1e5])
    def test_points_on_the_cutoff_circle(self, offset):
        # Points a few ulps either side of each shot's reach along the
        # axes: the exact test keeps some and drops the others, and the
        # cell window may not lose one to its own rounding.
        rng = np.random.default_rng(int(offset))
        centres = offset + rng.uniform(0.0, 40.0, (6, 2)).round(3)
        shots = [
            Shot(Trapezoid(y, y + 0.5, x, x + 0.5, x, x + 0.5), 1.0)
            for x, y in centres
        ]
        x0, y0, x1, y1, _ = base._shot_bbox_arrays(shots)
        reach = 4.0 * PSF.beta + np.hypot(x1 - x0, y1 - y0) / 2.0
        rims = []
        for cx, cy, r in zip((x0 + x1) / 2.0, (y0 + y1) / 2.0, reach):
            for step in np.array([(1, 0), (-1, 0), (0, 1), (0, -1)]):
                rim = np.array([cx, cy]) + step * r
                rims += [rim + k * step * np.spacing(rim) for k in range(-3, 4)]
        assert_builders_match(np.array(rims), shots, 4.0, 64, terms=("full",))

    def test_a_regular_array_takes_the_table(self):
        shots = square_shots(np.arange(0.0, 40.0, 2.0), np.arange(0.0, 40.0, 2.0), 1.0)
        points = sample_points(shots, "centroid")
        assert_sweep(points, shots, {("table", "table")})

    def test_scattered_shots_take_the_pair_arguments(self):
        shots = scattered_shots(300, 300.0, seed=21)
        points = sample_points(shots, "edge")
        assert_sweep(points, shots, {("pairs", "pairs")})

    def test_the_two_axes_of_a_block_take_different_paths(self):
        # Columns on a 1 µm grid, rows anywhere: few distinct x-edges in
        # a window, a y-edge for almost every shot.
        rng = np.random.default_rng(22)
        shots = [
            Shot(Trapezoid(y, y + 0.5, x, x + 0.5, x, x + 0.5), 1.0)
            for x in np.arange(0.0, 40.0)
            for y in rng.uniform(0.0, 40.0, 12).round(4)
        ]
        points = sample_points(shots, "centroid")
        assert_sweep(points, shots, {("table", "pairs")})

    def test_edges_at_minus_and_plus_zero(self):
        points, shots = minus_zero_layout()
        x0, _, x1, _, _ = base._shot_bbox_arrays(shots)
        edges = np.concatenate((x0, x1))
        assert np.signbit(edges[edges == 0.0]).any()
        assert not np.signbit(edges[edges == 0.0]).all()
        assert_sweep(points, shots, {("table", "table")})
        matrix = base._exposure_matrix(points, shots, PSF, 4.0)
        _, reference = all_pairs_reference(points, shots, PSF, 4.0)
        for row in (-2, -1):
            entry = matrix[row, -3]
            assert entry == 0.0 and np.signbit(entry)
            assert entry.tobytes() == reference[row, -3].tobytes()

    def test_a_point_with_a_single_kept_pair(self):
        # The last point meets one shot, far from the array: its window
        # is that shot's two edges.
        shots = square_shots(np.arange(0.0, 20.0, 2.0), np.arange(0.0, 20.0, 2.0), 1.0)
        shots += square_shots([500.0], [500.0], 1.0)
        points = sample_points(shots, "centroid")
        near, _ = all_pairs_reference(points, shots, PSF, 4.0)
        assert near[-1].sum() == 1
        assert_sweep(points, shots, {("table", "table")})

    def test_unknown_term(self):
        shots = scattered_shots(2, 5.0, seed=0)
        with pytest.raises(ValueError, match="unknown PSF term"):
            base._exposure_matrix_csr(
                sample_points(shots, "centroid"), shots, PSF, 4.0, term="back"
            )


@pytest.fixture(scope="module")
def grating_shots():
    """1,500 two-micron VSB shots: 6 blocks of 256 sample points."""
    lines = [Polygon.rectangle(i * 2.0, 0.0, i * 2.0 + 1.0, 100.0) for i in range(30)]
    return ShotFracturer(max_shot=2.0).fracture_to_shots(lines)


@pytest.fixture(scope="module")
def grating_near(grating_shots):
    """The grating's centroid sample points and the oracle's kept pairs."""
    points = sample_points(grating_shots, "centroid")
    return points, all_pairs_reference(points, grating_shots, PSF, 4.0)[0]


class SweepCounters:
    """Arguments handed to erf per PSF range (at ``_erf_of``, the one
    call every erf of the sweep goes through), and elements of every
    ``hypot`` call (a sweep's distance tests plus one for the shots'
    half diagonals)."""

    def __init__(self, monkeypatch):
        self.erf_arguments = {}
        self.hypot_elements = 0
        erf_of, hypot = base._erf_of, np.hypot

        def counted_erf_of(edge, p, sigma):
            size = np.broadcast(edge, p).size
            self.erf_arguments[sigma] = self.erf_arguments.get(sigma, 0) + size
            return erf_of(edge, p, sigma)

        def counted_hypot(a, b):
            out = hypot(a, b)
            self.hypot_elements += out.size
            return out

        monkeypatch.setattr(base, "_erf_of", counted_erf_of)
        monkeypatch.setattr(np, "hypot", counted_hypot)

    def distance_pairs(self, shots):
        """Pairs one sweep over ``shots`` put to the distance test."""
        return self.hypot_elements - len(shots)


def unsettled_alpha_pairs(points, shots, near):
    """How many ``near`` pairs have an α product that saturation leaves
    open: neither axis has both arguments ``(edge − p)/α`` saturated
    with one sign (a factor 0.0) or the other axis has both at zero (a
    factor that may be −0.0), and not all four are saturated (each
    factor then 1.0)."""
    x0, y0, x1, y1, _ = base._shot_bbox_arrays(shots)
    px, py = points[:, :1], points[:, 1:]
    ux1, ux0, uy1, uy0 = (
        (edge - p) / PSF.alpha for edge, p in ((x1, px), (x0, px), (y1, py), (y0, py))
    )

    def saturated(u):
        return np.abs(u) >= base.ERF_SATURATION

    flat_x = saturated(ux1) & saturated(ux0) & (np.sign(ux1) == np.sign(ux0))
    flat_y = saturated(uy1) & saturated(uy0) & (np.sign(uy1) == np.sign(uy0))
    across = saturated(ux1) & saturated(ux0) & saturated(uy1) & saturated(uy0)
    # A factor 0.0 settles nothing against a factor that may be −0.0.
    at_zero = ((ux1 == 0) & (ux0 == 0)) | ((uy1 == 0) & (uy0 == 0))
    settled = ((flat_x | flat_y) & ~at_zero) | across
    return int((near & ~settled).sum())


class TestErfSaturation:
    def test_erf_is_exactly_one_from_the_threshold_on(self):
        # The α term skips erf where every argument of a factor is
        # saturated; that is exact only while this holds.
        from scipy.special import erf

        u = np.linspace(base.ERF_SATURATION, 40.0, 1_000_001)
        assert np.all(erf(u) == 1.0)
        assert np.all(erf(-u) == -1.0)
        # ... and not vacuous: just below the threshold erf is not 1.0.
        assert base.ERF_SATURATION == 6.0
        assert erf(5.9) != 1.0


class TestWorkDone:
    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_erf_runs_only_where_it_can_matter(
        self, grating_shots, grating_near, mode, monkeypatch
    ):
        points, near = grating_near
        kept = int(near.sum())
        unsettled = unsettled_alpha_pairs(points, grating_shots, near)
        counters = SweepCounters(monkeypatch)
        operator = build_exposure_operator(points, grating_shots, PSF, mode=mode)
        matrix = operator.matrix if mode == "dense" else operator.matrix.toarray()
        assert np.count_nonzero(matrix) == kept
        paths = beta_paths(points, grating_shots, near)
        assert counters.erf_arguments == {
            PSF.alpha: 4 * unsettled,
            PSF.beta: beta_arguments(paths),
        }
        assert set(taken(paths)) == {("table", "table")}
        assert beta_arguments(paths) < 4 * kept
        assert 0 < unsettled < kept / 10
        assert kept <= counters.distance_pairs(grating_shots) <= 3 * kept

    def test_alpha_erf_skips_points_deep_inside_their_shot(self, monkeypatch):
        # Shots up to 12 µm wide: a centroid more than 6α from every edge
        # of its own shot has an α product of exactly 1.0.
        shots = scattered_shots(150, 60.0, seed=11)
        points = sample_points(shots, "centroid")
        near, _ = all_pairs_reference(points, shots, PSF, 4.0)
        counters = SweepCounters(monkeypatch)
        base._exposure_matrix_csr(points, shots, PSF, 4.0)
        unsettled = unsettled_alpha_pairs(points, shots, near)
        assert counters.erf_arguments[PSF.alpha] == 4 * unsettled

    def test_forward_term_evaluates_alpha_only(self, grating_shots, monkeypatch):
        points = sample_points(grating_shots, "centroid")
        near, _ = all_pairs_reference(points, grating_shots, PSF, 4.0, "forward")
        kept = int(near.sum())
        counters = SweepCounters(monkeypatch)
        forward = HybridExposureOperator(points, grating_shots, PSF).forward
        assert forward.nnz == kept
        assert counters.erf_arguments == {
            PSF.alpha: 4 * unsettled_alpha_pairs(points, grating_shots, near)
        }
        # Only a shot's own point is within 4α of it, and its neighbours
        # sit just outside: a few candidates per kept pair, and a tiny
        # share of all pairs.
        assert kept <= counters.distance_pairs(grating_shots) < near.size / 100


class TestEmissionOrder:
    def test_csr_layout_does_not_depend_on_it(self):
        # csr_matrix((v, (r, c))) sorts the column indices of each row,
        # so any order of the same triplets gives the same bytes.
        from scipy.sparse import csr_matrix

        shots = scattered_shots(220, 60.0, seed=9)
        points = sample_points(shots, "edge")
        rows, cols, values = (
            np.concatenate(part)
            for part in zip(*base._kept_entries(points, shots, PSF, 4.0))
        )
        built = base._exposure_matrix_csr(points, shots, PSF, 4.0)
        shuffled = np.random.default_rng(0).permutation(len(values))
        for order in (shuffled, shuffled[::-1], np.lexsort((rows, cols))):
            csr = csr_matrix(
                (values[order], (rows[order], cols[order])), shape=built.shape
            )
            for part in ("indptr", "indices", "data"):
                assert getattr(csr, part).tobytes() == getattr(built, part).tobytes()


def alignment_marks(gap):
    """Four 1 µm marks: a pair 3 µm apart (they interact) and two more
    ``gap`` µm away along the diagonal — a layout that is almost all
    empty space."""
    corners = [(0.0, 0.0), (3.0, 0.0), (gap, gap), (gap, 0.0)]
    return [
        Shot(Trapezoid(y, y + 1.0, x, x + 1.0, x, x + 1.0), 1.0) for x, y in corners
    ]


def distance_tests(shots):
    """Pairs the full-term sweep puts to the distance test."""
    with pytest.MonkeyPatch.context() as patch:
        counters = SweepCounters(patch)
        base._exposure_matrix_csr(sample_points(shots, "center"), shots, PSF, 4.0)
        return counters.distance_pairs(shots)


class TestSparseLayouts:
    """Candidates come from sorted key ranges of occupied cells, so the
    empty space between marks costs nothing however wide it is — at 1e12
    µm the cell grows past a third of the reach to keep the keys in
    int64."""

    @pytest.mark.parametrize("gap", [100e3, 1e12])
    def test_empty_space_costs_no_distance_tests(self, gap):
        shots = alignment_marks(gap)
        assert distance_tests(shots) <= distance_tests(alignment_marks(30e3))
        # Bounding-box centres: a shoelace centroid at 1e12 µm is noise.
        points = sample_points(shots, "center")
        dense = build_exposure_operator(points, shots, PSF, mode="dense")
        sparse = build_exposure_operator(points, shots, PSF, mode="sparse")
        forward = base._exposure_matrix_csr(points, shots, PSF, 4.0, term="forward")
        expected = all_pairs_reference(points, shots, PSF, 4.0)[1]
        assert dense.matrix.tobytes() == expected.tobytes()
        assert sparse.matrix.toarray().tobytes() == expected.tobytes()
        assert np.count_nonzero(expected) == 6  # the diagonal and the pair
        assert forward.nnz == 4

    def test_hybrid_builds_on_collinear_marks(self):
        # The hybrid grid covers the layout's bounding box, so its marks
        # sit on one line (and the grid is coarse) to keep it small.
        shots = alignment_marks(30e3)[:2] + alignment_marks(30e3)[3:]
        points = sample_points(shots, "centroid")
        hybrid = build_exposure_operator(
            points, shots, PSF, mode="hybrid", grid_cell=PSF.beta
        )
        expected = all_pairs_reference(points, shots, PSF, 4.0, "forward")[1]
        assert hybrid.forward.toarray().tobytes() == expected.tobytes()


class TestDenseMatrixThatDoesNotFit:
    def test_names_the_shape_the_size_and_the_ways_out(self, dense_matrix_does_not_fit):
        shots = scattered_shots(70, 60.0, seed=1)
        points = sample_points(shots, "edge")
        with pytest.raises(ValueError) as excinfo:
            build_exposure_operator(points, shots, PSF, mode="dense")
        message = str(excinfo.value)
        assert "140 points x 70 shots" in message
        assert "0.0 GiB" in message
        assert "--field-size" in message and "--pec-matrix sparse" in message
        # The other backends never make that allocation.
        sparse = build_exposure_operator(points, shots, PSF, mode="sparse")
        assert sparse.shape == (140, 70)
