"""The one sweep behind every exposure matrix, held to an oracle.

The dense and CSR builders share :func:`repro.pec.base._kept_entries`,
so "CSR equals dense" no longer checks the sweep itself.  Here both are
compared, bit for bit, with an all-pairs reference written below (the
full ``(P, S)`` broadcast of the same expressions, no blocks, no bucket
index), on layouts that cross block boundaries and exercise the tile
order; and the work the sweep does is counted — erf products on the
kept pairs only, the distance test on the bucket candidates only, a
bucket lookup whose cost ignores empty space.
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


def scattered_shots(count, extent, seed):
    """``count`` trapezoids (rectangles, skewed ones, triangles) in
    clusters of ~40 spread over an ``extent`` µm square: dense enough
    inside a cluster to interact, far enough apart to leave the bucket
    grid mostly empty."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0.0, extent, (max(1, count // 40), 2))
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
        assert sparse.nnz == near.sum()
        assert sparse.toarray().tobytes() == expected.tobytes()
        if term == "full":
            dense = base._exposure_matrix(points, shots, PSF, cutoff, block=block)
            assert dense.tobytes() == expected.tobytes()


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
        assert_builders_match(points, shots, cutoff, 64)

    def test_points_that_are_not_the_shots_own(self):
        # exposure_at_points evaluates a shot list at foreign points.
        shots = scattered_shots(100, 60.0, seed=3)
        points = np.random.default_rng(4).uniform(-20.0, 80.0, (300, 2))
        assert_builders_match(points, shots, 4.0, 7)

    def test_candidates_without_a_kept_pair(self):
        # Both points share the shot's bucket window and miss its cutoff.
        shots = [Shot(Trapezoid(0.0, 1.0, 0.0, 1.0, 0.0, 1.0), 1.0)]
        points = np.array([[9.5, 0.5], [0.5, 9.6]])
        assert_builders_match(points, shots, 4.0, 64)
        assert base._exposure_matrix_csr(points, shots, PSF, 4.0).nnz == 0

    def test_unknown_term(self):
        shots = scattered_shots(2, 5.0, seed=0)
        with pytest.raises(ValueError, match="unknown PSF term"):
            base._exposure_matrix_csr(
                sample_points(shots, "centroid"), shots, PSF, 4.0, term="back"
            )


@pytest.fixture(scope="module")
def grating_shots():
    """1,500 two-micron VSB shots: 24 blocks of 64 columns."""
    lines = [Polygon.rectangle(i * 2.0, 0.0, i * 2.0 + 1.0, 100.0) for i in range(30)]
    return ShotFracturer(max_shot=2.0).fracture_to_shots(lines)


class SweepCounters:
    """Elements handed to the erf integral per PSF range, and pairs put
    to the distance test (the 2-D ``hypot`` calls; the 1-D one is the
    shots' half diagonals)."""

    def __init__(self, monkeypatch):
        self.erf_elements = {}
        self.distance_pairs = 0
        integral, hypot = base._rect_gauss_integral, np.hypot

        def counted_integral(px, py, x0, x1, y0, y1, sigma):
            size = np.broadcast(px, py, x0, x1, y0, y1).size
            self.erf_elements[sigma] = self.erf_elements.get(sigma, 0) + size
            return integral(px, py, x0, x1, y0, y1, sigma)

        def counted_hypot(a, b):
            out = hypot(a, b)
            if out.ndim == 2:
                self.distance_pairs += out.size
            return out

        monkeypatch.setattr(base, "_rect_gauss_integral", counted_integral)
        monkeypatch.setattr(np, "hypot", counted_hypot)


class TestWorkDone:
    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_erf_runs_on_the_kept_pairs_only(self, grating_shots, mode, monkeypatch):
        points = sample_points(grating_shots, "centroid")
        near, _ = all_pairs_reference(points, grating_shots, PSF, 4.0)
        counters = SweepCounters(monkeypatch)
        operator = build_exposure_operator(points, grating_shots, PSF, mode=mode)
        matrix = operator.matrix if mode == "dense" else operator.matrix.toarray()
        assert np.count_nonzero(matrix) == near.sum()
        assert counters.erf_elements == {
            PSF.alpha: near.sum(),
            PSF.beta: near.sum(),
        }
        assert 0 < counters.distance_pairs < near.size / 2

    def test_forward_term_evaluates_alpha_only(self, grating_shots, monkeypatch):
        points = sample_points(grating_shots, "centroid")
        near, _ = all_pairs_reference(points, grating_shots, PSF, 4.0, "forward")
        counters = SweepCounters(monkeypatch)
        forward = HybridExposureOperator(points, grating_shots, PSF).forward
        assert forward.nnz == near.sum()
        assert counters.erf_elements == {PSF.alpha: near.sum()}
        assert counters.distance_pairs < near.size / 2


def alignment_marks(gap):
    """Four 1 µm marks: a pair 3 µm apart (they interact) and two more
    ``gap`` µm away along the diagonal — a layout that is almost all
    empty space."""
    corners = [(0.0, 0.0), (3.0, 0.0), (gap, gap), (gap, 0.0)]
    return [
        Shot(Trapezoid(y, y + 1.0, x, x + 1.0, x, x + 1.0), 1.0) for x, y in corners
    ]


class TestSparseLayouts:
    """The bucket probe used to visit every grid cell of a block's
    window — 11.9 M dictionary probes for two marks 30 mm apart."""

    @pytest.mark.parametrize("gap", [30e3, 100e3])
    def test_bucket_lookup_examines_occupied_cells_only(self, gap, monkeypatch):
        shots = alignment_marks(gap)
        points = sample_points(shots, "centroid")
        examined = []
        rows_in = base._PointBuckets.rows_in

        def spy(buckets, *window):
            examined.append((len(buckets.cells), buckets.cell_ix.size))
            return rows_in(buckets, *window)

        monkeypatch.setattr(base._PointBuckets, "rows_in", spy)
        dense = build_exposure_operator(points, shots, PSF, mode="dense")
        sparse = build_exposure_operator(points, shots, PSF, mode="sparse")
        forward = base._exposure_matrix_csr(points, shots, PSF, 4.0, term="forward")
        # One lookup per 64-column block, each a mask over the three
        # occupied cells — not over the (gap / pitch)² the window spans.
        assert examined == [(3, 3)] * 3
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
