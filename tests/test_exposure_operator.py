"""Tests for the exposure-operator protocol (dense / sparse / hybrid).

The sparse backend's contract is *tolerance zero*: the CSR matrix must
hold exactly the dense matrix's within-cutoff entries (same nonzero
pattern, bit-identical values) on arbitrary hypothesis-drawn shot
lists.  The hybrid backend's contract is a tolerance: its exposure must
track the dense reference within a small absolute error.  The
``matrix_mode`` knob must reach the shard cache key, the pipeline and
the CLI.
"""

import mmap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import shard_cache_key
from repro.core.executor import Shard
from repro.core.pipeline import PreparationPipeline
from repro.fracture.base import Shot, shot_rows
from repro.fracture.trapezoidal import TrapezoidFracturer
from repro.geometry.polygon import Polygon
from repro.geometry.trapezoid import Trapezoid
from repro.pec import operator as operator_module
from repro.pec.base import (
    _kept_entries,
    edge_sample_points,
    exposure_at_points,
    interaction_matrix_at_points,
    shot_sample_points,
    trapezoid_exposure,
)
from repro.pec.dose_iter import IterativeDoseCorrector
from repro.pec.dose_matrix import MatrixDoseCorrector
from repro.pec.operator import MATRIX_MODES, build_exposure_operator
from repro.physics.psf import DoubleGaussianPSF
from test_exposure_sweep import (
    alignment_marks,
    minus_zero_layout,
    sample_points,
    scattered_shots,
    square_shots,
)

PSF = DoubleGaussianPSF(alpha=0.2, beta=2.0, eta=0.74)


# -- hypothesis strategies ----------------------------------------------

coordinate = st.floats(
    min_value=-40.0, max_value=40.0, allow_nan=False, allow_infinity=False
).map(lambda v: round(v, 3))

extent = st.floats(
    min_value=0.05, max_value=12.0, allow_nan=False, allow_infinity=False
).map(lambda v: round(v, 3))


@st.composite
def trapezoids(draw):
    """Arbitrary positive-area horizontal trapezoids, triangles included
    (at most one parallel edge collapses — the fracturer invariant)."""
    yb = draw(coordinate)
    height = draw(extent)
    xbl = draw(coordinate)
    xtl = draw(coordinate)
    bottom = draw(st.one_of(st.just(0.0), extent))
    if bottom == 0.0:
        top = draw(extent)
    else:
        top = draw(st.one_of(st.just(0.0), extent))
    return Trapezoid(yb, yb + height, xbl, xbl + bottom, xtl, xtl + top)


@st.composite
def shot_lists(draw, min_size=1, max_size=40):
    traps = draw(
        st.lists(trapezoids(), min_size=min_size, max_size=max_size)
    )
    doses = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=4.0).map(
                lambda v: round(v, 3)
            ),
            min_size=len(traps),
            max_size=len(traps),
        )
    )
    return [Shot(t, d) for t, d in zip(traps, doses)]


# -- sparse == dense, tolerance zero ------------------------------------


class TestSparseEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(shots=shot_lists())
    def test_csr_equals_dense_bitwise(self, shots):
        points = shot_sample_points(shots, "centroid")
        dense = interaction_matrix_at_points(points, shots, PSF)
        sparse = build_exposure_operator(points, shots, PSF, mode="sparse").matrix
        assert sparse.shape == dense.shape
        full = sparse.toarray()
        assert np.array_equal(full, dense)
        assert np.array_equal(full != 0, dense != 0)

    @settings(max_examples=25, deadline=None)
    @given(shots=shot_lists(), factor=st.sampled_from([1.0, 2.5, 6.0]))
    def test_csr_equals_dense_across_cutoffs(self, shots, factor):
        points, _ = edge_sample_points(shots)
        dense = interaction_matrix_at_points(
            points, shots, PSF, cutoff_factor=factor
        )
        sparse = build_exposure_operator(
            points, shots, PSF, cutoff_factor=factor, mode="sparse"
        ).matrix
        assert np.array_equal(sparse.toarray(), dense)

    def test_empty_inputs(self):
        empty = np.empty((0, 2))
        op = build_exposure_operator(empty, [], PSF, mode="sparse")
        assert op.matrix.shape == (0, 0)
        assert (op @ np.empty(0)).shape == (0,)
        # No points, no shots or neither: a dense matrix of no bytes,
        # which no mapping can hold.
        row = square_shots([0.0, 2.0, 4.0], [0.0], 0.5)
        for points, shots in ((empty, row), (np.zeros((4, 2)), []), (empty, [])):
            shape = (len(points), len(shots))
            assert interaction_matrix_at_points(points, shots, PSF).shape == shape

    @settings(max_examples=25, deadline=None)
    @given(shots=shot_lists())
    def test_operator_apply_matches_dense_levels(self, shots):
        points = shot_sample_points(shots, "centroid")
        doses = np.array([s.dose for s in shots])
        dense = build_exposure_operator(points, shots, PSF, mode="dense")
        sparse = build_exposure_operator(points, shots, PSF, mode="sparse")
        np.testing.assert_allclose(
            sparse @ doses, dense @ doses, rtol=1e-12, atol=1e-15
        )

    @settings(max_examples=15, deadline=None)
    @given(shots=shot_lists(min_size=2, max_size=25))
    def test_sparse_doses_match_dense_digest(self, shots):
        from repro.core.job import MachineJob

        dense = IterativeDoseCorrector(matrix_mode="dense").correct(
            shots, PSF
        )
        sparse = IterativeDoseCorrector(matrix_mode="sparse").correct(
            shots, PSF
        )
        assert (
            MachineJob(sparse).dose_digest()
            == MachineJob(dense).dose_digest()
        )


# -- hybrid within tolerance --------------------------------------------


class TestHybridAccuracy:
    @settings(max_examples=30, deadline=None)
    @given(shots=shot_lists(min_size=1, max_size=25))
    def test_hybrid_exposure_tracks_dense(self, shots):
        points = shot_sample_points(shots, "centroid")
        doses = np.array([s.dose for s in shots])
        dense = build_exposure_operator(points, shots, PSF, mode="dense")
        hybrid = build_exposure_operator(points, shots, PSF, mode="hybrid")
        reference = dense @ doses
        # Absolute tolerance in large-pad units: the backscatter grid
        # is the only approximation, and its error is a small fraction
        # of the η/(1+η) background scale.
        np.testing.assert_allclose(
            hybrid @ doses, reference, atol=0.02 * max(doses.max(), 1.0)
        )

    def test_grid_cell_knob_tightens_error(self):
        shots = TrapezoidFracturer().fracture_to_shots(
            [Polygon.rectangle(i * 1.5, 0, i * 1.5 + 0.9, 12) for i in range(8)]
        )
        points = shot_sample_points(shots, "centroid")
        doses = np.ones(len(shots))
        reference = (
            build_exposure_operator(points, shots, PSF, mode="dense")
            @ doses
        )
        errors = []
        for cell in (2.0, 0.25):
            hybrid = build_exposure_operator(
                points, shots, PSF, mode="hybrid", grid_cell=cell
            )
            errors.append(np.abs(hybrid @ doses - reference).max())
        assert errors[1] < errors[0]

    def test_hybrid_memory_below_dense(self):
        from repro.fracture.shots import ShotFracturer

        shots = ShotFracturer(max_shot=2.0).fracture_to_shots(
            [Polygon.rectangle(i * 2.0, 0, i * 2.0 + 1.0, 60) for i in range(60)]
        )
        points = shot_sample_points(shots, "centroid")
        dense = build_exposure_operator(points, shots, PSF, mode="dense")
        hybrid = build_exposure_operator(points, shots, PSF, mode="hybrid")
        sparse = build_exposure_operator(points, shots, PSF, mode="sparse")
        assert hybrid.matrix_nbytes < dense.matrix_nbytes / 10
        assert sparse.matrix_nbytes < dense.matrix_nbytes / 10

    def test_invalid_grid_cell(self):
        shots = [Shot(Trapezoid.from_rectangle(0, 0, 1, 1))]
        points = shot_sample_points(shots)
        with pytest.raises(ValueError):
            build_exposure_operator(
                points, shots, PSF, mode="hybrid", grid_cell=0.0
            )


# -- solve paths ---------------------------------------------------------


class TestOperatorSolve:
    def _shots(self):
        return TrapezoidFracturer().fracture_to_shots(
            [
                Polygon.rectangle(0, 0, 20, 20),
                Polygon.rectangle(22, 0, 22.5, 20),
            ]
        )

    def test_sparse_solve_matches_dense(self):
        shots = self._shots()
        dense = MatrixDoseCorrector(matrix_mode="dense").correct(shots, PSF)
        sparse = MatrixDoseCorrector(matrix_mode="sparse").correct(
            shots, PSF
        )
        np.testing.assert_allclose(
            [s.dose for s in sparse], [s.dose for s in dense], rtol=1e-9
        )

    def test_hybrid_solve_close_to_dense(self):
        shots = self._shots()
        dense = MatrixDoseCorrector(matrix_mode="dense").correct(shots, PSF)
        hybrid = MatrixDoseCorrector(matrix_mode="hybrid").correct(
            shots, PSF
        )
        np.testing.assert_allclose(
            [s.dose for s in hybrid], [s.dose for s in dense], rtol=0.05
        )

    def test_regularized_sparse_solve(self):
        shots = self._shots()
        dense = MatrixDoseCorrector(
            matrix_mode="dense", regularization=1e-3
        ).correct(shots, PSF)
        sparse = MatrixDoseCorrector(
            matrix_mode="sparse", regularization=1e-3
        ).correct(shots, PSF)
        np.testing.assert_allclose(
            [s.dose for s in sparse], [s.dose for s in dense], rtol=1e-6
        )


# -- mode validation and wiring -----------------------------------------


class TestModeWiring:
    def test_corrector_rejects_unknown_mode(self):
        message = "matrix_mode must be one of ('dense', 'sparse', 'hybrid'), got 'csr'"
        for corrector in (IterativeDoseCorrector, MatrixDoseCorrector):
            for mode in MATRIX_MODES:
                assert corrector(matrix_mode=mode).matrix_mode == mode
            with pytest.raises(ValueError) as caught:
                corrector(matrix_mode="csr")
            assert str(caught.value) == message
        with pytest.raises(ValueError) as caught:
            build_exposure_operator(np.zeros((0, 2)), [], PSF, mode="csr")
        assert str(caught.value) == message

    def test_matrix_mode_changes_shard_cache_key(self):
        shard = Shard(
            index=(0, 0),
            polygons=(Polygon.rectangle(0, 0, 4, 4),),
        )
        fracturer = TrapezoidFracturer()
        keys = {
            mode: shard_cache_key(
                shard,
                fracturer,
                IterativeDoseCorrector(matrix_mode=mode),
                PSF,
            )
            for mode in MATRIX_MODES
        }
        assert len(set(keys.values())) == len(MATRIX_MODES)
        # Equal configuration still collides on the same key.
        assert keys["sparse"] == shard_cache_key(
            shard,
            fracturer,
            IterativeDoseCorrector(matrix_mode="sparse"),
            PSF,
        )

    def test_grid_cell_changes_shard_cache_key(self):
        shard = Shard(
            index=(0, 0),
            polygons=(Polygon.rectangle(0, 0, 4, 4),),
        )
        fracturer = TrapezoidFracturer()
        a = shard_cache_key(
            shard,
            fracturer,
            IterativeDoseCorrector(matrix_mode="hybrid", grid_cell=0.5),
            PSF,
        )
        b = shard_cache_key(
            shard,
            fracturer,
            IterativeDoseCorrector(matrix_mode="hybrid", grid_cell=0.25),
            PSF,
        )
        assert a != b

    def test_pipeline_sparse_mode_digest_matches_dense(self):
        layout = [
            Polygon.rectangle(i * 2.0, 0, i * 2.0 + 1.0, 18.0)
            for i in range(9)
        ]
        results = {}
        for mode in ("dense", "sparse"):
            pipe = PreparationPipeline(
                corrector=IterativeDoseCorrector(matrix_mode=mode),
                psf=PSF,
            )
            results[mode] = pipe.run(layout)
        assert (
            results["sparse"].job.dose_digest()
            == results["dense"].job.dose_digest()
        )
        assert (
            results["sparse"].job.portable_digest()
            == results["dense"].job.portable_digest()
        )


# -- vectorized sample helpers stay bit-identical ------------------------


class TestVectorizedSampling:
    @settings(max_examples=60, deadline=None)
    @given(shots=shot_lists(max_size=30))
    def test_centroid_matches_scalar_loop(self, shots):
        expected = np.empty((len(shots), 2))
        for i, shot in enumerate(shots):
            c = shot.trapezoid.centroid()
            expected[i] = (c.x, c.y)
        assert np.array_equal(
            shot_sample_points(shots, "centroid"), expected
        )

    @settings(max_examples=40, deadline=None)
    @given(shots=shot_lists(max_size=30))
    def test_center_matches_scalar_loop(self, shots):
        expected = np.empty((len(shots), 2))
        for i, shot in enumerate(shots):
            b = shot.trapezoid.bounding_box()
            expected[i] = ((b[0] + b[2]) / 2.0, (b[1] + b[3]) / 2.0)
        assert np.array_equal(
            shot_sample_points(shots, "center"), expected
        )

    @settings(max_examples=40, deadline=None)
    @given(shots=shot_lists(max_size=30))
    def test_edge_points_match_scalar_loop(self, shots):
        n = len(shots)
        expected = np.empty((2 * n, 2))
        owners = np.empty(2 * n, dtype=int)
        for i, shot in enumerate(shots):
            t = shot.trapezoid
            y_mid = 0.5 * (t.y_bottom + t.y_top)
            left = 0.5 * (t.x_bottom_left + t.x_top_left)
            right = 0.5 * (t.x_bottom_right + t.x_top_right)
            inset = 0.02 * max(right - left, 1e-9)
            expected[2 * i] = (left + inset, y_mid)
            expected[2 * i + 1] = (right - inset, y_mid)
            owners[2 * i] = i
            owners[2 * i + 1] = i
        points, got_owners = edge_sample_points(shots)
        assert np.array_equal(points, expected)
        assert np.array_equal(got_owners, owners)

    def test_empty_shot_list(self):
        assert shot_sample_points([], "centroid").shape == (0, 2)
        points, owners = edge_sample_points([])
        assert points.shape == (0, 2)
        assert owners.shape == (0,)


# -- exposure_at_points through the operator -----------------------------


class TestExposureAtPoints:
    @settings(max_examples=25, deadline=None)
    @given(shots=shot_lists(max_size=20))
    def test_matches_per_shot_accumulation(self, shots):
        points = shot_sample_points(shots, "centroid")
        legacy = np.zeros(len(points))
        for shot in shots:
            legacy += shot.dose * trapezoid_exposure(
                points, shot.trapezoid, PSF
            )
        for mode in ("dense", "sparse"):
            levels = exposure_at_points(points, shots, PSF, matrix_mode=mode)
            np.testing.assert_allclose(levels, legacy, rtol=1e-6, atol=1e-6)


# -- the dense matrix's page-backed storage ------------------------------


def zeros_backed_matrix(points, shots, psf, cutoff_factor=4.0):
    """The dense sink on ``np.zeros``: the sweep's entries scattered
    into memory numpy allocated, as the dense backend once did."""
    matrix = np.zeros((len(points), len(shots)))
    for rows, cols, values in _kept_entries(points, shots, psf, cutoff_factor):
        matrix.reshape(-1)[rows * len(shots) + cols] = values
    return matrix


#: Layouts of ``test_exposure_sweep``.
SWEEP_LAYOUTS = {
    "scattered": lambda: scattered_shots(150, 60.0, seed=5),
    "far_from_origin": lambda: scattered_shots(150, 60.0, seed=5, offset=1e5),
    "alignment_marks": lambda: alignment_marks(30e3),
    "regular_array": lambda: square_shots(
        np.arange(0.0, 40.0, 2.0), np.arange(0.0, 40.0, 2.0), 1.0
    ),
}


def four_mib_array():
    """512 squares whose edge-sampled 1,024 × 512 matrix is 4 MiB, the
    size from which numpy asks for huge pages."""
    return square_shots(np.arange(0.0, 64.0, 2.0), np.arange(0.0, 32.0, 2.0), 1.0)


class TestPageBackedDenseMatrix:
    """The dense matrix lives in an anonymous mapping whose unwritten
    pages read as the kernel's zero page; its bytes, its matvec and the
    doses solved through it are those of the ``np.zeros`` matrix."""

    @staticmethod
    def assert_same_operator(points, shots):
        operator = build_exposure_operator(points, shots, PSF, mode="dense")
        expected = zeros_backed_matrix(points, shots, PSF)
        owner = operator.matrix
        while isinstance(owner, np.ndarray):
            owner = owner.base
        assert isinstance(owner.obj, mmap.mmap)  # through frombuffer's view
        assert operator.matrix.flags.c_contiguous
        assert operator.matrix.tobytes() == expected.tobytes()
        rng = np.random.default_rng(len(shots))
        for doses in (
            np.ones(len(shots)),
            shot_rows(shots)[:, 6].copy(),
            rng.uniform(0.1, 4.0, len(shots)),
        ):
            assert (operator @ doses).tobytes() == (expected @ doses).tobytes()
        return operator

    @pytest.mark.parametrize("sampling", ["centroid", "edge"])
    @pytest.mark.parametrize("layout", sorted(SWEEP_LAYOUTS))
    def test_matrix_and_matvec_bytes(self, layout, sampling):
        shots = SWEEP_LAYOUTS[layout]()
        self.assert_same_operator(sample_points(shots, sampling), shots)

    def test_a_matrix_numpy_would_put_on_huge_pages(self):
        shots = four_mib_array()
        operator = self.assert_same_operator(sample_points(shots, "edge"), shots)
        assert operator.matrix_nbytes >= 4 * 2**20

    def test_minus_zero_entries(self):
        points, shots = minus_zero_layout()
        operator = self.assert_same_operator(points, shots)
        assert np.signbit(operator.matrix[-2:, -3]).all()

    def test_iterative_doses(self, monkeypatch):
        shots = SWEEP_LAYOUTS["scattered"]()
        corrector = IterativeDoseCorrector(sample_mode="edge", matrix_mode="dense")
        doses = shot_rows(corrector.correct(shots, PSF))[:, 6].copy()
        monkeypatch.setattr(operator_module, "_exposure_matrix", zeros_backed_matrix)
        expected = shot_rows(corrector.correct(shots, PSF))[:, 6].copy()
        assert doses.tobytes() == expected.tobytes()
