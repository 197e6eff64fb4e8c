"""Tests for the proximity-effect correction package."""

import numpy as np
import pytest

from repro.fracture.base import Shot
from repro.fracture.trapezoidal import TrapezoidFracturer
from repro.geometry.polygon import Polygon
from repro.geometry.rasterize import RasterFrame
from repro.geometry.trapezoid import Trapezoid
from repro.pec.base import (
    exposure_at_points,
    interaction_matrix_at_points,
    rectangle_exposure,
    shot_sample_points,
    trapezoid_exposure,
)
from repro.pec.dose_iter import IterativeDoseCorrector
from repro.pec.dose_matrix import MatrixDoseCorrector
from repro.pec.ghost import GhostCorrector, GhostExposure, split_ghost
from repro.pec.report import correction_report
from repro.pec.shape_bias import ShapeBiasCorrector
from repro.physics.exposure import ExposureSimulator, shot_dose_map
from repro.physics.psf import DoubleGaussianPSF


@pytest.fixture
def psf():
    return DoubleGaussianPSF(alpha=0.15, beta=2.0, eta=0.74)


@pytest.fixture
def line_and_pad_shots():
    polys = [
        Polygon.rectangle(0, 0, 20, 20),       # dense pad
        Polygon.rectangle(22, 0, 22.5, 20),    # isolated fine line
    ]
    return TrapezoidFracturer().fracture_to_shots(polys)


class TestAnalyticExposure:
    def test_pad_center_level_one(self, psf):
        points = np.array([[20.0, 20.0]])
        level = rectangle_exposure(points, (0, 0, 40, 40), psf)
        assert level[0] == pytest.approx(1.0, abs=1e-3)

    def test_pad_edge_level_half(self, psf):
        points = np.array([[0.0, 20.0]])
        level = rectangle_exposure(points, (0, 0, 40, 40), psf)
        assert level[0] == pytest.approx(0.5, abs=1e-3)

    def test_far_point_level_zero(self, psf):
        points = np.array([[100.0, 100.0]])
        level = rectangle_exposure(points, (0, 0, 10, 10), psf)
        assert level[0] == pytest.approx(0.0, abs=1e-6)

    def test_matches_fft_engine_for_rectangle(self, psf):
        rect = Trapezoid.from_rectangle(0, 0, 8, 6)
        frame = RasterFrame.around((0, 0, 8, 6), 0.1, margin=8.0)
        sim = ExposureSimulator(psf, frame)
        image = sim.absorbed_energy(shot_dose_map([Shot(rect)], frame))
        probe_points = np.array([[4.0, 3.0], [1.0, 1.0], [9.0, 3.0]])
        analytic = trapezoid_exposure(probe_points, rect, psf)
        for point, expected in zip(probe_points, analytic):
            sampled = sim.sample(image, point[0], point[1])
            assert sampled == pytest.approx(expected, abs=0.03)

    def test_sample_points_modes(self, line_and_pad_shots):
        centroid = shot_sample_points(line_and_pad_shots, "centroid")
        center = shot_sample_points(line_and_pad_shots, "center")
        assert centroid.shape == center.shape
        # For rectangles the two coincide.
        assert np.allclose(centroid, center)

    def test_sample_points_validates_mode(self, line_and_pad_shots):
        with pytest.raises(ValueError):
            shot_sample_points(line_and_pad_shots, "random")

    def test_interaction_matrix_shape_and_diagonal(self, psf, line_and_pad_shots):
        points = shot_sample_points(line_and_pad_shots, "centroid")
        matrix = interaction_matrix_at_points(points, line_and_pad_shots, psf)
        n = len(line_and_pad_shots)
        assert matrix.shape == (n, n)
        # Self-exposure dominates.
        for i in range(n):
            assert matrix[i, i] >= matrix[i].max() * 0.99


class TestIterativeCorrection:
    def test_equalizes_exposure(self, psf, line_and_pad_shots):
        before = correction_report(line_and_pad_shots, psf)
        corrector = IterativeDoseCorrector()
        corrected = corrector.correct(line_and_pad_shots, psf)
        after = correction_report(corrected, psf)
        assert after.spread < before.spread / 10
        assert corrector.last_trace.converged

    def test_isolated_feature_gets_boost(self, psf, line_and_pad_shots):
        corrected = IterativeDoseCorrector().correct(line_and_pad_shots, psf)
        pad_dose = corrected[0].dose
        line_dose = max(s.dose for s in corrected)
        assert line_dose > pad_dose
        # The boost approaches (1+eta) for a narrow isolated line.
        assert 1.2 < line_dose / pad_dose < 1.0 + psf.eta + 0.1

    def test_convergence_trace_monotone(self, psf, line_and_pad_shots):
        corrector = IterativeDoseCorrector(max_iterations=10, tolerance=0.0)
        corrector.correct(line_and_pad_shots, psf)
        errors = corrector.last_trace.max_errors
        assert len(errors) == 10
        assert errors[-1] < errors[0]

    def test_relaxation_slows_convergence(self, psf, line_and_pad_shots):
        plain = IterativeDoseCorrector(tolerance=1e-6)
        damped = IterativeDoseCorrector(tolerance=1e-6, relaxation=0.5)
        plain.correct(line_and_pad_shots, psf)
        damped.correct(line_and_pad_shots, psf)
        assert len(damped.last_trace.max_errors) >= len(plain.last_trace.max_errors)

    def test_dose_limits_respected(self, psf, line_and_pad_shots):
        corrector = IterativeDoseCorrector(dose_limits=(0.5, 1.2))
        corrected = corrector.correct(line_and_pad_shots, psf)
        for shot in corrected:
            assert 0.5 <= shot.dose <= 1.2

    def test_empty_input(self, psf):
        corrector = IterativeDoseCorrector()
        assert corrector.correct([], psf) == []
        assert corrector.last_trace.converged

    def test_validation(self):
        with pytest.raises(ValueError):
            IterativeDoseCorrector(target=0)
        with pytest.raises(ValueError):
            IterativeDoseCorrector(relaxation=0)


class TestEdgeTargetedCorrection:
    def test_edge_mode_converges(self, psf, line_and_pad_shots):
        corrector = IterativeDoseCorrector(sample_mode="edge")
        corrected = corrector.correct(line_and_pad_shots, psf)
        assert corrector.last_trace.converged
        assert len(corrected) == len(line_and_pad_shots)

    def test_edge_mode_lowers_dense_doses(self, psf):
        # Edge targeting reduces doses in dense context rather than
        # boosting interiors: a large pad's edge sits at 0.5 + background,
        # so its dose drops below 1.
        shots = TrapezoidFracturer().fracture_to_shots(
            [Polygon.rectangle(0, 0, 30, 30)]
        )
        corrected = IterativeDoseCorrector(sample_mode="edge").correct(
            shots, psf
        )
        assert corrected[0].dose < 1.0

    def test_edge_mode_equalizes_edge_levels(self, psf, line_and_pad_shots):
        from repro.pec.base import edge_sample_points, exposure_at_points

        corrected = IterativeDoseCorrector(sample_mode="edge").correct(
            line_and_pad_shots, psf
        )
        points, owners = edge_sample_points(corrected)
        levels = exposure_at_points(points, corrected, psf)
        import numpy as np

        per_shot = np.bincount(owners, weights=levels) / np.bincount(owners)
        assert per_shot.max() - per_shot.min() < 0.01

    def test_isolated_line_dose_near_one_in_edge_mode(self, psf):
        # An isolated feature's edge already prints at ~0.5 x its own
        # level; edge mode should barely touch it.
        shots = TrapezoidFracturer().fracture_to_shots(
            [Polygon.rectangle(0, 0, 0.6, 20)]
        )
        corrected = IterativeDoseCorrector(sample_mode="edge").correct(
            shots, psf
        )
        assert corrected[0].dose == pytest.approx(1.0, abs=0.35)


class TestMatrixCorrection:
    def test_exact_for_small_system(self, psf, line_and_pad_shots):
        corrected = MatrixDoseCorrector().correct(line_and_pad_shots, psf)
        report = correction_report(corrected, psf)
        assert report.spread < 1e-6

    def test_agrees_with_iterative(self, psf, line_and_pad_shots):
        matrix_doses = [
            s.dose for s in MatrixDoseCorrector().correct(line_and_pad_shots, psf)
        ]
        iter_doses = [
            s.dose
            for s in IterativeDoseCorrector(tolerance=1e-8, max_iterations=100).correct(
                line_and_pad_shots, psf
            )
        ]
        assert matrix_doses == pytest.approx(iter_doses, rel=1e-3)

    def test_clipping_applied(self, psf, line_and_pad_shots):
        corrected = MatrixDoseCorrector(dose_limits=(0.9, 1.1)).correct(
            line_and_pad_shots, psf
        )
        for shot in corrected:
            assert 0.9 <= shot.dose <= 1.1

    def test_regularization_validation(self):
        with pytest.raises(ValueError):
            MatrixDoseCorrector(regularization=-1)

    def test_empty_input(self, psf):
        assert MatrixDoseCorrector().correct([], psf) == []


class TestShapeBias:
    def test_dense_figures_shrink(self, psf):
        shots = TrapezoidFracturer().fracture_to_shots(
            [Polygon.rectangle(0, 0, 30, 30)]
        )
        corrected = ShapeBiasCorrector().correct(shots, psf)
        assert corrected[0].area() < shots[0].area()

    def test_isolated_small_feature_nearly_unbiased(self, psf):
        shots = TrapezoidFracturer().fracture_to_shots(
            [Polygon.rectangle(0, 0, 0.4, 10)]
        )
        corrected = ShapeBiasCorrector().correct(shots, psf)
        # A thin line self-exposes slightly above the isolated-edge
        # reference, so a modest bias remains.
        assert corrected[0].area() == pytest.approx(shots[0].area(), rel=0.25)
        # But far less than the bias a dense pad receives.
        pad = TrapezoidFracturer().fracture_to_shots(
            [Polygon.rectangle(0, 0, 30, 30)]
        )
        pad_biased = ShapeBiasCorrector().correct(pad, psf)
        pad_shrink = 1.0 - pad_biased[0].area() / pad[0].area()
        line_shrink = 1.0 - corrected[0].area() / shots[0].area()
        assert line_shrink < pad_shrink * 10

    def test_doses_unchanged(self, psf, line_and_pad_shots):
        corrected = ShapeBiasCorrector().correct(line_and_pad_shots, psf)
        assert all(s.dose == o.dose for s, o in zip(corrected, line_and_pad_shots))

    def test_never_inverts(self, psf):
        shots = TrapezoidFracturer().fracture_to_shots(
            [Polygon.rectangle(0, 0, 0.2, 0.2)]
        )
        corrected = ShapeBiasCorrector(gain=50.0).correct(shots, psf)
        assert corrected[0].area() >= 0.0
        t = corrected[0].trapezoid
        assert t.y_top > t.y_bottom

    def test_validation(self):
        with pytest.raises(ValueError):
            ShapeBiasCorrector(gain=0)
        with pytest.raises(ValueError):
            ShapeBiasCorrector(max_bias_fraction=0.6)


class TestGhost:
    def test_complement_covers_window(self, psf, line_and_pad_shots):
        corrector = GhostCorrector(margin=5.0)
        ghost = corrector.ghost_shots(line_and_pad_shots, psf)
        pattern_area = sum(s.area() for s in line_and_pad_shots)
        ghost_area = sum(s.area() for s in ghost)
        # Window = bbox + margin on each side.
        window_area = (22.5 + 10) * (20 + 10)
        assert ghost_area + pattern_area == pytest.approx(window_area, rel=1e-6)

    def test_ghost_dose_theoretical(self, psf, line_and_pad_shots):
        ghost = GhostCorrector().ghost_shots(line_and_pad_shots, psf)
        assert ghost[0].dose == pytest.approx(psf.eta / (1 + psf.eta))

    def test_correct_concatenates(self, psf, line_and_pad_shots):
        corrector = GhostCorrector()
        combined = corrector.correct(line_and_pad_shots, psf)
        pattern, ghost = split_ghost(combined, len(line_and_pad_shots))
        assert len(pattern) == len(line_and_pad_shots)
        assert len(ghost) > 0

    def test_ghost_equalizes_background(self, psf):
        # Density ladder: one dense pad and one sparse line far apart.
        polys = [
            Polygon.rectangle(0, 0, 15, 15),
            Polygon.rectangle(30, 0, 30.5, 15),
        ]
        shots = TrapezoidFracturer().fracture_to_shots(polys)
        frame = RasterFrame.around((0, 0, 31, 15), 0.25, margin=8.0)
        ghost_shots = GhostCorrector(margin=8.0).ghost_shots(shots, psf)
        exposure = GhostExposure(psf, frame)
        with_ghost = exposure.absorbed(shots, ghost_shots)
        without = exposure.absorbed(shots, [])
        sim = ExposureSimulator(psf, frame)
        # Compare edge levels of dense pad vs isolated line.
        def edge_delta(image):
            pad_edge = sim.sample(image, 15.0, 7.5)
            line_edge = sim.sample(image, 30.0, 7.5)
            return abs(pad_edge - line_edge)

        assert edge_delta(with_ghost) < edge_delta(without)

    def test_empty_input(self, psf):
        assert GhostCorrector().correct([], psf) == []


class TestReport:
    def test_empty_report(self, psf):
        report = correction_report([], psf)
        assert report.shot_count == 0

    def test_extra_exposure_fraction(self, psf):
        shots = [Shot(Trapezoid.from_rectangle(0, 0, 10, 10), dose=1.5)]
        report = correction_report(shots, psf)
        assert report.extra_exposure_fraction == pytest.approx(0.5)

    def test_spread_zero_for_uniform(self, psf):
        shots = [Shot(Trapezoid.from_rectangle(0, 0, 40, 40))]
        report = correction_report(shots, psf)
        assert report.spread == pytest.approx(0.0)
