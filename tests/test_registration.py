"""Tests for mark detection and its error model."""

import numpy as np
import pytest

from repro.machine.registration import detect_edge, detection_error_model, mark_signal


class TestMarkSignal:
    def test_validation(self):
        with pytest.raises(ValueError):
            mark_signal(np.linspace(-1, 1, 10), 0.0, beam_size=0.0)

    def test_step_shape(self):
        x = np.linspace(-2, 2, 401)  # includes x = 0 exactly
        signal = mark_signal(x, 0.0, beam_size=0.1)
        assert signal[0] == pytest.approx(0.0, abs=1e-6)
        assert signal[-1] == pytest.approx(1.0, abs=1e-6)
        mid = signal[np.argmin(np.abs(x))]
        assert mid == pytest.approx(0.5, abs=0.01)

    def test_noise_reproducible_with_rng(self):
        x = np.linspace(-1, 1, 50)
        a = mark_signal(x, 0.0, 0.1, noise=0.05, rng=np.random.default_rng(3))
        b = mark_signal(x, 0.0, 0.1, noise=0.05, rng=np.random.default_rng(3))
        assert np.array_equal(a, b)


class TestDetection:
    def test_detects_clean_edge_exactly(self):
        x = np.linspace(-2, 2, 800)
        signal = mark_signal(x, 0.3, beam_size=0.1)
        assert detect_edge(x, signal) == pytest.approx(0.3, abs=1e-3)

    def test_raises_without_crossing(self):
        x = np.linspace(-1, 1, 50)
        with pytest.raises(ValueError):
            detect_edge(x, np.zeros(50), threshold=0.5)

    def test_detects_under_noise(self):
        x = np.linspace(-2, 2, 400)
        rng = np.random.default_rng(7)
        signal = mark_signal(x, -0.2, beam_size=0.1, noise=0.03, rng=rng)
        assert detect_edge(x, signal) == pytest.approx(-0.2, abs=0.05)


class TestErrorModel:
    def test_error_grows_with_noise(self):
        quiet = detection_error_model(beam_size=0.1, noise=0.01, scans=80)
        loud = detection_error_model(beam_size=0.1, noise=0.1, scans=80)
        assert loud > quiet

    def test_error_scales_with_beam_size(self):
        fine = detection_error_model(beam_size=0.05, noise=0.05, scans=80)
        coarse = detection_error_model(beam_size=0.5, noise=0.05, scans=80)
        assert coarse > fine

    def test_clean_signal_near_zero_error(self):
        sigma = detection_error_model(beam_size=0.1, noise=0.0, scans=10)
        assert sigma < 1e-6


class TestDetectorGeometry:
    @pytest.mark.parametrize("edge", [-0.55, 0.0, 0.37, 0.9])
    def test_clean_edge_found_anywhere_in_the_scan(self, edge):
        x = np.linspace(-2, 2, 800)
        signal = mark_signal(x, edge, beam_size=0.1)
        assert detect_edge(x, signal) == pytest.approx(edge, abs=1e-3)

    def test_explicit_threshold_moves_the_crossing(self):
        from scipy.special import erfinv

        x = np.linspace(-2, 2, 4001)
        signal = mark_signal(x, 0.0, beam_size=0.2)
        # 0.5·(1 + erf(x/σ)) = 0.25 at x = σ·erfinv(−0.5).
        assert detect_edge(x, signal, threshold=0.25) == pytest.approx(
            0.2 * erfinv(-0.5), abs=1e-4
        )

    def test_falling_edge_detected(self):
        x = np.linspace(-2, 2, 800)
        signal = 1.0 - mark_signal(x, 0.4, beam_size=0.1)
        assert detect_edge(x, signal) == pytest.approx(0.4, abs=1e-3)

    def test_contrast_scales_the_step(self):
        x = np.linspace(-1, 1, 101)
        unit = mark_signal(x, 0.1, beam_size=0.2)
        assert np.allclose(mark_signal(x, 0.1, beam_size=0.2, contrast=3.0), 3 * unit)


class TestErrorModelReproducible:
    def test_same_seed_same_sigma(self):
        first = detection_error_model(beam_size=0.1, noise=0.05, scans=30, seed=4)
        again = detection_error_model(beam_size=0.1, noise=0.05, scans=30, seed=4)
        assert first == again

    def test_other_seed_other_sigma(self):
        first = detection_error_model(beam_size=0.1, noise=0.05, scans=30, seed=4)
        other = detection_error_model(beam_size=0.1, noise=0.05, scans=30, seed=5)
        assert first != other
