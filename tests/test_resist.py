"""Tests for resist response models."""

import numpy as np
import pytest

from repro.physics.resist import COP, PBS, PMMA, Resist


class TestValidation:
    def test_tone(self):
        with pytest.raises(ValueError):
            Resist("x", tone="neutral", sensitivity=1, contrast=1)

    def test_positive_parameters(self):
        with pytest.raises(ValueError):
            Resist("x", tone="positive", sensitivity=0, contrast=1)
        with pytest.raises(ValueError):
            Resist("x", tone="positive", sensitivity=1, contrast=-1)
        with pytest.raises(ValueError):
            Resist("x", tone="positive", sensitivity=1, contrast=1, thickness=0)


class TestNegativeResist:
    resist = Resist("neg", tone="negative", sensitivity=1.0, contrast=2.0)

    def test_below_gel_dose_clears(self):
        assert self.resist.remaining_thickness(0.5) == 0.0

    def test_at_gel_dose_zero(self):
        assert self.resist.remaining_thickness(1.0) == pytest.approx(0.0)

    def test_saturation(self):
        # Fully retained at D₀ · 10^(1/γ).
        saturation = 1.0 * 10.0 ** (1.0 / 2.0)
        assert self.resist.remaining_thickness(saturation) == pytest.approx(1.0)
        assert self.resist.remaining_thickness(100.0) == 1.0

    def test_monotone_increasing(self):
        doses = np.geomspace(0.1, 100, 50)
        t = self.resist.remaining_thickness(doses)
        assert np.all(np.diff(t) >= 0)

    def test_threshold_dose_gives_half(self):
        assert self.resist.remaining_thickness(
            self.resist.threshold_dose
        ) == pytest.approx(0.5)

    def test_higher_contrast_steeper(self):
        soft = Resist("s", tone="negative", sensitivity=1.0, contrast=1.0)
        hard = Resist("h", tone="negative", sensitivity=1.0, contrast=4.0)
        assert hard.exposure_latitude() < soft.exposure_latitude()


class TestPositiveResist:
    resist = Resist("pos", tone="positive", sensitivity=10.0, contrast=2.0)

    def test_underexposed_remains(self):
        assert self.resist.remaining_thickness(1.0) == 1.0

    def test_fully_cleared(self):
        # Fully cleared at D₀ · 10^(1/γ).
        saturation = 10.0 * 10.0 ** (1.0 / 2.0)
        assert self.resist.remaining_thickness(saturation) == pytest.approx(0.0)

    def test_monotone_decreasing(self):
        doses = np.geomspace(1, 1000, 50)
        t = self.resist.remaining_thickness(doses)
        assert np.all(np.diff(t) <= 0)


class TestStandardResists:
    def test_pmma_is_slow_positive(self):
        assert PMMA.tone == "positive"
        assert PMMA.sensitivity > 10 * PBS.sensitivity

    def test_cop_is_fast_negative(self):
        assert COP.tone == "negative"
        assert COP.sensitivity < 1.0

    def test_scalar_and_array_api(self):
        scalar = PMMA.remaining_thickness(10.0)
        array = PMMA.remaining_thickness(np.array([10.0, 20.0]))
        assert isinstance(scalar, float)
        assert array.shape == (2,)


STANDARD = {"PMMA": PMMA, "PBS": PBS, "COP": COP}


class TestContrastCurve:
    @pytest.mark.parametrize("name", STANDARD)
    def test_threshold_dose_prints_half_thickness(self, name):
        resist = STANDARD[name]
        assert resist.remaining_thickness(resist.threshold_dose) == pytest.approx(0.5)

    @pytest.mark.parametrize("name", STANDARD)
    def test_exposure_latitude_from_the_contrast_alone(self, name):
        gamma = STANDARD[name].contrast
        want = (10 ** (0.9 / gamma) - 10 ** (0.1 / gamma)) / 10 ** (0.5 / gamma)
        assert STANDARD[name].exposure_latitude() == pytest.approx(want)

    @pytest.mark.parametrize("name", STANDARD)
    def test_full_response_one_decade_over_gamma_past_onset(self, name):
        resist = STANDARD[name]
        full = resist.sensitivity * 10 ** (1 / resist.contrast)
        want = 1.0 if resist.tone == "negative" else 0.0
        assert resist.remaining_thickness(full) == pytest.approx(want)
        assert resist.remaining_thickness(2 * full) == pytest.approx(want)

    def test_image_shape_is_kept(self):
        dose = np.linspace(0.0, 200.0, 12).reshape(3, 4)
        thickness = PMMA.remaining_thickness(dose)
        assert thickness.shape == (3, 4)
        assert thickness[0, 0] == 1.0
