"""Tests for the electron-optical column model."""

import math

import numpy as np
import pytest

from repro.machine.column import Column, FIELD_EMISSION, LAB6, TUNGSTEN

NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.fixture
def column():
    return Column(LAB6, energy_kev=20.0)


class TestSources:
    def test_brightness_ordering(self):
        assert TUNGSTEN.brightness < LAB6.brightness < FIELD_EMISSION.brightness

    def test_brightness_scales_with_voltage(self):
        assert LAB6.brightness_at(40.0) == pytest.approx(2 * LAB6.brightness)

    def test_brightness_validates(self):
        with pytest.raises(ValueError):
            LAB6.brightness_at(0)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_brightness_refuses_non_finite_energy(self, value):
        with pytest.raises(ValueError, match="energy must be"):
            LAB6.brightness_at(value)


class TestSpotSize:
    def test_validates_inputs(self, column):
        with pytest.raises(ValueError):
            column.spot_size(0, 0.01)
        with pytest.raises(ValueError):
            column.spot_size(1e-9, 0)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_refuses_non_finite_inputs(self, column, value):
        with pytest.raises(ValueError, match="current must be"):
            column.spot_size(value, 5e-3)
        with pytest.raises(ValueError, match="half-angle must be"):
            column.spot_size(1e-9, value)

    def test_contributions_all_positive(self, column):
        contributions = column.spot_contributions(1e-9, 5e-3)
        assert all(c > 0 for c in contributions)

    def test_total_is_quadrature_sum(self, column):
        contributions = column.spot_contributions(1e-9, 5e-3)
        assert column.spot_size(1e-9, 5e-3) == pytest.approx(
            math.sqrt(sum(c * c for c in contributions))
        )

    def test_total_is_the_explicit_four_term_sum(self, column):
        # One addition order on every Python (built-in sum() compensates
        # float sums from CPython 3.12 on): exact, not approx.
        grid = [
            (float(current), float(angle))
            for current in np.geomspace(1e-13, 1e-4, 10)
            for angle in np.geomspace(1e-4, 5e-2, 10)
        ]
        for current, angle in [(1e-9, 5e-3), (3e-7, 1.3e-2), (1e-12, 2e-4)] + grid:
            g, s, c, d = column.spot_contributions(current, angle)
            total = ((g * g + s * s) + c * c) + d * d
            assert column.spot_size(current, angle) == math.sqrt(total)

    def test_gauss_term_dominates_at_small_aperture(self, column):
        d_g, d_s, d_c, d_d = column.spot_contributions(1e-8, 1e-3)
        assert d_g > d_s

    def test_sphere_term_dominates_at_large_aperture(self, column):
        d_g, d_s, d_c, d_d = column.spot_contributions(1e-9, 4e-2)
        assert d_s > d_g

    def test_diffraction_negligible(self, column):
        # The 1979 claim: electron wavelength never limits e-beam spots.
        _, _, _, d_d = column.spot_contributions(1e-9, 5e-3)
        assert d_d < 2e-3  # a nanometre-scale term, far below the spot


def scalar_optimal_half_angle(column, current):
    """The definition ``optimal_half_angle`` vectorizes: two grid scans
    of the scalar ``spot_size``, one call per grid point."""
    angles = np.geomspace(1e-4, 5e-2, 400)
    best = int(np.argmin([column.spot_size(current, a) for a in angles]))
    lo = angles[max(best - 1, 0)]
    hi = angles[min(best + 1, len(angles) - 1)]
    fine = np.linspace(lo, hi, 200)
    sizes = [column.spot_size(current, a) for a in fine]
    return float(fine[int(np.argmin(sizes))])


def bisection_oracle(column, spot_um):
    """``(current, grown)``: the search ``max_current_for_spot`` runs,
    written over the public ``optimal_half_angle`` and ``spot_size`` so
    every step scans both grids from scratch; ``grown`` counts the
    ``hi *= 4`` steps.  ``(None, 0)`` for an unachievable spot."""

    def best_spot_size(current):
        return column.spot_size(current, column.optimal_half_angle(current))

    lo, hi, grown = 1e-13, 1e-4, 0
    if best_spot_size(lo) > spot_um:
        return None, 0
    while best_spot_size(hi) < spot_um:
        hi *= 4.0
        grown += 1
        if hi > 1.0:
            break
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if best_spot_size(mid) < spot_um:
            lo = mid
        else:
            hi = mid
    return lo, grown


class ScanCounters:
    """Array calls of ``Column._contributions`` (one per angle grid whose
    fixed terms are computed) and the current of every ``spot_size``
    call (one per bisection step)."""

    def __init__(self, monkeypatch):
        self.array_calls = 0
        self.currents = []
        contributions, spot_size = Column._contributions, Column.spot_size

        def counted_contributions(column, alpha, alpha_cubed):
            self.array_calls += np.ndim(alpha) > 0
            return contributions(column, alpha, alpha_cubed)

        def counted_spot_size(column, current_a, half_angle_rad):
            self.currents.append(current_a)
            return spot_size(column, current_a, half_angle_rad)

        monkeypatch.setattr(Column, "_contributions", counted_contributions)
        monkeypatch.setattr(Column, "spot_size", counted_spot_size)


class TestOptimization:
    @pytest.mark.parametrize(
        "source", [TUNGSTEN, LAB6, FIELD_EMISSION], ids=lambda s: s.name
    )
    @pytest.mark.parametrize("energy_kev", [10.0, 20.0, 50.0])
    def test_array_scan_equals_scalar_scan_exactly(self, source, energy_kev):
        column = Column(source, energy_kev=energy_kev)
        for current in np.geomspace(1e-13, 1e-4, 100):
            expected = scalar_optimal_half_angle(column, float(current))
            assert column.optimal_half_angle(float(current)) == expected

    def test_max_current_pinned(self, column):
        # Every write-time table and /jobs summary derives from these.
        assert column.max_current_for_spot(0.5) == 2.1354458361704444e-06
        assert column.max_current_for_spot(0.25) == 3.334761624088299e-07

    def test_max_current_equals_the_rescanning_search_exactly(self):
        # Spots 0.05–5 µm; 0.001 µm is under every column's aberration
        # floor, and 5 µm is past most columns' spot at 1e-4 A.
        grown = 0
        for source in (TUNGSTEN, LAB6, FIELD_EMISSION):
            for energy_kev in (10.0, 20.0, 50.0):
                column = Column(source, energy_kev=energy_kev)
                with pytest.raises(ValueError, match="unachievable"):
                    column.max_current_for_spot(0.001)
                assert bisection_oracle(column, 0.001) == (None, 0)
                for spot in np.geomspace(0.05, 5.0, 5):
                    expected, steps = bisection_oracle(column, float(spot))
                    assert column.max_current_for_spot(float(spot)) == expected
                    grown += steps
        assert grown > 0

    def test_search_scans_each_grid_once_and_keeps_no_state(
        self, column, monkeypatch
    ):
        counters = ScanCounters(monkeypatch)
        before = dict(vars(column))
        column.max_current_for_spot(0.5)
        # The coarse grid once, plus one fine grid per coarse optimum
        # the bisection's currents land on (rescanning both grids at
        # each of the 62 steps would be 124 array calls).
        calls, currents = counters.array_calls, list(counters.currents)
        angles = np.geomspace(1e-4, 5e-2, 400)
        coarse_optima = {
            int(np.argmin([column.spot_size(c, a) for a in angles]))
            for c in currents
        }
        assert len(currents) == 62
        assert calls <= 1 + len(coarse_optima) <= 17
        column.max_current_for_spot(0.25)
        assert vars(column) == before

    def test_optimal_angle_validates_current(self, column):
        with pytest.raises(ValueError):
            column.optimal_half_angle(0.0)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_search_refuses_non_finite_inputs(self, column, value):
        with pytest.raises(ValueError, match="current must be"):
            column.optimal_half_angle(value)
        with pytest.raises(ValueError, match="spot size must be"):
            column.max_current_for_spot(value)

    def test_optimal_angle_minimizes(self, column):
        best_angle = column.optimal_half_angle(1e-8)
        best = column.spot_size(1e-8, best_angle)
        for factor in (0.5, 2.0):
            assert column.spot_size(1e-8, best_angle * factor) >= best

    def test_best_spot_grows_with_current(self, column):
        assert column.best_spot_size(1e-7) > column.best_spot_size(1e-9)

    def test_brighter_source_smaller_spot(self):
        lab6 = Column(LAB6).best_spot_size(1e-8)
        fe = Column(FIELD_EMISSION).best_spot_size(1e-8)
        assert fe < lab6

    def test_max_current_inverts_best_spot(self, column):
        current = column.max_current_for_spot(0.25)
        assert column.best_spot_size(current) == pytest.approx(0.25, rel=0.01)

    def test_unachievable_spot_raises(self, column):
        with pytest.raises(ValueError, match="unachievable"):
            column.max_current_for_spot(1e-6)

    def test_current_density_reasonable(self, column):
        # LaB6 columns delivered ~1-100 A/cm² into sub-µm spots.
        j = column.current_density(1e-8)
        assert 0.1 < j < 1e4

    def test_validation(self):
        with pytest.raises(ValueError):
            Column(LAB6, energy_kev=0)
        with pytest.raises(ValueError):
            Column(LAB6, spherical_aberration_mm=0)
        with pytest.raises(ValueError):
            Column(LAB6).max_current_for_spot(0)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize(
        "knob",
        ["energy_kev", "spherical_aberration_mm", "chromatic_aberration_mm"],
    )
    def test_validation_refuses_non_finite(self, knob, value):
        with pytest.raises(ValueError, match="must be"):
            Column(LAB6, **{knob: value})
