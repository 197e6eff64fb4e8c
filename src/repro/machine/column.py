"""Electron-optical column model: spot size versus beam current.

The classic Gaussian-column error budget adds four contributions in
quadrature::

    d² = d_gauss² + d_sphere² + d_chromatic² + d_diffraction²

    d_gauss      = (2/π) · sqrt(I / B) / α     (source image, brightness B)
    d_sphere     = 0.5 · Cs · α³
    d_chromatic  = Cc · (ΔE/E) · α
    d_diffraction= 0.61 · λ / α

with ``α`` the beam half-angle at the target.  For each requested current
there is an optimal ``α``; the resulting d(I) trade-off is the fundamental
resolution/throughput limit of a Gaussian-beam machine (experiment T4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.physics.constants import relativistic_wavelength_nm


@dataclass(frozen=True)
class ElectronSource:
    """An electron source characterized by its reduced brightness.

    Attributes:
        name: source type.
        brightness: axial brightness at 20 kV [A/cm²/sr].
        energy_spread_ev: FWHM energy spread [eV].
    """

    name: str
    brightness: float
    energy_spread_ev: float

    def brightness_at(self, energy_kev: float) -> float:
        """Brightness scaled linearly with accelerating voltage."""
        if energy_kev <= 0:
            raise ValueError("energy must be positive")
        return self.brightness * energy_kev / 20.0


#: Thermionic tungsten hairpin (the 1960s baseline).
TUNGSTEN = ElectronSource("W hairpin", brightness=1.0e5, energy_spread_ev=2.5)

#: Lanthanum-hexaboride thermionic gun (EBES-class machines).
LAB6 = ElectronSource("LaB6", brightness=1.0e6, energy_spread_ev=1.5)

#: Cold field emission (the emerging option in 1979).
FIELD_EMISSION = ElectronSource(
    "Field emission", brightness=1.0e8, energy_spread_ev=0.3
)


def _sum_of_squares(d_gauss, d_sphere, d_chromatic, d_diffraction):
    """``d²`` of the quadrature budget, added in one fixed order.

    Written out (not ``sum()``, which CPython ≥ 3.12 compensates for
    floats) so the scalar :meth:`Column.spot_size` and the array scan in
    :meth:`Column.optimal_half_angle` round identically on every Python.
    """
    total = d_gauss * d_gauss + d_sphere * d_sphere
    total = total + d_chromatic * d_chromatic
    return total + d_diffraction * d_diffraction


class Column:
    """A Gaussian electron-optical column.

    Args:
        source: electron source.
        energy_kev: accelerating voltage [kV ≡ keV].
        spherical_aberration_mm: Cs of the final lens [mm].
        chromatic_aberration_mm: Cc of the final lens [mm].
    """

    def __init__(
        self,
        source: ElectronSource = LAB6,
        energy_kev: float = 20.0,
        spherical_aberration_mm: float = 50.0,
        chromatic_aberration_mm: float = 20.0,
    ) -> None:
        if energy_kev <= 0:
            raise ValueError("energy must be positive")
        if spherical_aberration_mm <= 0 or chromatic_aberration_mm <= 0:
            raise ValueError("aberration coefficients must be positive")
        self.source = source
        self.energy_kev = energy_kev
        self.cs_um = spherical_aberration_mm * 1e3
        self.cc_um = chromatic_aberration_mm * 1e3

    # -- spot size budget ----------------------------------------------

    def spot_size(self, current_a: float, half_angle_rad: float) -> float:
        """Total spot diameter [µm] at ``current_a`` and aperture ``α``."""
        if current_a <= 0 or half_angle_rad <= 0:
            raise ValueError("current and half-angle must be positive")
        contributions = self.spot_contributions(current_a, half_angle_rad)
        return math.sqrt(_sum_of_squares(*contributions))

    def spot_contributions(
        self, current_a: float, half_angle_rad: float
    ) -> Tuple[float, float, float, float]:
        """``(d_gauss, d_sphere, d_chromatic, d_diffraction)`` in µm."""
        return self._contributions(current_a, half_angle_rad, half_angle_rad**3)

    def _contributions(self, current_a: float, alpha, alpha_cubed):
        """The four budget terms for one ``α`` or, elementwise, an array.

        ``α³`` is passed in because numpy's array ``pow`` may round
        differently from the scalar one; every other operation here is
        a correctly rounded IEEE elementary, identical in both forms.
        """
        brightness = self.source.brightness_at(self.energy_kev)  # A/cm²/sr
        brightness_um = brightness / 1e8  # A/µm²/sr
        d_gauss = (2.0 / math.pi) * math.sqrt(current_a / brightness_um) / alpha
        d_sphere = 0.5 * self.cs_um * alpha_cubed
        delta_e = self.source.energy_spread_ev / (self.energy_kev * 1e3)
        d_chromatic = self.cc_um * delta_e * alpha
        wavelength_um = relativistic_wavelength_nm(self.energy_kev) * 1e-3
        d_diffraction = 0.61 * wavelength_um / alpha
        return (d_gauss, d_sphere, d_chromatic, d_diffraction)

    def _best_on_grid(self, current_a: float, angles: np.ndarray) -> int:
        """Index of the grid angle with the smallest :meth:`spot_size`.

        One array evaluation instead of ``len(angles)`` scalar calls;
        each element is the float ``spot_size`` returns for that angle
        (``α³`` comes from the scalar ``pow``, point by point).
        """
        cubes = np.array([a**3 for a in angles])
        contributions = self._contributions(current_a, angles, cubes)
        return int(np.argmin(np.sqrt(_sum_of_squares(*contributions))))

    def optimal_half_angle(self, current_a: float) -> float:
        """Aperture α minimizing spot size at ``current_a`` [rad]."""
        if current_a <= 0:
            raise ValueError("current must be positive")
        angles = np.geomspace(1e-4, 5e-2, 400)
        best = self._best_on_grid(current_a, angles)
        # Refine once around the coarse optimum.
        lo = angles[max(best - 1, 0)]
        hi = angles[min(best + 1, len(angles) - 1)]
        fine = np.linspace(lo, hi, 200)
        return float(fine[self._best_on_grid(current_a, fine)])

    def best_spot_size(self, current_a: float) -> float:
        """Minimum achievable spot diameter [µm] at ``current_a``."""
        return self.spot_size(current_a, self.optimal_half_angle(current_a))

    def max_current_for_spot(self, spot_um: float) -> float:
        """Largest current [A] that still fits in a ``spot_um`` spot.

        Solved by bisection on the monotone ``best_spot_size`` curve.

        Raises:
            ValueError: if the spot is unachievable even at zero current.
        """
        if spot_um <= 0:
            raise ValueError("spot size must be positive")
        lo, hi = 1e-13, 1e-4
        if self.best_spot_size(lo) > spot_um:
            raise ValueError(
                f"spot {spot_um} µm unachievable (aberration floor "
                f"{self.best_spot_size(lo):.4f} µm)"
            )
        while self.best_spot_size(hi) < spot_um:
            hi *= 4.0
            if hi > 1.0:
                break
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            if self.best_spot_size(mid) < spot_um:
                lo = mid
            else:
                hi = mid
        return lo

    def current_density(self, current_a: float) -> float:
        """Current density in the focused spot [A/cm²]."""
        d = self.best_spot_size(current_a)
        area_cm2 = math.pi * (d / 2.0) ** 2 / 1e8
        return current_a / area_cm2

    def __repr__(self) -> str:
        return (
            f"Column({self.source.name}, {self.energy_kev:g} kV, "
            f"Cs={self.cs_um / 1e3:g} mm, Cc={self.cc_um / 1e3:g} mm)"
        )
