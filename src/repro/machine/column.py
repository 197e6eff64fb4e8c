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
from typing import Callable, Dict, Tuple

import numpy as np

from repro.geometry.scanline import require_positive
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
        require_positive("energy", energy_kev)
        return self.brightness * energy_kev / 20.0


#: Thermionic tungsten hairpin (the 1960s baseline).
TUNGSTEN = ElectronSource("W hairpin", brightness=1.0e5, energy_spread_ev=2.5)

#: Lanthanum-hexaboride thermionic gun (EBES-class machines).
LAB6 = ElectronSource("LaB6", brightness=1.0e6, energy_spread_ev=1.5)

#: Cold field emission (the emerging option in 1979).
FIELD_EMISSION = ElectronSource(
    "Field emission", brightness=1.0e8, energy_spread_ev=0.3
)


def _add_squares(gauss_sq, sphere_sq, chromatic_sq, diffraction_sq):
    """``d²`` of the quadrature budget from its four squares, added in
    one fixed order.

    One left-to-right expression (not ``sum()``, which CPython ≥ 3.12
    compensates for floats) so the scalar :meth:`Column.spot_size` and
    the array :class:`_AngleScan` round identically on every Python.
    """
    return gauss_sq + sphere_sq + chromatic_sq + diffraction_sq


class _AngleScan:
    """One grid of half-angles with the budget's current-independent
    squares computed up front.

    Only ``d_gauss = k / α`` depends on the current (through ``k``, see
    :meth:`Column._gauss_coefficient`), so scanning the grid at another
    current costs one divide, the adds of :func:`_add_squares`, a
    ``sqrt`` and an ``argmin``.  Each element is the float the scalar
    :meth:`Column.spot_size` returns for that angle: ``α³`` comes from
    the scalar ``pow``, point by point, and every other operation is a
    correctly rounded IEEE elementary, identical in both forms.
    """

    def __init__(self, column: "Column", angles: np.ndarray) -> None:
        self.angles = angles
        cubes = np.array([a**3 for a in angles])
        self.fixed = [t * t for t in column._contributions(angles, cubes)]

    def best(self, gauss_coefficient: float) -> int:
        """Index of the grid angle with the smallest spot."""
        d_gauss = gauss_coefficient / self.angles
        return int(np.sqrt(_add_squares(d_gauss * d_gauss, *self.fixed)).argmin())


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
        require_positive("energy", energy_kev)
        require_positive("spherical aberration", spherical_aberration_mm)
        require_positive("chromatic aberration", chromatic_aberration_mm)
        self.source = source
        self.energy_kev = energy_kev
        self.cs_um = spherical_aberration_mm * 1e3
        self.cc_um = chromatic_aberration_mm * 1e3

    # -- spot size budget ----------------------------------------------

    def spot_size(self, current_a: float, half_angle_rad: float) -> float:
        """Total spot diameter [µm] at ``current_a`` and aperture ``α``."""
        require_positive("current", current_a)
        require_positive("half-angle", half_angle_rad)
        contributions = self.spot_contributions(current_a, half_angle_rad)
        return math.sqrt(_add_squares(*(d * d for d in contributions)))

    def spot_contributions(
        self, current_a: float, half_angle_rad: float
    ) -> Tuple[float, float, float, float]:
        """``(d_gauss, d_sphere, d_chromatic, d_diffraction)`` in µm."""
        d_gauss = self._gauss_coefficient(current_a) / half_angle_rad
        return (d_gauss, *self._contributions(half_angle_rad, half_angle_rad**3))

    def _gauss_coefficient(self, current_a: float) -> float:
        """``k = d_gauss · α``: the one term of the budget that depends
        on the current."""
        # A/cm²/sr → A/µm²/sr
        brightness_um = self.source.brightness_at(self.energy_kev) / 1e8
        return (2.0 / math.pi) * math.sqrt(current_a / brightness_um)

    def _contributions(self, alpha, alpha_cubed):
        """``(d_sphere, d_chromatic, d_diffraction)`` for one ``α`` or,
        elementwise, an array: the terms the current does not change.

        ``α³`` is passed in because numpy's array ``pow`` may round
        differently from the scalar one.
        """
        d_sphere = 0.5 * self.cs_um * alpha_cubed
        delta_e = self.source.energy_spread_ev / (self.energy_kev * 1e3)
        d_chromatic = self.cc_um * delta_e * alpha
        wavelength_um = relativistic_wavelength_nm(self.energy_kev) * 1e-3
        d_diffraction = 0.61 * wavelength_um / alpha
        return (d_sphere, d_chromatic, d_diffraction)

    def _angle_search(self) -> Callable[[float], float]:
        """A fresh ``current → optimal α`` for one search over currents.

        The coarse grid's scan is built here and a fine grid's the first
        time its coarse index comes up (the fine grid is a function of
        that index alone), so a bisection over 62 currents pays for the
        fixed terms of about ten grids instead of 124.  Both live only
        as long as the returned function: invariants hoisted out of a
        loop, not a cache.
        """
        coarse = _AngleScan(self, np.geomspace(1e-4, 5e-2, 400))
        fine: Dict[int, _AngleScan] = {}

        def optimal_half_angle(current_a: float) -> float:
            k = self._gauss_coefficient(current_a)
            best = coarse.best(k)
            if best not in fine:
                # Refine once around the coarse optimum.
                lo = coarse.angles[max(best - 1, 0)]
                hi = coarse.angles[min(best + 1, len(coarse.angles) - 1)]
                fine[best] = _AngleScan(self, np.linspace(lo, hi, 200))
            scan = fine[best]
            return float(scan.angles[scan.best(k)])

        return optimal_half_angle

    def optimal_half_angle(self, current_a: float) -> float:
        """Aperture α minimizing spot size at ``current_a`` [rad]."""
        require_positive("current", current_a)
        return self._angle_search()(current_a)

    def best_spot_size(self, current_a: float) -> float:
        """Minimum achievable spot diameter [µm] at ``current_a``."""
        return self.spot_size(current_a, self.optimal_half_angle(current_a))

    def max_current_for_spot(self, spot_um: float) -> float:
        """Largest current [A] that still fits in a ``spot_um`` spot.

        Solved by bisection on the monotone ``best_spot_size`` curve,
        every step through one :meth:`_angle_search`.

        Raises:
            ValueError: if the spot is unachievable even at zero current.
        """
        require_positive("spot size", spot_um)
        optimal = self._angle_search()

        def best_spot_size(current_a: float) -> float:
            return self.spot_size(current_a, optimal(current_a))

        lo, hi = 1e-13, 1e-4
        floor = best_spot_size(lo)
        if floor > spot_um:
            raise ValueError(
                f"spot {spot_um} µm unachievable (aberration floor {floor:.4f} µm)"
            )
        while best_spot_size(hi) < spot_um:
            hi *= 4.0
            if hi > 1.0:
                break
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            if best_spot_size(mid) < spot_um:
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
