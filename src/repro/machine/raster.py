"""Raster-scan pattern generator (EBES/MEBES class).

The raster architecture scans *every* address in the chip at a fixed pixel
rate while the stage moves continuously; the beam is simply blanked over
unexposed addresses.  Its signature property — the headline of the T1
comparison — is that writing time is **independent of pattern density**::

    T ≈ N_addresses / f_pixel + stripe turnarounds

The achievable pixel rate is limited by two couplings modelled here:

* *Current*: each address receives ``I / f`` coulombs, so delivering dose
  D at address size a needs ``I = D · f · a²``.  The column cannot focus
  arbitrary current into a spot of size a, capping f.
* *Data*: the blanker needs one bit per address; run-length-encoded
  figure data must sustain that rate (see :mod:`repro.machine.datapath`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from repro.geometry.scanline import require_positive
from repro.machine.base import Machine, WriteTimeBreakdown
from repro.machine.column import Column, LAB6
from repro.machine.stage import Stage

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.job import MachineJob


class RasterScanWriter(Machine):
    """An EBES-class raster-scan writer.

    Args:
        address_unit: address (pixel) size [µm].
        pixel_rate: nominal blanking rate [addresses/s].
        stripe_addresses: minor-scan span in addresses (stripe height).
        column: electron-optical column (for the current limit).
        stage: continuously moving stage.
        calibration_time: per-chip setup/registration time [s].
    """

    name = "raster"

    def __init__(
        self,
        address_unit: float = 0.5,
        pixel_rate: float = 2.0e7,
        stripe_addresses: int = 1024,
        column: Optional[Column] = None,
        stage: Optional[Stage] = None,
        calibration_time: float = 10.0,
    ) -> None:
        require_positive("address unit", address_unit)
        require_positive("pixel rate", pixel_rate)
        if stripe_addresses < 1:
            raise ValueError("stripe must be at least one address")
        self.address_unit = address_unit
        self.pixel_rate = pixel_rate
        self.stripe_addresses = stripe_addresses
        self.column = column if column is not None else Column(LAB6)
        self.stage = stage if stage is not None else Stage(continuous=True)
        self.calibration_time = calibration_time

    # -- beam/dose coupling -------------------------------------------------

    def beam_current(self) -> float:
        """Largest current the column focuses into one address [A]."""
        return self.column.max_current_for_spot(self.address_unit)

    def required_current(self, dose_uc_per_cm2: float, rate: float) -> float:
        """Current needed to deliver ``dose`` at ``rate`` [A]."""
        dose_c_per_um2 = dose_uc_per_cm2 * 1e-6 / 1e8
        return dose_c_per_um2 * rate * self.address_unit**2

    def effective_pixel_rate(self, dose_uc_per_cm2: float) -> float:
        """Pixel rate after the current limit is applied [addresses/s].

        The machine runs at its nominal rate unless the dose demands more
        current than the column can focus, in which case the rate drops
        proportionally — the resist-sensitivity ceiling of experiment F5.
        """
        available = self.beam_current()
        needed = self.required_current(dose_uc_per_cm2, self.pixel_rate)
        if needed <= available:
            return self.pixel_rate
        return self.pixel_rate * available / needed

    # -- write time -----------------------------------------------------------

    def write_time(self, job: "MachineJob") -> WriteTimeBreakdown:
        """Raster write time: all addresses scanned, density-independent."""
        x0, y0, x1, y1 = job.bounding_box
        width = max(x1 - x0, self.address_unit)
        height = max(y1 - y0, self.address_unit)
        cols = math.ceil(width / self.address_unit)
        rows = math.ceil(height / self.address_unit)
        addresses = cols * rows

        rate = self.effective_pixel_rate(job.base_dose)
        exposure = addresses / rate

        stripe_height = self.stripe_addresses * self.address_unit
        stripes = math.ceil(height / stripe_height)
        # Continuous stage: one pass per stripe plus a constant-velocity
        # retrace; modelled as one stripe-length move per stripe.
        stage_time = stripes * self.stage.move_time(width) * 0.05

        return WriteTimeBreakdown(
            exposure=exposure,
            figure_overhead=0.0,
            stage=stage_time,
            calibration=self.calibration_time,
        )

    def __repr__(self) -> str:
        return (
            f"RasterScanWriter(a={self.address_unit:g} µm, "
            f"rate={self.pixel_rate:g}/s, stripe={self.stripe_addresses})"
        )
