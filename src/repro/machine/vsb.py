"""Variable-shaped-beam (VSB) pattern generator.

A shaped-beam machine images a variable rectangular aperture onto the
target, exposing an entire figure (up to the maximum shot size) in one
flash.  Throughput is set by the *shot count* rather than the pixel count,
which is why fracture quality (experiment T2) directly buys writing time.
The flash length is dose/current-density; between flashes the shaping
deflectors must settle.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from repro.geometry.scanline import require_positive
from repro.machine.base import Machine, WriteTimeBreakdown
from repro.machine.stage import Stage

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.job import MachineJob


class ShapedBeamWriter(Machine):
    """A variable-shaped-beam writer.

    Args:
        max_shot: maximum shot edge [µm] (must match the fracturer's).
        current_density: aperture-image current density [A/cm²].
        shot_settle: shaping/deflection settling per shot [s].
        stage: stop-and-go stage.
        field_size: deflection field size [µm].
        field_calibration: registration time per field [s].
    """

    name = "shaped-beam"

    def __init__(
        self,
        max_shot: float = 2.0,
        current_density: float = 20.0,
        shot_settle: float = 1.0e-6,
        stage: Optional[Stage] = None,
        field_size: float = 2000.0,
        field_calibration: float = 0.2,
    ) -> None:
        require_positive("shot size", max_shot)
        require_positive("current density", current_density)
        self.max_shot = max_shot
        self.current_density = current_density
        self.shot_settle = shot_settle
        self.stage = stage if stage is not None else Stage()
        self.field_size = field_size
        self.field_calibration = field_calibration

    def beam_current(self) -> float:
        """Current through a full-size shot [A]."""
        area_cm2 = (self.max_shot**2) / 1e8
        return self.current_density * area_cm2

    def flash_time(self, dose_uc_per_cm2: float) -> float:
        """Flash duration for one shot at ``dose`` [s] (size-independent:
        both charge and current scale with shot area)."""
        return dose_uc_per_cm2 * 1e-6 / self.current_density

    def write_time(self, job: "MachineJob") -> WriteTimeBreakdown:
        """VSB write time: shot flashes plus per-shot settling."""
        flash = self.flash_time(job.base_dose)
        # Dose-corrected shots flash proportionally longer.
        total_flash = flash * job.dose_weighted_count()
        overhead = job.figure_count() * self.shot_settle

        x0, y0, x1, y1 = job.bounding_box
        cols = max(1, math.ceil((x1 - x0) / self.field_size))
        rows = max(1, math.ceil((y1 - y0) / self.field_size))
        stage_time = self.stage.serpentine_time(self.field_size, cols, rows)
        calibration = cols * rows * self.field_calibration

        return WriteTimeBreakdown(
            exposure=total_flash,
            figure_overhead=overhead,
            stage=stage_time,
            calibration=calibration,
        )

    def __repr__(self) -> str:
        return (
            f"ShapedBeamWriter(max_shot={self.max_shot:g} µm, "
            f"J={self.current_density:g} A/cm²)"
        )
