"""Vector-scan Gaussian-beam pattern generator.

A vector machine deflects the beam only over pattern figures, so exposure
time is proportional to *exposed area* rather than chip area.  The price
is per-figure deflection settling and stop-and-go stage moves between
fields — the overheads that hand the dense-pattern regime to the raster
machine in experiment T1.
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


class VectorScanWriter(Machine):
    """A vector-scan Gaussian-beam writer.

    Args:
        spot_size: beam spot (and address) size [µm].
        column: electron-optical column; sets the available current.
        stage: stop-and-go stage.
        field_size: deflection field size [µm].
        figure_settle: deflection settling before each figure [s].
        field_calibration: registration time per field [s].
        current_derating: fraction of the column's limit actually used
            (operating margin for beam stability).
    """

    name = "vector"

    def __init__(
        self,
        spot_size: float = 0.25,
        column: Optional[Column] = None,
        stage: Optional[Stage] = None,
        field_size: float = 2000.0,
        figure_settle: float = 2.0e-6,
        field_calibration: float = 0.2,
        current_derating: float = 0.5,
    ) -> None:
        require_positive("spot size", spot_size)
        require_positive("field size", field_size)
        if not (0.0 < current_derating <= 1.0):
            raise ValueError("current derating must be in (0, 1]")
        self.spot_size = spot_size
        self.column = column if column is not None else Column(LAB6)
        self.stage = stage if stage is not None else Stage()
        self.field_size = field_size
        self.figure_settle = figure_settle
        self.field_calibration = field_calibration
        self.current_derating = current_derating

    def beam_current(self) -> float:
        """Operating beam current [A]."""
        return self.column.max_current_for_spot(self.spot_size) * self.current_derating

    def write_time(self, job: "MachineJob") -> WriteTimeBreakdown:
        """Vector write time: area-proportional exposure plus overheads."""
        area = job.pattern_area()
        dwell_per_area = self.dwell_time_per_area(job.base_dose)
        # Dose-weighted: corrected shots at dose k take k× the time.
        weighted_area = job.dose_weighted_area()
        exposure = weighted_area * dwell_per_area

        figure_overhead = job.figure_count() * self.figure_settle

        x0, y0, x1, y1 = job.bounding_box
        cols = max(1, math.ceil((x1 - x0) / self.field_size))
        rows = max(1, math.ceil((y1 - y0) / self.field_size))
        stage_time = self.stage.serpentine_time(self.field_size, cols, rows)
        calibration = cols * rows * self.field_calibration

        return WriteTimeBreakdown(
            exposure=exposure,
            figure_overhead=figure_overhead,
            stage=stage_time,
            calibration=calibration,
        )

    def __repr__(self) -> str:
        return (
            f"VectorScanWriter(spot={self.spot_size:g} µm, "
            f"field={self.field_size:g} µm)"
        )
