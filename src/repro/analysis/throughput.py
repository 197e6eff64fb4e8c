"""Wafer-level throughput: wafers (or masks) per hour.

Experiment F5 reproduces the tutorial-era throughput argument: raster
machines are chip-area limited but resist-insensitive up to the current
ceiling; vector/VSB machines win on sparse levels and fast resists but
collapse on dense ones.  The model composes a per-chip write time with
wafer-level overheads (load, global alignment, stage stepping); the F5
bench sweeps resist sensitivity and beam current through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.job import MachineJob
from repro.machine.base import Machine
from repro.machine.datapath import ChannelCheck


@dataclass(frozen=True)
class ThroughputReport:
    """Wafer throughput of one machine/process operating point.

    Attributes:
        machine: machine name.
        chips_per_wafer: exposure sites per wafer.
        chip_time: seconds per chip.
        wafer_time: seconds per wafer including overheads.
        wafers_per_hour: the headline number.
        exposure_fraction: fraction of wafer time spent with beam on.
    """

    machine: str
    chips_per_wafer: int
    chip_time: float
    wafer_time: float
    wafers_per_hour: float
    exposure_fraction: float


class ThroughputModel:
    """Wafer-level composition of per-chip write times.

    Args:
        wafer_diameter: wafer diameter [µm] (default 3-inch, the 1979
            standard).
        load_time: wafer exchange and pumpdown [s].
        global_alignment_time: per-wafer registration [s].
        edge_exclusion: unusable rim [µm].
    """

    def __init__(
        self,
        wafer_diameter: float = 76_200.0,
        load_time: float = 60.0,
        global_alignment_time: float = 30.0,
        edge_exclusion: float = 3_000.0,
    ) -> None:
        if wafer_diameter <= 0:
            raise ValueError("wafer diameter must be positive")
        self.wafer_diameter = wafer_diameter
        self.load_time = load_time
        self.global_alignment_time = global_alignment_time
        self.edge_exclusion = edge_exclusion

    def chips_per_wafer(self, chip_width: float, chip_height: float) -> int:
        """Usable exposure sites on the wafer (area-packing estimate)."""
        if chip_width <= 0 or chip_height <= 0:
            raise ValueError("chip dimensions must be positive")
        radius = self.wafer_diameter / 2.0 - self.edge_exclusion
        usable_area = math.pi * radius * radius
        # 90 % packing efficiency for rectangular sites in a circle.
        return max(1, int(0.9 * usable_area / (chip_width * chip_height)))

    def report(
        self,
        machine: Machine,
        job: MachineJob,
        chips: Optional[int] = None,
        channel: Optional[ChannelCheck] = None,
    ) -> ThroughputReport:
        """Wafer throughput writing ``job`` at every site with ``machine``.

        Args:
            channel: optional data-channel check from an exported
                machine program (:mod:`repro.machine.program`); when the
                channel is the bottleneck, exposure stretches by its
                slowdown factor on every chip.
        """
        breakdown = machine.write_time(job)
        if channel is not None and channel.limited:
            breakdown.data_limited_extra += breakdown.exposure * (
                channel.slowdown - 1.0
            )
        chip_time = breakdown.total
        x0, y0, x1, y1 = job.bounding_box
        if chips is None:
            chips = self.chips_per_wafer(max(x1 - x0, 1.0), max(y1 - y0, 1.0))
        wafer_time = (
            self.load_time + self.global_alignment_time + chips * chip_time
        )
        return ThroughputReport(
            machine=machine.name,
            chips_per_wafer=chips,
            chip_time=chip_time,
            wafer_time=wafer_time,
            wafers_per_hour=3600.0 / wafer_time,
            exposure_fraction=chips * breakdown.exposure / wafer_time,
        )
