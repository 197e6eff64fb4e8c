"""Machine interface and the write-time breakdown record."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.job import MachineJob


@dataclass
class WriteTimeBreakdown:
    """Where the writing time of a job goes.

    All values in seconds.

    Attributes:
        exposure: beam-on time (dwell/flash time summed over the pattern).
        figure_overhead: per-figure settling/setup time.
        stage: stage motion and settling.
        calibration: field registration and beam calibration.
        data_limited_extra: extra time spent stalled on the pattern data
            channel (0 when the datapath keeps up with the beam).
    """

    exposure: float = 0.0
    figure_overhead: float = 0.0
    stage: float = 0.0
    calibration: float = 0.0
    data_limited_extra: float = 0.0

    @property
    def total(self) -> float:
        """Total write time in seconds."""
        return (
            self.exposure
            + self.figure_overhead
            + self.stage
            + self.calibration
            + self.data_limited_extra
        )

    def __add__(self, other: "WriteTimeBreakdown") -> "WriteTimeBreakdown":
        return WriteTimeBreakdown(
            self.exposure + other.exposure,
            self.figure_overhead + other.figure_overhead,
            self.stage + other.stage,
            self.calibration + other.calibration,
            self.data_limited_extra + other.data_limited_extra,
        )


class Machine(abc.ABC):
    """A pattern generator: estimates writing time for a machine job."""

    #: Human-readable architecture name.
    name: str = "machine"

    @abc.abstractmethod
    def write_time(self, job: "MachineJob") -> WriteTimeBreakdown:
        """Estimate the time to write ``job`` on this machine."""

    @abc.abstractmethod
    def beam_current(self) -> float:
        """Beam current delivered to the pattern [A]."""

    def dwell_time_per_area(self, dose_uc_per_cm2: float) -> float:
        """Seconds of beam-on time per µm² at the given dose.

        ``t = D · A / I`` with D in µC/cm², A in µm², I in A.
        """
        current = self.beam_current()
        if current <= 0:
            raise ValueError("beam current must be positive")
        dose_c_per_um2 = dose_uc_per_cm2 * 1e-6 / 1e8  # µC/cm² -> C/µm²
        return dose_c_per_um2 / current
