"""Pattern datapath: record sizes, data volumes and rate ceilings.

The 1979 tutorial's data-preparation argument is quantitative: a flat
machine format explodes relative to the hierarchical source, and the
channel feeding the blanker can become the throughput limit.  This module
accounts for both (experiments T3 and F5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.geometry.trapezoid import Trapezoid


#: Bytes per fractured figure record: 4 coordinates + height + dose,
#: 16-bit each, matching compact machine formats of the era.
BYTES_PER_FIGURE = 12


@dataclass(frozen=True)
class DataVolumeReport:
    """Pattern-data volume accounting for one job.

    Attributes:
        figure_count: machine figures in the flat stream.
        figure_bytes: flat figure-stream size [bytes].
        source_bytes: hierarchical source file size [bytes] (e.g. GDSII).
        expansion_ratio: figure_bytes / source_bytes.
        bitmap_bytes: full bitmap size at the address unit [bytes]
            (1 bit per address) — the naive upper bound.
        rle_bytes: run-length-encoded bitmap estimate [bytes].
    """

    figure_count: int
    figure_bytes: int
    source_bytes: int
    expansion_ratio: float
    bitmap_bytes: int
    rle_bytes: int


def figure_stream_bytes(
    figures: Sequence[Trapezoid], bytes_per_figure: int = BYTES_PER_FIGURE
) -> int:
    """Size of the flat machine figure stream [bytes]."""
    return len(figures) * bytes_per_figure


def bitmap_bytes(width: float, height: float, address_unit: float) -> int:
    """Size of a 1-bit-per-address bitmap of the chip [bytes]."""
    if address_unit <= 0:
        raise ValueError("address unit must be positive")
    cols = math.ceil(width / address_unit)
    rows = math.ceil(height / address_unit)
    return (cols * rows + 7) // 8


def rle_bytes_estimate(
    figures: Sequence[Trapezoid], height: float, address_unit: float
) -> int:
    """Run-length-encoded bitmap size estimate [bytes].

    Each scan line crossing a figure produces one (start, length) run of
    two 16-bit words; empty scan lines cost one flag word.  This is the
    encoding EBES-class machines streamed to the blanker.
    """
    if address_unit <= 0:
        raise ValueError("address unit must be positive")
    runs = 0
    for figure in figures:
        runs += max(1, math.ceil(figure.height / address_unit))
    lines = math.ceil(height / address_unit)
    return runs * 4 + lines * 2


def data_volume_report(
    figures: Sequence[Trapezoid],
    source_bytes: int,
    width: float,
    height: float,
    address_unit: float,
) -> DataVolumeReport:
    """Full data-volume accounting for one fractured job."""
    fig_bytes = figure_stream_bytes(figures)
    return DataVolumeReport(
        figure_count=len(figures),
        figure_bytes=fig_bytes,
        source_bytes=source_bytes,
        expansion_ratio=fig_bytes / source_bytes if source_bytes else float("inf"),
        bitmap_bytes=bitmap_bytes(width, height, address_unit),
        rle_bytes=rle_bytes_estimate(figures, height, address_unit),
    )


@dataclass(frozen=True)
class ChannelCheck:
    """Whether a data channel can sustain a writer's figure/pixel rate.

    Attributes:
        required_rate: bytes/s the writer consumes at full speed.
        channel_rate: bytes/s the channel provides.
        limited: True when the channel is the bottleneck.
        slowdown: factor by which writing stretches when limited (≥ 1).
    """

    required_rate: float
    channel_rate: float

    @property
    def limited(self) -> bool:
        return self.required_rate > self.channel_rate

    @property
    def slowdown(self) -> float:
        if self.channel_rate <= 0:
            return float("inf")
        return max(1.0, self.required_rate / self.channel_rate)


def raster_channel_check(
    pixel_rate: float, rle_bytes_total: int, write_time: float,
    channel_rate: float = 5.0e6,
) -> ChannelCheck:
    """Check an RLE stream against a raster writer's consumption.

    Args:
        pixel_rate: addresses/s being scanned.
        rle_bytes_total: total encoded pattern size.
        write_time: seconds over which the stream must be delivered.
        channel_rate: channel bandwidth [bytes/s] (5 MB/s ≈ a fast 1979
            disk channel).
    """
    if write_time <= 0:
        raise ValueError("write time must be positive")
    required = rle_bytes_total / write_time
    return ChannelCheck(required_rate=required, channel_rate=channel_rate)


def vector_channel_check(
    figures_per_second: float,
    channel_rate: float = 5.0e6,
    bytes_per_figure: int = BYTES_PER_FIGURE,
) -> ChannelCheck:
    """Check a figure stream against a vector/VSB writer's shot rate."""
    required = figures_per_second * bytes_per_figure
    return ChannelCheck(required_rate=required, channel_rate=channel_rate)
