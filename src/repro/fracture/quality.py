"""Fracture-quality metrics (experiment T2's observables)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.geometry.trapezoid import Trapezoid
from repro.geometry.vertex_array import (
    sequential_sum,
    trapezoid_array,
    trapezoid_areas,
)


@dataclass
class FractureReport:
    """Quality summary of a fractured figure list.

    Attributes:
        figure_count: number of machine figures.
        total_area: summed figure area (µm²).
        rectangle_fraction: fraction of figures that are rectangles.
        sliver_count: figures whose minimum dimension is below the
            sliver threshold used during analysis.
        sliver_fraction: ``sliver_count / figure_count``.
        min_dimension: smallest width/height over all figures.
        mean_area: average figure area.
        area_error: |total_area − reference_area| / reference_area, when a
            reference was supplied (else 0).
        rectangle_count: number of figures that are rectangles (the
            integer behind ``rectangle_fraction``, kept so per-shard
            reports merge without float round-trips).
    """

    figure_count: int
    total_area: float
    rectangle_fraction: float
    sliver_count: int
    sliver_fraction: float
    min_dimension: float
    mean_area: float
    area_error: float
    rectangle_count: int = 0

    def row(self) -> str:
        """One formatted table row (see :mod:`repro.analysis.tables`)."""
        return (
            f"{self.figure_count:8d} {self.total_area:12.2f} "
            f"{self.rectangle_fraction:8.2%} {self.sliver_fraction:8.2%} "
            f"{self.min_dimension:10.4f} {self.area_error:10.3e}"
        )


def analyze_figures(
    figures: Sequence[Trapezoid],
    sliver_threshold: float = 0.1,
    reference_area: float | None = None,
) -> FractureReport:
    """Analyze a fractured figure list.

    Args:
        figures: disjoint machine figures.
        sliver_threshold: figures with any dimension below this count as
            slivers (layout units).
        reference_area: expected covered area for the area-error metric.

    ``total_area`` is the figures' areas added left to right
    (:func:`~repro.geometry.vertex_array.sequential_sum`), so it is the
    same float on every interpreter and the number a shard records as
    its own reference area.
    """
    arr = trapezoid_array(figures)
    count = len(arr)
    if count == 0:
        return FractureReport(0, 0.0, 0.0, 0, 0.0, 0.0, 0.0, 0.0)
    yb, yt, xbl, xbr, xtl, xtr = arr.T
    area = trapezoid_areas(arr)
    height = yt - yb
    total = sequential_sum(area)
    rectangle = (np.abs(xbl - xtl) <= 1e-9) & (np.abs(xbr - xtr) <= 1e-9)
    rect_count = int(rectangle.sum())
    # A triangle tip legitimately has zero min edge width; measure the
    # mean width instead so only true slivers are flagged: the larger of
    # the narrower edge and the mean width, capped by the height.
    narrow_edge = np.minimum(xbr - xbl, xtr - xtl)
    dim = np.minimum(np.maximum(narrow_edge, area / height), height)
    sliver_count = int((dim < sliver_threshold).sum())
    error = 0.0
    if reference_area is not None and reference_area > 0:
        error = abs(total - reference_area) / reference_area
    return FractureReport(
        figure_count=count,
        total_area=total,
        rectangle_fraction=rect_count / count,
        sliver_count=sliver_count,
        sliver_fraction=sliver_count / count,
        min_dimension=float(dim.min()),
        mean_area=total / count,
        area_error=error,
        rectangle_count=rect_count,
    )


def merge_reports(
    reports: Sequence[FractureReport],
    reference_area: Optional[float] = None,
) -> FractureReport:
    """Combine per-shard fracture reports into one whole-layout report.

    Counts and areas add; fractions and the mean are recomputed from the
    combined counts; the minimum dimension is the minimum over shards.
    ``area_error`` is recomputed against ``reference_area`` when given
    (per-shard errors cannot be combined without their references).
    Areas add left to right
    (:func:`~repro.geometry.vertex_array.sequential_sum`), like the
    reference a caller sums, so the merge is the same float on every
    interpreter.
    """
    populated = [r for r in reports if r.figure_count > 0]
    if not populated:
        return FractureReport(0, 0.0, 0.0, 0, 0.0, 0.0, 0.0, 0.0)
    count = sum(r.figure_count for r in populated)
    total = sequential_sum([r.total_area for r in populated])
    # Reports from analyze_figures carry the integer count; fall back to
    # the fraction for hand-built reports that left it defaulted.
    rect_count = sum(
        r.rectangle_count
        if r.rectangle_count
        else round(r.rectangle_fraction * r.figure_count)
        for r in populated
    )
    sliver_count = sum(r.sliver_count for r in populated)
    error = 0.0
    if reference_area is not None and reference_area > 0:
        error = abs(total - reference_area) / reference_area
    return FractureReport(
        figure_count=count,
        total_area=total,
        rectangle_fraction=rect_count / count,
        sliver_count=sliver_count,
        sliver_fraction=sliver_count / count,
        min_dimension=min(r.min_dimension for r in populated),
        mean_area=total / count,
        area_error=error,
        rectangle_count=rect_count,
    )
