"""Machine job: the fractured, dose-assigned pattern ready to write."""

from __future__ import annotations

import hashlib
import itertools
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.recipe import POSITIVE, require
from repro.fracture.base import Shot, ShotView, row_bytes, shot_rows
from repro.geometry.vertex_array import (
    sequential_sum,
    trapezoid_areas,
    trapezoid_bounds,
)


def _portable_digest(values: Iterable[float], sig_digits: int) -> str:
    """SHA-256 over ``values`` rendered to ``sig_digits`` significant
    digits, comma-terminated."""
    fmt = f"%.{sig_digits}e,"
    return hashlib.sha256(
        "".join(fmt % value for value in values).encode()
    ).hexdigest()


class ShotFold:
    """Everything a job reports about its shots, folded block by block.

    The one place the exact digest packing, the bounding box, the
    exposure sums and the dose range are computed: a resident
    :class:`MachineJob` folds its ``(N, 7)`` shot block once, the
    out-of-core pipeline calls :meth:`add_rows` with each shard's block
    as it streams past, and both get bit-identical answers because the
    hash sees the same bytes in the same order and every sum is
    continued strictly left to right
    (:func:`~repro.geometry.vertex_array.sequential_sum`) over the same
    shot order, however the shots are cut into blocks.

    Attributes:
        base_dose: physical dose [µC/cm²] the job is built with.
        count: shots folded so far.
        pattern_area: Σ area_i [µm²].
        dose_weighted_area: Σ dose_i · area_i.
        dose_weighted_count: Σ dose_i.
        bounding_box: ``(x0, y0, x1, y1)`` of the shots, all zero before
            the first.
        dose_range: ``(min, max)`` relative dose, zero before the first.
    """

    __slots__ = (
        "base_dose",
        "count",
        "pattern_area",
        "dose_weighted_area",
        "dose_weighted_count",
        "bounding_box",
        "dose_range",
        "_hash",
    )

    def __init__(self, base_dose: float = 1.0) -> None:
        self.base_dose = float(base_dose)
        self.count = 0
        self.pattern_area = 0.0
        self.dose_weighted_area = 0.0
        self.dose_weighted_count = 0.0
        self.bounding_box: Tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
        self.dose_range: Tuple[float, float] = (0.0, 0.0)
        self._hash = hashlib.sha256(
            row_bytes(np.array([self.base_dose] + [0.0] * 6))
        )

    def add_rows(self, rows: np.ndarray) -> None:
        """Fold one ``(N, 7)`` block (call in the job's shot order)."""
        if not len(rows):
            return
        self._hash.update(row_bytes(rows))
        x0, y0, x1, y1 = trapezoid_bounds(rows)
        dose = rows[:, 6]
        box = (x0.min(), y0.min(), x1.max(), y1.max())
        span = (dose.min(), dose.max())
        if self.count:
            bx0, by0, bx1, by1 = self.bounding_box
            box = (
                min(bx0, box[0]),
                min(by0, box[1]),
                max(bx1, box[2]),
                max(by1, box[3]),
            )
            low, high = self.dose_range
            span = (min(low, span[0]), max(high, span[1]))
        self.bounding_box = tuple(map(float, box))
        self.dose_range = tuple(map(float, span))
        self.count += len(rows)
        area = trapezoid_areas(rows)
        self.pattern_area = sequential_sum(area, self.pattern_area)
        self.dose_weighted_area = sequential_sum(
            dose * area, self.dose_weighted_area
        )
        self.dose_weighted_count = sequential_sum(
            dose, self.dose_weighted_count
        )

    def digest(self) -> str:
        """SHA-256 over the base dose and every shot folded so far."""
        return self._hash.hexdigest()

    def job(
        self, name: str = "job", blocks: Optional[List[np.ndarray]] = None
    ) -> "MachineJob":
        """The job of the folded shots: ``blocks`` — the blocks folded,
        in order — are kept as its shots (its :attr:`~MachineJob.
        row_blocks`, so every consumer works one block at a time);
        without them it is the aggregate job (no resident shot list)."""
        shots = [] if blocks is None else ShotView.concat(blocks)
        job = MachineJob(
            shots, base_dose=self.base_dose, name=name, bounding_box=self.bounding_box
        )
        job._fold = self
        job._blocks = blocks
        return job


class MachineJob:
    """A writable job: shots plus exposure bookkeeping.

    Attributes:
        name: job identifier.
        shots: fractured, dose-assigned figures — a read-only
            :class:`~repro.fracture.base.ShotView` over the job's block
            (a plain shot list is stacked into one on construction).
            Empty on an aggregate job (:meth:`synthetic`, a streamed
            run's fold), whose ``len`` is still its figure count.
        base_dose: physical dose [µC/cm²] that relative dose 1.0 means.
        bounding_box: chip extent ``(x0, y0, x1, y1)`` [µm]; defaults to
            the shot bounding box.
    """

    __slots__ = ("name", "shots", "base_dose", "bounding_box", "_fold", "_blocks")

    def __init__(
        self,
        shots: Sequence[Shot],
        base_dose: float = 1.0,
        name: str = "job",
        bounding_box: Optional[Tuple[float, float, float, float]] = None,
    ) -> None:
        require(POSITIVE, "base_dose", base_dose)
        self.shots = ShotView(shot_rows(shots))
        self.base_dose = float(base_dose)
        self.name = name
        self._fold: Optional[ShotFold] = None
        self._blocks: Optional[List[np.ndarray]] = None
        if bounding_box is None:
            bounding_box = self._folded().bounding_box
        self.bounding_box = bounding_box

    @property
    def row_blocks(self) -> List[np.ndarray]:
        """The shots as ``(N, 7)`` blocks
        (:func:`~repro.fracture.base.shot_rows`) that concatenate to the
        shot list in order — what the fold, the digests and the job-file
        writer read: the shots' own block, unless the job was built by
        :meth:`ShotFold.job` from a run's per-shard blocks."""
        if self._blocks is None:
            self._blocks = [self.shots.rows]
        return self._blocks

    def _folded(self) -> ShotFold:
        """The job's :class:`ShotFold` — its shot blocks folded on first
        use, or the fold an aggregate job was built from."""
        if self._fold is None:
            self._fold = ShotFold(self.base_dose)
            for block in self.row_blocks:
                self._fold.add_rows(block)
        return self._fold

    def _values(self, columns=slice(None)) -> Iterable[float]:
        """Every value of the given block columns, in shot order."""
        return itertools.chain.from_iterable(
            block[:, columns].ravel().tolist() for block in self.row_blocks
        )

    @classmethod
    def synthetic(
        cls,
        figure_count: int,
        pattern_area: float,
        bounding_box: Tuple[float, float, float, float],
        base_dose: float = 1.0,
        mean_dose: float = 1.0,
        name: str = "synthetic",
        dose_weighted_area: Optional[float] = None,
        dose_weighted_count: Optional[float] = None,
    ) -> "MachineJob":
        """A job described only by its aggregates (no explicit shot list).

        Machine timing models need only figure count, areas and doses, so
        throughput studies can model multi-million-figure chips without
        materializing the shots.  ``dose_weighted_area`` /
        ``dose_weighted_count`` override the ``mean_dose``
        approximation with exact sums.
        """
        if figure_count < 0 or pattern_area < 0:
            raise ValueError("figure count and area must be non-negative")
        fold = ShotFold(base_dose)
        fold.count = int(figure_count)
        fold.pattern_area = float(pattern_area)
        fold.dose_weighted_area = (
            fold.pattern_area * mean_dose
            if dose_weighted_area is None
            else float(dose_weighted_area)
        )
        fold.dose_weighted_count = (
            float(figure_count) * mean_dose
            if dose_weighted_count is None
            else float(dose_weighted_count)
        )
        fold.bounding_box = bounding_box
        return fold.job(name)

    # -- accounting -------------------------------------------------------

    def figure_count(self) -> int:
        """Number of machine figures."""
        return self._folded().count

    def pattern_area(self) -> float:
        """Exposed pattern area [µm²] (shots are disjoint by contract)."""
        return self._folded().pattern_area

    def dose_weighted_area(self) -> float:
        """Σ dose_i · area_i — proportional to beam-on time on a vector
        machine."""
        return self._folded().dose_weighted_area

    def dose_weighted_count(self) -> float:
        """Σ dose_i — proportional to total flash time on a VSB machine."""
        return self._folded().dose_weighted_count

    def chip_area(self) -> float:
        """Bounding-box area [µm²]."""
        x0, y0, x1, y1 = self.bounding_box
        return max(0.0, (x1 - x0)) * max(0.0, (y1 - y0))

    def pattern_density(self) -> float:
        """Exposed fraction of the chip bounding box."""
        chip = self.chip_area()
        return self.pattern_area() / chip if chip > 0 else 0.0

    # -- digests ----------------------------------------------------------

    def digest(self) -> str:
        """Exact SHA-256 over the shot list and base dose.

        Every coordinate and dose enters as its IEEE-754 double, so two
        jobs share a digest iff they are shot-for-shot bit-identical —
        the determinism oracle for the sharded/cached execution paths.

        Jobs assembled by the out-of-core pipeline carry the digest
        folded over the same packing while the shots streamed past
        (:class:`ShotFold`) — identical bytes hashed in identical
        order, never an approximation.
        """
        return self._folded().digest()

    def portable_digest(self, sig_digits: int = 9) -> str:
        """Digest with values canonicalized to ``sig_digits`` significant
        digits.

        Library-version drift in transcendental routines (the PEC erf
        kernels) can nudge doses in the last few ulps; rounding before
        hashing makes the digest stable enough to commit as a golden
        reference while still pinning geometry and dose maps tightly.
        """
        return _portable_digest(
            itertools.chain([self.base_dose], self._values()), sig_digits
        )

    def dose_digest(self, sig_digits: int = 9) -> str:
        """Portable digest over the dose map alone (shot-order doses)."""
        return _portable_digest(self._values(6), sig_digits)

    def dose_range(self) -> Tuple[float, float]:
        """(min, max) relative dose over all shots."""
        return self._folded().dose_range

    def __len__(self) -> int:
        return self.figure_count()

    def __repr__(self) -> str:
        return (
            f"MachineJob({self.name!r}, figures={self.figure_count()}, "
            f"density={self.pattern_density():.1%}, "
            f"dose={self.base_dose:g} µC/cm²)"
        )
