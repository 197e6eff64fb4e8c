"""Self-consistent iterative dose correction.

The workhorse scheme: iterate

    d_i ← d_i · E_target / E_i(d)

where ``E_i`` is the absorbed level at shot i's sample point under the
current doses.  Because the interaction matrix is strongly diagonally
dominant for shots larger than α, the fixed point converges geometrically;
experiment F2 plots the trace.

``E_target`` defaults to the large-pad level 1.0, making an infinite dense
array a fixed point at dose 1 and boosting isolated features by up to
(1 + η) — the textbook behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.recipe import MATRIX_MODES, choice, require
from repro.fracture.base import Shot, ShotView, shot_rows, with_doses
from repro.pec.base import (
    ProximityCorrector,
    edge_sample_points,
    shot_sample_points,
)
from repro.pec.operator import build_exposure_operator
from repro.physics.psf import DoubleGaussianPSF


@dataclass
class ConvergenceTrace:
    """Convergence record of an iterative correction.

    Attributes:
        max_errors: max |E_i − E_target| / E_target, one entry per
            iteration executed.
        rms_errors: RMS relative exposure error per iteration.
        converged: True if the tolerance was met.
    """

    max_errors: List[float] = field(default_factory=list)
    rms_errors: List[float] = field(default_factory=list)
    converged: bool = False


class IterativeDoseCorrector(ProximityCorrector):
    """Self-consistent dose assignment.

    ``last_trace`` is run bookkeeping, not configuration — the shard
    cache must hash a corrector that has already run identically to a
    fresh one (see :mod:`repro.core.cache`).

    Args:
        target: desired absorbed level at every shot (1.0 = large pad).
        max_iterations: iteration cap.
        tolerance: stop when the max relative exposure error drops below
            this value.
        relaxation: update damping in (0, 1]; 1.0 is the plain scheme.
        sample_mode: ``"centroid"`` / ``"center"`` sample the figure
            interior and drive it to ``target``; ``"edge"`` samples the
            side-edge midpoints and drives them to ``target/2`` (the
            print threshold at the boundary), which removes the uniform
            CD offset interior targeting leaves.
        dose_limits: clip corrected doses to ``(min, max)`` — hardware
            dose range of the writer.
        matrix_mode: exposure-operator backend — ``"dense"`` (the seed
            behaviour, bit-identical), ``"sparse"`` (CSR, same entries,
            memory scales with the interaction count) or ``"hybrid"``
            (exact α term + FFT backscatter grid); see
            :mod:`repro.pec.operator`.
        grid_cell: hybrid backscatter grid cell [µm] (default ``β/4``);
            ignored by the exact backends.
    """

    CACHE_VOLATILE = frozenset({"last_trace"})

    def __init__(
        self,
        target: float = 1.0,
        max_iterations: int = 30,
        tolerance: float = 1e-4,
        relaxation: float = 1.0,
        sample_mode: str = "centroid",
        dose_limits: tuple = (0.1, 8.0),
        matrix_mode: str = "dense",
        grid_cell: Optional[float] = None,
    ) -> None:
        if target <= 0:
            raise ValueError("target level must be positive")
        if not (0.0 < relaxation <= 1.0):
            raise ValueError("relaxation must be in (0, 1]")
        self.target = target
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.relaxation = relaxation
        self.sample_mode = sample_mode
        self.dose_limits = dose_limits
        require(choice(MATRIX_MODES), "matrix_mode", matrix_mode)
        self.matrix_mode = matrix_mode
        self.grid_cell = grid_cell
        #: Trace of the most recent :meth:`correct` call.
        self.last_trace: Optional[ConvergenceTrace] = None

    def correct(
        self, shots: Sequence[Shot], psf: DoubleGaussianPSF
    ) -> ShotView:
        """Return dose-corrected copies of ``shots``."""
        if not shots:
            self.last_trace = ConvergenceTrace(converged=True)
            return with_doses(shots, [])
        if self.sample_mode == "edge":
            points, owners = edge_sample_points(shots)
            target = self.target * 0.5
        else:
            points = shot_sample_points(shots, self.sample_mode)
            owners = np.arange(len(shots))
            target = self.target
        operator = build_exposure_operator(
            points,
            shots,
            psf,
            mode=self.matrix_mode,
            grid_cell=self.grid_cell,
        )
        n = len(shots)
        doses = shot_rows(shots)[:, 6].copy()
        trace = ConvergenceTrace()
        lo, hi = self.dose_limits
        for _ in range(self.max_iterations):
            exposure = operator @ doses
            # Collapse per-point exposure to a per-shot mean.
            sums = np.bincount(owners, weights=exposure, minlength=n)
            counts = np.bincount(owners, minlength=n)
            per_shot = sums / np.maximum(counts, 1)
            error = np.abs(per_shot - target) / target
            trace.max_errors.append(float(error.max()))
            trace.rms_errors.append(float(np.sqrt(np.mean(error**2))))
            if trace.max_errors[-1] < self.tolerance:
                trace.converged = True
                break
            with np.errstate(divide="ignore", invalid="ignore"):
                update = np.where(per_shot > 0, target / per_shot, 1.0)
            doses = doses * update**self.relaxation
            np.clip(doses, lo, hi, out=doses)
        self.last_trace = trace
        return with_doses(shots, doses)
