"""Direct (matrix) dose correction.

Solves the linear system ``K d = E_target`` for the dose vector in one
step, where K is the shot interaction operator.  Mathematically this is
the fixed point the iterative scheme approaches; in practice the solution
can go negative for aggressive geometries and must be clipped, after
which a single re-normalization pass restores the mean level.  The
trade-off against iteration (accuracy vs. O(n³) cost) is part of
experiment F2.

The solver backend follows the operator's ``matrix_mode``: dense uses
``np.linalg.solve`` (lstsq fallback), sparse a CSR ``spsolve`` with an
``lsqr`` fallback, and hybrid ``lsqr`` on the matrix-free operator.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.recipe import MATRIX_MODES, choice, require
from repro.fracture.base import Shot, ShotView, with_doses
from repro.pec.base import ProximityCorrector, shot_sample_points
from repro.pec.operator import build_exposure_operator
from repro.physics.psf import DoubleGaussianPSF


class MatrixDoseCorrector(ProximityCorrector):
    """One-shot linear-solve dose correction.

    Args:
        target: desired absorbed level at every shot sample point.
        sample_mode: ``"centroid"`` or ``"center"``.
        dose_limits: post-solve clipping range.
        regularization: Tikhonov term added to the diagonal; stabilizes
            near-singular systems from heavily overlapping sample points.
        matrix_mode: exposure-operator backend (``"dense"``, ``"sparse"``
            or ``"hybrid"``); see :mod:`repro.pec.operator`.
        grid_cell: hybrid backscatter grid cell [µm] (default ``β/4``).
    """

    def __init__(
        self,
        target: float = 1.0,
        sample_mode: str = "centroid",
        dose_limits: tuple = (0.1, 8.0),
        regularization: float = 0.0,
        matrix_mode: str = "dense",
        grid_cell: Optional[float] = None,
    ) -> None:
        if target <= 0:
            raise ValueError("target level must be positive")
        if regularization < 0:
            raise ValueError("regularization must be non-negative")
        self.target = target
        self.sample_mode = sample_mode
        self.dose_limits = dose_limits
        self.regularization = regularization
        require(choice(MATRIX_MODES), "matrix_mode", matrix_mode)
        self.matrix_mode = matrix_mode
        self.grid_cell = grid_cell

    def correct(
        self, shots: Sequence[Shot], psf: DoubleGaussianPSF
    ) -> ShotView:
        """Solve for doses; clipped to the hardware range."""
        if not shots:
            return with_doses(shots, [])
        points = shot_sample_points(shots, self.sample_mode)
        operator = build_exposure_operator(
            points,
            shots,
            psf,
            mode=self.matrix_mode,
            grid_cell=self.grid_cell,
        )
        n = len(shots)
        rhs = np.full(n, self.target)
        doses = operator.solve(rhs, regularization=self.regularization)
        lo, hi = self.dose_limits
        clipped = np.clip(doses, lo, hi)
        # Re-normalize the mean exposure if clipping bit.
        if not np.array_equal(clipped, doses):
            exposure = operator @ clipped
            mean_level = exposure.mean()
            if mean_level > 0:
                clipped = np.clip(clipped * self.target / mean_level, lo, hi)
        return with_doses(shots, clipped)
