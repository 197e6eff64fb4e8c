"""Proximity-effect correction (PEC).

Backscattered electrons expose resist micrometres away from the beam, so
dense regions print larger and isolated features print smaller.  Four
period-representative corrections are implemented:

* :class:`~repro.pec.dose_iter.IterativeDoseCorrector` — self-consistent
  dose iteration (the production workhorse).
* :class:`~repro.pec.dose_matrix.MatrixDoseCorrector` — direct linear
  solve of the interaction matrix.
* :class:`~repro.pec.shape_bias.ShapeBiasCorrector` — geometric pre-bias
  at fixed dose.
* :class:`~repro.pec.ghost.GhostCorrector` — background equalization by a
  complementary defocused exposure.

All correctors consume and produce :class:`~repro.fracture.base.Shot`
lists; the exposure model is shared through
:mod:`~repro.pec.base`'s analytic Gaussian-rectangle interaction.
"""

from repro._facade import facade

__getattr__, __dir__, __all__ = facade(
    __name__,
    {
        "ProximityCorrector": "base",
        "interaction_matrix_at_points": "base",
        "edge_sample_points": "base",
        "exposure_at_points": "base",
        "MATRIX_MODES": "operator",
        "ExposureOperator": "operator",
        "DenseExposureOperator": "operator",
        "SparseExposureOperator": "operator",
        "HybridExposureOperator": "operator",
        "build_exposure_operator": "operator",
        "IterativeDoseCorrector": "dose_iter",
        "ConvergenceTrace": "dose_iter",
        "MatrixDoseCorrector": "dose_matrix",
        "ShapeBiasCorrector": "shape_bias",
        "GhostCorrector": "ghost",
        "GhostExposure": "ghost",
        "dose_classes": "quantize",
        "quantize_doses": "quantize",
        "correction_report": "report",
        "CorrectionReport": "report",
    },
)
