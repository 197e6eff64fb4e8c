"""Resist response models: contrast curves and threshold development.

A resist is characterized by its sensitivity (the dose where it clears or
gels), its contrast γ (the slope of the thickness-vs-log-dose curve), and
its tone.  The standard log-linear contrast-curve model is used:

* negative resist: remaining thickness ``T(D) = γ · log10(D / D_gel)``
  clipped to [0, 1]; fully retained at ``D ≥ D_gel · 10^(1/γ)``.
* positive resist: ``T(D) = 1 − γ · log10(D / D_onset)`` clipped to
  [0, 1]; fully cleared at ``D ≥ D_onset · 10^(1/γ)``.

For pattern transfer the binary *developed image* is thresholded at 50 %
remaining thickness, the usual metrology convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class Resist:
    """An electron resist.

    Attributes:
        name: resist name.
        tone: ``"positive"`` (exposed areas clear) or ``"negative"``
            (exposed areas remain).
        sensitivity: onset dose D₀ [µC/cm²] — gel dose for negative
            resists, clearing-onset dose for positive ones.
        contrast: γ, the contrast-curve slope.
        thickness: film thickness [µm].
    """

    name: str
    tone: str
    sensitivity: float
    contrast: float
    thickness: float = 0.5

    def __post_init__(self) -> None:
        if self.tone not in ("positive", "negative"):
            raise ValueError("tone must be 'positive' or 'negative'")
        if self.sensitivity <= 0:
            raise ValueError("sensitivity must be positive")
        if self.contrast <= 0:
            raise ValueError("contrast must be positive")
        if self.thickness <= 0:
            raise ValueError("thickness must be positive")

    # -- contrast curve ----------------------------------------------------

    def remaining_thickness(self, dose: ArrayLike) -> ArrayLike:
        """Normalized remaining thickness after development at ``dose``.

        Vectorized over numpy arrays.  Dose is in the same units as
        ``sensitivity``.
        """
        d = np.asarray(dose, dtype=float)
        with np.errstate(divide="ignore"):
            log_ratio = np.log10(np.maximum(d, 1e-300) / self.sensitivity)
        if self.tone == "negative":
            t = self.contrast * log_ratio
        else:
            t = 1.0 - self.contrast * log_ratio
        t = np.clip(t, 0.0, 1.0)
        if np.isscalar(dose):
            return float(t)
        return t

    @property
    def threshold_dose(self) -> float:
        """Dose giving 50 % remaining thickness — the print threshold."""
        if self.tone == "negative":
            return self.sensitivity * 10.0 ** (0.5 / self.contrast)
        return self.sensitivity * 10.0 ** (0.5 / self.contrast)

    # -- development -----------------------------------------------------

    def exposure_latitude(self) -> float:
        """Fractional dose window between 10 % and 90 % thickness response.

        Smaller is sharper: ``(D₉₀ − D₁₀)/D₅₀`` for negative resists (the
        mirror-image definition applies to positive ones).
        """
        d10 = self.sensitivity * 10.0 ** (0.1 / self.contrast)
        d90 = self.sensitivity * 10.0 ** (0.9 / self.contrast)
        d50 = self.threshold_dose
        return (d90 - d10) / d50


#: PMMA — the classic high-resolution positive resist (slow).
PMMA = Resist("PMMA", tone="positive", sensitivity=50.0, contrast=3.0, thickness=0.5)

#: PBS (poly(butene-1-sulfone)) — fast positive mask-making resist.
PBS = Resist("PBS", tone="positive", sensitivity=0.8, contrast=1.2, thickness=0.5)

#: COP — fast negative epoxy mask resist of the EBES era.
COP = Resist("COP", tone="negative", sensitivity=0.4, contrast=0.8, thickness=0.5)
