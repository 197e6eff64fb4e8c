"""Registration: mark detection and alignment-transform fitting.

Before writing each field (or chip), the machine scans the beam across
fiducial marks, detects their positions from the backscattered-electron
signal, and fits an alignment transform.  This module simulates the
chain:

* :func:`mark_signal` — BSE line-scan across an edge mark: an error-
  function edge of finite beam size plus shot/amplifier noise.
* :func:`detect_edge` — threshold-crossing estimator with sub-sample
  interpolation; :func:`detect_mark_center` for two-edge marks.
* :class:`RegistrationFit` / :func:`fit_registration` — least-squares
  affine alignment from measured mark offsets, with residuals.
* :func:`detection_error_model` — Monte-Carlo σ of the detector vs. SNR,
  the curve that feeds the overlay budget of experiment F4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np


def mark_signal(
    positions: np.ndarray,
    edge_position: float,
    beam_size: float,
    contrast: float = 1.0,
    noise: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Backscatter signal of a line scan across a single mark edge.

    The edge response is the beam profile integrated across a step:
    ``0.5·contrast·(1 + erf((x − x_edge)/σ))`` plus Gaussian noise.
    """
    if beam_size <= 0:
        raise ValueError("beam size must be positive")
    # Call-time import: a run that detects no mark never loads scipy.
    from scipy.special import erf

    signal = 0.5 * contrast * (1.0 + erf((positions - edge_position) / beam_size))
    if noise > 0:
        if rng is None:
            rng = np.random.default_rng()
        signal = signal + rng.normal(0.0, noise, signal.shape)
    return signal


def detect_edge(
    positions: np.ndarray, signal: np.ndarray, threshold: Optional[float] = None
) -> float:
    """Estimate the edge position by threshold crossing.

    Uses the half-amplitude threshold by default and interpolates
    linearly between samples.  Averages all crossings (noise can create
    several) weighted toward the longest monotone segment.

    Raises:
        ValueError: if the signal never crosses the threshold.
    """
    if threshold is None:
        threshold = 0.5 * (float(signal.min()) + float(signal.max()))
    above = signal >= threshold
    crossings = []
    for i in range(len(signal) - 1):
        if above[i] != above[i + 1]:
            v0, v1 = signal[i], signal[i + 1]
            t = (threshold - v0) / (v1 - v0)
            crossings.append(positions[i] + t * (positions[i + 1] - positions[i]))
    if not crossings:
        raise ValueError("signal never crosses the detection threshold")
    return float(np.median(crossings))


def detect_mark_center(
    positions: np.ndarray,
    signal: np.ndarray,
) -> float:
    """Centre of a two-edge (line) mark: midpoint of rising and falling
    edges, estimated from the derivative extrema neighbourhoods."""
    threshold = 0.5 * (float(signal.min()) + float(signal.max()))
    above = signal >= threshold
    rising = None
    falling = None
    for i in range(len(signal) - 1):
        if not above[i] and above[i + 1] and rising is None:
            v0, v1 = signal[i], signal[i + 1]
            t = (threshold - v0) / (v1 - v0)
            rising = positions[i] + t * (positions[i + 1] - positions[i])
        if above[i] and not above[i + 1]:
            v0, v1 = signal[i], signal[i + 1]
            t = (threshold - v0) / (v1 - v0)
            falling = positions[i] + t * (positions[i + 1] - positions[i])
    if rising is None or falling is None:
        raise ValueError("mark needs both a rising and a falling edge")
    return 0.5 * (rising + falling)


def detection_error_model(
    beam_size: float,
    noise: float,
    scans: int = 200,
    span: float = 4.0,
    samples: int = 200,
    seed: int = 0,
) -> float:
    """Monte-Carlo 1σ of the edge detector at a given noise level.

    Args:
        beam_size: beam σ [µm].
        noise: RMS signal noise (signal amplitude = 1).
        scans: Monte-Carlo repetitions.
        span: scan half-width in units of ``beam_size``.
        samples: samples per scan.

    Returns:
        The standard deviation of the detected edge position [µm].
    """
    rng = np.random.default_rng(seed)
    positions = np.linspace(-span * beam_size, span * beam_size, samples)
    errors = []
    for _ in range(scans):
        signal = mark_signal(
            positions, 0.0, beam_size, noise=noise, rng=rng
        )
        try:
            errors.append(detect_edge(positions, signal))
        except ValueError:
            continue
    if not errors:
        return float("inf")
    return float(np.std(errors))


# ---------------------------------------------------------------------------
# Alignment-transform fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegistrationFit:
    """A fitted affine alignment.

    The model is ``measured = nominal + (tx, ty) + M·nominal`` with M a
    small 2x2 linear correction (scale/rotation/shear).

    Attributes:
        translation: ``(tx, ty)`` [µm].
        matrix: the 2x2 linear correction.
        residual_rms: RMS mark residual after the fit [µm].
        residual_max: worst mark residual [µm].
        marks: marks used.
    """

    translation: Tuple[float, float]
    matrix: Tuple[Tuple[float, float], Tuple[float, float]]
    residual_rms: float
    residual_max: float
    marks: int

    def rotation_urad(self) -> float:
        """Rotation component of the linear correction [µrad]."""
        return 0.5 * (self.matrix[1][0] - self.matrix[0][1]) * 1e6

    def scale_ppm(self) -> float:
        """Isotropic scale component [ppm]."""
        return 0.5 * (self.matrix[0][0] + self.matrix[1][1]) * 1e6

    def apply(self, x: float, y: float) -> Tuple[float, float]:
        """Map a nominal position through the fitted alignment."""
        mx = self.matrix
        return (
            x + self.translation[0] + mx[0][0] * x + mx[0][1] * y,
            y + self.translation[1] + mx[1][0] * x + mx[1][1] * y,
        )


def fit_registration(
    nominal: Sequence[Tuple[float, float]],
    measured: Sequence[Tuple[float, float]],
    linear: bool = True,
) -> RegistrationFit:
    """Least-squares alignment fit from mark positions.

    Args:
        nominal: designed mark positions.
        measured: detected mark positions (same order).
        linear: fit the 2x2 linear term (needs ≥3 marks); otherwise fit
            translation only.

    Raises:
        ValueError: on mismatched or insufficient mark counts.
    """
    if len(nominal) != len(measured):
        raise ValueError("nominal and measured mark counts differ")
    n = len(nominal)
    if n < 1 or (linear and n < 3):
        raise ValueError("not enough marks for the requested model")
    nom = np.asarray(nominal, dtype=float)
    mea = np.asarray(measured, dtype=float)
    delta = mea - nom

    if linear:
        # Per-axis design matrix: [1, x, y].
        design = np.column_stack([np.ones(n), nom[:, 0], nom[:, 1]])
        cx, *_ = np.linalg.lstsq(design, delta[:, 0], rcond=None)
        cy, *_ = np.linalg.lstsq(design, delta[:, 1], rcond=None)
        translation = (float(cx[0]), float(cy[0]))
        matrix = ((float(cx[1]), float(cx[2])), (float(cy[1]), float(cy[2])))
        predicted = np.column_stack([design @ cx, design @ cy])
    else:
        translation = (float(delta[:, 0].mean()), float(delta[:, 1].mean()))
        matrix = ((0.0, 0.0), (0.0, 0.0))
        predicted = np.tile(translation, (n, 1))

    residuals = delta - predicted
    magnitude = np.hypot(residuals[:, 0], residuals[:, 1])
    return RegistrationFit(
        translation=translation,
        matrix=matrix,
        residual_rms=float(np.sqrt(np.mean(magnitude**2))),
        residual_max=float(magnitude.max()),
        marks=n,
    )
