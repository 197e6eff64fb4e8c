"""Shared machinery for proximity correction.

The correctors need the absorbed-energy level at figure sample points as a
function of all shot doses.  For a double-Gaussian PSF and rectangle-like
shots this is analytic: the exposure a rectangle ``[x0,x1]×[y0,y1]`` at
uniform dose 1 contributes to a point is a product of erf differences per
Gaussian term.  Trapezoids are approximated by their bounding rectangle
scaled by the area ratio — exact for rectangles, and within a few percent
for the near-rectangular trapezoids fracturing produces (the accuracy is
measured by the test suite against the FFT exposure engine).
"""

from __future__ import annotations

import abc
import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.fracture.base import Shot, shot_rows
from repro.geometry.trapezoid import Trapezoid
from repro.geometry.vertex_array import trapezoid_areas, trapezoid_bounds
from repro.physics.psf import DoubleGaussianPSF


def _rect_gauss_integral(
    px: np.ndarray,
    py: np.ndarray,
    x0: "float | np.ndarray",
    x1: "float | np.ndarray",
    y0: "float | np.ndarray",
    y1: "float | np.ndarray",
    sigma: float,
) -> np.ndarray:
    """∫∫_rect g(p − q) dq for the unit Gaussian ``g`` of range ``sigma``.

    ``g(r) = exp(−r²/σ²) / (π σ²)`` (the PSF term normalization), so the
    integral over the whole plane is 1.
    """
    # Call-time import: only a PEC run pays for scipy.special (~0.3 s).
    from scipy.special import erf

    ax = 0.5 * (erf((x1 - px) / sigma) - erf((x0 - px) / sigma))
    ay = 0.5 * (erf((y1 - py) / sigma) - erf((y0 - py) / sigma))
    return ax * ay


def rectangle_exposure(
    points: np.ndarray,
    rect: Tuple[float, float, float, float],
    psf: DoubleGaussianPSF,
) -> np.ndarray:
    """Absorbed level at ``points`` from a unit-dose rectangle.

    Args:
        points: array of shape (n, 2).
        rect: ``(x0, y0, x1, y1)``.
        psf: the proximity PSF.

    Returns:
        Array of n absorbed-energy levels (large-pad level = 1).
    """
    px = points[:, 0]
    py = points[:, 1]
    x0, y0, x1, y1 = rect
    fwd = _rect_gauss_integral(px, py, x0, x1, y0, y1, psf.alpha)
    back = _rect_gauss_integral(px, py, x0, x1, y0, y1, psf.beta)
    return (fwd + psf.eta * back) / (1.0 + psf.eta)


def trapezoid_exposure(
    points: np.ndarray, trap: Trapezoid, psf: DoubleGaussianPSF
) -> np.ndarray:
    """Absorbed level at ``points`` from a unit-dose trapezoid.

    Bounding-rectangle approximation scaled by the area ratio.
    """
    bbox = trap.bounding_box()
    bbox_area = (bbox[2] - bbox[0]) * (bbox[3] - bbox[1])
    if bbox_area <= 0:
        return np.zeros(len(points))
    scale = trap.area() / bbox_area
    return scale * rectangle_exposure(
        points, (bbox[0], bbox[1], bbox[2], bbox[3]), psf
    )


def _trap_field_arrays(
    shots: Sequence[Shot],
) -> Tuple[np.ndarray, ...]:
    """The six trapezoid coordinate fields of a shot list, as columns
    of its ``(N, 7)`` block (:func:`~repro.fracture.base.shot_rows`):
    every geometric quantity downstream (sample points, bounding boxes,
    areas) is then pure vectorized arithmetic on them.

    Returns:
        The block's coordinate columns in
        :data:`~repro.geometry.vertex_array.TRAP_COLUMNS` order, as
        length-n float arrays.
    """
    return tuple(shot_rows(shots)[:, :6].T)


def shot_sample_points(
    shots: Sequence[Shot], mode: str = "centroid"
) -> np.ndarray:
    """Representative sample point for each shot.

    ``mode="centroid"`` uses the area centroid; ``mode="center"`` the
    bounding-box centre (the cheaper choice ablated in F2).  Both modes
    are vectorized over the stacked trapezoid fields; the centroid
    arithmetic replicates the polygon shoelace sum term for term (the
    cross product of a collapsed zero-length edge is exactly 0.0, so
    skipping it never changes an IEEE sum), making the result
    bit-identical to the per-shot :meth:`Trapezoid.centroid` loop it
    replaces.
    """
    if mode not in ("centroid", "center"):
        raise ValueError(f"unknown sample mode {mode!r}")
    points = np.empty((len(shots), 2))
    if not shots:
        return points
    yb, yt, xbl, xbr, xtl, xtr = _trap_field_arrays(shots)
    if mode == "center":
        bx0 = np.minimum(xbl, xtl)
        bx1 = np.maximum(xbr, xtr)
        points[:, 0] = (bx0 + bx1) / 2.0
        points[:, 1] = (yb + yt) / 2.0
        return points
    # Shoelace over the vertex cycle (xbl,yb) (xbr,yb) (xtr,yt) (xtl,yt),
    # accumulated in the same order as the scalar loop.
    c0 = xbl * yb - xbr * yb
    c1 = xbr * yt - xtr * yb
    c2 = xtr * yt - xtl * yt
    c3 = xtl * yb - xbl * yt
    a2 = ((c0 + c1) + c2) + c3
    cx = (((xbl + xbr) * c0 + (xbr + xtr) * c1) + (xtr + xtl) * c2) + (
        xtl + xbl
    ) * c3
    cy = (((yb + yb) * c0 + (yb + yt) * c1) + (yt + yt) * c2) + (
        yt + yb
    ) * c3
    degenerate = np.abs(a2) < 1e-300
    safe = np.where(degenerate, 1.0, a2)
    points[:, 0] = cx / (3.0 * safe)
    points[:, 1] = cy / (3.0 * safe)
    for i in np.flatnonzero(degenerate):
        c = shots[i].trapezoid.centroid()
        points[i] = (c.x, c.y)
    return points


def edge_sample_points(
    shots: Sequence[Shot], inset_fraction: float = 0.02
) -> Tuple[np.ndarray, np.ndarray]:
    """Edge-midpoint sample points: two per shot (left and right sides).

    Edge targeting pins the absorbed level at the printed boundary rather
    than the figure interior, which removes the uniform CD offset
    interior targeting leaves (see EXPERIMENTS.md, F1).  Points are inset
    slightly so they sample the figure side of the edge.

    Returns:
        ``(points, owners)`` — points of shape (2n, 2) and the owning
        shot index of each point.
    """
    n = len(shots)
    points = np.empty((2 * n, 2))
    owners = np.repeat(np.arange(n, dtype=int), 2)
    if n == 0:
        return points, owners
    yb, yt, xbl, xbr, xtl, xtr = _trap_field_arrays(shots)
    y_mid = 0.5 * (yb + yt)
    left = 0.5 * (xbl + xtl)
    right = 0.5 * (xbr + xtr)
    inset = inset_fraction * np.maximum(right - left, 1e-9)
    points[0::2, 0] = left + inset
    points[0::2, 1] = y_mid
    points[1::2, 0] = right - inset
    points[1::2, 1] = y_mid
    return points, owners


def _shot_bbox_arrays(
    shots: Sequence[Shot],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-shot bounding boxes and area-ratio scales as flat arrays."""
    rows = shot_rows(shots)
    x0, yb, x1, yt = trapezoid_bounds(rows)
    bbox_area = (x1 - x0) * (yt - yb)
    area = trapezoid_areas(rows)
    positive = bbox_area > 0
    scale = np.where(
        positive, area / np.where(positive, bbox_area, 1.0), 0.0
    )
    return x0, yb, x1, yt, scale


def _exposure_matrix(
    points: np.ndarray,
    shots: Sequence[Shot],
    psf: DoubleGaussianPSF,
    cutoff_factor: float,
    block: int = 64,
) -> np.ndarray:
    """Vectorized exposure matrix ``K[p, j]`` = level at point p from
    shot j at unit dose.

    Columns are assembled in blocks with broadcast erf products (one
    numpy expression per block instead of a Python loop per shot); the
    distance cutoff zeroes entries beyond ``cutoff_factor · β`` from the
    shot, treating the far tail as constant.  Elementwise the arithmetic
    matches :func:`trapezoid_exposure`, so results are bit-identical to
    the per-shot assembly it replaces.
    """
    n_points = len(points)
    n_shots = len(shots)
    matrix = np.zeros((n_points, n_shots))
    if n_points == 0 or n_shots == 0:
        return matrix
    x0, y0, x1, y1, scale = _shot_bbox_arrays(shots)
    cx = (x0 + x1) / 2.0
    cy = (y0 + y1) / 2.0
    half_diag = np.hypot(x1 - x0, y1 - y0) / 2.0
    reach = cutoff_factor * psf.beta + half_diag
    px_all = points[:, 0][:, None]
    py_all = points[:, 1][:, None]
    norm = 1.0 + psf.eta
    # Visit columns in 2-D tile order so each block is spatially compact
    # and its pruned row set (points inside some column's cutoff) stays
    # small; fracture order alone is only y-coherent.
    tile = max(cutoff_factor * psf.beta, 1e-9)
    order = np.lexsort((cx, np.floor(cx / tile), np.floor(cy / tile)))
    for j0 in range(0, n_shots, block):
        cols = order[j0 : j0 + block]
        near = (
            np.hypot(px_all - cx[None, cols], py_all - cy[None, cols])
            <= reach[None, cols]
        )
        # The erf products are the expensive part; evaluate them only on
        # the rows the cutoff keeps.
        rows = np.flatnonzero(near.any(axis=1))
        if rows.size == 0:
            continue
        px = px_all[rows]
        py = py_all[rows]
        bx0, bx1 = x0[None, cols], x1[None, cols]
        by0, by1 = y0[None, cols], y1[None, cols]
        fwd = _rect_gauss_integral(px, py, bx0, bx1, by0, by1, psf.alpha)
        back = _rect_gauss_integral(px, py, bx0, bx1, by0, by1, psf.beta)
        levels = scale[None, cols] * ((fwd + psf.eta * back) / norm)
        matrix[np.ix_(rows, cols)] = np.where(near[rows], levels, 0.0)
    return matrix


def _bucket_points(
    px: np.ndarray, py: np.ndarray, pitch: float
) -> Tuple[dict, Tuple[float, float]]:
    """Uniform-grid spatial index over sample points.

    Returns a mapping ``(ix, iy) → row indices`` plus the grid origin;
    the sparse sweep uses it to restrict the exact distance test to the
    rows that can possibly fall inside a column block's cutoff.
    """
    origin = (float(px.min()), float(py.min()))
    ix = np.floor((px - origin[0]) / pitch).astype(np.int64)
    iy = np.floor((py - origin[1]) / pitch).astype(np.int64)
    order = np.lexsort((iy, ix))
    ix_sorted = ix[order]
    iy_sorted = iy[order]
    change = np.flatnonzero(
        (np.diff(ix_sorted) != 0) | (np.diff(iy_sorted) != 0)
    )
    starts = np.concatenate(([0], change + 1))
    ends = np.concatenate((change + 1, [len(order)]))
    buckets = {
        (int(ix_sorted[s]), int(iy_sorted[s])): order[s:e]
        for s, e in zip(starts, ends)
    }
    return buckets, origin


def _candidate_rows(
    buckets: dict,
    origin: Tuple[float, float],
    pitch: float,
    window: Tuple[float, float, float, float],
) -> np.ndarray:
    """Row indices whose bucket intersects ``(x0, x1, y0, y1)``."""
    wx0, wx1, wy0, wy1 = window
    ix0 = int(math.floor((wx0 - origin[0]) / pitch))
    ix1 = int(math.floor((wx1 - origin[0]) / pitch))
    iy0 = int(math.floor((wy0 - origin[1]) / pitch))
    iy1 = int(math.floor((wy1 - origin[1]) / pitch))
    found = [
        buckets[key]
        for key in (
            (ix, iy)
            for ix in range(ix0, ix1 + 1)
            for iy in range(iy0, iy1 + 1)
        )
        if key in buckets
    ]
    if not found:
        return np.empty(0, dtype=np.intp)
    return np.concatenate(found)


def _exposure_matrix_csr(
    points: np.ndarray,
    shots: Sequence[Shot],
    psf: DoubleGaussianPSF,
    cutoff_factor: float,
    block: int = 64,
    term: str = "full",
):
    """CSR companion of :func:`_exposure_matrix`.

    Runs the same tile-ordered block sweep but emits only the
    within-cutoff entries, so memory scales with the interaction count
    instead of ``n_points × n_shots``.  Every emitted value is computed
    by the exact expression of the dense path on the exact same floats,
    so ``csr.toarray()`` equals the dense matrix bit for bit; a spatial
    bucket index over the sample points additionally prunes the distance
    test itself to near-linear cost (the dense path must evaluate it for
    every point × block pair regardless, since it writes full columns).

    ``term`` selects the emitted PSF component: ``"full"`` is the double
    Gaussian (matching the dense matrix); ``"forward"`` emits only the
    α term ``scale · fwd / (1 + η)`` within ``cutoff_factor · α`` — the
    sharp short-range part the hybrid operator keeps exact.
    """
    from scipy.sparse import csr_matrix

    if term not in ("full", "forward"):
        raise ValueError(f"unknown PSF term {term!r}")
    n_points = len(points)
    n_shots = len(shots)
    if n_points == 0 or n_shots == 0:
        return csr_matrix((n_points, n_shots))
    x0, y0, x1, y1, scale = _shot_bbox_arrays(shots)
    cx = (x0 + x1) / 2.0
    cy = (y0 + y1) / 2.0
    half_diag = np.hypot(x1 - x0, y1 - y0) / 2.0
    sigma = psf.beta if term == "full" else psf.alpha
    reach = cutoff_factor * sigma + half_diag
    px_all = points[:, 0]
    py_all = points[:, 1]
    norm = 1.0 + psf.eta
    # Identical tile order to the dense sweep: blocks stay spatially
    # compact, so each block's candidate window is small.
    tile = max(cutoff_factor * psf.beta, 1e-9)
    order = np.lexsort((cx, np.floor(cx / tile), np.floor(cy / tile)))
    pitch = max(tile, float(reach.max()), 1e-9)
    buckets, origin = _bucket_points(px_all, py_all, pitch)
    rows_out = []
    cols_out = []
    data_out = []
    for j0 in range(0, n_shots, block):
        cols = order[j0 : j0 + block]
        col_reach = reach[cols]
        window = (
            float((cx[cols] - col_reach).min()),
            float((cx[cols] + col_reach).max()),
            float((cy[cols] - col_reach).min()),
            float((cy[cols] + col_reach).max()),
        )
        cand = _candidate_rows(buckets, origin, pitch, window)
        if cand.size == 0:
            continue
        px = px_all[cand][:, None]
        py = py_all[cand][:, None]
        near = (
            np.hypot(px - cx[None, cols], py - cy[None, cols])
            <= col_reach[None, :]
        )
        keep = near.any(axis=1)
        if not keep.any():
            continue
        rows = cand[keep]
        near = near[keep]
        px = px[keep]
        py = py[keep]
        bx0, bx1 = x0[None, cols], x1[None, cols]
        by0, by1 = y0[None, cols], y1[None, cols]
        if term == "full":
            fwd = _rect_gauss_integral(px, py, bx0, bx1, by0, by1, psf.alpha)
            back = _rect_gauss_integral(px, py, bx0, bx1, by0, by1, psf.beta)
            levels = scale[None, cols] * ((fwd + psf.eta * back) / norm)
        else:
            fwd = _rect_gauss_integral(px, py, bx0, bx1, by0, by1, psf.alpha)
            levels = scale[None, cols] * (fwd / norm)
        r_local, c_local = np.nonzero(near)
        rows_out.append(rows[r_local])
        cols_out.append(cols[c_local])
        data_out.append(levels[r_local, c_local])
    if not rows_out:
        return csr_matrix((n_points, n_shots))
    rows_cat = np.concatenate(rows_out)
    cols_cat = np.concatenate(cols_out)
    data_cat = np.concatenate(data_out)
    matrix = csr_matrix(
        (data_cat, (rows_cat, cols_cat)), shape=(n_points, n_shots)
    )
    return matrix


def interaction_matrix_csr(
    points: np.ndarray,
    shots: Sequence[Shot],
    psf: DoubleGaussianPSF,
    cutoff_factor: float = 4.0,
):
    """Sparse (CSR) exposure matrix — bit-identical entries to
    :func:`interaction_matrix_at_points`, only the within-cutoff entries
    stored."""
    return _exposure_matrix_csr(points, shots, psf, cutoff_factor)


def interaction_matrix_at_points(
    points: np.ndarray,
    shots: Sequence[Shot],
    psf: DoubleGaussianPSF,
    cutoff_factor: float = 4.0,
) -> np.ndarray:
    """Exposure matrix K with ``K[p, j]`` = level at point p from shot j
    at unit dose (distance-cutoff pruned like
    :func:`shot_interaction_matrix`)."""
    return _exposure_matrix(points, shots, psf, cutoff_factor)


def shot_interaction_matrix(
    shots: Sequence[Shot],
    psf: DoubleGaussianPSF,
    sample_mode: str = "centroid",
    cutoff_factor: float = 4.0,
) -> np.ndarray:
    """Interaction matrix K with ``K[i, j]`` = exposure at shot i's sample
    point from shot j at unit dose.

    Entries beyond ``cutoff_factor · β`` are treated as the constant far
    tail (effectively zero), keeping the matrix cheap without the sparse
    machinery the originals could not afford either.
    """
    points = shot_sample_points(shots, sample_mode)
    return _exposure_matrix(points, shots, psf, cutoff_factor)


def exposure_at_points(
    points: np.ndarray,
    shots: Sequence[Shot],
    psf: DoubleGaussianPSF,
    matrix_mode: str = "dense",
    cutoff_factor: float = 4.0,
) -> np.ndarray:
    """Absorbed level at arbitrary points from a dosed shot list.

    One exposure-operator application ``K @ doses`` instead of the
    historical per-shot accumulation loop; ``matrix_mode`` selects the
    operator backend (``"sparse"`` keeps memory at the interaction count
    for large point/shot sets, ``"hybrid"`` adds the gridded backscatter
    approximation).  Entries beyond ``cutoff_factor · β`` are treated as
    the far tail (zero), matching the interaction matrices the
    correctors solve against.
    """
    from repro.pec.operator import build_exposure_operator

    doses = np.array([s.dose for s in shots], dtype=float)
    operator = build_exposure_operator(
        points, shots, psf, cutoff_factor=cutoff_factor, mode=matrix_mode
    )
    return operator @ doses


class ProximityCorrector(abc.ABC):
    """Strategy interface for proximity-effect correction."""

    @abc.abstractmethod
    def correct(
        self, shots: Sequence[Shot], psf: DoubleGaussianPSF
    ) -> List[Shot]:
        """Return a corrected shot list for the given exposure PSF."""
