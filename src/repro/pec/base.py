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
from typing import Iterator, List, Sequence, Tuple

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
    yb, yt, xbl, xbr, xtl, xtr = shot_rows(shots)[:, :6].T
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
        c = Trapezoid(yb[i], yt[i], xbl[i], xbr[i], xtl[i], xtr[i]).centroid()
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
    yb, yt, xbl, xbr, xtl, xtr = shot_rows(shots)[:, :6].T
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


class _PointBuckets:
    """Uniform-grid spatial index over sample points, held as arrays.

    Occupied cell ``k`` is ``(cell_ix[k], cell_iy[k])`` and holds the
    point indices ``cells[k]``; the cells are sorted by ``(ix, iy)``,
    the points of a cell by index.  The sweep uses it to restrict the
    exact distance test to the rows that can possibly fall inside a
    column block's cutoff.
    """

    def __init__(self, px: np.ndarray, py: np.ndarray, pitch: float) -> None:
        self.pitch = pitch
        self.origin = (float(px.min()), float(py.min()))
        ix = np.floor((px - self.origin[0]) / pitch).astype(np.int64)
        iy = np.floor((py - self.origin[1]) / pitch).astype(np.int64)
        rows = np.lexsort((iy, ix))
        ix = ix[rows]
        iy = iy[rows]
        new_cell = np.flatnonzero((np.diff(ix) != 0) | (np.diff(iy) != 0)) + 1
        first = np.concatenate(([0], new_cell))
        self.cells = np.split(rows, new_cell)
        self.cell_ix = ix[first]
        self.cell_iy = iy[first]

    def rows_in(self, wx0: float, wx1: float, wy0: float, wy1: float) -> np.ndarray:
        """Point indices whose cell intersects the window, cell by cell.
        One mask over the occupied cells: the cost does not depend on
        how many empty cells the window spans."""
        ox, oy = self.origin
        hit = np.flatnonzero(
            (self.cell_ix >= math.floor((wx0 - ox) / self.pitch))
            & (self.cell_ix <= math.floor((wx1 - ox) / self.pitch))
            & (self.cell_iy >= math.floor((wy0 - oy) / self.pitch))
            & (self.cell_iy <= math.floor((wy1 - oy) / self.pitch))
        )
        if hit.size == 0:
            return np.empty(0, dtype=np.intp)
        return np.concatenate([self.cells[k] for k in hit])


def _kept_entries(
    points: np.ndarray,
    shots: Sequence[Shot],
    psf: DoubleGaussianPSF,
    cutoff_factor: float,
    block: int = 64,
    term: str = "full",
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The exposure matrix as its within-cutoff entries.

    Yields 1-D ``(rows, cols, values)`` triplets with ``values[k]`` the
    level at point ``rows[k]`` from shot ``cols[k]`` at unit dose, for
    exactly the pairs within ``cutoff_factor · σ`` (plus the shot's half
    diagonal) of each other — the far tail is treated as constant.  The
    one sweep behind every backend: shots are visited in blocks of
    ``block`` columns, the distance test runs only against the points a
    bucket index places near the block, and the erf products only on
    the pairs that test keeps.  Elementwise the arithmetic matches
    :func:`trapezoid_exposure`.

    ``term`` selects the PSF component: ``"full"`` is the double
    Gaussian (σ = β); ``"forward"`` only the α term
    ``scale · fwd / (1 + η)`` within ``cutoff_factor · α`` — the sharp
    short-range part the hybrid operator keeps exact.

    The emission order is part of the contract, because it fixes the
    CSR layout and with it the summation order of every sparse matvec:
    blocks in tile order, a block's candidate points in bucket order,
    their entries in ``np.nonzero`` order.
    """
    if term not in ("full", "forward"):
        raise ValueError(f"unknown PSF term {term!r}")
    if len(points) == 0 or len(shots) == 0:
        return
    x0, y0, x1, y1, scale = _shot_bbox_arrays(shots)
    cx = (x0 + x1) / 2.0
    cy = (y0 + y1) / 2.0
    half_diag = np.hypot(x1 - x0, y1 - y0) / 2.0
    sigma = psf.beta if term == "full" else psf.alpha
    reach = cutoff_factor * sigma + half_diag
    px_all = points[:, 0]
    py_all = points[:, 1]
    norm = 1.0 + psf.eta
    # Visit columns in 2-D tile order so each block is spatially compact
    # and its candidate window stays small; fracture order alone is only
    # y-coherent.
    tile = max(cutoff_factor * psf.beta, 1e-9)
    order = np.lexsort((cx, np.floor(cx / tile), np.floor(cy / tile)))
    buckets = _PointBuckets(px_all, py_all, max(tile, float(reach.max())))
    for j0 in range(0, len(shots), block):
        cols = order[j0 : j0 + block]
        col_x, col_y, col_reach = cx[cols], cy[cols], reach[cols]
        cand = buckets.rows_in(
            float((col_x - col_reach).min()),
            float((col_x + col_reach).max()),
            float((col_y - col_reach).min()),
            float((col_y + col_reach).max()),
        )
        if cand.size == 0:
            continue
        near = (
            np.hypot(px_all[cand][:, None] - col_x, py_all[cand][:, None] - col_y)
            <= col_reach
        )
        r, c = np.nonzero(near)
        r, c = cand[r], cols[c]
        # The erf products are the expensive part; evaluate them only on
        # the pairs the cutoff keeps.
        pair = (px_all[r], py_all[r], x0[c], x1[c], y0[c], y1[c])
        level = _rect_gauss_integral(*pair, psf.alpha)
        if term == "full":
            level = level + psf.eta * _rect_gauss_integral(*pair, psf.beta)
        yield r, c, scale[c] * (level / norm)


def _exposure_matrix(
    points: np.ndarray,
    shots: Sequence[Shot],
    psf: DoubleGaussianPSF,
    cutoff_factor: float,
    block: int = 64,
) -> np.ndarray:
    """Dense exposure matrix ``K[p, j]`` = level at point p from shot j
    at unit dose: :func:`_kept_entries` scattered into zeros (each
    column is in one block and each point in one bucket, so no pair
    repeats).  Assembly scales with the kept entries; the storage is
    ``n_points × n_shots`` doubles regardless."""
    shape = (len(points), len(shots))
    try:
        matrix = np.zeros(shape)
    except MemoryError:
        raise ValueError(
            f"the dense exposure matrix of one shard, {shape[0]} points x "
            f"{shape[1]} shots, needs {shape[0] * shape[1] * 8 / 2**30:.1f} "
            f"GiB and does not fit in memory: split the layout into smaller "
            f"shards (--field-size) or store only the within-cutoff entries "
            f"(--pec-matrix sparse)"
        ) from None
    for rows, cols, values in _kept_entries(
        points, shots, psf, cutoff_factor, block
    ):
        matrix[rows, cols] = values
    return matrix


def _exposure_matrix_csr(
    points: np.ndarray,
    shots: Sequence[Shot],
    psf: DoubleGaussianPSF,
    cutoff_factor: float,
    block: int = 64,
    term: str = "full",
):
    """CSR exposure matrix: :func:`_kept_entries` concatenated, so
    memory scales with the interaction count instead of
    ``n_points × n_shots`` and ``csr.toarray()`` equals
    :func:`_exposure_matrix` bit for bit (``term="full"``)."""
    from scipy.sparse import csr_matrix

    shape = (len(points), len(shots))
    entries = list(
        _kept_entries(points, shots, psf, cutoff_factor, block, term)
    )
    if not entries:
        return csr_matrix(shape)
    rows, cols, values = (np.concatenate(part) for part in zip(*entries))
    return csr_matrix((values, (rows, cols)), shape=shape)


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

    operator = build_exposure_operator(
        points, shots, psf, cutoff_factor=cutoff_factor, mode=matrix_mode
    )
    return operator @ shot_rows(shots)[:, 6].copy()


class ProximityCorrector(abc.ABC):
    """Strategy interface for proximity-effect correction."""

    @abc.abstractmethod
    def correct(
        self, shots: Sequence[Shot], psf: DoubleGaussianPSF
    ) -> List[Shot]:
        """Return a corrected shot list for the given exposure PSF."""
