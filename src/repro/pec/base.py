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
import errno
import mmap
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
    ax = 0.5 * (_erf_of(x1, px, sigma) - _erf_of(x0, px, sigma))
    ay = 0.5 * (_erf_of(y1, py, sigma) - _erf_of(y0, py, sigma))
    return ax * ay


def _erf_of(edge, p, sigma: float) -> np.ndarray:
    """``erf((edge − p) / sigma)``: the one erf call of the exposure
    sweep and of :func:`_rect_gauss_integral`, so the elements it is
    handed are the erf work a matrix costs."""
    # Call-time import: only a PEC run pays for scipy.special (~0.3 s).
    from scipy.special import erf

    return erf((edge - p) / sigma)


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


#: |u| from which scipy's ``erf(u)`` is exactly ±1.0: erfc(6) ≈ 2e−17 is
#: below half an ulp of 1.0.  ``tests/test_exposure_sweep.py`` pins it
#: on the installed scipy, so a scipy that moves it fails there first.
ERF_SATURATION = 6.0


def _alpha_integral(px, py, x0, x1, y0, y1, alpha: float) -> np.ndarray:
    """``_rect_gauss_integral(…, alpha)`` bit for bit, with the erf calls
    made only on the pairs whose product is not known without them.

    Where both arguments ``(edge − p)/α`` of one axis saturate on the
    same side, that factor is ``0.5 · (±1 − ±1)`` = +0.0 and so is the
    product, unless the other factor is −0.0: ``erf(−0.0) − erf(0.0)``,
    both of its arguments zero, so such a pair is left to erf.  Where
    both axes' arguments saturate on opposite sides, each factor is
    1.0.  With α far below the shot pitch that leaves the pairs near an
    edge of their shot.
    """
    s = ERF_SATURATION
    ux1, ux0 = (x1 - px) / alpha, (x0 - px) / alpha
    uy1, uy0 = (y1 - py) / alpha, (y0 - py) / alpha
    inside = (ux1 >= s) & (ux0 <= -s) & (uy1 >= s) & (uy0 <= -s)
    outside = (ux0 >= s) | (ux1 <= -s) | (uy0 >= s) | (uy1 <= -s)
    outside &= ((ux1 != 0) | (ux0 != 0)) & ((uy1 != 0) | (uy0 != 0))
    level = inside.astype(float)
    k = np.flatnonzero(~(inside | outside))
    level[k] = _rect_gauss_integral(px[k], py[k], x0[k], x1[k], y0[k], y1[k], alpha)
    return level


def _ranges(start: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``start[i] … start[i] + counts[i] − 1`` for every ``i``, concatenated."""
    offset = start - np.cumsum(counts) + counts
    return np.arange(counts.sum()) + np.repeat(offset, counts)


#: The β edge table of a block's axis runs when it holds fewer than
#: this share of the per-pair arguments (two per kept pair): a table
#: entry costs one erf, a pair's lookup two gathers, so a table only a
#: little smaller than the pairs' arguments does not pay.
EDGE_TABLE_SHARE = 0.5


def _edge_ranks(lo: np.ndarray, hi: np.ndarray):
    """``(edges, rank_lo, rank_hi)``: the distinct values of ``lo`` and
    ``hi`` ascending, and each element's index into them.  Values are
    told apart by their bits in IEEE total order, so −0.0 sorts before
    0.0 and keeps its own entry (``erf`` keeps the sign of a zero)."""
    values = np.concatenate((lo, hi))
    bits = values.view(np.int64)
    key = bits ^ ((bits >> 63) & np.int64(2**63 - 1))
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.empty(len(key), dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    rank = np.empty(len(key), dtype=np.intp)
    rank[order] = np.cumsum(new) - 1
    return values[order[new]], rank[: len(lo)], rank[len(lo) :]


def _beta_axis(p, lo, hi, c, heads, runs, axis, beta: float) -> np.ndarray:
    """``0.5 · (erf((hi − p)/β) − erf((lo − p)/β))`` for a block's kept
    pairs, the axis factor of ``_rect_gauss_integral(…, beta)`` bit for
    bit: ``p``, ``lo``, ``hi`` are the pairs' point coordinates and shot
    edges, ``c`` their shots, ``heads`` and ``runs`` the first pair and
    the pair count of each point (pairs come grouped by point) and
    ``axis`` the shard's :func:`_edge_ranks` of the shots' edges.

    A point's window is the run of distinct edges from the lowest to the
    highest its kept pairs touch; each window is one row of a table of
    ``erf((edge − p)/β)``, and a pair gathers its two entries from its
    point's row — the same floats into erf, so the same out.  The table
    is taken only while it is smaller than :data:`EDGE_TABLE_SHARE` of
    the pairs' two arguments each: scattered shots leave many edges of
    other shots inside a window, and then the pairs' own arguments are
    evaluated directly.
    """
    edges, rank_lo, rank_hi = axis
    e0, e1 = rank_lo[c], rank_hi[c]
    # Both ranks of each pair: a shot with lo = 0.0 and hi = −0.0 has
    # its ranks the wrong way round.
    first = np.minimum.reduceat(np.minimum(e0, e1), heads)
    width = np.maximum.reduceat(np.maximum(e0, e1), heads) - first + 1
    size = int(width.sum())
    if size >= EDGE_TABLE_SHARE * 2 * len(c):
        return 0.5 * (_erf_of(hi, p, beta) - _erf_of(lo, p, beta))
    # Edge j of a point's window sits at table slot shift + j.
    shift = np.cumsum(width) - width - first
    table = _erf_of(
        edges[np.arange(size) - np.repeat(shift, width)],
        np.repeat(p[heads], width),
        beta,
    )
    slot = np.repeat(shift, runs)
    return 0.5 * (table[slot + e1] - table[slot + e0])


def _kept_entries(
    points: np.ndarray,
    shots: Sequence[Shot],
    psf: DoubleGaussianPSF,
    cutoff_factor: float,
    block: int = 256,
    term: str = "full",
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The exposure matrix as its within-cutoff entries.

    Yields 1-D ``(rows, cols, values)`` triplets with ``values[k]`` the
    level at point ``rows[k]`` from shot ``cols[k]`` at unit dose, for
    exactly the pairs within ``cutoff_factor · σ`` (plus the shot's half
    diagonal) of each other — the far tail is treated as constant.  The
    one sweep behind every backend, a neighbour join: the shot centres
    are sorted once under a row-major cell key (a cell is a third of the
    longest reach), and each block of ``block`` sample points takes its
    candidate shots as one key range per cell row its window spans.  The
    distance test runs on those candidates only, and the α products on
    the kept pairs :func:`_alpha_integral` cannot settle without erf.
    The β factors come per axis from :func:`_beta_axis`: one erf per
    sample point and distinct shot edge in the point's window, where
    that table is well below the kept pairs' own arguments, and the
    pairs' arguments otherwise.  Every erf goes through :func:`_erf_of`
    on the same floats either way, so elementwise the arithmetic matches
    :func:`trapezoid_exposure`.

    ``term`` selects the PSF component: ``"full"`` is the double
    Gaussian (σ = β); ``"forward"`` only the α term
    ``scale · fwd / (1 + η)`` within ``cutoff_factor · α`` — the sharp
    short-range part the hybrid operator keeps exact.

    Each pair is emitted once, and the order is not part of the
    contract: the dense sink scatters, and ``csr_matrix((v, (r, c)))``
    sorts the column indices of every row, so the CSR layout (and every
    sparse row sum) is the same for any emission order.
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
    far = float(reach.max())
    ox, oy = float(cx.min()), float(cy.min())
    # No cell so small that a key (< 2**61) could leave int64.
    span = max(float(cx.max()) - ox, float(cy.max()) - oy)
    cell = max(far / 3.0, span / 2.0**30, 1e-9)

    def cell_of(v, origin, n):
        # Monotone in v, so a window edge never passes a centre it covers.
        return np.clip(np.floor((v - origin) / cell), -1, n).astype(np.int64)

    sx, sy = cell_of(cx, ox, 2**31), cell_of(cy, oy, 2**31)
    nx, ny = int(sx.max()) + 1, int(sy.max()) + 1
    keys = sy * nx + sx
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    cx_key, cy_key, reach_key = cx[order], cy[order], reach[order]
    # A few ulps of slack: the exact test measures rounded differences,
    # and the window's own arithmetic rounds too.
    pad = far + 4.0 * np.finfo(float).eps * (far + float(np.abs(points).max()))
    if term == "full":
        x_axis, y_axis = _edge_ranks(x0, x1), _edge_ranks(y0, y1)
    for i0 in range(0, len(points), block):
        px, py = px_all[i0 : i0 + block], py_all[i0 : i0 + block]
        x_lo = np.maximum(cell_of(px - pad, ox, nx), 0)
        x_hi = np.minimum(cell_of(px + pad, ox, nx), nx - 1)
        y_lo = np.maximum(cell_of(py - pad, oy, ny), 0)
        y_hi = np.minimum(cell_of(py + pad, oy, ny), ny - 1)
        spans = np.where(x_lo <= x_hi, np.maximum(y_hi - y_lo + 1, 0), 0)
        who = np.repeat(np.arange(len(px)), spans)
        row = _ranges(y_lo, spans) * nx
        first = np.searchsorted(keys, row + x_lo[who], "left")
        counts = np.searchsorted(keys, row + x_hi[who], "right") - first
        r = np.repeat(who, counts)
        k = _ranges(first, counts)
        near = np.hypot(px[r] - cx_key[k], py[r] - cy_key[k]) <= reach_key[k]
        r, c = r[near], order[k[near]]
        pair = (px[r], py[r], x0[c], x1[c], y0[c], y1[c])
        level = _alpha_integral(*pair, psf.alpha)
        if term == "full":
            runs = np.bincount(r, minlength=len(px))
            runs = runs[runs > 0]
            heads = np.cumsum(runs) - runs
            ax = _beta_axis(pair[0], pair[2], pair[3], c, heads, runs, x_axis, psf.beta)
            ay = _beta_axis(pair[1], pair[4], pair[5], c, heads, runs, y_axis, psf.beta)
            level = level + psf.eta * (ax * ay)
        yield r + i0, c, scale[c] * (level / norm)


def _exposure_matrix(
    points: np.ndarray,
    shots: Sequence[Shot],
    psf: DoubleGaussianPSF,
    cutoff_factor: float,
    block: int = 256,
) -> np.ndarray:
    """Dense exposure matrix ``K[p, j]`` = level at point p from shot j
    at unit dose: :func:`_kept_entries` scattered into zeros (each
    point is in one block and meets each shot at most once, so no pair
    repeats).  The zeros are one private anonymous mapping advised off
    huge pages, so only the 4 KiB pages the scatter writes are backed
    and every other page reads as the kernel's zero page.  Assembly and
    resident memory scale with the kept entries; the logical size (what
    ``matrix_nbytes`` reports) and the full-width matvec are
    ``n_points × n_shots`` doubles regardless."""
    shape = (len(points), len(shots))
    size = shape[0] * shape[1]
    if size == 0:
        return np.zeros(shape)  # mmap refuses length 0
    try:
        pages = mmap.mmap(-1, 8 * size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    except OSError as error:
        if error.errno != errno.ENOMEM:
            raise
        raise ValueError(
            f"the dense exposure matrix of one shard, {shape[0]} points x "
            f"{shape[1]} shots, needs {size * 8 / 2**30:.1f} "
            f"GiB and does not fit in memory: split the layout into smaller "
            f"shards (--field-size) or store only the within-cutoff entries "
            f"(--pec-matrix sparse)"
        ) from None
    try:
        # A huge page is backed whole on its first write.
        pages.madvise(mmap.MADV_NOHUGEPAGE)
    except OSError:
        pass  # EINVAL: a kernel without transparent huge pages
    matrix = np.frombuffer(pages, dtype=float, count=size).reshape(shape)
    for rows, cols, values in _kept_entries(
        points, shots, psf, cutoff_factor, block
    ):
        matrix.reshape(-1)[rows * shape[1] + cols] = values
    return matrix


def _exposure_matrix_csr(
    points: np.ndarray,
    shots: Sequence[Shot],
    psf: DoubleGaussianPSF,
    cutoff_factor: float,
    block: int = 256,
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


def interaction_matrix_at_points(
    points: np.ndarray,
    shots: Sequence[Shot],
    psf: DoubleGaussianPSF,
    cutoff_factor: float = 4.0,
) -> np.ndarray:
    """Exposure matrix K with ``K[p, j]`` = level at point p from shot j
    at unit dose, entries beyond ``cutoff_factor · β`` pruned."""
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
