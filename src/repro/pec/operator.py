"""Exposure operators: dense, sparse and hybrid PEC backends.

The proximity correctors need one linear map — "shot doses → absorbed
level at sample points" — but at very different scales.  This module
gives that map a common protocol, :class:`ExposureOperator`, with three
interchangeable backends selected by a ``matrix_mode`` knob:

``dense``
    The historical ``(n_points, n_shots)`` ndarray — the kept entries
    scattered into zeros.  Bit-for-bit the seed behaviour (it *is* the
    same matrix and the same BLAS matvec), but memory scales as
    ``n_points × n_shots`` — a 50k-shot shard with edge sampling costs
    ~40 GB, and a matrix that cannot be allocated is a ``ValueError``
    naming the two ways out (smaller shards, ``sparse``).

``sparse``
    CSR storage of exactly the within-cutoff entries.  The
    ``cutoff_factor · β`` pruning already zeroes the vast majority of
    the dense matrix; storing only the survivors cuts memory to the
    interaction count.  The entries are the ones the dense backend
    scatters, so ``csr.toarray()`` equals the dense matrix bit for bit;
    only the *summation order* of a matvec differs (CSR row sums vs.
    BLAS), i.e. applied exposures agree to the last ulp and canonical
    9-digit dose digests are identical.

``hybrid``
    The classic short-range/long-range split: the sharp forward-scatter
    α term stays exact (a tight-cutoff CSR of erf products), while the
    smooth backscatter β·η term is evaluated on a coarse grid — shot
    energy is scattered area-weighted onto grid cells (2×2 Gauss points
    per shot, bilinear deposit), convolved with the pixel-integrated β
    Gaussian by FFT, and gathered back bilinearly at the sample points.
    Memory and time become essentially independent of the backscatter
    interaction count; accuracy is set by the grid cell (default β/4).

One sweep assembles the matrix of every backend (hybrid's is its
forward term) — :func:`repro.pec.base._kept_entries`: sample points in
blocks of 256, each point's candidate shots read off a sorted cell index
over the shot centres, the distance test on those candidates only, the
α erf products only on kept pairs whose arguments are not saturated,
and the β factors from one erf per point and distinct shot edge in its
window where that table is well below the kept pairs' own arguments
(from those arguments where it is not).  Assembly therefore scales with
the interaction count in every mode; the backends differ in what they store
and how they apply it.  The order the sweep emits entries in does not
matter: ``csr_matrix((v, (r, c)))`` sorts each row's column indices, so
the CSR layout, and with it every sparse row sum, is fixed by the
entries alone.

All three support ``operator @ doses`` (the iterative corrector's inner
loop) and ``operator.solve(rhs)`` (the one-shot matrix corrector), and
report their storage through ``matrix_nbytes`` so benchmarks can track
the memory trajectory.
"""

from __future__ import annotations

import abc
import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.recipe import MATRIX_MODES, choice, require
from repro.fracture.base import Shot, shot_rows
from repro.pec.base import _exposure_matrix, _exposure_matrix_csr, _shot_bbox_arrays
from repro.physics.psf import DoubleGaussianPSF, convolve_same

#: Forward-term cutoff of the hybrid split, in units of α.  erf products
#: decay like exp(−(r/α)²), so 4 α keeps the neglected tail below 1e−6.
ALPHA_CUTOFF_FACTOR = 4.0

#: Hybrid grid cell in units of β when no explicit cell is given.
DEFAULT_GRID_CELL_FACTOR = 0.25

#: Backscatter kernel / grid margin reach in units of β.
GRID_REACH_FACTOR = 4.0

#: Scatter panel size in units of β: shot bounding boxes are subdivided
#: into panels no larger than this before Gauss-point deposition, so
#: shots large against the backscatter range (full-height fracture
#: trapezoids) are still represented by a smooth area density.
PANEL_FACTOR = 0.5


class ExposureOperator(abc.ABC):
    """Linear map from shot doses to absorbed levels at sample points.

    The protocol every PEC backend implements: apply (``@``), solve, and
    storage accounting.  ``shape`` is ``(n_points, n_shots)``.
    """

    #: Backend name (one of :data:`MATRIX_MODES`).
    mode: str
    shape: Tuple[int, int]

    @abc.abstractmethod
    def apply(self, doses: np.ndarray) -> np.ndarray:
        """Absorbed level at every sample point for a dose vector."""

    @abc.abstractmethod
    def solve(
        self, rhs: np.ndarray, regularization: float = 0.0
    ) -> np.ndarray:
        """Dose vector whose exposure best matches ``rhs``.

        Square systems are solved directly; rank-deficient or
        rectangular ones fall back to a least-squares solution.
        ``regularization`` adds a Tikhonov term on the diagonal.
        """

    @property
    @abc.abstractmethod
    def matrix_nbytes(self) -> int:
        """Bytes held by the operator's matrix/grid storage."""

    def __matmul__(self, doses: np.ndarray) -> np.ndarray:
        return self.apply(np.asarray(doses, dtype=float))


class DenseExposureOperator(ExposureOperator):
    """The historical dense matrix, wrapped in the operator protocol.

    ``apply`` is exactly ``matrix @ doses`` and ``solve`` exactly the
    seed ``np.linalg.solve``-with-lstsq-fallback, so default-mode
    results are bit-identical to the pre-operator code paths.
    """

    mode = "dense"

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = matrix
        self.shape = matrix.shape

    def apply(self, doses: np.ndarray) -> np.ndarray:
        return self.matrix @ doses

    def solve(
        self, rhs: np.ndarray, regularization: float = 0.0
    ) -> np.ndarray:
        matrix = self.matrix
        n_points, n_shots = self.shape
        if regularization > 0 and n_points == n_shots:
            matrix = matrix + regularization * np.eye(n_shots)
        if n_points == n_shots:
            try:
                return np.linalg.solve(matrix, rhs)
            except np.linalg.LinAlgError:
                pass
        doses, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
        return doses

    @property
    def matrix_nbytes(self) -> int:
        return self.matrix.nbytes


class SparseExposureOperator(ExposureOperator):
    """CSR exposure matrix holding only the within-cutoff entries."""

    mode = "sparse"

    def __init__(self, matrix) -> None:
        self.matrix = matrix
        self.shape = matrix.shape

    def apply(self, doses: np.ndarray) -> np.ndarray:
        return self.matrix @ doses

    def solve(
        self, rhs: np.ndarray, regularization: float = 0.0
    ) -> np.ndarray:
        from scipy.sparse import identity
        from scipy.sparse.linalg import lsqr, spsolve

        matrix = self.matrix
        n_points, n_shots = self.shape
        if regularization > 0 and n_points == n_shots:
            matrix = matrix + regularization * identity(
                n_shots, format="csr"
            )
        if n_points == n_shots:
            try:
                with np.errstate(all="ignore"):
                    doses = spsolve(matrix.tocsc(), rhs)
                if np.all(np.isfinite(doses)):
                    return np.asarray(doses)
            except Exception:
                pass
        return lsqr(matrix, rhs, atol=1e-12, btol=1e-12)[0]

    @property
    def matrix_nbytes(self) -> int:
        m = self.matrix
        return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes


def _bilinear_stencil(
    x: np.ndarray,
    y: np.ndarray,
    origin: Tuple[float, float],
    cell: float,
    nx: int,
    ny: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Bilinear weights of scattered positions on a cell-centre grid.

    Returns ``(nodes, weights)`` of shape ``(len(x), 4)`` — the four
    flat node indices around each position and their weights (sum 1).
    Positions are clamped half a cell inside the grid so every stencil
    is valid; the grid is built with enough margin that clamping only
    ever touches round-off at the border.
    """
    fx = (x - origin[0]) / cell - 0.5
    fy = (y - origin[1]) / cell - 0.5
    fx = np.clip(fx, 0.0, nx - 1.000001)
    fy = np.clip(fy, 0.0, ny - 1.000001)
    ix = np.floor(fx).astype(np.intp)
    iy = np.floor(fy).astype(np.intp)
    wx = fx - ix
    wy = fy - iy
    nodes = np.stack(
        [
            iy * nx + ix,
            iy * nx + ix + 1,
            (iy + 1) * nx + ix,
            (iy + 1) * nx + ix + 1,
        ],
        axis=1,
    )
    weights = np.stack(
        [
            (1.0 - wx) * (1.0 - wy),
            wx * (1.0 - wy),
            (1.0 - wx) * wy,
            wx * wy,
        ],
        axis=1,
    )
    return nodes, weights


def _beta_cell_kernel(
    beta: float, cell: float, reach_factor: float = GRID_REACH_FACTOR
) -> np.ndarray:
    """Cell-integrated backscatter Gaussian stencil.

    ``K[dy, dx] = ∫_cell exp(−r²/β²) / (π β²)`` over the cell displaced
    by ``(dx, dy)`` cells — erf-difference products, so narrow kernels
    are never undersampled.  Sums to ~1 over its ``reach_factor · β``
    support.
    """
    from scipy.special import erf

    half = max(1, int(math.ceil(reach_factor * beta / cell)))
    edges = (np.arange(-half, half + 2) - 0.5) * cell
    cdf = 0.5 * (1.0 + erf(edges / beta))
    one_d = np.diff(cdf)
    return np.outer(one_d, one_d)


class HybridExposureOperator(ExposureOperator):
    """Short-range-exact / long-range-gridded exposure operator.

    ``apply`` = exact α-term CSR matvec plus the β·η term evaluated as
    scatter → FFT convolution → gather on a coarse grid:

    * scatter: each shot's bounding box is subdivided into panels no
      larger than ``β/2`` per axis, and each panel deposits its share of
      the shot area at its 2×2 Gauss–Legendre points (bilinear), so the
      bbox-uniform density the dense model assumes is matched through
      its third moments panel by panel — accurate for 2 µm VSB shots
      and 14 µm fracture strips alike;
    * convolve: pixel-integrated β Gaussian, one FFT per apply;
    * gather: bilinear interpolation of the convolved background at the
      sample points.

    The operator is linear in the dose vector by construction, so it
    drops into the same iterative/matrix correctors as the exact
    backends.  ``grid_cell`` (default ``β/4``) trades accuracy for grid
    size.

    ``cutoff_factor`` (in units of β, like the exact backends) widens
    the backscatter kernel/grid reach beyond its ``4 β`` default when a
    caller asks for a wider truncation; the forward term's cutoff is
    fixed at ``4 α`` — the whole point of the split is that the α term
    is negligible beyond that.
    """

    mode = "hybrid"

    def __init__(
        self,
        points: np.ndarray,
        shots: Sequence[Shot],
        psf: DoubleGaussianPSF,
        cutoff_factor: float = 4.0,
        grid_cell: Optional[float] = None,
    ) -> None:
        from scipy.sparse import csr_matrix

        n_points = len(points)
        n_shots = len(shots)
        self.shape = (n_points, n_shots)
        self.psf = psf
        self.forward = _exposure_matrix_csr(
            points, shots, psf, ALPHA_CUTOFF_FACTOR, term="forward"
        )
        cell = (
            float(grid_cell)
            if grid_cell is not None
            else DEFAULT_GRID_CELL_FACTOR * psf.beta
        )
        if cell <= 0:
            raise ValueError("grid_cell must be positive")
        self.grid_cell = cell
        if n_points == 0 or n_shots == 0:
            self._scatter = csr_matrix((0, n_shots))
            self._gather = csr_matrix((n_points, 0))
            self._kernel = np.zeros((1, 1))
            self._grid_shape = (0, 0)
            return
        x0, y0, x1, y1, _ = _shot_bbox_arrays(shots)
        yb, yt, xbl, xbr, xtl, xtr = shot_rows(shots)[:, :6].T
        areas = 0.5 * ((xbr - xbl) + (xtr - xtl)) * (yt - yb)
        reach_factor = max(GRID_REACH_FACTOR, cutoff_factor)
        margin = reach_factor * psf.beta + 2.0 * cell
        gx0 = min(float(x0.min()), float(points[:, 0].min())) - margin
        gy0 = min(float(y0.min()), float(points[:, 1].min())) - margin
        gx1 = max(float(x1.max()), float(points[:, 0].max())) + margin
        gy1 = max(float(y1.max()), float(points[:, 1].max())) + margin
        nx = max(2, int(math.ceil((gx1 - gx0) / cell)) + 1)
        ny = max(2, int(math.ceil((gy1 - gy0) / cell)) + 1)
        self._grid_shape = (ny, nx)
        origin = (gx0, gy0)
        # Panelize each bounding box to ≤ β/2 per axis, then deposit
        # every panel's area share at its 2×2 Gauss points.
        panel = PANEL_FACTOR * psf.beta
        width = x1 - x0
        height = y1 - y0
        kx = np.maximum(1, np.ceil(width / panel).astype(np.intp))
        ky = np.maximum(1, np.ceil(height / panel).astype(np.intp))
        panels = kx * ky
        total = int(panels.sum())
        shot_of = np.repeat(np.arange(n_shots), panels)
        starts = np.concatenate(([0], np.cumsum(panels)[:-1]))
        local = np.arange(total) - np.repeat(starts, panels)
        kx_rep = kx[shot_of]
        col = local % kx_rep
        row = local // kx_rep
        pw = (width / kx)[shot_of]
        ph = (height / ky)[shot_of]
        pcx = x0[shot_of] + (col + 0.5) * pw
        pcy = y0[shot_of] + (row + 0.5) * ph
        off_x = pw / (2.0 * math.sqrt(3.0))
        off_y = ph / (2.0 * math.sqrt(3.0))
        sx = np.concatenate(
            [pcx - off_x, pcx + off_x, pcx - off_x, pcx + off_x]
        )
        sy = np.concatenate(
            [pcy - off_y, pcy - off_y, pcy + off_y, pcy + off_y]
        )
        shot_of = np.tile(shot_of, 4)
        nodes, weights = _bilinear_stencil(sx, sy, origin, cell, nx, ny)
        mass = (areas / panels / 4.0)[shot_of]
        self._scatter = csr_matrix(
            (
                (weights * mass[:, None]).ravel(),
                (
                    nodes.ravel(),
                    np.repeat(shot_of, 4),
                ),
            ),
            shape=(nx * ny, n_shots),
        )
        p_nodes, p_weights = _bilinear_stencil(
            points[:, 0], points[:, 1], origin, cell, nx, ny
        )
        self._gather = csr_matrix(
            (
                p_weights.ravel(),
                (
                    np.repeat(np.arange(n_points), 4),
                    p_nodes.ravel(),
                ),
            ),
            shape=(n_points, nx * ny),
        )
        self._kernel = _beta_cell_kernel(psf.beta, cell, reach_factor)
        # Back level = Σ mass · (cell-avg Gaussian); the kernel holds
        # cell integrals, hence the 1/cell² — times the η/(1+η) weight
        # of the backscatter term in the normalized double Gaussian.
        self._coeff = psf.eta / (1.0 + psf.eta) / cell**2

    def _convolve(self, image: np.ndarray) -> np.ndarray:
        return convolve_same(image, self._kernel)

    def apply(self, doses: np.ndarray) -> np.ndarray:
        exposure = self.forward @ doses
        if self.shape[0] == 0 or self.shape[1] == 0:
            return exposure
        ny, nx = self._grid_shape
        grid = (self._scatter @ doses).reshape(ny, nx)
        background = self._gather @ self._convolve(grid).ravel()
        return exposure + self._coeff * background

    def _rmatvec(self, levels: np.ndarray) -> np.ndarray:
        """Adjoint apply (the β kernel is symmetric, so the grid
        convolution is self-adjoint)."""
        out = self.forward.T @ levels
        if self.shape[0] == 0 or self.shape[1] == 0:
            return out
        ny, nx = self._grid_shape
        grid = (self._gather.T @ levels).reshape(ny, nx)
        out = out + self._coeff * (
            self._scatter.T @ self._convolve(grid).ravel()
        )
        return out

    def solve(
        self, rhs: np.ndarray, regularization: float = 0.0
    ) -> np.ndarray:
        from scipy.sparse.linalg import LinearOperator, lsqr

        n_points, n_shots = self.shape

        def matvec(d):
            out = self.apply(np.asarray(d, dtype=float))
            if regularization > 0 and n_points == n_shots:
                out = out + regularization * np.asarray(d, dtype=float)
            return out

        def rmatvec(y):
            out = self._rmatvec(np.asarray(y, dtype=float))
            if regularization > 0 and n_points == n_shots:
                out = out + regularization * np.asarray(y, dtype=float)
            return out

        operator = LinearOperator(
            self.shape, matvec=matvec, rmatvec=rmatvec, dtype=float
        )
        return lsqr(operator, rhs, atol=1e-10, btol=1e-10)[0]

    @property
    def matrix_nbytes(self) -> int:
        total = self._kernel.nbytes
        for m in (self.forward, self._scatter, self._gather):
            total += m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
        return total


def build_exposure_operator(
    points: np.ndarray,
    shots: Sequence[Shot],
    psf: DoubleGaussianPSF,
    cutoff_factor: float = 4.0,
    mode: str = "dense",
    grid_cell: Optional[float] = None,
) -> ExposureOperator:
    """Build the exposure operator for ``mode`` (see module docstring).

    The factory every corrector goes through; ``mode`` is validated
    here so a typo fails loudly at configuration time.
    """
    require(choice(MATRIX_MODES), "matrix_mode", mode)
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    if mode == "dense":
        return DenseExposureOperator(
            _exposure_matrix(points, shots, psf, cutoff_factor)
        )
    if mode == "sparse":
        return SparseExposureOperator(
            _exposure_matrix_csr(points, shots, psf, cutoff_factor)
        )
    return HybridExposureOperator(
        points, shots, psf, cutoff_factor=cutoff_factor, grid_cell=grid_cell
    )
