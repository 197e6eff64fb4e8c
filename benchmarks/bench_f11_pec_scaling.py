"""F11 — Sparse/hybrid PEC engine scaling.

The dense exposure matrix is ``n_points × n_shots`` doubles, and its
full-width matvec dominates cold-run time beyond a few thousand shots;
its *assembly* does not — every backend is built by one sweep that
evaluates only the within-cutoff pairs (:func:`repro.pec.base._kept_entries`),
so what dense pays beyond sparse is storage and the full-width matvec.
This experiment measures the three exposure-operator backends
(:mod:`repro.pec.operator`) on a VSB-style grating whose shot count
scales into the tens of thousands:

* **speed** — full ``IterativeDoseCorrector.correct`` wall clock per
  backend;
* **memory** — operator matrix storage, ``matrix_nbytes`` (dense
  ndarray vs. CSR arrays vs. hybrid CSR + grid).  The dense figure is
  the logical ``n_points × n_shots × 8`` bytes: the matrix is an
  anonymous mapping, so only the pages its entries are written to are
  resident, and the matvec reads the rest as the kernel's zero page;
* **work** — per exact backend, ``pairs`` (points × shots), ``kept``
  (within-cutoff entries), ``alpha_unsettled`` (kept pairs whose α erf
  arguments are not saturated enough to fix the product),
  ``beta_arguments`` (the β erf arguments the kept pairs imply: per
  block of 256 sample points and per axis, the edge table of each
  point's window of distinct shot edges where it holds fewer than
  ``EDGE_TABLE_SHARE`` of the two arguments per kept pair, those
  otherwise) and ``evaluated`` (arguments handed to erf, per PSF term):
  the sweep must evaluate β on exactly ``beta_arguments``, fewer than
  the kept pairs' own four, and α on the four of each unsettled pair;
* **equivalence** — the sparse matrix must equal the dense one *bit for
  bit* (tolerance 0: same nonzero pattern, same values), sparse doses
  must match the dense doses' canonical 9-digit dose digest (matvec
  summation order is the only difference), and hybrid-corrected
  printed CDs on the F1/F2-style workloads must stay within 0.5 % of
  the dense-corrected reference.

In ``--quick`` mode (the CI bench-smoke job) the 5k-shot case must show
sparse no slower than dense and sparse matrix memory at ≤ 1/20 of the
dense baseline's logical size; ``evaluated["beta"] == beta_arguments <
4 * kept`` and ``evaluated["alpha"] == 4 * alpha_unsettled <= 4 * kept``
are asserted for both exact modes in every case — counts that repeat
exactly, where the timing floor alone would let the pruning rot on a
fast runner.
"""

import contextlib
import time

import numpy as np

from repro.analysis.tables import Table
from repro.core.job import MachineJob
from repro.fracture.shots import ShotFracturer
from repro.fracture.trapezoidal import TrapezoidFracturer
from repro.geometry.polygon import Polygon
from repro.geometry.rasterize import RasterFrame
from repro.pec import base
from repro.pec.base import shot_sample_points
from repro.pec.dose_iter import IterativeDoseCorrector
from repro.pec.operator import build_exposure_operator
from repro.physics.exposure import ExposureSimulator, shot_dose_map
from repro.physics.metrology import measure_linewidth
from repro.physics.psf import DoubleGaussianPSF

PSF = DoubleGaussianPSF(alpha=0.2, beta=2.0, eta=0.74)
SPEEDUP_FLOOR = 5.0
MEMORY_FLOOR = 20.0
CD_TOLERANCE = 0.005


def vsb_grating_shots(lines: int, length: float):
    """A large line/space grating fractured into ≤2 µm VSB shots."""
    polys = [
        Polygon.rectangle(i * 2.0, 0.0, i * 2.0 + 1.0, length)
        for i in range(lines)
    ]
    return ShotFracturer(max_shot=2.0).fracture_to_shots(polys)


def scaling_cases(quick: bool):
    if quick:
        return [("5k", vsb_grating_shots(100, 100.0))]
    return [
        ("5k", vsb_grating_shots(100, 100.0)),
        ("20k", vsb_grating_shots(200, 200.0)),
    ]


def dose_digest(shots) -> str:
    """Canonical 9-significant-digit digest of the dose map."""
    return MachineJob(list(shots), name="f11").dose_digest()


@contextlib.contextmanager
def erf_elements():
    """Count the arguments handed to erf per PSF term
    (``{"alpha": n, "beta": n}``) while the context is open, at
    ``_erf_of``, the one erf call of the sweep."""
    counts = {}
    names = {PSF.alpha: "alpha", PSF.beta: "beta"}
    erf_of = base._erf_of

    def counted(edge, p, sigma):
        size = np.broadcast(edge, p).size
        counts[names[sigma]] = counts.get(names[sigma], 0) + size
        return erf_of(edge, p, sigma)

    base._erf_of = counted
    try:
        yield counts
    finally:
        base._erf_of = erf_of


def beta_arguments(n_points, shots, rows, cols, block=256) -> int:
    """β erf arguments the kept pairs ``(rows[k], cols[k])`` imply for a
    sweep in blocks of ``block`` points: per block and axis, the edge
    table (per point, every distinct shot edge from the lowest to the
    highest its pairs touch; −0.0 apart from 0.0) if it holds fewer than
    ``EDGE_TABLE_SHARE`` of the two arguments per pair, those if not."""
    x0, y0, x1, y1, _ = base._shot_bbox_arrays(shots)
    total = 0
    for lo, hi in ((x0, x1), (y0, y1)):
        both = np.concatenate((lo, hi))
        bits = both.view(np.int64)
        order = np.where(bits < 0, bits ^ np.int64(2**63 - 1), bits)
        distinct, rank = np.unique(order, return_inverse=True)
        rank_lo, rank_hi = rank[: len(lo)][cols], rank[len(lo) :][cols]
        first = np.full(n_points, len(distinct))
        last = np.full(n_points, -1)
        np.minimum.at(first, rows, np.minimum(rank_lo, rank_hi))
        np.maximum.at(last, rows, np.maximum(rank_lo, rank_hi))
        width = np.where(last >= 0, last - first + 1, 0)
        starts = np.arange(0, n_points, block)
        table = np.add.reduceat(width, starts)
        direct = 2 * np.bincount(rows // block, minlength=len(starts))
        guarded = table < base.EDGE_TABLE_SHARE * direct
        total += int(np.where(guarded, table, direct).sum())
    return total


def unsettled_alpha_pairs(points, shots, rows, cols) -> int:
    """Kept pairs ``(rows[k], cols[k])`` whose α product saturation
    leaves open: neither axis has both arguments ``(edge − p)/α`` past
    :data:`~repro.pec.base.ERF_SATURATION` on one side (a factor 0.0),
    and not all four are past it (each factor 1.0)."""
    x0, y0, x1, y1, _ = base._shot_bbox_arrays(shots)
    px, py = points[rows, 0], points[rows, 1]
    ux1, ux0 = (x1[cols] - px) / PSF.alpha, (x0[cols] - px) / PSF.alpha
    uy1, uy0 = (y1[cols] - py) / PSF.alpha, (y0[cols] - py) / PSF.alpha
    s = base.ERF_SATURATION
    flat = (ux0 >= s) | (ux1 <= -s) | (uy0 >= s) | (uy1 <= -s)
    across = (ux1 >= s) & (ux0 <= -s) & (uy1 >= s) & (uy0 <= -s)
    return int(np.count_nonzero(~flat & ~across))


def run_scaling(quick: bool):
    table = Table(
        [
            "case",
            "shots",
            "mode",
            "correct [s]",
            "speedup",
            "matrix [MB]",
            "mem ratio",
        ],
        title=f"F11: PEC exposure-operator scaling (quick={quick})",
    )
    records = []
    checks = {}
    for case, shots in scaling_cases(quick):
        points = shot_sample_points(shots, "centroid")
        times = {}
        nbytes = {}
        digests = {}
        work = {}
        for mode in ("dense", "sparse", "hybrid"):
            corrector = IterativeDoseCorrector(matrix_mode=mode)
            start = time.perf_counter()
            corrected = corrector.correct(shots, PSF)
            times[mode] = time.perf_counter() - start
            digests[mode] = dose_digest(corrected)
            with erf_elements() as evaluated:
                operator = build_exposure_operator(
                    points, shots, PSF, mode=mode
                )
            nbytes[mode] = operator.matrix_nbytes
            if mode != "hybrid":
                if mode == "dense":
                    rows, cols = np.nonzero(operator.matrix)
                else:
                    stored = operator.matrix.tocoo()
                    rows, cols = stored.row, stored.col
                work[mode] = {
                    "pairs": operator.shape[0] * operator.shape[1],
                    "kept": len(rows),
                    "alpha_unsettled": unsettled_alpha_pairs(
                        points, shots, rows, cols
                    ),
                    "beta_arguments": beta_arguments(
                        len(points), shots, rows, cols
                    ),
                    "evaluated": evaluated,
                }
            if mode == "sparse" and case == "5k":
                dense_ref = build_exposure_operator(
                    points, shots, PSF, mode="dense"
                )
                equal = np.array_equal(
                    operator.matrix.toarray(), dense_ref.matrix
                )
                checks["sparse_matrix_bit_identical"] = bool(equal)
                del dense_ref
            del operator
        for mode in ("dense", "sparse", "hybrid"):
            speedup = times["dense"] / times[mode]
            ratio = nbytes["dense"] / max(nbytes[mode], 1)
            table.add_row(
                [
                    case,
                    len(shots),
                    mode,
                    times[mode],
                    f"{speedup:.1f}x",
                    nbytes[mode] / 1e6,
                    f"{ratio:.0f}x",
                ]
            )
            records.append(
                {
                    "case": case,
                    "shots": len(shots),
                    "mode": mode,
                    "correct_s": times[mode],
                    "speedup_vs_dense": speedup,
                    "matrix_bytes": nbytes[mode],
                    "memory_ratio_vs_dense": ratio,
                    "dose_digest": digests[mode],
                    **work.get(mode, {}),
                }
            )
        checks.setdefault("dose_digest_match", {})[case] = (
            digests["sparse"] == digests["dense"]
        )
        checks.setdefault("speedup", {})[case] = (
            times["dense"] / times["sparse"]
        )
        checks.setdefault("memory_ratio", {})[case] = nbytes[
            "dense"
        ] / max(nbytes["sparse"], 1)
        checks.setdefault("erf_per_term", {})[case] = all(
            w["evaluated"]["beta"] == w["beta_arguments"] < 4 * w["kept"]
            and w["evaluated"]["alpha"] == 4 * w["alpha_unsettled"] <= 4 * w["kept"]
            for w in work.values()
        )
    return table.render(), records, checks


# -- hybrid accuracy on the F1/F2 workloads -----------------------------

CD_PSF = DoubleGaussianPSF(alpha=0.12, beta=2.0, eta=0.74)
CD_PAD = 14.0
CD_THRESHOLD = 0.5


def f1_density_pattern(density: float):
    """The F1 test pattern: a 0.6 µm line in a grating of given duty."""
    pitch = 1.5
    lines = int(CD_PAD / pitch)
    polys = []
    center_index = lines // 2
    center_x = None
    for i in range(lines):
        x = i * pitch
        if i == center_index:
            width = 0.6
            center_x = x + width / 2
        else:
            width = pitch * density
        if width > 0:
            polys.append(Polygon.rectangle(x, 0, x + width, CD_PAD))
    return polys, center_x


def f2_workloads():
    """The F2 convergence workloads: isolated line + pad, dense grating."""
    line_and_pad = [
        Polygon.rectangle(0, 0, 10, CD_PAD),
        Polygon.rectangle(12, 0, 12.6, CD_PAD),
    ]
    grating = [
        Polygon.rectangle(i * 1.2, 0, i * 1.2 + 0.8, CD_PAD)
        for i in range(10)
    ]
    return [
        ("f2_line_pad", line_and_pad, 12.3),
        ("f2_grating", grating, 5 * 1.2 + 0.4),
    ]


def printed_cd(shots, center_x):
    bbox = (0, 0, CD_PAD, CD_PAD)
    frame = RasterFrame.around(bbox, 0.05, margin=6.0)
    sim = ExposureSimulator(CD_PSF, frame)
    image = sim.absorbed_energy(shot_dose_map(shots, frame))
    return measure_linewidth(
        image, frame, CD_THRESHOLD, cut_y=CD_PAD / 2, near_x=center_x
    )


def run_hybrid_cd():
    table = Table(
        ["workload", "dense CD [µm]", "hybrid CD [µm]", "error"],
        title="F11a: hybrid-corrected printed CD vs. dense (F1/F2)",
    )
    cases = []
    for density in (0.0, 0.4, 0.8):
        polys, center_x = f1_density_pattern(density)
        cases.append((f"f1_density_{density:.0%}", polys, center_x))
    cases.extend(f2_workloads())
    records = []
    worst = 0.0
    fracturer = TrapezoidFracturer()
    for name, polys, center_x in cases:
        shots = fracturer.fracture_to_shots(polys)
        dense_cd = printed_cd(
            IterativeDoseCorrector(matrix_mode="dense").correct(
                shots, CD_PSF
            ),
            center_x,
        )
        hybrid_cd = printed_cd(
            IterativeDoseCorrector(matrix_mode="hybrid").correct(
                shots, CD_PSF
            ),
            center_x,
        )
        error = abs(hybrid_cd - dense_cd) / dense_cd
        worst = max(worst, error)
        table.add_row(
            [name, f"{dense_cd:.4f}", f"{hybrid_cd:.4f}", f"{error:.3%}"]
        )
        records.append(
            {
                "workload": name,
                "dense_cd_um": dense_cd,
                "hybrid_cd_um": hybrid_cd,
                "relative_error": error,
            }
        )
    return table.render(), records, worst


def test_f11_pec_scaling(save_table, quick):
    text, records, checks = run_scaling(quick)
    save_table(
        "f11_pec_scaling", text, data={"runs": records, "checks": checks}
    )
    assert checks["sparse_matrix_bit_identical"], (
        "sparse CSR entries diverged from the dense matrix"
    )
    for case, match in checks["dose_digest_match"].items():
        assert match, (
            f"{case}: sparse dose digest diverged from dense "
            "(beyond matvec summation order)"
        )
    for case, ratio in checks["memory_ratio"].items():
        assert ratio >= MEMORY_FLOOR, (
            f"{case}: sparse matrix memory only {ratio:.1f}x below dense "
            f"(floor {MEMORY_FLOOR}x)"
        )
    for case, exact in checks["erf_per_term"].items():
        # Counts, so they repeat exactly on any runner: the sweep hands
        # erf the β arguments its kept pairs and guarded edge tables
        # imply, the four α arguments of each pair saturation leaves
        # open, and nothing else.
        assert exact, (
            f"{case}: an exact backend evaluated erf beyond the β "
            f"arguments of its kept pairs or the unsettled α pairs: "
            f"{[r for r in records if 'kept' in r]}"
        )
    if quick:
        # CI bench-smoke gate: sparse must never regress behind dense.
        assert checks["speedup"]["5k"] >= 1.0, (
            f"sparse slower than dense on the 5k case: "
            f"{checks['speedup']['5k']:.2f}x"
        )
    else:
        assert checks["speedup"]["20k"] >= SPEEDUP_FLOOR, (
            f"expected >= {SPEEDUP_FLOOR}x sparse speedup at 20k shots, "
            f"got {checks['speedup']['20k']:.2f}x"
        )


def test_f11_hybrid_cd_accuracy(save_table):
    text, records, worst = run_hybrid_cd()
    save_table(
        "f11a_hybrid_cd",
        text,
        data={"workloads": records, "worst_error": worst},
    )
    assert worst <= CD_TOLERANCE, (
        f"hybrid CD error {worst:.3%} exceeds {CD_TOLERANCE:.1%}"
    )
