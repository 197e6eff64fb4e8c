"""A dense exposure matrix is resident only where its entries are.

The dense backend's matrix is ``n_points × n_shots`` doubles, but a
shot interacts only with the shots within the PSF's cutoff, so most of
a large shard's matrix is zeros the sweep never writes.  It lives in a
private anonymous mapping kept off huge pages: a page the scatter does
not write stays unbacked, and the matvec reads it as the kernel's one
zero page.  Here a banded matrix — one line of shots, each meeting its
four neighbours either side — is built and applied, and the process's
resident set (``/proc/self/statm``) may grow by at most half the
matrix's logical size.  Memory numpy allocates (huge pages from 4 MiB)
or a shared mapping (whose read faults allocate) is resident in full.

Run this file alone as well as in the suite: a warm process's freed
heap can absorb a resident-set delta.
"""

import os

import numpy as np

from repro.fracture.base import Shot
from repro.geometry.trapezoid import Trapezoid
from repro.pec.base import shot_sample_points
from repro.pec.operator import build_exposure_operator
from repro.physics.psf import DoubleGaussianPSF

PSF = DoubleGaussianPSF(alpha=0.2, beta=2.0, eta=0.74)


def resident_bytes():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def line_of_shots(count):
    """``count`` 1 µm squares on a 2 µm pitch along x."""
    return [
        Shot(Trapezoid(0.0, 1.0, x, x + 1.0, x, x + 1.0), 1.0)
        for x in np.arange(count) * 2.0
    ]


def test_a_banded_matrix_is_resident_only_where_it_is_written():
    # scipy.special and the sweep's own buffers come in on a small one.
    warm = line_of_shots(64)
    build_exposure_operator(shot_sample_points(warm), warm, PSF, mode="dense")
    shots = line_of_shots(2048)
    points = shot_sample_points(shots)
    before = resident_bytes()
    operator = build_exposure_operator(points, shots, PSF, mode="dense")
    levels = operator @ np.ones(len(shots))  # reads every page
    grown = resident_bytes() - before
    assert operator.matrix_nbytes >= 32 * 2**20  # the logical size
    assert np.count_nonzero(operator.matrix) <= 9 * len(shots)
    assert levels.min() > 0.0
    assert grown <= operator.matrix_nbytes / 2
