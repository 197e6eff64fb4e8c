"""Record agreement: the array consumers of the shot block against
scalar oracles written here.

Everything below a job's shot list — the digest fold, the ``.ebj`` and
``.ebp`` packers, the shard payload — reads one ``(N, 7)`` float64
block (:func:`repro.fracture.base.shot_rows`).  The oracles in this
file are the shot-by-shot ``struct.pack`` loops those array expressions
replaced, kept here (and only here) as the reference: equal bytes,
equal floats (``==``, never ``approx``) and the same error classes, on
shots chosen to sit on every rounding tie and range boundary.
"""

import hashlib
import pickle
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.executor import ExecutionStats, ShardResult, merge_shard_results
from repro.core.job import MachineJob, ShotFold
from repro.core.jobfile import (
    SHARD_PAYLOAD_VERSION,
    JobFileError,
    JobFileWriter,
    dumps_job,
    dumps_shard_result,
    loads_job,
    loads_shard_result,
)
from repro.fracture.base import Shot, shot_rows, shots_from_rows
from repro.fracture.quality import analyze_figures
from repro.geometry.scanline_fast import KernelFallbacks
from repro.geometry.trapezoid import Trapezoid
from repro.machine.program import MachineProgramError, lower_shot_segment

UNIT = 1e-3

# -- shots on the ties and the boundaries ------------------------------------

#: Half-count steps at ``UNIT``: every other value is a rounding tie.
_half_counts = st.integers(-4_000_000, 4_000_000).map(lambda n: n * 0.0005)
_extent = st.integers(0, 10_000).map(lambda n: n * 0.0005)
_slant = st.integers(-40_000, 40_000).map(lambda n: n * 0.0005)
_dose = st.integers(0, 4000).map(lambda n: n * 0.0005)
#: Around the int32 count limit (±2**31 counts = ±2147483.648 µm).
_edge_coordinate = st.sampled_from(
    [2147483.647, 2147483.6475, 2147483.648, 3.0e6]
).flatmap(lambda v: st.sampled_from([v, -v, -v - 0.001]))
#: Top-edge offsets around the int16 delta limit (+32767/−32768 counts).
_edge_slant = st.sampled_from(
    [32.767, 32.7675, 32.768, -32.768, -32.7685, -32.769, 90.0]
)
#: Around the uint16 ``dose × 1000`` limit (65535‰).
_edge_dose = st.sampled_from([65.535, 65.5354, 65.5355, 65.536, 70.0])


@st.composite
def _shots(draw, edges=False):
    """A shot on the half-count lattice; with ``edges``, some of its
    fields sit at (or past) their record type's limits."""

    def pick(usual, edge):
        return draw(st.one_of(usual, edge) if edges else usual)

    y_bottom = pick(_half_counts, _edge_coordinate)
    x_bottom_left = pick(_half_counts, _edge_coordinate)
    x_top_left = x_bottom_left + pick(_slant, _edge_slant)
    trapezoid = Trapezoid(
        y_bottom,
        y_bottom + draw(_extent.filter(lambda h: h > 0)),
        x_bottom_left,
        x_bottom_left + draw(_extent),
        x_top_left,
        x_top_left + draw(_extent),
    )
    return Shot(trapezoid, pick(_dose, _edge_dose))


#: Lists that fit the record, and lists with shots that may not.
_shot_lists = st.one_of(
    st.lists(_shots(), max_size=6),
    st.lists(st.one_of(_shots(), _shots(edges=True)), max_size=6),
)

# -- the scalar oracles ------------------------------------------------------


def _quantized(shot, unit):
    """One shot's record fields as the scalar packers computed them,
    and whether every field fits its struct type."""
    t = shot.trapezoid

    def q(v):
        return int(round(v / unit))

    y0, y1 = q(t.y_bottom), q(t.y_top)
    xbl, xbr = q(t.x_bottom_left), q(t.x_bottom_right)
    fields = (
        y0,
        y1,
        xbl,
        xbr,
        q(t.x_top_left) - xbl,
        q(t.x_top_right) - xbr,
        int(round(shot.dose * 1000.0)),
    )
    fits = (
        all(-(2**31) <= v <= 2**31 - 1 for v in fields[:4])
        and all(-32768 <= v <= 32767 for v in fields[4:6])
        and 0 <= fields[6] <= 0xFFFF
    )
    return fields, fits


def _oracle_job_records(shots, unit):
    """``.ebj`` record bytes, or ``None`` when a shot does not fit."""
    chunks = []
    for shot in shots:
        fields, fits = _quantized(shot, unit)
        if not fits:
            return None
        chunks.append(struct.pack(">iiiihhH", *fields))
    return b"".join(chunks)


def _oracle_shot_segment(shots, unit, ns_per_dose, ns_per_dose_area):
    """``.ebp`` shot-record bytes, or ``None`` when a shot does not fit."""
    chunks = []
    for shot in shots:
        fields, fits = _quantized(shot, unit)
        beam_ns = int(
            round(
                ns_per_dose * shot.dose
                + ns_per_dose_area * shot.dose * shot.trapezoid.area()
            )
        )
        if not fits or not 0 <= beam_ns <= 0xFFFFFFFF:
            return None
        chunks.append(struct.pack(">iiiihhHI", *fields, beam_ns))
    return b"".join(chunks)


def _fields(shot):
    t = shot.trapezoid
    return (
        t.y_bottom,
        t.y_top,
        t.x_bottom_left,
        t.x_bottom_right,
        t.x_top_left,
        t.x_top_right,
        shot.dose,
    )


class _OracleFold:
    """The per-shot fold: one ``!7d`` pack, one ``min``/``max`` and three
    ``+=`` per shot."""

    def __init__(self, base_dose):
        self.hash = hashlib.sha256(struct.pack("!7d", base_dose, 0, 0, 0, 0, 0, 0))
        self.count = 0
        self.pattern_area = self.dose_weighted_area = self.dose_weighted_count = 0.0
        self.bounding_box = (0.0, 0.0, 0.0, 0.0)
        self.dose_range = (0.0, 0.0)

    def add(self, shot):
        self.hash.update(struct.pack("!7d", *_fields(shot)))
        box = shot.trapezoid.bounding_box()
        if self.count:
            x0, y0, x1, y1 = self.bounding_box
            box = (min(x0, box[0]), min(y0, box[1]), max(x1, box[2]), max(y1, box[3]))
            low, high = self.dose_range
            self.dose_range = (min(low, shot.dose), max(high, shot.dose))
        else:
            self.dose_range = (shot.dose, shot.dose)
        self.bounding_box = box
        self.count += 1
        area = shot.area()
        self.pattern_area += area
        self.dose_weighted_area += shot.dose * area
        self.dose_weighted_count += shot.dose


def _oracle_portable(values, sig_digits=9):
    h = hashlib.sha256()
    for value in values:
        h.update((f"%.{sig_digits}e" % value).encode())
        h.update(b",")
    return h.hexdigest()


_SHARD_HEADER = struct.Struct(">4sIIii")
_SHARD_REPORT = struct.Struct(">dqddqddddq")
_SHARD_FALLBACKS = struct.Struct(">qqq")


def _oracle_payload(result):
    """An ``EBC1`` payload laid out field by field with ``struct``."""
    r = result.report
    return b"".join(
        [
            _SHARD_HEADER.pack(
                b"EBC1", SHARD_PAYLOAD_VERSION, len(result.shots), *result.index
            ),
            _SHARD_REPORT.pack(
                result.reference_area,
                r.figure_count,
                r.total_area,
                r.rectangle_fraction,
                r.sliver_count,
                r.sliver_fraction,
                r.min_dimension,
                r.mean_area,
                r.area_error,
                r.rectangle_count,
            ),
            _SHARD_FALLBACKS.pack(
                result.kernel_fallbacks.coord_limit,
                result.kernel_fallbacks.rational_slab,
                result.kernel_fallbacks.scalar_merge,
            ),
            *(struct.pack(">ddddddd", *_fields(shot)) for shot in result.shots),
        ]
    )


def _same_result(a, b):
    """Field-for-field equality (``Shot`` compares by identity)."""
    return (
        (a.index, a.report, a.reference_area, a.kernel_fallbacks)
        == (b.index, b.report, b.reference_area, b.kernel_fallbacks)
    ) and [_fields(s) for s in a.shots] == [_fields(s) for s in b.shots]


def _result(shots, index=(3, -2)):
    figures = [s.trapezoid for s in shots]
    report = analyze_figures(figures)
    return ShardResult(
        index=index,
        shots=list(shots),
        report=report,
        reference_area=report.total_area,
        kernel_fallbacks=KernelFallbacks(1, 2, 3),
    )


# -- the block itself --------------------------------------------------------


@given(_shot_lists)
def test_block_round_trips_shots_exactly(shots):
    rows = shot_rows(shots)
    assert rows.shape == (len(shots), 7) and rows.dtype == np.float64
    assert rows.tolist() == [list(_fields(s)) for s in shots]
    assert [_fields(s) for s in shots_from_rows(rows)] == [_fields(s) for s in shots]


@pytest.mark.parametrize(
    "row",
    [
        (0, 1, 0, 1, 0, float("nan"), 1),
        (0, float("inf"), 0, 1, 0, 1, 1),
        (0, 1, 0, 1, 0, 1, float("nan")),
        (1, 1, 0, 1, 0, 1, 1),
        (0, 1, 2, 1, 0, 1, 1),
        (0, 1, 0, 1, 2, 1, 1),
        (0, 1, 0, 1, 0, 1, -0.5),
    ],
)
def test_block_that_is_not_a_shot_list_is_rejected(row):
    with pytest.raises(ValueError):
        shots_from_rows(np.array([row], dtype=np.float64))


# -- the tape packers --------------------------------------------------------


@settings(deadline=None, max_examples=200)
@given(shots=_shot_lists)
@example(
    shots=[Shot(Trapezoid(-0.0005, 0.0005, -0.0015, 0.0025, -0.0025, 0.0035), 0.0005)]
)
@example(shots=[Shot(Trapezoid(0, 1, *[2147483.6475] * 4))])
def test_job_records_equal_the_scalar_packer(tmp_path_factory, shots):
    job = MachineJob(shots, base_dose=2.0)
    expected = _oracle_job_records(shots, UNIT)
    path = tmp_path_factory.mktemp("ebj") / "job.ebj"
    if expected is None:
        with pytest.raises(JobFileError):
            dumps_job(job, unit=UNIT)
        with pytest.raises(JobFileError):
            with JobFileWriter(path, len(shots), 2.0, UNIT) as writer:
                writer.write_rows(shot_rows(shots))
        assert not path.exists()
        return
    data = dumps_job(job, unit=UNIT)
    assert data == struct.pack(">4sddI4x", b"EBJ1", UNIT, 2.0, len(shots)) + expected
    # The incremental writer, cut into two blocks, writes the same file.
    with JobFileWriter(path, len(shots), 2.0, UNIT) as writer:
        writer.write_rows(shot_rows(shots[:1]))
        writer.write_rows(shot_rows(shots[1:]))
    assert path.read_bytes() == data
    # And the reader inverts the quantization count for count — unless
    # a sub-count height collapsed, which it rejects as it always did.
    if all(y1 > y0 for (y0, y1, *_), _ in (_quantized(s, UNIT) for s in shots)):
        assert dumps_job(loads_job(data), unit=UNIT) == data
    else:
        with pytest.raises(JobFileError, match="y_top must exceed"):
            loads_job(data)


@settings(deadline=None, max_examples=200)
@given(
    _shot_lists,
    st.sampled_from([(35.5, 0.0), (0.0, 4.25e5), (1.0e9, 0.0), (0.5, 0.5)]),
)
def test_shot_segment_equals_the_scalar_packer(shots, rates):
    expected = _oracle_shot_segment(shots, UNIT, *rates)
    if expected is None:
        with pytest.raises(MachineProgramError):
            lower_shot_segment(shot_rows(shots), UNIT, *rates)
    else:
        assert lower_shot_segment(shot_rows(shots), UNIT, *rates) == expected


# -- the fold and the digests ------------------------------------------------


@settings(deadline=None, max_examples=200)
@given(_shot_lists, st.lists(st.integers(0, 6), max_size=3))
def test_block_fold_equals_the_per_shot_fold(shots, cuts):
    oracle = _OracleFold(1.5)
    for shot in shots:
        oracle.add(shot)
    fold = ShotFold(1.5)
    edges = [0, *sorted(cuts), len(shots)]
    for lo, hi in zip(edges, edges[1:]):
        fold.add_rows(shot_rows(shots[lo:hi]))
    job = MachineJob(shots, base_dose=1.5)
    # The same shots as shard results cut at the same places, assembled
    # the way a resident run is: each result's block folded and kept as
    # the job's shots, so the job never walks the shot list.
    execution = merge_shard_results(
        [_result(shots[lo:hi]) for lo, hi in zip(edges, edges[1:])],
        corrected=False,
        stats=ExecutionStats(),
    )
    assembled = ShotFold(1.5)
    blocks = []
    for result in execution.results():
        assembled.add_rows(result.rows)
        blocks.append(result.rows)
    merged = assembled.job(blocks=blocks)
    assert merged.shots == list(shots) and merged.bounding_box == job.bounding_box
    for folded in (fold, job._folded(), merged._folded()):
        assert folded.digest() == oracle.hash.hexdigest()
        assert folded.count == oracle.count
        assert folded.bounding_box == oracle.bounding_box
        assert folded.dose_range == oracle.dose_range
        assert folded.pattern_area == oracle.pattern_area
        assert folded.dose_weighted_area == oracle.dose_weighted_area
        assert folded.dose_weighted_count == oracle.dose_weighted_count
    values = [1.5] + [v for shot in shots for v in _fields(shot)]
    for built in (job, merged):
        assert built.portable_digest() == _oracle_portable(values)
        assert built.dose_digest(6) == _oracle_portable([s.dose for s in shots], 6)
    if _oracle_job_records(shots, UNIT) is not None:
        assert dumps_job(merged, unit=UNIT) == dumps_job(job, unit=UNIT)


# -- the shard payload -------------------------------------------------------


@settings(deadline=None)
@given(_shot_lists)
def test_payload_is_the_struct_layout_byte_for_byte(shots):
    result = _result(shots)
    payload = _oracle_payload(result)
    assert dumps_shard_result(result) == payload
    loaded = loads_shard_result(payload)
    assert _same_result(loaded, result)
    assert loaded.rows.tolist() == shot_rows(shots).tolist()
    # The pool's return pickle carries that payload and nothing else.
    pickled = pickle.dumps(result)
    assert payload in pickled
    assert _same_result(pickle.loads(pickled), result)
