"""Binary machine job file: the "pattern tape" format.

Pattern generators consumed a flat binary stream of dosed figures.  This
module defines a compact period-flavoured format and a reader/writer,
the machine-program container streamed by
:mod:`repro.machine.program` (header + per-shard segments), plus the
two exact (full double precision) shard serializations: the input
shard's ``EBS1`` (what the pool, the fleet and the spool carry) and the
shard result's ``EBC1`` (what the content-addressed cache stores,
:mod:`repro.core.cache`):

Header (28 bytes)::

    magic   4s   b"EBJ1"
    unit    d    layout units per count (e.g. 1e-3 µm)
    dose    d    base dose [µC/cm²]
    count   I    number of figure records
    pad     4x

then exactly ``count`` figure records and nothing after them.

Figure record (22 bytes), coordinates as signed 32-bit counts::

    y_bottom, y_top            2 × i
    x_bottom_left, x_bottom_right  (stored as i at the record's scale)
    x_top_left, x_top_right    packed as deltas vs. the bottom edge (h)
    dose_milli                 H   relative dose × 1000

The delta packing is exact for the slant range the fracturers produce
(|Δx| < 32767 counts); the writer verifies and raises otherwise.

Every writer here packs from the ``(N, 7)`` shot block
(:func:`repro.fracture.base.shot_rows`): :func:`quantize_rows` owns the
rounding rule and every range check of the tape formats, and the exact
shard payload moves the block's bytes as they are.
"""

from __future__ import annotations

import os
import struct
import uuid
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import List, Tuple, Union

import numpy as np

from repro.core.job import MachineJob
from repro.core.plan import Shard
from repro.core.recipe import POSITIVE, require
from repro.fracture.base import row_bytes, shots_from_rows
from repro.geometry.polygon import Polygon
from repro.geometry.vertex_array import FigureView, trapezoid_array

MAGIC = b"EBJ1"
_HEADER = struct.Struct(">4sddI4x")
#: The figure record (packed, no padding).
_RECORD = np.dtype(">i4,>i4,>i4,>i4,>i2,>i2,>u2")


class JobFileError(ValueError):
    """Raised for malformed job files or unrepresentable jobs."""


#: What each field of the record holds, for the writer's errors.
_RECORD_FIELDS = ("coordinate count",) * 4 + ("slant delta",) * 2 + ("dose‰",)


def quantize_rows(rows: np.ndarray, unit: float) -> np.ndarray:
    """The integer record columns of an ``(N, 7)`` shot block.

    The one quantizer of the tape formats (``.ebj`` records and the
    ``.ebp`` shot records): coordinates are ``rint(v / unit)`` counts
    (round-half-even, like ``round``), the top edge is stored as deltas
    against the bottom edge, the dose as ``rint(dose × 1000)``.  Ranges
    are checked on the rounded floats, before the integer cast, so an
    unrepresentable shot raises instead of wrapping.

    Returns:
        ``(N, 7)`` int64, every column within the range of its field of
        the figure record: four coordinate counts, the two top-edge
        deltas, the dose in milli-units.

    Raises:
        JobFileError: a value (or a NaN) outside its field's range.
    """
    counts = np.rint(np.column_stack((rows[:, :6] / unit, rows[:, 6] * 1000.0)))
    counts[:, 4:6] -= counts[:, 2:4]
    for what, name, values in zip(_RECORD_FIELDS, _RECORD.names, counts.T):
        limits = np.iinfo(_RECORD[name])
        # NaN fails both comparisons and is rejected with the rest.
        bad = ~((values >= limits.min) & (values <= limits.max))
        if bad.any():
            raise JobFileError(
                f"{what} {values[bad][0]:g} out of the record's "
                f"{limits.dtype} range at unit {unit:g}"
            )
    return counts.astype(np.int64)


def pack_columns(dtype: np.dtype, columns: np.ndarray) -> bytes:
    """Pack an ``(N, k)`` integer array as ``N`` records of the
    ``k``-field ``dtype``, column ``i`` into field ``i``."""
    records = np.empty(len(columns), dtype)
    for name, column in zip(dtype.names, columns.T):
        records[name] = column
    return records.tobytes()


def dumps_job(job: MachineJob, unit: float = 1e-3) -> bytes:
    """Serialize a machine job to bytes.

    Args:
        job: the job (explicit shots required — aggregate jobs cannot be
            serialized).
        unit: coordinate quantum in layout units (1 nm for µm layouts).

    Raises:
        JobFileError: ``unit`` is not positive, a shot is not
            representable, or the job is an aggregate.
    """
    if unit <= 0:
        raise JobFileError("unit must be positive")
    chunks = [_HEADER.pack(MAGIC, unit, job.base_dose, _resident_count(job))]
    for block in job.row_blocks:
        chunks.append(pack_columns(_RECORD, quantize_rows(block, unit)))
    return b"".join(chunks)


def _resident_count(job: MachineJob) -> int:
    """The job's figure count, once its row blocks are known to hold
    that many rows: an aggregate job (``MachineJob.synthetic``, a
    streamed run's fold) counts shots it does not carry, and writing it
    would publish a valid, empty file."""
    count = job.figure_count()
    if sum(map(len, job.row_blocks)) != count:
        raise JobFileError(
            f"job {job.name!r} counts {count} figures but holds "
            f"{len(job.shots)}: an aggregate job has no shots to write — a "
            "streamed job is written as it runs (JobFileWriter, "
            "`prep --stream --output`)"
        )
    return count


def loads_job(data: bytes, name: str = "jobfile") -> MachineJob:
    """Parse job-file bytes back into a :class:`MachineJob`.

    Raises:
        JobFileError: on bad magic, truncation, or trailing bytes after
            the last record.
    """
    if len(data) < _HEADER.size:
        raise JobFileError("truncated header")
    magic, unit, base_dose, count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise JobFileError(f"bad magic {magic!r}")
    require(POSITIVE, "header base dose", base_dose, JobFileError)
    expected = _HEADER.size + count * _RECORD.itemsize
    if len(data) < expected:
        raise JobFileError(
            f"truncated records: need {expected} bytes, have {len(data)}"
        )
    if len(data) > expected:
        raise JobFileError(
            f"trailing bytes after the last record: {len(data) - expected}"
        )
    records = np.frombuffer(data, _RECORD, count, _HEADER.size)
    counts = np.column_stack(
        [records[name].astype(np.float64) for name in _RECORD.names]
    )
    counts[:, 4:6] += counts[:, 2:4]
    rows = np.column_stack((counts[:, :6] * unit, counts[:, 6] / 1000.0))
    return MachineJob(_read_shots(rows), base_dose=base_dose, name=name)


def _read_shots(rows: np.ndarray):
    """The shot view of a block read from outside the program, checked
    whole here and now; a block that is not a shot list is the reader's
    error, not the geometry's."""
    try:
        return shots_from_rows(rows)
    except ValueError as exc:
        raise JobFileError(f"bad figure record: {exc}") from exc


def write_job(job: MachineJob, path: Union[str, Path], unit: float = 1e-3) -> int:
    """Write a job file — :class:`JobFileWriter` run to completion, so
    it is staged and published atomically; returns the byte count."""
    with JobFileWriter(path, _resident_count(job), job.base_dose, unit) as writer:
        for block in job.row_blocks:
            writer.write_rows(block)
    return writer.close()


def staging_path(path: Path) -> Path:
    """A unique hidden sibling of ``path`` to write in before publishing
    with :func:`os.replace`, so concurrent writers of one path never
    share a file (``.gitignore`` knows the pattern)."""
    return path.with_name(f".{path.name}.tmp-{os.getpid()}-{uuid.uuid4().hex}")


def read_job(path: Union[str, Path]) -> MachineJob:
    """Read a job file."""
    p = Path(path)
    return loads_job(p.read_bytes(), name=p.stem)


class JobFileWriter:
    """Incremental job-file writer: one shot block at a time, bounded
    memory.

    Emits bytes identical to :func:`write_job` of a job holding the same
    shots in the same order.  The header carries the shot count, so the
    caller declares it up front and the writer enforces it — writing
    more shots raises immediately, and :meth:`close` with fewer raises
    and discards the staging file.  The file is staged next to ``path``
    and published atomically on a successful close, so a crashed
    streaming run never leaves a truncated job file under the final
    name.  The staging file is the writer's own (:func:`staging_path`),
    so two writers of one path each publish a whole file, and the last
    to close wins.
    """

    def __init__(
        self,
        path: Union[str, Path],
        count: int,
        base_dose: float = 1.0,
        unit: float = 1e-3,
    ) -> None:
        if unit <= 0:
            raise JobFileError("unit must be positive")
        if count < 0:
            raise JobFileError("shot count must be non-negative")
        self.path = Path(path)
        self.unit = unit
        self.count = int(count)
        self._staging = staging_path(self.path)
        self._fh = open(self._staging, "wb")
        self._fh.write(_HEADER.pack(MAGIC, unit, base_dose, self.count))
        self._written = 0
        self._closed = False
        self._published = False

    def write_rows(self, rows: np.ndarray) -> None:
        """Append the figure records of one ``(N, 7)`` shot block."""
        if self._closed:
            raise JobFileError("job-file writer is closed")
        if self._written + len(rows) > self.count:
            raise JobFileError(
                f"declared {self.count} shots but a {self.count + 1}th "
                "arrived"
            )
        self._fh.write(pack_columns(_RECORD, quantize_rows(rows, self.unit)))
        self._written += len(rows)

    def close(self) -> int:
        """Publish the file; returns its byte count.  Closing again
        returns it again, but only for a file this writer published: a
        writer that was aborted or failed its shot count raises."""
        if not self._closed:
            self._closed = True
            self._fh.close()
            if self._written != self.count:
                self._staging.unlink(missing_ok=True)
                raise JobFileError(
                    f"declared {self.count} shots but wrote {self._written}"
                )
            os.replace(self._staging, self.path)
            self._published = True
        if not self._published:
            raise JobFileError("job-file writer closed without publishing")
        return job_file_bytes(self.count)

    def abort(self) -> None:
        """Discard the staging file without publishing (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._fh.close()
        self._staging.unlink(missing_ok=True)

    def __enter__(self) -> "JobFileWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


def job_file_bytes(figure_count: int) -> int:
    """Size of a job file with ``figure_count`` records."""
    return _HEADER.size + figure_count * _RECORD.itemsize


# ---------------------------------------------------------------------------
# Machine-program container (.ebp)
# ---------------------------------------------------------------------------
#
# A machine program is the lowered data stream a writer actually
# consumes: per-scanline RLE runs for a raster machine, dosed shot/flash
# records for VSB and vector machines.  The container is a fixed header
# followed by one segment per occupied shard, concatenated in the shard
# plan's row-major order — the writer streams segments to disk one at a
# time (bounded memory), and the reader here reverses the container for
# verification and golden tests.  Segment payload encodings live in
# :mod:`repro.machine.program`; this module owns only the framing.

PROGRAM_MAGIC = b"EBP1"
#: magic, mode code, pad, address_unit, origin x/y, base dose, segments.
_PROGRAM_HEADER = struct.Struct(">4sBxxxddddI")
#: field index (col, row), record count, payload byte count.
_PROGRAM_SEGMENT = struct.Struct(">iiII")

#: Machine-architecture codes of the program header.
PROGRAM_MODES = {"raster": 1, "vsb": 2, "vector": 3}
_PROGRAM_MODE_NAMES = {code: name for name, code in PROGRAM_MODES.items()}


@dataclass(frozen=True)
class ProgramSegment:
    """One shard's slice of a machine program."""

    index: Tuple[int, int]
    record_count: int
    payload: bytes


@dataclass(frozen=True)
class ProgramImage:
    """A parsed machine-program container."""

    mode: str
    address_unit: float
    origin: Tuple[float, float]
    base_dose: float
    segments: Tuple[ProgramSegment, ...]

    def record_count(self) -> int:
        """Total records (runs or shots) across all segments."""
        return sum(seg.record_count for seg in self.segments)


def pack_program_header(
    mode: str,
    address_unit: float,
    origin: Tuple[float, float],
    base_dose: float,
    segment_count: int,
) -> bytes:
    """Serialize a machine-program file header."""
    if mode not in PROGRAM_MODES:
        raise JobFileError(f"unknown machine-program mode {mode!r}")
    return _PROGRAM_HEADER.pack(
        PROGRAM_MAGIC,
        PROGRAM_MODES[mode],
        address_unit,
        origin[0],
        origin[1],
        base_dose,
        segment_count,
    )


def pack_program_segment(
    index: Tuple[int, int], record_count: int, payload: bytes
) -> bytes:
    """Serialize one segment (header + payload)."""
    return (
        _PROGRAM_SEGMENT.pack(index[0], index[1], record_count, len(payload))
        + payload
    )


def loads_program(data: bytes) -> ProgramImage:
    """Parse machine-program bytes back into a :class:`ProgramImage`.

    Raises:
        JobFileError: on bad magic, unknown mode, truncation, or
            segment-count/byte-count inconsistencies.
    """
    if len(data) < _PROGRAM_HEADER.size:
        raise JobFileError("truncated program header")
    magic, mode_code, address_unit, ox, oy, base_dose, count = (
        _PROGRAM_HEADER.unpack_from(data, 0)
    )
    if magic != PROGRAM_MAGIC:
        raise JobFileError(f"bad program magic {magic!r}")
    if mode_code not in _PROGRAM_MODE_NAMES:
        raise JobFileError(f"unknown program mode code {mode_code}")
    offset = _PROGRAM_HEADER.size
    segments: List[ProgramSegment] = []
    for _ in range(count):
        if len(data) < offset + _PROGRAM_SEGMENT.size:
            raise JobFileError("truncated segment header")
        col, row, records, payload_bytes = _PROGRAM_SEGMENT.unpack_from(data, offset)
        offset += _PROGRAM_SEGMENT.size
        if len(data) < offset + payload_bytes:
            raise JobFileError("truncated segment payload")
        payload = data[offset : offset + payload_bytes]
        offset += payload_bytes
        segments.append(ProgramSegment((col, row), records, payload))
    if offset != len(data):
        raise JobFileError(
            f"trailing bytes after the last segment: {len(data) - offset}"
        )
    return ProgramImage(
        mode=_PROGRAM_MODE_NAMES[mode_code],
        address_unit=address_unit,
        origin=(ox, oy),
        base_dose=base_dose,
        segments=tuple(segments),
    )


# ---------------------------------------------------------------------------
# Shard-result payloads (cache storage)
# ---------------------------------------------------------------------------
#
# Unlike the machine tape above, cache payloads must reproduce a cold
# run *byte for byte*, so nothing is quantized: every coordinate and
# dose is stored as its exact IEEE-754 double.  The fracture report is
# stored alongside the shots so a warm run merges the same aggregate
# bookkeeping a cold run would.

SHARD_MAGIC = b"EBC1"
#: header: magic, payload version, shot count, field index (col, row).
_SHARD_HEADER = struct.Struct(">4sIIii")
#: reference_area plus the nine FractureReport fields, in field order.
_SHARD_REPORT = struct.Struct(">dqddqddddq")
#: One row of the ``(N, 7)`` shot block as exact doubles
#: (:func:`repro.fracture.base.row_bytes`).
_SHARD_RECORD_BYTES = 7 * 8
#: fast-kernel fallback counters, in ``KernelFallbacks`` field order:
#: coord_limit, rational_slab, scalar_merge.
_SHARD_FALLBACKS = struct.Struct(">qqq")
#: v2: the kernel fallback counters joined the payload (between the
#: report and the shot records) so warm runs report the same fast-path
#: observability a cold run would.  v3: ``scalar_merge`` joined them.
SHARD_PAYLOAD_VERSION = 3


def dumps_shard_result(result) -> bytes:
    """Serialize a :class:`~repro.core.executor.ShardResult` exactly."""
    from repro.core.executor import ShardResult

    if not isinstance(result, ShardResult):
        raise JobFileError(f"expected a ShardResult, got {type(result)!r}")
    chunks = [
        _SHARD_HEADER.pack(
            SHARD_MAGIC,
            SHARD_PAYLOAD_VERSION,
            len(result.shots),
            result.index[0],
            result.index[1],
        ),
        _SHARD_REPORT.pack(result.reference_area, *astuple(result.report)),
        _SHARD_FALLBACKS.pack(*astuple(result.kernel_fallbacks)),
        row_bytes(result.rows),
    ]
    return b"".join(chunks)


def loads_shard_result(data: bytes):
    """Parse a shard-result payload written by :func:`dumps_shard_result`.

    Raises:
        JobFileError: on bad magic, unknown version, truncation or a
            record block that is not a shot list — the cache treats
            these as misses and evicts the entry.
    """
    from repro.core.executor import ShardResult
    from repro.fracture.quality import FractureReport
    from repro.geometry.scanline_fast import KernelFallbacks

    if len(data) < _SHARD_HEADER.size:
        raise JobFileError("truncated shard header")
    magic, version, count, col, row = _SHARD_HEADER.unpack_from(data, 0)
    if magic != SHARD_MAGIC:
        raise JobFileError(f"bad shard magic {magic!r}")
    if version != SHARD_PAYLOAD_VERSION:
        raise JobFileError(f"unknown shard payload version {version}")
    expected = (
        _SHARD_HEADER.size
        + _SHARD_REPORT.size
        + _SHARD_FALLBACKS.size
        + count * _SHARD_RECORD_BYTES
    )
    if len(data) != expected:
        raise JobFileError(
            f"shard payload size mismatch: need {expected} bytes, "
            f"have {len(data)}"
        )
    offset = _SHARD_HEADER.size
    reference_area, *report = _SHARD_REPORT.unpack_from(data, offset)
    offset += _SHARD_REPORT.size
    fallbacks = KernelFallbacks(*_SHARD_FALLBACKS.unpack_from(data, offset))
    offset += _SHARD_FALLBACKS.size
    rows = (
        np.frombuffer(data, ">f8", offset=offset).reshape(-1, 7).astype(np.float64)
    )
    return ShardResult(
        index=(col, row),
        shots=_read_shots(rows),
        report=FractureReport(*report),
        reference_area=reference_area,
        kernel_fallbacks=fallbacks,
    )


# ---------------------------------------------------------------------------
# Input-shard payloads (pool, fleet, spool)
# ---------------------------------------------------------------------------
#
# A shard's geometry has one serialized form wherever it leaves the
# process or its memory: the pool's task pickle (``Shard.__reduce__``),
# the fleet's lease payload and — one ring per record — the streamed
# door's spool.  Every coordinate is its exact IEEE-754 double, and a
# ring is rebuilt exactly as it was stored, so a decoded shard is the
# shard it was.  After the header comes either the rings — their vertex
# counts (``>u4``), then each ring's record (:func:`dumps_ring`) — or
# the ``(N, 6)`` figure block of a pre-fractured shard.

INPUT_MAGIC = b"EBS1"
#: header: magic, payload version, field index (col, row), figures
#: flag, item count (rings or figures).
_INPUT_HEADER = struct.Struct(">4sIii?I")
INPUT_VERSION = 1


def dumps_ring(polygon: Polygon) -> bytes:
    """One ring's record: the polygon's ``(x, y)`` vertices as
    big-endian doubles — a spool record, and the bytes a shard's cache
    key hashes for the polygon."""
    return polygon.ring.astype(">f8").tobytes()


def loads_ring(data: bytes) -> Polygon:
    """The polygon of one :func:`dumps_ring` record, vertex for vertex.

    Never through the normalising rule: a stored ring that still
    closes on its first vertex (``Polygon`` drops one closing duplicate,
    not two) comes back as it was, not shorter.

    Raises:
        JobFileError: the record is not whole ``(x, y)`` pairs, or
            holds fewer than three.
    """
    if len(data) < 48 or len(data) % 16:
        raise JobFileError(f"a ring needs 3 or more (x, y) pairs: {len(data)} bytes")
    return Polygon.from_array(_native_pairs(data), as_stored=True)


def _native_pairs(data: bytes, offset: int = 0) -> np.ndarray:
    """Big-endian doubles from ``offset`` on as a native ``(n, 2)``
    float64 array (a copy, read-only like the bytes it came from)."""
    pairs = np.frombuffer(data, ">f8", offset=offset).astype(np.float64)
    pairs.flags.writeable = False
    return pairs.reshape(-1, 2)


def dumps_shard(shard: Shard) -> bytes:
    """Serialize a :class:`~repro.core.plan.Shard` exactly (``EBS1``)."""
    figures = shard.figures is not None
    if figures:
        block = trapezoid_array(shard.figures)
        count, body = len(block), [block.astype(">f8").tobytes()]
    else:
        count, body = len(shard.polygons), list(map(dumps_ring, shard.polygons))
        body.insert(0, struct.pack(f">{count}I", *(len(r) // 16 for r in body)))
    head = _INPUT_HEADER.pack(INPUT_MAGIC, INPUT_VERSION, *shard.index, figures, count)
    return head + b"".join(body)


def loads_shard(data: bytes) -> Shard:
    """Parse an input-shard payload written by :func:`dumps_shard`.

    Raises:
        JobFileError: on bad magic, unknown version, truncation,
            trailing bytes or a ring of fewer than three vertices — a
            lease payload is input from outside the program.
    """
    if len(data) < _INPUT_HEADER.size:
        raise JobFileError("truncated input-shard header")
    magic, version, col, row, figures, count = _INPUT_HEADER.unpack_from(data, 0)
    if magic != INPUT_MAGIC:
        raise JobFileError(f"bad input-shard magic {magic!r}")
    if version != INPUT_VERSION:
        raise JobFileError(f"unknown input-shard payload version {version}")
    start, sizes = _INPUT_HEADER.size, ()
    if not figures:
        if len(data) < start + 4 * count:
            raise JobFileError("truncated ring counts")
        sizes = struct.unpack_from(f">{count}I", data, start)
        start += 4 * count
    expected = start + 8 * (6 * count if figures else 2 * sum(sizes))
    if len(data) != expected:
        raise JobFileError(f"input-shard size {len(data)}, expected {expected}")
    if figures:
        block = np.frombuffer(data, ">f8", 6 * count, start).reshape(-1, 6)
        return Shard((col, row), (), figures=FigureView(block.astype(np.float64)))
    if min(sizes, default=3) < 3:
        raise JobFileError(f"a ring needs 3 or more (x, y) pairs, got {min(sizes)}")
    rings = np.split(_native_pairs(data, start), np.cumsum(sizes)[:-1]) if count else ()
    return Shard(
        (col, row), tuple(Polygon.from_array(r, as_stored=True) for r in rings)
    )
