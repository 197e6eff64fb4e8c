"""Machine-program export: lowering prepared shards to writable streams.

The preparation pipeline used to stop at fractured, dose-corrected
figures; the machine models downstream were analysis-only.  This module
closes the loop: each executed shard's corrected figures are *lowered*
into the data stream a pattern generator actually consumes —

* ``raster`` — per-scanline (start, length) runs on the machine address
  grid (:mod:`repro.machine.rle`), the EBES-style run-length datapath.
  ``stream_bytes`` is the **exact** 2-word-per-run size, replacing the
  per-figure estimate of :func:`repro.machine.datapath.rle_bytes_estimate`.
* ``vsb`` / ``vector`` — a shot list with one dose/flash record per
  figure: quantized geometry, relative dose (milli-units) and the beam-on
  time of the flash (VSB) or area dwell (vector) in nanoseconds.

Streaming contract
------------------
Programs are written incrementally, one segment per occupied shard, in
the shard plan's deterministic row-major order.  Only a single shard's
runs/records are ever materialized in memory (``peak_segment_bytes`` is
recorded so benchmarks can assert it), and the byte stream is identical
for ``workers=1`` vs ``workers=N`` and for cold vs warm-cache runs —
the same determinism contract as the executor itself, extended to disk.

Segments are cacheable: with a :class:`~repro.core.cache.ShardCache`
attached, each segment's content address (shard shots + machine spec +
grid origin) is consulted before lowering and stored after, a separate
key family from the shard-result cache.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.core.executor import ContainedStore
from repro.core.recipe import MACHINE_MODES, POSITIVE, choice, require
from repro.core.jobfile import (
    JobFileError,
    ProgramImage,
    pack_columns,
    pack_program_header,
    pack_program_segment,
    quantize_rows,
    staging_path,
)
from repro.geometry.vertex_array import FigureView, trapezoid_areas
from repro.machine.base import Machine, WriteTimeBreakdown
from repro.machine.datapath import (
    ChannelCheck,
    raster_channel_check,
    vector_channel_check,
)
from repro.machine.raster import RasterScanWriter
from repro.machine.rle import (
    BYTES_PER_LINE,
    BYTES_PER_RUN,
    Run,
    encode_runs,
    merge_runs,
    runs_by_line,
)
from repro.machine.vector import VectorScanWriter
from repro.machine.vsb import ShapedBeamWriter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.cache import ShardCache
    from repro.core.executor import ShardResult
    from repro.core.job import MachineJob


#: Raster segment prologue: first scanline index, scanline count.
_RASTER_PROLOGUE = struct.Struct(">iI")
#: Per-scanline run-count word and (start, length) run words — the
#: 16-bit format whose size :data:`repro.machine.rle.BYTES_PER_RUN` and
#: :data:`~repro.machine.rle.BYTES_PER_LINE` account for.
_RUN_COUNT = struct.Struct(">H")
_RUN = struct.Struct(">HH")

#: Shot/flash record: the job file's figure record
#: (:func:`repro.core.jobfile.quantize_rows`) plus the beam-on time [ns].
_SHOT_RECORD = np.dtype(">i4,>i4,>i4,>i4,>i2,>i2,>u2,>u4")
SHOT_RECORD_BYTES = _SHOT_RECORD.itemsize


_MODE = choice(MACHINE_MODES)


class MachineProgramError(ValueError):
    """Raised when a job cannot be lowered to the requested stream."""


@dataclass(frozen=True)
class MachineSpec:
    """What machine a program is lowered for.

    Args:
        mode: ``"raster"``, ``"vsb"`` or ``"vector"``.
        address_unit: raster address pitch [µm] (ignored by shot modes'
            geometry, which quantize at ``unit``).
        channel_rate: pattern-data channel bandwidth [bytes/s] for the
            :class:`~repro.machine.datapath.ChannelCheck`.
        unit: shot-record coordinate quantum in layout units [µm].
    """

    mode: str
    address_unit: float = 0.5
    channel_rate: float = 5.0e6
    unit: float = 1e-3

    def __post_init__(self) -> None:
        require(_MODE, "machine mode", self.mode, MachineProgramError)
        for name in ("address_unit", "unit", "channel_rate"):
            require(POSITIVE, name, getattr(self, name), MachineProgramError)

    def machine(self) -> Machine:
        """A writer of this architecture, matched to the spec."""
        if self.mode == "raster":
            return RasterScanWriter(address_unit=self.address_unit)
        if self.mode == "vsb":
            return ShapedBeamWriter()
        return VectorScanWriter()


@dataclass
class MachineProgram:
    """What one export produced: the on-disk program plus its accounting.

    Attributes:
        mode: machine architecture the stream targets.
        path: program file location (``None`` for in-memory exports).
        address_unit: raster address pitch [µm].
        origin: address-grid origin (layout coordinates of address 0,0).
        segment_count: occupied shards lowered into the stream.
        figure_count: shot records (``vsb``/``vector`` modes).
        run_count: RLE runs (``raster`` mode).
        line_count: scanline count words in the stream (``raster`` mode).
        stream_bytes: **exact** machine data-stream size [bytes] — run
            and count words for raster, shot records for vsb/vector.
        estimate_bytes: the legacy per-figure estimate for the same job
            (:func:`~repro.machine.datapath.rle_bytes_estimate` /
            :func:`~repro.machine.datapath.figure_stream_bytes`).
        file_bytes: container size on disk (stream + framing).
        digest: SHA-256 of the container bytes — the determinism oracle.
        breakdown: write-time breakdown on the spec's machine, including
            ``data_limited_extra`` when the channel cannot keep up.
        channel: channel-rate check of the stream against the writer.
        cache_hits / cache_misses: segment-cache accounting.  A failed
            segment-blob store is the store policy's to count (the
            ``store`` :func:`export_program` was given), never the
            program's: cache trouble never fails an export.
        peak_segment_bytes: largest single segment held in memory while
            streaming — the bounded-memory witness.
    """

    mode: str
    path: Optional[Path]
    address_unit: float
    origin: Tuple[float, float]
    base_dose: float
    segment_count: int = 0
    figure_count: int = 0
    run_count: int = 0
    line_count: int = 0
    stream_bytes: int = 0
    estimate_bytes: int = 0
    file_bytes: int = 0
    digest: str = ""
    breakdown: WriteTimeBreakdown = field(default_factory=WriteTimeBreakdown)
    channel: ChannelCheck = field(default_factory=lambda: ChannelCheck(0.0, 1.0))
    cache_hits: int = 0
    cache_misses: int = 0
    peak_segment_bytes: int = 0


# ---------------------------------------------------------------------------
# Segment lowering
# ---------------------------------------------------------------------------


def lower_raster_segment(
    rows: np.ndarray,
    origin: Tuple[float, float],
    address_unit: float,
) -> bytes:
    """Lower one shard's ``(N, 7)`` shot block to a raster RLE segment
    payload, packed from the run arrays.

    The address grid is the *global* job grid anchored at ``origin``, so
    segments from different shards concatenate without re-addressing.
    """
    _, _, runs = encode_runs(FigureView(rows[:, :6]), address_unit, origin)
    if not len(runs):
        return _RASTER_PROLOGUE.pack(0, 0)
    line, start, length = runs.T
    line_first = int(line[0])
    per_line = np.bincount(line - line_first)
    # The first scanline the 16-bit words cannot hold fails the export:
    # for its run count, else for its first oversized run.
    crowded = per_line[line - line_first] > 0xFFFF
    bad = np.flatnonzero(crowded | (start > 0xFFFF) | (length > 0xFFFF))
    if bad.size and crowded[bad[0]]:
        raise MachineProgramError(
            f"scanline {line[bad[0]]} has {per_line[line[bad[0]] - line_first]} "
            "runs; the 16-bit count word holds at most 65535"
        )
    if bad.size:
        raise MachineProgramError(
            f"run ({start[bad[0]]}, {length[bad[0]]}) exceeds the 16-bit "
            "address range; increase the address unit or shard the job"
        )
    # Per scanline a run-count word, then its (start, length) words.
    words = np.empty(len(per_line) + 2 * len(runs), dtype=">u2")
    words[np.arange(len(per_line)) + 2 * (np.cumsum(per_line) - per_line)] = per_line
    at = line - line_first + 1 + 2 * np.arange(len(runs))
    words[at] = start
    words[at + 1] = length
    return _RASTER_PROLOGUE.pack(line_first, len(per_line)) + words.tobytes()


def lower_shot_segment(
    rows: np.ndarray,
    unit: float,
    ns_per_dose: float,
    ns_per_dose_area: float = 0.0,
) -> bytes:
    """Lower one shard's ``(N, 7)`` shot block to dose/flash records.

    ``beam_ns = ns_per_dose · dose + ns_per_dose_area · dose · area`` —
    VSB flashes are size-independent (``ns_per_dose``), vector dwells
    scale with area (``ns_per_dose_area``).
    """
    try:
        records = quantize_rows(rows, unit)
    except JobFileError as exc:
        raise MachineProgramError(str(exc)) from exc
    dose = rows[:, 6]
    beam_ns = np.rint(
        ns_per_dose * dose + ns_per_dose_area * dose * trapezoid_areas(rows)
    )
    if not ((beam_ns >= 0) & (beam_ns <= 0xFFFFFFFF)).all():
        raise MachineProgramError(
            "beam-on time outside the 32-bit nanosecond range"
        )
    return pack_columns(
        _SHOT_RECORD, np.column_stack((records, beam_ns.astype(np.int64)))
    )


def _raster_lines(payload: bytes) -> Tuple[int, List[Tuple[int, int]]]:
    """The one walk over a raster segment payload: its first scanline
    and, per scanline, ``(offset of its run words, run count)``."""
    if len(payload) < _RASTER_PROLOGUE.size:
        raise JobFileError("truncated raster segment prologue")
    line_first, line_count = _RASTER_PROLOGUE.unpack_from(payload, 0)
    offset = _RASTER_PROLOGUE.size
    spans: List[Tuple[int, int]] = []
    for _ in range(line_count):
        if len(payload) < offset + _RUN_COUNT.size:
            raise JobFileError("truncated raster segment line header")
        (n,) = _RUN_COUNT.unpack_from(payload, offset)
        spans.append((offset + _RUN_COUNT.size, n))
        offset += _RUN_COUNT.size + n * _RUN.size
    if offset != len(payload):
        raise JobFileError("raster segment payload size mismatch")
    return line_first, spans


def _segment_counters(mode: str, payload: bytes) -> Tuple[int, int, int]:
    """``(record_count, stream_bytes, line_count)`` of one payload.

    Recomputed by a light parse so cached segments account identically
    to freshly lowered ones.
    """
    if mode != "raster":
        if len(payload) % SHOT_RECORD_BYTES:
            raise JobFileError("shot segment payload not record-aligned")
        records = len(payload) // SHOT_RECORD_BYTES
        return records, records * SHOT_RECORD_BYTES, 0
    _, spans = _raster_lines(payload)
    runs = sum(n for _, n in spans)
    return runs, runs * BYTES_PER_RUN + len(spans) * BYTES_PER_LINE, len(spans)


def decode_raster_segment(payload: bytes) -> Tuple[int, List[List[Run]]]:
    """``(first_line, runs_per_line)`` of a raster segment payload."""
    line_first, spans = _raster_lines(payload)
    return line_first, [
        [_RUN.unpack_from(payload, at + k * _RUN.size) for k in range(n)]
        for at, n in spans
    ]


@dataclass(frozen=True)
class ShotRecord:
    """One decoded shot/flash record (coordinate counts at ``unit``)."""

    y_bottom: int
    y_top: int
    x_bottom_left: int
    x_bottom_right: int
    top_left_delta: int
    top_right_delta: int
    dose_milli: int
    beam_ns: int


def decode_shot_segment(payload: bytes) -> List[ShotRecord]:
    """Parse a vsb/vector segment payload into records."""
    if len(payload) % SHOT_RECORD_BYTES:
        raise JobFileError("shot segment payload not record-aligned")
    return [
        ShotRecord(*record)
        for record in np.frombuffer(payload, _SHOT_RECORD).tolist()
    ]


def raster_coverage_lines(image: ProgramImage) -> Dict[int, List[Run]]:
    """Merge a raster program's segments onto the global scanline grid.

    Shards of the same mosaic row stream their scanlines separately;
    for verification the runs are folded back per global line index
    (runs of different shards are disjoint by the shard contract).
    """
    if image.mode != "raster":
        raise MachineProgramError(f"not a raster program (mode {image.mode!r})")
    runs: List[Tuple[int, int, int]] = []
    for seg in image.segments:
        first, seg_lines = decode_raster_segment(seg.payload)
        for k, line_runs in enumerate(seg_lines):
            runs.extend((first + k, start, length) for start, length in line_runs)
    return runs_by_line(merge_runs(np.array(runs, dtype=np.int64).reshape(-1, 3)))


# ---------------------------------------------------------------------------
# Streaming export
# ---------------------------------------------------------------------------


def export_program(
    shard_results: Iterable["ShardResult"],
    job: "MachineJob",
    spec: MachineSpec,
    path: Union[str, Path],
    cache: Optional["ShardCache"] = None,
    segment_count: Optional[int] = None,
    store: Optional[ContainedStore] = None,
) -> MachineProgram:
    """Lower a job's shard results into an on-disk machine program.

    Segments are written in the given (row-major shard plan) order, one
    at a time; with a cache, each segment's content address is consulted
    before lowering and stored after.  The resulting file is
    byte-identical for any worker count and for cold vs warm runs.

    ``shard_results`` may be any iterable; by default it is materialized
    once to count the occupied shards for the header.  Streaming
    callers that already know the occupied count pass ``segment_count``
    and the iterable is consumed strictly one result at a time — the
    out-of-core path, where results arrive off a spill cursor.  The
    emitted bytes are identical either way; a ``segment_count`` that
    does not match the cursor raises before the program is published.

    ``store`` is the run's cache-store policy (a pipeline passes its
    execution's, so a run degraded in the shard loop stores no segment
    blob either, and reads the degradation off it once, after the
    export); without one the export gets its own, whose warning is the
    only trace of a failed store.
    """
    path = Path(path)
    origin = (job.bounding_box[0], job.bounding_box[1])
    machine = spec.machine()
    if segment_count is None:
        materialized = [result for result in shard_results if result.shots]
        occupied: Iterable["ShardResult"] = materialized
        segment_count = len(materialized)
    else:
        occupied = (result for result in shard_results if result.shots)

    flash_ns = 0.0
    dwell_ns_area = 0.0
    if spec.mode == "vsb":
        flash_ns = machine.flash_time(job.base_dose) * 1e9
    elif spec.mode == "vector":
        dwell_ns_area = machine.dwell_time_per_area(job.base_dose) * 1e9

    program = MachineProgram(
        mode=spec.mode,
        path=path,
        address_unit=spec.address_unit,
        origin=origin,
        base_dose=job.base_dose,
        segment_count=segment_count,
    )
    digest = hashlib.sha256()

    def emit(handle, chunk: bytes) -> None:
        handle.write(chunk)
        digest.update(chunk)
        program.file_bytes += len(chunk)

    # The per-figure run estimate accumulates segment by segment —
    # integer math per figure, so it is exactly what the materialized
    # rle_bytes_estimate would report (shot modes: one record a figure).
    estimate_runs = 0
    emitted = 0

    # Stream into a staging file and publish atomically as the last
    # step, after the accounting below: an export that fails anywhere
    # (or a concurrent reader) never sees a truncated program under the
    # final name — and never destroys a previous good one.
    path.parent.mkdir(parents=True, exist_ok=True)
    staging = staging_path(path)
    try:
        with open(staging, "wb") as handle:
            emit(
                handle,
                pack_program_header(
                    spec.mode,
                    spec.address_unit,
                    origin,
                    job.base_dose,
                    segment_count,
                ),
            )
            if store is None:
                store = ContainedStore.for_cache()
            for result in occupied:
                payload = None
                key = None
                if cache is not None:
                    key = cache.program_key_for(result, spec, origin, job.base_dose)
                    payload = cache.get_blob(key)
                if payload is None:
                    if spec.mode == "raster":
                        payload = lower_raster_segment(
                            result.rows, origin, spec.address_unit
                        )
                    else:
                        payload = lower_shot_segment(
                            result.rows, spec.unit, flash_ns, dwell_ns_area
                        )
                    program.cache_misses += 1
                    if cache is not None:
                        store(cache.put_blob, key, payload)
                else:
                    program.cache_hits += 1
                if spec.mode == "raster":
                    heights = result.rows[:, 1] - result.rows[:, 0]
                    estimate_runs += int(
                        np.maximum(1.0, np.ceil(heights / spec.address_unit)).sum()
                    )
                records, stream_bytes, line_count = _segment_counters(
                    spec.mode, payload
                )
                if spec.mode == "raster":
                    program.run_count += records
                else:
                    program.figure_count += records
                program.line_count += line_count
                program.stream_bytes += stream_bytes
                program.peak_segment_bytes = max(
                    program.peak_segment_bytes, len(payload)
                )
                emit(handle, pack_program_segment(result.index, records, payload))
                emitted += 1
            if emitted != segment_count:
                raise MachineProgramError(
                    f"segment_count promised {segment_count} occupied "
                    f"shards but the cursor produced {emitted}"
                )
        if cache is None:
            program.cache_hits = program.cache_misses = 0
        program.digest = digest.hexdigest()

        x0, y0, x1, y1 = job.bounding_box
        if spec.mode == "raster":
            lines = math.ceil(max(y1 - y0, spec.address_unit) / spec.address_unit)
            program.estimate_bytes = estimate_runs * 4 + lines * 2
        else:
            program.estimate_bytes = program.figure_count * SHOT_RECORD_BYTES

        breakdown = machine.write_time(job)
        program.channel = _channel_check(spec, machine, job, program, breakdown)
        if program.channel.limited:
            # The beam stalls while the channel catches up: exposure
            # stretches by the slowdown factor.
            breakdown.data_limited_extra = breakdown.exposure * (
                program.channel.slowdown - 1.0
            )
        program.breakdown = breakdown
        os.replace(staging, path)
    except BaseException:
        try:
            os.unlink(staging)
        except OSError:
            pass
        raise
    return program


def _channel_check(
    spec: MachineSpec,
    machine: Machine,
    job: "MachineJob",
    program: MachineProgram,
    breakdown: WriteTimeBreakdown,
) -> ChannelCheck:
    """Stream-size-aware channel check for the lowered program."""
    if spec.mode == "raster":
        if breakdown.exposure <= 0 or program.stream_bytes == 0:
            return ChannelCheck(0.0, spec.channel_rate)
        return raster_channel_check(
            machine.effective_pixel_rate(job.base_dose),
            program.stream_bytes,
            breakdown.exposure,
            channel_rate=spec.channel_rate,
        )
    busy = breakdown.exposure + breakdown.figure_overhead
    if busy <= 0 or program.figure_count == 0:
        return ChannelCheck(0.0, spec.channel_rate)
    return vector_channel_check(
        program.figure_count / busy,
        channel_rate=spec.channel_rate,
        bytes_per_figure=SHOT_RECORD_BYTES,
    )
