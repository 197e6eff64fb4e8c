"""GDSII stream-format record layer: record types and value codecs.

A GDSII file is a sequence of records, each with a 4-byte header::

    +--------+--------+--------+--------+----------------+
    | length (uint16, incl. header)     | data ...       |
    | record type     | data type       |                |
    +--------+--------+--------+--------+----------------+

Numeric data uses big-endian encodings; reals use the excess-64 base-16
format of the IBM System/360 (GDSII predates IEEE 754).
"""

from __future__ import annotations

import struct
from typing import List, Optional


class RecordType:
    """GDSII record type identifiers (subset used by this library)."""

    HEADER = 0x00
    BGNLIB = 0x01
    LIBNAME = 0x02
    UNITS = 0x03
    ENDLIB = 0x04
    BGNSTR = 0x05
    STRNAME = 0x06
    ENDSTR = 0x07
    BOUNDARY = 0x08
    PATH = 0x09
    SREF = 0x0A
    AREF = 0x0B
    TEXT = 0x0C
    LAYER = 0x0D
    DATATYPE = 0x0E
    WIDTH = 0x0F
    XY = 0x10
    ENDEL = 0x11
    SNAME = 0x12
    COLROW = 0x13
    STRANS = 0x1A
    MAG = 0x1B
    ANGLE = 0x1C

    NAMES = {
        0x00: "HEADER", 0x01: "BGNLIB", 0x02: "LIBNAME", 0x03: "UNITS",
        0x04: "ENDLIB", 0x05: "BGNSTR", 0x06: "STRNAME", 0x07: "ENDSTR",
        0x08: "BOUNDARY", 0x09: "PATH", 0x0A: "SREF", 0x0B: "AREF",
        0x0C: "TEXT", 0x0D: "LAYER", 0x0E: "DATATYPE", 0x0F: "WIDTH",
        0x10: "XY", 0x11: "ENDEL", 0x12: "SNAME", 0x13: "COLROW",
        0x1A: "STRANS", 0x1B: "MAG", 0x1C: "ANGLE",
    }


class DataType:
    """GDSII data type identifiers."""

    NONE = 0
    BITARRAY = 1
    INT16 = 2
    INT32 = 3
    REAL4 = 4
    REAL8 = 5
    ASCII = 6


class GdsiiError(ValueError):
    """Raised for malformed GDSII streams."""


def encode_real8(value: float) -> bytes:
    """Encode a float as a GDSII 8-byte excess-64 base-16 real."""
    if value == 0.0:
        return b"\x00" * 8
    sign = 0
    if value < 0:
        sign = 0x80
        value = -value
    exponent = 64
    # Normalize mantissa into [1/16, 1).
    while value >= 1.0:
        value /= 16.0
        exponent += 1
    while value < 1.0 / 16.0:
        value *= 16.0
        exponent -= 1
    if not (0 <= exponent <= 127):
        raise GdsiiError(f"real8 exponent out of range: {exponent - 64}")
    mantissa = int(value * (1 << 56))
    first = sign | exponent
    return bytes([first]) + mantissa.to_bytes(7, "big")


def decode_real8(data: bytes) -> float:
    """Decode a GDSII 8-byte excess-64 base-16 real to a float."""
    if len(data) != 8:
        raise GdsiiError(f"real8 needs 8 bytes, got {len(data)}")
    first = data[0]
    sign = -1.0 if first & 0x80 else 1.0
    exponent = (first & 0x7F) - 64
    mantissa = int.from_bytes(data[1:], "big") / float(1 << 56)
    return sign * mantissa * (16.0 ** exponent)


def pack_record(record_type: int, data_type: int, payload: bytes = b"") -> bytes:
    """Serialize one record with its 4-byte header."""
    if len(payload) % 2 != 0:
        raise GdsiiError("record payload must have even length")
    length = 4 + len(payload)
    if length > 0xFFFF:
        raise GdsiiError(f"record too long: {length} bytes")
    return struct.pack(">HBB", length, record_type, data_type) + payload


def pack_int16(record_type: int, values: List[int]) -> bytes:
    """Record of big-endian int16 values."""
    return pack_record(
        record_type, DataType.INT16, struct.pack(f">{len(values)}h", *values)
    )


def pack_int32(record_type: int, values: List[int]) -> bytes:
    """Record of big-endian int32 values."""
    return pack_record(
        record_type, DataType.INT32, struct.pack(f">{len(values)}i", *values)
    )


def pack_real8(record_type: int, values: List[float]) -> bytes:
    """Record of 8-byte excess-64 reals."""
    return pack_record(
        record_type, DataType.REAL8, b"".join(encode_real8(v) for v in values)
    )


def pack_ascii(record_type: int, text: str) -> bytes:
    """Record of ASCII text, NUL-padded to even length."""
    raw = text.encode("ascii")
    if len(raw) % 2 != 0:
        raw += b"\x00"
    return pack_record(record_type, DataType.ASCII, raw)


def pack_bitarray(record_type: int, bits: int) -> bytes:
    """Record of one 16-bit flag word."""
    return pack_record(record_type, DataType.BITARRAY, struct.pack(">H", bits))


def iter_record_headers(fh, total: int, start: int = 0, end: Optional[int] = None):
    """Yield ``(offset, length, record_type, data_type)`` record headers.

    The one GDSII tokenizer: ``fh`` is a seekable binary file object
    holding ``total`` bytes, ``[start, end)`` the byte range to walk.
    After each yield the file position is just past the 4-byte header,
    so the caller may read the payload (``length - 4`` bytes) or leave
    it; the cursor re-seeks to the next record either way.  A
    zero-length record terminates the walk (some writers pad the tail
    with zero words).

    Raises:
        GdsiiError: on truncated or malformed records.
    """
    limit = total if end is None else min(end, total)
    offset = start
    fh.seek(offset)
    while offset < limit:
        header = fh.read(4)
        if len(header) < 4:
            raise GdsiiError(f"truncated record header at byte {offset}")
        length, record_type, data_type = struct.unpack(">HBB", header)
        if length == 0:
            break
        if length < 4:
            raise GdsiiError(f"record length {length} < 4 at byte {offset}")
        if offset + length > total:
            raise GdsiiError(f"truncated record payload at byte {offset}")
        yield offset, length, record_type, data_type
        offset += length
        if fh.tell() != offset:
            fh.seek(offset)


def unpack_int16(payload: bytes) -> List[int]:
    """Decode a big-endian int16 payload."""
    if len(payload) % 2:
        raise GdsiiError("odd int16 payload length")
    return list(struct.unpack(f">{len(payload) // 2}h", payload))


def int32_count(size: int) -> int:
    """How many int32 values a ``size``-byte payload holds."""
    if size % 4:
        raise GdsiiError("int32 payload length not a multiple of 4")
    return size // 4


def unpack_int32(payload: bytes) -> List[int]:
    """Decode a big-endian int32 payload."""
    return list(struct.unpack(f">{int32_count(len(payload))}i", payload))


def unpack_real8(payload: bytes) -> List[float]:
    """Decode an 8-byte-real payload."""
    if len(payload) % 8:
        raise GdsiiError("real8 payload length not a multiple of 8")
    return [decode_real8(payload[i : i + 8]) for i in range(0, len(payload), 8)]


def unpack_ascii(payload: bytes) -> str:
    """Decode a NUL-padded ASCII payload."""
    try:
        return payload.rstrip(b"\x00").decode("ascii")
    except UnicodeDecodeError:
        raise GdsiiError("non-ASCII byte in a string record") from None
