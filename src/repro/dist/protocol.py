"""The wire protocol between the lease coordinator and its workers.

One frame per message, both directions::

    +----------------+-----------------+----------------+-------------+
    | header len: u32 | payload len: u32 | header (JSON)  | payload     |
    +----------------+-----------------+----------------+-------------+

Both length fields are big-endian.  The header is a small JSON object
(``{"type": "lease", ...}``) carrying the scheduling conversation; the
payload is opaque bytes — a shard's ``EBS1`` payload
(:func:`repro.core.jobfile.dumps_shard`) or the batch's pickled
``(config, faults)`` on the way out, a shard result's ``EBC1`` payload
on the way back.  Every connection carries exactly one request frame
and one reply frame (HTTP/1.0 style): the coordinator is a
:class:`socketserver.ThreadingTCPServer` and one-shot connections keep
its state machine trivially free of per-connection bookkeeping.

Security model: shards and results travel in the two checked binary
formats, but the batch configuration (fracturer, corrector, PSF, fault
plan) is still pickled, and a pickle is executed on receipt — so this
protocol is for a *trusted* cluster segment (localhost or a private
LAN), exactly like the process pool it extends — never expose the
coordinator port to untrusted peers.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Optional, Tuple

#: Frame prefix: big-endian header length + payload length.
_FRAME = struct.Struct(">II")

#: Refuse frames beyond this many bytes per part — a corrupt or hostile
#: length prefix must not trigger a giant allocation.
MAX_PART = 1 << 30


class ProtocolError(ConnectionError):
    """A malformed, truncated or oversized frame.

    Subclasses :class:`ConnectionError` (an ``OSError``) so callers'
    existing transient-fault handling — ``RetryPolicy.is_transient``
    above all — classifies a garbled conversation exactly like a
    dropped one.
    """


def parse_endpoint(text: str) -> Tuple[str, int]:
    """Split ``"host:port"`` into a connectable address tuple."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"endpoint must look like host:port, got {text!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"endpoint port must be an integer, got {text!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(f"endpoint port out of range in {text!r}")
    return host, port


def send_frame(sock: socket.socket, header: dict, payload: bytes = b"") -> None:
    """Send one framed message."""
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    sock.sendall(_FRAME.pack(len(head), len(payload)) + head + payload)


def recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`ProtocolError`."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ProtocolError(
                f"connection closed mid-frame ({remaining} of {n} bytes "
                "missing)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Tuple[dict, bytes]:
    """Receive one framed message as ``(header, payload)``."""
    head_len, payload_len = _FRAME.unpack(recv_exact(sock, _FRAME.size))
    if head_len > MAX_PART or payload_len > MAX_PART:
        raise ProtocolError(
            f"frame part too large ({head_len}/{payload_len} bytes)"
        )
    try:
        header = json.loads(recv_exact(sock, head_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError(
            f"frame header must be an object, got {type(header).__name__}"
        )
    return header, recv_exact(sock, payload_len)


def request(
    address: Tuple[str, int],
    header: dict,
    payload: bytes = b"",
    timeout: Optional[float] = 10.0,
) -> Tuple[dict, bytes]:
    """One-shot RPC: connect, send one frame, receive one reply.

    Raises ``OSError`` (including :class:`ProtocolError`) on any
    connection or framing trouble — callers decide whether to retry.
    """
    with socket.create_connection(address, timeout=timeout) as sock:
        send_frame(sock, header, payload)
        return recv_frame(sock)
