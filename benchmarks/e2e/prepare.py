"""Set-up work that needs the program under test: writing a workload's
input file and waiting for the worker fleet.

The end-to-end run calls this file as a **child process**
(``python prepare.py input …`` / ``python prepare.py fleet …``) and
never imports it.  Linux carries the spawning process's resident
high-water mark into a child's ``ru_maxrss`` across ``exec``, so an op
can never read below the peak of the process that measures it: a parent
that had imported numpy and ``repro`` and built the layouts peaked at
~125 MiB and hid any memory gain below that.  With the generators out
of process the measuring parent stays near 24 MiB (stdlib only), under
every op's true peak.  The traced run, which computes in process
anyway, imports these functions directly.
"""

from __future__ import annotations

import socket
import sys
import time
from pathlib import Path
from typing import Tuple

from repro.dist.protocol import recv_frame, send_frame
from repro.layout import generators
from repro.layout.cell import Cell
from repro.layout.gdsii import write_gdsii
from repro.layout.library import Library
from repro.layout.stream import GdsiiStreamWriter

import workloads as wl


def write_reticle(path: Path, tiles: int, seed: int) -> None:
    """The flat ``tiles × tiles`` zone-plate reticle, placed at the
    seed's offset.  At offset (0, 0) the bytes are those of
    ``generators.write_full_reticle``; the loop is repeated here only
    because that function has no origin parameter."""
    ox, oy = wl.OFFSETS[wl.variant(seed)]
    die = generators.fresnel_zone_plate().top_cell()
    with GdsiiStreamWriter(path, name="RETICLE_LIB") as writer:
        writer.begin_cell("RETICLE")
        for layer in sorted(die.polygons):
            for row in range(tiles):
                for col in range(tiles):
                    dx, dy = ox + col * wl.FIELD, oy + row * wl.FIELD
                    for poly in die.polygons[layer]:
                        writer.write_polygon(poly.translated(dx, dy), layer)
        writer.end_cell()


def write_memory(path: Path, blocks: Tuple[int, int], seed: int) -> None:
    """The hierarchical memory array, its top cell placed at the seed's
    offset through one extra reference level."""
    chip = generators.memory_array(blocks=blocks).top_cell()
    placed = Cell("CHIP_AT")
    placed.instantiate(chip, origin=wl.OFFSETS[wl.variant(seed)])
    library = Library("MEMORY_LIB")
    library.add(placed)
    write_gdsii(library, path)


def write_input(layout: str, sizes: wl.Sizes, seed: int, path: Path) -> None:
    if layout == "reticle":
        write_reticle(path, sizes.tiles, seed)
    else:
        write_memory(path, sizes.blocks, seed)


def wait_fleet_ready(endpoint: str, count: int, timeout: float = 30.0) -> None:
    """Stand in for the coordinator until ``count`` distinct daemons
    have asked for a lease, answering each with the idle reply.  The
    daemons have then finished importing and sit in their reconnect
    loop, so the first op meets a ready fleet."""
    host, port = endpoint.rsplit(":", 1)
    seen = set()
    deadline = time.monotonic() + timeout
    with socket.socket() as listener:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, int(port)))
        listener.listen()
        listener.settimeout(0.5)
        while len(seen) < count:
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"only {len(seen)} of {count} worker daemons connected"
                )
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            with conn:
                conn.settimeout(5.0)
                try:
                    header, _ = recv_frame(conn)
                    send_frame(conn, {"type": "wait", "hint": 0.05})
                except OSError:
                    continue
                seen.add(header.get("worker"))


def main(argv) -> int:
    """``input <reticle|memory> <sizes label> <seed> <path>`` or
    ``fleet <host:port> <count>``."""
    if argv[:1] == ["input"] and len(argv) == 5:
        sizes = {s.label: s for s in (wl.FULL, wl.MINI)}[argv[2]]
        write_input(argv[1], sizes, int(argv[3]), Path(argv[4]))
        return 0
    if argv[:1] == ["fleet"] and len(argv) == 3:
        try:
            wait_fleet_ready(argv[1], int(argv[2]))
        except TimeoutError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0
    print(main.__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
