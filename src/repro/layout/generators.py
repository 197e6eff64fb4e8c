"""Synthetic workload generators for the reconstructed evaluation.

Each generator returns a :class:`~repro.layout.library.Library` whose top
cell holds a pattern family the 1979-era throughput and fidelity studies
sweep over:

* :func:`grating` — line/space gratings (density and CD test vehicle).
* :func:`contact_array` — square contact/via arrays (shot-count stress).
* :func:`random_logic` — pseudo-random Manhattan wiring (IC metal proxy).
* :func:`memory_array` — deep hierarchy via nested AREFs (data-volume test).
* :func:`fresnel_zone_plate` — curved figures that stress the fracturer.
* :func:`serpentine` — one long meander wire (vector-writer friendly).
* :func:`density_ladder` — pads at graded pattern density (PEC vehicle).
* :func:`isolated_line_with_pad` — the classic proximity test structure.
* :func:`checkerboard` — worst-case corner-adjacency for reassembly.

All dimensions are micrometres.  Generators are deterministic given their
``seed``.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.geometry.polygon import Polygon
from repro.layout.cell import Cell
from repro.layout.layer import DEFAULT_LAYER, Layer
from repro.layout.library import Library


#: No generator emits a feature narrower than this [µm]: one CIF
#: centimicron, the coarser of the two layout-file grids (GDSII's default
#: database unit is 1 nm), so generated geometry never collapses to zero
#: area when a writer snaps it — writers reject polygons that do.
MIN_FEATURE = 0.01


def _library(top: Cell, name: str) -> Library:
    lib = Library(name)
    lib.add(top)
    return lib


def grating(
    pitch: float = 2.0,
    duty: float = 0.5,
    lines: int = 50,
    length: float = 100.0,
    layer: Layer = DEFAULT_LAYER,
) -> Library:
    """Line/space grating of ``lines`` vertical lines.

    Args:
        pitch: line-to-line period.
        duty: linewidth / pitch, in (0, 1).
        lines: number of lines.
        length: line length.
    """
    if not (0.0 < duty < 1.0):
        raise ValueError("duty cycle must be in (0, 1)")
    if pitch <= 0 or lines < 1 or length <= 0:
        raise ValueError("grating dimensions must be positive")
    top = Cell("GRATING")
    width = pitch * duty
    for i in range(lines):
        x = i * pitch
        top.add_rectangle(x, 0.0, x + width, length, layer)
    return _library(top, "GRATING_LIB")


def contact_array(
    size: float = 1.0,
    pitch: float = 4.0,
    columns: int = 32,
    rows: int = 32,
    layer: Layer = DEFAULT_LAYER,
    hierarchical: bool = False,
) -> Library:
    """Square contact array: ``columns x rows`` squares of ``size``.

    With ``hierarchical=True`` the array is stored as a single-contact cell
    plus an AREF, which is how production data kept volumes manageable.
    """
    if size <= 0 or pitch < size:
        raise ValueError("need 0 < size <= pitch")
    top = Cell("CONTACTS")
    if hierarchical:
        unit = Cell("CONTACT")
        unit.add_rectangle(0.0, 0.0, size, size, layer)
        top.instantiate_array(unit, columns, rows, pitch, pitch)
        lib = _library(top, "CONTACTS_LIB")
        lib.add(unit)
        return lib
    for row in range(rows):
        for col in range(columns):
            x = col * pitch
            y = row * pitch
            top.add_rectangle(x, y, x + size, y + size, layer)
    return _library(top, "CONTACTS_LIB")


def random_logic(
    chip_size: float = 100.0,
    wire_width: float = 1.0,
    target_density: float = 0.2,
    seed: int = 0,
    layer: Layer = DEFAULT_LAYER,
    pad_fraction: float = 0.15,
) -> Library:
    """Pseudo-random Manhattan wiring resembling an IC metal layer.

    Wires are horizontal/vertical rectangles of width ``wire_width``
    placed on a routing grid until the *raw* (overlap-counted) pattern
    density reaches ``target_density``; a fraction of the area budget goes
    into larger square pads.  Deterministic for a given ``seed``.
    """
    if not (0.0 < target_density < 0.9):
        raise ValueError("target_density must be in (0, 0.9)")
    rng = random.Random(seed)
    top = Cell("LOGIC")
    chip_area = chip_size * chip_size
    budget = target_density * chip_area
    placed = 0.0
    grid = wire_width * 2.0

    pad_budget = budget * pad_fraction
    pad_side = wire_width * 6.0
    while placed < pad_budget:
        x = rng.uniform(0, chip_size - pad_side)
        y = rng.uniform(0, chip_size - pad_side)
        x = round(x / grid) * grid
        y = round(y / grid) * grid
        top.add_rectangle(x, y, x + pad_side, y + pad_side, layer)
        placed += pad_side * pad_side

    while placed < budget:
        horizontal = rng.random() < 0.5
        length = rng.uniform(4, 40) * wire_width
        x = rng.uniform(0, chip_size)
        y = rng.uniform(0, chip_size)
        x = round(x / grid) * grid
        y = round(y / grid) * grid
        # Clip to the chip.  A wire whose clipped width falls below the
        # grid (a track on, or within rounding of, the chip edge) is not
        # emitted — it would collapse to zero area in a layout file —
        # but still counts against the budget as it always has, so every
        # other wire of a given seed stays where it was.
        if horizontal:
            x_end = min(x + length, chip_size)
            y_end = min(y + wire_width, chip_size)
            if x_end - x < wire_width:
                continue
            placed += (x_end - x) * wire_width
        else:
            x_end = min(x + wire_width, chip_size)
            y_end = min(y + length, chip_size)
            if y_end - y < wire_width:
                continue
            placed += (y_end - y) * wire_width
        if min(x_end - x, y_end - y) >= MIN_FEATURE:
            top.add_rectangle(x, y, x_end, y_end, layer)
    return _library(top, "LOGIC_LIB")


def memory_array(
    bit_width: float = 2.0,
    bit_height: float = 3.0,
    words: int = 16,
    bits: int = 16,
    blocks: Tuple[int, int] = (4, 4),
    layer: Layer = DEFAULT_LAYER,
) -> Library:
    """Two-level hierarchical memory: bit cell → word block → block array.

    The bit cell holds a handful of polygons; a block arrays it
    ``bits x words``; the chip arrays blocks ``blocks[0] x blocks[1]``.
    Exercises deep AREF nesting for the data-volume experiment (T3).
    """
    bit = Cell("BIT")
    # A stylized 1-transistor cell: gate, diffusion, contact.
    bit.add_rectangle(0.0, 0.0, bit_width, bit_height * 0.25, layer)
    bit.add_rectangle(
        bit_width * 0.3, 0.0, bit_width * 0.7, bit_height * 0.9, layer
    )
    bit.add_rectangle(
        bit_width * 0.1,
        bit_height * 0.55,
        bit_width * 0.9,
        bit_height * 0.75,
        layer,
    )

    block = Cell("BLOCK")
    block.instantiate_array(bit, bits, words, bit_width * 1.5, bit_height * 1.2)

    block_w = bits * bit_width * 1.5
    block_h = words * bit_height * 1.2
    top = Cell("CHIP")
    top.instantiate_array(
        block, blocks[0], blocks[1], block_w * 1.1, block_h * 1.1
    )

    lib = Library("MEMORY_LIB")
    lib.add(top)
    return lib


def fresnel_zone_plate(
    wavelength: float = 0.532,
    focal_length: float = 150.0,
    zones: int = 20,
    points_per_arc: int = 64,
    center: Tuple[float, float] = (0.0, 0.0),
    layer: Layer = DEFAULT_LAYER,
) -> Library:
    """Fresnel zone plate: opaque even zones as annular polygons.

    Zone radii follow ``r_n = sqrt(n λ f + (n λ / 2)²)``.  Annuli are
    approximated by two-arc polygons with ``points_per_arc`` vertices per
    arc — a deliberately fracture-hostile, all-curves workload.
    """
    if zones < 2:
        raise ValueError("need at least 2 zones")
    top = Cell("FZP")

    def radius(n: int) -> float:
        return math.sqrt(n * wavelength * focal_length + (n * wavelength / 2.0) ** 2)

    for n in range(1, zones, 2):
        r_in = radius(n)
        r_out = radius(n + 1)
        # Full annulus as two half-annulus polygons (avoids keyholes).
        for start, end in ((0.0, math.pi), (math.pi, 2.0 * math.pi)):
            top.add_polygon(
                Polygon.annulus_sector(
                    center, r_in, r_out, start, end, points_per_arc
                ),
                layer,
            )
    return _library(top, "FZP_LIB")


def serpentine(
    wire_width: float = 1.0,
    pitch: float = 4.0,
    turns: int = 20,
    length: float = 80.0,
    layer: Layer = DEFAULT_LAYER,
) -> Library:
    """A serpentine (meander) resistor: one connected Manhattan wire."""
    if pitch < 2 * wire_width:
        raise ValueError("pitch too small for wire width")
    top = Cell("SERPENTINE")
    pts: List[Tuple[float, float]] = [(0.0, 0.0)]
    y = 0.0
    for turn in range(turns):
        x_far = length if turn % 2 == 0 else 0.0
        pts.append((x_far, y))
        y += pitch
        pts.append((x_far, y))
    pts.append((length if turns % 2 == 0 else 0.0, y))
    top.add_polygon(Polygon.from_path(pts, wire_width), layer)
    return _library(top, "SERPENTINE_LIB")


def density_ladder(
    pad_size: float = 20.0,
    densities: Tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9),
    gap: float = 10.0,
    layer: Layer = DEFAULT_LAYER,
) -> Library:
    """A row of grating pads at graded local density.

    Each pad is a sub-grating whose duty cycle equals the requested
    density — the standard proximity-effect characterization vehicle.
    """
    top = Cell("DENSITY_LADDER")
    x0 = 0.0
    pitch = 2.0
    for density in densities:
        if not (0.0 < density < 1.0):
            raise ValueError("densities must be in (0, 1)")
        width = pitch * density
        lines = int(pad_size / pitch)
        for i in range(lines):
            x = x0 + i * pitch
            top.add_rectangle(x, 0.0, x + width, pad_size, layer)
        x0 += pad_size + gap
    return _library(top, "DENSITY_LADDER_LIB")


def isolated_line_with_pad(
    line_width: float = 0.5,
    line_length: float = 30.0,
    pad_size: float = 20.0,
    separation: float = 2.0,
    layer: Layer = DEFAULT_LAYER,
) -> Library:
    """The classic PEC test: a fine isolated line beside a large pad.

    Backscatter from the pad fogs the near end of the line; dose
    correction must equalize the line's developed width along its length.
    """
    top = Cell("LINE_AND_PAD")
    top.add_rectangle(0.0, 0.0, pad_size, pad_size, layer)
    x = pad_size + separation
    top.add_rectangle(x, 0.0, x + line_width, line_length, layer)
    return _library(top, "LINE_AND_PAD_LIB")


def checkerboard(
    cells: int = 8,
    square: float = 5.0,
    layer: Layer = DEFAULT_LAYER,
) -> Library:
    """Checkerboard with touching corners — a reassembly stress test."""
    top = Cell("CHECKERBOARD")
    for row in range(cells):
        for col in range(cells):
            if (row + col) % 2 == 0:
                x = col * square
                y = row * square
                top.add_rectangle(x, y, x + square, y + square, layer)
    return _library(top, "CHECKERBOARD_LIB")


def full_reticle(
    tiles: int = 10,
    pitch: float = 100.0,
    layer: Layer = DEFAULT_LAYER,
) -> Library:
    """A full-reticle mosaic: ``tiles × tiles`` zone-plate dies.

    The out-of-core workload — one :func:`fresnel_zone_plate` die cell
    (20 flat polygons) arrayed on a ``pitch`` grid, so ``tiles=10``
    expands to 2 000 flat polygons (100× the single die) while the
    hierarchical library stays tiny.  Size is a parameter, not a baked
    constant: the memory benchmark sweeps ``tiles`` to grow the flat
    workload far past what a materializing run wants to hold.
    """
    if tiles < 1:
        raise ValueError("tiles must be >= 1")
    if pitch <= 0:
        raise ValueError("pitch must be positive")
    die = fresnel_zone_plate(layer=layer).top_cell()
    top = Cell("RETICLE")
    top.instantiate_array(die, tiles, tiles, pitch, pitch)
    lib = Library("RETICLE_LIB")
    lib.add(top)
    return lib


def write_full_reticle(
    path,
    tiles: int = 10,
    pitch: float = 100.0,
    layer: Layer = DEFAULT_LAYER,
    flat: bool = True,
) -> int:
    """Generate the full-reticle GDSII straight to disk; returns bytes.

    With ``flat=True`` (the default) every die placement is expanded
    and written through the incremental
    :class:`~repro.layout.stream.GdsiiStreamWriter` — one translated
    polygon at a time, so a reticle far larger than RAM is generated
    without ever materializing it.  The emitted bytes are identical to
    ``dumps_gdsii`` of a library holding the same flattened cell.
    With ``flat=False`` the compact hierarchical library (die cell +
    one AREF) is written instead.
    """
    if flat:
        from repro.layout.stream import GdsiiStreamWriter

        if tiles < 1:
            raise ValueError("tiles must be >= 1")
        if pitch <= 0:
            raise ValueError("pitch must be positive")
        die = fresnel_zone_plate(layer=layer).top_cell()
        with GdsiiStreamWriter(path, name="RETICLE_LIB") as writer:
            writer.begin_cell("RETICLE")
            # One layer, so canonical per-layer order reduces to the
            # placement walk: row-major dies, stream-order polygons.
            for found in sorted(die.polygons):
                for row in range(tiles):
                    for col in range(tiles):
                        dx, dy = col * pitch, row * pitch
                        for poly in die.polygons[found]:
                            writer.write_polygon(poly.translated(dx, dy), found)
            writer.end_cell()
            return writer.close()
    from repro.layout.gdsii import write_gdsii

    return write_gdsii(full_reticle(tiles=tiles, pitch=pitch, layer=layer), path)


#: The standard benchmark workload suite: name → generator, each called
#: with its defaults.  Look one workload up here; :func:`all_workloads`
#: builds every one of them.
WORKLOADS: Dict[str, Callable[..., Library]] = {
    "grating": grating,
    "contacts": contact_array,
    "logic": random_logic,
    "memory": memory_array,
    "fzp": fresnel_zone_plate,
    "serpentine": serpentine,
    "density_ladder": density_ladder,
    "line_and_pad": isolated_line_with_pad,
    "checkerboard": checkerboard,
}


def workload(
    name: str, extra: Optional[Mapping[str, Callable[..., Library]]] = None
) -> Callable[..., Library]:
    """The factory of built-in workload ``name`` — the one lookup every
    front door uses (``extra`` adds a door's own entries, e.g. the
    CLI's ``--tiles``-sized ``full_reticle``).

    Raises:
        ValueError: ``name`` is not a workload; the message lists them.
    """
    table = {**WORKLOADS, **(extra or {})}
    if name not in table:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(table)}"
        )
    return table[name]


def all_workloads(seed: int = 0) -> List[Tuple[str, Library]]:
    """Every :data:`WORKLOADS` entry built, as ``(name, library)`` pairs
    (``seed`` reaches the one seeded generator, ``random_logic``)."""
    return [
        (name, factory(seed=seed) if factory is random_logic else factory())
        for name, factory in WORKLOADS.items()
    ]
