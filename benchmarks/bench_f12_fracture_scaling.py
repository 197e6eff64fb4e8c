"""F12 — Fracture kernel scaling and hierarchy reuse.

Two effects introduced by the vectorized geometry kernel PR:

* **Kernel speedup** — the NumPy exact-integer scanline engine
  (``kernel="fast"``) vs. the pure-Python ``Fraction`` reference
  (``kernel="exact"``) on the FZP (all-curves) and memory-array
  (Manhattan, array-dominated) workloads, at growing polygon counts,
  plus two workloads the widened kernel must no longer degrade on:
  geometry translated to |coord| ~ 2**31 database units (beyond the
  old 2**24 order-embedding limit) and a crossing-dense slanted mesh
  (every slab bounded by rational crossing ys).  The two kernels must
  agree **bitwise** on every workload and report **zero** fallbacks
  (counters land in the BENCH_F12 JSON rows — coord-limit,
  rational-slab and scalar-merge); in full mode the fast
  kernel must clear a 3x floor on the large cases, in ``--quick``
  (CI) mode it must simply never be slower.  The ``exact`` column
  includes the object-by-object vertical merge (it is the oracle's);
  the ``fast`` column merges its rows as arrays.

* **Hierarchy reuse through the real pipeline** — ``hierarchy="cells"``
  vs. flat preparation on memory arrays, both through
  :class:`~repro.core.pipeline.PreparationPipeline`.  To isolate the
  *reuse* effect from the kernel speedup the comparison holds the
  kernel fixed (the Fraction reference, where fracture dominates —
  the F8c setting); in full mode the 8x8 array must clear a 10x floor.
  The fast-kernel pipeline numbers are reported alongside.

* **A stepped die** (F12b) — the F16 reticle's die
  (``fresnel_zone_plate()``) fractured three times, moved by whole
  database units each time, as a reticle's shards arrive: the sweep, the
  re-emission that builds the kept sweep's merge plan, and a copy the
  plan serves.  Each must be bitwise the cold call on the same copy; the
  served copy must be faster than the re-emission before it.
"""

import time

from repro.analysis.tables import Table
from repro.core.pipeline import PreparationPipeline
from repro.fracture.trapezoidal import TrapezoidFracturer
from repro.geometry.boolean import boolean_trapezoids
from repro.geometry.polygon import Polygon
from repro.geometry.scanline_fast import KernelFallbacks, clear_sweep_slot
from repro.geometry.vertex_array import trapezoid_array
from repro.layout import generators
from repro.layout.flatten import flatten_cell


def _flat_polygons(library):
    flat = flatten_cell(library.top_cell())
    return [p for v in flat.values() for p in v]


def _best_of(fn, repeats):
    """Fastest of ``repeats`` calls, each with the fast kernel's kept
    sweep forgotten first (so a repeat times the sweep again)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        clear_sweep_slot()
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _triangle_band(n):
    """n disjoint slanted triangles sharing one y band — the worst case
    for crossing-candidate generation (every edge pair y-overlaps, none
    cross), guarding the batched-pruning path against regressions."""
    from repro.geometry.polygon import Polygon
    from repro.layout.cell import Cell
    from repro.layout.library import Library

    cell = Cell("TRIBAND")
    for i in range(n):
        cell.add_polygon(
            Polygon(
                [(i * 3.0, 0.0), (i * 3.0 + 2.0, 0.1), (i * 3.0 + 1.0, 10.0)]
            )
        )
    lib = Library("TRIBAND_LIB")
    lib.add(cell)
    return lib


def _translated(polys, dx, dy):
    from repro.geometry.polygon import Polygon

    return [
        Polygon([(v.x + dx, v.y + dy) for v in p.vertices]) for p in polys
    ]


def _crossing_mesh(clusters):
    """A grid of clusters, each two mutually crossing slanted triangles
    — every cluster slab is bounded by rational crossing ys, so nearly
    the whole sweep runs on the vectorized rational-slab path (which the
    old kernel handed to the scalar ``ScanEdge``+``Fraction`` loop)."""
    import math as _math

    from repro.geometry.polygon import Polygon

    cols = max(1, int(_math.isqrt(clusters)))
    polys = []
    for i in range(clusters):
        x = (i % cols) * 50.0
        y = (i // cols) * 50.0
        polys.append(
            Polygon(
                [
                    (x, y + 1.0 + (i % 5)),
                    (x + 40.0, y + 9.0 + (i % 7)),
                    (x + 19.0, y + 37.0),
                ]
            )
        )
        polys.append(
            Polygon(
                [
                    (x + 3.0, y + 30.0 - (i % 4)),
                    (x + 38.0, y + 27.0),
                    (x + 17.0 + (i % 3), y - 2.0),
                ]
            )
        )
    return polys


#: Layout-unit offset that puts coordinates at ~2**31 database units
#: (default 1e-3 grid) — far beyond the old 2**24 embedding limit.
_FAR_OFFSET = (1 << 31) * 1e-3


def kernel_workloads(quick):
    if quick:
        libs = [
            ("fzp z8", generators.fresnel_zone_plate(zones=8, points_per_arc=32)),
            ("mem 2x2", generators.memory_array(words=8, bits=8, blocks=(2, 2))),
            ("tri band 400", _triangle_band(400)),
        ]
        extra = [
            (
                "far band 300 @2^31",
                _translated(
                    _flat_polygons(_triangle_band(300)),
                    _FAR_OFFSET,
                    -_FAR_OFFSET,
                ),
            ),
            ("cross mesh 100", _crossing_mesh(100)),
        ]
    else:
        libs = [
            ("fzp z8", generators.fresnel_zone_plate(zones=8, points_per_arc=32)),
            ("fzp z20", generators.fresnel_zone_plate(zones=20, points_per_arc=64)),
            ("mem 2x2", generators.memory_array(words=8, bits=8, blocks=(2, 2))),
            ("mem 4x4", generators.memory_array(words=8, bits=8, blocks=(4, 4))),
            ("mem 8x8", generators.memory_array(words=8, bits=8, blocks=(8, 8))),
            ("tri band 2k", _triangle_band(2000)),
        ]
        extra = [
            (
                "far band 2k @2^31",
                _translated(
                    _flat_polygons(_triangle_band(2000)),
                    _FAR_OFFSET,
                    -_FAR_OFFSET,
                ),
            ),
            ("cross mesh 1k", _crossing_mesh(1000)),
        ]
    return [(name, _flat_polygons(lib)) for name, lib in libs] + extra


def run_kernel_scaling(quick):
    repeats = 1 if quick else 2
    table = Table(
        ["workload", "polygons", "figures", "exact [s]", "fast [s]",
         "speedup", "fallbacks"],
        title="F12: scanline kernel — Fraction reference vs. vectorized "
        "exact-integer (bitwise-identical output, zero fallbacks)",
    )
    rows = []
    for name, polys in kernel_workloads(quick):
        t_exact, exact = _best_of(
            lambda: boolean_trapezoids(polys, [], "or", kernel="exact"),
            repeats,
        )
        t_fast, fast = _best_of(
            lambda: boolean_trapezoids(polys, [], "or", kernel="fast"),
            repeats,
        )
        # The contract under test: bit-identical trapezoids, with every
        # slab swept on the vectorized path (one extra counted run;
        # the counters accumulate, so they stay out of the timed loop).
        assert fast == exact, f"kernel outputs diverge on {name}"
        fallbacks = KernelFallbacks()
        boolean_trapezoids(polys, [], "or", kernel="fast",
                           fallbacks=fallbacks)
        speedup = t_exact / t_fast
        rows.append(
            {
                "workload": name,
                "polygons": len(polys),
                "figures": len(exact),
                "exact_s": t_exact,
                "fast_s": t_fast,
                "speedup": speedup,
                "coord_fallbacks": fallbacks.coord_limit,
                "slab_fallbacks": fallbacks.rational_slab,
                "merge_fallbacks": fallbacks.scalar_merge,
            }
        )
        table.add_row(
            [name, len(polys), len(exact), t_exact, t_fast,
             f"{speedup:.1f}x", fallbacks.total()]
        )
    # Floors: CI (--quick) demands "never slower"; the full run demands
    # a 3x win on every large workload.  Every workload — including the
    # 2**31-coordinate and crossing-dense ones — must run entirely on
    # the fast path: the old kernel silently fell back on both.
    for row in rows:
        assert not (
            row["coord_fallbacks"]
            or row["slab_fallbacks"]
            or row["merge_fallbacks"]
        ), (
            f"fast kernel degraded on {row['workload']}: "
            f"{row['coord_fallbacks']} coord-limit, "
            f"{row['slab_fallbacks']} rational-slab, "
            f"{row['merge_fallbacks']} scalar-merge fallbacks"
        )
        assert row["speedup"] >= 1.0, (
            f"fast kernel slower than reference on {row['workload']}: "
            f"{row['speedup']:.2f}x"
        )
    if not quick:
        for row in rows:
            if row["polygons"] >= 1000 or row["figures"] >= 1000:
                assert row["speedup"] >= 3.0, (
                    f"fast kernel below the 3x floor on "
                    f"{row['workload']}: {row['speedup']:.2f}x"
                )
    return table.render(), rows


def run_die_copies(quick):
    """The F16 die's sweep, its plan-building re-emission and a served
    copy, each the best of ``repeats`` runs of the three in order (the
    slot cleared before each run), each bitwise the cold call."""
    repeats = 3 if quick else 9
    die = _flat_polygons(generators.fresnel_zone_plate())
    copies = [
        [Polygon(p.ring + (100.0 * k, 0.0)) for p in die] for k in (1, 2, 3)
    ]

    def fracture(polys):
        return trapezoid_array(boolean_trapezoids(polys, [], "or")).tobytes()

    cold = []
    for polys in copies:
        clear_sweep_slot()
        cold.append(fracture(polys))
    best = [float("inf")] * 3
    for _ in range(repeats):
        clear_sweep_slot()
        for k, polys in enumerate(copies):
            start = time.perf_counter()
            got = fracture(polys)
            best[k] = min(best[k], time.perf_counter() - start)
            assert got == cold[k], f"copy {k} differs from its cold call"
    figures = len(cold[0]) // (6 * 8)
    table = Table(
        ["call", "figures", "fast [s]", "vs sweep"],
        title="F12b: one die stepped by whole database units — sweep, "
        "plan-building re-emission, served copy (each bitwise the cold "
        "call)",
    )
    rows = []
    for name, seconds in zip(("sweep", "plan hit", "served copy"), best):
        rows.append({"call": name, "figures": figures, "fast_s": seconds})
        table.add_row([name, figures, seconds, f"{seconds / best[0]:.2f}x"])
    assert best[2] < best[1], (
        f"a served copy ({best[2]:.4f} s) is not faster than the "
        f"re-emission that built its plan ({best[1]:.4f} s)"
    )
    return table.render(), rows


def hierarchy_cases(quick):
    if quick:
        return [(2, 2)]
    return [(2, 2), (4, 4), (8, 8)]


def run_hierarchy_reuse(quick):
    table = Table(
        ["array", "figures", "flat [s]", "cells [s]", "reuse win",
         "fast flat [s]", "fast cells [s]"],
        title="F12a: pipeline hierarchy reuse — flat vs. cells "
        "(reference kernel isolates reuse; fast-kernel columns for "
        "the shipping configuration)",
    )
    exact = TrapezoidFracturer(kernel="exact")
    exact_flat = PreparationPipeline(fracturer=exact)
    exact_cells = PreparationPipeline(fracturer=exact, hierarchy="cells")
    fast_flat_pipe = PreparationPipeline()
    fast_cells_pipe = PreparationPipeline(hierarchy="cells")
    rows = []
    for blocks in hierarchy_cases(quick):
        lib = generators.memory_array(words=8, bits=8, blocks=blocks)
        t0 = time.perf_counter()
        flat = exact_flat.run(lib)
        t1 = time.perf_counter()
        cells = exact_cells.run(lib)
        t2 = time.perf_counter()
        fast_flat = fast_flat_pipe.run(lib)
        t3 = time.perf_counter()
        fast_cells = fast_cells_pipe.run(lib)
        t4 = time.perf_counter()
        assert cells.job.figure_count() == flat.job.figure_count()
        assert fast_cells.job.figure_count() == flat.job.figure_count()
        assert cells.execution.instances_reused > 0
        win = (t1 - t0) / (t2 - t1)
        rows.append(
            {
                "blocks": f"{blocks[0]}x{blocks[1]}",
                "figures": cells.job.figure_count(),
                "flat_s": t1 - t0,
                "cells_s": t2 - t1,
                "reuse_win": win,
                "fast_flat_s": t3 - t2,
                "fast_cells_s": t4 - t3,
                "instances_reused": cells.execution.instances_reused,
            }
        )
        table.add_row(
            [
                f"{blocks[0]}x{blocks[1]}",
                cells.job.figure_count(),
                t1 - t0,
                t2 - t1,
                f"{win:.1f}x",
                t3 - t2,
                t4 - t3,
            ]
        )
    for row in rows:
        assert row["reuse_win"] >= 1.0, (
            f"cells mode slower than flat on {row['blocks']}: "
            f"{row['reuse_win']:.2f}x"
        )
    if not quick:
        big = [r for r in rows if r["blocks"] == "8x8"]
        assert big and big[0]["reuse_win"] >= 10.0, (
            "hierarchy reuse below the 10x floor on the 8x8 array: "
            f"{big[0]['reuse_win']:.2f}x"
        )
    return table.render(), rows


def test_f12_kernel_scaling(quick, save_table, benchmark, cold_sweep):
    text, rows = run_kernel_scaling(quick)
    save_table("f12_kernel_scaling", text, data={"rows": rows})
    polys = _flat_polygons(
        generators.fresnel_zone_plate(zones=8, points_per_arc=32)
    )
    benchmark(cold_sweep(boolean_trapezoids), polys, [], "or")


def test_f12a_hierarchy_reuse(quick, save_table, benchmark):
    text, rows = run_hierarchy_reuse(quick)
    save_table("f12a_hierarchy_reuse", text, data={"rows": rows})
    lib = generators.memory_array(words=8, bits=8, blocks=(2, 2))
    pipe = PreparationPipeline(hierarchy="cells")
    benchmark(pipe.run, lib)


def test_f12b_die_copies(quick, save_table, benchmark):
    text, rows = run_die_copies(quick)
    save_table("f12b_die_copies", text, data={"rows": rows})
    die = _flat_polygons(generators.fresnel_zone_plate())
    clear_sweep_slot()
    for k in (1, 2):  # the sweep, then the re-emission that plans
        boolean_trapezoids([Polygon(p.ring + (100.0 * k, 0.0)) for p in die],
                           [], "or")
    benchmark(boolean_trapezoids, die, [], "or")
