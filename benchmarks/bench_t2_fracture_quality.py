"""T2 — Fracture quality: figure count and sliver fraction by strategy.

Compares the trapezoid, rectangle (staircase) and VSB-shot fracturers on
the standard workload suite, plus the two ablations DESIGN.md calls out:
the vertical-merge optimization and the sliver-avoidance heuristic, and a
database-grid resolution sweep.
"""


from repro.analysis.tables import Table
from repro.fracture.quality import analyze_figures
from repro.fracture.rectangles import RectangleFracturer
from repro.fracture.shots import ShotFracturer
from repro.fracture.trapezoidal import TrapezoidFracturer
from repro.layout import generators
from repro.layout.flatten import flatten_cell


def workload_polygons():
    workloads = []
    for name, lib in [
        ("grating", generators.grating(lines=30)),
        ("contacts", generators.contact_array(columns=16, rows=16)),
        ("fzp", generators.fresnel_zone_plate(zones=12)),
        ("checkerboard", generators.checkerboard(cells=8)),
        ("logic", generators.random_logic(chip_size=80.0, seed=2)),
    ]:
        flat = flatten_cell(lib.top_cell())
        workloads.append((name, [p for v in flat.values() for p in v]))
    return workloads


FRACTURERS = [
    ("trapezoid", TrapezoidFracturer()),
    ("rect a=0.25", RectangleFracturer(address_unit=0.25)),
    ("rect a=0.05", RectangleFracturer(address_unit=0.05)),
    ("vsb 2.0", ShotFracturer(max_shot=2.0)),
    ("vsb greedy", ShotFracturer(max_shot=2.0, avoid_slivers=False)),
]


def run_experiment() -> str:
    table = Table(
        ["workload", "fracturer", "figures", "slivers", "rect frac",
         "area err"],
        title="T2: fracture quality by strategy (sliver threshold 0.1 µm)",
    )
    for name, polys in workload_polygons():
        reference = sum(
            t.area() for t in TrapezoidFracturer().fracture(polys)
        )
        for label, fracturer in FRACTURERS:
            figs = fracturer.fracture(polys)
            report = analyze_figures(figs, reference_area=reference)
            table.add_row(
                [
                    name,
                    label,
                    report.figure_count,
                    f"{report.sliver_fraction:.1%}",
                    f"{report.rectangle_fraction:.0%}",
                    report.area_error,
                ]
            )
    return table.render()


def run_merge_ablation() -> str:
    table = Table(
        ["workload", "merged figures", "raw figures", "reduction"],
        title="T2a: vertical-merge ablation",
    )
    for name, polys in workload_polygons():
        merged = len(TrapezoidFracturer(merge=True).fracture(polys))
        raw = len(TrapezoidFracturer(merge=False).fracture(polys))
        table.add_row([name, merged, raw, f"{1 - merged / raw:.1%}"])
    return table.render()


def run_grid_ablation() -> str:
    table = Table(
        ["grid [µm]", "fzp figures", "fzp area err"],
        title="T2b: database-grid resolution ablation (FZP workload)",
    )
    lib = generators.fresnel_zone_plate(zones=12)
    flat = flatten_cell(lib.top_cell())
    polys = [p for v in flat.values() for p in v]
    reference = sum(p.area() for p in polys)
    for grid in (1e-2, 1e-3, 1e-4):
        figs = TrapezoidFracturer(grid=grid).fracture(polys)
        report = analyze_figures(figs, reference_area=reference)
        table.add_row([grid, report.figure_count, report.area_error])
    return table.render()


def test_t2_fracture_quality(benchmark, save_table, cold_sweep):
    save_table("t2_fracture_quality", run_experiment())
    lib = generators.fresnel_zone_plate(zones=12)
    flat = flatten_cell(lib.top_cell())
    polys = [p for v in flat.values() for p in v]
    benchmark(cold_sweep(TrapezoidFracturer().fracture), polys)


def test_t2_merge_ablation(benchmark, save_table, cold_sweep):
    save_table("t2a_merge_ablation", run_merge_ablation())
    lib = generators.checkerboard(cells=8)
    flat = flatten_cell(lib.top_cell())
    polys = [p for v in flat.values() for p in v]
    benchmark(cold_sweep(TrapezoidFracturer(merge=False).fracture), polys)


def test_t2_grid_ablation(benchmark, save_table, cold_sweep):
    save_table("t2b_grid_ablation", run_grid_ablation())
    lib = generators.grating(lines=30)
    flat = flatten_cell(lib.top_cell())
    polys = [p for v in flat.values() for p in v]
    benchmark(cold_sweep(RectangleFracturer(address_unit=0.25).fracture), polys)
