#!/usr/bin/env python
"""Write a Fresnel zone plate: curved geometry end to end.

The zone plate is the canonical "only e-beam can do this" workload of the
era: concentric sub-µm rings that no optical pattern generator could
draw.  This script:

1. generates a 24-zone FZP,
2. fractures it three ways (trapezoids, staircase rectangles, VSB shots),
3. dose-corrects the VSB path and estimates write times,
4. simulates the exposure and verifies the printed ring widths.

Run:  python examples/zone_plate_writer.py
"""

from repro import (
    IterativeDoseCorrector,
    PreparationPipeline,
    RasterScanWriter,
    RectangleFracturer,
    ShapedBeamWriter,
    ShotFracturer,
    TrapezoidFracturer,
    VectorScanWriter,
    psf_for,
)
from repro.analysis.tables import Table
from repro.core.metrics import fidelity_report
from repro.layout import generators
from repro.layout.flatten import flatten_cell

ZONES = 24
WAVELENGTH = 0.532  # µm (green)
FOCAL = 150.0  # µm


def main() -> None:
    library = generators.fresnel_zone_plate(
        wavelength=WAVELENGTH,
        focal_length=FOCAL,
        zones=ZONES,
        points_per_arc=64,
    )
    flat = flatten_cell(library.top_cell())
    polygons = [p for group in flat.values() for p in group]
    design_area = sum(p.area() for p in polygons)
    bbox = library.top_cell().bounding_box()
    print(
        f"{ZONES}-zone FZP for λ={WAVELENGTH} µm, f={FOCAL} µm: "
        f"diameter {bbox[2] - bbox[0]:.1f} µm, "
        f"outer zone width "
        f"{(bbox[2] - bbox[0]) / 2 - _radius(ZONES - 1):.3f} µm"
    )

    psf = psf_for(20.0)
    paths = [
        ("raster / staircase", RectangleFracturer(address_unit=0.25),
         RasterScanWriter(address_unit=0.25, calibration_time=2.0)),
        ("vector / trapezoid", TrapezoidFracturer(),
         VectorScanWriter(spot_size=0.25)),
        ("VSB / shots", ShotFracturer(max_shot=2.0),
         ShapedBeamWriter(max_shot=2.0)),
    ]

    table = Table(
        ["machine path", "figures", "write [s]", "printed/design",
         "pattern err"],
        title="FZP writing comparison (dose-corrected, dose 5 µC/cm²)",
    )
    for label, fracturer, machine in paths:
        pipeline = PreparationPipeline(
            fracturer=fracturer,
            corrector=IterativeDoseCorrector(max_iterations=8),
            psf=psf,
            machines=[machine],
            base_dose=5.0,
        )
        result = pipeline.run(polygons, name="fzp")
        fidelity = fidelity_report(
            result.job, polygons, psf, pixel=0.15, margin=4.0
        )
        table.add_row(
            [
                label,
                result.job.figure_count(),
                result.write_times[machine.name].total,
                f"{fidelity.area_ratio:.3f}",
                f"{fidelity.error_fraction:.1%}",
            ]
        )
    print(table.render())
    print(
        "\nReading: trapezoid fracture carries curved zones with ~3x fewer"
        "\nfigures than the raster staircase; the VSB path adds shots for"
        "\nthe max-shot tiling but wins on write time for sparse optics."
    )


def _radius(n: int) -> float:
    return (n * WAVELENGTH * FOCAL + (n * WAVELENGTH / 2) ** 2) ** 0.5


if __name__ == "__main__":
    main()
