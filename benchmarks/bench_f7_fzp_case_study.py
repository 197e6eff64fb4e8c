"""F7 — Case study: Fresnel zone plate through the full pipeline.

An all-curves workload (the kind e-beam was prized for): a 20-zone
Fresnel zone plate is fractured for each machine vocabulary, proximity
corrected, timed on all three writers, and verified by exposure
simulation.  The table reports figures, write time and printed fidelity
per machine path.
"""


from repro.analysis.tables import Table
from repro.core.metrics import fidelity_report
from repro.core.pipeline import PreparationPipeline
from repro.fracture.rectangles import RectangleFracturer
from repro.fracture.shots import ShotFracturer
from repro.fracture.trapezoidal import TrapezoidFracturer
from repro.layout import generators
from repro.layout.flatten import flatten_cell
from repro.machine.raster import RasterScanWriter
from repro.machine.vector import VectorScanWriter
from repro.machine.vsb import ShapedBeamWriter
from repro.pec.dose_iter import IterativeDoseCorrector
from repro.physics.psf import DoubleGaussianPSF

PSF = DoubleGaussianPSF(alpha=0.12, beta=2.0, eta=0.74)
ZONES = 20


def fzp_polygons():
    lib = generators.fresnel_zone_plate(zones=ZONES, points_per_arc=48)
    flat = flatten_cell(lib.top_cell())
    return [p for v in flat.values() for p in v]


PATHS = [
    ("raster/rect", RectangleFracturer(address_unit=0.25),
     RasterScanWriter(address_unit=0.25, calibration_time=2.0)),
    ("vector/trap", TrapezoidFracturer(),
     VectorScanWriter(spot_size=0.25)),
    ("VSB/shots", ShotFracturer(max_shot=2.0),
     ShapedBeamWriter(max_shot=2.0)),
]


def run_experiment() -> str:
    polys = fzp_polygons()
    table = Table(
        ["machine path", "figures", "write time [s]", "printed/design area",
         "pattern err"],
        title=f"F7: {ZONES}-zone Fresnel zone plate, full pipeline "
        "(dose-corrected)",
    )
    for label, fracturer, machine in PATHS:
        pipe = PreparationPipeline(
            fracturer=fracturer,
            corrector=IterativeDoseCorrector(max_iterations=10),
            psf=PSF,
            machines=[machine],
            base_dose=5.0,
        )
        result = pipe.run(polys, name="fzp")
        fidelity = fidelity_report(
            result.job, polys, PSF, pixel=0.15, margin=4.0
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
    return table.render()


def test_f7_fzp_case_study(benchmark, save_table, cold_sweep):
    text = run_experiment()
    save_table("f7_fzp_case_study", text)
    polys = fzp_polygons()
    benchmark(cold_sweep(TrapezoidFracturer().fracture), polys)


def test_f7_fidelity_reasonable(benchmark, save_table):
    """The corrected FZP must print within 35% pattern error."""
    polys = fzp_polygons()
    pipe = PreparationPipeline(
        fracturer=TrapezoidFracturer(),
        corrector=IterativeDoseCorrector(max_iterations=10),
        psf=PSF,
    )
    result = pipe.run(polys)
    fidelity = fidelity_report(result.job, polys, PSF, pixel=0.15, margin=4.0)
    assert fidelity.error_fraction < 0.35
    assert 0.7 < fidelity.area_ratio < 1.3
    benchmark(
        ShotFracturer(max_shot=2.0).fracture, polys
    )
