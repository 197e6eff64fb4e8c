"""repro — an electron-beam lithography CAD and machine-model toolchain.

A from-scratch Python reproduction of the pattern-data-preparation stack
described by the DAC 1979 tutorial "Electron beam lithography": geometry
booleans, fracturing, proximity-effect correction, exposure physics, and
analytic models of raster-scan, vector-scan and variable-shaped-beam
pattern generators.

Quickstart::

    from repro import (
        PreparationPipeline, RasterScanWriter, VectorScanWriter,
    )
    from repro.layout import generators

    pipe = PreparationPipeline(
        machines=[RasterScanWriter(), VectorScanWriter()]
    )
    result = pipe.run(generators.grating())
    print(result.job, result.write_times["raster"].total)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
reconstructed evaluation.
"""

from repro._facade import facade

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = facade(
    __name__,
    {
        "Point": "geometry.point",
        "Polygon": "geometry.polygon",
        "Transform": "geometry.transform",
        "Trapezoid": "geometry.trapezoid",
        "Cell": "layout.cell",
        "CellArray": "layout.reference",
        "CellReference": "layout.reference",
        "Layer": "layout.layer",
        "Library": "layout.library",
        "Shot": "fracture.base",
        "TrapezoidFracturer": "fracture.trapezoidal",
        "RectangleFracturer": "fracture.rectangles",
        "ShotFracturer": "fracture.shots",
        "DoubleGaussianPSF": "physics.psf",
        "psf_for": "physics.psf",
        "ExposureSimulator": "physics.exposure",
        "MonteCarloSimulator": "physics.montecarlo",
        "Resist": "physics.resist",
        "Column": "machine.column",
        "Stage": "machine.stage",
        "DeflectionField": "machine.deflection",
        "StitchingModel": "machine.stitching",
        "RasterScanWriter": "machine.raster",
        "VectorScanWriter": "machine.vector",
        "ShapedBeamWriter": "machine.vsb",
        "IterativeDoseCorrector": "pec.dose_iter",
        "MatrixDoseCorrector": "pec.dose_matrix",
        "ShapeBiasCorrector": "pec.shape_bias",
        "GhostCorrector": "pec.ghost",
        "MachineJob": "core.job",
        "PreparationPipeline": "core.pipeline",
        "PipelineResult": "core.pipeline",
        "FidelityReport": "core.metrics",
        "fidelity_report": "core.metrics",
        "ThroughputModel": "analysis.throughput",
    },
)
__all__.append("__version__")
