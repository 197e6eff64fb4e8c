"""Electron-beam pattern-generator machine models.

Analytic models of the three 1979-era machine architectures and their
shared subsystems:

* :class:`~repro.machine.column.Column` — electron-optical column:
  brightness/aberration spot-size model and the current-vs-resolution
  trade-off (experiment T4).
* :class:`~repro.machine.stage.Stage` — laser-interferometer stage with
  stop-and-settle or continuous motion.
* :class:`~repro.machine.deflection.DeflectionField` — deflection
  distortion and polynomial calibration (experiment F4).
* :class:`~repro.machine.raster.RasterScanWriter` — EBES-class raster
  machine: fixed raster, continuously moving stage, density-independent
  write time.
* :class:`~repro.machine.vector.VectorScanWriter` — vector-scan Gaussian
  beam: exposure time proportional to pattern area.
* :class:`~repro.machine.vsb.ShapedBeamWriter` — variable-shaped beam:
  per-shot flashes, throughput set by shot count.
* :mod:`~repro.machine.datapath` — pattern-data volume and data-rate
  ceilings (experiments T3, F5).
* :mod:`~repro.machine.stitching` — field-butting error model.
* :mod:`~repro.machine.program` — machine-program export: prepared
  shards lowered to the RLE / shot-list streams a writer consumes.
"""

from repro._facade import facade

__getattr__, __dir__, __all__ = facade(
    __name__,
    {
        "Machine": "base",
        "WriteTimeBreakdown": "base",
        "Column": "column",
        "ElectronSource": "column",
        "LAB6": "column",
        "TUNGSTEN": "column",
        "FIELD_EMISSION": "column",
        "Stage": "stage",
        "DeflectionField": "deflection",
        "CalibrationResult": "deflection",
        "RasterScanWriter": "raster",
        "VectorScanWriter": "vector",
        "ShapedBeamWriter": "vsb",
        "StitchingModel": "stitching",
        "ButtingReport": "stitching",
        "decode_to_coverage": "rle",
        "MACHINE_MODES": "program",
        "MachineProgram": "program",
        "MachineProgramError": "program",
        "MachineSpec": "program",
        "export_program": "program",
        "detect_edge": "registration",
        "mark_signal": "registration",
    },
)
