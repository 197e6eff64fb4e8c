"""Fracturing: turning polygons into machine-writable figures.

Pattern generators cannot write arbitrary polygons; their deflection
hardware exposes a small figure vocabulary.  This package converts polygon
sets into three such vocabularies:

* :class:`~repro.fracture.trapezoidal.TrapezoidFracturer` — horizontal
  trapezoids, the native figure of EBES/MEBES-class raster machines.
* :class:`~repro.fracture.rectangles.RectangleFracturer` — axis-aligned
  rectangles, staircase-approximating slanted edges to the address grid.
* :class:`~repro.fracture.shots.ShotFracturer` — variable-shaped-beam
  (VSB) shots bounded by a maximum shot size, with sliver avoidance.

:mod:`~repro.fracture.quality` measures figure count, sliver fraction and
area fidelity — the fracture-quality axes of experiment T2.
"""

from repro._facade import facade

__getattr__, __dir__, __all__ = facade(
    __name__,
    {
        "Fracturer": "base",
        "Shot": "base",
        "TrapezoidFracturer": "trapezoidal",
        "RectangleFracturer": "rectangles",
        "ShotFracturer": "shots",
        "FractureReport": "quality",
        "analyze_figures": "quality",
    },
)
