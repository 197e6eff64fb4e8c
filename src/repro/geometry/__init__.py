"""Geometry kernel for electron-beam pattern data.

This package is a from-scratch 2-D polygon geometry engine sized for
lithography CAD work:

* :class:`~repro.geometry.point.Point` — immutable 2-D vector.
* :class:`~repro.geometry.transform.Transform` — affine transforms
  (translation, rotation, scaling, mirroring) in the GDSII convention.
* :class:`~repro.geometry.polygon.Polygon` — simple polygon with the usual
  measures (area, orientation, centroid, bounding box) and operations
  (normalisation, simplification, transformation).
* :mod:`~repro.geometry.boolean` — scanline boolean engine over polygon sets
  (union / intersection / difference / XOR with nonzero or even-odd fill).
* :class:`~repro.geometry.trapezoid.Trapezoid` — the machine primitive
  emitted by the scanline engine and consumed by the fracturers.
* :mod:`~repro.geometry.rasterize` — area-coverage rasterization used by the
  exposure simulator.

All boolean computation is carried out on an integer database-unit grid
(1 nm by default) for robustness, mirroring the integer coordinate systems
of GDSII and of the 1970s pattern generators this library models.
"""

from repro._facade import facade

__getattr__, __dir__, __all__ = facade(
    __name__,
    {
        "offset": "offset",
        "Point": "point",
        "Transform": "transform",
        "Polygon": "polygon",
        "Trapezoid": "trapezoid",
        "boolean_trapezoids": "boolean",
        "boolean_polygons": "boolean",
        "union": "boolean",
        "rasterize_polygons": "rasterize",
    },
)
