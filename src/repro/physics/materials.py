"""Target materials for the scattering simulator.

Compound materials are reduced to effective single-element parameters by
mass-fraction averaging, the standard approximation in fast Monte-Carlo
codes (Joy, "Monte Carlo Modeling for Electron Microscopy and
Microanalysis", 1995).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Material:
    """A scattering target.

    Attributes:
        name: human-readable name.
        atomic_number: (effective) atomic number Z.
        atomic_weight: (effective) atomic weight A [g/mol].
        density: mass density ρ [g/cm³].
    """

    name: str
    atomic_number: float
    atomic_weight: float
    density: float

    def mean_ionization_kev(self) -> float:
        """Berger–Seltzer mean ionization potential J [keV]."""
        z = self.atomic_number
        j_ev = 9.76 * z + 58.5 * z ** -0.19
        return j_ev * 1e-3

    def __str__(self) -> str:
        return self.name


def compound(
    name: str, composition: Dict[str, Tuple[float, float, int]], density: float
) -> Material:
    """Build an effective material from a composition map.

    Args:
        name: material name.
        composition: element symbol → ``(atomic_weight, count, Z)``.
        density: compound density [g/cm³].
    """
    total_mass = sum(a * n for a, n, _ in composition.values())
    z_eff = 0.0
    a_eff = 0.0
    for a, n, z in composition.values():
        fraction = a * n / total_mass
        z_eff += fraction * z
        a_eff += fraction * a
    return Material(name, z_eff, a_eff, density)


#: Bulk silicon substrate.
SILICON = Material("Si", 14.0, 28.085, 2.329)

#: Gallium arsenide substrate (mass-fraction effective values).
GAAS = Material("GaAs", 31.5, 72.32, 5.317)

#: PMMA resist, C5H8O2 (mass-fraction effective values).
PMMA_MATERIAL = compound(
    "PMMA",
    {
        "C": (12.011, 5, 6),
        "H": (1.008, 8, 1),
        "O": (15.999, 2, 8),
    },
    density=1.18,
)
