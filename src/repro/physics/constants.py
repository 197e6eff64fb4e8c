"""Physical constants used by the scattering and column models.

Units follow lithography practice: lengths in micrometres (µm), energies
in keV, doses in µC/cm², currents in amperes.
"""

#: Avogadro's number [1/mol].
AVOGADRO = 6.02214076e23

#: Electron rest energy [keV].
ELECTRON_REST_KEV = 511.0

#: Elementary charge [C].
ELECTRON_CHARGE = 1.602176634e-19

#: Planck constant [J s].
PLANCK = 6.62607015e-34

#: Electron mass [kg].
ELECTRON_MASS = 9.1093837015e-31

#: Micrometres per centimetre.
UM_PER_CM = 1.0e4

#: Minimum electron energy tracked by the Monte-Carlo simulator [keV].
MC_CUTOFF_KEV = 0.5


def relativistic_wavelength_nm(energy_kev: float) -> float:
    """De Broglie wavelength of an electron at ``energy_kev`` [nm].

    Includes the relativistic correction; at 50 kV the wavelength is
    ~5.4 pm, so diffraction contributes negligibly to e-beam spot size —
    a fact the column model (T4) makes quantitative.
    """
    if energy_kev <= 0:
        raise ValueError("energy must be positive")
    energy_j = energy_kev * 1e3 * ELECTRON_CHARGE
    momentum = (
        2.0 * ELECTRON_MASS * energy_j * (1.0 + energy_kev / (2.0 * ELECTRON_REST_KEV))
    ) ** 0.5
    return PLANCK / momentum * 1e9
