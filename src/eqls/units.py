"""Physical constants (CODATA 2018) and energy and length unit conversions.

Everything numerical in this package is computed in Hartree atomic units
(hbar = m_e = e = 1, energies in Hartree, lengths in Bohr radii) and
converted at the boundaries.  This module is the single source of truth
for the conversion factors.

Constants, frozen at CODATA 2018:

    h        6.62607015e-34  J s    (exact)   = 4.135667696e-15 eV s
    hbar     1.054571817e-34 J s
    e        1.602176634e-19 C      (exact)
    m_e      9.1093837015e-31 kg    = 5.48579909065e-4 amu
    k_B      1.380649e-23    J/K    (exact)   = 8.617333262e-5 eV/K
    mu_B     9.2740100783e-24 J/T
    a_B      0.529177210903  Angstrom
    Hartree  27.211386245988 eV
    amu      1.66053906660e-27 kg   = 1822.888486209 m_e

Derived combination used throughout:

    Hartree / k_B   = 315775.02 K

Temperatures are treated as thermal-equivalent energies (via k_B) and
frequencies as photon-equivalent energies (via h), so `conversion_factor`
converts between any two members of the energy family.

`checked` is the one input check of every dataclass, public numeric entry
point and printed result, and `SolverError` the one numerical failure.
`compiled` loads the scipy extension a solver calls, and no more of scipy.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from enum import Enum
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

# --- fundamental constants (SI) ---
PLANCK_J_S = 6.62607015e-34
HBAR_J_S = 1.054571817e-34
ELECTRON_MASS_KG = 9.1093837015e-31
BOHR_MAGNETON_J_PER_T = 9.2740100783e-24

# --- the same in the mixed eV/Angstrom/K system used at module boundaries ---
PLANCK_EV_S = 4.135667696e-15
BOLTZMANN_EV_PER_K = 8.617333262e-5
HARTREE_EV = 27.211386245988
BOHR_ANGSTROM = 0.529177210903
AMU_PER_ELECTRON_MASS = 1822.888486209

# --- derived, defined once so every module agrees bit-for-bit ---
HARTREE_K = HARTREE_EV / BOLTZMANN_EV_PER_K
BOHR_CM = BOHR_ANGSTROM * 1e-8

NORMAL = sys.float_info.min     # smallest positive normal double


def checked(value, name: str, low: float = -math.inf, high: float = math.inf,
            ends: str = "[]", error: type[ValueError] = ValueError):
    """`value` if it is a number from `low` to `high` within the double range;
    else `error`.

    `ends` holds the interval's brackets: "(" or ")" excludes that bound.
    An int too large for a double is out of range, whatever the bounds.
    The message reads "<name> is outside <range>", with any "{}" in `name`
    replaced by the value; [NORMAL, inf) is called the double-precision
    range.
    """
    if ((value > low if ends[0] == "(" else value >= low)
            and (value < high if ends[1] == ")" else value <= high)
            and abs(value) <= sys.float_info.max):      # not nan, inf or a huge int
        return value
    if low == NORMAL and high == math.inf:
        span = "the double-precision range"
    else:
        span = (f"{'(' if low == -math.inf else ends[0]}{low:.15g}, "
                f"{high:.15g}{')' if high == math.inf else ends[1]}")
    shown = f"{value:.15g}" if isinstance(value, float) else str(value)
    raise error(f"{name.replace('{}', shown)} is outside {span}")


class SolverError(RuntimeError):
    """A numerical method did not converge or could not certify its result."""


def compiled(name: str):
    """The compiled extension `name` (e.g. "scipy.linalg._flapack"), loaded
    from its file without running its packages' `__init__` unless it is loaded
    already.  It is registered in `sys.modules`, so a later `import scipy.linalg`
    reuses it, but its package gets no attribute for it.  Where no file is
    found, this is the normal import."""
    if name not in sys.modules:
        top, *inner, _ = name.split(".")
        root = importlib.util.find_spec(top)
        if root is not None and root.submodule_search_locations:
            folder = os.path.join(root.submodule_search_locations[0], *inner)
            spec = FileFinder(folder, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
            if spec is not None:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules[name] = module
    return importlib.import_module(name)


class Unit(Enum):
    HARTREE = "Hartree"
    EV = "eV"
    MEV = "meV"
    KELVIN = "K"
    THZ = "THz"
    GHZ = "GHz"
    MHZ = "MHz"
    ANGSTROM = "A"
    NM = "nm"
    BOHR = "a_B"


# family name and factor to the family's base unit
_FAMILIES: dict[Unit, tuple[str, float]] = {
    Unit.HARTREE: ("energy", HARTREE_EV),
    Unit.EV: ("energy", 1.0),
    Unit.MEV: ("energy", 1e-3),
    Unit.KELVIN: ("energy", BOLTZMANN_EV_PER_K),        # thermal equivalence
    Unit.THZ: ("energy", PLANCK_EV_S * 1e12),           # photon equivalence
    Unit.GHZ: ("energy", PLANCK_EV_S * 1e9),
    Unit.MHZ: ("energy", PLANCK_EV_S * 1e6),
    Unit.ANGSTROM: ("length", 1.0),
    Unit.NM: ("length", 10.0),
    Unit.BOHR: ("length", BOHR_ANGSTROM),
}


class UnitError(ValueError):
    """Raised for conversions between dimensionally incompatible units."""


def conversion_factor(source: Unit, target: Unit) -> float:
    """Multiplicative factor taking a value in `source` to `target`."""
    fam_s, fac_s = _FAMILIES[source]
    fam_t, fac_t = _FAMILIES[target]
    if fam_s != fam_t:
        raise UnitError(
            f"cannot convert {source.value} ({fam_s}) to {target.value} ({fam_t})"
        )
    if source is target:
        return 1.0
    return fac_s / fac_t
