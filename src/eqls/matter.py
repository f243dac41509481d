"""Species and substance data: Lennard-Jones parameters, de Boer parameter
and the substance registry.

A bundled registry ships six nonpolar species (3He, 4He, Ne, H2, HD, D2)
with their LJ parameters, and six condensed surfaces (liquid 3He/4He,
solid Ne/H2/HD/D2) with number density n (A^-3), s-wave scattering length
a_s (A), relative dielectric constant, Pauli barrier V0 (eV) and published
reference values for the surface-state spectrum.  Users can supply their
own JSON file with the same schema (see README) to add substances.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .units import AMU_PER_ELECTRON_MASS, BOHR_ANGSTROM, HARTREE_K, checked


class RegistryError(ValueError):
    """Raised for malformed, incomplete, or inconsistent substance data."""


def _check_name(name, kind: str) -> None:
    if not isinstance(name, str) or not name:
        raise RegistryError(f"{kind} name {name!r} is not a non-empty string")


@dataclass(frozen=True)
class ParticleSpecies:
    """Nonpolar atom or molecule with Lennard-Jones parameters."""

    name: str
    mass_amu: float
    sigma_A: float
    epsilon_K: float

    def __post_init__(self):
        _check_name(self.name, "species")
        for field in ("mass_amu", "sigma_A", "epsilon_K"):
            checked(getattr(self, field), f"species {self.name!r}: {field} = {{}}", 0.0,
                    ends="(]", error=RegistryError)


@dataclass(frozen=True)
class ReferenceRow:
    """Published surface-state values bundled for residual comparison."""

    e1_mev: float
    e2_mev: float
    de_k: float
    f_thz: float
    z1_nm: float
    z2_nm: float


@dataclass(frozen=True)
class SubstanceSurface:
    """Condensed-phase surface as seen by an excess electron."""

    name: str
    number_density_A3: float
    scattering_length_A: float
    dielectric_constant: float
    barrier_v0_ev: float
    reference: ReferenceRow | None = None
    density_limit_cm2: float | None = None

    def __post_init__(self):
        _check_name(self.name, "surface")

        def above(value, field, low=0.0):
            checked(value, f"surface {self.name!r}: {field} = {{}}", low, ends="(]",
                    error=RegistryError)

        above(self.number_density_A3, "number_density_A3")
        above(self.scattering_length_A, "scattering_length_A")
        above(self.dielectric_constant, "dielectric_constant", 1.0)
        above(self.barrier_v0_ev, "barrier_V0_eV")
        if self.density_limit_cm2 is not None:
            above(self.density_limit_cm2, "density_limit_cm2")


class SubstanceRegistry:
    """Ordered, case-insensitively keyed collection of species and surfaces.

    Immutable after construction; lookups accept exact names or unique
    case-insensitive substrings.
    """

    def __init__(self, species: list[ParticleSpecies], surfaces: list[SubstanceSurface]):
        self._species: dict[str, ParticleSpecies] = {}
        self._surfaces: dict[str, SubstanceSurface] = {}
        for sp in species:
            key = sp.name.lower()
            if key in self._species:
                raise RegistryError(f"duplicate species name {sp.name!r}")
            self._species[key] = sp
        for sf in surfaces:
            key = sf.name.lower()
            if key in self._surfaces:
                raise RegistryError(f"duplicate surface name {sf.name!r}")
            self._surfaces[key] = sf

    @property
    def species(self) -> list[ParticleSpecies]:
        return list(self._species.values())

    @property
    def surfaces(self) -> list[SubstanceSurface]:
        return list(self._surfaces.values())

    def get_species(self, name: str) -> ParticleSpecies:
        return _lookup(self._species, name, "species")

    def get_surface(self, name: str) -> SubstanceSurface:
        return _lookup(self._surfaces, name, "surface")


def _lookup(table: dict, name: str, kind: str):
    key = name.lower()
    if key in table:
        return table[key]
    matches = [k for k in table if key in k]
    if len(matches) == 1:
        return table[matches[0]]
    known = ", ".join(v.name for v in table.values())
    if len(matches) > 1:
        hits = ", ".join(table[k].name for k in matches)
        raise RegistryError(f"ambiguous {kind} {name!r} (matches {hits}); known: {known}")
    raise RegistryError(f"unknown {kind} {name!r}; known: {known}")


def de_boer(species: ParticleSpecies) -> float:
    """Quantumness parameter: de Broglie wavelength of relative pair motion
    over the pair distance, h / (sigma * sqrt(m * eps)), dimensionless.

    Uses the standard approximations d ~ sigma and kinetic energy ~ eps.
    """
    sigma_au = species.sigma_A / BOHR_ANGSTROM
    m_au = species.mass_amu * AMU_PER_ELECTRON_MASS
    # one positive divisor at a time, so that no product underflows to zero
    return checked(2.0 * math.pi * math.sqrt(HARTREE_K) / sigma_au / math.sqrt(m_au)
                   / math.sqrt(species.epsilon_K), f"the de Boer parameter of {species.name}")


_REQUIRED_SPECIES = ("name", "mass_amu", "sigma_A", "epsilon_K")
_REQUIRED_SURFACE = ("name", "number_density_A3", "scattering_length_A",
                     "dielectric_constant", "barrier_V0_eV")
_REQUIRED_REFERENCE = ("E_z1_meV", "E_z2_meV", "dE_K", "f_THz", "z1_nm", "z2_nm")


def _require(entry: dict, fields: tuple, where: str) -> None:
    if not isinstance(entry, dict):
        raise RegistryError(f"{where}: must be an object")
    for f in fields:
        if f not in entry:
            raise RegistryError(f"{where}: missing required field {f!r}")


def _numbers(entry: dict, fields: tuple, where: str) -> list[float]:
    out = []
    for f in fields:
        try:
            out.append(float(entry[f]))
        except (TypeError, ValueError, OverflowError):
            raise RegistryError(f"{where}: {f} = {entry[f]!r} is not a number") from None
    return out


def _parse(doc: dict, origin: str) -> SubstanceRegistry:
    if not isinstance(doc, dict):
        raise RegistryError(f"{origin}: top level must be an object")
    for key in ("species", "surfaces"):
        if key not in doc or not isinstance(doc[key], list):
            raise RegistryError(f"{origin}: missing top-level list {key!r}")
    species = []
    for i, entry in enumerate(doc["species"]):
        where = f"{origin}: species[{i}]"
        _require(entry, _REQUIRED_SPECIES, where)
        species.append(ParticleSpecies(entry["name"],
                                       *_numbers(entry, _REQUIRED_SPECIES[1:], where)))
    surfaces = []
    for i, entry in enumerate(doc["surfaces"]):
        where = f"{origin}: surfaces[{i}]"
        _require(entry, _REQUIRED_SURFACE, where)
        ref = None
        if entry.get("reference") is not None:
            where_ref = f"{where}.reference"
            _require(entry["reference"], _REQUIRED_REFERENCE, where_ref)
            values = _numbers(entry["reference"], _REQUIRED_REFERENCE, where_ref)
            for key, value in zip(_REQUIRED_REFERENCE, values):
                # each divides a residual: energies negative, the rest positive
                low, high = (-math.inf, 0.0) if key.startswith("E_") else (0.0, math.inf)
                checked(value, f"{where_ref}: {key} = {{}}", low, high, "()", RegistryError)
            ref = ReferenceRow(*values)
        limit = (_numbers(entry, ("density_limit_cm2",), where)[0]
                 if entry.get("density_limit_cm2") is not None else None)
        surfaces.append(SubstanceSurface(entry["name"],
                                         *_numbers(entry, _REQUIRED_SURFACE[1:], where),
                                         reference=ref, density_limit_cm2=limit))
    return SubstanceRegistry(species, surfaces)


def load_registry(path: str | Path | None = None) -> SubstanceRegistry:
    """Load a substance registry from a JSON file, or the bundled default."""
    if path is None:
        text = resources.files("eqls.data").joinpath("substances.json").read_text("utf-8")
        origin = "bundled substances.json"
    elif path == "":                # Path("") would read the directory "."
        raise RegistryError("cannot read substance file '': the path is empty")
    else:
        path = Path(path)
        try:
            text = path.read_text("utf-8")
        except OSError as exc:
            raise RegistryError(f"cannot read substance file {path}: {exc}") from exc
        origin = str(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RegistryError(
            f"{origin}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return _parse(doc, origin)
