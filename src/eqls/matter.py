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
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .units import AMU_PER_ELECTRON_MASS, BOHR_ANGSTROM, HARTREE_K, checked


class RegistryError(ValueError):
    """Raised for malformed, incomplete, or inconsistent substance data."""


def _quoted(value) -> str:
    """repr(value) for a message, its middle cut to keep it within 40 characters."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:20]}...{text[-17:]}"


def _check_name(name, kind: str) -> None:
    if not isinstance(name, str) or not name:
        raise RegistryError(f"{kind} name {_quoted(name)} is not a non-empty string")


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
            checked(getattr(self, field), f"species {_quoted(self.name)}: {field} = {{}}", 0.0,
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

        def inside(value, field, low=0.0, high=math.inf, ends="(]"):
            checked(value, f"surface {_quoted(self.name)}: {field} = {{}}", low, high, ends,
                    RegistryError)

        inside(self.number_density_A3, "number_density_A3")
        inside(self.scattering_length_A, "scattering_length_A")
        inside(self.dielectric_constant, "dielectric_constant", 1.0)
        inside(self.barrier_v0_ev, "barrier_V0_eV")
        if self.density_limit_cm2 is not None:
            inside(self.density_limit_cm2, "density_limit_cm2")
        if self.reference is not None:
            for key, value in zip(_REQUIRED_REFERENCE, vars(self.reference).values()):
                # each divides a residual: energies negative, the rest positive
                low, high = (-math.inf, 0.0) if key.startswith("E_") else (0.0, math.inf)
                inside(value, f"reference {key}", low, high, "()")


@dataclass(frozen=True)
class SubstanceRegistry:
    """Species and surfaces in file order, each name unique case-insensitively.

    Lookups accept an exact name or a unique substring, case-insensitively.
    """

    species: tuple[ParticleSpecies, ...]
    surfaces: tuple[SubstanceSurface, ...]

    def __post_init__(self):
        for kind, records in (("species", self.species), ("surface", self.surfaces)):
            seen = set()
            for record in records:
                if record.name.lower() in seen:
                    raise RegistryError(f"duplicate {kind} name {record.name!r}")
                seen.add(record.name.lower())

    def get_species(self, name: str) -> ParticleSpecies:
        return _lookup(self.species, name, "species")

    def get_surface(self, name: str) -> SubstanceSurface:
        return _lookup(self.surfaces, name, "surface")


def _lookup(records: tuple, name: str, kind: str):
    key = name.lower()
    matches = ([r for r in records if r.name.lower() == key]
               or [r for r in records if key in r.name.lower()])
    if len(matches) == 1:
        return matches[0]
    known = ", ".join(r.name for r in records)
    if matches:
        hits = ", ".join(r.name for r in matches)
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


def _numbers(entry: dict, fields: tuple, where: str) -> list:
    """The values of `fields` in the JSON object `entry`, which must hold them
    all: each a JSON number that fits a double, as a float, except a "name",
    which its record checks.  A boolean or a numeric string is not a number."""
    if not isinstance(entry, dict):
        raise RegistryError(f"{where}: must be an object")
    for f in fields:
        if f not in entry:
            raise RegistryError(f"{where}: missing required field {f!r}")
    out = []
    for f in fields:
        value = entry[f]
        if f != "name":
            # type() rather than isinstance(): a bool is an int
            if not (type(value) is float
                    or (type(value) is int and abs(value) <= sys.float_info.max)):
                raise RegistryError(f"{where}: {f} = {_quoted(value)} is not a number")
            value = float(value)
        out.append(value)
    return out


def _parse(doc: dict, origin: str) -> SubstanceRegistry:
    if not isinstance(doc, dict):
        raise RegistryError(f"{origin}: top level must be an object")
    for key in ("species", "surfaces"):
        if not isinstance(doc.get(key), list):
            raise RegistryError(f"{origin}: missing top-level list {key!r}")
    species = tuple(
        ParticleSpecies(*_numbers(entry, _REQUIRED_SPECIES, f"{origin}: species[{i}]"))
        for i, entry in enumerate(doc["species"]))
    surfaces = []
    for i, entry in enumerate(doc["surfaces"]):
        where = f"{origin}: surfaces[{i}]"
        values = _numbers(entry, _REQUIRED_SURFACE, where)
        ref, limit = entry.get("reference"), entry.get("density_limit_cm2")
        if ref is not None:
            ref = ReferenceRow(*_numbers(ref, _REQUIRED_REFERENCE, f"{where}.reference"))
        if limit is not None:
            limit, = _numbers(entry, ("density_limit_cm2",), where)
        surfaces.append(SubstanceSurface(*values, reference=ref, density_limit_cm2=limit))
    return SubstanceRegistry(species, tuple(surfaces))


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
    except ValueError as exc:       # an integer longer than Python converts (4300 digits)
        raise RegistryError(f"{origin}: unreadable JSON number: {exc}") from exc
    except RecursionError as exc:   # arrays or objects nested past the recursion limit
        raise RegistryError(f"{origin}: JSON nested too deeply to read") from exc
    return _parse(doc, origin)
