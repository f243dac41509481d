"""Electrons on quantum liquids and solids.

Surface-state eigenproblems above cryogenic liquid/solid surfaces, the 2D
electron phase diagram with Wigner melting, and circuit-QED coupling
estimates, with a bundled registry of the six standard substances.
"""

from .cqed import (
    CouplingBudget,
    SpinCouplingInput,
    StrongCouplingResult,
    image_charge_delta,
    larmor,
    spin_coupling,
    strong_coupling,
)
from .matter import (
    ParticleSpecies,
    RegistryError,
    SubstanceRegistry,
    SubstanceSurface,
    de_boer,
    lj_potential,
    load_registry,
    v0_weak_scattering,
)
from .phases import (
    ConvergenceError,
    MeltingCurve,
    PhaseLabel,
    chemical_potential,
    classify,
    coulomb_energy,
    critical_point,
    electron_gas_point,
    fermi_energy,
    kinetic_energy,
    melting_curve,
    melting_roots,
    plasma_parameter,
    quantum_critical_density,
)
from .units import Quantity, Unit, UnitError, convert
from .zstates import (
    BoundState,
    GridSpec,
    InfiniteBarrierImage,
    Interface,
    PotentialProfile,
    RegularizedImage,
    SolveResult,
    SolverError,
    build_potential,
    default_grid,
    hydrogenic_levels,
    solve_bound_states,
    stark_scan,
    surface_grid,
    transition,
)

__version__ = "0.1.0"
