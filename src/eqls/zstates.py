"""One-dimensional surface potentials and their bound electron states.

An excess electron above a quantum liquid or solid sees a repulsive bulk
barrier for z < 0 and an attractive polarization tail for z > 0.  This
module builds sampled potential profiles for three variants

  * RegularizedImage   V0 for z < 0,  -(eps-1)/(eps+1) e^2/4(z+b) for z >= 0
  * InfiniteBarrierImage  hard wall (implemented as a 1 MeV step) with the
    bare -(eps-1)/(eps+1) e^2/4z tail
  * Interface          solid barrier below, liquid barrier above:
                       -(eps-1)/(eps+1) e^2/4z + V_above tanh^2(z/zeta)

and solves -hbar^2/(2 m_e) psi'' + V psi = E psi on a uniform grid with
Dirichlet ends, using second-order centered differences.  Sturm-sequence
bisection plus inverse iteration (LAPACK dstebz, then dstein once per
level) finds the lowest eigenpairs of the tridiagonal Hamiltonian on one
grid per spectrum: the grid 4x coarser than the one asked for.  Every
spec, grid and level count is range-checked (`units.checked`) before
anything is allocated; barrier heights are capped at INFINITE_BARRIER_EV.

Each tail's strength is Z = (eps-1)/(4(eps+1)) in atomic units
(`hydrogenic_charge`), Z * HARTREE_EV * BOHR_ANGSTROM in eV*A; the default
grids scale with the hydrogenic length a_B/Z.

Every solve climbs one ladder (`_eigenpairs`): refine from eigenpairs in
hand, else bisect the grid 4x coarser and refine from that, else bisect
the grid itself.  In hand are the grid below, for the halved grid of the
convergence report and each Richardson level, and the previous field's
ground state, for each Stark field.  Grids under 64 coarse points per
level skip the coarse step.  `_refine` interpolates the vectors onto the
grid and runs Rayleigh-quotient iteration from the known energies, then
certifies the result: every residual r bounds the distance to an
eigenvalue, the intervals rho +- r are disjoint, each r^2/gap is within
bisection's own accuracy 4 eps |T|, and one Sturm count finds no other
eigenvalue below the top one (plus a gap g).  Solves that keep their
vectors iterate until the unit vector comes to rest; the halved grid,
whose vectors are discarded, stops at the first sweep whose energies
certify.  So every energy is either certified to that accuracy or
computed by bisection.

Default grids place z = 0 exactly midway between two nodes.  With the
potential step between nodes, every grid cell lies on a single branch of
the piecewise potential and the eigenvalue error stays O(h^2); a node
sitting on the step would degrade this to O(h).

An optional vertical pressing field E_perp adds +e*E_perp*z for z > 0
only; the barrier branch stays flat (the field inside the dielectric is
screened over the sub-Angstrom penetration depth).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import IO, Union

import numpy as np

from .units import (BOHR_ANGSTROM, BOLTZMANN_EV_PER_K, HARTREE_EV, NORMAL, PLANCK_EV_S,
                    SolverError, checked)

# Stand-in for a hard wall; penetration depth at 1 MeV is ~0.002 A, far
# below any grid spacing used here.  Also the cap on every barrier height:
# bisection's accuracy 4 eps |T| grows with the barrier and, above this,
# moves the levels (at 1e9 eV, liquid 4He's dE_half_grid by 11%).
INFINITE_BARRIER_EV = 1.0e6

# Cap on the pressing field: at most that height per Angstrom, which keeps
# e*E*z finite on every grid that passes GridSpec's checks.
MAX_FIELD_V_PER_M = INFINITE_BARRIER_EV * 1e10

# Largest grid any solve may build, checked before anything is allocated.
# Memory grows as points x levels.  The convergence report's halving doubles
# the points, so a reported solve takes base grids up to half of this: the
# default grids of up to 27 levels (40 without a report).
MAX_GRID_POINTS = 1 << 20

# Largest points x count block of eigenvectors a solve may allocate (128 MB);
# the default grids of up to 27 levels stay below it.
MAX_EIGENVECTOR_BLOCK = 1 << 24

# Bisection runs on the grid 4x coarser than the one asked for, unless that
# would have fewer points than this per level; the finer grid is then bisected.
_COARSE_POINTS_PER_LEVEL = 64

# Linear solves per level before `_refine` gives up, and the move of the unit
# vector at which it stops.  The benchmark's spectra take about 3 per level to
# bring a vector to rest, and 1.1 where only the energies must certify.
_MAX_REFINE_SOLVES = 6
_REFINE_STEP = 1e-9

# Outer/inner fractions of the domain used to detect box-artifact states.
_EDGE_FRACTION = 0.1
_EDGE_MASS_TOL = 1e-4


@dataclass(frozen=True)
class RegularizedImage:
    """Finite barrier V0 with the image tail shifted by cutoff b."""

    v0_ev: float
    eps_r: float
    b_A: float
    pressing_field_v_per_m: float = 0.0

    def __post_init__(self):
        checked(self.v0_ev, "V0 = {} eV", 0.0, INFINITE_BARRIER_EV, "(]")
        checked(self.eps_r, "eps_r = {}", 1.0, ends="(]")
        checked(self.b_A, "cutoff b = {} A", 0.0, ends="(]")
        checked(self.pressing_field_v_per_m, "pressing field {} V/m", -MAX_FIELD_V_PER_M,
                MAX_FIELD_V_PER_M)


@dataclass(frozen=True)
class InfiniteBarrierImage:
    """Hard-wall limit with the unshifted image tail."""

    eps_r: float
    pressing_field_v_per_m: float = 0.0

    def __post_init__(self):
        checked(self.eps_r, "eps_r = {}", 1.0, ends="(]")
        checked(self.pressing_field_v_per_m, "pressing field {} V/m", -MAX_FIELD_V_PER_M,
                MAX_FIELD_V_PER_M)


@dataclass(frozen=True)
class Interface:
    """Electron sandwiched between a solid below and a liquid above.

    The liquid's polarization is neglected (its dielectric constant is
    close to 1); only the solid's image tail survives, capped at the
    first half-cell, plus the liquid bulk barrier turning on over zeta.
    """

    v_barrier_below_ev: float
    v_barrier_above_ev: float
    eps_r_below: float
    zeta_A: float
    pressing_field_v_per_m: float = 0.0

    def __post_init__(self):
        for v in (self.v_barrier_below_ev, self.v_barrier_above_ev):
            checked(v, "barrier {} eV", -INFINITE_BARRIER_EV, INFINITE_BARRIER_EV)
        checked(self.eps_r_below, "eps_r_below = {}", 1.0)
        checked(self.zeta_A, "zeta = {} A", 0.0, ends="(]")
        checked(self.pressing_field_v_per_m, "pressing field {} V/m", -MAX_FIELD_V_PER_M,
                MAX_FIELD_V_PER_M)


PotentialSpec = Union[RegularizedImage, InfiniteBarrierImage, Interface]


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid straddling the surface: z_min < 0 < z_max."""

    z_min_A: float
    z_max_A: float
    points: int

    def __post_init__(self):
        checked(self.z_min_A, "grid z_min = {} A", high=0.0, ends="[)")
        checked(self.z_max_A, "grid z_max = {} A", 0.0, ends="(]")
        checked(self.points, "grid of {} points", 3, MAX_GRID_POINTS)
        checked(self.h_A, "grid spacing {} A", 0.0, ends="(]")
        h_au = self.h_A / BOHR_ANGSTROM
        checked(0.5 / h_au / h_au, f"the kinetic term of grid spacing {self.h_A:g} A", NORMAL)

    @property
    def h_A(self) -> float:
        return (self.z_max_A - self.z_min_A) / (self.points - 1)

    def nodes(self) -> np.ndarray:
        return self.z_min_A + self.h_A * np.arange(self.points)


def surface_grid(z_min_A: float, z_max_A: float, h_A: float) -> GridSpec:
    """Grid with spacing ~h covering [z_min, z_max], z=0 midway between nodes."""
    checked(z_min_A, "grid z_min = {} A", high=0.0, ends="[)")
    checked(z_max_A, "grid z_max = {} A", 0.0, ends="(]")
    checked(h_A, "grid spacing {} A", 0.0, ends="(]")
    checked((z_max_A - z_min_A) / h_A, "grid of {} cells", 0.0, MAX_GRID_POINTS)
    m = int(math.ceil(-z_min_A / h_A - 0.5))
    p = int(math.ceil(z_max_A / h_A + 0.5))
    return GridSpec(-(m + 0.5) * h_A, (p - 0.5) * h_A, m + p + 1)


def hydrogenic_charge(eps_r: float) -> float:
    """Effective charge Z = (eps-1)/(4(eps+1)) of the image tail."""
    checked(eps_r, "eps_r = {}", 1.0)
    return (eps_r - 1.0) / (4.0 * (eps_r + 1.0))


def hydrogenic_levels(eps_r: float, n_max: int) -> np.ndarray:
    """Hard-wall analytic spectrum E_n = -Z^2/(2 n^2) Hartree, in meV."""
    checked(n_max, "n_max = {}", 1, MAX_GRID_POINTS)
    n = np.arange(1, n_max + 1, dtype=float)
    z = hydrogenic_charge(eps_r)
    return -(z * z) / (2.0 * n * n) * HARTREE_EV * 1e3


def default_grid(spec: PotentialSpec, levels: int = 2) -> GridSpec:
    """Grid sized from the hydrogenic length a_B/Z of the image tail.

    z_min = -20 A (several barrier decay lengths), z_max = 20 x the
    hydrogenic ground-state height, extended for levels > 2, and spacing
    h = (a_B/Z)/200.  The Interface variant has no Rydberg tail; it gets
    a fixed fine grid resolving the zeta-scale structure instead.
    """
    if isinstance(spec, Interface):
        return surface_grid(-20.0, 50.0, spec.zeta_A / 100.0)
    checked(levels, "{} levels", 1, MAX_GRID_POINTS)
    scale = BOHR_ANGSTROM / hydrogenic_charge(spec.eps_r)
    z_max = scale * max(30.0, 3.0 * levels**2 + 10.0 * levels)
    return surface_grid(-20.0, z_max, scale / 200.0)


@dataclass(frozen=True)
class PotentialProfile:
    """Potential (eV) sampled on a grid."""

    grid: GridSpec
    samples_ev: np.ndarray
    source: PotentialSpec
    warnings: tuple[str, ...] = ()


def build_potential(spec: PotentialSpec, grid: GridSpec | None = None) -> PotentialProfile:
    """Sample a potential variant on a grid (default: `default_grid(spec)`)."""
    if grid is None:
        grid = default_grid(spec)
    z = grid.nodes()
    h = grid.h_A
    pos = z >= 0.0
    if isinstance(spec, RegularizedImage):
        a = hydrogenic_charge(spec.eps_r) * HARTREE_EV * BOHR_ANGSTROM
        v = np.where(pos, 0.0, spec.v0_ev)
        v[pos] = -a / (z[pos] + spec.b_A)
    elif isinstance(spec, InfiniteBarrierImage):
        a = hydrogenic_charge(spec.eps_r) * HARTREE_EV * BOHR_ANGSTROM
        v = np.where(pos, 0.0, INFINITE_BARRIER_EV)
        v[pos] = -a / np.maximum(z[pos], 0.5 * h)
    elif isinstance(spec, Interface):
        a = hydrogenic_charge(spec.eps_r_below) * HARTREE_EV * BOHR_ANGSTROM
        v = np.where(pos, 0.0, spec.v_barrier_below_ev)
        zc = np.maximum(z[pos], 0.5 * h)      # cap the z->0+ pole at half a cell
        v[pos] = -a / zc + spec.v_barrier_above_ev * np.tanh(z[pos] / spec.zeta_A) ** 2
    else:
        raise TypeError(f"unsupported potential spec {type(spec).__name__}")
    if spec.pressing_field_v_per_m:
        v[pos] += spec.pressing_field_v_per_m * 1e-10 * z[pos]   # e*E*z, eV per A
    warnings = []
    if not isinstance(spec, Interface):
        extent = 1.5 * BOHR_ANGSTROM / hydrogenic_charge(spec.eps_r)
        if grid.z_max_A < 10.0 * extent:
            warnings.append(
                f"z_max = {grid.z_max_A:.1f} A is below 10x the expected ground-state "
                f"height {extent:.1f} A; energies may not be converged"
            )
    return PotentialProfile(grid, v, spec, tuple(warnings))


@dataclass(frozen=True)
class BoundState:
    """Normalized bound eigenstate: sum |psi|^2 h = 1 with psi in A^-1/2."""

    energy_mev: float
    z_A: np.ndarray
    psi: np.ndarray
    node_count: int
    mean_z_nm: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Ground-truth guard: energy change per state under one grid halving."""

    h_A: float
    refined_h_A: float
    energy_change_mev: tuple[float, ...]
    note: str = ""


@dataclass(frozen=True)
class SolveResult:
    states: tuple[BoundState, ...]
    requested: int
    shortfall: int
    convergence: ConvergenceReport | None
    warnings: tuple[str, ...] = ()


def _count_nodes(psi: np.ndarray) -> int:
    mask = np.abs(psi) > 1e-9 * np.max(np.abs(psi))
    signs = np.sign(psi[mask])
    return int(np.count_nonzero(signs[1:] * signs[:-1] < 0))


def _hamiltonian(grid: GridSpec, v_ev: np.ndarray):
    """kin = hbar^2/(2 m_e h^2), the potential, and the diagonal and
    off-diagonal of the finite-difference Hamiltonian, all in Hartree."""
    kin = 0.5 / (grid.h_A / BOHR_ANGSTROM) ** 2      # a normal double: see GridSpec
    pot = v_ev / HARTREE_EV
    return kin, pot, 2.0 * kin + pot, np.full(grid.points - 1, -kin)


def _eigensolve(grid: GridSpec, v_ev: np.ndarray, count: int):
    """Lowest `count` eigenpairs in (eV, psi with sum psi^2 h = 1).

    Bisection (stebz) for the energies, then inverse iteration (stein) one
    energy per call: given several, stein reorthogonalizes every pair closer
    than 1e-3 |T| (all bound states here) through BLAS, which ran up to 20x
    slower under a multi-threaded BLAS.
    """
    # imported here so that commands which never solve skip loading scipy
    from scipy.linalg.lapack import dstebz, dstein

    _, _, diag, off = _hamiltonian(grid, v_ev)
    found, w, iblock, isplit, info = dstebz(diag, off, 2, 0.0, 0.0, 1, count, 0.0, b"B")
    if info != 0 or found != count:
        raise SolverError(f"bisection found {found} of states 0..{count - 1} (info {info})")
    order = np.argsort(w[:count], kind="stable")
    vecs = np.empty((grid.points, count), order="F")
    block = np.empty_like(iblock)        # stein reads the block of its one energy here
    for k, j in enumerate(order):
        block[0] = iblock[j]
        col, info = dstein(diag, off, w[j:j + 1], block, isplit)
        if info != 0:
            raise SolverError(f"inverse iteration failed for state {k} (info {info})")
        vecs[:, k] = col[:, 0]
    return w[order] * HARTREE_EV, vecs / math.sqrt(grid.h_A)


def _refine(grid: GridSpec, v_ev: np.ndarray, seeds_ev, start_z: np.ndarray,
            start_vecs: np.ndarray, energies_only: bool = False):
    """Lowest `len(seeds_ev)` eigenpairs near the seed energies, certified.

    Same (eV, psi with sum psi^2 h = 1) form as `_eigensolve`.  Column k
    of `start_vecs`, sampled at `start_z`, is interpolated onto the grid and
    run through Rayleigh-quotient iteration (gtsv), one solve per level and
    sweep: the first shift is seed k, each later one the Rayleigh quotient,
    until the unit vector moves by at most _REFINE_STEP, in at most
    _MAX_REFINE_SOLVES sweeps.  Rayleigh quotient and residual use
    differences of psi, so the 1/h^2 diagonal never cancels.  The pairs are
    certified as the lowest ones to within the bisection accuracy
    acc = 4 eps |T|_1: every interval rho_k +- r_k holds an eigenvalue, the
    intervals are disjoint, each r^2/gap is at most acc, and one Sturm
    count (stebz) finds exactly m eigenvalues below rho_top + g.  With
    `energies_only`, every sweep is certified and the first that passes is
    returned, whether or not its vectors have come to rest.  Raises
    SolverError otherwise.
    """
    from scipy.linalg.lapack import dgtsv, dstebz

    n, m = grid.points, len(seeds_ev)
    kin, pot, diag, off = _hamiltonian(grid, v_ev)
    acc = 4.0 * np.finfo(float).eps * (float(np.max(np.abs(diag))) + 2.0 * kin)
    z = grid.nodes()
    dpsi = np.empty(n + 1)          # differences of psi, which is 0 beyond both ends

    def quotient(psi):
        """Rayleigh quotient of a unit vector; leaves its differences in dpsi."""
        np.subtract(psi[1:], psi[:-1], out=dpsi[1:-1])
        dpsi[0] = psi[0]
        dpsi[-1] = -psi[-1]
        return kin * float(dpsi @ dpsi) + float((pot * psi) @ psi)

    def norm(x):
        return math.sqrt(float(x @ x))

    def unit(col, k):
        length = norm(col)
        if not math.isfinite(length) or length == 0.0:
            raise SolverError(f"Rayleigh-quotient iteration for state {k} lost its vector")
        return col / length

    def uncertified():
        """Why (rho, r) do not certify the lowest m eigenvalues, or None."""
        lower = rho - r
        upper = rho + r
        if not np.all(np.isfinite(upper)) or np.any(upper[:-1] >= lower[1:]):
            return "refined intervals are not finite, disjoint and ascending"
        g = 2.0 * max(r[-1], r[-1] ** 2 / acc)     # so that r_top^2 / g <= acc / 2
        top = rho[-1] + g
        if not math.isfinite(top):
            return "refined residual too large to certify"
        gap = np.minimum(np.append(lower[1:], top) - rho,
                         rho - np.insert(upper[:-1], 0, -np.inf))
        if np.any(r * r > acc * gap):
            return (f"refined levels are not separated enough to certify "
                    f"(worst r^2/gap {float(np.max(r * r / gap)):.3g} Ha, allowed {acc:.3g})")
        bottom = float(np.min(pot)) - 1.0      # below min(V), the Gershgorin bound
        found, *_, info = dstebz(diag, off, 1, bottom, top, 0, 0, 2.0 * (top - bottom), b"B")
        if info != 0 or found != m:
            return f"Sturm count below the top refined level is {found}, not {m}"
        return None

    vecs = np.empty((n, m), order="F")
    shift = np.asarray(seeds_ev, dtype=float) / HARTREE_EV
    rho = np.empty(m)
    r = np.empty(m)
    for k in range(m):
        vecs[:, k] = unit(np.interp(z, start_z, start_vecs[:, k]), k)
    moving = list(range(m))
    for _ in range(_MAX_REFINE_SOLVES):
        for k in list(moving):
            psi = vecs[:, k]
            *_, col, info = dgtsv(off, diag - shift[k], off, psi, overwrite_d=1)
            if info != 0:
                raise SolverError(f"Rayleigh-quotient solve for state {k} failed (info {info})")
            col = unit(col, k)
            if col @ psi < 0.0:
                col = -col
            step = norm(col - psi)
            psi[:] = col
            rho[k] = shift[k] = quotient(psi)
            if step <= _REFINE_STEP:
                moving.remove(k)
            elif not energies_only:
                continue        # a vector still moving is not certified yet
            # the residual, plus a rounding allowance for evaluating it
            r[k] = norm((pot - rho[k]) * psi - kin * np.diff(dpsi)) + acc
        if moving and not energies_only:
            continue
        failure = uncertified()
        if failure is None:
            vecs /= math.sqrt(grid.h_A)
            return rho * HARTREE_EV, vecs
        if not moving:
            raise SolverError(failure)
    raise SolverError(f"Rayleigh-quotient iteration for state {moving[0]} did not converge "
                      f"in {_MAX_REFINE_SOLVES} linear solves")


def _eigenpairs(spec: PotentialSpec, grid: GridSpec, v_ev: np.ndarray, count: int,
                start=None, energies_only: bool = False):
    """Lowest `count` eigenpairs of `v_ev`, which samples `spec` on `grid`.

    Same (eV, psi with sum psi^2 h = 1) form as `_eigensolve`, from the
    first step of this ladder that returns:
      1. `_refine` from `start`, eigenpairs in hand (energies in eV, nodes,
         one vector column per state), if given;
      2. bisect the grid 4x coarser and `_refine` from its eigenpairs, if
         `grid` has at least 4 * _COARSE_POINTS_PER_LEVEL points per level;
      3. bisect `grid` itself.
    Both refines stop at the first certified energies with `energies_only`.
    """
    if start is not None:
        try:
            return _refine(grid, v_ev, *start, energies_only)
        except SolverError:
            pass        # solve outside the handler, so the traceback frees _refine's arrays
    if grid.points >= 4 * _COARSE_POINTS_PER_LEVEL * count:
        coarse = surface_grid(grid.z_min_A, grid.z_max_A, 4.0 * grid.h_A)
        seeds, vecs = _eigensolve(coarse, build_potential(spec, coarse).samples_ev, count)
        try:
            return _refine(grid, v_ev, seeds, coarse.nodes(), vecs, energies_only)
        except SolverError:
            pass
    return _eigensolve(grid, v_ev, count)


def _max_levels(grid: GridSpec) -> int:
    """Most levels whose eigenvectors on `grid` fit in MAX_EIGENVECTOR_BLOCK."""
    return min(grid.points, MAX_EIGENVECTOR_BLOCK // grid.points)


def _is_bound(grid: GridSpec, v_ev: np.ndarray, e_ev: float, psi: np.ndarray) -> bool:
    """Below the potential ceiling at the far wall, and not leaning on a wall."""
    if e_ev >= v_ev[-1]:
        return False
    n = grid.points
    h = grid.h_A
    z = grid.nodes()
    right = int(max(2, round(_EDGE_FRACTION * n)))
    if float(np.sum(psi[-right:] ** 2) * h) > _EDGE_MASS_TOL:
        return False
    left = z < grid.z_min_A * (1.0 - _EDGE_FRACTION)
    if float(np.sum(psi[left] ** 2) * h) > _EDGE_MASS_TOL:
        return False
    return True


def _halved(grid: GridSpec) -> GridSpec:
    """Half the spacing over the same extent (z = 0 still midway between nodes)."""
    return surface_grid(grid.z_min_A, grid.z_max_A, grid.h_A / 2.0)


def solve_bound_states(profile: PotentialProfile, count: int,
                       report_convergence: bool = True, *,
                       _seed=None) -> SolveResult:
    """The `count` lowest bound states of a sampled profile.

    States are strictly ascending in energy, normalized to 1e-8 or better,
    and each is checked to sit below the potential at the far boundary
    with negligible weight on either grid wall; eigenstates that fail
    (box artifacts of the finite domain) are dropped and reported via
    `shortfall`.  A convergence report from one grid halving is attached
    unless `report_convergence` is false.  Both grids are solved by
    `_eigenpairs`: the base grid from `_seed` if given (private: a nearby
    solve's energies in eV, nodes and vector columns, as `stark_scan`
    passes), the halved grid from the base eigenpairs, stopping as soon as
    its energies certify, since its vectors are not kept.
    """
    checked(count, f"count {{}} on a {profile.grid.points}-point grid", 1,
            _max_levels(profile.grid))
    # built first, so that a halving grid over the point cap fails before any solve
    fine = _halved(profile.grid) if report_convergence else None
    energies, vecs = _eigenpairs(profile.source, profile.grid, profile.samples_ev, count,
                                 _seed)
    z = profile.grid.nodes()
    states = []
    warnings = list(profile.warnings)
    for k in range(count):
        psi = vecs[:, k]
        if not _is_bound(profile.grid, profile.samples_ev, energies[k], psi):
            break
        if psi[np.argmax(np.abs(psi))] < 0:
            psi = -psi
        nodes = _count_nodes(psi)
        if nodes != k:
            warnings.append(f"state {k}: found {nodes} nodes, expected {k}")
        h = profile.grid.h_A
        zbar = float(np.sum(z * psi**2) * h) / 10.0
        states.append(BoundState(float(energies[k]) * 1e3, z, psi, nodes, zbar))
    report = None
    if fine is not None:
        notes = []
        change = ()
        source = profile.source
        try:
            seeded = max(1, len(states))
            fine_e, _ = _eigenpairs(source, fine, build_potential(source, fine).samples_ev,
                                    seeded, (energies[:seeded], z, vecs[:, :seeded]),
                                    energies_only=True)
            change = tuple((states[k].energy_mev - float(fine_e[k]) * 1e3)
                           for k in range(len(states)))
        except SolverError:
            notes.append("refined solve failed")
        if isinstance(source, RegularizedImage) and source.b_A < profile.grid.h_A:
            notes.append(f"cutoff b = {source.b_A:.3g} A is below the grid spacing "
                         f"h = {profile.grid.h_A:.3g} A, so the halving change "
                         f"under-reports the error")
        if isinstance(source, Interface):
            notes.append("the interface energy follows the half-cell cap on the 1/z pole "
                         "and falls by about 0.1 eV per halving, so the halving change "
                         "is not an error estimate")
        report = ConvergenceReport(profile.grid.h_A, fine.h_A, change, "; ".join(notes))
    return SolveResult(tuple(states), count, count - len(states), report,
                       tuple(warnings))


@dataclass(frozen=True)
class Transition:
    de_k: float
    f_thz: float


def transition(states: "list[BoundState] | tuple[BoundState, ...]",
               i: int, j: int) -> Transition:
    """Energy (K) and frequency (THz) of the i -> j transition, 0-based i < j."""
    checked(j, f"final state {{}} of a transition among {len(states)} states", 1, len(states),
            "[)")
    checked(i, f"initial state {{}} of a transition to state {j}", 0, j, "[)")
    de_ev = (states[j].energy_mev - states[i].energy_mev) * 1e-3
    return Transition(de_k=de_ev / BOLTZMANN_EV_PER_K,
                      f_thz=de_ev / (PLANCK_EV_S * 1e12))


def richardson_energies(spec: PotentialSpec, grid: GridSpec,
                        halvings: int = 3, state: int = 0) -> list[float]:
    """Ground (or `state`) energies in meV at h, h/2, ..., h/2^halvings.

    Each grid is solved by `_eigenpairs`: the first from the grid 4x
    coarser, each halved one from the eigenpairs of the grid before.
    """
    checked(halvings, "{} halvings", 0, MAX_GRID_POINTS)
    out = []
    start = None
    for k in range(halvings + 1):
        if k:
            grid = _halved(grid)
        count = checked(state + 1, f"{{}} levels up to state {state} on a {grid.points}-point "
                        f"grid", 1, _max_levels(grid))
        e, vecs = _eigenpairs(spec, grid, build_potential(spec, grid).samples_ev, count, start)
        out.append(float(e[state]) * 1e3)
        start = (e, grid.nodes(), vecs)
    return out


def richardson_ratios(energies: list[float]) -> list[float]:
    """Successive-difference ratios; ~4 for a second-order discretization."""
    d = np.diff(np.asarray(energies))
    return [float(d[i] / d[i + 1]) for i in range(len(d) - 1)]


@dataclass(frozen=True)
class StarkPoint:
    field_v_per_m: float
    state: BoundState | None
    note: str = ""


def stark_scan(spec: PotentialSpec, fields_v_per_m: "list[float]",
               grid: GridSpec | None = None) -> list[StarkPoint]:
    """Ground-state energy vs vertical pressing field.

    Fields where no state survives the boundedness checks (e.g. a pulling
    field that opens the barrier) yield a flagged entry, not a failure.
    Each field after a bound one is refined from that field's ground state.
    """
    if grid is None:
        grid = default_grid(spec)
    out = []
    seed = None
    for field in fields_v_per_m:
        tilted = dataclasses.replace(spec, pressing_field_v_per_m=field)
        result = solve_bound_states(build_potential(tilted, grid), 1,
                                    report_convergence=False, _seed=seed)
        if result.states:
            state = result.states[0]
            out.append(StarkPoint(field, state))
            seed = ((state.energy_mev * 1e-3,), state.z_A, state.psi[:, None])
        else:
            out.append(StarkPoint(field, None, "no bound state"))
            seed = None
    return out


def write_wavefunction(state: BoundState, stream: IO[str], label: int) -> None:
    """Two-column dump: z in nm, psi in nm^-1/2, one header line."""
    stream.write(f"# z_nm psi_nm^-1/2 state={label} energy_mev={state.energy_mev:.6e}\n")
    scale = math.sqrt(10.0)       # A^-1/2 -> nm^-1/2
    for zi, pi in zip(state.z_A, state.psi):
        stream.write(f"{zi / 10.0:.10e} {pi * scale:.10e}\n")
