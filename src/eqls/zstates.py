"""One-dimensional surface potentials and their bound electron states.

An excess electron above a quantum liquid or solid sees a repulsive bulk
barrier for z < 0 and an attractive polarization tail for z > 0.  This
module builds sampled potential profiles for two variants

  * RegularizedImage   V0 for z < 0,  -(eps-1)/(eps+1) e^2/4(z+b) for z >= 0;
                       b = 0 under the V0 = INFINITE_BARRIER_EV cap is the hard
                       wall with the bare tail (`InfiniteBarrierImage`)
  * Interface          solid barrier below, liquid barrier above:
                       -(eps-1)/(eps+1) e^2/4z + V_above tanh^2(z/zeta)

and solves -hbar^2/(2 m_e) psi'' + V psi = E psi on a grid with Dirichlet
ends, using the three-point variable-spacing difference operator, made a
symmetric tridiagonal by the node weights (`_hamiltonian`).  Grids are
uniform in a coordinate s and mapped to z by a smooth odd map (GridSpec):
the default RegularizedImage grid is fine at the surface, coarse in the
near image tail and coarser still in the far tail, the other grids are
uniform.  Sturm-sequence bisection plus inverse iteration (LAPACK dstebz,
then dstein once per level) finds the lowest eigenpairs of the tridiagonal
Hamiltonian on one grid per spectrum: the coarsest of a cascade of grids,
each 4x coarser than the one before, that starts at the grid asked for.
Every spec, grid and level count is range-checked (`units.checked`) before
anything is allocated; barrier heights are capped at INFINITE_BARRIER_EV.

Each tail's strength is Z = (eps-1)/(4(eps+1)) in atomic units
(`hydrogenic_charge`), Z * HARTREE_EV * BOHR_ANGSTROM in eV*A; the default
grids scale with the hydrogenic length a_B/Z.

Every solve climbs one ladder (`_eigenpairs`): refine from eigenpairs in
hand, else solve the grid 4x coarser by the same ladder and refine from
that, else bisect the grid itself.  In hand are the grid below, for the
halved grid of the convergence report and each Richardson level, and the
previous field's ground state, for each Stark field.  Grids under 256
points (64 coarse points) per level skip the coarse step.  So a fresh
solve descends 4x at a time to the first grid under 256 points per level,
bisects that one, and climbs back up by refines; a refine that fails
bisects all levels of its own grid, and the finer grids still refine.
`_refine` interpolates the vectors linearly from their grid onto this one
(bit for bit where the two are one, as for a Stark field) and runs
Rayleigh-quotient iteration from the known energies, then certifies the
result: every residual r bounds the distance to an eigenvalue, the
intervals rho +- r are disjoint, each r^2/gap is within bisection's own
accuracy 4 eps |T|, and one Sturm count, the negative pivots of one LDL^T
factorization (LAPACK dpttrf, `_count_below`), finds no other eigenvalue
below the top one (plus a gap g); bisection (dstebz) runs nowhere else
but on the grids it solves.  Solves that keep their vectors iterate until
the unit vector comes to rest.  The halved grid, whose vectors are
discarded, and the coarser grids of a cascade, whose vectors are only
seeds, stop at the first sweep whose energies certify.  So every energy
is either certified to that accuracy or computed by bisection.

Default grids place z = 0 exactly midway between two nodes.  With the
potential step between nodes, every grid cell lies on a single branch of
the piecewise potential and, since the map is smooth, the eigenvalue error
stays O(h^2) in the step h of s; a node sitting on the step would degrade
this to O(h).  So a reported RegularizedImage level is the Richardson value
from the grid and its halving (`solve_bound_states`).

An optional vertical pressing field E_perp adds +e*E_perp*z for z > 0
only; the barrier branch stays flat (the field inside the dielectric is
screened over the sub-Angstrom penetration depth).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import IO, Union

import numpy as np

from .units import (BOHR_ANGSTROM, BOLTZMANN_EV_PER_K, HARTREE_EV, NORMAL, PLANCK_EV_S,
                    SolverError, checked, compiled)

# The cap on every barrier height, and with b = 0 the stand-in for a hard wall:
# bisection's accuracy 4 eps |T| grows with the barrier and, above this, moves
# the levels (at 1e9 eV, liquid 4He's dE_half_grid by 11%).  The decay length
# under it, about 0.002 A (_MIN_STEP_A), lets the hard wall's levels reach the
# 1/z pole: they lie 3.7e-5 (eps = 1.02) to 6.2e-4 (eps = 1.4) of themselves
# below -Z^2/2n^2.
INFINITE_BARRIER_EV = 1.0e6

# Cap on the pressing field: at most that height per Angstrom, which keeps
# e*E*z finite on every grid that passes GridSpec's checks.
MAX_FIELD_V_PER_M = INFINITE_BARRIER_EV * 1e10

# Largest grid any solve may build, checked before anything is allocated.
# Memory grows as points x levels.  The convergence report's halving doubles
# the points, so a reported solve takes base grids up to half of this: the
# default grids of up to 116 levels (165 without a report), though the
# eigenvector block below binds first, at 75.
MAX_GRID_POINTS = 1 << 20

# Largest points x count block of eigenvectors a solve may allocate (128 MB);
# the default grids of up to 74 levels stay below it.
MAX_EIGENVECTOR_BLOCK = 1 << 24

# A solve seeds itself from the grid 4x coarser while that grid keeps at least
# this many points per level; so bisection runs only on the first grid of the
# cascade with fewer than 4x this per level, or on the grid asked for if that
# is already as small.
_COARSE_POINTS_PER_LEVEL = 64

# Linear solves per level before `_refine` gives up, and the move of the unit
# vector at which it stops.  The benchmark's refines take 2.2 per level on
# average (the vectors kept, the halved grids' and the cascades' together).
_MAX_REFINE_SOLVES = 6
_REFINE_STEP = 1e-9

# A level that moves by more than this fraction of itself under one grid halving
# may not be resolved, and its convergence report says so (the bundled surfaces
# reach 4.0e-5 on their default grids; an E1 that is 1.6% off on a uniform grid
# at (a_B/Z)/200 reaches 1.2e-2).
_UNRESOLVED_CHANGE = 1e-3

# Default graded grids (`default_grid`): the step at the surface is
# min(b, a_B/Z)/_SURFACE_CELLS, the near-tail spacing (a_B/Z)/_TAIL_CELLS, and
# the spacing grows from one to the other over about _BEND_LENGTHS * a_B/Z.  In
# the far tail it keeps growing, to _FAR_RATIO times the near-tail spacing over
# about _FAR_BEND_LENGTHS * a_B/Z (GridSpec's far bend, _FAR_BEND times the
# near one): level n reaches out to about n^2 a_B/Z but varies only on the
# scale n a_B/Z there.  No step is finer than _MIN_STEP_A, the decay length
# under the highest barrier allowed (0.002 A): bisection's accuracy 4 eps |T|
# grows as 1/step^2, and a cutoff 0 < b below it gets the convergence report's
# b < h note instead.
_SURFACE_CELLS = 16.0
_TAIL_CELLS = 100.0
_BEND_LENGTHS = 4.0
_FAR_RATIO = 8.0
_FAR_BEND_LENGTHS = 50.0
_FAR_BEND = _FAR_BEND_LENGTHS / _BEND_LENGTHS
_MIN_STEP_A = BOHR_ANGSTROM / math.sqrt(2.0 * INFINITE_BARRIER_EV / HARTREE_EV)

# The finest digit of psi that `write_wavefunction` prints, relative to its
# largest value: the eigenvector's rounding noise reaches 1.0e-10 of it (every
# bundled surface at 1-6 levels and 150 random spectra, across bisection, the
# cascade and Stark seeds), and a coarser digit would move sum(psi^2 w) by more
# than 1e-8.
_DUMP_RESOLUTION = 1e-8

# Outer/inner fractions of the domain used to detect box-artifact states.
_EDGE_FRACTION = 0.1
_EDGE_MASS_TOL = 1e-4


@dataclass(frozen=True)
class RegularizedImage:
    """Barrier V0 with the image tail shifted by cutoff b; b = 0 at the
    V0 = INFINITE_BARRIER_EV cap is the hard wall (`InfiniteBarrierImage`)."""

    v0_ev: float
    eps_r: float
    b_A: float
    pressing_field_v_per_m: float = 0.0

    def __post_init__(self):
        checked(self.v0_ev, "V0 = {} eV", 0.0, INFINITE_BARRIER_EV, "(]")
        checked(self.eps_r, "eps_r = {}", 1.0, ends="(]")
        # b = 0 only under the hard wall: over a finite barrier the unshifted
        # tail has no continuum limit (Loudon's 1D hydrogen atom)
        checked(self.b_A, "cutoff b = {} A", 0.0,
                ends="[]" if self.v0_ev == INFINITE_BARRIER_EV else "(]")
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


def InfiniteBarrierImage(eps_r: float, pressing_field_v_per_m: float = 0.0) -> RegularizedImage:
    """Hard-wall limit: the unshifted image tail over the barrier cap."""
    return RegularizedImage(INFINITE_BARRIER_EV, eps_r, 0.0, pressing_field_v_per_m)


PotentialSpec = Union[RegularizedImage, Interface]


@dataclass(frozen=True)
class GridSpec:
    """`points` nodes z(s) at equally spaced s from s_min < 0 to s_max > 0.

    The map z(s) = s + (r - 1)(s - L tanh(s/L)) + r (G - 1)(s - L2 tanh(s/L2)),
    with r = `ratio`, L = `bend_A`, G = `far_ratio` and L2 = _FAR_BEND L, is
    odd and smooth: its slope rises from 1 at s = 0 to r for L << |s| << L2
    and to r G for |s| >> L2, so the node spacing grows from the step h_A at
    the surface to about r h_A in the near tail and r G h_A in the far tail.
    The package builds two kinds: the uniform grid z = s of `surface_grid`
    (ratio = far_ratio = 1, the defaults) and the two-stage grid of
    `default_grid`.  A grid caches its nodes and weights (`_cells`) and no
    operator: `_hamiltonian` forms that per call.
    """

    s_min_A: float
    s_max_A: float
    points: int
    ratio: float = 1.0
    bend_A: float = 1.0
    far_ratio: float = 1.0

    def __post_init__(self):
        checked(self.s_min_A, "grid s_min = {} A", high=0.0, ends="[)")
        checked(self.s_max_A, "grid s_max = {} A", 0.0, ends="(]")
        checked(self.points, "grid of {} points", 3, MAX_GRID_POINTS)
        checked(self.h_A, "grid spacing {} A", 0.0, ends="(]")
        h_au = self.h_A / BOHR_ANGSTROM       # every node spacing is at least h
        checked(0.5 / h_au / h_au, f"the kinetic term of grid spacing {self.h_A:g} A", NORMAL)
        checked(self.ratio, "grid spacing ratio {}", 1.0)
        checked(self.bend_A, "grid bend {} A", 0.0, ends="(]")
        checked(self.far_ratio, "far grid spacing ratio {}", 1.0)
        checked(self.z_max_A - self.z_min_A, "grid extent {} A", 0.0, ends="(]")

    @property
    def h_A(self) -> float:
        """The step in s, which is the node spacing at the surface."""
        return (self.s_max_A - self.s_min_A) / (self.points - 1)

    @property
    def z_min_A(self) -> float:
        return float(self._mapped(self.s_min_A))

    @property
    def z_max_A(self) -> float:
        return float(self._mapped(self.s_max_A))

    def _mapped(self, s):
        if self.ratio == self.far_ratio == 1.0:
            return s        # the uniform map is the identity
        near, far = self.bend_A, _FAR_BEND * self.bend_A
        return (s + (self.ratio - 1.0) * (s - near * np.tanh(s / near))
                + self.ratio * (self.far_ratio - 1.0) * (s - far * np.tanh(s / far)))

    @functools.cached_property
    def _cells(self):
        """The nodes with a ghost node beyond each end, the nodes alone (a view)
        and the weights w_i = (h_{i-1} + h_i)/2 of the cell spacings h, all in A:
        built on first use, then shared read-only."""
        z = self._mapped(self.s_min_A + self.h_A * np.arange(-1, self.points + 1))
        h = np.diff(z)
        w = 0.5 * (h[:-1] + h[1:])
        for a in (z, w):
            a.flags.writeable = False
        return z, z[1:-1], w

    def nodes(self) -> np.ndarray:
        """The node positions in A: built on the first call, then shared read-only."""
        return self._cells[1]

    def weights(self) -> np.ndarray:
        """Each node's share of the line, (h_{i-1} + h_i)/2 in A: sum(psi^2 w) = 1."""
        return self._cells[2]


def _lattice(s_min_A: float, s_max_A: float, h_A: float, *grid_map: float) -> GridSpec:
    """Step h covering [s_min, s_max] in s, with s = 0 (so z = 0) midway between
    nodes, under the map (ratio, bend, far_ratio) of GridSpec."""
    checked(h_A, "grid spacing {} A", 0.0, ends="(]")
    checked((s_max_A - s_min_A) / h_A, "grid of {} cells", 0.0, MAX_GRID_POINTS)
    m = int(math.ceil(-s_min_A / h_A - 0.5))
    p = int(math.ceil(s_max_A / h_A + 0.5))
    return GridSpec(-(m + 0.5) * h_A, (p - 0.5) * h_A, m + p + 1, *grid_map)


def _unmapped(z_A: float, ratio: float, bend_A: float, far_ratio: float) -> float:
    """The s >= 0 with z(s) = z >= 0 (see GridSpec), by Newton's method: z(s)
    is convex there and z(s) >= s, so from s = z the iterates fall to the root.
    Rounding can carry a long step past it, so it stops at the first step
    that is no shorter than the one before."""
    far_bend_A = _FAR_BEND * bend_A
    s = z_A
    last = math.inf
    while True:
        t = math.tanh(s / bend_A)
        u = math.tanh(s / far_bend_A)
        z = (s + (ratio - 1.0) * (s - bend_A * t)
             + ratio * (far_ratio - 1.0) * (s - far_bend_A * u))
        slope = 1.0 + (ratio - 1.0) * t * t + ratio * (far_ratio - 1.0) * u * u
        step = (z - z_A) / slope
        if not abs(step) < last:
            break
        s -= step
        last = abs(step)
    return s


def surface_grid(z_min_A: float, z_max_A: float, h_A: float) -> GridSpec:
    """Uniform grid of spacing h covering [z_min, z_max], with z = 0 midway
    between two nodes."""
    checked(z_min_A, "grid z_min = {} A", high=0.0, ends="[)")
    checked(z_max_A, "grid z_max = {} A", 0.0, ends="(]")
    return _lattice(z_min_A, z_max_A, h_A)


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


def default_grid(spec: PotentialSpec, levels: int = 2, z_max_A: float | None = None) -> GridSpec:
    """Grid sized from the hydrogenic length a_B/Z of the image tail.

    z_min = -20 A (several barrier decay lengths), z_max = 20 x the
    hydrogenic ground-state height, extended for levels > 2 (or `z_max_A`).
    A RegularizedImage gets a graded grid (GridSpec): step
    h0 = min(b, a_B/Z)/16 at the surface, at least _MIN_STEP_A, growing to
    h_max = (a_B/Z)/100 over about 4 a_B/Z (not at all where h0 would not be
    finer), then to 8 h_max over about 50 a_B/Z; the hard wall (b = 0) starts
    at _MIN_STEP_A.  The Interface variant has no Rydberg tail; it gets a
    fixed fine uniform grid resolving the zeta-scale structure instead.
    """
    if isinstance(spec, Interface):
        return surface_grid(-20.0, 50.0, spec.zeta_A / 100.0)
    checked(levels, "{} levels", 1, MAX_GRID_POINTS)
    scale = BOHR_ANGSTROM / hydrogenic_charge(spec.eps_r)
    if z_max_A is None:
        z_max_A = scale * max(30.0, 3.0 * levels**2 + 10.0 * levels)
    h_max = scale / _TAIL_CELLS
    h0 = min(max(min(spec.b_A, scale) / _SURFACE_CELLS, _MIN_STEP_A), h_max)
    ratio = h_max / h0
    grid_map = (ratio, _BEND_LENGTHS * scale / ratio, _FAR_RATIO)
    checked(z_max_A, "grid z_max = {} A", 0.0, ends="(]")
    return _lattice(-_unmapped(20.0, *grid_map), _unmapped(z_max_A, *grid_map), h0, *grid_map)


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
    tail = slice(int(np.searchsorted(z, 0.0)), None)     # the nodes ascend: z >= 0 from here
    if isinstance(spec, RegularizedImage):
        eps, barrier, b = spec.eps_r, spec.v0_ev, spec.b_A
    elif isinstance(spec, Interface):
        eps, barrier, b = spec.eps_r_below, spec.v_barrier_below_ev, 0.0
    else:
        raise TypeError(f"unsupported potential spec {type(spec).__name__}")
    a = hydrogenic_charge(eps) * HARTREE_EV * BOHR_ANGSTROM
    v = np.full(grid.points, barrier, dtype=float)
    # a node at z = 0 meets the b = 0 pole: cap it at half a cell
    v[tail] = -a / np.maximum(z[tail] + b, 0.5 * grid.h_A)
    if isinstance(spec, Interface):
        v[tail] += spec.v_barrier_above_ev * np.tanh(z[tail] / spec.zeta_A) ** 2
    if spec.pressing_field_v_per_m:
        v[tail] += spec.pressing_field_v_per_m * 1e-10 * z[tail]   # e*E*z, eV per A
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
    """Normalized bound eigenstate: sum psi^2 w = 1 (`GridSpec.weights`), psi in A^-1/2."""

    energy_mev: float
    z_A: np.ndarray
    psi: np.ndarray
    node_count: int
    mean_z_nm: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Ground-truth guard: energy change per state under one grid halving.

    h_A and refined_h_A are the steps of the two grids (GridSpec.h_A)."""

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


def _hamiltonian(profile: PotentialProfile):
    """The finite-difference Hamiltonian of a profile, in Hartree with lengths in A.

    Returns the couplings c = hbar^2/(2 m_e h) of the n + 1 cells, sqrt(w) at
    the nodes, the potential, and the diagonal and off-diagonal of the
    symmetric tridiagonal W^-1/2 K W^-1/2, where
    (K psi)_i = c_{i-1} (psi_i - psi_{i-1}) - c_i (psi_{i+1} - psi_i) + V_i w_i psi_i
    with psi = 0 beyond both ends: the three-point variable-spacing operator,
    which on a uniform grid is the centred difference.  Its eigenvectors are
    phi = W^1/2 psi, unit vectors where sum psi^2 w = 1.  All five are formed
    per call and owned by the caller: no operator is cached on the grid.
    """
    z, _, w = profile.grid._cells
    c = 0.5 * BOHR_ANGSTROM**2 / np.diff(z)     # c/w <= 1/h^2 in Hartree: normal, see GridSpec
    root = np.sqrt(w)
    pot = profile.samples_ev / HARTREE_EV
    return c, root, pot, (c[:-1] + c[1:]) / w + pot, -c[1:-1] / (root[:-1] * root[1:])


def _eigensolve(profile: PotentialProfile, count: int):
    """Lowest `count` eigenpairs in (eV, psi with sum psi^2 w = 1).

    Bisection (stebz) for the energies, then inverse iteration (stein) one
    energy per call: given several, stein reorthogonalizes every pair closer
    than 1e-3 |T| (all bound states here) through BLAS, which ran up to 20x
    slower under a multi-threaded BLAS.
    """
    # loaded here so that commands which never solve skip loading scipy
    lapack = compiled("scipy.linalg._flapack")
    dstebz, dstein = lapack.dstebz, lapack.dstein

    _, root, _, diag, off = _hamiltonian(profile)
    found, w, iblock, isplit, info = dstebz(diag, off, 2, 0.0, 0.0, 1, count, 0.0, b"B")
    if info != 0 or found != count:
        raise SolverError(f"bisection found {found} of states 0..{count - 1} (info {info})")
    order = np.argsort(w[:count], kind="stable")
    vecs = np.empty((profile.grid.points, count), order="F")
    block = np.empty_like(iblock)        # stein reads the block of its one energy here
    for k, j in enumerate(order):
        block[0] = iblock[j]
        col, info = dstein(diag, off, w[j:j + 1], block, isplit)
        if info != 0:
            raise SolverError(f"inverse iteration failed for state {k} (info {info})")
        vecs[:, k] = col[:, 0]
    return w[order] * HARTREE_EV, vecs / root[:, None]


def _count_below(diag, off, sigma: float, limit: int, pivmin: float, d, e) -> int:
    """Eigenvalues of the symmetric tridiagonal (diag, off) below sigma, or
    limit + 1 if there are more than `limit`.

    The count of negative pivots of LDL^T(T - sigma) (Sylvester's inertia),
    which is what bisection's Sturm count (dstebz) counts, in one pass over
    copies of the two diagonals, made in the caller's scratch arrays d and e
    (as long as diag and off; their contents are lost): pttrf factors until
    its first nonpositive pivot, which is counted and, where above -pivmin,
    replaced by -pivmin as dlaebz does, and the factorization restarts below
    it.  Backward stable in the same sense as the Sturm count (Kahan 1966),
    so a count can differ from dstebz's only where sigma lies within
    rounding of an eigenvalue.
    """
    dpttrf = compiled("scipy.linalg._flapack").dpttrf
    np.subtract(diag, sigma, out=d)
    e[:] = off
    count = start = 0
    while count <= limit:
        if start == len(d) - 1:         # pttrf takes no one-element matrix
            return count + int(d[start] <= 0.0)
        pivots, _, info = dpttrf(d[start:], e[start:], overwrite_d=1, overwrite_e=1)
        if info == 0:
            return count
        count += 1
        k = start + info - 1            # pttrf stopped at this pivot, before the next
        if k == len(d) - 1:
            break
        d[k + 1] -= off[k] / min(float(pivots[info - 1]), -pivmin) * off[k]
        start = k + 1
    return count


def _refine(profile: PotentialProfile, seeds_ev, seed_grid: GridSpec, seed_vecs: np.ndarray,
            energies_only: bool = False):
    """Lowest `len(seeds_ev)` eigenpairs near the seed energies, certified.

    Same (eV, psi with sum psi^2 w = 1) form as `_eigensolve`.  Column k
    of `seed_vecs`, sampled at the nodes of `seed_grid`, is interpolated
    linearly onto the profile's grid (which returns it bit for bit when the
    two grids are one) and run through Rayleigh-quotient iteration (gtsv),
    one solve per level and sweep: the first shift is seed k, each later one
    the Rayleigh quotient, until the unit vector phi = W^1/2 psi moves by at
    most _REFINE_STEP, in at most _MAX_REFINE_SOLVES sweeps.  Rayleigh
    quotient and residual use the fluxes c_i (psi_{i+1} - psi_i), so the
    1/h^2 diagonal never cancels.  The pairs are certified as the lowest
    ones to within the bisection accuracy acc = 4 eps |T|_1: every interval
    rho_k +- r_k holds an eigenvalue, the intervals are disjoint, each
    r^2/gap is at most acc, and one inertia count (`_count_below`, the
    negative pivots of LDL^T(T - rho_top - g)) finds exactly m eigenvalues
    below rho_top + g.  With `energies_only`, every sweep is certified and
    the first that passes is returned, whether or not its vectors have come
    to rest.  Raises SolverError otherwise.  The sweeps work in buffers
    allocated once per refine, after the seeds are interpolated, and the
    inertia count factors in two of them, `work` and `col[:n - 1]`, which
    are free at certification.
    """
    dgtsv = compiled("scipy.linalg._flapack").dgtsv

    n, m = profile.grid.points, len(seeds_ev)
    c, root, pot, diag, off = _hamiltonian(profile)
    work = np.abs(diag)             # the rows of |T|, then gtsv's diagonal and the residual
    work[1:] -= off
    work[:-1] -= off
    acc = 4.0 * np.finfo(float).eps * float(np.max(work))
    pivmin = np.finfo(float).tiny * max(1.0, float(max(off.max(), -off.min())) ** 2)

    def quotient(phi):
        """Rayleigh quotient of a unit vector; leaves its fluxes in `flux`."""
        np.multiply(phi, scale, out=psi[1:-1])
        dpsi = np.subtract(psi[1:], psi[:-1], out=col)
        np.multiply(c, dpsi, out=flux)
        return float(flux @ dpsi) + float(np.multiply(pot, phi, out=work) @ phi)

    def norm(x):
        return math.sqrt(float(x @ x))

    def unit(vec, k):
        """Scales vec to length 1 in place."""
        length = norm(vec)
        if not math.isfinite(length) or length == 0.0:
            raise SolverError(f"Rayleigh-quotient iteration for state {k} lost its vector")
        vec /= length

    def uncertified():
        """Why (rho, r) do not certify the lowest m eigenvalues, or None."""
        lows = [x - y for x, y in zip(rho, r)]
        ups = [x + y for x, y in zip(rho, r)]
        if (not all(map(math.isfinite, ups))
                or any(u >= low for u, low in zip(ups, lows[1:]))):
            return "refined intervals are not finite, disjoint and ascending"
        g = 2.0 * max(r[-1], r[-1] ** 2 / acc)     # so that r_top^2 / g <= acc / 2
        top = rho[-1] + g
        if not math.isfinite(top):
            return "refined residual too large to certify"
        gaps = [min(low - x, x - u)
                for x, low, u in zip(rho, lows[1:] + [top], [-math.inf] + ups[:-1])]
        if any(y * y > acc * gap for y, gap in zip(r, gaps)):
            return (f"refined levels are not separated enough to certify (worst r^2/gap "
                    f"{max(y * y / gap for y, gap in zip(r, gaps)):.3g} Ha, allowed {acc:.3g})")
        found = _count_below(diag, off, top, m, pivmin, work, col[:n - 1])
        if found != m:
            return (f"Sturm count below the top refined level is "
                    f"{found if found < m else f'over {m}'}, not {m}")
        return None

    vecs = np.empty((n, m), order="F")
    z, seed_z = profile.grid.nodes(), seed_grid.nodes()
    for k in range(m):
        phi = vecs[:, k]
        np.multiply(np.interp(z, seed_z, seed_vecs[:, k]), root, out=phi)
        unit(phi, k)
    scale = 1.0 / root
    col = np.empty(n + 1)           # gtsv's right-hand side and solution, then psi's steps
    psi = np.zeros(n + 2)           # psi = phi / sqrt(w), and 0 beyond both ends
    flux = np.empty(n + 1)          # c (psi_{i+1} - psi_i)
    lower, upper = psi[1:-2], flux[:-2]     # gtsv's off-diagonals, free until the quotient
    shift = [float(e) / HARTREE_EV for e in seeds_ev]
    rho = [0.0] * m
    r = [0.0] * m
    moving = list(range(m))
    for _ in range(_MAX_REFINE_SOLVES):
        for k in list(moving):
            phi = vecs[:, k]
            lower[:] = off
            upper[:] = off
            x = col[:n]
            x[:] = phi
            np.subtract(diag, shift[k], out=work)
            *_, info = dgtsv(lower, work, upper, x, overwrite_dl=1, overwrite_d=1,
                             overwrite_du=1, overwrite_b=1)
            if info != 0:
                raise SolverError(f"Rayleigh-quotient solve for state {k} failed (info {info})")
            unit(x, k)
            if x @ phi < 0.0:
                np.negative(x, out=x)
            step = norm(np.subtract(x, phi, out=work))
            phi[:] = x
            rho[k] = shift[k] = quotient(phi)
            if step <= _REFINE_STEP:
                moving.remove(k)
            elif not energies_only:
                continue        # a vector still moving is not certified yet
            # the residual, plus a rounding allowance for evaluating it
            np.subtract(pot, rho[k], out=work)
            work *= phi
            div = np.subtract(flux[1:], flux[:-1], out=psi[1:-1])
            div *= scale
            work -= div
            r[k] = norm(work) + acc
        if moving and not energies_only:
            continue
        failure = uncertified()
        if failure is None:
            vecs /= root[:, None]
            return np.array(rho) * HARTREE_EV, vecs
        if not moving:
            raise SolverError(failure)
    raise SolverError(f"Rayleigh-quotient iteration for state {moving[0]} did not converge "
                      f"in {_MAX_REFINE_SOLVES} linear solves")


def _eigenpairs(profile: PotentialProfile, count: int, start=None,
                energies_only: bool = False):
    """Lowest `count` eigenpairs of a profile.

    Same (eV, psi with sum psi^2 w = 1) form as `_eigensolve`, from the
    first step of this ladder that returns:
      1. `_refine` from `start`, eigenpairs in hand (energies in eV, their
         grid, one vector column per state), if given;
      2. solve the grid 4x coarser by this same ladder, stopping at its
         first certified energies, and `_refine` from its eigenpairs, if
         the grid has at least 4 * _COARSE_POINTS_PER_LEVEL points per level;
      3. bisect the grid itself.
    So a fresh solve bisects only the coarsest grid of its cascade and
    climbs back by refines, and a refine that fails bisects all `count`
    levels of its own grid, while the finer grids above it still refine.
    Both refines stop at the first certified energies with `energies_only`.
    """
    if start is not None:
        try:
            return _refine(profile, *start, energies_only)
        except SolverError:
            pass        # solve outside the handler, so the traceback frees _refine's arrays
    if profile.grid.points >= 4 * _COARSE_POINTS_PER_LEVEL * count:
        coarse = build_potential(profile.source, _rescaled(profile.grid, 4.0))
        seeds, vecs = _eigenpairs(coarse, count, energies_only=True)
        try:
            return _refine(profile, seeds, coarse.grid, vecs, energies_only)
        except SolverError:
            pass
    return _eigensolve(profile, count)


def _max_levels(grid: GridSpec) -> int:
    """Most levels whose eigenvectors on `grid` fit in MAX_EIGENVECTOR_BLOCK."""
    return min(grid.points, MAX_EIGENVECTOR_BLOCK // grid.points)


def _is_bound(profile: PotentialProfile, e_ev: float, psi: np.ndarray) -> bool:
    """Below the potential ceiling at the far wall, and not leaning on a wall."""
    grid = profile.grid
    if e_ev >= profile.samples_ev[-1]:
        return False
    mass = psi**2 * grid.weights()
    right = int(max(2, round(_EDGE_FRACTION * grid.points)))
    if float(np.sum(mass[-right:])) > _EDGE_MASS_TOL:
        return False
    left = grid.nodes() < grid.z_min_A * (1.0 - _EDGE_FRACTION)
    if float(np.sum(mass[left])) > _EDGE_MASS_TOL:
        return False
    return True


def _rescaled(grid: GridSpec, factor: float) -> GridSpec:
    """The same map over the same extent with the step times `factor` (z = 0
    still midway between nodes): the halved grid and each coarser one."""
    return _lattice(grid.s_min_A, grid.s_max_A, factor * grid.h_A, grid.ratio, grid.bend_A,
                    grid.far_ratio)


def solve_bound_states(profile: PotentialProfile, count: int,
                       report_convergence: bool = True, *,
                       _seed=None) -> SolveResult:
    """The `count` lowest bound states of a sampled profile.

    States are strictly ascending in energy, normalized to 1e-8 or better,
    and each is checked to sit below the potential at the far boundary
    with negligible weight on either grid wall; eigenstates that fail
    (box artifacts of the finite domain) are dropped and reported via
    `shortfall`.  A convergence report from one grid halving is attached
    unless `report_convergence` is false.  With the report, a
    RegularizedImage level is the Richardson value E(h) - (4/3) dE, with dE
    = E(h) - E(h/2) the report's change: the error is O(h^2), so this drops
    its leading term at no extra solve.  Other levels, and psi, nodes and
    <z> always, are those of the grid given.  Both grids are solved by
    `_eigenpairs`: the base grid from `_seed` if given (private: a nearby
    solve's energies in eV, grid and vector columns, as `stark_scan`
    passes), the halved grid from the base eigenpairs, stopping as soon as
    its energies certify, since its vectors are not kept.
    """
    checked(count, f"count {{}} on a {profile.grid.points}-point grid", 1,
            _max_levels(profile.grid))
    # built first, so that a halving grid over the point cap fails before any solve
    fine = _rescaled(profile.grid, 0.5) if report_convergence else None
    energies, vecs = _eigenpairs(profile, count, _seed)
    z = profile.grid.nodes()
    weights = profile.grid.weights()
    kept = []
    warnings = list(profile.warnings)
    for k in range(count):
        psi = vecs[:, k]
        if not _is_bound(profile, energies[k], psi):
            break
        if psi[np.argmax(np.abs(psi))] < 0:
            psi = -psi
        nodes = _count_nodes(psi)
        if nodes != k:
            warnings.append(f"state {k}: found {nodes} nodes, expected {k}")
        zbar = float(np.sum(z * psi**2 * weights)) / 10.0
        kept.append([float(energies[k]) * 1e3, psi, nodes, zbar])
    report = None
    if fine is not None:
        notes = []
        change = ()
        source = profile.source
        try:
            seeded = max(1, len(kept))
            fine_e, _ = _eigenpairs(build_potential(source, fine), seeded,
                                    (energies[:seeded], profile.grid, vecs[:, :seeded]),
                                    energies_only=True)
            change = tuple((e - float(fine_e[k]) * 1e3) for k, (e, *_) in enumerate(kept))
        except SolverError:
            notes.append("refined solve failed")
        if isinstance(source, RegularizedImage) and 0.0 < source.b_A < profile.grid.h_A:
            notes.append(f"cutoff b = {source.b_A:.3g} A is below the grid spacing "
                         f"h = {profile.grid.h_A:.3g} A at the surface, so the halving "
                         f"change under-reports the error")
        unresolved = [str(k + 1) for k, d in enumerate(change)
                      if abs(d) > _UNRESOLVED_CHANGE * abs(kept[k][0])]
        if isinstance(source, Interface):
            notes.append("the interface energy follows the half-cell cap on the 1/z pole "
                         "and falls by about 0.1 eV per halving, so the halving change "
                         "is not an error estimate")
        elif unresolved:
            notes.append(f"the halving change exceeds {_UNRESOLVED_CHANGE:g} of the energy "
                         f"(state {', '.join(unresolved)}), so the level may not be "
                         f"resolved, and its error can reach about twice the change")
        if isinstance(source, RegularizedImage):
            for state, d in zip(kept, change):
                state[0] -= 4.0 / 3.0 * d
        report = ConvergenceReport(profile.grid.h_A, fine.h_A, change, "; ".join(notes))
    states = tuple(BoundState(e, z, psi, nodes, zbar) for e, psi, nodes, zbar in kept)
    return SolveResult(states, count, count - len(states), report, tuple(warnings))


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

    Each grid is solved by `_eigenpairs`: the first from its cascade of
    coarser grids, each halved one from the eigenpairs of the grid before.
    """
    checked(halvings, "{} halvings", 0, MAX_GRID_POINTS)
    out = []
    start = None
    for k in range(halvings + 1):
        if k:
            grid = _rescaled(grid, 0.5)
        count = checked(state + 1, f"{{}} levels up to state {state} on a {grid.points}-point "
                        f"grid", 1, _max_levels(grid))
        e, vecs = _eigenpairs(build_potential(spec, grid), count, start)
        out.append(float(e[state]) * 1e3)
        start = (e, grid, vecs)
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
            seed = ((state.energy_mev * 1e-3,), grid, state.psi[:, None])
        else:
            out.append(StarkPoint(field, None, "no bound state"))
            seed = None
    return out


def write_wavefunction(state: BoundState, stream: IO[str], label: int) -> None:
    """Two-column dump, one header line: z in nm, which is non-uniform on a
    graded grid, and psi in nm^-1/2, with sum psi^2 w = 1 (w in nm, see
    GridSpec.weights).  psi is printed in fixed point to the digits at or above
    _DUMP_RESOLUTION of its largest value; the digits below that are rounding
    noise of the eigenvector and follow the path of the solve."""
    stream.write(f"# z_nm psi_nm^-1/2 state={label} energy_mev={state.energy_mev:.6e}\n")
    psi = state.psi * math.sqrt(10.0)       # A^-1/2 -> nm^-1/2
    digits = max(0, -math.floor(math.log10(_DUMP_RESOLUTION * float(np.max(np.abs(psi))))))
    for zi, pi in zip(state.z_A, psi):
        stream.write(f"{zi / 10.0:.10e} {round(pi, digits) + 0.0:.{digits}f}\n")   # no -0
