"""Levels of `zstates.RegularizedImage` under a pressing field, by shooting.

For z >= 0 the potential is V(z) = -Z/(z + b) + F z (Hartree units, Z the
image charge, F >= 0 the field); for z < 0 it is the flat barrier V0, where
the bound solution is exp(q z) with q = sqrt(2 (V0 - E)).  So psi(0) = 1 and
psi'(0) = q start the outward integration of psi'' = 2 (V - E) psi
(`solve_ivp`, DOP853), and a level is a sign change of psi at the far end
z_max, found by `brentq`.  At b = 0 the wall is exact whatever V0: psi(0) = 0,
and the integration starts just above the 1/z pole from the series
psi = z (1 - Z z + (Z^2 - E) z^2/3 + ...).  Level k (k = 0 the ground level)
lies between an energy where psi has k nodes on (0, z_max] and one where it
has k + 1 (Sturm's oscillation theorem), which the bracket is checked against.

V rises monotonically for F >= 0, so past the turning point psi grows like
exp(int kappa), kappa = sqrt(2 (V - E)).  z_max is where that integral
reaches REACH at the top of the bracket (or 60 a_B/Z, if sooner): the
level then moves by about exp(-2 REACH) relative to an infinite domain,
and psi stays far from overflow at any field.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from eqls.units import BOHR_ANGSTROM, HARTREE_EV
from eqls.zstates import hydrogenic_charge

REACH = 40.0
RTOL = 1e-12
SERIES_START = 1e-4     # the b = 0 start, in a_B/Z: the series' next term is ~1e-16 of psi


def _far_end(v, e, z0, z_far):
    """Where int kappa dz past the turning point reaches REACH at energy e, in a_B."""
    z = np.linspace(z0, z_far, 200001)
    kappa = np.sqrt(2.0 * np.maximum(v(z) - e, 0.0))
    reach = np.concatenate(([0.0], np.cumsum(0.5 * (kappa[1:] + kappa[:-1]) * np.diff(z))))
    past = np.nonzero(reach >= REACH)[0]
    return float(z[past[0]]) if past.size else z_far


def _start(charge, b, field, v0):
    """(z0, psi(z0), psi'(z0)) at energy e: the barrier's exp(q z) at z0 = 0, or
    at b = 0 the exact wall's series psi = z + a2 z^2 + a3 z^3 + a4 z^4."""
    def start(e):
        if b > 0.0:
            return 0.0, 1.0, math.sqrt(2.0 * (v0 - e))
        z = SERIES_START / charge
        a2 = -charge
        a3 = (charge * charge - e) / 3.0
        a4 = (field - charge * a3 - e * a2) / 6.0
        return (z, z + a2 * z**2 + a3 * z**3 + a4 * z**4,
                1.0 + 2.0 * a2 * z + 3.0 * a3 * z**2 + 4.0 * a4 * z**3)
    return start


def _shoot(v, start, e, z_max):
    """psi on [z0, z_max] at energy e, from start(e)."""
    z0, psi, slope = start(e)
    return solve_ivp(lambda z, y: (y[1], 2.0 * (v(z) - e) * y[0]), (z0, z_max), (psi, slope),
                     method="DOP853", rtol=RTOL, atol=1e-300, dense_output=True)


def _nodes(sol, z_max):
    psi = sol.sol(np.linspace(sol.t[0], z_max, 20001))[0]
    return int(np.count_nonzero(psi[1:] * psi[:-1] < 0.0))


def level(v0_ev: float, eps_r: float, b_A: float, field_v_per_m: float,
          low_mev: float, high_mev: float, k: int = 0) -> float:
    """Level k in meV of `RegularizedImage(v0_ev, eps_r, b_A, field)` (b = 0: the
    exact wall), which must lie between `low_mev` and `high_mev`, and level
    k + 1 above `high_mev`; raises AssertionError otherwise."""
    charge = hydrogenic_charge(eps_r)
    b = b_A / BOHR_ANGSTROM
    field = field_v_per_m * 1e-10 * BOHR_ANGSTROM / HARTREE_EV     # Hartree per a_B
    v0 = v0_ev / HARTREE_EV

    def v(z):
        return -charge / (z + b) + field * z

    start = _start(charge, b, field, v0)
    lo, hi = (e * 1e-3 / HARTREE_EV for e in (low_mev, high_mev))
    z_max = _far_end(v, hi, start(hi)[0], 60.0 / charge)
    for e, nodes in ((lo, k), (hi, k + 1)):
        found = _nodes(_shoot(v, start, e, z_max), z_max)
        assert found == nodes, f"psi at {e * HARTREE_EV * 1e3:.6g} meV has {found} nodes"

    def end(e):
        return _shoot(v, start, e, z_max).y[0, -1]

    return brentq(end, lo, hi, xtol=1e-300, rtol=1e-15) * HARTREE_EV * 1e3
