"""Exact bound levels of `zstates.RegularizedImage` in double precision.

For z >= 0 the potential is -Z/(z + b) (Hartree units, Z the image
charge).  A level E = -kappa^2/2 with kappa = Z/nu has the decaying
solution W(x) = exp(-x/2) x U(1 - nu, 2, x) at x = 2 kappa (z + b), and
exp(q z) with q = sqrt(2 V0 + kappa^2) under the barrier.  Matching psi'/psi
at z = 0 gives f(nu) = 2 kappa W'(x0) - q W(x0) = 0 with x0 = 2 kappa b
(Loudon, Am. J. Phys. 27, 649 (1959)).  f is a difference, not a ratio, so
it has no poles: each root is bracketed by a sign change on a scan of nu
and refined by `brentq`.  The positive factor exp(-x0/2) is dropped.

No level lies below the floor -Z/b of the well, so nu > sqrt(Z b / 2),
where the scan starts.  A level missed all the same shows up as a
Sturm-count mismatch with the finite-difference matrix (see the tests).

scipy's `hyperu(a, 2, x)` is off by many orders of magnitude for a within
0.02 of 0 or 1 at x ~ 1e-3 to 1e-2, and a = 0 is the ground state
(nu = 1).  So U(a, 2, x), a = 1 - nu, comes from its neighbours a - 1 and
a - 2 = -nu - 1 by the recurrence DLMF 13.3.7, and x U'(a, 2, x) =
(x - 2 + a) U(a, 2, x) - U(a - 1, 2, x) (DLMF 13.3.10 and 13.3.23).  Over
the parameter ranges of the tests f then agrees with mpmath to 2e-9 of the
size of its terms, and the levels to 1e-12.

`tests/test_acceptance.py` holds the same matching in mpmath, which is
independent of scipy and about 500 times slower.
"""

import math

from scipy.optimize import brentq
from scipy.special import hyperu

from eqls.units import BOHR_ANGSTROM, HARTREE_EV
from eqls.zstates import hydrogenic_charge

NU_STEP = 0.05      # the roots are about 1 apart in nu


def nu_of(energy_mev: float, eps_r: float) -> float:
    """nu = Z/kappa of a level E = -kappa^2/2."""
    return hydrogenic_charge(eps_r) / math.sqrt(-2.0 * energy_mev * 1e-3 / HARTREE_EV)


def energy_of(nu: float, eps_r: float) -> float:
    """The level -Z^2/(2 nu^2), in meV."""
    charge = hydrogenic_charge(eps_r)
    return -charge * charge / (2.0 * nu * nu) * HARTREE_EV * 1e3


def regularized_image_levels(v0_ev: float, eps_r: float, b_A: float, count: int) -> list[float]:
    """The `count` lowest bound levels of `RegularizedImage(v0_ev, eps_r, b_A)`, in meV."""
    charge = hydrogenic_charge(eps_r)
    b = b_A / BOHR_ANGSTROM
    v0 = v0_ev / HARTREE_EV

    def mismatch(nu):
        kappa = charge / nu
        x = 2.0 * kappa * b
        a = 1.0 - nu
        u1 = hyperu(a - 1.0, 2.0, x)
        u = -(hyperu(a - 2.0, 2.0, x) + (4.0 - 2.0 * a - x) * u1) / ((a - 1.0) * (a - 2.0))
        dw = (x / 2.0 - 1.0 + a) * u - u1              # exp(x/2) W'(x)
        return 2.0 * kappa * dw - math.sqrt(2.0 * v0 + kappa * kappa) * x * u

    start = math.sqrt(charge * b / 2.0)
    roots = []
    k = 0
    lo, f_lo = start, mismatch(start)
    while len(roots) < count:
        if lo > count + 1:
            raise RuntimeError(f"found {len(roots)} of {count} levels below nu = {lo}")
        k += 1
        hi = start + k * NU_STEP
        f_hi = mismatch(hi)
        if f_lo * f_hi < 0.0:
            roots.append(brentq(mismatch, lo, hi, xtol=1e-300, rtol=1e-15))
        lo, f_lo = hi, f_hi
    return [energy_of(nu, eps_r) for nu in roots]
