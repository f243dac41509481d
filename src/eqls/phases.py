"""Phases of the 2D electron system: plasma parameter, melting curves,
and the classical/quantum phase classification.

The plasma parameter Gamma = U_e/K_e compares the mean Coulomb energy per
electron U_e = e^2 sqrt(pi n) with the mean kinetic energy K_e of a 2D
noninteracting Fermi gas at density n and temperature T.  K_e is always
evaluated from the full Fermi-Dirac integral

    K_e = (1/E_F) * integral_0^inf  eps / (exp((eps - mu)/kT) + 1) d eps

with mu = kT ln(exp(E_F/kT) - 1) and E_F = pi hbar^2 n / m_e (spin
degeneracy 2 built in).  The classical (K_e -> kT) and degenerate
(K_e -> E_F/2) limits come out as verified special cases rather than
being pasted together, which is what makes the melting dome smooth
through the crossover.

Melting: in Hartree units Gamma * sqrt(kT) = g(x) = x^(3/2) / F1(eta(x))
depends on n and T only through x = E_F/kT = pi n/kT.  g rises like
x^(1/2) in the classical regime and falls like x^(-1/2) in the degenerate
regime, with a single maximum G_MAX at X_PEAK (both computed once with
mpmath: F1(eta) = -Li2(-e^eta), findroot on g').  So at every T the peak
of Gamma over n sits at n = X_PEAK kT/pi with height G_MAX/sqrt(kT), and
Gamma = gamma0 has two roots n_c1(T) < n_c2(T), one on each side of that
peak, or none.  The dome apex (T_c, n_c) is where the peak height equals
gamma0: kT_c = (G_MAX/gamma0)^2 and n_c = X_PEAK kT_c/pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .units import BOHR_CM, HARTREE_EV, HARTREE_K, NORMAL, SolverError, checked, compiled

_AB2_CM2 = BOHR_CM**2          # cm^2 per Bohr-radius^2

DEFAULT_GAMMA0 = 127.0         # classical-melting threshold (Monte Carlo)

_QUAD_RTOL = 1e-8              # contract tolerance for the kinetic integral
_ROOT_RTOL = 1e-4              # relative tolerance of each melting density

X_PEAK = 2.3570770804214027    # E_F/kT at the maximum of Gamma over n at fixed T
G_MAX = 0.8845013770751479     # that maximum of Gamma * sqrt(kT / Hartree)

MAX_CURVE_POINTS = 10_000      # temperatures per melting curve, about 5 ms each


def _n_au(n_cm2: float) -> float:
    return n_cm2 * _AB2_CM2


def _kt_au(t_k: float) -> float:
    return t_k / HARTREE_K


def _n_cm2(x: float, kt: float) -> float:
    """Density in cm^-2 at which E_F/kT = x, for kT in Hartree."""
    return x * kt / math.pi / _AB2_CM2


def fermi_energy(n_cm2: float) -> float:
    """2D Fermi energy pi*hbar^2*n/m_e in eV (spin degeneracy 2 included)."""
    checked(n_cm2, "density {} cm^-2", 0.0)
    return math.pi * _n_au(n_cm2) * HARTREE_EV


def _eta(x: float) -> float:
    """Reduced chemical potential mu/kT of the 2D gas from x = E_F/kT.

    eta = ln(exp(x) - 1), evaluated in overflow-safe form for x up to 1e6+.
    """
    if x > 30.0:
        return x + math.log1p(-math.exp(-x))
    return math.log(math.expm1(x))


def _scales(n_cm2: float, t_k: float) -> tuple[float, float]:
    """(kT, E_F) in Hartree, with kT and E_F/kT normal doubles."""
    checked(n_cm2, "density {} cm^-2", 0.0, ends="(]")
    checked(t_k, "temperature {} K", 0.0, ends="(]")
    kt = checked(_kt_au(t_k), f"temperature {t_k:g} K", NORMAL)
    ef = math.pi * _n_au(n_cm2)
    checked(ef / kt, f"density {n_cm2:g} cm^-2 at temperature {t_k:g} K", NORMAL)
    return kt, ef


def chemical_potential(n_cm2: float, t_k: float) -> float:
    """Chemical potential kT*ln(exp(E_F/kT) - 1) in eV."""
    kt, ef = _scales(n_cm2, t_k)
    return kt * _eta(ef / kt) * HARTREE_EV


def _f1(eta: float) -> float:
    """First-order Fermi-Dirac integral: int_0^inf x/(exp(x-eta)+1) dx.

    For eta > 0 the exact reflection F1(eta) = eta^2/2 + pi^2/6 - F1(-eta)
    is used, so quadrature only ever sees the classical side c = -|eta|.
    There it integrates x/(exp(x) + e^c), smooth and below 1e-20 relative
    beyond x = 50, and scales value and error by e^c: as c nears -708 the
    unscaled integrand would be subnormal, losing digits the error estimate
    misses.  Integrating the Fermi step at x = eta directly loses it between
    quadrature nodes once eta is in the thousands, also unseen by the estimate.
    """
    weight = math.exp(-abs(eta))
    # QUADPACK's qagse, as scipy's quad(f, 0, 50, limit=200, epsabs=0, epsrel=1e-11)
    # calls it; loaded here so that commands which never evaluate Gamma skip scipy
    val, err, ier = compiled("scipy.integrate._quadpack")._qagse(
        lambda x: x / (math.exp(x) + weight), 0.0, 50.0, (), 0, 0.0, 1e-11, 200)
    if ier != 0:
        raise SolverError(f"kinetic-energy quadrature stopped with QUADPACK code {ier} "
                          f"at eta = {eta:g}")
    val *= weight
    err *= weight
    if eta > 0.0:
        val = 0.5 * eta * eta + math.pi**2 / 6.0 - val
    if err > _QUAD_RTOL * abs(val):
        raise SolverError(
            f"kinetic-energy quadrature reached {err / abs(val):.1e} relative, "
            f"requested {_QUAD_RTOL:.0e}"
        )
    return val


def _kinetic(n_cm2: float, t_k: float, kt: float, ef: float, eta: float) -> float:
    """K_e in eV from the scales (kT, E_F) of (n, T) and eta = mu/kT."""
    return checked(kt * kt / ef * _f1(eta) * HARTREE_EV,
                   f"the kinetic energy at density {n_cm2:g} cm^-2 and temperature "
                   f"{t_k:g} K", NORMAL)


def kinetic_energy(n_cm2: float, t_k: float) -> float:
    """Mean kinetic energy per electron of the 2D Fermi gas, in eV."""
    kt, ef = _scales(n_cm2, t_k)
    return _kinetic(n_cm2, t_k, kt, ef, _eta(ef / kt))


def coulomb_energy(n_cm2: float) -> float:
    """Mean Coulomb energy per electron e^2*sqrt(pi*n) in eV."""
    checked(n_cm2, "density {} cm^-2", 0.0)
    return math.sqrt(math.pi * _n_au(n_cm2)) * HARTREE_EV


def plasma_parameter(n_cm2: float, t_k: float) -> float:
    """Gamma = U_e / K_e with the full Fermi-Dirac kinetic energy."""
    return coulomb_energy(n_cm2) / kinetic_energy(n_cm2, t_k)


class PhaseLabel(Enum):
    CLASSICAL_COULOMB_GAS = "classical Coulomb gas"
    CLASSICAL_COULOMB_LIQUID = "classical Coulomb liquid"
    CLASSICAL_WIGNER_SOLID = "classical Wigner solid"
    QUANTUM_FERMI_GAS = "quantum Fermi gas"
    QUANTUM_FERMI_LIQUID = "quantum Fermi liquid"
    QUANTUM_WIGNER_SOLID = "quantum Wigner solid"


@dataclass(frozen=True)
class ElectronGasPoint:
    """One (n, T) point with its derived energies and plasma parameter."""

    density_cm2: float
    temperature_k: float
    fermi_energy_ev: float
    chemical_potential_ev: float
    kinetic_energy_ev: float
    coulomb_energy_ev: float
    gamma: float

    def phase(self, gamma0: float) -> PhaseLabel:
        """Quantum iff E_F >= kT (quantum on equality); solid iff Gamma >= gamma0,
        gas iff Gamma <= 1, liquid in between."""
        checked(gamma0, "gamma0 = {}", 0.0, ends="(]")
        quantum = self.fermi_energy_ev >= self.temperature_k * HARTREE_EV / HARTREE_K
        if self.gamma >= gamma0:
            return PhaseLabel.QUANTUM_WIGNER_SOLID if quantum else PhaseLabel.CLASSICAL_WIGNER_SOLID
        if self.gamma <= 1.0:
            return PhaseLabel.QUANTUM_FERMI_GAS if quantum else PhaseLabel.CLASSICAL_COULOMB_GAS
        return PhaseLabel.QUANTUM_FERMI_LIQUID if quantum else PhaseLabel.CLASSICAL_COULOMB_LIQUID


def electron_gas_point(n_cm2: float, t_k: float) -> ElectronGasPoint:
    """Energies and Gamma at (n, T), range-checking n before T; (kT, E_F) and
    eta are derived once, for both mu and K_e."""
    e_f = fermi_energy(n_cm2)
    u_e = coulomb_energy(n_cm2)
    kt, ef = _scales(n_cm2, t_k)
    eta = _eta(ef / kt)
    k_e = _kinetic(n_cm2, t_k, kt, ef, eta)
    return ElectronGasPoint(density_cm2=n_cm2, temperature_k=t_k, fermi_energy_ev=e_f,
                            chemical_potential_ev=kt * eta * HARTREE_EV,
                            kinetic_energy_ev=k_e, coulomb_energy_ev=u_e, gamma=u_e / k_e)


def classify(n_cm2: float, t_k: float, gamma0: float = DEFAULT_GAMMA0) -> PhaseLabel:
    """Phase of the 2D electron system at (n, T): `ElectronGasPoint.phase`."""
    return electron_gas_point(n_cm2, t_k).phase(gamma0)


def quantum_critical_density(gamma0: float) -> float:
    """Degenerate-limit melting density n* = 4 e^4 m_e^2/(pi hbar^4 gamma0^2), cm^-2."""
    checked(gamma0, "gamma0 = {}", 0.0, ends="(]")
    return checked(4.0 / math.pi / gamma0 / gamma0 / _AB2_CM2,
                   f"the quantum melting density for gamma0 = {gamma0:g}", NORMAL)


def _bisect_log_n(t_k: float, gamma0: float, ln_below: float, ln_above: float) -> float:
    """Root of Gamma(n, T) = gamma0 on log n, between a density where Gamma is
    below gamma0 and one where it is above."""
    a, b = ln_below, ln_above
    while abs(b - a) > _ROOT_RTOL:  # log-space interval ~ relative tolerance in n
        m = 0.5 * (a + b)
        fm = plasma_parameter(math.exp(m), t_k) - gamma0
        if fm == 0.0:
            return math.exp(m)
        if fm < 0.0:
            a = m
        else:
            b = m
    return math.exp(0.5 * (a + b))


def melting_roots(gamma0: float, t_k: float) -> tuple[float, float] | None:
    """The two melting densities (n_c1, n_c2) at T, or None above the dome,
    where g0 = gamma0 sqrt(kT) exceeds G_MAX (T > T_c; no Gamma is evaluated).

    Each root is bisected on its own side of the peak n = X_PEAK kT/pi, from
    a bracket end where Gamma <= gamma0/sqrt(10): g(x) lies below its limits
    sqrt(x) (classical) and 2/sqrt(x) (degenerate), which equal g0/sqrt(10)
    at x = g0^2/10 and x = 40/g0^2, a tenth of the classical root and 10 n*.
    """
    checked(gamma0, "gamma0 = {}", 0.0, ends="(]")
    checked(t_k, "temperature {} K", 0.0, ends="(]")
    kt = _kt_au(t_k)
    n_peak = checked(_n_cm2(X_PEAK, kt), f"the peak density at {t_k:g} K", NORMAL)
    g0 = gamma0 * math.sqrt(kt)
    if g0 > G_MAX:
        return None
    if g0 == G_MAX:
        return n_peak, n_peak
    where = f"the melting-root bracket for gamma0 = {gamma0:g} at temperature {t_k:g} K"
    lo = checked(_n_cm2(g0 * g0 / 10.0, kt), where, NORMAL)
    hi = checked(_n_cm2(40.0 / (g0 * g0), kt), where, NORMAL)
    ln_peak = math.log(n_peak)
    return (_bisect_log_n(t_k, gamma0, math.log(lo), ln_peak),
            _bisect_log_n(t_k, gamma0, math.log(hi), ln_peak))


@dataclass(frozen=True)
class CriticalSummary:
    t_c_k: float
    n_c_cm2: float
    n_star_cm2: float


@dataclass(frozen=True)
class MeltingCurve:
    gamma0: float
    temperatures_k: tuple[float, ...]
    n_c1_cm2: tuple[float | None, ...]
    n_c2_cm2: tuple[float | None, ...]
    critical: CriticalSummary


def critical_point(gamma0: float) -> tuple[float, float]:
    """Dome apex (T_c in K, n_c in cm^-2): the T where the peak of Gamma is gamma0."""
    checked(gamma0, "gamma0 = {}", 0.0, ends="(]")
    ratio = G_MAX / gamma0
    kt_c = checked(ratio * ratio, f"the dome apex for gamma0 = {gamma0:g}", NORMAL)
    n_c = checked(_n_cm2(X_PEAK, kt_c), f"the apex density for gamma0 = {gamma0:g}", NORMAL)
    return kt_c * HARTREE_K, n_c


def melting_curve(gamma0: float, temperatures_k: "list[float]") -> MeltingCurve:
    """Melting densities over a temperature grid plus the critical summary.

    Temperatures must be positive and ascending, at most MAX_CURVE_POINTS of
    them.  Entries above T_c carry None for both densities.
    """
    checked(len(temperatures_k), "a curve of {} temperatures", 1, MAX_CURVE_POINTS)
    temps = [float(t) for t in temperatures_k]
    for low, t in zip([0.0] + temps, temps):
        checked(t, "temperature {} K of the ascending grid", low, ends="(]")
    n1: list[float | None] = []
    n2: list[float | None] = []
    for t in temps:
        roots = melting_roots(gamma0, t)
        if roots is None:
            n1.append(None)
            n2.append(None)
        else:
            n1.append(roots[0])
            n2.append(roots[1])
    t_c, n_c = critical_point(gamma0)
    summary = CriticalSummary(t_c, n_c, quantum_critical_density(gamma0))
    return MeltingCurve(gamma0, tuple(temps), tuple(n1), tuple(n2), summary)

