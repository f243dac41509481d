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

Melting: Gamma(n, T) at fixed T rises like sqrt(n) in the classical
regime and falls like 1/sqrt(n) in the degenerate regime, so
Gamma = Gamma_0 has zero or two roots n_c1(T) < n_c2(T).  The dome apex
(T_c, n_c) is the largest T where a solution exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .units import BOHR_CM, HARTREE_EV, HARTREE_K

_AB2_CM2 = BOHR_CM**2          # cm^2 per Bohr-radius^2

DEFAULT_GAMMA0 = 127.0         # classical-melting threshold (Monte Carlo)

_QUAD_RTOL = 1e-8              # contract tolerance for the kinetic integral


class ConvergenceError(RuntimeError):
    """Raised when quadrature or root bracketing fails to converge."""


def _n_au(n_cm2: float) -> float:
    return n_cm2 * _AB2_CM2


def _kt_au(t_k: float) -> float:
    return t_k / HARTREE_K


def fermi_energy(n_cm2: float) -> float:
    """2D Fermi energy pi*hbar^2*n/m_e in eV (spin degeneracy 2 included)."""
    if n_cm2 < 0:
        raise ValueError("density must be >= 0")
    return math.pi * _n_au(n_cm2) * HARTREE_EV


def _eta(x: float) -> float:
    """Reduced chemical potential mu/kT of the 2D gas from x = E_F/kT.

    eta = ln(exp(x) - 1), evaluated in overflow-safe form for x up to 1e6+.
    """
    if x > 30.0:
        return x + math.log1p(-math.exp(-x))
    return math.log(math.expm1(x))


def chemical_potential(n_cm2: float, t_k: float) -> float:
    """Chemical potential kT*ln(exp(E_F/kT) - 1) in eV."""
    if not n_cm2 > 0 or not t_k > 0:
        raise ValueError("density and temperature must be > 0")
    kt = _kt_au(t_k)
    ef = math.pi * _n_au(n_cm2)
    return kt * _eta(ef / kt) * HARTREE_EV


def _f1(eta: float) -> float:
    """First-order Fermi-Dirac integral: int_0^inf x/(exp(x-eta)+1) dx.

    For eta > 0 the exact reflection F1(eta) = eta^2/2 + pi^2/6 - F1(-eta)
    is used, so quadrature only ever sees the classical side eta <= 0,
    where the integrand x*expit(eta - x) is smooth and below 1e-20 relative
    beyond x = 50.  Integrating the Fermi step at x = eta directly loses it
    between quadrature nodes once eta is in the thousands, with an error
    estimate that does not show it.
    """
    # imported here so that commands which never evaluate Gamma skip loading scipy
    from scipy.integrate import quad
    from scipy.special import expit

    classical = -abs(eta)
    val, err = quad(lambda x: x * expit(classical - x), 0.0, 50.0,
                    limit=200, epsabs=0.0, epsrel=1e-11)
    if eta > 0.0:
        val = 0.5 * eta * eta + math.pi**2 / 6.0 - val
    if err > _QUAD_RTOL * abs(val):
        raise ConvergenceError(
            f"kinetic-energy quadrature reached {err / abs(val):.1e} relative, "
            f"requested {_QUAD_RTOL:.0e}"
        )
    return val


def kinetic_energy(n_cm2: float, t_k: float) -> float:
    """Mean kinetic energy per electron of the 2D Fermi gas, in eV."""
    if not n_cm2 > 0 or not t_k > 0:
        raise ValueError("density and temperature must be > 0")
    kt = _kt_au(t_k)
    ef = math.pi * _n_au(n_cm2)
    return kt * kt / ef * _f1(_eta(ef / kt)) * HARTREE_EV


def coulomb_energy(n_cm2: float) -> float:
    """Mean Coulomb energy per electron e^2*sqrt(pi*n) in eV."""
    if n_cm2 < 0:
        raise ValueError("density must be >= 0")
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


def electron_gas_point(n_cm2: float, t_k: float) -> ElectronGasPoint:
    k_e = kinetic_energy(n_cm2, t_k)
    u_e = coulomb_energy(n_cm2)
    return ElectronGasPoint(
        density_cm2=n_cm2,
        temperature_k=t_k,
        fermi_energy_ev=fermi_energy(n_cm2),
        chemical_potential_ev=chemical_potential(n_cm2, t_k),
        kinetic_energy_ev=k_e,
        coulomb_energy_ev=u_e,
        gamma=u_e / k_e,
    )


def classify(n_cm2: float, t_k: float, gamma0: float = DEFAULT_GAMMA0) -> PhaseLabel:
    """Phase of the 2D electron system at (n, T).

    Quantum iff E_F >= kT (quantum on equality); solid iff Gamma >= gamma0,
    gas iff Gamma <= 1, liquid in between.
    """
    if not gamma0 > 0:
        raise ValueError("gamma0 must be > 0")
    quantum = fermi_energy(n_cm2) >= t_k * HARTREE_EV / HARTREE_K
    gamma = plasma_parameter(n_cm2, t_k)
    if gamma >= gamma0:
        return PhaseLabel.QUANTUM_WIGNER_SOLID if quantum else PhaseLabel.CLASSICAL_WIGNER_SOLID
    if gamma <= 1.0:
        return PhaseLabel.QUANTUM_FERMI_GAS if quantum else PhaseLabel.CLASSICAL_COULOMB_GAS
    return PhaseLabel.QUANTUM_FERMI_LIQUID if quantum else PhaseLabel.CLASSICAL_COULOMB_LIQUID


def quantum_critical_density(gamma0: float) -> float:
    """Degenerate-limit melting density n* = 4 e^4 m_e^2/(pi hbar^4 gamma0^2), cm^-2."""
    if not gamma0 > 0:
        raise ValueError("gamma0 must be > 0")
    return 4.0 / (math.pi * gamma0**2) / _AB2_CM2


def _classical_root_cm2(gamma0: float, t_k: float) -> float:
    """Classical-limit melting density (Gamma_cl = gamma0), used as a bracket seed."""
    return (gamma0 * _kt_au(t_k)) ** 2 / math.pi / _AB2_CM2


def _gamma_peak(gamma0: float, t_k: float) -> tuple[float, float]:
    """(max over n of Gamma(n, T), argmax n in cm^-2), searched on log n."""
    from scipy.optimize import minimize_scalar

    lo = math.log(_classical_root_cm2(gamma0, t_k) / 10.0)
    hi = math.log(quantum_critical_density(gamma0) * 10.0)
    res = minimize_scalar(lambda ln: -plasma_parameter(math.exp(ln), t_k),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10})
    return -float(res.fun), math.exp(float(res.x))


def _bisect_log_n(t_k: float, gamma0: float, ln_a: float, ln_b: float,
                  rtol: float = 1e-4) -> float:
    """Root of Gamma(n, T) = gamma0 on log n; endpoints must straddle it."""
    fa = plasma_parameter(math.exp(ln_a), t_k) - gamma0
    fb = plasma_parameter(math.exp(ln_b), t_k) - gamma0
    if fa == 0.0:
        return math.exp(ln_a)
    if fb == 0.0:
        return math.exp(ln_b)
    if (fa > 0.0) == (fb > 0.0):
        raise ConvergenceError(
            f"no sign change for Gamma = {gamma0:g} at T = {t_k:g} K in "
            f"[{math.exp(ln_a):.3e}, {math.exp(ln_b):.3e}] cm^-2"
        )
    a, b = ln_a, ln_b
    while abs(b - a) > rtol:       # log-space interval ~ relative tolerance in n
        m = 0.5 * (a + b)
        fm = plasma_parameter(math.exp(m), t_k) - gamma0
        if fm == 0.0:
            return math.exp(m)
        if (fm > 0.0) == (fa > 0.0):
            a, fa = m, fm
        else:
            b = m
    return math.exp(0.5 * (a + b))


def melting_roots(gamma0: float, t_k: float) -> tuple[float, float] | None:
    """The two melting densities (n_c1, n_c2) at T, or None above the dome."""
    if not gamma0 > 0 or not t_k > 0:
        raise ValueError("gamma0 and T must be > 0")
    peak, n_peak = _gamma_peak(gamma0, t_k)
    if peak < gamma0:
        return None
    lo = math.log(_classical_root_cm2(gamma0, t_k) / 10.0)
    hi = math.log(quantum_critical_density(gamma0) * 10.0)
    ln_peak = math.log(n_peak)
    return (_bisect_log_n(t_k, gamma0, lo, ln_peak),
            _bisect_log_n(t_k, gamma0, hi, ln_peak))


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


def critical_point(gamma0: float, rtol: float = 1e-3) -> tuple[float, float]:
    """Dome apex (T_c in K, n_c in cm^-2): the largest T with a melting solution.

    Bisection on T over max_n Gamma(n, T) - gamma0; the maximum of Gamma
    falls monotonically with T, so an expanded bracket always closes.
    """
    if not gamma0 > 0:
        raise ValueError("gamma0 must be > 0")
    t_lo = t_hi = 1.0
    while _gamma_peak(gamma0, t_hi)[0] > gamma0:
        t_hi *= 2.0
        if t_hi > 1e6:
            raise ConvergenceError("no upper temperature bound found for the dome apex")
    while _gamma_peak(gamma0, t_lo)[0] <= gamma0:
        t_lo /= 2.0
        if t_lo < 1e-6:
            raise ConvergenceError("no lower temperature bound found for the dome apex")
    while (t_hi - t_lo) > rtol * t_hi:
        tm = 0.5 * (t_lo + t_hi)
        if _gamma_peak(gamma0, tm)[0] > gamma0:
            t_lo = tm
        else:
            t_hi = tm
    t_c = 0.5 * (t_lo + t_hi)
    return t_c, _gamma_peak(gamma0, t_lo)[1]


def melting_curve(gamma0: float, temperatures_k: "list[float]") -> MeltingCurve:
    """Melting densities over a temperature grid plus the critical summary.

    Temperatures must be positive and ascending.  Entries above T_c carry
    None for both densities.
    """
    temps = [float(t) for t in temperatures_k]
    if not temps or any(t <= 0 for t in temps):
        raise ValueError("temperature grid must be positive")
    if any(b <= a for a, b in zip(temps, temps[1:])):
        raise ValueError("temperature grid must be strictly ascending")
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


def render_curve_csv(curve: MeltingCurve) -> str:
    """CSV export: header row, one row per T, then a '#' summary line."""
    lines = ["T_K,n_c1_cm2,n_c2_cm2"]
    for t, a, b in zip(curve.temperatures_k, curve.n_c1_cm2, curve.n_c2_cm2):
        ca = "" if a is None else f"{a:.6e}"
        cb = "" if b is None else f"{b:.6e}"
        lines.append(f"{t:.6e},{ca},{cb}")
    c = curve.critical
    lines.append(f"# T_c_K={c.t_c_k:.6e} n_c_cm2={c.n_c_cm2:.6e} n_star_cm2={c.n_star_cm2:.6e}")
    return "\n".join(lines) + "\n"


def curve_as_dict(curve: MeltingCurve) -> dict:
    """JSON mirror of the CSV export (same values at the same precision)."""
    rows = []
    for t, a, b in zip(curve.temperatures_k, curve.n_c1_cm2, curve.n_c2_cm2):
        rows.append({
            "T_K": float(f"{t:.6e}"),
            "n_c1_cm2": None if a is None else float(f"{a:.6e}"),
            "n_c2_cm2": None if b is None else float(f"{b:.6e}"),
        })
    c = curve.critical
    return {
        "gamma0": curve.gamma0,
        "rows": rows,
        "critical": {
            "T_c_K": float(f"{c.t_c_k:.6e}"),
            "n_c_cm2": float(f"{c.n_c_cm2:.6e}"),
            "n_star_cm2": float(f"{c.n_star_cm2:.6e}"),
        },
    }
