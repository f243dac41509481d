"""Circuit-QED design estimators for a trapped surface electron.

Frequencies are accepted as ordinary (Hz-family) frequencies everywhere;
the spin-coupling formula needs angular frequencies internally and the
2*pi factors are applied there, once.  The electron g-factor is taken as
exactly 2 (the 2*mu_B convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .units import (
    BOHR_MAGNETON_J_PER_T,
    ELECTRON_MASS_KG,
    HBAR_J_S,
    PLANCK_J_S,
    checked,
)


@dataclass(frozen=True)
class SpinCouplingInput:
    """Inputs for the gradient-mediated spin-photon coupling estimate.

    grad_bz_t_per_m is the in-plane gradient of the out-of-plane field
    (1 mG/nm = 100 T/m); mass_ratio rescales the effective electron mass.
    """

    g_charge_mhz: float
    f_charge_ghz: float
    f_larmor_ghz: float
    grad_bz_t_per_m: float
    mass_ratio: float = 1.0

    def __post_init__(self):
        checked(self.g_charge_mhz, "charge coupling g = {} MHz", 0.0)
        checked(self.f_charge_ghz, "charge frequency {} GHz", 0.0, ends="(]")
        checked(self.f_larmor_ghz, "Larmor frequency {} GHz", 0.0)
        checked(self.grad_bz_t_per_m, "field gradient {} T/m")
        checked(self.mass_ratio, "mass ratio {}", 0.0, ends="(]")


@dataclass(frozen=True)
class CouplingBudget:
    g_mhz: float
    kappa_mhz: float
    gamma_mhz: float

    def __post_init__(self):
        checked(self.g_mhz, "coupling g = {} MHz", 0.0)
        checked(self.kappa_mhz, "resonator decay kappa = {} MHz", 0.0)
        checked(self.gamma_mhz, "qubit linewidth gamma = {} MHz", 0.0)


@dataclass(frozen=True)
class StrongCouplingResult:
    strong: bool
    margin_mhz: float


def spin_coupling(inp: SpinCouplingInput) -> float:
    """Effective spin-photon coupling |g_s| in MHz.

    g_s = mu_B a_x (dBz/dx) g sqrt(2) / [hbar w_x (1 - w_L^2/w_x^2)] with
    w_x = 2 pi f_charge, a_x = sqrt(hbar / m w_x).  The magnitude is
    returned; the bare expression changes sign with the detuning side.
    Invalid on resonance (f_larmor = f_charge), where the perturbative
    expression has a pole.  Every division is by a nonzero number, so an
    extreme input overflows to a value that `checked` rejects.
    """
    f_x, f_l = inp.f_charge_ghz, inp.f_larmor_ghz
    if f_l == f_x:
        raise ValueError("Larmor and charge frequencies coincide: the "
                         "detuned-coupling formula has a pole on resonance")
    omega_x = 2.0 * math.pi * f_x * 1e9
    a_x = math.sqrt(HBAR_J_S / ELECTRON_MASS_KG / inp.mass_ratio / omega_x)
    lever = BOHR_MAGNETON_J_PER_T * a_x * inp.grad_bz_t_per_m / HBAR_J_S / omega_x
    detuning = (f_x - f_l) / f_x * ((f_x + f_l) / f_x)       # 1 - (f_L/f_x)^2
    g_s = abs(lever * inp.g_charge_mhz * math.sqrt(2.0) / detuning)
    return checked(g_s, "spin coupling g_s = {} MHz", 0.0)


def image_charge_delta(dz_nm: float, d_nm: float) -> float:
    """Image-charge change from a vertical shift dz between plates a
    distance D apart: delta q / e = dz / D (parallel-plate model)."""
    checked(dz_nm, "height change {} nm", 0.0)
    checked(d_nm, "plate distance {} nm", 0.0, ends="(]")
    return checked(dz_nm / d_nm, "image-charge change delta q / e = {}", 0.0)


def larmor(b_t: float) -> float:
    """Electron Larmor frequency f_L = 2 mu_B B / h in GHz (g = 2)."""
    checked(b_t, "magnetic field {} T", 0.0)
    return checked(2.0 * BOHR_MAGNETON_J_PER_T * b_t / PLANCK_J_S / 1e9,
                   "Larmor frequency {} GHz", 0.0)


def strong_coupling(budget: CouplingBudget) -> StrongCouplingResult:
    """Strict strong-coupling test g > kappa and g > gamma, with margin."""
    worst = max(budget.kappa_mhz, budget.gamma_mhz)
    return StrongCouplingResult(budget.g_mhz > worst, budget.g_mhz - worst)
