import itertools
import math

import pytest

from eqls import cqed, phases, zstates
from eqls.matter import RegistryError
from eqls.units import (
    BOLTZMANN_EV_PER_K,
    NORMAL,
    PLANCK_EV_S,
    Unit,
    UnitError,
    checked,
    conversion_factor,
)

ENERGY_UNITS = [Unit.HARTREE, Unit.EV, Unit.MEV, Unit.KELVIN,
                Unit.THZ, Unit.GHZ, Unit.MHZ]
LENGTH_UNITS = [Unit.ANGSTROM, Unit.NM, Unit.BOHR]


def test_hartree_to_ev():
    assert conversion_factor(Unit.HARTREE, Unit.EV) == pytest.approx(27.211386, rel=1e-7)


def test_thermal_equivalence():
    # 10.2 K * k_B
    assert 10.2 * conversion_factor(Unit.KELVIN, Unit.EV) == pytest.approx(8.789680e-4, rel=1e-6)


def test_photon_equivalence():
    # 1 THz * h / k_B
    assert conversion_factor(Unit.THZ, Unit.KELVIN) == pytest.approx(47.99243, rel=1e-6)


def test_identity_conversion_is_exact():
    for unit in Unit:
        assert conversion_factor(unit, unit) == 1.0


@pytest.mark.parametrize("a,b", list(itertools.permutations(ENERGY_UNITS, 2)))
def test_energy_round_trip(a, b):
    assert 3.7 * conversion_factor(a, b) * conversion_factor(b, a) == pytest.approx(3.7, rel=1e-12)


@pytest.mark.parametrize("a,b", list(itertools.permutations(LENGTH_UNITS, 2)))
def test_length_round_trip(a, b):
    assert 2.5 * conversion_factor(a, b) * conversion_factor(b, a) == pytest.approx(2.5, rel=1e-12)


@pytest.mark.parametrize("a,mid,b",
                         list(itertools.permutations(ENERGY_UNITS, 3)))
def test_energy_factor_composition(a, mid, b):
    # composing any two conversions equals the direct factor
    composed = conversion_factor(a, mid) * conversion_factor(mid, b)
    assert composed == pytest.approx(conversion_factor(a, b), rel=1e-12)


def test_incompatible_dimensions_name_both_units():
    with pytest.raises(UnitError) as err:
        conversion_factor(Unit.EV, Unit.NM)
    assert "eV" in str(err.value) and "nm" in str(err.value)


def test_quantity_to_method():
    assert conversion_factor(Unit.NM, Unit.ANGSTROM) == pytest.approx(10.0)


def test_reference_rows_frequency_energy_consistent(registry):
    # published transition frequency and energy agree through h/k_B to 2%
    # (they were rounded independently)
    for surface in registry.surfaces:
        ref = surface.reference
        de_from_f = ref.f_thz * PLANCK_EV_S * 1e12 / BOLTZMANN_EV_PER_K
        assert de_from_f == pytest.approx(ref.de_k, rel=0.02), surface.name


@pytest.mark.parametrize("args, message", [
    ((-1.0, "x = {}", 0.0), "x = -1 is outside [0, inf)"),
    ((0.0, "b", 0.0, math.inf, "(]"), "b is outside (0, inf)"),
    ((2e6, "V0 = {} eV", 0.0, 1e6, "(]"), "V0 = 2000000 eV is outside (0, 1000000]"),
    ((math.nan, "field {}"), "field nan is outside (-inf, inf)"),
    ((math.inf, "field {}"), "field inf is outside (-inf, inf)"),
    ((0.0, "z", -math.inf, 0.0, "[)"), "z is outside (-inf, 0)"),
    ((10**400, "{} levels", 1, 1 << 20), f"{10**400} levels is outside [1, 1048576]"),
    ((1e-310, "the apex", NORMAL), "the apex is outside the double-precision range"),
], ids=["below", "open-low", "cap", "nan", "inf", "open-high", "huge-int", "normal"])
def test_checked_names_the_input_and_its_range(args, message):
    with pytest.raises(ValueError) as err:
        checked(*args)
    assert str(err.value) == message


def test_checked_returns_values_in_range_and_raises_the_given_class():
    assert checked(1e6, "V0", 0.0, 1e6, "(]") == 1e6
    assert checked(3, "points", 3, 3) == 3
    assert checked(-1e308, "field") == -1e308
    with pytest.raises(RegistryError):
        checked(math.inf, "barrier_V0_eV", 0.0, error=RegistryError)


NAN = math.nan


@pytest.mark.parametrize("call", [
    lambda: cqed.CouplingBudget(NAN, 0.0, 0.0),
    lambda: cqed.SpinCouplingInput(20.0, 6.0, NAN, 800.0),
    lambda: cqed.image_charge_delta(NAN, 1.0),
    lambda: cqed.larmor(NAN),
    lambda: zstates.RegularizedImage(math.inf, 1.05, 0.5),
    lambda: zstates.RegularizedImage(zstates.INFINITE_BARRIER_EV * (1 + 1e-15), 1.05, 0.5),
    lambda: zstates.Interface(NAN, NAN, 1.2, 1.0),
    lambda: zstates.InfiniteBarrierImage(1.0),
    lambda: zstates.GridSpec(-1e308, 1e308, 3),
    lambda: zstates.RegularizedImage(1.0, 1.05, 10**400),
    lambda: zstates.hydrogenic_charge(10**400),
    lambda: zstates.richardson_energies(zstates.InfiniteBarrierImage(1.5),
                                        zstates.surface_grid(-20.0, 300.0, 1.6), state=-1),
    lambda: zstates.richardson_energies(zstates.InfiniteBarrierImage(1.5),
                                        zstates.surface_grid(-20.0, 300.0, 1.6), halvings=-1),
    lambda: phases.fermi_energy(NAN),
    lambda: phases.melting_curve(127.0, [1.0] * (phases.MAX_CURVE_POINTS + 1)),
    lambda: phases.electron_gas_point(1e9, 1.0).phase(NAN),
    lambda: phases.electron_gas_point(1e9, 1.0).phase(0.0),
    lambda: phases.electron_gas_point(1e9, 1.0).phase(-5.0),
    lambda: phases.electron_gas_point(1e9, 1.0).phase(math.inf),
], ids=["budget", "spin-input", "imagecharge", "larmor", "v0-inf", "v0-cap", "interface",
        "no-image", "grid-spacing", "huge-int-cutoff", "huge-int-eps", "richardson-state",
        "richardson-halvings", "fermi", "curve-cap", "phase-gamma0-nan", "phase-gamma0-zero",
        "phase-gamma0-negative", "phase-gamma0-inf"])
def test_library_entry_points_refuse_out_of_range_values(call):
    with pytest.raises(ValueError, match=" is outside "):
        call()
