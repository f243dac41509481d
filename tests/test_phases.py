import csv
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqls import units
from eqls.phases import (
    G_MAX,
    X_PEAK,
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
from eqls.units import BOLTZMANN_EV_PER_K, HARTREE_EV, HARTREE_K

BOHR_CM = 0.529177210903e-8

# density (cm^-2) whose Fermi energy equals k_B * 1 K
N_AT_EF_EQ_KT = 1.0 / HARTREE_K / math.pi / BOHR_CM**2

GOLDEN = Path(__file__).parent / "golden" / "phase_diagram_gamma127.csv"

ROOT_RTOL = 1e-4    # the melting roots' bisection tolerance on n


def gamma_mpmath(n_cm2: float, t_k: float) -> mpmath.mpf:
    """Gamma = E_F^(3/2) / (kT^2 F1) in Hartree units, F1 = -Li2(1 - e^(E_F/kT))."""
    with mpmath.workdps(30):
        kt = mpmath.mpf(t_k) / HARTREE_K
        ef = mpmath.pi * n_cm2 * mpmath.mpf(BOHR_CM) ** 2
        return ef**1.5 / (kt**2 * -mpmath.polylog(2, -mpmath.expm1(ef / kt)))


def apex_mpmath(gamma0: float) -> tuple[float, float, float, float]:
    """(x*, g_max, T_c in K, n_c in cm^-2): the maximum of g(x) = x^(3/2)/F1 and its dome apex."""
    with mpmath.workdps(30):
        def g(x):
            return x**1.5 / -mpmath.polylog(2, -mpmath.expm1(x))
        x_star = mpmath.findroot(lambda x: mpmath.diff(g, x), 2.3)
        kt_c = (g(x_star) / gamma0) ** 2
        return (float(x_star), float(g(x_star)), float(kt_c * HARTREE_K),
                float(x_star * kt_c / mpmath.pi / mpmath.mpf(BOHR_CM) ** 2))


def n_for_ratio(ratio: float, t_k: float = 1.0) -> float:
    """Density with E_F / k_B T = ratio."""
    return ratio * t_k * N_AT_EF_EQ_KT


class TestFermiEnergy:
    def test_zero_density(self):
        assert fermi_energy(0.0) == 0.0

    def test_linear_in_density(self):
        assert fermi_energy(2e11) == pytest.approx(2 * fermi_energy(1e11), rel=1e-12)

    def test_quantum_melting_scale(self):
        # at n = 2.8e12 cm^-2 the Fermi energy is ~78 K
        ef = fermi_energy(2.8e12)
        assert ef == pytest.approx(6.7029e-3, rel=1e-4)
        assert ef / BOLTZMANN_EV_PER_K == pytest.approx(77.78, rel=1e-3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fermi_energy(-1.0)


class TestChemicalPotential:
    def test_degenerate_limit(self):
        n = n_for_ratio(1e3)
        assert chemical_potential(n, 1.0) == pytest.approx(fermi_energy(n), rel=1e-6)

    def test_midpoint_value(self):
        # at E_F = kT: mu = kT ln(e - 1)
        n = n_for_ratio(1.0)
        kt = BOLTZMANN_EV_PER_K
        assert chemical_potential(n, 1.0) == pytest.approx(
            kt * math.log(math.e - 1.0), rel=1e-9)

    def test_classical_limit_goes_negative(self):
        n = n_for_ratio(1e-3)
        mu = chemical_potential(n, 1.0)
        assert mu < 0
        assert mu == pytest.approx(
            BOLTZMANN_EV_PER_K * math.log(math.expm1(1e-3)), rel=1e-9)

    def test_overflow_safe_at_extreme_degeneracy(self):
        n = n_for_ratio(1e6)
        mu = chemical_potential(n, 1.0)
        assert math.isfinite(mu)
        assert mu == pytest.approx(fermi_energy(n), rel=1e-9)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            chemical_potential(0.0, 1.0)
        with pytest.raises(ValueError):
            chemical_potential(1e9, 0.0)


class TestKineticEnergy:
    def test_classical_limit(self):
        k = kinetic_energy(n_for_ratio(1e-3), 1.0)
        assert abs(k / BOLTZMANN_EV_PER_K - 1.0) < 1e-3

    def test_degenerate_limit(self):
        n = n_for_ratio(1e3)
        assert abs(kinetic_energy(n, 1.0) / (fermi_energy(n) / 2) - 1.0) < 1e-3

    @pytest.mark.parametrize("ratio", [3e-308, 1e-306, 1e-300, 1.0, 1e4, 3e4, 1e5])
    def test_midpoint_dilogarithm_closed_form(self, ratio):
        # K_e = (kT)^2/E_F * (-Li2(-e^(mu/kT))) with e^(mu/kT) = e^(E_F/kT) - 1;
        # at E_F = kT the argument is -(e - 1).  expm1 keeps the tiny ratios,
        # where 1 - exp rounds to 0.
        n = n_for_ratio(ratio)
        li2 = -mpmath.polylog(2, -mpmath.expm1(ratio))
        expected = float(li2 / ratio) * BOLTZMANN_EV_PER_K
        assert kinetic_energy(n, 1.0) == pytest.approx(expected, rel=1e-9)
        assert float(-mpmath.polylog(2, 1 - mpmath.e)) == pytest.approx(1.2775046, rel=1e-6)

    @pytest.mark.parametrize("t_k", [0.1, 1.0, 5.0, 20.0])
    def test_monotonic_in_density(self, t_k):
        ns = np.logspace(8, 13, 24)
        ks = [kinetic_energy(n, t_k) for n in ns]
        assert all(b > a for a, b in zip(ks, ks[1:]))

    @pytest.mark.parametrize("n", [1e8, 1e10, 1e12])
    def test_monotonic_in_temperature(self, n):
        ts = np.logspace(-1, 2, 16)
        ks = [kinetic_energy(n, t) for t in ts]
        assert all(b > a for a, b in zip(ks, ks[1:]))

    def test_bounded_by_limits(self):
        for n in np.logspace(8, 13, 12):
            for t in (0.1, 1.0, 5.0, 20.0):
                k = kinetic_energy(n, t)
                kt = t * BOLTZMANN_EV_PER_K
                assert kt <= k <= kt + fermi_energy(n) / 2 * (1 + 1e-3)


class TestCoulombEnergy:
    def test_zero_density(self):
        assert coulomb_energy(0.0) == 0.0

    def test_square_root_scaling(self):
        assert coulomb_energy(4e9) == pytest.approx(2 * coulomb_energy(1e9), rel=1e-12)

    def test_reference_value(self):
        assert coulomb_energy(1e9) == pytest.approx(8.0710e-3, rel=1e-4)


class TestPlasmaParameter:
    def test_classical_regime_matches_coulomb_over_kt(self):
        n = n_for_ratio(1e-3)
        classical = coulomb_energy(n) / BOLTZMANN_EV_PER_K
        assert plasma_parameter(n, 1.0) == pytest.approx(classical, rel=2e-3)

    def test_quantum_regime_matches_2rs(self):
        n = n_for_ratio(1e3)
        r_s = HARTREE_EV / coulomb_energy(n)   # r_e/a_B = 1/sqrt(pi n a_B^2)
        assert plasma_parameter(n, 1.0) == pytest.approx(2 * r_s, rel=2e-3)

    def test_reference_point(self):
        assert plasma_parameter(1e9, 1.0) == pytest.approx(93.012, rel=1e-3)

    def test_decreasing_in_temperature(self):
        gammas = [plasma_parameter(1e9, t) for t in (0.3, 1.0, 3.0, 10.0)]
        assert all(b < a for a, b in zip(gammas, gammas[1:]))

    def test_gas_point_bundles_consistent_values(self):
        p = electron_gas_point(1e9, 1.0)
        assert p.gamma == pytest.approx(p.coulomb_energy_ev / p.kinetic_energy_ev)
        assert p.fermi_energy_ev == fermi_energy(1e9)


class TestClassify:
    def test_classical_coulomb_liquid(self):
        assert classify(1e9, 1.0, 127.0) is PhaseLabel.CLASSICAL_COULOMB_LIQUID

    def test_classical_wigner_solid(self):
        assert classify(1e8, 0.1, 127.0) is PhaseLabel.CLASSICAL_WIGNER_SOLID

    def test_classical_coulomb_gas(self):
        assert classify(1e4, 1.0, 127.0) is PhaseLabel.CLASSICAL_COULOMB_GAS

    def test_quantum_fermi_liquid(self):
        assert classify(1e13, 1.0, 127.0) is PhaseLabel.QUANTUM_FERMI_LIQUID

    def test_quantum_wigner_solid(self):
        assert classify(1e12, 1.0, 127.0) is PhaseLabel.QUANTUM_WIGNER_SOLID

    def test_quantum_classical_boundary_sits_at_fermi_equals_thermal(self):
        # at E_F ~ kT the system is strongly coupled (Gamma >> gamma0), so
        # the label flips between the two Wigner solids across the boundary
        assert classify(n_for_ratio(1.0 + 1e-6), 1.0, 127.0) is \
            PhaseLabel.QUANTUM_WIGNER_SOLID
        assert classify(n_for_ratio(1.0 - 1e-6), 1.0, 127.0) is \
            PhaseLabel.CLASSICAL_WIGNER_SOLID

    def test_rejects_bad_gamma0(self):
        with pytest.raises(ValueError):
            classify(1e9, 1.0, 0.0)


class TestQuantumCriticalDensity:
    def test_standard_threshold(self):
        assert quantum_critical_density(127.0) == pytest.approx(2.8e12, rel=0.02)

    def test_quantum_melting_threshold(self):
        assert quantum_critical_density(72.0) == pytest.approx(8.771e12, rel=1e-3)

    @pytest.mark.parametrize("g0", [10.0, 72.0, 127.0, 500.0])
    def test_scaling_invariant(self, g0):
        assert quantum_critical_density(g0) * g0**2 == pytest.approx(
            quantum_critical_density(127.0) * 127.0**2, rel=1e-12)


class TestMeltingRoots:
    def test_two_roots_at_one_kelvin(self):
        roots = melting_roots(127.0, 1.0)
        assert roots is not None
        assert roots[0] == pytest.approx(1.8875e9, rel=1e-3)
        assert roots[1] == pytest.approx(2.8160e12, rel=1e-3)

    def test_no_roots_above_dome(self):
        assert melting_roots(127.0, 20.0) is None

    def test_peak_exactly_at_threshold_is_a_double_root(self):
        n_peak = X_PEAK * (5.0 / HARTREE_K) / math.pi / units.BOHR_CM**2
        gamma0 = plasma_parameter(n_peak, 5.0)
        assert melting_roots(gamma0, 5.0) == (n_peak, n_peak)

    def test_upper_root_approaches_quantum_limit(self):
        roots = melting_roots(127.0, 0.05)
        assert roots[1] == pytest.approx(quantum_critical_density(127.0), rel=1e-3)


class TestCriticalPoint:
    def test_standard_dome_apex(self):
        t_c, n_c = critical_point(127.0)
        assert t_c == pytest.approx(15.32, abs=0.1)
        assert n_c == pytest.approx(1.30e12, rel=0.02)

    def test_smaller_threshold_grows_the_dome(self):
        t_c_soft, _ = critical_point(72.0)
        t_c_hard, _ = critical_point(127.0)
        assert t_c_soft > t_c_hard

    def test_apex_density_inside_zero_t_roots(self):
        t_c, n_c = critical_point(127.0)
        assert 0.0 < n_c < quantum_critical_density(127.0)

    def test_peak_constants_match_mpmath(self):
        x_star, g_max, _, _ = apex_mpmath(127.0)
        assert X_PEAK == pytest.approx(x_star, rel=1e-15)
        assert G_MAX == pytest.approx(g_max, rel=1e-15)

    @pytest.mark.parametrize("gamma0, t_c_k, n_c_cm2", [
        (127.0, 15.3167760615, 1.299604574e12),
        (72.0, 47.6551468164, 4.043464926e12),
    ])
    def test_apex_matches_mpmath(self, gamma0, t_c_k, n_c_cm2):
        _, _, t_ref, n_ref = apex_mpmath(gamma0)
        assert (t_ref, n_ref) == pytest.approx((t_c_k, n_c_cm2), rel=1e-9)
        assert critical_point(gamma0) == pytest.approx((t_ref, n_ref), rel=1e-9)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(gamma0=st.floats(0.0, 4.0).map(lambda e: 10.0**e))
    def test_dome_closes_exactly_at_the_apex(self, gamma0):
        t_c, _ = critical_point(gamma0)
        assert t_c * gamma0**2 == pytest.approx(G_MAX**2 * HARTREE_K, rel=1e-12)
        assert melting_roots(gamma0, t_c * (1 + 1e-9)) is None
        below = melting_roots(gamma0, t_c * (1 - 1e-9))
        assert below is not None and below[0] < below[1]


class TestGolden:
    def test_roots_and_apex_match_mpmath(self):
        *table, summary = GOLDEN.read_text().splitlines()
        _, _, t_c, n_c = apex_mpmath(127.0)
        roots = 0
        for row in csv.DictReader(table):
            t = float(row["T_K"])
            cells = [row["n_c1_cm2"], row["n_c2_cm2"]]
            assert all(cells) == (t < t_c) and any(cells) == (t < t_c)
            for cell in filter(None, cells):
                # the exact root lies within ROOT_RTOL of the printed one
                n = float(cell)
                below = gamma_mpmath(n * (1 - ROOT_RTOL), t) - 127
                above = gamma_mpmath(n * (1 + ROOT_RTOL), t) - 127
                assert below * above < 0, (t, n)
                roots += 1
        assert roots == 60
        crit = {k: float(v) for k, v in (kv.split("=") for kv in summary[2:].split())}
        n_star = 4 / (math.pi * 127.0**2) / BOHR_CM**2
        assert (crit["T_c_K"], crit["n_c_cm2"], crit["n_star_cm2"]) == pytest.approx(
            (t_c, n_c, n_star), rel=1e-6)


@pytest.fixture(scope="module")
def dome_curve():
    return melting_curve(127.0, [1.0, 4.0, 8.0, 12.0, 15.0, 16.0, 20.0])


class TestMeltingCurve:
    @pytest.fixture
    def curve(self, dome_curve):
        return dome_curve

    def test_roots_only_below_critical_temperature(self, curve):
        t_c = curve.critical.t_c_k
        for t, a, b in zip(curve.temperatures_k, curve.n_c1_cm2, curve.n_c2_cm2):
            if t < t_c:
                assert a is not None and b is not None and a < b
            else:
                assert a is None and b is None

    def test_branch_monotonicity(self, curve):
        n1 = [a for a in curve.n_c1_cm2 if a is not None]
        n2 = [b for b in curve.n_c2_cm2 if b is not None]
        assert all(y > x for x, y in zip(n1, n1[1:]))
        assert all(y < x for x, y in zip(n2, n2[1:]))

    def test_classify_consistency_inside_and_outside_dome(self, curve):
        for t, a, b in zip(curve.temperatures_k, curve.n_c1_cm2, curve.n_c2_cm2):
            if a is None:
                continue
            inside = math.sqrt(a * b)
            assert classify(inside, t, 127.0).value.endswith("Wigner solid")
            assert not classify(a * 0.5, t, 127.0).value.endswith("solid")
            assert not classify(b * 2.0, t, 127.0).value.endswith("solid")

    def test_classical_branch_scales_as_t_squared(self):
        # in the window where E_F(n_c1) << kT the lower branch is ~ T^2
        temps = [0.02, 0.05, 0.1, 0.19]
        values = []
        for t in temps:
            n_c1, _ = melting_roots(127.0, t)
            assert fermi_energy(n_c1) / BOLTZMANN_EV_PER_K / t < 1e-2
            values.append(n_c1 / t**2)
        assert max(values) / min(values) - 1.0 < 0.01

    def test_input_validation(self):
        with pytest.raises(ValueError):
            melting_curve(127.0, [])
        with pytest.raises(ValueError):
            melting_curve(127.0, [2.0, 1.0])
        with pytest.raises(ValueError):
            melting_curve(127.0, [-1.0, 1.0])

