"""Release acceptance suite.

One test per numbered criterion; each prints an `ACCEPTANCE <n> PASS/FAIL`
line (run with `pytest -s` to see them all).

Criterion 3 checks the finite-difference surface-state solve against an
oracle that does not use the eigensolver: the exact spectrum of the
`RegularizedImage` potential (V0 = 50 eV barrier, image tail cut off at
b = 1e-3 A), from matching Whittaker functions to the barrier decay at
z = 0 (Loudon's 1D hydrogen atom).  The exact spectrum, not the hard-wall
hydrogenic one, is the right reference for this potential: with the
finite barrier and cutoff, E_1 and E_2 lie 1.5-7.7% deeper than
-Z^2/2n^2 for the two dielectric constants used.  The link to the hydrogenic limit is kept
by checking that the same oracle recovers -Z^2/2n^2 at a hard barrier.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from eqls import cqed, phases, zstates
from eqls.cli import main
from eqls.matter import de_boer
from eqls.units import BOHR_ANGSTROM, BOLTZMANN_EV_PER_K, HARTREE_EV, PLANCK_EV_S
from eqls.zstates import RegularizedImage, build_potential, solve_bound_states, surface_grid

from conftest import solve_surface
from test_cli import GOLDEN

DE_BOER_PUBLISHED = [3.09, 2.68, 0.59, 1.73, 1.41, 1.22]


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def all_solutions(registry):
    t0 = time.perf_counter()
    solutions = {s.name: solve_surface(s) for s in registry.surfaces}
    return solutions, time.perf_counter() - t0


def test_criterion_1_quantumness_table(registry):
    t0 = time.perf_counter()
    computed = [de_boer(sp) for sp in registry.species]
    elapsed = time.perf_counter() - t0
    worst = max(abs(c - e) for c, e in zip(computed, DE_BOER_PUBLISHED))
    ok = worst <= 0.01 and elapsed < 0.1
    _report(1, ok, f"de Boer values within {worst:.4f} of published, {elapsed*1e3:.1f} ms")
    assert ok


def test_criterion_2_surface_state_table(registry, all_solutions, capsys):
    solutions, elapsed = all_solutions
    worst = 0.0
    for surface in registry.surfaces:
        result = solutions[surface.name]
        s1, s2 = result.states
        tr = zstates.transition(result.states, 0, 1)
        ref = surface.reference
        for computed, published in [(s1.energy_mev, ref.e1_mev),
                                    (s2.energy_mev, ref.e2_mev),
                                    (tr.de_k, ref.de_k), (tr.f_thz, ref.f_thz),
                                    (s1.mean_z_nm, ref.z1_nm),
                                    (s2.mean_z_nm, ref.z2_nm)]:
            worst = max(worst, abs(computed - published) / abs(published))
    assert main(["table2", "--residuals", "--format", "csv"]) == 0
    residual_report = capsys.readouterr().out
    ok = worst < 0.10 and elapsed < 60.0
    _report(2, ok, f"worst residual {worst:.2%} over 6 surfaces x 6 observables, "
                   f"{elapsed:.1f} s; residual report emitted "
                   f"({len(residual_report.splitlines())} lines)")
    print(residual_report)
    assert ok


def _exact_regularized_levels(v0_ev: float, eps_r: float, b_A: float,
                              count: int) -> list[float]:
    """Exact bound levels of `RegularizedImage`, in meV, computed with mpmath.

    In Hartree units the decaying solution for z >= 0 is
    psi = W_{nu,1/2}(x) = exp(-x/2) x U(1-nu, 2, x) with x = 2 kappa (z+b),
    kappa = Z/nu and E = -kappa^2/2; for z < 0 it is exp(q z) with
    q = sqrt(2 (V0 - E)).  Matching psi'/psi at z = 0 gives
    2 kappa W'(x0) = q W(x0), written as a difference so that zeros of W
    are not poles.  Every sign change on a scan of nu upward from 0.05 in
    steps of 0.05 brackets one level; `findroot` refines it.  At V0 -> inf,
    b -> 0 the roots tend to nu = n, the hydrogenic spectrum.
    """
    with mpmath.workdps(20):
        charge = (mpmath.mpf(eps_r) - 1) / (4 * (mpmath.mpf(eps_r) + 1))
        b = mpmath.mpf(b_A) / BOHR_ANGSTROM
        v0 = mpmath.mpf(v0_ev) / HARTREE_EV

        def mismatch(nu):
            kappa = charge / nu
            x = 2 * kappa * b
            a = 1 - nu
            u = mpmath.hyperu(a, 2, x)
            du = -a * mpmath.hyperu(a + 1, 3, x)       # U'(a, b, x) = -a U(a+1, b+1, x)
            w = mpmath.exp(-x / 2) * x * u
            dw = mpmath.exp(-x / 2) * ((1 - x / 2) * u + x * du)
            q = mpmath.sqrt(2 * v0 + kappa**2)
            return 2 * kappa * dw - q * w

        step = mpmath.mpf("0.05")
        roots = []
        lo, f_lo = step, mismatch(step)
        while len(roots) < count:
            if lo > count + 1:
                raise RuntimeError(f"found {len(roots)} of {count} levels below nu = {lo}")
            hi = lo + step
            f_hi = mismatch(hi)
            if f_lo * f_hi < 0:
                roots.append(mpmath.findroot(mismatch, (lo, hi), solver="anderson"))
            lo, f_lo = hi, f_hi
        return [float(-charge**2 / (2 * nu**2) * HARTREE_EV * 1e3) for nu in roots]


def test_criterion_3_hydrogenic_limit_oracle():
    fd_vs_exact = {}
    exact_vs_hard_wall = {}
    worst_hard_barrier = 0.0
    for eps in (1.056, 1.244):
        scale = BOHR_ANGSTROM / zstates.hydrogenic_charge(eps)
        grid = surface_grid(-20.0, 30.0 * scale, scale / 800.0)
        spec = RegularizedImage(v0_ev=50.0, eps_r=eps, b_A=1e-3)
        result = solve_bound_states(build_potential(spec, grid), 2,
                                    report_convergence=False)
        exact = _exact_regularized_levels(50.0, eps, 1e-3, 2)
        hard_wall = zstates.hydrogenic_levels(eps, 2)
        for n in (1, 2):
            fd_vs_exact[(eps, n)] = result.states[n - 1].energy_mev / exact[n - 1] - 1.0
            exact_vs_hard_wall[(eps, n)] = exact[n - 1] / hard_wall[n - 1] - 1.0
        # the same oracle at a hard barrier must give the hydrogenic limit
        hard = _exact_regularized_levels(1e5, eps, 1e-4, 2)
        worst_hard_barrier = max(worst_hard_barrier,
                                 *(abs(e / a - 1.0) for e, a in zip(hard, hard_wall)))
    worst = max(abs(d) for d in fd_vs_exact.values())
    ok = worst <= 0.005 and worst_hard_barrier <= 0.005
    detail = ", ".join(f"eps={eps} n={n}: FD vs exact {fd_vs_exact[(eps, n)]:+.3%}, "
                       f"exact vs hard wall {exact_vs_hard_wall[(eps, n)]:+.3%}"
                       for eps, n in fd_vs_exact)
    _report(3, ok, f"V0=50 eV, b=1e-3 A: {detail}; exact oracle at V0=1e5 eV, "
                   f"b=1e-4 A vs hard wall {worst_hard_barrier:.3%}")
    assert ok, (
        "The finite-difference spectrum of RegularizedImage(V0=50 eV, "
        "b=1e-3 A) must match the exact Whittaker-matching spectrum of the "
        "same potential within 0.5%, and that exact spectrum must reduce to "
        f"-Z^2/2n^2 within 0.5% at V0=1e5 eV, b=1e-4 A.  Got: {detail}; "
        f"hard-barrier oracle {worst_hard_barrier:.3%}.  The exact V0=50 eV "
        "levels lie 1.5-7.7% deeper than the hard-wall ones, so the hard-wall "
        "spectrum is not a valid reference for this potential."
    )


def test_hydrogenic_limit_recovered_at_hard_barrier():
    # companion to criterion 3: with the barrier pushed to 1e5 eV (and the
    # cutoff scaled down with it) the analytic spectrum is met at 0.5%
    worst = 0.0
    for eps in (1.056, 1.244):
        scale = BOHR_ANGSTROM / zstates.hydrogenic_charge(eps)
        grid = surface_grid(-20.0, 30.0 * scale, scale / 1600.0)
        spec = RegularizedImage(v0_ev=1e5, eps_r=eps, b_A=1e-4)
        result = solve_bound_states(build_potential(spec, grid), 2,
                                    report_convergence=False)
        analytic = zstates.hydrogenic_levels(eps, 2)
        for n in (1, 2):
            dev = abs(result.states[n - 1].energy_mev / analytic[n - 1] - 1.0)
            worst = max(worst, dev)
    print(f"ACCEPTANCE  3 companion {'PASS' if worst <= 0.005 else 'FAIL'}: "
          f"V0=1e5 eV, b=1e-4 A: worst deviation {worst:.3%}")
    assert worst <= 0.005


def test_criterion_4_frequency_energy_identity(registry, all_solutions):
    solutions, _ = all_solutions
    worst_identity = 0.0
    worst_published = 0.0
    for surface in registry.surfaces:
        tr = zstates.transition(solutions[surface.name].states, 0, 1)
        de_from_f = tr.f_thz * PLANCK_EV_S * 1e12 / BOLTZMANN_EV_PER_K
        worst_identity = max(worst_identity, abs(de_from_f / tr.de_k - 1.0))
        ref = surface.reference
        worst_published = max(worst_published,
                              abs(tr.de_k - ref.de_k) / ref.de_k,
                              abs(tr.f_thz - ref.f_thz) / ref.f_thz)
    ok = worst_identity <= 1e-6 and worst_published <= 0.02
    _report(4, ok, f"f*h/k_B vs dE identity to {worst_identity:.1e}, "
                   f"published rounded values to {worst_published:.2%}")
    assert ok


def test_criterion_5_eigensolver_properties(registry, all_solutions):
    solutions, _ = all_solutions
    worst_norm = 0.0
    nodes_ok = True
    for surface in registry.surfaces:
        weights = zstates.default_grid(RegularizedImage(
            surface.barrier_v0_ev, surface.dielectric_constant,
            surface.scattering_length_A)).weights()
        for k, state in enumerate(solutions[surface.name].states):
            worst_norm = max(worst_norm, abs(float(np.sum(state.psi**2 * weights)) - 1.0))
            nodes_ok = nodes_ok and state.node_count == k
    he = RegularizedImage(v0_ev=1.1, eps_r=1.056, b_A=0.62)
    energies = zstates.richardson_energies(he, zstates.default_grid(he), halvings=3)
    ratios = zstates.richardson_ratios(energies)
    ratios_ok = all(3.5 <= r <= 4.5 for r in ratios)
    ok = worst_norm <= 1e-8 and nodes_ok and ratios_ok
    _report(5, ok, f"normalization error {worst_norm:.1e}, node counts "
                   f"{'correct' if nodes_ok else 'WRONG'}, Richardson ratios "
                   + ", ".join(f"{r:.2f}" for r in ratios))
    assert ok


def test_criterion_6_quantum_critical_density():
    n_star = phases.quantum_critical_density(127.0)
    dev = abs(n_star / 2.8e12 - 1.0)
    ok = dev <= 0.02
    _report(6, ok, f"n*(127) = {n_star:.3e} cm^-2, {dev:.2%} from 2.8e12")
    assert ok


def test_criterion_7_critical_point():
    t0 = time.perf_counter()
    t_c, n_c = phases.critical_point(127.0)
    elapsed = time.perf_counter() - t0
    ok = abs(t_c - 15.3) <= 0.8 and abs(n_c / 1.3e12 - 1.0) <= 0.10 and elapsed < 30.0
    _report(7, ok, f"T_c = {t_c:.2f} K (target 15.3 +- 0.8), "
                   f"n_c = {n_c:.3e} cm^-2 (target 1.3e12 +- 10%), {elapsed:.2f} s")
    assert ok


def test_criterion_8_melting_dome_structure():
    gamma0 = 127.0
    t_c, _ = phases.critical_point(gamma0)
    temps = np.linspace(0.5, 15.25, 40)
    assert temps[-1] < t_c
    roots = [phases.melting_roots(gamma0, t) for t in temps]
    two_roots = all(r is not None for r in roots)
    n1 = [r[0] for r in roots if r is not None]
    n2 = [r[1] for r in roots if r is not None]
    increasing = all(b > a for a, b in zip(n1, n1[1:]))
    decreasing = all(b < a for a, b in zip(n2, n2[1:]))
    # classical window: E_F(n_c1) < 1e-2 kT
    window = [0.02, 0.05, 0.1, 0.19]
    ratios = []
    for t in window:
        n_c1, _ = phases.melting_roots(gamma0, t)
        assert phases.fermi_energy(n_c1) / (t * BOLTZMANN_EV_PER_K) < 1e-2
        ratios.append(n_c1 / t**2)
    spread = max(ratios) / min(ratios) - 1.0
    above = all(phases.melting_roots(gamma0, t) is None for t in (15.6, 17.0, 20.0))
    ok = two_roots and increasing and decreasing and spread < 0.01 and above
    _report(8, ok, f"two roots at all 40 T < T_c, n_c1 increasing: {increasing}, "
                   f"n_c2 decreasing: {decreasing}, classical n_c1/T^2 spread "
                   f"{spread:.2%}, no roots above T_c: {above}")
    assert ok


def test_criterion_9_kinetic_energy_limits():
    n_unit = 1.0 / (phases.fermi_energy(1.0) / BOLTZMANN_EV_PER_K)  # E_F = kT at T=1
    kt = BOLTZMANN_EV_PER_K
    dev_classical = abs(phases.kinetic_energy(1e-3 * n_unit, 1.0) / kt - 1.0)
    n_deg = 1e3 * n_unit
    dev_degenerate = abs(phases.kinetic_energy(n_deg, 1.0)
                         / (phases.fermi_energy(n_deg) / 2) - 1.0)
    dilog = float(-mpmath.polylog(2, -(math.e - 1.0)))
    dev_mid = abs(phases.kinetic_energy(n_unit, 1.0) / (kt * dilog) - 1.0)
    ok = dev_classical < 1e-3 and dev_degenerate < 1e-3 and dev_mid < 1e-6
    _report(9, ok, f"K_e limit deviations: classical {dev_classical:.1e}, "
                   f"degenerate {dev_degenerate:.1e}, dilogarithm midpoint {dev_mid:.1e}")
    assert ok


def test_criterion_10_cqed_estimators():
    delta_exact = cqed.image_charge_delta(10.0, 2e6) == 5.0e-6
    gs = cqed.spin_coupling(cqed.SpinCouplingInput(
        g_charge_mhz=20.0, f_charge_ghz=6.0, f_larmor_ghz=6.03,
        grad_bz_t_per_m=800.0))
    gs_ok = 0.25 <= gs <= 1.0
    strong1 = cqed.strong_coupling(cqed.CouplingBudget(3.5, 0.1, 1.7)).strong
    strong2 = cqed.strong_coupling(cqed.CouplingBudget(5.0, 0.1, 80.0)).strong
    ok = delta_exact and gs_ok and strong1 and not strong2
    _report(10, ok, f"image charge 5.0e-6 exact: {delta_exact}, "
                    f"g_s = {gs:.3f} MHz in [0.25, 1.0], strong-coupling "
                    f"verdicts ({strong1}, {strong2})")
    assert ok


def test_criterion_11_cli_determinism(tmp_path, capsys):
    paths = [tmp_path / "run1.csv", tmp_path / "run2.csv"]
    for p in paths:
        assert main(["phase-diagram", "--gamma0", "127", "--format", "csv",
                     "--output", str(p)]) == 0
    capsys.readouterr()
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    golden = (GOLDEN / "phase_diagram_gamma127.csv").read_bytes()
    matches_golden = paths[0].read_bytes() == golden
    ok = identical and matches_golden
    _report(11, ok, f"two runs byte-identical: {identical}, "
                    f"matches stored golden: {matches_golden}")
    assert ok
