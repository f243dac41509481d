import dataclasses
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from eqls import cli, zstates
from eqls.units import BOHR_ANGSTROM, BOLTZMANN_EV_PER_K, HARTREE_EV, PLANCK_EV_S, compiled
from eqls.zstates import (
    GridSpec,
    InfiniteBarrierImage,
    Interface,
    RegularizedImage,
    build_potential,
    default_grid,
    hydrogenic_levels,
    solve_bound_states,
    stark_scan,
    surface_grid,
    transition,
)

import shooting
from conftest import solve_surface
from test_acceptance import _exact_regularized_levels
from whittaker import energy_of, nu_of, regularized_image_levels

HE_SPEC = RegularizedImage(v0_ev=1.1, eps_r=1.056, b_A=0.62)
NE_SPEC = RegularizedImage(v0_ev=0.7, eps_r=1.244, b_A=0.38)

# the acceptance grid for check 3's potential: b = 1e-3 A is far below h
SCALE_1244 = BOHR_ANGSTROM / zstates.hydrogenic_charge(1.244)
UNRESOLVED_B_SPEC = RegularizedImage(v0_ev=50.0, eps_r=1.244, b_A=1e-3)
UNRESOLVED_B_GRID = surface_grid(-20.0, 30.0 * SCALE_1244, SCALE_1244 / 800.0)

CAP = rf"is outside \[\S+, {zstates.MAX_GRID_POINTS}\]"     # the grid point cap, named


def bisection_bound_ev(profile):
    """4 eps |T|_1 of the finite-difference Hamiltonian of `profile`, in eV."""
    *_, diag, off = zstates._hamiltonian(profile)
    rows = np.abs(diag) + np.append(np.abs(off), 0.0) + np.insert(np.abs(off), 0, 0.0)
    return 4.0 * np.finfo(float).eps * np.max(rows) * HARTREE_EV


def uniform_default_grid(spec, levels=2):
    """A uniform grid at (a_B/Z)/200 over the default extent: the tests that pin
    the cascade's point counts (6453, 1615, 405 and 103 for liquid 4He) use it."""
    scale = BOHR_ANGSTROM / zstates.hydrogenic_charge(spec.eps_r)
    return surface_grid(-20.0, scale * max(30.0, 3.0 * levels**2 + 10.0 * levels),
                        scale / 200.0)


def grid_energy(result, k):
    """E(h), the level on the solve's own grid: a reported RegularizedImage
    level is E_R = E(h) - (4/3) dE, with dE the report's halving change."""
    return result.states[k].energy_mev + 4.0 / 3.0 * result.convergence.energy_change_mev[k]


def cascade(grid, count):
    """The grids a fresh solve of `count` levels on `grid` passes, finest first:
    each 4x coarser than the one before, down to the first with fewer than
    4 * _COARSE_POINTS_PER_LEVEL points per level, which is the one bisected."""
    grids = [grid]
    while grids[-1].points >= 4 * zstates._COARSE_POINTS_PER_LEVEL * count:
        grids.append(zstates._rescaled(grids[-1], 4.0))
    return grids


class TestGrid:
    def test_rejects_one_sided_grid(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 10.0, 100)
        with pytest.raises(ValueError):
            GridSpec(-10.0, -1.0, 100)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            GridSpec(-1.0, 1.0, 2)

    def test_nodes_are_built_once_and_read_only(self):
        grid = surface_grid(-20.0, 300.0, 1.6)
        z = grid.nodes()
        assert grid.nodes() is z
        assert np.array_equal(z, grid.z_min_A + grid.h_A * np.arange(grid.points))
        with pytest.raises(ValueError, match="read-only"):
            z[0] = 0.0
        w = grid.weights()
        assert grid.weights() is w and not w.flags.writeable
        assert grid == surface_grid(-20.0, 300.0, 1.6)      # the array is no field
        assert hash(grid) == hash(surface_grid(-20.0, 300.0, 1.6))

    def test_point_cap_is_checked_before_allocation(self):
        GridSpec(-1.0, 1.0, zstates.MAX_GRID_POINTS)      # holds three numbers only
        with pytest.raises(ValueError, match=CAP):
            GridSpec(-1.0, 1.0, zstates.MAX_GRID_POINTS + 1)
        with pytest.raises(ValueError, match=CAP):
            default_grid(HE_SPEC, levels=200)               # about 1.53M nodes
        with pytest.raises(ValueError, match=CAP):
            surface_grid(-20.0, 2300.0, 1e-4)

    def test_halving_over_the_cap_fails_before_the_solve(self):
        # the samples are never read: the halved grid is checked first
        grid = GridSpec(-1.0, 1.0, zstates.MAX_GRID_POINTS // 2 + 1)
        profile = zstates.PotentialProfile(grid, np.zeros(3), HE_SPEC)
        with pytest.raises(ValueError, match=CAP):
            solve_bound_states(profile, 1)

    def test_count_is_capped_by_its_grid_before_the_solve(self):
        # the samples are never read: the count is checked first
        small = zstates.PotentialProfile(GridSpec(-1.0, 1.0, 5), np.zeros(3), HE_SPEC)
        with pytest.raises(ValueError, match=r"count 6 on a 5-point grid is outside \[1, 5\]"):
            solve_bound_states(small, 6, report_convergence=False)
        points = zstates.MAX_GRID_POINTS // 2
        block = zstates.MAX_EIGENVECTOR_BLOCK // points
        big = zstates.PotentialProfile(GridSpec(-1.0, 1.0, points), np.zeros(3), HE_SPEC)
        with pytest.raises(ValueError, match=rf"is outside \[1, {block}\]"):
            solve_bound_states(big, block + 1, report_convergence=False)

    def test_default_grids_of_every_level_fit_the_block_cap(self):
        for spec in (RegularizedImage(1.0, 1.02, 0.5), RegularizedImage(1.0, 1.4, 0.5),
                     InfiniteBarrierImage(1.02), InfiniteBarrierImage(1.4)):
            for levels in range(1, 75):
                grid = default_grid(spec, levels)
                assert grid.points * levels <= zstates.MAX_EIGENVECTOR_BLOCK
                assert zstates._rescaled(grid, 0.5).points <= zstates.MAX_GRID_POINTS
            assert default_grid(spec, 75).points * 75 > zstates.MAX_EIGENVECTOR_BLOCK

    def test_far_tail_stage_halves_the_default_grid(self):
        # the same grid without the far stage has 17387 points
        assert default_grid(HE_SPEC, 6).points <= 17387 // 2

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(z_min=st.floats(0.1, 50.0), z_max=st.floats(1.0, 3000.0), h=st.floats(0.01, 2.0))
    @example(20.0, 300.0, 1.6)
    @example(0.1, 1.0, 2.0)                 # two nodes: too small
    def test_surface_grid_is_uniform(self, z_min, z_max, h):
        m = math.ceil(z_min / h - 0.5)
        p = math.ceil(z_max / h + 0.5)
        if m + p + 1 < 3:
            with pytest.raises(ValueError, match="grid of 2 points"):
                surface_grid(-z_min, z_max, h)
            return
        grid = surface_grid(-z_min, z_max, h)
        assert (grid.s_min_A, grid.s_max_A, grid.points) == (-(m + 0.5) * h, (p - 0.5) * h,
                                                             m + p + 1)
        # the ends cover [-z_min, z_max] to the rounding of the cell count
        assert -grid.z_min_A >= z_min - 4.0 * math.ulp(z_min)
        assert grid.z_max_A >= z_max - 4.0 * math.ulp(z_max)
        s = grid.s_min_A + grid.h_A * np.arange(grid.points)
        assert np.array_equal(grid.nodes(), s)
        halved = zstates._rescaled(grid, 0.5)
        assert (halved.ratio, halved.bend_A, halved.far_ratio) == (1.0, 1.0, 1.0)
        assert np.array_equal(halved.nodes(),
                              halved.s_min_A + halved.h_A * np.arange(halved.points))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(z=st.floats(1e-3, 1e6), ratio=st.floats(1.0, 500.0), bend=st.floats(0.01, 100.0),
           far_ratio=st.floats(1.0, 16.0))
    def test_unmapped_inverts_the_two_stage_map(self, z, ratio, bend, far_ratio):
        s = zstates._unmapped(z, ratio, bend, far_ratio)
        assert 0.0 < s <= z
        # z(s) sums terms up to (ratio * far_ratio) s, and each s - L tanh(s/L)
        # cancels where s << L: a few of that term's ulps is rounding
        grid = GridSpec(-1.0, 1.0, 3, ratio, bend, far_ratio)
        assert abs(float(grid._mapped(s)) - z) <= 4.0 * math.ulp(ratio * far_ratio * s)

    def test_every_grid_used_here_fits_with_its_halving(self):
        grids = [default_grid(spec, levels)
                 for spec in (RegularizedImage(1.0, 1.02, 0.5), HE_SPEC, NE_SPEC,
                              RegularizedImage(1.0, 1.4, 0.5), InfiniteBarrierImage(1.02))
                 for levels in range(1, 7)]
        grids.append(default_grid(Interface(0.5, 0.8, 1.2, 0.5)))
        for eps in (1.02, 1.056, 1.244):
            scale = BOHR_ANGSTROM / zstates.hydrogenic_charge(eps)
            grids.append(surface_grid(-20.0, 30.0 * scale, scale / 1600.0))
        richardson = default_grid(HE_SPEC)
        for _ in range(3):
            richardson = zstates._rescaled(richardson, 0.5)
        grids.append(richardson)
        for grid in grids:
            assert zstates._rescaled(grid, 0.5).points <= zstates.MAX_GRID_POINTS

    def test_surface_grid_straddles_zero_between_nodes(self):
        g = surface_grid(-20.0, 100.0, 0.37)
        z = g.nodes()
        below = z[z < 0]
        above = z[z > 0]
        assert below[-1] == pytest.approx(-g.h_A / 2)
        assert above[0] == pytest.approx(g.h_A / 2)
        assert g.z_min_A <= -20.0 and g.z_max_A >= 100.0


class TestBuildPotential:
    @pytest.mark.parametrize("spec, eps, barrier, b", [
        (HE_SPEC, 1.056, 1.1, 0.62),
        (RegularizedImage(0.7, 1.244, 0.38, 3e4), 1.244, 0.7, 0.38),
        (InfiniteBarrierImage(1.056, 1e5), 1.056, zstates.INFINITE_BARRIER_EV, 0.0),
        (Interface(0.7, 1.1, 1.244, 1.0, -2e4), 1.244, 0.7, 0.0)],
        ids=["He", "Ne_field", "hard_wall", "interface"])
    def test_profiles_on_one_grid_share_the_kinetic_operator(self, spec, eps, barrier, b):
        # the samples and the Hamiltonian, bit for bit as the masked and per-profile
        # reference formulas give them; every field of a Stark scan gets the same
        # c, sqrt(w) and off-diagonal, formed per call (the grid caches no operator)
        grid = default_grid(spec)
        ghost, z, w = grid._cells
        h = np.diff(ghost)
        assert w.tobytes() == (0.5 * (h[:-1] + h[1:])).tobytes()
        profile = build_potential(spec, grid)
        pos = z >= 0.0
        v = np.where(pos, 0.0, barrier)
        v[pos] = (-zstates.hydrogenic_charge(eps) * HARTREE_EV * BOHR_ANGSTROM
                  / np.maximum(z[pos] + b, 0.5 * grid.h_A))
        if isinstance(spec, Interface):
            v[pos] += spec.v_barrier_above_ev * np.tanh(z[pos] / spec.zeta_A) ** 2
        v[pos] += spec.pressing_field_v_per_m * 1e-10 * z[pos]
        assert profile.samples_ev.tobytes() == v.tobytes()
        c = 0.5 * BOHR_ANGSTROM**2 / h
        root = np.sqrt(w)
        pot = v / HARTREE_EV
        reference = c, root, pot, (c[:-1] + c[1:]) / w + pot, -c[1:-1] / (root[:-1] * root[1:])
        built = zstates._hamiltonian(profile)
        assert [x.tobytes() for x in built] == [y.tobytes() for y in reference]
        flat = zstates._hamiltonian(build_potential(dataclasses.replace(
            spec, pressing_field_v_per_m=0.0), grid))
        for k in (0, 1, 4):     # c, sqrt(w) and the off-diagonal
            assert flat[k].tobytes() == built[k].tobytes()

    def test_image_tail_value(self):
        # -[(eps-1)/(eps+1)] e^2 / (4 (z+b)) at z = 10 A for the helium surface
        grid = GridSpec(-2.0, 10.0, 13)       # integer nodes, includes z=10
        profile = build_potential(HE_SPEC, grid)
        assert profile.samples_ev[-1] * 1e3 == pytest.approx(-9.23277, rel=1e-5)

    def test_barrier_branch(self):
        grid = GridSpec(-2.0, 10.0, 13)
        for spec, expected in [(HE_SPEC, 1.1),
                               (InfiniteBarrierImage(1.056), zstates.INFINITE_BARRIER_EV),
                               (Interface(0.7, 1.1, 1.244, 1.0), 0.7)]:
            profile = build_potential(spec, grid)
            z = grid.nodes()
            assert profile.samples_ev[z == -1.0][0] == expected

    @pytest.mark.parametrize("eps", [1.02, 1.056, 1.4])
    def test_hard_wall_samples_the_bare_tail(self, eps):
        # the bench's hard-wall grid: the first node above the surface is h/2,
        # to rounding, so the half-cell cap moves no sample by more than that
        scale = BOHR_ANGSTROM / zstates.hydrogenic_charge(eps)
        grid = surface_grid(-20.0, 30.0 * scale, scale / 800.0)
        z = grid.nodes()
        v = build_potential(InfiniteBarrierImage(eps), grid).samples_ev
        a = zstates.hydrogenic_charge(eps) * HARTREE_EV * BOHR_ANGSTROM
        assert np.all(v[z < 0] == zstates.INFINITE_BARRIER_EV)
        np.testing.assert_allclose(v[z >= 0], -a / z[z >= 0], rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("spec", [HE_SPEC, NE_SPEC, RegularizedImage(100.0, 1.4, 2.0),
                                      RegularizedImage(0.5, 1.02, 0.001)],
                             ids=["4He", "Ne", "wide-cutoff", "cutoff-below-floor"])
    def test_default_grids_sample_the_shifted_tail_exactly(self, spec):
        grid = default_grid(spec, 3)
        z = grid.nodes()
        v = build_potential(spec, grid).samples_ev
        a = zstates.hydrogenic_charge(spec.eps_r) * HARTREE_EV * BOHR_ANGSTROM
        assert np.array_equal(v[z >= 0], -a / (z[z >= 0] + spec.b_A))

    def test_interface_saturates_to_upper_barrier(self):
        # without a polarizable solid below, the far potential is the upper barrier
        spec = Interface(v_barrier_below_ev=0.7, v_barrier_above_ev=1.1,
                         eps_r_below=1.0, zeta_A=1.0)
        profile = build_potential(spec)
        assert profile.samples_ev[-1] == pytest.approx(1.1, rel=1e-12)

    def test_interface_pole_capped_at_half_cell(self):
        grid = GridSpec(-2.0, 10.0, 13)       # node exactly at z=0
        spec = Interface(0.7, 1.1, 1.244, 1.0)
        profile = build_potential(spec, grid)
        assert np.all(np.isfinite(profile.samples_ev))

    def test_pressing_field_applies_above_surface_only(self):
        grid = GridSpec(-2.0, 10.0, 13)
        base = build_potential(HE_SPEC, grid)
        pressed = build_potential(
            RegularizedImage(1.1, 1.056, 0.62, pressing_field_v_per_m=1e5), grid)
        z = grid.nodes()
        delta = pressed.samples_ev - base.samples_ev
        assert np.all(delta[z < 0] == 0.0)
        # e * E * z with E = 1e5 V/m at z = 10 A is 1e-4 eV
        assert delta[-1] == pytest.approx(1e-4, rel=1e-12)

    def test_short_grid_is_flagged_not_rejected(self):
        grid = surface_grid(-20.0, 50.0, 0.4)  # ground state sits near 110 A
        profile = build_potential(HE_SPEC, grid)
        assert profile.warnings and "z_max" in profile.warnings[0]

    def test_default_grid_spacing_tracks_image_strength(self):
        g_he = default_grid(HE_SPEC)
        g_ne = default_grid(NE_SPEC)
        assert g_he.h_A > g_ne.h_A            # weaker image tail, coarser grid
        assert g_he.z_max_A > g_ne.z_max_A

    def test_barrier_cap_is_the_hard_wall_stand_in(self):
        RegularizedImage(zstates.INFINITE_BARRIER_EV, 1.056, 0.62)
        assert (RegularizedImage(zstates.INFINITE_BARRIER_EV, 1.056, 0.0, 1e5)
                == InfiniteBarrierImage(1.056, pressing_field_v_per_m=1e5))
        with pytest.raises(ValueError, match=r"V0 = 1000000000 eV is outside \(0, 1000000\]"):
            RegularizedImage(1e9, 1.056, 0.62)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            RegularizedImage(1.1, 0.9, 0.62)
        with pytest.raises(ValueError):
            RegularizedImage(1.1, 1.056, -0.1)
        # b = 0 only under the hard wall: below the cap the 1/z tail has no limit
        with pytest.raises(ValueError, match=r"^cutoff b = 0 A is outside \(0, inf\)$"):
            RegularizedImage(1.0, 1.056, 0.0)
        with pytest.raises(ValueError):
            Interface(0.7, 1.1, 1.244, 0.0)


class TestHydrogenicLevels:
    def test_no_image_charge_means_no_binding(self):
        assert np.all(hydrogenic_levels(1.0, 3) == 0.0)

    def test_helium_ground_level(self):
        assert hydrogenic_levels(1.056, 1)[0] == pytest.approx(-0.630856, rel=1e-5)

    def test_neon_ground_level(self):
        assert hydrogenic_levels(1.244, 1)[0] == pytest.approx(-10.05390, rel=1e-5)

    def test_rydberg_scaling(self):
        levels = hydrogenic_levels(1.244, 4)
        for n in range(1, 5):
            assert levels[n - 1] == pytest.approx(levels[0] / n**2, rel=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            hydrogenic_levels(0.5, 1)
        with pytest.raises(ValueError):
            hydrogenic_levels(1.056, 0)


class TestSolveBoundStates:
    def test_solve_holds_at_most_34_grid_vectors(self):
        # a 2-level hard wall on the benchmark's (a_B/Z)/800 grid: the peak is the
        # halved grid's refine (50,514 points); counted in vectors of the grid given
        scale = BOHR_ANGSTROM / zstates.hydrogenic_charge(1.39829)
        profile = build_potential(InfiniteBarrierImage(1.39829),
                                  surface_grid(-20.0, 30.0 * scale, scale / 800.0))
        assert profile.grid.points == 25257
        compiled("scipy.linalg._flapack")       # loading LAPACK is no part of the solve
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            solve_bound_states(profile, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - before) / (8 * profile.grid.points) <= 34.0

    def test_helium_matches_published_row(self, he_result):
        s1, s2 = he_result.states
        assert s1.energy_mev == pytest.approx(-0.676, rel=0.10)
        assert s2.energy_mev == pytest.approx(-0.163, rel=0.10)
        assert s1.mean_z_nm == pytest.approx(10.8, rel=0.10)
        assert s2.mean_z_nm == pytest.approx(45.0, rel=0.10)

    def test_helium_matches_shooting_cross_check(self, he_result):
        # grid-converged values from an independent high-order shooting
        # integration of the same potential
        s1, s2 = he_result.states
        assert s1.energy_mev == pytest.approx(-0.675836, rel=2e-3)
        assert s2.energy_mev == pytest.approx(-0.163181, rel=2e-3)

    def test_neon_matches_published_row(self, ne_result):
        s1, s2 = ne_result.states
        assert s1.energy_mev == pytest.approx(-17.4, rel=0.10)
        assert s2.energy_mev == pytest.approx(-3.24, rel=0.10)
        assert s1.mean_z_nm == pytest.approx(1.66, rel=0.10)
        assert s2.mean_z_nm == pytest.approx(9.04, rel=0.10)

    def test_states_are_normalized(self, he_result):
        weights = default_grid(HE_SPEC).weights()
        for state in he_result.states:
            assert abs(np.sum(state.psi**2 * weights) - 1.0) <= 1e-8

    def test_node_counts(self, he_result):
        assert [s.node_count for s in he_result.states] == [0, 1]

    def test_energies_strictly_ascending_below_asymptote(self, he_result):
        e = [s.energy_mev for s in he_result.states]
        assert e[0] < e[1] < 0.0

    def test_second_state_sits_higher(self, he_result):
        assert he_result.states[1].mean_z_nm > he_result.states[0].mean_z_nm

    def test_convergence_report_attached(self, he_result):
        rep = he_result.convergence
        assert rep is not None
        assert rep.refined_h_A == pytest.approx(rep.h_A / 2, rel=1e-6)
        # both states converged to well under the published-value tolerance
        assert all(abs(d) < 1e-2 for d in rep.energy_change_mev)

    def test_deeper_image_potential_binds_more(self):
        energies = []
        for eps in (1.056, 1.15, 1.244):
            spec = RegularizedImage(1.0, eps, 0.5)
            result = solve_bound_states(build_potential(spec), 1,
                                        report_convergence=False)
            energies.append(result.states[0].energy_mev)
        assert energies[0] > energies[1] > energies[2]

    def test_hard_wall_limit_approaches_hydrogenic(self):
        # the capped 1/z sampling converges O(h); at h = (a_B/Z)/400 the
        # ground state is within ~0.6% of the analytic hard-wall values
        spec = InfiniteBarrierImage(1.056)
        scale = BOHR_ANGSTROM / zstates.hydrogenic_charge(1.056)
        grid = surface_grid(-20.0, 30.0 * scale, scale / 400.0)
        result = solve_bound_states(build_potential(spec, grid), 1,
                                    report_convergence=False)
        state = result.states[0]
        assert state.energy_mev == pytest.approx(-0.630856, rel=0.01)
        assert state.mean_z_nm == pytest.approx(1.5 * scale / 10.0, rel=0.01)

    @pytest.mark.parametrize("eps", [1.02, 1.056, 1.2, 1.4])
    def test_hard_wall_default_grids_match_hydrogenic(self, eps):
        # what is left is the 1 MeV stand-in's own penetration, about 0.002 A:
        # at most 6.2e-4, at eps = 1.4
        spec = InfiniteBarrierImage(eps)
        for levels in range(1, 7):
            result = solve_bound_states(build_potential(spec, default_grid(spec, levels)),
                                        levels)
            assert result.shortfall == 0 and result.convergence.note == ""
            exact = hydrogenic_levels(eps, levels)
            for state, e in zip(result.states, exact):
                assert state.energy_mev == pytest.approx(e, rel=1e-3)

    @pytest.mark.parametrize("eps", [1.02, 1.056, 1.2, 1.4])
    def test_hard_wall_default_grid_converges_at_second_order(self, eps):
        spec = InfiniteBarrierImage(eps)
        energies = zstates.richardson_energies(spec, default_grid(spec), 2)
        (ratio,) = zstates.richardson_ratios(energies)
        assert 3.5 <= ratio <= 4.5

    def test_mean_heights_are_within_6e_5_of_their_richardson_limit(self, registry):
        # <z> is that of the grid h; its limit is (4 z(h/4) - z(h/2))/3.  The
        # worst measured is 5.594e-5
        for surface in registry.surfaces:
            spec = RegularizedImage(surface.barrier_v0_ev, surface.dielectric_constant,
                                    surface.scattering_length_A)
            for levels in range(1, 7):
                grid = default_grid(spec, levels)
                heights = []
                for _ in range(3):
                    result = solve_bound_states(build_potential(spec, grid), levels,
                                                report_convergence=False)
                    heights.append([state.mean_z_nm for state in result.states])
                    grid = zstates._rescaled(grid, 0.5)
                for z_h, z_half, z_quarter in zip(*heights, strict=True):
                    limit = (4.0 * z_quarter - z_half) / 3.0
                    assert z_h == pytest.approx(limit, rel=6e-5), (surface.name, levels)

    def test_shortfall_reported_for_unbound_requests(self):
        # the default grid holds the two standard states; asking for six
        # runs off the top of what the box supports
        result = solve_bound_states(build_potential(HE_SPEC), 6)
        assert result.requested == 6
        assert result.shortfall >= 1
        assert len(result.states) == 6 - result.shortfall
        for k, state in enumerate(result.states):
            assert state.node_count == k

    def test_interface_pocket_state_is_cap_dominated(self):
        # He-on-Ne sandwich: with a finite lower barrier the 1/z tail is
        # not protected by a node at the surface, so the pocket state's
        # depth tracks the half-cell cap rather than converging; the
        # attached grid-halving report is what exposes this
        spec = Interface(v_barrier_below_ev=0.7, v_barrier_above_ev=1.1,
                         eps_r_below=1.244, zeta_A=1.0)
        result = solve_bound_states(build_potential(spec), 1)
        assert result.shortfall == 0
        state = result.states[0]
        assert 0.0 < state.energy_mev < 700.0       # between well top and V_Ne
        assert abs(state.mean_z_nm) < 0.1           # pinned at the surface
        assert abs(result.convergence.energy_change_mev[0]) > 1.0

    def test_count_validation(self, he_result):
        with pytest.raises(ValueError):
            solve_bound_states(build_potential(HE_SPEC), 0)


class TestConvergenceNote:
    def test_cutoff_below_grid_spacing_is_noted(self):
        # one halving changes E1 by 0.014 meV, but the error against the
        # exact level is 0.039 meV: the O(h^2) reading under-reports it
        result = solve_bound_states(build_potential(UNRESOLVED_B_SPEC, UNRESOLVED_B_GRID), 1)
        assert UNRESOLVED_B_SPEC.b_A < UNRESOLVED_B_GRID.h_A
        assert "below the grid spacing" in result.convergence.note

    def test_bundled_surfaces_carry_no_note(self, registry):
        # at 1-6 levels, as `states` solves them; their largest halving change
        # is 4.0e-5 of the energy, under the 1e-3 of the unresolved-level note
        for surface in registry.surfaces:
            spec = RegularizedImage(surface.barrier_v0_ev, surface.dielectric_constant,
                                    surface.scattering_length_A)
            for levels in range(1, 7):
                result = solve_bound_states(build_potential(spec, default_grid(spec, levels)),
                                            levels)
                assert surface.scattering_length_A >= 1.2 * result.convergence.h_A
                assert result.convergence.note == "", (surface.name, levels)

    def test_level_that_moves_under_halving_is_noted(self):
        # on a uniform grid at (a_B/Z)/200, b >= h, so the cutoff note stays
        # silent, yet E1 moves by 1.18e-2 of itself under one halving and E(h)
        # is 1.6% off the exact level
        spec = RegularizedImage(v0_ev=0.5, eps_r=1.4, b_A=0.065)
        profile = build_potential(spec, uniform_default_grid(spec))
        result = solve_bound_states(profile, 2)
        assert spec.b_A >= profile.grid.h_A
        assert result.convergence.note == (
            "the halving change exceeds 0.001 of the energy (state 1, 2), so the level "
            "may not be resolved, and its error can reach about twice the change")
        exact = regularized_image_levels(spec.v0_ev, spec.eps_r, spec.b_A, 1)[0]
        assert abs(grid_energy(result, 0) - exact) > 0.01 * abs(exact)
        # the graded default grid resolves it: no note
        assert solve_bound_states(build_potential(spec), 2).convergence.note == ""

    def test_interface_solve_is_noted_as_not_converged(self):
        # the pocket energy follows the half-cell cap on the 1/z pole: one
        # halving moves it by 95.8 meV, and further halvings keep moving it
        spec = Interface(0.7, 1.1, 1.244, 1.0)
        result = solve_bound_states(build_potential(spec), 1)
        assert result.convergence.energy_change_mev[0] > 50.0
        assert "follows the half-cell cap" in result.convergence.note
        assert "not an error estimate" in result.convergence.note
        assert "may not be resolved" not in result.convergence.note

    def test_note_is_joined_to_an_earlier_one(self, monkeypatch):
        eigenpairs = zstates._eigenpairs
        halved = zstates._rescaled(UNRESOLVED_B_GRID, 0.5)

        def fail_on_the_halved_grid(profile, *args, **kwargs):
            if profile.grid == halved:
                raise zstates.SolverError("forced")
            return eigenpairs(profile, *args, **kwargs)

        monkeypatch.setattr(zstates, "_eigenpairs", fail_on_the_halved_grid)
        result = solve_bound_states(build_potential(UNRESOLVED_B_SPEC, UNRESOLVED_B_GRID), 1)
        first, second = result.convergence.note.split("; ")
        assert first == "refined solve failed"
        assert "below the grid spacing" in second
        assert result.convergence.energy_change_mev == ()


@st.composite
def tridiagonal_counts(draw):
    """(diag, off, sigma, limit): a symmetric tridiagonal of 1-12 rows with
    some zero couplings, and sigma often one of its diagonal entries, where
    the LDL^T pivot is zero (at the first row, or after a zero coupling)."""
    n = draw(st.integers(1, 12))
    diag = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    # no coupling so small that bisection would split the matrix there and the count not
    coupling = st.one_of(st.just(0.0), st.floats(0.01, 5.0), st.floats(-5.0, -0.01))
    off = draw(st.lists(coupling, min_size=n - 1, max_size=n - 1))
    sigma = draw(st.one_of(st.sampled_from(diag), st.floats(-20.0, 20.0)))
    return np.array(diag), np.array(off, dtype=float), sigma, draw(st.integers(0, n))


class TestCountBelow:
    """`_count_below`, the inertia count that certifies a refine."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=tridiagonal_counts())
    @example(case=(np.array([0.5]), np.array([]), 0.5, 1))
    @example(case=(np.array([0.5, -1.0]), np.array([2.0]), 0.5, 2))
    @example(case=(np.array([1.0, 0.5, 3.0]), np.array([0.0, 0.0]), 0.5, 3))
    @example(case=(np.array([1.0, -2.0, 3.0, 0.0]), np.array([1.0, 0.0, 1.0]), -2.0, 4))
    def test_matches_the_sturm_count_up_to_its_limit(self, case):
        diag, off, sigma, limit = case
        for a in (diag, off):
            a.flags.writeable = False       # the count works in the scratch arrays
        pivmin = np.finfo(float).tiny * max(1.0, float(np.max(off * off, initial=0.0)))
        floor = min(float(np.min(diag)) - 2.0 * float(np.max(np.abs(off), initial=0.0)),
                    sigma) - 1.0            # below every eigenvalue (Gershgorin)
        below = len(eigvalsh_tridiagonal(diag, off, select="v", select_range=(floor, sigma)))
        scratch = np.full(2 * len(diag), np.nan)       # d and e, as `_refine` passes them
        d, e = scratch[:len(diag)], scratch[len(diag):2 * len(diag) - 1]
        assert (zstates._count_below(diag, off, sigma, limit, pivmin, d, e)
                == min(below, limit + 1))


class TestRefine:
    """Seeded, certified refinement against bisection on the same grid."""

    @staticmethod
    def _assert_refined_from_matches_bisection(spec, start_grid, grid, count):
        """Refine `grid` from bisection on `start_grid`; compare with bisection on `grid`."""
        start = build_potential(spec, start_grid)
        seeds, seed_psi = zstates._eigensolve(start, count)
        profile = build_potential(spec, grid)
        energies, psi = zstates._refine(profile, seeds, start_grid, seed_psi)
        exact, exact_psi = zstates._eigensolve(profile, count)
        w = grid.weights()[:, None]
        assert np.max(np.abs(energies - exact)) <= bisection_bound_ev(profile)
        assert np.sum(psi**2 * w, axis=0) == pytest.approx(np.ones(count), abs=1e-12)
        assert np.sum(exact_psi**2 * w, axis=0) == pytest.approx(np.ones(count), abs=1e-12)
        assert ([zstates._count_nodes(psi[:, k]) for k in range(count)]
                == [zstates._count_nodes(exact_psi[:, k]) for k in range(count)])
        assert np.all(np.abs(np.sum(psi * exact_psi * w, axis=0)) >= 1.0 - 1e-8)

    def _assert_coarse_seeded_matches_bisection(self, spec, grid, count):
        self._assert_refined_from_matches_bisection(spec, zstates._rescaled(grid, 4.0), grid,
                                                    count)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(eps=st.floats(1.02, 1.4), v0=st.floats(0.5, 100.0),
           b=st.floats(0.05, 2.0), levels=st.integers(1, 6))
    def test_matches_bisection_on_the_halved_grid(self, eps, v0, b, levels):
        spec = RegularizedImage(v0_ev=v0, eps_r=eps, b_A=b)
        grid = default_grid(spec, levels)
        self._assert_refined_from_matches_bisection(spec, grid, zstates._rescaled(grid, 0.5),
                                                    levels)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(eps=st.floats(1.02, 1.4), v0=st.floats(0.5, 100.0),
           b=st.floats(0.05, 2.0), levels=st.integers(1, 6))
    def test_coarse_seeded_solve_matches_bisection(self, eps, v0, b, levels):
        spec = RegularizedImage(v0_ev=v0, eps_r=eps, b_A=b)
        self._assert_coarse_seeded_matches_bisection(spec, default_grid(spec, levels), levels)

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(eps=st.floats(1.02, 1.4), levels=st.integers(1, 2))
    @example(eps=1.36592, levels=1)
    @example(eps=1.36592, levels=2)
    def test_coarse_seeded_hard_wall_matches_bisection(self, eps, levels):
        # the a_B/Z/800 grid on which the hard wall is checked against
        # -Z^2/2n^2; the interpolated start reaches into the 1 MeV wall
        scale = BOHR_ANGSTROM / zstates.hydrogenic_charge(eps)
        grid = surface_grid(-20.0, 30.0 * scale, scale / 800.0)
        self._assert_coarse_seeded_matches_bisection(InfiniteBarrierImage(eps), grid, levels)

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(below=st.floats(0.5, 1.0), above=st.floats(0.8, 1.2), eps=st.floats(1.2, 1.35),
           zeta=st.floats(0.5, 2.0))
    def test_coarse_seeded_interface_matches_bisection(self, below, above, eps, zeta):
        # the pocket falls by 0.1-0.2 eV from the coarse grid to this one
        spec = Interface(below, above, eps, zeta)
        self._assert_coarse_seeded_matches_bisection(spec, default_grid(spec), 1)

    def test_bundled_surfaces_bisect_only_the_coarse_grid(self, registry, bisected):
        for surface in registry.surfaces:
            bisected.clear()
            result = solve_surface(surface)
            assert result.shortfall == 0
            grid = default_grid(RegularizedImage(surface.barrier_v0_ev,
                                                 surface.dielectric_constant,
                                                 surface.scattering_length_A))
            assert bisected == cascade(grid, 2)[-1:]

    def test_uncertified_result_falls_back_to_bisection(self, monkeypatch):
        # one linear solve cannot bring an interpolated start vector to rest,
        # so every refine raises and the base and halved grids are bisected
        monkeypatch.setattr(zstates, "_MAX_REFINE_SOLVES", 1)
        spec = Interface(v_barrier_below_ev=0.722149, v_barrier_above_ev=1.13555,
                         eps_r_below=1.31331, zeta_A=0.655533)
        profile = build_potential(spec)
        base, base_psi = zstates._eigensolve(profile, 1)
        fine = build_potential(spec, zstates._rescaled(profile.grid, 0.5))
        with pytest.raises(zstates.SolverError, match="did not converge in 1 linear solves"):
            zstates._refine(fine, base, profile.grid, base_psi)
        exact, _ = zstates._eigensolve(fine, 1)
        result = solve_bound_states(profile, 1)
        energy = result.states[0].energy_mev
        assert energy == float(base[0]) * 1e3
        assert energy == pytest.approx(-13.64, abs=0.01)
        assert exact[0] * 1e3 == pytest.approx(-158.73, abs=0.01)
        assert result.convergence.energy_change_mev == (energy - float(exact[0]) * 1e3,)

    def test_seed_at_the_second_level_does_not_return_it_as_ground(self):
        profile = build_potential(HE_SPEC)
        two, psi = zstates._eigensolve(profile, 2)
        second = (two[1:], profile.grid, psi[:, 1:])
        with pytest.raises(zstates.SolverError, match="Sturm count"):
            zstates._refine(profile, *second)
        # the failed seed falls back to a fresh solve from the grid 4x coarser
        fresh, _ = zstates._eigenpairs(profile, 1)
        ground, _ = zstates._eigensolve(profile, 1)
        result = solve_bound_states(profile, 1, report_convergence=False, _seed=second)
        assert result.states[0].energy_mev == float(fresh[0]) * 1e3
        assert abs(fresh[0] - ground[0]) <= bisection_bound_ev(profile)
        assert result.states[0].node_count == 0

    def test_failed_seed_on_a_small_grid_bisects_that_grid(self, monkeypatch, bisected):
        # 201 points is under 4 * 64 per level: the ladder skips the coarse
        # grid (solid Ne, since helium's ground state leans on the 300 A wall)
        grid = surface_grid(-20.0, 300.0, 1.6)
        assert grid.points == 201
        profile = build_potential(NE_SPEC, grid)
        two, psi = zstates._eigensolve(profile, 2)
        second = (two[1:], grid, psi[:, 1:])
        with pytest.raises(zstates.SolverError, match="Sturm count"):
            zstates._refine(profile, *second)
        ground, _ = zstates._eigensolve(profile, 1)
        bisected.clear()
        built = []
        make_grid = zstates.surface_grid

        def recorded(*args):
            built.append(args)
            return make_grid(*args)

        monkeypatch.setattr(zstates, "surface_grid", recorded)
        result = solve_bound_states(profile, 1, report_convergence=False, _seed=second)
        assert bisected == [grid]
        assert built == []
        assert result.states[0].energy_mev == float(ground[0]) * 1e3

    def test_two_seeds_on_one_level_are_rejected(self):
        profile = build_potential(NE_SPEC, default_grid(NE_SPEC, 3))
        levels, psi = zstates._eigensolve(profile, 3)
        with pytest.raises(zstates.SolverError, match="disjoint"):
            zstates._refine(profile, [levels[0], levels[0] * 0.999, levels[2]],
                            profile.grid, psi[:, [0, 0, 2]])

    def test_halving_solve_makes_one_solve_per_level(self, registry, monkeypatch,
                                                     lapack_calls):
        # the halving grid's vectors are discarded, so its refine stops at the
        # first sweep whose energies certify: one dgtsv per level, one inertia
        # count and no bisection
        eigenpairs = zstates._eigenpairs
        made = {}

        def counted(profile, *args, **kwargs):
            before = lapack_calls.copy()
            out = eigenpairs(profile, *args, **kwargs)
            made[profile.grid] = lapack_calls - before
            return out

        monkeypatch.setattr(zstates, "_eigenpairs", counted)
        levels = 2
        for surface in registry.surfaces:
            spec = RegularizedImage(surface.barrier_v0_ev, surface.dielectric_constant,
                                    surface.scattering_length_A)
            grid = default_grid(spec, levels)
            made.clear()
            solve_bound_states(build_potential(spec, grid), levels)
            assert made[zstates._rescaled(grid, 0.5)] == {"dgtsv": levels, "_count_below": 1}

    def test_certification_never_bisects(self, registry, monkeypatch, lapack_calls):
        # every refine certifies by inertia counts alone: dstebz runs only
        # inside `_eigensolve`, on the spectra, the hard wall and a Stark scan
        refine = zstates._refine
        made = []

        def counted(*args, **kwargs):
            before = lapack_calls.copy()
            try:
                return refine(*args, **kwargs)
            finally:
                made.append(lapack_calls - before)

        monkeypatch.setattr(zstates, "_refine", counted)
        for surface in registry.surfaces:
            spec = RegularizedImage(surface.barrier_v0_ev, surface.dielectric_constant,
                                    surface.scattering_length_A)
            assert solve_bound_states(build_potential(spec), 2).shortfall == 0
        hard_wall = InfiniteBarrierImage(1.056)
        assert solve_bound_states(build_potential(hard_wall, default_grid(hard_wall, 2)),
                                  2).shortfall == 0
        assert all(p.state for p in stark_scan(HE_SPEC, [0.0, 1e4, 3e4]))
        assert len(made) > 20
        assert [c["dstebz"] for c in made] == [0] * len(made)
        assert lapack_calls["dstebz"] == len(registry.surfaces) + 2     # one bisection each

    @staticmethod
    def _assert_halving_change_matches_bisection(spec, levels):
        """Each reported change is E(h) minus bisection of the halved grid, and
        each level E(h) is within bisection's bound of bisection of the grid."""
        grid = default_grid(spec, levels)
        profile = build_potential(spec, grid)
        result = solve_bound_states(profile, levels)
        base, _ = zstates._eigensolve(profile, levels)
        fine = build_potential(spec, zstates._rescaled(grid, 0.5))
        exact, exact_psi = zstates._eigensolve(fine, levels)
        bound = bisection_bound_ev(fine) * 1e3
        assert len(result.convergence.energy_change_mev) == len(result.states)
        for k, change in enumerate(result.convergence.energy_change_mev):
            e_h = grid_energy(result, k)
            assert abs(e_h - float(base[k]) * 1e3) <= bisection_bound_ev(profile) * 1e3
            assert abs(change - (e_h - float(exact[k]) * 1e3)) <= bound
            assert result.states[k].node_count == zstates._count_nodes(exact_psi[:, k])

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(eps=st.floats(1.02, 1.4), v0=st.floats(0.5, 100.0),
           b=st.floats(0.05, 2.0), levels=st.integers(1, 6))
    def test_halving_change_matches_bisection(self, eps, v0, b, levels):
        spec = RegularizedImage(v0_ev=v0, eps_r=eps, b_A=b)
        self._assert_halving_change_matches_bisection(spec, levels)

    def test_halving_report_matches_bisection(self, registry):
        for surface in registry.surfaces:
            spec = RegularizedImage(surface.barrier_v0_ev, surface.dielectric_constant,
                                    surface.scattering_length_A)
            self._assert_halving_change_matches_bisection(spec, 2)


class TestLapackFailures:
    """Each raise of `_eigensolve` and `_refine` on a LAPACK failure, reached by
    patching the routine where `zstates` reads it; `_refine` is called directly,
    since `_eigenpairs` answers its errors with bisection."""

    @staticmethod
    def patch(monkeypatch, name, replace):
        lapack = compiled("scipy.linalg._flapack")
        routine = getattr(lapack, name)
        monkeypatch.setattr(lapack, name, lambda *a, **k: replace(*routine(*a, **k)))

    @staticmethod
    def seeded_refine():
        """The 201-point solid-Ne profile and its bisected two levels as a seed."""
        grid = surface_grid(-20.0, 300.0, 1.6)
        profile = build_potential(NE_SPEC, grid)
        energies, psi = zstates._eigensolve(profile, 2)
        return profile, (energies, grid, psi)

    def test_failed_bisection_raises(self, monkeypatch):
        self.patch(monkeypatch, "dstebz", lambda m, w, iblock, isplit, info: (
            m, w, iblock, isplit, 3))
        with pytest.raises(zstates.SolverError, match=r"bisection found 2 of states 0\.\.1 "
                                                      r"\(info 3\)"):
            zstates._eigensolve(build_potential(NE_SPEC, surface_grid(-20.0, 300.0, 1.6)), 2)

    def test_failed_inverse_iteration_raises(self, monkeypatch):
        self.patch(monkeypatch, "dstein", lambda z, info: (z, 1))
        with pytest.raises(zstates.SolverError,
                           match=r"inverse iteration failed for state 0 \(info 1\)"):
            zstates._eigensolve(build_potential(NE_SPEC, surface_grid(-20.0, 300.0, 1.6)), 2)

    def test_failed_linear_solve_raises(self, monkeypatch):
        profile, seed = self.seeded_refine()
        self.patch(monkeypatch, "dgtsv", lambda dl, d, du, x, info: (dl, d, du, x, 2))
        with pytest.raises(zstates.SolverError,
                           match=r"Rayleigh-quotient solve for state 0 failed \(info 2\)"):
            zstates._refine(profile, *seed)

    @pytest.mark.parametrize("lost", [0.0, math.nan], ids=["zero", "nan"])
    def test_lost_vector_raises(self, monkeypatch, lost):
        profile, seed = self.seeded_refine()

        def lose(dl, d, du, x, info):
            x[:] = lost
            return dl, d, du, x, info

        self.patch(monkeypatch, "dgtsv", lose)
        with pytest.raises(zstates.SolverError,
                           match="Rayleigh-quotient iteration for state 0 lost its vector"):
            zstates._refine(profile, *seed)


class TestCascade:
    """A fresh solve bisects only its coarsest grid and climbs back by refines."""

    @settings(max_examples=15, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(eps=st.floats(1.02, 1.4), v0=st.floats(0.5, 100.0),
           b=st.floats(0.05, 2.0), levels=st.integers(1, 6))
    def test_reported_solve_bisects_one_coarse_grid(self, bisected, eps, v0, b, levels):
        spec = RegularizedImage(v0_ev=v0, eps_r=eps, b_A=b)
        profile = build_potential(spec, default_grid(spec, levels))
        bisected.clear()
        result = solve_bound_states(profile, levels)
        assert bisected == cascade(profile.grid, levels)[-1:]
        assert bisected[0].points < 4 * zstates._COARSE_POINTS_PER_LEVEL * levels
        exact, _ = zstates._eigensolve(profile, levels)
        bound = bisection_bound_ev(profile) * 1e3
        for k in range(len(result.states)):
            assert abs(grid_energy(result, k) - float(exact[k]) * 1e3) <= bound

    def test_failed_refine_on_an_intermediate_grid_bisects_that_grid_only(self, monkeypatch,
                                                                          bisected):
        grid = uniform_default_grid(HE_SPEC)
        grids = cascade(grid, 1)
        assert [g.points for g in grids] == [6453, 1615, 405, 103]
        refine = zstates._refine
        tried = []

        def failing_on_405(profile, *args):
            tried.append(profile.grid)
            if profile.grid == grids[2]:
                raise zstates.SolverError("forced")
            return refine(profile, *args)

        monkeypatch.setattr(zstates, "_refine", failing_on_405)
        profile = build_potential(HE_SPEC, grid)
        result = solve_bound_states(profile, 1, report_convergence=False)
        # 405 points fall back to bisection; 1615 and this grid still refine
        assert bisected == [grids[3], grids[2]]
        assert tried == [grids[2], grids[1], grid]
        exact, _ = zstates._eigensolve(profile, 1)
        bound = bisection_bound_ev(profile) * 1e3
        assert abs(result.states[0].energy_mev - float(exact[0]) * 1e3) <= bound

    def test_bundled_spectra_bisect_once(self, registry, lapack_calls):
        # dstein runs only inside a bisection, once per level: two calls are one
        # bisection of two levels (on 405-419 points of the uniform grids at
        # (a_B/Z)/200), whose one dstebz call is the only one.  Each refine
        # certifies with one inertia count (`_count_below`) and solves one dgtsv
        # per level and sweep: 2 sweeps on the grid 4x coarser, whose energies
        # alone must certify, 3 on the base grid, 1 on the halved grid
        for surface in registry.surfaces:
            spec = RegularizedImage(surface.barrier_v0_ev, surface.dielectric_constant,
                                    surface.scattering_length_A)
            profile = build_potential(spec, uniform_default_grid(spec))
            lapack_calls.clear()
            assert solve_bound_states(profile, 2).shortfall == 0
            assert lapack_calls == {"dgtsv": 12, "dstebz": 1, "dstein": 2, "_count_below": 3}


class TestRichardson:
    def test_bundled_surfaces_bisect_only_the_coarse_grid(self, registry, bisected):
        for surface in registry.surfaces:
            spec = RegularizedImage(surface.barrier_v0_ev, surface.dielectric_constant,
                                    surface.scattering_length_A)
            grid = default_grid(spec)
            for state in (0, 1):
                bisected.clear()
                zstates.richardson_energies(spec, grid, 2, state)
                assert bisected == cascade(grid, state + 1)[-1:]

    def test_second_order_convergence(self):
        energies = zstates.richardson_energies(HE_SPEC, default_grid(HE_SPEC),
                                               halvings=2)
        for ratio in zstates.richardson_ratios(energies):
            assert 3.5 <= ratio <= 4.5

    def test_levels_match_bisection(self):
        energies = zstates.richardson_energies(NE_SPEC, default_grid(NE_SPEC),
                                               halvings=2, state=1)
        grid = default_grid(NE_SPEC)
        for level in energies:
            profile = build_potential(NE_SPEC, grid)
            exact, _ = zstates._eigensolve(profile, 2)
            bound = bisection_bound_ev(profile) * 1e3
            assert abs(level - float(exact[1]) * 1e3) <= bound
            grid = zstates._rescaled(grid, 0.5)


class TestTransition:
    def test_helium_transition(self, he_result):
        tr = transition(he_result.states, 0, 1)
        assert tr.de_k == pytest.approx(5.9, rel=0.02)
        assert tr.f_thz == pytest.approx(0.124, rel=0.02)

    def test_neon_transition(self, ne_result):
        tr = transition(ne_result.states, 0, 1)
        assert tr.de_k == pytest.approx(165.0, rel=0.02)
        assert tr.f_thz == pytest.approx(3.43, rel=0.02)

    def test_frequency_energy_identity(self, he_result, ne_result):
        for result in (he_result, ne_result):
            tr = transition(result.states, 0, 1)
            back = tr.f_thz * PLANCK_EV_S * 1e12 / BOLTZMANN_EV_PER_K
            assert abs(back / tr.de_k - 1.0) < 1e-12

    def test_rejects_bad_ordering(self, he_result):
        with pytest.raises(ValueError):
            transition(he_result.states, 1, 1)
        with pytest.raises(ValueError):
            transition(he_result.states, 1, 0)
        with pytest.raises(ValueError):
            transition(he_result.states, 0, len(he_result.states))


class TestStarkScan:
    def test_zero_field_matches_plain_solve(self, he_result):
        points = stark_scan(HE_SPEC, [0.0])
        # a Stark level is E(h), the plain solve's E_R + (4/3) dE; the
        # eigenvalue-range request differs (1 vs 2 states), which moves the
        # bisection refinement by O(1e-12); identical physics otherwise
        assert points[0].state.energy_mev == pytest.approx(grid_energy(he_result, 0), rel=1e-9)

    def test_small_field_shift_is_linear_in_mean_height(self, he_result):
        # first-order perturbation: dE = e E <z> from the unperturbed state
        field = 5e3                                         # V/m
        e0 = grid_energy(he_result, 0)                      # a Stark level is E(h)
        z0_a = he_result.states[0].mean_z_nm * 10.0
        expected_mev = field * 1e-10 * z0_a * 1e3           # e*E*<z> in meV
        point = stark_scan(HE_SPEC, [field])[0]
        shift = point.state.energy_mev - e0
        assert shift == pytest.approx(expected_mev, rel=0.05)

    def test_pressing_field_raises_energy_and_pulls_inward(self, he_result):
        point = stark_scan(HE_SPEC, [1e5])[0]
        assert point.state.energy_mev > he_result.states[0].energy_mev
        assert point.state.mean_z_nm < he_result.states[0].mean_z_nm

    def test_strong_pulling_field_is_flagged(self):
        points = stark_scan(HE_SPEC, [-1e6])
        assert points[0].state is None
        assert "no bound state" in points[0].note

    def test_rejects_non_finite_field(self):
        with pytest.raises(ValueError):
            stark_scan(HE_SPEC, [math.inf])

    def test_matches_independent_solves(self, monkeypatch):
        refined = []
        refine = zstates._refine

        def counted(*args):
            out = refine(*args)
            refined.append(out)
            return out

        monkeypatch.setattr(zstates, "_refine", counted)
        fields = [0.0, 2e3, 5e3, 1e4, -1e6, 2e4, 3e4, 1e5]
        grid = uniform_default_grid(HE_SPEC)
        points = stark_scan(HE_SPEC, fields, grid)
        # 0 and 2e4 V/m have no bound predecessor, so each climbs the cascade
        # from its coarsest grid (103 points) through 405 and 1615 points to
        # this one: three refines each.  The other fields are refined once,
        # from the previous field's ground state; only -1e6, which binds
        # nothing, lies too far from its predecessor to certify (a failed
        # refine, not counted) and climbs the cascade as well: 3 * 3 + 5
        assert [g.points for g in cascade(grid, 1)] == [6453, 1615, 405, 103]
        assert len(refined) == 14
        for point in points:
            tilted = dataclasses.replace(HE_SPEC, pressing_field_v_per_m=point.field_v_per_m)
            profile = build_potential(tilted, grid)
            alone = solve_bound_states(profile, 1, report_convergence=False)
            if not alone.states:
                assert point.state is None
                continue
            bound = bisection_bound_ev(profile) * 1e3
            assert abs(point.state.energy_mev - alone.states[0].energy_mev) <= bound
            assert point.state.node_count == 0
            assert point.state.mean_z_nm == pytest.approx(alone.states[0].mean_z_nm,
                                                          rel=1e-9)

    def test_uncertified_field_bisects_only_the_coarse_grid(self, bisected):
        # -1e6 V/m binds nothing, and its predecessor's ground state does not
        # certify on its grid; its fresh solve bisects the cascade's coarsest grid
        grid = default_grid(HE_SPEC)
        points = stark_scan(HE_SPEC, [1e4, -1e6], grid)
        assert points[0].state is not None and points[1].state is None
        coarsest = cascade(grid, 1)[-1]
        assert bisected == [coarsest, coarsest]


class TestIdentityOracles:
    """Exact identities that tie units, potentials, grids and the eigensolver."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(eps=st.floats(1.02, 1.4), v0=st.floats(0.5, 100.0), b=st.floats(0.05, 2.0),
           field=st.floats(50.0, 3e4))
    def test_stark_slope_is_the_mean_height_above_the_surface(self, eps, v0, b, field):
        # Hellmann-Feynman: the field adds e F z on z >= 0 only, so
        # dE0/dF = e <z>_+, which is 1e-7 <z>_+ (z in A) in meV per V/m.  The
        # central differences over +-25 and +-50 V/m are combined to cancel
        # their O(dF^2) error: alone, the +-50 one is 1.5e-4 off at eps = 1.02
        spec = RegularizedImage(v0_ev=v0, eps_r=eps, b_A=b)
        grid = default_grid(spec)
        points = stark_scan(spec, [field + d for d in (-50.0, -25.0, 0.0, 25.0, 50.0)], grid)
        e = [p.state.energy_mev for p in points]
        slope = (4.0 * (e[3] - e[1]) / 50.0 - (e[4] - e[0]) / 100.0) / 3.0
        z, psi = points[2].state.z_A, points[2].state.psi
        above = z >= 0.0
        expected = 1e-7 * np.sum(z[above] * psi[above] ** 2 * grid.weights()[above])
        assert slope == pytest.approx(expected, rel=1e-4)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(eps=st.floats(1.02, 1.4), v0=st.floats(0.5, 100.0), b=st.floats(0.05, 2.0))
    def test_cutoff_slope_is_the_mean_inverse_square_distance(self, eps, v0, b):
        # Hellmann-Feynman: dV/db = A/(z+b)^2 on z >= 0 and 0 below, so
        # dE0/db = <A/(z+b)^2>_+.  The central differences over +-1e-3 b and
        # +-2e-3 b are combined to cancel their O(db^2) error; all five solves
        # share the default grid of the central b
        spec = RegularizedImage(v0_ev=v0, eps_r=eps, b_A=b)
        grid = default_grid(spec)
        step = 1e-3 * b
        e = []
        for d in (-2.0, -1.0, 0.0, 1.0, 2.0):
            shifted = dataclasses.replace(spec, b_A=b + d * step)
            result = solve_bound_states(build_potential(shifted, grid), 1,
                                        report_convergence=False)
            e.append(result.states[0])
        slope = (4.0 * (e[3].energy_mev - e[1].energy_mev) / (2.0 * step)
                 - (e[4].energy_mev - e[0].energy_mev) / (4.0 * step)) / 3.0
        z, psi = e[2].z_A, e[2].psi
        above = z >= 0.0
        a_ev_a = zstates.hydrogenic_charge(eps) * HARTREE_EV * BOHR_ANGSTROM
        expected = 1e3 * a_ev_a * np.sum(psi[above] ** 2 / (z[above] + b) ** 2
                                         * grid.weights()[above])
        assert slope == pytest.approx(expected, rel=1e-5)

    def test_levels_in_hydrogenic_units_do_not_depend_on_eps(self):
        # with z and b in a_B/Z and V0 in Z^2 Ha the Hamiltonian is Z^2 times
        # one eps-free operator, on grids scaled the same way
        reduced = []
        for eps in np.linspace(1.02, 1.4, 13):
            charge = zstates.hydrogenic_charge(eps)
            length = BOHR_ANGSTROM / charge
            energy = charge * charge * HARTREE_EV         # Z^2 Ha in eV
            spec = RegularizedImage(v0_ev=2000.0 * energy, eps_r=eps, b_A=0.05 * length)
            grid = surface_grid(-length, 60.0 * length, length / 200.0)
            result = solve_bound_states(build_potential(spec, grid), 3,
                                        report_convergence=False)
            assert result.shortfall == 0
            reduced.append([s.energy_mev * 1e-3 / energy for s in result.states])
        assert np.array(reduced) == pytest.approx(np.array([reduced[0]] * 13), rel=1e-8)


def fd_levels_below(profile, e_mev):
    """Sturm count: eigenvalues of the finite-difference matrix below `e_mev`."""
    *_, diag, off = zstates._hamiltonian(profile)
    floor = np.min(profile.samples_ev) / HARTREE_EV - 1.0   # below min(V), so every level
    return len(eigvalsh_tridiagonal(diag, off, select="v", lapack_driver="stebz",
                                    select_range=(floor, e_mev * 1e-3 / HARTREE_EV)))


class TestExactLevels:
    """Random `RegularizedImage` spectra against their exact levels (`whittaker.py`)."""

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(eps=st.floats(1.02, 1.4), v0=st.floats(0.5, 100.0), b=st.floats(0.05, 2.0),
           levels=st.integers(1, 3))
    def test_fast_oracle_matches_mpmath(self, eps, v0, b, levels):
        assert (regularized_image_levels(v0, eps, b, levels)
                == pytest.approx(_exact_regularized_levels(v0, eps, b, levels), rel=1e-10))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(eps=st.floats(1.02, 1.4), v0=st.floats(0.5, 100.0), b=st.floats(0.05, 2.0),
           levels=st.integers(1, 6))
    def test_levels_lie_within_twice_the_halving_change(self, eps, v0, b, levels):
        # Measured on the graded default grids, 5335 levels of 1516 specs over
        # these ranges and their corners: b >= h0 everywhere, and (E(h) - E)/dE,
        # with dE the halving change, is near 4/3 but spans 0.57 to 4.4, because
        # dE is small where E_R is already exact to a few 1e-6.  So no c bounds
        # |E(h) - E| by c |dE| alone; with c = 2 the rest is at most 2.7e-7 |E|.
        # The printed level E_R = E(h) - (4/3) dE is within 7.0e-6 |E| (the
        # corner eps = 1.4, V0 = 100 eV, b = 2 A, ground state).
        spec = RegularizedImage(v0_ev=v0, eps_r=eps, b_A=b)
        profile = build_potential(spec, default_grid(spec, levels))
        result = solve_bound_states(profile, levels)
        exact = regularized_image_levels(v0, eps, b, levels + 1)
        # the exact roots below the midpoint (in nu) of levels and levels + 1 are
        # all the finite-difference matrix has there: the scan missed none
        cut = energy_of((nu_of(exact[-2], eps) + nu_of(exact[-1], eps)) / 2.0, eps)
        assert fd_levels_below(profile, cut) == levels
        assert result.shortfall == 0
        assert b >= profile.grid.h_A
        for k, (change, e) in enumerate(zip(result.convergence.energy_change_mev,
                                            exact[:levels], strict=True)):
            assert abs(grid_energy(result, k) - e) <= 2.0 * abs(change) + 1e-6 * abs(e)
            assert abs(result.states[k].energy_mev - e) <= 1e-5 * abs(e)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(eps=st.floats(1.02, 1.4), v0=st.floats(0.5, 100.0), b=st.floats(0.05, 2.0),
           levels=st.integers(1, 6))
    @example(eps=1.4, v0=100.0, b=2.0, levels=6)        # the worst corner measured
    @example(eps=1.02, v0=0.5, b=0.05, levels=6)
    @example(eps=1.4, v0=0.5, b=0.05, levels=6)
    def test_printed_levels_match_the_exact_levels(self, tmp_path_factory, eps, v0, b,
                                                    levels):
        # `states` on a substance file holding this surface, read back from json
        folder = tmp_path_factory.mktemp("spectrum")
        surface = {"name": "S", "number_density_A3": 0.02, "scattering_length_A": b,
                   "dielectric_constant": eps, "barrier_V0_eV": v0}
        (folder / "s.json").write_text(json.dumps({"species": [], "surfaces": [surface]}))
        assert cli.main(["states", "--substances", str(folder / "s.json"), "--substance", "S",
                         "--levels", str(levels), "--format", "json",
                         "--output", str(folder / "out.json")]) == 0
        rows = json.loads((folder / "out.json").read_text())["rows"]
        exact = regularized_image_levels(v0, eps, b, levels)
        assert [row["energy_meV"] for row in rows] == pytest.approx(exact, rel=1e-5)

    def test_printed_bundled_energies_are_the_exact_levels(self, registry, capsys):
        # every E1, E2 table2 prints is within 1e-5 of the exact level in json,
        # and in md it is the exact level's 4 significant digits, and dE and f
        # those of the exact transition
        exact = {}
        for surface in registry.surfaces:
            exact[surface.name] = regularized_image_levels(
                surface.barrier_v0_ev, surface.dielectric_constant,
                surface.scattering_length_A, 2)
        assert cli.main(["table2", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["substance"] for r in rows] == list(exact)
        for row in rows:
            assert [row["E1_meV"], row["E2_meV"]] == pytest.approx(exact[row["substance"]],
                                                                   rel=1e-5)
        assert cli.main(["table2"]) == 0
        md = capsys.readouterr().out.splitlines()[2:]
        for line in md:
            cells = [c.strip() for c in line.strip("|").split("|")]
            e1, e2 = exact[cells[0]]
            de_ev = (e2 - e1) * 1e-3
            assert cells[5:9] == [f"{e1:.4g}", f"{e2:.4g}", f"{de_ev / BOLTZMANN_EV_PER_K:.4g}",
                                  f"{de_ev / (PLANCK_EV_S * 1e12):.3g}"]


class TestPressingFieldOracle:
    """`states --field` against the levels found by shooting (`shooting.py`)."""

    SURFACES = st.sampled_from(["liquid 3He", "liquid 4He", "solid Ne", "solid H2", "solid HD",
                                "solid D2"])

    @staticmethod
    def printed(tmp_path_factory, argv):
        out = tmp_path_factory.mktemp("field") / "out.json"
        assert cli.main(["states", *argv, "--format", "json", "--output", str(out)]) == 0
        return [row["energy_meV"] for row in json.loads(out.read_text())["rows"]]

    @staticmethod
    def shot(surface, field, e, k, scale, b_A=None):
        """Shooting's level k, bracketed by the printed e +- 1% of the scale."""
        return shooting.level(surface.barrier_v0_ev, surface.dielectric_constant,
                              surface.scattering_length_A if b_A is None else b_A, field,
                              e - 0.01 * scale, e + 0.01 * scale, k)

    def test_shooting_matches_the_exact_level_at_zero_field(self):
        (exact,) = regularized_image_levels(1.1, 1.056, 0.62, 1)
        level = shooting.level(1.1, 1.056, 0.62, 0.0, 1.01 * exact, 0.99 * exact)
        assert level == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("eps", [1.056, 1.4])
    def test_shooting_matches_the_exact_excited_and_hard_wall_levels(self, eps):
        exact = regularized_image_levels(1.1, eps, 0.62, 2)[1]
        level = shooting.level(1.1, eps, 0.62, 0.0, 1.01 * exact, 0.99 * exact, k=1)
        assert level == pytest.approx(exact, rel=1e-10)
        # b = 0 is the exact wall, whose levels are -Z^2/2n^2 at zero field
        for k, exact in enumerate(hydrogenic_levels(eps, 2)):
            level = shooting.level(1e6, eps, 0.0, 0.0, 1.01 * exact, 0.99 * exact, k)
            assert level == pytest.approx(exact, rel=1e-10)

    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(name=SURFACES, field=st.floats(0.0, 1e5))
    @example(name="liquid 3He", field=1e5)      # the widest image tail, pressed hardest
    def test_printed_ground_level_matches_shooting(self, registry, tmp_path_factory, name,
                                                   field):
        (e,) = self.printed(tmp_path_factory, ["--substance", name, "--levels", "1",
                                               "--field", repr(field)])
        surface = registry.get_surface(name)
        # the field carries E through 0, so the scale is the field-free level's
        scale = abs(float(hydrogenic_levels(surface.dielectric_constant, 1)[0]))
        level = self.shot(surface, field, e, 0, scale)
        assert abs(e - level) <= 1e-5 * max(abs(level), scale)

    @settings(max_examples=1, deadline=None, derandomize=True)
    @given(name=SURFACES, field=st.floats(0.0, 1e5))
    @example(name="liquid 3He", field=1e5)
    def test_printed_second_level_matches_shooting(self, registry, tmp_path_factory, name,
                                                   field):
        _, e = self.printed(tmp_path_factory, ["--substance", name, "--levels", "2",
                                               "--field", repr(field)])
        surface = registry.get_surface(name)
        scale = abs(float(hydrogenic_levels(surface.dielectric_constant, 2)[1]))
        level = self.shot(surface, field, e, 1, scale)
        assert abs(e - level) <= 1e-5 * max(abs(level), scale)

    @settings(max_examples=1, deadline=None, derandomize=True)
    @given(name=SURFACES, field=st.floats(0.0, 1e5))
    @example(name="solid D2", field=1e5)        # the largest eps: the stand-in's worst
    def test_printed_hard_wall_ground_level_matches_the_exact_wall(self, registry,
                                                                   tmp_path_factory, name,
                                                                   field):
        # the 1 MeV stand-in puts the level up to 6.2e-4 below the exact wall's,
        # the bound of test_hard_wall_default_grids_match_hydrogenic
        (e,) = self.printed(tmp_path_factory, ["--substance", name, "--levels", "1",
                                               "--field", repr(field), "--b", "0",
                                               "--v0", "1e6"])
        surface = registry.get_surface(name)
        scale = abs(float(hydrogenic_levels(surface.dielectric_constant, 1)[0]))
        level = self.shot(surface, field, e, 0, scale, b_A=0.0)
        assert abs(e - level) <= 1e-3 * max(abs(level), scale)


class TestWavefunctionDump:
    def test_two_column_format_and_norm(self, he_result):
        buf = io.StringIO()
        zstates.write_wavefunction(he_result.states[0], buf, 1)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("# z_nm psi_nm^-1/2 state=1 energy_mev=")
        data = np.array([[float(tok) for tok in line.split()] for line in lines[1:]])
        assert data.shape[1] == 2
        grid = default_grid(HE_SPEC)
        assert data[:, 0] == pytest.approx(grid.nodes() / 10.0, rel=1e-10)
        assert np.sum(data[:, 1] ** 2 * grid.weights() / 10.0) == pytest.approx(1.0, abs=1e-8)

    def test_psi_is_printed_to_the_digits_above_its_noise(self, he_result):
        # fixed point, the last digit at most 1e-8 of max |psi| and above 1e-9
        # of it, with no negative zero
        state = he_result.states[1]
        buf = io.StringIO()
        zstates.write_wavefunction(state, buf, 2)
        cells = [line.split()[1] for line in buf.getvalue().splitlines()[1:]]
        decimals = {len(c.split(".")[1]) for c in cells}
        assert len(decimals) == 1
        unit = 10.0 ** -decimals.pop()
        top = np.max(np.abs(state.psi)) * math.sqrt(10.0)
        assert 1e-9 * top < unit <= 1e-8 * top
        assert not any(c.startswith("-") and float(c) == 0.0 for c in cells)
        printed = np.array([float(c) for c in cells])
        assert np.max(np.abs(printed - state.psi * math.sqrt(10.0))) <= unit / 2 * (1 + 1e-9)
