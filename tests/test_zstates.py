import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from eqls import cli, zstates
from eqls.units import BOHR_ANGSTROM, BOLTZMANN_EV_PER_K, HARTREE_EV, PLANCK_EV_S
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


def bisection_bound_ev(grid, v_ev):
    """4 eps |T|_1 of the finite-difference Hamiltonian on `grid`, in eV."""
    *_, diag, off = zstates._hamiltonian(grid, v_ev)
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
        assert grid == surface_grid(-20.0, 300.0, 1.6)      # the array is no field

    def test_point_cap_is_checked_before_allocation(self):
        GridSpec(-1.0, 1.0, zstates.MAX_GRID_POINTS)      # holds three numbers only
        with pytest.raises(ValueError, match=CAP):
            GridSpec(-1.0, 1.0, zstates.MAX_GRID_POINTS + 1)
        with pytest.raises(ValueError, match=CAP):
            default_grid(HE_SPEC, levels=100)               # about 6.2M nodes
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
        for spec in (RegularizedImage(1.0, 1.02, 0.5), RegularizedImage(1.0, 1.4, 0.5)):
            for levels in range(1, 38):
                grid = default_grid(spec, levels)
                assert grid.points * levels <= zstates.MAX_EIGENVECTOR_BLOCK

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
            richardson = zstates._halved(richardson)
        grids.append(richardson)
        for grid in grids:
            assert zstates._halved(grid).points <= zstates.MAX_GRID_POINTS

    def test_surface_grid_straddles_zero_between_nodes(self):
        g = surface_grid(-20.0, 100.0, 0.37)
        z = g.nodes()
        below = z[z < 0]
        above = z[z > 0]
        assert below[-1] == pytest.approx(-g.h_A / 2)
        assert above[0] == pytest.approx(g.h_A / 2)
        assert g.z_min_A <= -20.0 and g.z_max_A >= 100.0


class TestBuildPotential:
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
        with pytest.raises(ValueError, match=r"V0 = 1000000000 eV is outside \(0, 1000000\]"):
            RegularizedImage(1e9, 1.056, 0.62)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            RegularizedImage(1.1, 0.9, 0.62)
        with pytest.raises(ValueError):
            RegularizedImage(1.1, 1.056, -0.1)
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
        # is 5.5e-4 of the energy, under the 1e-3 of the unresolved-level note
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
        halved = zstates._halved(UNRESOLVED_B_GRID)

        def fail_on_the_halved_grid(spec, grid, *args, **kwargs):
            if grid == halved:
                raise zstates.SolverError("forced")
            return eigenpairs(spec, grid, *args, **kwargs)

        monkeypatch.setattr(zstates, "_eigenpairs", fail_on_the_halved_grid)
        result = solve_bound_states(build_potential(UNRESOLVED_B_SPEC, UNRESOLVED_B_GRID), 1)
        first, second = result.convergence.note.split("; ")
        assert first == "refined solve failed"
        assert "below the grid spacing" in second
        assert result.convergence.energy_change_mev == ()


class TestRefine:
    """Seeded, certified refinement against bisection on the same grid."""

    @staticmethod
    def _assert_refined_from_matches_bisection(spec, start_grid, grid, count):
        """Refine `grid` from bisection on `start_grid`; compare with bisection on `grid`."""
        start = build_potential(spec, start_grid)
        seeds, seed_psi = zstates._eigensolve(start_grid, start.samples_ev, count)
        profile = build_potential(spec, grid)
        energies, psi = zstates._refine(grid, profile.samples_ev, seeds, start_grid.nodes(),
                                        seed_psi)
        exact, exact_psi = zstates._eigensolve(grid, profile.samples_ev, count)
        w = grid.weights()[:, None]
        assert np.max(np.abs(energies - exact)) <= bisection_bound_ev(grid, profile.samples_ev)
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
        self._assert_refined_from_matches_bisection(spec, grid, zstates._halved(grid), levels)

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
        base, base_psi = zstates._eigensolve(profile.grid, profile.samples_ev, 1)
        fine = build_potential(spec, zstates._halved(profile.grid))
        with pytest.raises(zstates.SolverError, match="did not converge in 1 linear solves"):
            zstates._refine(fine.grid, fine.samples_ev, base, profile.grid.nodes(), base_psi)
        exact, _ = zstates._eigensolve(fine.grid, fine.samples_ev, 1)
        result = solve_bound_states(profile, 1)
        energy = result.states[0].energy_mev
        assert energy == float(base[0]) * 1e3
        assert energy == pytest.approx(-13.64, abs=0.01)
        assert exact[0] * 1e3 == pytest.approx(-158.73, abs=0.01)
        assert result.convergence.energy_change_mev == (energy - float(exact[0]) * 1e3,)

    def test_seed_at_the_second_level_does_not_return_it_as_ground(self):
        profile = build_potential(HE_SPEC)
        two, psi = zstates._eigensolve(profile.grid, profile.samples_ev, 2)
        second = (two[1:], profile.grid.nodes(), psi[:, 1:])
        with pytest.raises(zstates.SolverError, match="Sturm count"):
            zstates._refine(profile.grid, profile.samples_ev, *second)
        # the failed seed falls back to a fresh solve from the grid 4x coarser
        fresh, _ = zstates._eigenpairs(HE_SPEC, profile.grid, profile.samples_ev, 1)
        ground, _ = zstates._eigensolve(profile.grid, profile.samples_ev, 1)
        result = solve_bound_states(profile, 1, report_convergence=False, _seed=second)
        assert result.states[0].energy_mev == float(fresh[0]) * 1e3
        assert (abs(fresh[0] - ground[0])
                <= bisection_bound_ev(profile.grid, profile.samples_ev))
        assert result.states[0].node_count == 0

    def test_failed_seed_on_a_small_grid_bisects_that_grid(self, monkeypatch, bisected):
        # 201 points is under 4 * 64 per level: the ladder skips the coarse
        # grid (solid Ne, since helium's ground state leans on the 300 A wall)
        grid = surface_grid(-20.0, 300.0, 1.6)
        assert grid.points == 201
        profile = build_potential(NE_SPEC, grid)
        two, psi = zstates._eigensolve(grid, profile.samples_ev, 2)
        second = (two[1:], grid.nodes(), psi[:, 1:])
        with pytest.raises(zstates.SolverError, match="Sturm count"):
            zstates._refine(grid, profile.samples_ev, *second)
        ground, _ = zstates._eigensolve(grid, profile.samples_ev, 1)
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
        levels, psi = zstates._eigensolve(profile.grid, profile.samples_ev, 3)
        with pytest.raises(zstates.SolverError, match="disjoint"):
            zstates._refine(profile.grid, profile.samples_ev,
                            [levels[0], levels[0] * 0.999, levels[2]],
                            profile.grid.nodes(), psi[:, [0, 0, 2]])

    def test_halving_solve_makes_one_solve_per_level(self, registry, monkeypatch,
                                                     lapack_calls):
        # the halving grid's vectors are discarded, so its refine stops at the
        # first sweep whose energies certify: one dgtsv per level, one Sturm count
        eigenpairs = zstates._eigenpairs
        made = {}

        def counted(spec, grid, *args, **kwargs):
            before = lapack_calls.copy()
            out = eigenpairs(spec, grid, *args, **kwargs)
            made[grid] = lapack_calls - before
            return out

        monkeypatch.setattr(zstates, "_eigenpairs", counted)
        levels = 2
        for surface in registry.surfaces:
            spec = RegularizedImage(surface.barrier_v0_ev, surface.dielectric_constant,
                                    surface.scattering_length_A)
            grid = default_grid(spec, levels)
            made.clear()
            solve_bound_states(build_potential(spec, grid), levels)
            assert made[zstates._halved(grid)] == {"dgtsv": levels, "dstebz": 1}

    @staticmethod
    def _assert_halving_change_matches_bisection(spec, levels):
        """Each reported change is E(h) minus bisection of the halved grid, and
        each level E(h) is within bisection's bound of bisection of the grid."""
        grid = default_grid(spec, levels)
        profile = build_potential(spec, grid)
        result = solve_bound_states(profile, levels)
        base, _ = zstates._eigensolve(grid, profile.samples_ev, levels)
        fine = build_potential(spec, zstates._halved(grid))
        exact, exact_psi = zstates._eigensolve(fine.grid, fine.samples_ev, levels)
        bound = bisection_bound_ev(fine.grid, fine.samples_ev) * 1e3
        assert len(result.convergence.energy_change_mev) == len(result.states)
        for k, change in enumerate(result.convergence.energy_change_mev):
            e_h = grid_energy(result, k)
            assert abs(e_h - float(base[k]) * 1e3) <= bisection_bound_ev(grid, profile.samples_ev) * 1e3
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
        exact, _ = zstates._eigensolve(profile.grid, profile.samples_ev, levels)
        bound = bisection_bound_ev(profile.grid, profile.samples_ev) * 1e3
        for k in range(len(result.states)):
            assert abs(grid_energy(result, k) - float(exact[k]) * 1e3) <= bound

    def test_failed_refine_on_an_intermediate_grid_bisects_that_grid_only(self, monkeypatch,
                                                                          bisected):
        grid = uniform_default_grid(HE_SPEC)
        grids = cascade(grid, 1)
        assert [g.points for g in grids] == [6453, 1615, 405, 103]
        refine = zstates._refine
        tried = []

        def failing_on_405(g, *args):
            tried.append(g)
            if g == grids[2]:
                raise zstates.SolverError("forced")
            return refine(g, *args)

        monkeypatch.setattr(zstates, "_refine", failing_on_405)
        profile = build_potential(HE_SPEC, grid)
        result = solve_bound_states(profile, 1, report_convergence=False)
        # 405 points fall back to bisection; 1615 and this grid still refine
        assert bisected == [grids[3], grids[2]]
        assert tried == [grids[2], grids[1], grid]
        exact, _ = zstates._eigensolve(grid, profile.samples_ev, 1)
        bound = bisection_bound_ev(grid, profile.samples_ev) * 1e3
        assert abs(result.states[0].energy_mev - float(exact[0]) * 1e3) <= bound

    def test_bundled_spectra_bisect_once(self, registry, lapack_calls):
        # dstein runs only inside a bisection, once per level: two calls are one
        # bisection of two levels (on 405-419 points of the uniform grids at
        # (a_B/Z)/200).  Each refine certifies with one Sturm count (dstebz) and
        # solves one dgtsv per level and sweep: 2 sweeps on the grid 4x coarser,
        # whose energies alone must certify, 3 on the base grid, 1 on the halved
        # grid
        for surface in registry.surfaces:
            spec = RegularizedImage(surface.barrier_v0_ev, surface.dielectric_constant,
                                    surface.scattering_length_A)
            profile = build_potential(spec, uniform_default_grid(spec))
            lapack_calls.clear()
            assert solve_bound_states(profile, 2).shortfall == 0
            assert lapack_calls == {"dgtsv": 12, "dstebz": 4, "dstein": 2}


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
            exact, _ = zstates._eigensolve(grid, profile.samples_ev, 2)
            bound = bisection_bound_ev(grid, profile.samples_ev) * 1e3
            assert abs(level - float(exact[1]) * 1e3) <= bound
            grid = zstates._halved(grid)


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
            bound = bisection_bound_ev(grid, profile.samples_ev) * 1e3
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
    *_, diag, off = zstates._hamiltonian(profile.grid, profile.samples_ev)
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
