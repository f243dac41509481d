import contextlib
import csv
import importlib.resources
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqls
from eqls import phases
from eqls.cli import main
from eqls.units import compiled
from eqls.zstates import MAX_GRID_POINTS

GOLDEN = Path(__file__).parent / "golden"

TWO_POINT_CURVE = ("phase-diagram", "--gamma0", "127", "--t-min", "1", "--t-max", "20",
                   "--points", "2")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestTable1:
    def test_csv_reproduces_quantumness_column(self, capsys):
        code, out, _ = run(capsys, "table1", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 6
        expected = {"3He": 3.09, "4He": 2.68, "Ne": 0.59,
                    "H2": 1.73, "HD": 1.41, "D2": 1.22}
        for row in rows:
            assert float(row["de_boer"]) == pytest.approx(
                expected[row["species"]], abs=0.01)

    def test_csv_and_json_carry_identical_numbers(self, capsys):
        code, out_csv, _ = run(capsys, "table1", "--format", "csv")
        code2, out_json, _ = run(capsys, "table1", "--format", "json")
        assert code == code2 == 0
        doc = json.loads(out_json)
        for csv_row, json_row in zip(parse_csv(out_csv), doc["rows"]):
            for key, value in json_row.items():
                if isinstance(value, float):
                    assert float(csv_row[key]) == value
                else:
                    assert csv_row[key] == str(value)


class TestTable2:
    def test_unknown_substance_exits_2_listing_names(self, capsys):
        code, _, err = run(capsys, "table2", "--substance", "unknownium")
        assert code == 2
        assert "unknownium" in err and "solid Ne" in err

    def test_residuals_report_within_tolerance(self, capsys):
        code, out, _ = run(capsys, "table2", "--substance", "liquid 4He",
                           "--residuals", "--format", "csv")
        assert code == 0
        row = parse_csv(out)[0]
        for col in ("res_E1_meV", "res_E2_meV", "res_dE_K", "res_f_THz",
                    "res_z1_nm", "res_z2_nm"):
            assert abs(float(row[col])) < 0.10

    def test_residuals_do_not_mutate_reference_data(self, capsys):
        first = run(capsys, "table2", "--substance", "solid Ne", "--residuals",
                    "--format", "csv")
        second = run(capsys, "table2", "--substance", "solid Ne", "--residuals",
                     "--format", "csv")
        assert first == second

    def test_cutoff_override_changes_spectrum(self, capsys):
        _, out_default, _ = run(capsys, "table2", "--substance", "solid Ne",
                                "--format", "csv")
        _, out_b, _ = run(capsys, "table2", "--substance", "solid Ne",
                          "--b", "0.5", "--format", "csv")
        e_default = float(parse_csv(out_default)[0]["E1_meV"])
        e_b = float(parse_csv(out_b)[0]["E1_meV"])
        assert e_b > e_default      # larger cutoff, shallower binding

    def test_solver_failure_exits_3(self, capsys, monkeypatch):
        # non-convergence surfaces as exit status 3 (a real regularized
        # image potential always binds, so the failure is injected)
        from eqls.zstates import SolverError

        def boom(*args, **kwargs):
            raise SolverError("inverse iteration failed while refining states 0..1")

        monkeypatch.setattr("eqls.zstates.solve_bound_states", boom)
        code, _, err = run(capsys, "table2", "--substance", "solid Ne")
        assert code == 3
        assert "inverse iteration" in err


class TestStates:
    def test_dump_writes_one_file_per_state(self, capsys, tmp_path):
        outdir = tmp_path / "psi"
        code, out, _ = run(capsys, "states", "--substance", "liquid 4He",
                           "--levels", "2", "--dump-psi", str(outdir),
                           "--format", "csv")
        assert code == 0
        files = sorted(outdir.glob("*.dat"))
        assert [f.name for f in files] == ["liquid_4He_state1.dat",
                                           "liquid_4He_state2.dat"]
        header = files[0].read_text().splitlines()[0]
        assert header.startswith("# z_nm psi_nm^-1/2 state=1")

    def test_pressing_field_shifts_ground_state(self, capsys):
        _, out0, _ = run(capsys, "states", "--substance", "liquid 4He",
                         "--levels", "1", "--format", "csv")
        _, out1, _ = run(capsys, "states", "--substance", "liquid 4He",
                         "--levels", "1", "--field", "1e5", "--format", "csv")
        e0 = float(parse_csv(out0)[0]["energy_meV"])
        e1 = float(parse_csv(out1)[0]["energy_meV"])
        assert e1 > e0

    def test_auto_grid_holds_all_requested_levels(self, capsys):
        # the default grid scales with the number of requested states
        code, out, err = run(capsys, "states", "--substance", "liquid 4He",
                             "--levels", "6", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 6
        assert [int(r["nodes"]) for r in rows] == list(range(6))

    @pytest.mark.parametrize("argv", [["--levels", "100"], ["--grid-h", "1e-4"]])
    def test_grid_over_the_point_cap_exits_2(self, capsys, argv):
        # rejected while the grid is planned, before anything is allocated
        code, out, err = run(capsys, "states", "--substance", "liquid 4He", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: grid of ")
        assert err.rstrip().endswith(f", {MAX_GRID_POINTS}]")

    def test_shortfall_noted_on_stderr_for_truncated_grid(self, capsys):
        # capping the domain by hand cuts off the upper states
        code, out, err = run(capsys, "states", "--substance", "liquid 4He",
                             "--levels", "6", "--grid-zmax", "2300",
                             "--format", "csv")
        assert code == 0
        assert "bound" in err
        assert len(parse_csv(out)) < 6


class TestClassify:
    def test_label_on_stdout(self, capsys):
        code, out, _ = run(capsys, "classify", "--density", "1e9",
                           "--temperature", "1")
        assert code == 0
        assert out == "classical Coulomb liquid\n"

    def test_json_includes_gamma(self, capsys):
        code, out, _ = run(capsys, "classify", "--density", "1e9",
                           "--temperature", "1", "--format", "json")
        doc = json.loads(out)
        assert doc["rows"][0]["phase"] == "classical Coulomb liquid"
        assert doc["rows"][0]["gamma"] == pytest.approx(93.012, rel=1e-3)

    def test_gamma_at_the_smallest_degeneracy(self, capsys):
        # E_F/kT = 2.8e-308: mpmath's -Li2(-(e^x - 1)) gives Gamma = 9.365993e-152
        code, out, _ = run(capsys, "classify", "--density", "1e-297",
                           "--temperature", "1", "--format", "csv")
        assert code == 0
        assert parse_csv(out)[0]["gamma"] == "9.365993e-152"

    def test_quadrature_failure_exits_3(self, capsys, monkeypatch):
        # the quadrature is looked up at call time, so the patched one is used
        monkeypatch.setattr(compiled("scipy.integrate._quadpack"), "_qagse",
                            lambda *args: (1.0, 1e-3, 0))
        code, out, err = run(capsys, "classify", "--density", "1e9", "--temperature", "1")
        assert code == 3 and out == ""
        assert err.startswith("numerical error: kinetic-energy quadrature reached")

    def test_quadrature_error_code_exits_3(self, capsys, monkeypatch):
        # QUADPACK's ier = 1 (subdivision limit) with an error estimate that looks fine
        monkeypatch.setattr(compiled("scipy.integrate._quadpack"), "_qagse",
                            lambda *args: (0.5, 1e-15, 1))
        code, out, err = run(capsys, "classify", "--density", "1e9", "--temperature", "1")
        assert code == 3 and out == ""
        assert err.startswith("numerical error: kinetic-energy quadrature stopped with "
                              "QUADPACK code 1 at eta = ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    def test_one_kinetic_integral_per_point(self, capsys, f1_calls, fmt):
        code, _, _ = run(capsys, "classify", "--density", "1e9", "--temperature", "1",
                         "--format", fmt)
        assert code == 0 and len(f1_calls) == 1


class TestPhaseDiagram:
    def test_two_runs_are_byte_identical(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for target in (a, b):
            code = main(["phase-diagram", "--gamma0", "127", "--format", "csv",
                         "--output", str(target)])
            assert code == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_matches_stored_golden(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        assert main(["phase-diagram", "--gamma0", "127", "--format", "csv",
                     "--output", str(target)]) == 0
        capsys.readouterr()
        assert target.read_bytes() == (GOLDEN / "phase_diagram_gamma127.csv").read_bytes()

    def test_json_mirrors_csv(self, capsys):
        _, out_csv, _ = run(capsys, "phase-diagram", "--gamma0", "127",
                            "--points", "5", "--t-min", "1", "--t-max", "17",
                            "--format", "csv")
        _, out_json, _ = run(capsys, "phase-diagram", "--gamma0", "127",
                             "--points", "5", "--t-min", "1", "--t-max", "17",
                             "--format", "json")
        doc = json.loads(out_json)
        data_lines = [l for l in out_csv.splitlines()[1:] if not l.startswith("#")]
        assert len(data_lines) == len(doc["rows"]) == 5
        for line, row in zip(data_lines, doc["rows"]):
            t, n1, n2 = line.split(",")
            assert float(t) == row["T_K"]
            assert (n1 == "" and row["n_c1_cm2"] is None) or float(n1) == row["n_c1_cm2"]
            assert (n2 == "" and row["n_c2_cm2"] is None) or float(n2) == row["n_c2_cm2"]

    def test_bad_grid_arguments_exit_2(self, capsys):
        code, _, err = run(capsys, "phase-diagram", "--gamma0", "127",
                           "--t-min", "5", "--t-max", "1")
        assert code == 2 and "t-min" in err

    def test_temperatures_above_the_dome_give_empty_cells(self, capsys):
        code, out, err = run(capsys, "phase-diagram", "--gamma0", "127", "--t-min", "1e5",
                             "--t-max", "2e5", "--points", "3", "--format", "csv")
        assert code == 0, err
        assert out.splitlines()[1:4] == ["1.000000e+05,,", "1.500000e+05,,",
                                         "2.000000e+05,,"]

    @pytest.mark.parametrize("gamma0, t_min, t_max", [
        ("1e150", "1e-200", "1e-199"),      # below 5e-4 K, a fixed .3f read 0.000
        ("127", "1e160", "2e160"),          # and here a 161-digit integer
    ])
    def test_md_temperatures_keep_six_significant_digits(self, capsys, gamma0, t_min, t_max):
        code, out, err = run(capsys, "phase-diagram", "--gamma0", gamma0, "--t-min", t_min,
                             "--t-max", t_max, "--points", "5")
        assert code == 0, err
        cells = [line.split("|")[1].strip() for line in out.splitlines()[2:7]]
        step = (float(t_max) - float(t_min)) / 4
        assert cells == [f"{float(t_min) + i * step:.6g}" for i in range(5)]
        assert all(len(cell) <= 12 for cell in cells)

    def test_apex_far_above_the_grid_is_reported(self, capsys):
        code, out, err = run(capsys, "phase-diagram", "--gamma0", "0.5", "--format", "csv")
        assert code == 0, err
        assert out.splitlines()[-1].startswith("# T_c_K=9.881771e+05 ")

    def test_csv_layout(self, capsys):
        code, out, _ = run(capsys, *TWO_POINT_CURVE, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "T_K,n_c1_cm2,n_c2_cm2"
        assert lines[2] == "2.000000e+01,,"
        assert lines[-1].startswith("# T_c_K=")

    def test_json_mirrors_csv_payload(self, capsys):
        _, out_csv, _ = run(capsys, *TWO_POINT_CURVE, "--format", "csv")
        _, out_json, _ = run(capsys, *TWO_POINT_CURVE, "--format", "json")
        doc = json.loads(out_json)
        assert doc["columns"] == ["T_K", "n_c1_cm2", "n_c2_cm2"]
        assert doc["gamma0"] == 127.0
        lines = out_csv.splitlines()
        for line, row in zip(lines[1:-1], doc["rows"]):
            cells = line.split(",")
            assert float(cells[0]) == row["T_K"]
            for cell, key in zip(cells[1:], ("n_c1_cm2", "n_c2_cm2")):
                if cell == "":
                    assert row[key] is None
                else:
                    assert float(cell) == row[key]
        summary = dict(kv.split("=") for kv in lines[-1][2:].split())
        assert {k: float(v) for k, v in summary.items()} == doc["critical"]


class TestCouple:
    def test_gs_csv(self, capsys):
        code, out, _ = run(capsys, "couple", "gs", "--g", "20", "--f-charge", "6",
                           "--f-larmor", "6.03", "--grad-bz", "800",
                           "--format", "csv")
        assert code == 0
        assert float(parse_csv(out)[0]["g_s_MHz"]) == pytest.approx(0.291769, rel=1e-4)

    def test_gs_on_resonance_exits_2(self, capsys):
        code, _, err = run(capsys, "couple", "gs", "--g", "20", "--f-charge", "6",
                           "--f-larmor", "6", "--grad-bz", "800")
        assert code == 2 and "pole" in err

    def test_imagecharge_millimeter_flag(self, capsys):
        code, out, _ = run(capsys, "couple", "imagecharge", "--dz-nm", "10",
                           "--d-mm", "2", "--format", "csv")
        assert code == 0
        assert float(parse_csv(out)[0]["delta_q_over_e"]) == 5.0e-6

    def test_strong_coupling_verdicts(self, capsys):
        _, out1, _ = run(capsys, "couple", "strong", "--g", "3.5", "--kappa", "0.1",
                         "--gamma-rate", "1.7", "--format", "csv")
        _, out2, _ = run(capsys, "couple", "strong", "--g", "5", "--kappa", "0.1",
                         "--gamma-rate", "80", "--format", "csv")
        assert parse_csv(out1)[0]["strong"] == "true"
        assert parse_csv(out2)[0]["strong"] == "false"


class TestVerbose:
    @pytest.mark.parametrize("argv, progress", [
        (["table2", "--substance", "Ne", "--format", "csv"], "solving solid Ne ...\n"),
        (["phase-diagram", "--gamma0", "127", "--points", "5", "--format", "csv"],
         "tracing melting curve at 5 temperatures ...\n"),
    ], ids=["table2", "phase-diagram"])
    def test_progress_goes_to_stderr_only(self, capsys, argv, progress):
        code, out, err = run(capsys, *argv)
        loud_code, loud_out, loud_err = run(capsys, *argv, "--verbose")
        assert code == loud_code == 0
        assert loud_out == out
        assert progress in loud_err and progress not in err


class TestPlumbing:
    def test_substances_env_var(self, capsys, tmp_path, monkeypatch):
        bad = tmp_path / "custom.json"
        bad.write_text(json.dumps({"species": [], "surfaces": []}), encoding="utf-8")
        monkeypatch.setenv("EQLS_SUBSTANCES", str(bad))
        code, out, _ = run(capsys, "table1", "--format", "csv")
        assert code == 0
        assert len(parse_csv(out)) == 0

    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "table1", "--output",
                           str(tmp_path / "missing" / "out.csv"))
        assert code == 2 and "output path" in err

    def test_unknown_command_exits_2(self, capsys):
        assert run(capsys, "no-such-command")[0] == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eqls", "classify", "--density", "1e9",
             "--temperature", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "classical Coulomb liquid"

    @pytest.mark.parametrize("argv, option", [
        (["couple", "larmor", "--b-field", "nan"], "--b-field"),
        (["couple", "strong", "--g", "nan", "--kappa", "0.1", "--gamma-rate", "1.7"],
         "--g"),
        (["classify", "--density", "1e9", "--temperature", "inf"], "--temperature"),
        (["phase-diagram", "--gamma0", "inf"], "--gamma0"),
    ], ids=["b-field-nan", "g-nan", "temperature-inf", "gamma0-inf"])
    def test_non_finite_number_exits_2_naming_option(self, capsys, argv, option):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"argument {option}: not a finite number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, named", [
        (["classify", "--density", "1e-300", "--temperature", "1"], "density 1e-300"),
        (["phase-diagram", "--gamma0", "127", "--t-min", "1e-300", "--t-max", "1e-299"],
         "temperature 1e-300 K"),
        (["phase-diagram", "--gamma0", "1e300"], "gamma0 = 1e+300"),
        (["phase-diagram", "--gamma0", "127", "--t-min", "1e300", "--t-max", "1.1e300"],
         "1e+300 K"),
    ], ids=["classify-tiny-density", "tiny-temperatures", "huge-gamma0",
            "huge-temperatures"])
    def test_out_of_range_phase_input_exits_2_naming_it(self, capsys, argv, named):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and named in err
        assert "outside the double-precision range" in err

    def test_scipy_loaded_only_by_commands_that_use_it(self):
        script = """
import sys
def scipy_modules():
    return {m for m in sys.modules if m.split(".")[0] == "scipy"}
import eqls
loaded = sorted(m for m in sys.modules if m.startswith("eqls.") or m.split(".")[0] == "numpy")
assert not loaded, loaded
from eqls.cli import main
assert not scipy_modules(), sorted(scipy_modules())
assert main(["couple", "larmor", "--b-field", "1"]) == 0
assert main(["table1"]) == 0
assert not scipy_modules(), sorted(scipy_modules())
assert "numpy" not in sys.modules
assert main(["states", "--substance", "4He"]) == 0
assert "numpy" in sys.modules and "scipy.linalg._flapack" in sys.modules
assert "scipy.linalg" not in sys.modules
assert not {"scipy.integrate", "scipy.optimize"} & scipy_modules(), sorted(scipy_modules())
assert main(["classify", "--density", "1e9", "--temperature", "1"]) == 0
assert "scipy.integrate._quadpack" in sys.modules
heavy = {"scipy.linalg", "scipy.integrate", "scipy.special", "scipy.optimize", "scipy.sparse"}
assert not heavy & scipy_modules(), sorted(scipy_modules())
"""
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(eqls.__file__).parents[1])})
        assert proc.returncode == 0, proc.stderr

    def test_extension_route_matches_the_package_route(self, tmp_path):
        # a fresh process loads scipy's LAPACK and QUADPACK extensions from their
        # files; one that imported scipy.linalg and scipy.integrate first reuses theirs
        script = """
import sys
route, dump = sys.argv[1:]
if route == "package":
    import scipy.integrate, scipy.linalg
from eqls.cli import main
for argv in (["table2", "--format", "json", "--residuals"],
             ["states", "--substance", "4He", "--levels", "6", "--dump-psi", dump],
             ["classify", "--density", "1e9", "--temperature", "1"],
             ["phase-diagram", "--gamma0", "127", "--format", "csv"]):
    assert main(argv) == 0, argv
assert ("scipy.linalg" in sys.modules) == (route == "package")
"""
        outputs = {}
        for route in ("file", "package"):
            dump = tmp_path / route
            proc = subprocess.run(
                [sys.executable, "-c", script, route, str(dump)], capture_output=True,
                env={**os.environ, "PYTHONPATH": str(Path(eqls.__file__).parents[1])})
            assert proc.returncode == 0, proc.stderr.decode()
            outputs[route] = proc.stdout, {f.name: f.read_bytes() for f in dump.iterdir()}
        assert len(outputs["file"][1]) == 6
        assert outputs["file"] == outputs["package"]


class TestInputContract:
    @pytest.mark.parametrize("argv, named", [
        (["couple", "gs", "--g", "1e308", "--f-charge", "1e-308", "--f-larmor", "1",
          "--grad-bz", "1e308"], "spin coupling g_s"),
        (["couple", "gs", "--g", "1", "--f-charge", "1e-300", "--f-larmor", "1",
          "--grad-bz", "1"], "spin coupling g_s"),
        (["couple", "larmor", "--b-field", "1e308"], "Larmor frequency inf GHz"),
        (["couple", "imagecharge", "--dz-nm", "1e308", "--d-nm", "1e-308"],
         "delta q / e = inf"),
        (["states", "--substance", "4He", "--v0", "1e12"], "V0 = 1000000000000 eV"),
        (["table2", "--v0", "1e300"], "V0 = 1e+300 eV"),
        (["phase-diagram", "--gamma0", "127", "--points", "10001"], "--points 10001"),
        (["states", "--substance", "4He", "--field", "1e17"], "pressing field 1e+17 V/m"),
        (["states", "--substance", "4He", "--grid-h", "1e300", "--grid-zmax", "1e300"],
         "kinetic term of grid spacing 1e+300 A"),
        (["states", "--substance", "4He", "--grid-h", "0"], "grid spacing 0 A"),
        (["states", "--substance", "4He", "--grid-zmax", "0"], "grid z_max = 0 A"),
        (["states", "--substance", "4He", "--grid-zmax=-5"], "grid z_max = -5 A"),
    ], ids=["gs-overflow", "gs-underflow", "larmor-inf", "imagecharge-inf", "states-v0",
            "table2-v0", "points-cap", "field-cap", "vast-grid", "zero-grid-h",
            "zero-grid-zmax", "negative-grid-zmax"])
    def test_out_of_range_input_or_result_exits_2_naming_it(self, capsys, argv, named):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and named in err and " is outside " in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["table2", "--substance", ""], "error: ambiguous surface ''"),
        (["table2", "--substances", ""], "error: cannot read substance file"),
    ], ids=["substance", "substances"])
    def test_empty_name_is_used_not_replaced_by_the_default(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(message)

    def test_empty_substance_path_is_named_as_given(self, capsys):
        code, out, err = run(capsys, "table2", "--substances", "")
        assert code == 2 and out == ""
        assert "''" in err and "'.'" not in err

    def test_points_are_capped_before_the_temperatures_are_built(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("melting_curve called")

        monkeypatch.setattr(phases, "melting_curve", never)
        limit = str(phases.MAX_CURVE_POINTS + 1)
        code, _, err = run(capsys, "phase-diagram", "--gamma0", "127", "--points", limit)
        assert code == 2 and f"[2, {phases.MAX_CURVE_POINTS}]" in err

    @pytest.mark.parametrize("kind, record", [
        ("species", {"mass_amu": -1, "sigma_A": 2.7, "epsilon_K": 35.6}),
        ("surfaces", {"number_density_A3": -1, "scattering_length_A": 0.38,
                      "dielectric_constant": 1.244, "barrier_V0_eV": 0.7}),
    ], ids=["species", "surface"])
    def test_range_refusal_quotes_a_long_name_bounded(self, capsys, tmp_path, kind, record):
        doc = {"species": [], "surfaces": []}
        doc[kind].append({"name": "x" * 1000, **record})
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "table1", "--substances", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and " = -1 is outside " in err
        assert "'xxxxxxxxxxxxxxxxxxx...xxxxxxxxxxxxxxxx'" in err
        assert len(err) <= 100

    def test_over_long_json_integer_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "digits.json"
        path.write_text('{"species": [{"name": "Ne", "mass_amu": ' + "1" * 5000
                        + ', "sigma_A": 2.7, "epsilon_K": 35.6}], "surfaces": []}',
                        encoding="utf-8")
        code, out, err = run(capsys, "table1", "--substances", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: unreadable JSON number: ")
        assert "4300 digits" in err and err.count("\n") == 1

    def test_convergence_note_goes_to_stderr(self, capsys):
        _, plain, _ = run(capsys, "table2", "--substance", "4He")
        code, out, err = run(capsys, "table2", "--substance", "4He", "--b", "0.001")
        assert code == 0
        assert err.startswith("note: liquid 4He: cutoff b = 0.001 A is below the grid spacing")
        assert out.splitlines()[0].split() == plain.splitlines()[0].split()
        assert "note" not in out


# Every subcommand with its numeric options: (option, required, values).
NUMBERS = ("1e308", "1e-308", "5e-324", "0", "-2.5", "nan", "inf", "-inf",
           "1", "0.7", "6.03", "127", "1e9", "1e200")
COUNTS = ("1", "2", "0", "-1", "3")
SURFACES = ("liquid 4He", "solid Ne")
COMMANDS = [
    (["couple", "larmor"], [("--b-field", True, NUMBERS)]),
    (["couple", "gs"], [("--g", True, NUMBERS), ("--f-charge", True, NUMBERS),
                        ("--f-larmor", True, NUMBERS), ("--grad-bz", True, NUMBERS),
                        ("--mass-ratio", False, NUMBERS)]),
    (["couple", "imagecharge"], [("--dz-nm", True, NUMBERS), ("--d-nm", True, NUMBERS)]),
    (["couple", "imagecharge"], [("--dz-nm", True, NUMBERS), ("--d-mm", True, NUMBERS)]),
    (["couple", "strong"], [("--g", True, NUMBERS), ("--kappa", True, NUMBERS),
                            ("--gamma-rate", True, NUMBERS)]),
    (["classify"], [("--density", True, NUMBERS), ("--temperature", True, NUMBERS),
                    ("--gamma0", False, NUMBERS)]),
    (["phase-diagram"], [("--gamma0", True, NUMBERS), ("--t-min", False, NUMBERS),
                         ("--t-max", False, NUMBERS), ("--points", True, COUNTS)]),
    (["states"], [("--substance", True, SURFACES), ("--levels", False, COUNTS),
                  ("--field", False, NUMBERS), ("--b", False, NUMBERS),
                  ("--v0", False, NUMBERS), ("--grid-h", False, NUMBERS),
                  ("--grid-zmax", False, NUMBERS)]),
    (["table2"], [("--substance", False, SURFACES), ("--b", False, NUMBERS),
                  ("--v0", False, NUMBERS)]),
    (["table1"], []),
]


@st.composite
def argvs(draw):
    command, options = draw(st.sampled_from(COMMANDS))
    argv = list(command)
    for option, required, values in options:
        if required or draw(st.booleans()):
            argv.append(f"{option}={draw(st.sampled_from(values))}")
    return argv + ["--format", draw(st.sampled_from(("md", "csv", "json")))]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=argvs())
def test_every_argv_exits_cleanly_with_finite_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    if code == 0:
        assert not re.search(r"\b(nan|inf|infinity)\b", out.getvalue(), re.I), argv
    else:
        assert out.getvalue() == "", argv


BUNDLED = json.loads(
    importlib.resources.files("eqls.data").joinpath("substances.json").read_text("utf-8"))
# (list, keys of each entry, keys of each surface's reference)
REGISTRY_FIELDS = [
    ("species", ("name", "mass_amu", "sigma_A", "epsilon_K"), ()),
    ("surfaces", ("name", "number_density_A3", "scattering_length_A", "dielectric_constant",
                  "barrier_V0_eV", "reference", "density_limit_cm2"),
     ("E_z1_meV", "E_z2_meV", "dE_K", "f_THz", "z1_nm", "z2_nm")),
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8)


@st.composite
def registry_edits(draw):
    """(list, index, key path, value): one field of the bundled registry set to any JSON."""
    kind, keys, reference_keys = draw(st.sampled_from(REGISTRY_FIELDS))
    index = draw(st.integers(0, len(BUNDLED[kind]) - 1))
    key = draw(st.sampled_from(keys + tuple(f"reference.{k}" for k in reference_keys)))
    return kind, index, key.split("."), draw(JSON_VALUES)


def reject_constant(token):
    raise AssertionError(f"non-finite number {token} in the output")


@settings(max_examples=120, deadline=None, derandomize=True)
@given(edit=registry_edits())
def test_every_registry_value_loads_or_is_refused_in_one_line(tmp_path_factory, edit):
    kind, index, path, value = edit
    doc = json.loads(json.dumps(BUNDLED))
    *parents, key = path
    target = doc[kind][index]
    for parent in parents:
        target = target[parent]
    target[key] = value
    file = tmp_path_factory.mktemp("registry") / "substances.json"
    file.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["table1" if kind == "species" else "table2", "--substances", str(file),
            "--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    message = err.getvalue().replace(str(file), "<file>")
    if code == 0:
        json.loads(out.getvalue(), parse_constant=reject_constant)
    else:
        assert code == 2 and out.getvalue() == "", (edit, message)
        assert message.startswith("error: ") and message.count("\n") == 1, (edit, message)
        assert len(message) <= 160, (edit, message)
    # a number field holds a JSON number: no boolean, string, null, list or object
    optional = key in ("reference", "density_limit_cm2") and value is None
    if key not in ("name", "reference") and not optional and type(value) not in (int, float):
        assert code == 2 and "is not a number" in message, (edit, message)
    if key == "name" and not isinstance(value, str):
        assert code == 2 and "is not a non-empty string" in message, (edit, message)
