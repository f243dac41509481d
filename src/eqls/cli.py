"""Command-line front end.

Subcommands reproduce the bundled reference tables and the phase diagram
as machine-readable artifacts (csv/json) or human-readable markdown, run
single computations, and expose the cQED estimators.

Exit status: 0 success, 2 argument/data errors (every ValueError, which
includes each input `units.checked` rejects and a non-finite result), 3 a
numerical failure (`units.SolverError`).  Machine formats use 6 significant
digits in scientific notation; csv and json carry identical numeric payloads.
Progress, warnings and notes go to stderr, keeping stdout parseable.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from pathlib import Path

from . import cqed, phases  # zstates, and numpy with it, only in the commands that solve
from .matter import de_boer, load_registry
from .units import SolverError, checked

ENV_SUBSTANCES = "EQLS_SUBSTANCES"

_FORMATS = ("csv", "json", "md")


def _cell(value, spec: str, name: str) -> str:
    """How every printed value is written: None empty, a float to `spec`
    (a non-finite one is a ValueError naming it), anything else as str."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format(checked(value, f"result {name} = {{}}"), spec)
    return str(value)


def _render_csv(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row[c], ".6e", c) for c in columns])
    return buf.getvalue()


def _json_value(value, name: str):
    return float(_cell(value, ".6e", name)) if isinstance(value, float) else value


def _render_json(columns, rows, extra=None) -> str:
    doc = {"columns": list(columns),
           "rows": [{c: _json_value(r[c], c) for c in columns} for r in rows]}
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2) + "\n"


def _render_md(columns, rows, formats=None) -> str:
    formats = formats or {}
    table = [[_cell(r[c], formats.get(c, ".6g"), c) for c in columns] for r in rows]
    widths = [max(len(c), *(len(t[i]) for t in table)) if table else len(c)
              for i, c in enumerate(columns)]
    lines = ["| " + " | ".join(c.ljust(w) for c, w in zip(columns, widths)) + " |",
             "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    for t in table:
        lines.append("| " + " | ".join(v.ljust(w) for v, w in zip(t, widths)) + " |")
    return "\n".join(lines) + "\n"


def _emit(args, text: str) -> None:
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write output path {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_table(args, columns, rows, md_formats=None) -> None:
    if args.format == "csv":
        _emit(args, _render_csv(columns, rows))
    elif args.format == "json":
        _emit(args, _render_json(columns, rows))
    else:
        _emit(args, _render_md(columns, rows, md_formats))


def _emit_row(args, row: dict, md: str) -> None:
    """A one-row result: a table in csv/json; in markdown the line `md`,
    whose {column} fields get the row's values to 4 significant digits."""
    if args.format == "md":
        _emit(args, md.format(**{c: _cell(v, ".4g", c) for c, v in row.items()}) + "\n")
    else:
        _emit_table(args, list(row), [row])


def finite(text: str) -> float:
    """argparse type: a float that is neither nan nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _add_common(p, substances=True):
    p.add_argument("--format", choices=_FORMATS, default="md",
                   help="output format (default md)")
    p.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")
    p.add_argument("--verbose", action="store_true", help="progress to stderr")
    if substances:
        p.add_argument("--substances", metavar="FILE",
                       default=os.environ.get(ENV_SUBSTANCES) or None,
                       help=f"substance data file (default ${ENV_SUBSTANCES} or bundled)")


def _cmd_table1(args) -> int:
    reg = load_registry(args.substances)
    rows = [{"species": sp.name, "mass_amu": sp.mass_amu, "sigma_A": sp.sigma_A,
             "epsilon_K": sp.epsilon_K, "de_boer": de_boer(sp)}
            for sp in reg.species]
    _emit_table(args, ["species", "mass_amu", "sigma_A", "epsilon_K", "de_boer"], rows,
                md_formats={"mass_amu": ".4f", "sigma_A": ".3f",
                            "epsilon_K": ".1f", "de_boer": ".2f"})
    return 0


# table2's columns after `substance`, in order, with their md formats
_TABLE2_MD = {"n_A3": ".4f", "a_s_A": ".2f", "eps_r": ".3f", "V0_eV": ".2f",
              "E1_meV": ".4g", "E2_meV": ".4g", "dE_K": ".4g", "f_THz": ".3g",
              "z1_nm": ".3g", "z2_nm": ".3g"}

# table2 --residuals: each computed column and its field of `matter` reference rows
_TABLE2_REFERENCES = (("E1_meV", "e1_mev"), ("E2_meV", "e2_mev"), ("dE_K", "de_k"),
                      ("f_THz", "f_thz"), ("z1_nm", "z1_nm"), ("z2_nm", "z2_nm"))


def _surface_spec(surface, args, field=0.0):
    """The surface's `zstates.RegularizedImage`, with --v0 and --b where given."""
    from . import zstates
    return zstates.RegularizedImage(
        v0_ev=args.v0 if args.v0 is not None else surface.barrier_v0_ev,
        eps_r=surface.dielectric_constant,
        b_A=args.b if args.b is not None else surface.scattering_length_A,
        pressing_field_v_per_m=field,
    )


def _cmd_table2(args) -> int:
    from . import zstates
    reg = load_registry(args.substances)
    surfaces = reg.surfaces if args.substance is None else [reg.get_surface(args.substance)]
    rows = []
    for sf in surfaces:
        if args.verbose:
            print(f"solving {sf.name} ...", file=sys.stderr)
        spec = _surface_spec(sf, args)
        result = zstates.solve_bound_states(zstates.build_potential(spec), 2)
        if result.convergence.note:
            print(f"note: {sf.name}: {result.convergence.note}", file=sys.stderr)
        if result.shortfall:
            raise SolverError(f"{sf.name}: found only {len(result.states)} of 2 bound states")
        s1, s2 = result.states
        tr = zstates.transition(result.states, 0, 1)
        row = {"substance": sf.name, "n_A3": sf.number_density_A3,
               "a_s_A": sf.scattering_length_A, "eps_r": sf.dielectric_constant,
               "V0_eV": spec.v0_ev,
               "E1_meV": s1.energy_mev, "E2_meV": s2.energy_mev,
               "dE_K": tr.de_k, "f_THz": tr.f_thz,
               "z1_nm": s1.mean_z_nm, "z2_nm": s2.mean_z_nm}
        if args.residuals:
            ref = sf.reference
            for col, attr in _TABLE2_REFERENCES:
                refval = getattr(ref, attr) if ref else None
                row[f"ref_{col}"] = refval
                row[f"res_{col}"] = (None if refval is None
                                     else (row[col] - refval) / abs(refval))
        rows.append(row)
    # the columns come from the command, so a registry without surfaces prints a header
    columns = ["substance", *_TABLE2_MD]
    md = dict(_TABLE2_MD)
    if args.residuals:
        for col, _ in _TABLE2_REFERENCES:
            columns += [f"ref_{col}", f"res_{col}"]
            md[f"ref_{col}"] = _TABLE2_MD[col]
            md[f"res_{col}"] = ".2%"
    _emit_table(args, columns, rows, md_formats=md)
    return 0


def _cmd_states(args) -> int:
    from . import zstates
    reg = load_registry(args.substances)
    sf = reg.get_surface(args.substance)
    spec = _surface_spec(sf, args, args.field)
    if args.grid_h is None:
        grid = zstates.default_grid(spec, args.levels, args.grid_zmax)
    else:                               # a uniform grid at that spacing
        z_max = (zstates.default_grid(spec, args.levels).z_max_A if args.grid_zmax is None
                 else args.grid_zmax)
        grid = zstates.surface_grid(-20.0, z_max, args.grid_h)
    result = zstates.solve_bound_states(zstates.build_potential(spec, grid), args.levels)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if result.convergence.note:
        print(f"note: {result.convergence.note}", file=sys.stderr)
    if result.shortfall:
        print(f"note: only {len(result.states)} of {args.levels} requested states "
              f"are bound on this grid", file=sys.stderr)
    rows = []
    for k, st in enumerate(result.states):
        change = (result.convergence.energy_change_mev[k]
                  if k < len(result.convergence.energy_change_mev)
                  else None)
        rows.append({"state": k + 1, "energy_meV": st.energy_mev,
                     "nodes": st.node_count, "mean_z_nm": st.mean_z_nm,
                     "dE_half_grid_meV": change})
    if args.dump_psi:
        outdir = Path(args.dump_psi)
        stem = sf.name.replace(" ", "_")
        for sep in filter(None, (os.sep, os.altsep, "\0")):     # a name is no path
            stem = stem.replace(sep, "_")
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            for k, st in enumerate(result.states):
                with open(outdir / f"{stem}_state{k + 1}.dat", "w", encoding="utf-8") as fh:
                    zstates.write_wavefunction(st, fh, k + 1)
        except (OSError, ValueError) as exc:     # open raises ValueError for a NUL in the path
            raise ValueError(f"cannot write wavefunctions to {outdir}: {exc}") from exc
    _emit_table(args, ["state", "energy_meV", "nodes", "mean_z_nm", "dE_half_grid_meV"],
                rows, md_formats={"energy_meV": ".4g", "mean_z_nm": ".3g",
                                  "dE_half_grid_meV": ".2e"})
    return 0


def _cmd_phase_diagram(args) -> int:
    checked(args.points, "--points {}", 2, phases.MAX_CURVE_POINTS)
    checked(args.t_min, "--t-min {}", 0.0, ends="(]")
    checked(args.t_max, f"--t-max {{}} for --t-min {args.t_min:g}", args.t_min, ends="(]")
    step = (args.t_max - args.t_min) / (args.points - 1)
    temps = [args.t_min + i * step for i in range(args.points)]
    if args.verbose:
        print(f"tracing melting curve at {args.points} temperatures ...", file=sys.stderr)
    curve = phases.melting_curve(args.gamma0, temps)
    columns = ["T_K", "n_c1_cm2", "n_c2_cm2"]
    rows = [{"T_K": t, "n_c1_cm2": a, "n_c2_cm2": b}
            for t, a, b in zip(curve.temperatures_k, curve.n_c1_cm2, curve.n_c2_cm2)]
    c = curve.critical
    critical = {"T_c_K": c.t_c_k, "n_c_cm2": c.n_c_cm2, "n_star_cm2": c.n_star_cm2}
    if args.format == "csv":
        summary = " ".join(f"{k}={_cell(v, '.6e', k)}" for k, v in critical.items())
        _emit(args, _render_csv(columns, rows) + f"# {summary}\n")
    elif args.format == "json":
        _emit(args, _render_json(columns, rows, {
            "gamma0": curve.gamma0,
            "critical": {k: _json_value(v, k) for k, v in critical.items()}}))
    else:
        text = _render_md(columns, rows, {"n_c1_cm2": ".4g", "n_c2_cm2": ".4g"})
        t_c, n_c, n_star = (_cell(v, ".3g", k) for k, v in critical.items())
        text += f"\ncritical point: T_c = {t_c} K, n_c = {n_c} cm^-2, n* = {n_star} cm^-2\n"
        _emit(args, text)
    return 0


def _cmd_classify(args) -> int:
    point = phases.electron_gas_point(args.density, args.temperature)
    _emit_row(args, {"density_cm2": args.density, "temperature_K": args.temperature,
                     "gamma0": args.gamma0, "gamma": point.gamma,
                     "phase": point.phase(args.gamma0).value}, "{phase}")
    return 0


def _cmd_couple_gs(args) -> int:
    inp = cqed.SpinCouplingInput(
        g_charge_mhz=args.g, f_charge_ghz=args.f_charge,
        f_larmor_ghz=args.f_larmor, grad_bz_t_per_m=args.grad_bz,
        mass_ratio=args.mass_ratio)
    _emit_row(args, {"g_s_MHz": cqed.spin_coupling(inp)}, "g_s = {g_s_MHz} MHz")
    return 0


def _cmd_couple_imagecharge(args) -> int:
    d_nm = args.d_nm if args.d_nm is not None else args.d_mm * 1e6
    _emit_row(args, {"delta_q_over_e": cqed.image_charge_delta(args.dz_nm, d_nm)},
              "delta q / e = {delta_q_over_e}")
    return 0


def _cmd_couple_larmor(args) -> int:
    _emit_row(args, {"f_L_GHz": cqed.larmor(args.b_field)}, "f_L = {f_L_GHz} GHz")
    return 0


def _cmd_couple_strong(args) -> int:
    res = cqed.strong_coupling(cqed.CouplingBudget(args.g, args.kappa, args.gamma_rate))
    verdict = "strong coupling" if res.strong else "NOT strong coupling"
    _emit_row(args, {"strong": str(res.strong).lower(), "margin_MHz": res.margin_mhz},
              verdict + ": margin = {margin_MHz} MHz")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqls",
        description="Electrons on quantum liquids and solids: surface states, "
                    "2D phase diagram, and cQED estimates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="de Boer quantumness table for all species")
    _add_common(p)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("table2", help="surface-state spectra for all (or one) surface")
    _add_common(p)
    p.add_argument("--substance", help="restrict to one surface (name or substring)")
    p.add_argument("--b", type=finite, help="override the image cutoff b in A")
    p.add_argument("--v0", type=finite, help="override the barrier height V0 in eV")
    p.add_argument("--residuals", action="store_true",
                   help="append stored reference values and relative residuals")
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("states", help="bound states for one surface")
    _add_common(p)
    p.add_argument("--substance", required=True)
    p.add_argument("--levels", type=int, default=2, help="number of states (default 2)")
    p.add_argument("--field", type=finite, default=0.0,
                   help="vertical pressing field in V/m (positive presses)")
    p.add_argument("--b", type=finite, help="override the image cutoff b in A")
    p.add_argument("--v0", type=finite, help="override the barrier height V0 in eV")
    p.add_argument("--grid-h", type=finite, help="uniform grid spacing in A")
    p.add_argument("--grid-zmax", type=finite, help="grid extent above the surface in A")
    p.add_argument("--dump-psi", metavar="DIR",
                   help="write one two-column wavefunction file per state")
    p.set_defaults(func=_cmd_states)

    p = sub.add_parser("phase-diagram", help="melting curve and critical point")
    _add_common(p, substances=False)
    p.add_argument("--gamma0", type=finite, required=True,
                   help="melting threshold of the plasma parameter")
    p.add_argument("--t-min", type=finite, default=0.5)
    p.add_argument("--t-max", type=finite, default=20.0)
    p.add_argument("--points", type=int, default=40)
    p.set_defaults(func=_cmd_phase_diagram)

    p = sub.add_parser("classify", help="phase label at one (density, temperature)")
    _add_common(p, substances=False)
    p.add_argument("--density", type=finite, required=True, help="electron density in cm^-2")
    p.add_argument("--temperature", type=finite, required=True, help="temperature in K")
    p.add_argument("--gamma0", type=finite, default=phases.DEFAULT_GAMMA0)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("couple", help="cQED estimators")
    csub = p.add_subparsers(dest="estimator", required=True)

    q = csub.add_parser("gs", help="gradient-mediated spin-photon coupling")
    _add_common(q, substances=False)
    q.add_argument("--g", type=finite, required=True, help="charge-photon coupling in MHz")
    q.add_argument("--f-charge", type=finite, required=True, help="charge frequency in GHz")
    q.add_argument("--f-larmor", type=finite, required=True, help="Larmor frequency in GHz")
    q.add_argument("--grad-bz", type=finite, required=True,
                   help="field gradient in T/m (1 mG/nm = 100 T/m)")
    q.add_argument("--mass-ratio", type=finite, default=1.0)
    q.set_defaults(func=_cmd_couple_gs)

    q = csub.add_parser("imagecharge", help="image-charge change from a level shift")
    _add_common(q, substances=False)
    q.add_argument("--dz-nm", type=finite, required=True, help="vertical shift in nm")
    group = q.add_mutually_exclusive_group(required=True)
    group.add_argument("--d-nm", type=finite, help="electrode distance in nm")
    group.add_argument("--d-mm", type=finite, help="electrode distance in mm")
    q.set_defaults(func=_cmd_couple_imagecharge)

    q = csub.add_parser("larmor", help="electron Larmor frequency")
    _add_common(q, substances=False)
    q.add_argument("--b-field", type=finite, required=True, help="magnetic field in T")
    q.set_defaults(func=_cmd_couple_larmor)

    q = csub.add_parser("strong", help="strong-coupling test g > kappa, gamma")
    _add_common(q, substances=False)
    q.add_argument("--g", type=finite, required=True, help="coupling in MHz")
    q.add_argument("--kappa", type=finite, required=True, help="resonator decay in MHz")
    q.add_argument("--gamma-rate", type=finite, required=True, help="qubit linewidth in MHz")
    q.set_defaults(func=_cmd_couple_strong)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:          # RegistryError, and every input or result refused
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
