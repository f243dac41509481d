"""Output checks against oracles that share no code with eqls.

Runs outside the timed region.  Every operation gets a `Verdict`: the
reasons it failed (if any) and the largest relative error of any of its
results against an oracle.  Tolerances are the ones the repository's own
tests use:

  * plasma parameter vs the dilogarithm closed form F1(eta) = -Li2(-e^eta),
    evaluated with mpmath: 1e-6 (criterion 9);
  * each melting root re-evaluated with that oracle: Gamma = gamma0 at 1e-4
    (the root finder's own rtol); the dome apex at 1e-3 (its T rtol);
  * hard-wall levels vs E_n = -Z^2/(2 n^2): 0.5% (criterion 3 companion);
  * bundled surfaces vs the published rows: 10% (criterion 2), 2% on
    dE and f (criterion 4); liquid 4He vs the shooting values: 2e-3;
  * de Boer and the cQED estimators vs their formulas: 1e-6.

Numbers read back from CLI text are also allowed half a unit in the last
printed digit.
"""

from __future__ import annotations

import csv
import io
import json
import math

import mpmath

from workloads import SURFACE_BY_NAME, SURFACES

# CODATA 2018
HARTREE_EV = 27.211386245988
BOHR_ANGSTROM = 0.529177210903
BOLTZMANN_EV_PER_K = 8.617333262e-5
PLANCK_EV_S = 4.135667696e-15
PLANCK_J_S = 6.62607015e-34
HBAR_J_S = 1.054571817e-34
BOLTZMANN_J_PER_K = 1.380649e-23
BOHR_MAGNETON_J_PER_T = 9.2740100783e-24
ELECTRON_MASS_KG = 9.1093837015e-31
AMU_KG = 1.66053906660e-27
HARTREE_K = HARTREE_EV / BOLTZMANN_EV_PER_K
BOHR_CM = BOHR_ANGSTROM * 1e-8

# name, mass (amu), sigma (A), epsilon (K), published de Boer parameter
SPECIES = (("3He", 3.0160, 2.556, 10.2, 3.09), ("4He", 4.0026, 2.556, 10.2, 2.68),
           ("Ne", 20.180, 2.749, 35.6, 0.59), ("H2", 2.0157, 2.928, 37.0, 1.73),
           ("HD", 3.0219, 2.928, 37.0, 1.41), ("D2", 4.0282, 2.928, 37.0, 1.22))

HE4_SHOOTING_MEV = (-0.675836, -0.163181)

GAMMA_RTOL = 1e-6
ROOT_RTOL = 1e-4
APEX_RTOL = 1e-3
HARD_WALL_RTOL = 5e-3
REFERENCE_RTOL = 0.10
REFERENCE_SPECTRAL_RTOL = 0.02
SHOOTING_RTOL = 2e-3
FORMULA_RTOL = 1e-6


# ------------------------------------------------------------------ oracles

def fermi_over_kt(n_cm2: float, t_k: float) -> float:
    return math.pi * n_cm2 * BOHR_CM**2 / (t_k / HARTREE_K)


def gamma_oracle(n_cm2: float, t_k: float) -> float:
    """Gamma = e^2 sqrt(pi n) / K_e with K_e = (kT)^2/E_F * F1(eta) and
    -e^eta = 1 - e^(E_F/kT), so F1 = -Li2(1 - e^x)."""
    n_au = n_cm2 * BOHR_CM**2
    kt = t_k / HARTREE_K
    ef = math.pi * n_au
    f1 = -mpmath.polylog(2, -mpmath.expm1(mpmath.mpf(ef) / kt))
    return float(mpmath.sqrt(ef) / (kt * kt / ef * f1))


def label_oracle(n_cm2: float, t_k: float, gamma0: float, gamma: float) -> str | None:
    """Phase label from oracle quantities; None when within rounding of a boundary."""
    x = fermi_over_kt(n_cm2, t_k)
    if abs(x - 1.0) < 1e-9 or abs(gamma / gamma0 - 1.0) < GAMMA_RTOL \
            or abs(gamma - 1.0) < GAMMA_RTOL:
        return None
    quantum = x >= 1.0
    if gamma >= gamma0:
        return "quantum Wigner solid" if quantum else "classical Wigner solid"
    if gamma <= 1.0:
        return "quantum Fermi gas" if quantum else "classical Coulomb gas"
    return "quantum Fermi liquid" if quantum else "classical Coulomb liquid"


def hydrogenic_mev(eps_r: float, n: int) -> float:
    z = (eps_r - 1.0) / (4.0 * (eps_r + 1.0))
    return -z * z / (2.0 * n * n) * HARTREE_EV * 1e3


def n_star_oracle(gamma0: float) -> float:
    return 4.0 / (math.pi * gamma0**2) / BOHR_CM**2


def de_boer_oracle(mass_amu: float, sigma_a: float, eps_k: float) -> float:
    return PLANCK_J_S / (sigma_a * 1e-10 * math.sqrt(
        mass_amu * AMU_KG * eps_k * BOLTZMANN_J_PER_K))


def spin_coupling_oracle(g, f_charge, f_larmor, grad, mass_ratio) -> float:
    omega = 2.0 * math.pi * f_charge * 1e9
    a_x = math.sqrt(HBAR_J_S / (mass_ratio * ELECTRON_MASS_KG * omega))
    lever = BOHR_MAGNETON_J_PER_T * a_x * grad / (HBAR_J_S * omega)
    return abs(lever * g * math.sqrt(2.0) / (1.0 - (f_larmor / f_charge) ** 2))


def transition_oracle(e1_mev: float, e2_mev: float) -> tuple[float, float]:
    de_ev = (e2_mev - e1_mev) * 1e-3
    return de_ev / BOLTZMANN_EV_PER_K, de_ev / (PLANCK_EV_S * 1e12)


# ------------------------------------------------------------------ verdict

def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


class Verdict:
    """Failure reasons and the worst relative error against an oracle."""

    def __init__(self):
        self.errors: list[str] = []
        self.max_rel_err = 0.0

    @property
    def ok(self) -> bool:
        return not self.errors

    def require(self, cond: bool, message: str) -> bool:
        if not cond:
            self.errors.append(message)
        return cond

    def close(self, what: str, value, oracle: float, rtol: float,
              slack: float = 0.0, scale: float | None = None) -> None:
        """|value - oracle| <= rtol * scale + slack, scale = |oracle| by default.

        `slack` is the rounding of a printed value, in the value's units.
        """
        if not self.require(_finite(value), f"{what}: non-finite {value!r}"):
            return
        scale = abs(oracle) if scale is None else scale
        rel = abs(value - oracle) / scale
        self.max_rel_err = max(self.max_rel_err, rel)
        self.require(abs(value - oracle) <= rtol * scale + slack,
                     f"{what}: {value!r} vs oracle {oracle!r} "
                     f"(rel {rel:.3g} > {rtol:g})")


# -------------------------------------------------------- library workloads

def check_repeat(first: Verdict, out: dict, first_out: dict) -> Verdict:
    """A re-run input: its output must equal the first, checked output."""
    v = Verdict()
    v.errors = list(first.errors)
    v.max_rel_err = first.max_rel_err
    v.require(out == first_out, "output differs from the first run of the same input")
    return v


def check_op(op: dict, out: dict) -> Verdict:
    v = Verdict()
    if "error" in out:
        v.require(False, out["error"])
        return v
    {"spectrum": _spectrum, "stark": _stark, "curve": _curve, "tile": _tile,
     "cli": _cli_output}[op["kind"]](v, op, out)
    return v


def _levels(v: Verdict, energies, nodes, mean_z, levels: int, ceiling_mev: float) -> bool:
    if not v.require(len(energies) == levels,
                     f"{len(energies)} of {levels} requested states bound"):
        return False
    if not v.require(all(_finite(e) for e in energies + mean_z), "non-finite state"):
        return False
    v.require(all(a < b for a, b in zip(energies, energies[1:])), "energies not ascending")
    v.require(all(e < ceiling_mev for e in energies), "state above the asymptote")
    v.require(list(nodes) == list(range(len(nodes))), f"node counts {nodes}")
    return True


def _reference_rows(v: Verdict, name: str, e1, e2, z1, z2,
                    slack=(0.0, 0.0, 0.0, 0.0)) -> None:
    ref = SURFACE_BY_NAME[name][4]
    for what, value, key, s in (("E1", e1, "e1_mev", slack[0]), ("E2", e2, "e2_mev", slack[1]),
                                ("z1", z1, "z1_nm", slack[2]), ("z2", z2, "z2_nm", slack[3])):
        v.close(f"{name} {what} vs published", value, ref[key], REFERENCE_RTOL, s)
    de_k, f_thz = transition_oracle(e1, e2)
    v.close(f"{name} dE vs published", de_k, ref["de_k"], REFERENCE_SPECTRAL_RTOL)
    v.close(f"{name} f vs published", f_thz, ref["f_thz"], REFERENCE_SPECTRAL_RTOL)
    if name == "liquid 4He":
        for k, (value, s) in enumerate(((e1, slack[0]), (e2, slack[1]))):
            v.close(f"4He E{k + 1} vs shooting", value, HE4_SHOOTING_MEV[k],
                    SHOOTING_RTOL, s)


def _spectrum(v: Verdict, op: dict, out: dict) -> None:
    kind = op["potential"]
    ceiling = op["v_above_ev"] * 1e3 if kind == "interface" else 0.0
    if not _levels(v, out["energies"], out["nodes"], out["mean_z"], op["levels"], ceiling):
        return
    changes = out["changes"]
    v.require(changes is not None and len(changes) == op["levels"]
              and all(_finite(c) for c in changes), "missing grid-halving report")
    if kind != "interface":
        v.require(all(a < b for a, b in zip(out["mean_z"], out["mean_z"][1:])),
                  "mean heights not ascending")
    if kind == "bundled":
        _reference_rows(v, op["surface"], *out["energies"], *out["mean_z"])
    elif kind == "hard_wall":
        for n, e in enumerate(out["energies"], start=1):
            v.close(f"hard-wall E{n} vs hydrogenic", e, hydrogenic_mev(op["eps_r"], n),
                    HARD_WALL_RTOL)


def _stark(v: Verdict, op: dict, out: dict) -> None:
    energies = out["energies"]
    if not v.require(len(energies) == len(op["fields"])
                     and all(_finite(e) for e in energies),
                     "pressing field left no bound state or a non-finite energy"):
        return
    v.require(all(e < 0.0 for e in energies), "Stark level above the vacuum level")
    # a pressing field only raises the ground state
    v.require(all(b >= a - 1e-12 * abs(a) for a, b in zip(energies, energies[1:])),
              "ground state falls with a rising pressing field")


def _curve_rows(v: Verdict, gamma0: float, temps, n1, n2, t_c: float, n_c: float,
                n_star: float, slack_n=lambda n: 0.0, slack_tc: float = 0.0,
                slack_nc: float = 0.0, slack_star: float = 0.0) -> None:
    """Melting roots, apex and n* against the Gamma oracle.

    Gamma varies at most like n^(+-1/2), so a printed-density rounding of
    s/n allows s/(2n) more in Gamma.
    """
    if not v.require(all(_finite(x) and x > 0 for x in (t_c, n_c, n_star)),
                     "non-finite critical summary"):
        return
    v.close("n*", n_star, n_star_oracle(gamma0), FORMULA_RTOL, slack_star)
    # at the apex dGamma/dn = 0 and dlnGamma/dlnT ~ -1/2
    v.close("Gamma at the apex", gamma_oracle(n_c, t_c), gamma0, APEX_RTOL,
            gamma0 * (0.5 * slack_tc / t_c + 0.5 * slack_nc / n_c))
    edge = APEX_RTOL * 2 * t_c + slack_tc
    for t, a, b in zip(temps, n1, n2):
        if a is None or b is None:
            v.require(a is None and b is None and t >= t_c - edge,
                      f"T = {t:g} K below T_c = {t_c:g} K has no melting roots")
            continue
        v.require(t <= t_c + edge, f"melting roots above T_c at T = {t:g} K")
        if v.require(_finite(a) and _finite(b) and 0 < a < b,
                     f"roots {a!r}, {b!r} at T = {t:g} K"):
            for which, n in (("n_c1", a), ("n_c2", b)):
                v.close(f"Gamma({which}, T={t:g})", gamma_oracle(n, t), gamma0,
                        ROOT_RTOL, gamma0 * 0.5 * slack_n(n) / n)


def _curve(v: Verdict, op: dict, out: dict) -> None:
    v.require(out["temps"] == op["temps"], "temperature grid not echoed")
    if v.require(len(out["n1"]) == len(out["n2"]) == len(op["temps"]), "row count"):
        _curve_rows(v, op["gamma0"], op["temps"], out["n1"], out["n2"],
                    out["t_c"], out["n_c"], out["n_star"])


def _tile(v: Verdict, op: dict, out: dict) -> None:
    for (n, t), label, gamma in zip(op["points"], out["labels"], out["gammas"]):
        oracle = gamma_oracle(n, t)
        v.close(f"Gamma({n:g}, {t:g})", gamma, oracle, GAMMA_RTOL)
        expected = label_oracle(n, t, op["gamma0"], oracle)
        v.require(expected is None or label == expected,
                  f"({n:g}, {t:g}): {label!r}, oracle {expected!r}")
    v.require(len(out["labels"]) == len(out["gammas"]) == len(op["points"]), "point count")


# ---------------------------------------------------------------- CLI output

def half_ulp(text: str) -> float:
    """Half a unit in the last printed digit of a number as printed."""
    text = text.strip().rstrip("%")
    mantissa, _, exponent = text.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    scale = 10.0 ** int(exponent) if exponent else 1.0
    return 0.5 * 10.0 ** -decimals * scale


class Cell:
    """A number read back from output, with its printing slack."""

    def __init__(self, value, slack: float):
        self.value, self.slack = value, slack


def _cell(text) -> Cell | str | None:
    if text is None:
        return None
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        # json numbers: the CLI prints 6 decimals in scientific notation
        return Cell(float(text), 5e-7 * 10.0 ** math.floor(math.log10(abs(text)))
                    if text else 0.0)
    text = str(text).strip()
    if text == "":
        return None
    try:
        value = float(text.rstrip("%"))
    except ValueError:
        return text
    if text.endswith("%"):
        return Cell(value / 100.0, half_ulp(text) / 100.0)
    return Cell(value, half_ulp(text))


def parse_table(text: str, fmt: str) -> list[dict]:
    """Rows of a csv, json or markdown table as {column: Cell | str | None}."""
    if fmt == "json":
        doc = json.loads(text)
        return [{k: _cell(r[k]) for k in doc["columns"]} for r in doc["rows"]]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        return [dict(zip(rows[0], map(_cell, r))) for r in rows[1:] if r and r[0][0] != "#"]
    lines = [ln for ln in text.splitlines() if ln.startswith("|")]
    header = [c.strip() for c in lines[0].strip("|").split("|")]
    return [dict(zip(header, (_cell(c) for c in ln.strip("|").split("|"))))
            for ln in lines[2:]]


def _opts(argv: list[str]) -> dict:
    out, i = {}, 0
    while i < len(argv):
        if argv[i].startswith("--"):
            key = argv[i][2:]
            if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
                out[key] = argv[i + 1]
                i += 2
                continue
            out[key] = True
        i += 1
    return out


def check_cli(op: dict, exit_code: int, stdout: str, stderr: str) -> Verdict:
    v = Verdict()
    if not v.require(exit_code == 0, f"exit {exit_code}: {stderr.strip()[-300:]}"):
        return v
    v.require("Traceback" not in stderr, "traceback on stderr")
    tokens = stdout.lower().replace(",", " ").replace("|", " ").split()
    v.require(not any(t.strip('":') in ("nan", "inf", "-inf") for t in tokens),
              "non-finite number printed")
    argv = op["argv"]
    opts = _opts(argv)
    fmt = opts.get("format", "md")
    try:
        _CLI[op["family"]](v, opts, fmt, stdout, stderr)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        v.require(False, f"unparseable output ({type(exc).__name__}: {exc})")
    return v


def _cli_output(v: Verdict, op: dict, out: dict) -> None:
    inner = check_cli(op, out["exit"], out["stdout"], out["stderr"])
    v.errors += inner.errors
    v.max_rel_err = inner.max_rel_err


def _scalar(v: Verdict, fmt: str, text: str, column: str, md_prefix: str) -> Cell:
    if fmt == "md":
        line = text.strip()
        v.require(line.startswith(md_prefix), f"unexpected output {line!r}")
        return _cell(line[len(md_prefix):].split()[0])
    return parse_table(text, fmt)[0][column]


def _couple_gs(v, o, fmt, out, err):
    c = _scalar(v, fmt, out, "g_s_MHz", "g_s =")
    oracle = spin_coupling_oracle(float(o["g"]), float(o["f-charge"]), float(o["f-larmor"]),
                                  float(o["grad-bz"]), float(o.get("mass-ratio", 1.0)))
    v.close("g_s", c.value, oracle, FORMULA_RTOL, c.slack)


def _couple_imagecharge(v, o, fmt, out, err):
    c = _scalar(v, fmt, out, "delta_q_over_e", "delta q / e =")
    d_nm = float(o["d-nm"]) if "d-nm" in o else float(o["d-mm"]) * 1e6
    v.close("delta q / e", c.value, float(o["dz-nm"]) / d_nm, FORMULA_RTOL, c.slack)


def _couple_larmor(v, o, fmt, out, err):
    c = _scalar(v, fmt, out, "f_L_GHz", "f_L =")
    oracle = 2.0 * BOHR_MAGNETON_J_PER_T * float(o["b-field"]) / PLANCK_J_S / 1e9
    v.close("f_L", c.value, oracle, FORMULA_RTOL, c.slack, scale=max(abs(oracle), 1e-12))


def _couple_strong(v, o, fmt, out, err):
    g, kappa, gamma = float(o["g"]), float(o["kappa"]), float(o["gamma-rate"])
    worst = max(kappa, gamma)
    if fmt == "md":
        line = out.strip()
        strong = line.startswith("strong coupling")
        v.require(strong or line.startswith("NOT strong coupling"), f"verdict {line!r}")
        margin = _cell(line.split("margin =")[1].split()[0])
    else:
        row = parse_table(out, fmt)[0]
        strong = row["strong"] == "true"
        margin = row["margin_MHz"]
    v.require(strong == (g > worst), "strong-coupling verdict")
    v.close("margin", margin.value, g - worst, FORMULA_RTOL, margin.slack,
            scale=max(g, worst))


def _classify(v, o, fmt, out, err):
    n, t = float(o["density"]), float(o["temperature"])
    gamma0 = float(o.get("gamma0", 127.0))
    oracle = gamma_oracle(n, t)
    if fmt == "md":
        label = out.strip()
    else:
        row = parse_table(out, fmt)[0]
        label = row["phase"]
        v.close("Gamma", row["gamma"].value, oracle, GAMMA_RTOL, row["gamma"].slack)
    expected = label_oracle(n, t, gamma0, oracle)
    v.require(expected is None or label == expected, f"label {label!r}, oracle {expected!r}")


def _table1(v, o, fmt, out, err):
    rows = parse_table(out, fmt)
    v.require([r["species"] for r in rows] == [s[0] for s in SPECIES], "species list")
    for r, (name, mass, sigma, eps, published) in zip(rows, SPECIES):
        c = r["de_boer"]
        v.close(f"de Boer {name}", c.value, de_boer_oracle(mass, sigma, eps),
                FORMULA_RTOL, c.slack)
        # criterion 1: within 0.01 of the published table
        v.require(abs(c.value - published) <= 0.01 + c.slack,
                  f"de Boer {name} {c.value} vs published {published}")


def _table2(v, o, fmt, out, err):
    rows = parse_table(out, fmt)
    names = [s[0] for s in SURFACES]
    expected = [n for n in names if o["substance"].lower() in n.lower()] \
        if "substance" in o else names
    if not v.require([r["substance"] for r in rows] == expected, "surface list"):
        return
    for r in rows:
        name = r["substance"]
        e1, e2, z1, z2 = r["E1_meV"], r["E2_meV"], r["z1_nm"], r["z2_nm"]
        _reference_rows(v, name, e1.value, e2.value, z1.value, z2.value,
                        (e1.slack, e2.slack, z1.slack, z2.slack))
        de_k, f_thz = transition_oracle(e1.value, e2.value)
        spread = (e1.slack + e2.slack) / abs(e2.value - e1.value)
        v.close(f"{name} dE vs its levels", r["dE_K"].value, de_k, FORMULA_RTOL,
                r["dE_K"].slack + spread * de_k)
        v.close(f"{name} f vs its levels", r["f_THz"].value, f_thz, FORMULA_RTOL,
                r["f_THz"].slack + spread * f_thz)
        if "residuals" not in o:
            continue
        ref = SURFACE_BY_NAME[name][4]
        for col, key in (("E1_meV", "e1_mev"), ("E2_meV", "e2_mev"), ("dE_K", "de_k"),
                         ("f_THz", "f_thz"), ("z1_nm", "z1_nm"), ("z2_nm", "z2_nm")):
            refc, res, val = r[f"ref_{col}"], r[f"res_{col}"], r[col]
            v.close(f"{name} ref_{col}", refc.value, ref[key], FORMULA_RTOL, refc.slack)
            v.close(f"{name} res_{col}", res.value, (val.value - ref[key]) / abs(ref[key]),
                    FORMULA_RTOL, res.slack + val.slack / abs(ref[key]), scale=1.0)


def _states(v, o, fmt, out, err):
    rows = parse_table(out, fmt)
    levels, name = int(o["levels"]), o["substance"]
    v.require("note: only" not in err, f"shortfall: {err.strip()}")
    energies = [r["energy_meV"].value for r in rows]
    if not _levels(v, energies, [int(r["nodes"].value) for r in rows],
                   [r["mean_z_nm"].value for r in rows], levels, 0.0):
        return
    v.require([int(r["state"].value) for r in rows] == list(range(1, levels + 1)),
              "state numbering")
    v.require(all(_finite(r["dE_half_grid_meV"].value) for r in rows), "grid-halving column")
    ref = SURFACE_BY_NAME[name][4]
    for k, key in enumerate(("e1_mev", "e2_mev")[:levels]):
        c = rows[k]["energy_meV"]
        v.close(f"{name} E{k + 1} vs published", c.value, ref[key], REFERENCE_RTOL, c.slack)
        if name == "liquid 4He":
            v.close(f"4He E{k + 1} vs shooting", c.value, HE4_SHOOTING_MEV[k],
                    SHOOTING_RTOL, c.slack)
    for k, key in enumerate(("z1_nm", "z2_nm")[:levels]):
        c = rows[k]["mean_z_nm"]
        v.close(f"{name} z{k + 1} vs published", c.value, ref[key], REFERENCE_RTOL, c.slack)


def _phase_diagram(v, o, fmt, out, err):
    gamma0 = float(o["gamma0"])
    points = int(o.get("points", 40))
    t_min, t_max = float(o.get("t-min", 0.5)), float(o.get("t-max", 20.0))
    step = (t_max - t_min) / (points - 1)
    temps = [t_min + i * step for i in range(points)]
    if fmt == "json":
        doc = json.loads(out)
        rows = [{k: _cell(x) for k, x in r.items()} for r in doc["rows"]]
        crit = {k: _cell(x) for k, x in doc["critical"].items()}
        v.close("gamma0 echo", doc["gamma0"], gamma0, 0.0)
    elif fmt == "csv":
        rows = parse_table(out, "csv")
        summary = out.strip().splitlines()[-1]
        v.require(summary.startswith("# "), "missing summary line")
        crit = {k: _cell(x) for k, x in (kv.split("=") for kv in summary[2:].split())}
    else:
        rows = parse_table(out, "md")
        line = out.strip().splitlines()[-1]
        parts = line.replace(",", " ").split()
        crit = {"T_c_K": _cell(parts[parts.index("T_c") + 2]),
                "n_c_cm2": _cell(parts[parts.index("n_c") + 2]),
                "n_star_cm2": _cell(parts[parts.index("n*") + 2])}
    if not v.require(len(rows) == points, f"{len(rows)} rows for {points} points"):
        return
    for r, t in zip(rows, temps):
        v.close("T echo", r["T_K"].value, t, 1e-12, r["T_K"].slack)
    n1 = [None if r["n_c1_cm2"] is None else r["n_c1_cm2"].value for r in rows]
    n2 = [None if r["n_c2_cm2"] is None else r["n_c2_cm2"].value for r in rows]
    slack = {r[c].value: r[c].slack for r in rows for c in ("n_c1_cm2", "n_c2_cm2") if r[c]}
    tc, nc, ns = crit["T_c_K"], crit["n_c_cm2"], crit["n_star_cm2"]
    _curve_rows(v, gamma0, temps, n1, n2, tc.value, nc.value, ns.value,
                slack_n=lambda n: slack[n], slack_tc=tc.slack, slack_nc=nc.slack,
                slack_star=ns.slack)


_CLI = {"couple gs": _couple_gs, "couple imagecharge": _couple_imagecharge,
        "couple larmor": _couple_larmor, "couple strong": _couple_strong,
        "classify": _classify, "table1": _table1, "table2": _table2,
        "states": _states, "phase-diagram": _phase_diagram}
