"""Seeded inputs for the benchmark workloads.

Pure Python with no import of eqls, so the benchmark's parent process, its
worker and its tests all draw identical operations from one seed.  Every
workload is an endless stream of fixed-composition blocks: the seed moves
parameters and order inside a block, never the share of each kind of
operation, so a run of a few blocks already has the stated mix and the
latency quantiles land inside the same kind of operation on every seed.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from collections import Counter
from itertools import islice

BOHR_ANGSTROM = 0.529177210903

# The six bundled surfaces (name, eps_r, V0 in eV, b in A) with their
# published reference rows.  Kept here rather than read from the program's
# data file, so the inputs stay fixed if that file changes.
SURFACES = (
    ("liquid 3He", 1.042, 0.9, 0.62,
     {"e1_mev": -0.382, "e2_mev": -0.093, "de_k": 3.4, "f_thz": 0.070,
      "z1_nm": 14.5, "z2_nm": 59.9}),
    ("liquid 4He", 1.056, 1.1, 0.62,
     {"e1_mev": -0.676, "e2_mev": -0.163, "de_k": 5.9, "f_thz": 0.124,
      "z1_nm": 10.8, "z2_nm": 45.0}),
    ("solid Ne", 1.244, 0.7, 0.38,
     {"e1_mev": -17.4, "e2_mev": -3.24, "de_k": 165.0, "f_thz": 3.43,
      "z1_nm": 1.66, "z2_nm": 9.04}),
    ("solid H2", 1.290, 1.7, 0.66,
     {"e1_mev": -16.5, "e2_mev": -3.74, "de_k": 148.0, "f_thz": 3.08,
      "z1_nm": 2.01, "z2_nm": 9.09}),
    ("solid HD", 1.302, 1.9, 0.66,
     {"e1_mev": -17.4, "e2_mev": -3.98, "de_k": 156.0, "f_thz": 3.24,
      "z1_nm": 1.97, "z2_nm": 8.84}),
    ("solid D2", 1.341, 2.1, 0.66,
     {"e1_mev": -21.3, "e2_mev": -4.89, "de_k": 191.0, "f_thz": 3.97,
      "z1_nm": 1.78, "z2_nm": 7.97}),
)
SURFACE_BY_NAME = {s[0]: s for s in SURFACES}

WORKLOADS = ("cli-session", "spectra-sweep", "phase-map")

# Each stream repeats after this many operations.  Runs at this commit stay
# inside the first cycle (about 40, 500 and 170 operations in 30 s); a much
# faster program re-runs earlier inputs, whose outputs are then compared
# with the first, oracle-checked output, which bounds the checking time.
CYCLE_OPS = {"cli-session": 240, "spectra-sweep": 2000, "phase-map": 400}

# Operations replayed untraced and then traced in a --trace 1 run: whole
# blocks, so the mix is exact and the counts repeat exactly for a seed.
TRACE_PREFIX = {"cli-session": 24, "spectra-sweep": 100, "phase-map": 40}

RECURRING_GAMMA0 = 127.0


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _sig(x: float, digits: int = 6) -> float:
    """Round to `digits` significant digits, so argv strings parse back exactly."""
    return float(f"{x:.{digits - 1}e}")


def _stratified(rng: random.Random, lo: float, hi: float, n: int, log: bool = False):
    """One draw from each of n equal strata of [lo, hi], shuffled."""
    if log:
        a, b = math.log(lo), math.log(hi)
        out = [math.exp(a + (b - a) * (i + rng.random()) / n) for i in range(n)]
    else:
        out = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(out)
    return out


def tc_estimate_k(gamma0: float) -> float:
    """Approximate dome apex T_c(gamma0), used only to place temperature grids."""
    return 15.3168 * (RECURRING_GAMMA0 / gamma0) ** 2


# ---------------------------------------------------------------- spectra

def _surface_spec(name: str) -> dict:
    _, eps, v0, b, _ = SURFACE_BY_NAME[name]
    return {"surface": name, "eps_r": eps, "v0_ev": v0, "b_A": b}


def _spectra_block(rng: random.Random) -> list[dict]:
    """20 ops: 10 random RegularizedImage spectra (levels 1..6), 4 bundled
    surfaces, 2 hard-wall spectra, 1 interface pocket, 3 Stark scans."""
    block = []
    for levels in (1, 1, 2, 2, 3, 3, 4, 4, 5, 6):
        block.append({"kind": "spectrum", "potential": "regularized",
                      "eps_r": _sig(rng.uniform(1.02, 1.4)),
                      "v0_ev": _sig(_loguniform(rng, 0.5, 100.0)),
                      "b_A": _sig(_loguniform(rng, 0.05, 2.0)),
                      "levels": levels})
    for name in rng.sample([s[0] for s in SURFACES], 4):
        block.append({"kind": "spectrum", "potential": "bundled", "levels": 2,
                      **_surface_spec(name)})
    for levels in (1, 2):
        eps = _sig(rng.uniform(1.02, 1.4))
        # the hard-wall acceptance grid: z_max = 30 a_B/Z, h = (a_B/Z)/800
        scale = BOHR_ANGSTROM * 4.0 * (eps + 1.0) / (eps - 1.0)
        block.append({"kind": "spectrum", "potential": "hard_wall", "eps_r": eps,
                      "levels": levels, "grid": [-20.0, 30.0 * scale, scale / 800.0]})
    block.append({"kind": "spectrum", "potential": "interface", "levels": 1,
                  "v_below_ev": _sig(rng.uniform(0.5, 1.0)),
                  "v_above_ev": _sig(rng.uniform(0.8, 1.2)),
                  "eps_r_below": _sig(rng.uniform(1.2, 1.35)),
                  "zeta_A": _sig(rng.uniform(0.5, 2.0))})
    for count in _stratified(rng, 5, 41, 3):
        fields = sorted({_sig(rng.uniform(0.0, 3.0e4)) for _ in range(int(count))})
        block.append({"kind": "stark", "fields": fields,
                      **_surface_spec(rng.choice(SURFACES)[0])})
    rng.shuffle(block)
    return block


# -------------------------------------------------------------- phase map

def _curve(rng: random.Random, count: int) -> dict:
    gamma0 = RECURRING_GAMMA0 if rng.random() < 0.3 else _sig(rng.uniform(60.0, 200.0))
    tc = tc_estimate_k(gamma0)
    t_min = tc * rng.uniform(0.03, 0.1)
    t_max = tc * rng.uniform(0.9, 1.1)
    step = (t_max - t_min) / (count - 1)
    return {"kind": "curve", "gamma0": gamma0,
            "temps": [_sig(t_min + i * step, 9) for i in range(count)]}


def _tile(rng: random.Random, side: int = 12) -> dict:
    """side x side (n, T) grid centred near E_F = kT, so every tile crosses
    from the classical into the degenerate regime (E_F/kT ~ 3e-3 .. 3e2)."""
    log_t = rng.uniform(-0.5, 1.2)
    log_n = math.log10(3.6e10) + log_t + rng.uniform(-0.5, 0.5)
    ns = [10 ** (log_n - 1.5 + 3.0 * i / (side - 1)) for i in range(side)]
    ts = [10 ** (log_t - 0.5 + 1.0 * j / (side - 1)) for j in range(side)]
    gamma0 = RECURRING_GAMMA0 if rng.random() < 0.5 else _sig(rng.uniform(60.0, 200.0))
    return {"kind": "tile", "gamma0": gamma0,
            "points": [[_sig(n), _sig(t)] for n in ns for t in ts]}


def _phase_block(rng: random.Random) -> list[dict]:
    """20 ops: 7 tiles, 8 short curves (10-30 temperatures), 4 curves of 40
    and 1 long one (100-400).  Sorted by cost, p50 falls among the short
    curves and p90 among the 40-point curves."""
    block = [_tile(rng) for _ in range(7)]
    block += [_curve(rng, round(c)) for c in _stratified(rng, 10, 30, 8)]
    block += [_curve(rng, 40) for _ in range(4)]
    block.append(_curve(rng, round(_loguniform(rng, 100, 400))))
    rng.shuffle(block)
    return block


# ------------------------------------------------------------ CLI session

def _fmt(rng: random.Random) -> list[str]:
    return ["--format", rng.choice(("csv", "json", "md"))]


def _num(x: float) -> str:
    return f"{_sig(x):.6g}"


def _cli_block(rng: random.Random) -> list[dict]:
    """12 commands, one of each family slot, in seeded order."""
    names = [s[0] for s in SURFACES]
    f_charge = rng.uniform(2.0, 10.0)
    f_larmor = f_charge * rng.choice((-1, 1)) * rng.uniform(0.02, 0.3) + f_charge
    argvs = [
        ["couple", "gs", "--g", _num(rng.uniform(1.0, 50.0)),
         "--f-charge", _num(f_charge), "--f-larmor", _num(f_larmor),
         "--grad-bz", _num(_loguniform(rng, 10.0, 1000.0)),
         "--mass-ratio", _num(rng.uniform(0.5, 2.0))],
        ["couple", "imagecharge", "--dz-nm", _num(rng.uniform(0.1, 20.0))]
        + (["--d-nm", _num(_loguniform(rng, 1e3, 1e7))] if rng.random() < 0.5
           else ["--d-mm", _num(rng.uniform(0.1, 10.0))]),
        ["couple", "larmor", "--b-field", _num(rng.uniform(0.0, 2.0))],
        ["couple", "strong", "--g", _num(rng.uniform(0.1, 10.0)),
         "--kappa", _num(rng.uniform(0.01, 5.0)),
         "--gamma-rate", _num(rng.uniform(0.01, 5.0))],
        ["classify", "--density", _num(_loguniform(rng, 1e7, 1e13)),
         "--temperature", _num(_loguniform(rng, 0.1, 50.0))]
        + (["--gamma0", _num(rng.uniform(60.0, 200.0))] if rng.random() < 0.5 else []),
        ["table1"],
        ["table2", "--substance", rng.choice(names)]
        + (["--residuals"] if rng.random() < 0.5 else []),
        ["table2"] + (["--residuals"] if rng.random() < 0.5 else []),
    ]
    for _ in range(2):
        argvs.append(["states", "--substance", rng.choice(names),
                      "--levels", str(rng.randint(1, 6))])
    for _ in range(2):
        gamma0 = RECURRING_GAMMA0 if rng.random() < 0.3 else _sig(rng.uniform(60.0, 200.0))
        tc = tc_estimate_k(gamma0)
        argvs.append(["phase-diagram", "--gamma0", _num(gamma0),
                      "--t-min", _num(tc * rng.uniform(0.03, 0.1)),
                      "--t-max", _num(tc * rng.uniform(0.9, 1.1)),
                      "--points", str(rng.randint(2, 40))])
    block = [{"kind": "cli", "family": _family(a), "argv": a + _fmt(rng)} for a in argvs]
    rng.shuffle(block)
    return block


def _family(argv: list[str]) -> str:
    return " ".join(argv[:2]) if argv[0] == "couple" else argv[0]


_BLOCKS = {"cli-session": _cli_block, "spectra-sweep": _spectra_block,
           "phase-map": _phase_block}


def ops(workload: str, seed: int):
    """Endless, seeded stream of operations for one workload."""
    rng = random.Random(f"{workload}:{seed}")
    cycle: list[dict] = []
    while len(cycle) < CYCLE_OPS[workload]:
        cycle += _BLOCKS[workload](rng)
    while True:
        yield from cycle[:CYCLE_OPS[workload]]


def label(op: dict) -> str:
    """Kind of operation, as reported in the mix and latency breakdown."""
    return op.get("family") or op.get("potential") or op["kind"]


def take(workload: str, seed: int, count: int) -> list[dict]:
    return list(islice(ops(workload, seed), count))


def warmup_op(workload: str) -> dict:
    """The untimed warm-up operation every worker runs during set-up."""
    if workload == "spectra-sweep":
        return {"kind": "spectrum", "potential": "bundled", "levels": 2,
                **_surface_spec("liquid 4He")}
    if workload == "phase-map":
        return {"kind": "curve", "gamma0": RECURRING_GAMMA0,
                "temps": [0.5 + 2.0 * i for i in range(10)]}
    return {"kind": "cli", "family": "table2", "argv": ["table2", "--format", "csv"]}


# ------------------------------------------------------- input properties

def _quantiles(values: list[float]) -> dict:
    if not values:
        return {}
    values = sorted(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "min": values[0], "p25": q[0], "p50": q[1],
            "p75": q[2], "max": values[-1]}


def _repeated_share(keys: list) -> float:
    """Share of operations whose input key already occurred earlier."""
    seen, repeats = set(), 0
    for k in keys:
        repeats += k in seen
        seen.add(k)
    return repeats / len(keys) if keys else 0.0


def properties(workload: str, op_list: list[dict], outputs: list[dict]) -> dict:
    """Input properties of the operations a run executed (grid sizes, which
    the program derives from the inputs, are read from its outputs)."""
    mix = Counter(label(op) for op in op_list)
    props = {"operations": len(op_list),
             "mix": {k: v / len(op_list) for k, v in sorted(mix.items())} if op_list else {}}
    if workload == "spectra-sweep":
        spectra = [op for op in op_list if op["kind"] == "spectrum"]
        keys = [json.dumps(op, sort_keys=True) for op in op_list]
        props["repeated_spec_share"] = _repeated_share(keys)
        props["levels"] = _quantiles([op["levels"] for op in spectra])
        props["grid_points"] = _quantiles([out["grid_points"] for out in outputs
                                           if "grid_points" in out])
        props["stark_fields"] = _quantiles([len(op["fields"]) for op in op_list
                                            if op["kind"] == "stark"])
    elif workload == "phase-map":
        curves = [op for op in op_list if op["kind"] == "curve"]
        gammas = [op["gamma0"] for op in op_list]
        props["repeated_gamma0_share"] = _repeated_share(gammas)
        props["recurring_gamma0_share"] = (sum(g == RECURRING_GAMMA0 for g in gammas)
                                           / len(gammas) if gammas else 0.0)
        props["temperatures_per_curve"] = _quantiles([len(op["temps"]) for op in curves])
    else:
        props["repeated_argv_share"] = _repeated_share([tuple(op["argv"]) for op in op_list])
        props["formats"] = dict(Counter(op["argv"][op["argv"].index("--format") + 1]
                                        for op in op_list))
    return props
