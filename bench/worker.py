"""Benchmark worker: runs one workload's operations in-process against eqls.

Protocol on stdin/stdout, one line each:
  parent -> {"workload", "seed", "seconds", "trace", "src"}
  worker -> "ready"  after import, registry load and one warm-up operation
  parent -> "go" (run and report) or "quit"
  worker -> one JSON object with latencies, outputs and, when traced, the
            per-layer metrics.

The timed loop is closed: one operation at a time, the next started when the
previous one returns, for `seconds` seconds.  A traced run instead replays a
fixed prefix of the stream untraced and then traced.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads
from tracer import Tracer, self_times


def _load_eqls(src: str):
    import eqls
    from eqls import cli, cqed, matter, phases, zstates

    if Path(src).resolve() not in Path(eqls.__file__).resolve().parents:
        raise SystemExit(f"eqls imported from {eqls.__file__}, not from {src}")
    return {"cli": cli, "cqed": cqed, "matter": matter, "phases": phases,
            "zstates": zstates}


class Runner:
    """Turns generated operations into calls on the public eqls API."""

    def __init__(self, mods):
        self.m = mods

    def run(self, op: dict) -> dict:
        return getattr(self, "_" + op["kind"])(op)

    def _potential(self, op: dict):
        z = self.m["zstates"]
        kind = op.get("potential", "regularized")
        if kind in ("regularized", "bundled"):
            return z.RegularizedImage(v0_ev=op["v0_ev"], eps_r=op["eps_r"], b_A=op["b_A"])
        if kind == "hard_wall":
            return z.InfiniteBarrierImage(eps_r=op["eps_r"])
        return z.Interface(op["v_below_ev"], op["v_above_ev"], op["eps_r_below"],
                           op["zeta_A"])

    def _spectrum(self, op: dict) -> dict:
        z = self.m["zstates"]
        spec = self._potential(op)
        grid = (z.surface_grid(*op["grid"]) if "grid" in op
                else z.default_grid(spec, op["levels"]))
        result = z.solve_bound_states(z.build_potential(spec, grid), op["levels"],
                                      report_convergence=True)
        conv = result.convergence
        return {"energies": [s.energy_mev for s in result.states],
                "nodes": [s.node_count for s in result.states],
                "mean_z": [s.mean_z_nm for s in result.states],
                "shortfall": result.shortfall, "grid_points": grid.points,
                "changes": list(conv.energy_change_mev) if conv else None}

    def _stark(self, op: dict) -> dict:
        points = self.m["zstates"].stark_scan(self._potential(op), op["fields"])
        return {"energies": [p.state.energy_mev if p.state else None for p in points]}

    def _curve(self, op: dict) -> dict:
        curve = self.m["phases"].melting_curve(op["gamma0"], op["temps"])
        c = curve.critical
        return {"temps": list(curve.temperatures_k), "n1": list(curve.n_c1_cm2),
                "n2": list(curve.n_c2_cm2), "t_c": c.t_c_k, "n_c": c.n_c_cm2,
                "n_star": c.n_star_cm2}

    def _tile(self, op: dict) -> dict:
        ph = self.m["phases"]
        labels, gammas = [], []
        for n, t in op["points"]:
            labels.append(ph.classify(n, t, op["gamma0"]).value)
            gammas.append(ph.electron_gas_point(n, t).gamma)
        return {"labels": labels, "gammas": gammas}

    def _cli(self, op: dict) -> dict:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.m["cli"].main(list(op["argv"]))
        return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_ops(runner: Runner, stream, seconds: float | None = None,
            count: int | None = None, tracer: Tracer | None = None) -> dict:
    """Closed loop over `stream` for `seconds`, or over `count` operations."""
    latencies, outputs = [], []
    t0 = time.perf_counter()
    deadline = t0 + seconds if seconds is not None else None
    end = t0
    for i, op in enumerate(stream):
        if count is not None and i >= count:
            break
        if tracer is not None:
            tracer.op = i
        a = time.perf_counter()
        try:
            out = runner.run(op)
        except Exception as exc:       # reported as a failed operation
            out = {"error": f"{type(exc).__name__}: {exc}"}
        end = time.perf_counter()
        latencies.append(end - a)
        outputs.append(out)
        if deadline is not None and end >= deadline:
            break
    return {"latencies": latencies, "outputs": outputs, "elapsed": end - t0}


# ------------------------------------------------------------------ tracing

def trace_targets(m) -> dict:
    """Spanned functions and the counts read from their arguments and results."""
    z, ph, mt, cq = m["zstates"], m["phases"], m["matter"], m["cqed"]
    return {
        "zstates.build_potential": (z.build_potential,
                                    lambda a, k, r: {"grid_points": r.grid.points}),
        "zstates.solve_bound_states": (z.solve_bound_states,
                                       lambda a, k, r: {"requested": r.requested,
                                                        "bound": len(r.states)}),
        "zstates.stark_scan": (z.stark_scan, lambda a, k, r: {"fields": len(r)}),
        "zstates.transition": (z.transition, None),
        "phases.melting_curve": (ph.melting_curve,
                                 lambda a, k, r: {"points": len(r.temperatures_k)}),
        "phases.melting_roots": (ph.melting_roots,
                                 lambda a, k, r: {"found": r is not None}),
        "phases.critical_point": (ph.critical_point, None),
        "phases.plasma_parameter": (ph.plasma_parameter, None),
        "phases.classify": (ph.classify, None),
        "phases.electron_gas_point": (ph.electron_gas_point, None),
        "matter.load_registry": (mt.load_registry, None),
        "matter.de_boer": (mt.de_boer, None),
        "cqed.spin_coupling": (cq.spin_coupling, None),
        "cqed.image_charge_delta": (cq.image_charge_delta, None),
        "cqed.larmor": (cq.larmor, None),
        "cqed.strong_coupling": (cq.strong_coupling, None),
        "cli.main": (m["cli"].main, None),
    }


def layer_metrics(spans, op_wall_s: float) -> tuple[dict, dict]:
    """Per-layer counts and self times (ms unless the name says otherwise),
    and the self time of each layer over the traced operations."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for s, st in zip(spans, selfs):
        calls[s.name] += 1
        self_s[s.name] += st

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in spans if s.name == name)

    def parent_is(s, name):
        return s.parent is not None and spans[s.parent].name == name

    requested = info_sum("zstates.solve_bound_states", "requested")
    roots = calls["phases.melting_roots"]
    curve_points = info_sum("phases.melting_curve", "points")
    root_gammas = sum(1 for s in spans if s.name == "phases.plasma_parameter"
                      and parent_is(s, "phases.melting_roots"))
    registry = [s.end - s.start for s in spans if s.name == "matter.load_registry"]
    cqed = [n for n in calls if n.startswith("cqed.")]
    out = {
        "matter.load_registry.ms": statistics.median(registry) * 1e3 if registry else 0.0,
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_ms": self_s["cli.main"] * 1e3,
        "cqed.calls": sum(calls[n] for n in cqed),
        "cqed.self_us": sum(self_s[n] for n in cqed) * 1e6,
        "zstates.build_potential.grid_points": info_sum("zstates.build_potential",
                                                        "grid_points"),
        "zstates.solve_bound_states.eigenpairs": requested,
        "zstates.solve_bound_states.halving_grid_points": sum(
            s.info["grid_points"] for s in spans
            if s.name == "zstates.build_potential"
            and parent_is(s, "zstates.solve_bound_states")),
        "zstates.solve_bound_states.bound_ratio":
            info_sum("zstates.solve_bound_states", "bound") / requested if requested else 0.0,
        "zstates.stark_scan.fields": info_sum("zstates.stark_scan", "fields"),
        "phases.melting_roots.root_ratio":
            info_sum("phases.melting_roots", "found") / roots if roots else 0.0,
        "phases.gamma_evals_per_curve_point":
            root_gammas / curve_points if curve_points else 0.0,
    }
    for name in ("zstates.build_potential", "zstates.solve_bound_states",
                 "zstates.stark_scan", "phases.plasma_parameter", "phases.melting_roots",
                 "phases.critical_point", "phases.classify", "phases.electron_gas_point"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_ms"] = self_s[name] * 1e3
    layer_self = defaultdict(float)
    for s, st in zip(spans, selfs):
        if s.op >= 0:
            layer_self[s.name.split(".")[0]] += st
    out["trace.span_coverage"] = sum(layer_self.values()) / op_wall_s if op_wall_s else 0.0
    return out, {k: v * 1e3 for k, v in sorted(layer_self.items())}


def traced_run(runner: Runner, cfg: dict) -> dict:
    count = workloads.TRACE_PREFIX[cfg["workload"]]
    prefix = workloads.take(cfg["workload"], cfg["seed"], count)
    plain = run_ops(runner, iter(prefix), count=count)
    tracer = Tracer()
    tracer.install(runner.m.values(), trace_targets(runner.m))
    try:
        for _ in range(5):
            runner.m["matter"].load_registry()
        traced = run_ops(runner, iter(prefix), count=count, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics, layer_self_ms = layer_metrics(tracer.spans, sum(traced["latencies"]))
    metrics["trace.overhead_ratio"] = plain["elapsed"] / traced["elapsed"]
    return {"untraced": plain, "traced": traced, "layers": metrics,
            "layer_self_ms": layer_self_ms, "spans": len(tracer.spans)}


def main() -> None:
    cfg = json.loads(sys.stdin.readline())
    runner = Runner(_load_eqls(cfg["src"]))
    runner.m["matter"].load_registry()
    runner.run(workloads.warmup_op(cfg["workload"]))
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return
    if cfg["trace"]:
        report = traced_run(runner, cfg)
    else:
        report = run_ops(runner, workloads.ops(cfg["workload"], cfg["seed"]),
                         seconds=cfg["seconds"])
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
