"""eqls benchmark: one seeded workload, measured end to end or layer by layer.

    python3 bench/run.py --workload cli-session|spectra-sweep|phase-map \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; eqls is imported from ./src.  The
last line of stdout is {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it is the full report: environment, input properties,
set-up samples, latency by kind of operation, failures and, for
cli-session, the sha256 of every command's stdout.

Workloads (all closed loop, one client, BLAS pinned to BLAS_THREADS):
  cli-session    sequential `python -m eqls ...` subprocesses over every
                 subcommand family; interpreter start and `import eqls`
                 dominate, so import and cli changes show here.
  spectra-sweep  converged spectra and Stark scans through eqls.zstates in
                 one worker process; eigensolves dominate.
  phase-map      melting curves and (n, T) classification tiles through
                 eqls.phases in one worker process; Gamma evaluations
                 dominate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
BLAS_THREADS = 1
SETUPS = 3                 # set-ups per run; setup_s is their median
IMPORT_SAMPLES = 3         # -X importtime runs per traced run
RUN_LIMIT_S = 170.0        # every run ends within this, or fails

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "peak_rss_mb": "MB", "ok_ratio": "ratio", "max_rel_err": "ratio"}

PER_LAYER = {
    "import.total_ms": "ms", "import.scipy_ms": "ms", "import.eqls_self_ms": "ms",
    "matter.load_registry.ms": "ms",
    "cli.main.calls": "count", "cli.main.self_ms": "ms",
    "cqed.calls": "count", "cqed.self_us": "us",
    "zstates.build_potential.calls": "count", "zstates.build_potential.self_ms": "ms",
    "zstates.build_potential.grid_points": "count",
    "zstates.solve_bound_states.calls": "count", "zstates.solve_bound_states.self_ms": "ms",
    "zstates.solve_bound_states.eigenpairs": "count",
    "zstates.solve_bound_states.halving_grid_points": "count",
    "zstates.solve_bound_states.bound_ratio": "ratio",
    "zstates.stark_scan.calls": "count", "zstates.stark_scan.self_ms": "ms",
    "zstates.stark_scan.fields": "count",
    "phases.plasma_parameter.calls": "count", "phases.plasma_parameter.self_ms": "ms",
    "phases.melting_roots.calls": "count", "phases.melting_roots.self_ms": "ms",
    "phases.melting_roots.root_ratio": "ratio",
    "phases.critical_point.calls": "count", "phases.critical_point.self_ms": "ms",
    "phases.classify.calls": "count", "phases.classify.self_ms": "ms",
    "phases.electron_gas_point.calls": "count", "phases.electron_gas_point.self_ms": "ms",
    "phases.gamma_evals_per_curve_point": "count",
    "trace.overhead_ratio": "ratio", "trace.span_coverage": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# ------------------------------------------------------------- processes

def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Worker:
    """A worker process; the constructor returns once it reports `ready`."""

    def __init__(self, cfg: dict, env: dict, deadline: float):
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, env=env, cwd=cfg["root"])
        try:
            self.proc.stdin.write((json.dumps(cfg) + "\n").encode())
            self.proc.stdin.flush()
            ready, _, _ = select.select([self.proc.stdout], [], [], self._left())
            line = self.proc.stdout.readline() if ready else b""
            if line.strip() != b"ready":
                raise BenchError(f"worker failed to start: {self._stderr()}")
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - t0

    def _left(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def _stderr(self) -> str:
        self.close()
        return self.proc.stderr.read().decode(errors="replace")[-2000:]

    def run(self) -> dict:
        try:
            out, err = self.proc.communicate(b"go\n", timeout=self._left())
        except subprocess.TimeoutExpired:
            self.close()
            raise BenchError("worker exceeded the run time limit") from None
        if self.proc.returncode != 0 or not out.strip():
            raise BenchError(f"worker failed: {err.decode(errors='replace')[-2000:]}")
        return json.loads(out.splitlines()[-1])

    def quit(self) -> None:
        try:
            self.proc.communicate(b"quit\n", timeout=self._left())
        finally:
            self.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def import_metrics(env: dict, root: Path) -> dict:
    """Median over runs of `python -X importtime -c "import eqls"`."""
    samples = defaultdict(list)
    for _ in range(IMPORT_SAMPLES):
        p = subprocess.run([sys.executable, "-X", "importtime", "-c", "import eqls"],
                           capture_output=True, text=True, env=env, cwd=root, timeout=60)
        if p.returncode != 0:
            raise BenchError(f"import eqls failed: {p.stderr[-2000:]}")
        total = scipy = own = 0
        for line in p.stderr.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            name = name.strip()
            if name.split(".")[0] == "scipy":
                scipy += int(self_us)
            if name.split(".")[0] == "eqls":
                own += int(self_us)
            if name == "eqls":
                total = int(cumulative_us)
        samples["import.total_ms"].append(total / 1e3)
        samples["import.scipy_ms"].append(scipy / 1e3)
        samples["import.eqls_self_ms"].append(own / 1e3)
    return {k: statistics.median(v) for k, v in samples.items()}


# ------------------------------------------------------------- workloads

def library_run(cfg: dict, env: dict, deadline: float) -> dict:
    """Worker-process workloads; set up SETUPS times and time the last."""
    setups = []
    count = 1 if cfg["trace"] else SETUPS
    for i in range(count):
        worker = Worker(cfg, env, deadline)
        setups.append(worker.setup_s)
        if i < count - 1:
            worker.quit()
    report = worker.run()
    report["setup_samples_s"] = setups
    return report


def cli_session(cfg: dict, env: dict, deadline: float) -> dict:
    """`python -m eqls ...` subprocesses for `seconds`, one at a time."""
    root = cfg["root"]
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        p = subprocess.run([sys.executable, "-c", "import eqls"], capture_output=True,
                           env=env, cwd=root, timeout=60)
        setups.append(time.perf_counter() - t0)
        if p.returncode != 0:
            raise BenchError(f"import eqls failed: {p.stderr.decode()[-2000:]}")
    latencies, outputs = [], []
    t0 = time.perf_counter()
    end = t0
    for op in workloads.ops("cli-session", cfg["seed"]):
        a = time.perf_counter()
        p = subprocess.run([sys.executable, "-m", "eqls", *op["argv"]], capture_output=True,
                           env=env, cwd=root, timeout=max(1.0, deadline - a))
        end = time.perf_counter()
        latencies.append(end - a)
        outputs.append({"exit": p.returncode, "stdout": p.stdout.decode(errors="replace"),
                        "stderr": p.stderr.decode(errors="replace")})
        if end >= t0 + cfg["seconds"]:
            break
    return {"latencies": latencies, "outputs": outputs, "elapsed": end - t0,
            "setup_samples_s": setups}


# ------------------------------------------------------------- reporting

def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "mpmath": metadata.version("mpmath"),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "blas_threads": BLAS_THREADS, "platform": platform.platform()}


def check_all(workload: str, seed: int, outputs: list[dict]):
    op_list = workloads.take(workload, seed, len(outputs))
    cycle = workloads.CYCLE_OPS[workload]
    verdicts = []
    for i, (op, out) in enumerate(zip(op_list, outputs)):
        verdicts.append(checks.check_op(op, out) if i < cycle else
                        checks.check_repeat(verdicts[i % cycle], out, outputs[i % cycle]))
    return op_list, verdicts


def by_kind(op_list, latencies) -> dict:
    groups = defaultdict(list)
    for op, lat in zip(op_list, latencies):
        groups[workloads.label(op)].append(lat * 1e3)
    return {k: {"n": len(v), "p50_ms": statistics.median(v)} for k, v in sorted(groups.items())}


def measure(args, root: Path) -> tuple[dict, dict]:
    """Returns (summary line, full report)."""
    env = child_env(root / "src")
    deadline = time.perf_counter() + RUN_LIMIT_S
    cfg = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "src": str(root / "src"), "root": str(root)}
    if args.workload == "cli-session" and not args.trace:
        raw = cli_session(cfg, env, deadline)
    else:
        raw = library_run(cfg, env, deadline)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "setup_samples_s": raw.pop("setup_samples_s")}

    t_check = time.perf_counter()
    run = raw["untraced"] if args.trace else raw
    op_list, verdicts = check_all(args.workload, args.seed, run["outputs"])
    failures = [f"op {i} ({workloads.label(op)}): {'; '.join(v.errors[:3])}"
                for i, (op, v) in enumerate(zip(op_list, verdicts)) if not v.ok]
    if args.trace and raw["traced"]["outputs"] != run["outputs"]:
        failures.append("traced outputs differ from untraced outputs")
    report["check_s"] = time.perf_counter() - t_check

    latencies = run["latencies"]
    failed = sum(not v.ok for v in verdicts)
    report.update({
        "operations": len(latencies),
        "latency_by_kind": by_kind(op_list, latencies),
        "inputs": workloads.properties(args.workload, op_list, run["outputs"]),
        "failures": failures[:20],
        "latencies_ms": [lat * 1e3 for lat in latencies],
    })
    if args.workload == "cli-session":
        report["stdout_sha256"] = [
            {"argv": op["argv"], "exit": out["exit"],
             "sha256": hashlib.sha256(out["stdout"].encode()).hexdigest()}
            for op, out in zip(op_list, run["outputs"])]

    if args.trace:
        values = {**import_metrics(env, root), **raw["layers"]}
        report["layer_self_ms"] = raw["layer_self_ms"]
        report["spans"] = raw["spans"]
        units = PER_LAYER
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = {
            "setup_s": statistics.median(report["setup_samples_s"]),
            "ops_per_s": len(latencies) / run["elapsed"],
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": (statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1
                          else latencies[0]) * 1e3,
            "peak_rss_mb": rss_kb / 1024.0,
            "ok_ratio": (len(latencies) - failed) / len(latencies),
            "max_rel_err": max(v.max_rel_err for v in verdicts),
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    report["metrics"] = metrics
    summary = {"correct": not failures, "attempted": len(latencies), "failed": failed,
               "metrics": metrics}
    return summary, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "eqls" / "__init__.py").is_file():
        print(f"error: no eqls source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    try:
        summary, report = measure(args, root)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
