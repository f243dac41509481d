"""Alternating A/B runs of the benchmark between two revisions.

    python3 tools/ab.py --base REV --head REV --workload W --pairs N --seconds S \
        [--seed0 K] --out BENCH_<n>.json

Run in a git checkout of eqls.  Both revisions are exported with `git archive`
(local git only) into one temporary directory, and BENCHMARK.json's command
(`python3 bench/run.py`) runs in each tree with --trace 0.  Pair i runs both
sides on seed K + i; the base runs first in even pairs and the head in odd
ones, so a drift of the host over the session falls on both sides alike.

The output file keeps each side's commit and line count of src/eqls/*.py,
every pair's end-to-end metrics and, per metric, each side's median and
quartiles, the median and quartiles of the per-pair ratio head/base over
the pairs with a nonzero base (a drift of the host's speed over the session
moves both runs of a pair, so it widens each side's quartiles but not
these), the pairs the head won (ties count for neither) and a verdict
against the metric's bound in BENCHMARK.json, which reads the sides'
medians:

  worse        the head's median is worse than the base's by more than
               the bound (relative to the base's median);
  better       over at least 10 pairs, the head won at least 9 in 10 and
               the medians differ by more than the base's interquartile
               range;
  unresolved   neither, and the base's interquartile range is wider than
               the bound, unless every head run beats every base run;
  within bound otherwise.

One file holds one entry per workload: a run for workload W replaces W's
entry and keeps the others, provided both revisions are the same.  The tool
changes nothing in either tree, in bench/ or in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
GAIN_PAIRS = 10         # pairs needed to read "better" ...
GAIN_SHARE = 0.9        # ... and the share of them the head must win


class ABError(RuntimeError):
    """A revision could not be exported or a benchmark run failed."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of at least one value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _relative(delta: float, base: float) -> float:
    """delta / |base|; a zero base gives 0 for no change and +-inf otherwise."""
    if base == 0.0:
        return 0.0 if delta == 0.0 else math.copysign(math.inf, delta)
    return delta / abs(base)


def verdict(base: list[float], head: list[float], better: str, bound: float) -> dict:
    """One metric's summary over paired runs: base[i] and head[i] are pair i."""
    sign = -1.0 if better == "higher" else 1.0      # sign * (head - base) > 0 is worse
    b1, b_med, b3 = quartiles(base)
    h1, h_med, h3 = quartiles(head)
    ratios = [h / b for b, h in zip(base, head) if b != 0.0]
    wins = sum(sign * (h - b) < 0.0 for b, h in zip(base, head))
    worse_by = _relative(sign * (h_med - b_med), b_med)
    spread = _relative(b3 - b1, b_med)
    all_better = max(sign * h for h in head) < min(sign * b for b in base)
    if worse_by > bound:
        result = "worse"
    elif (len(base) >= GAIN_PAIRS and wins >= GAIN_SHARE * len(base) and worse_by < 0.0
          and abs(h_med - b_med) > b3 - b1):
        result = "better"
    elif spread > bound and not all_better:
        result = "unresolved"
    else:
        result = "within bound"
    return {"base": {"q1": b1, "median": b_med, "q3": b3},
            "head": {"q1": h1, "median": h_med, "q3": h3},
            "ratio": dict(zip(("q1", "median", "q3"), quartiles(ratios))) if ratios else None,
            "worse_by": worse_by, "base_spread": spread, "bound": bound,
            "head_wins": wins, "pairs": len(base), "verdict": result}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per-metric verdicts for `pairs`, each {"base": {name: value}, "head": {...}},
    against BENCHMARK.json's `end_to_end` list."""
    return {m["name"]: {"unit": m["unit"], "better": m["better"],
                        **verdict([p["base"][m["name"]] for p in pairs],
                                  [p["head"][m["name"]] for p in pairs],
                                  m["better"], m["bound"])}
            for m in end_to_end}


def src_lines(tree: Path) -> int:
    """Lines of the package's modules, src/eqls/*.py, in `tree` (as `wc -l` counts)."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "eqls").glob("*.py"))


def _git(repo: Path, *args: str) -> bytes:
    p = subprocess.run(["git", *args], cwd=repo, capture_output=True)
    if p.returncode != 0:
        raise ABError(f"git {' '.join(args)}: {p.stderr.decode(errors='replace').strip()}")
    return p.stdout


def export(repo: Path, rev: str, dest: Path) -> str:
    """`git archive` of `rev` unpacked into `dest`; returns the commit id."""
    commit = _git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    dest.mkdir(parents=True)
    p = subprocess.run(["tar", "-x", "-C", str(dest)], input=_git(repo, "archive", commit),
                       capture_output=True)
    if p.returncode != 0:
        raise ABError(f"unpacking {rev}: {p.stderr.decode(errors='replace').strip()}")
    return commit


def run_once(command: list[str], tree: Path, workload: str, seed: int,
             seconds: float) -> tuple[dict, dict]:
    """One untraced benchmark run in `tree`: (summary line, full report)."""
    p = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                        "--seconds", repr(seconds), "--trace", "0"],
                       cwd=tree, capture_output=True, text=True)
    lines = p.stdout.splitlines()
    if p.returncode != 0 or len(lines) < 2:
        raise ABError(f"{workload} seed {seed} in {tree.name} exited {p.returncode}: "
                      f"{p.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--head", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0.0:
        parser.error("--pairs and --seconds must be positive")
    bench = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error("--workload must be one of BENCHMARK.json's workloads")
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    try:
        with tempfile.TemporaryDirectory(prefix="eqls-ab-") as tmp:
            trees = {side: Path(tmp) / side for side in ("base", "head")}
            commits = {side: export(REPO, getattr(args, side), trees[side]) for side in trees}
            lines = {side: src_lines(trees[side]) for side in trees}
            if doc and {s: doc[s]["commit"] for s in trees} != commits:
                raise ABError(f"{args.out} holds runs of other revisions")
            pairs, environment = [], None
            for i in range(args.pairs):
                seed = args.seed0 + i
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    summary, report = run_once(bench["command"], trees[side], args.workload,
                                               seed, args.seconds)
                    environment = environment or report["environment"]
                    pair[side] = {n: m["value"] for n, m in summary["metrics"].items()}
                    pair[f"{side}_ops"] = {"attempted": summary["attempted"],
                                           "failed": summary["failed"],
                                           "correct": summary["correct"]}
                print(f"pair {i + 1}/{args.pairs} seed {seed}: "
                      + ", ".join(f"{s} {pair[s]['ops_per_s']:.3g} ops/s" for s in trees),
                      file=sys.stderr)
                pairs.append(pair)
    except ABError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    doc.update({side: {"rev": getattr(args, side), "commit": commits[side],
                       "src_lines": lines[side]} for side in trees})
    doc.setdefault("workloads", {})[args.workload] = {
        "pairs": args.pairs, "seconds": args.seconds, "seed0": args.seed0,
        "environment": environment, "runs": pairs,
        "metrics": summarize(pairs, bench["end_to_end"])}
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for name, m in doc["workloads"][args.workload]["metrics"].items():
        print(f"{args.workload} {name}: {m['base']['median']:.4g} -> {m['head']['median']:.4g} "
              f"{m['unit']}, head better in {m['head_wins']}/{m['pairs']}: {m['verdict']}"
              + (f"; head/base per pair {m['ratio']['median']:.4g} "
                 f"[{m['ratio']['q1']:.4g}, {m['ratio']['q3']:.4g}]" if m["ratio"] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
