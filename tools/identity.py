"""Check that two revisions give the same outputs, bit for bit.

    python3 tools/identity.py --base REV [--head REV]

Run in a git checkout of eqls; --head defaults to HEAD.  Both revisions are
exported with `git archive` (`tools/ab.py`'s `export`, local git only) into
one temporary directory, and each tree runs one fixed matrix:

  * CLI_MATRIX, each run as `python3 -m eqls ...` with the tree's src/ first
    on PYTHONPATH, in a directory of its own: its exit status, stdout,
    stderr and every file it writes there (the --dump-psi files);
  * GOLDENS, the commands of the golden files: the same outputs, plus the
    tree's stored copy of the file (tests/golden/NAME);
  * for each seed in RUNNER_SEEDS, the sha256 of the JSON of
    `bench/worker.Runner`'s outputs for the first RUNNER_OPS spectra-sweep
    operations, computed in process from the tree's bench/ and src/.

It prints one line per run whose outputs differ between the trees, with the
first line that differs, then a summary.  Exit status: 0 if every output is
the same, 1 if any differs, 2 if a revision could not be exported.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from ab import ABError, export

REPO = Path(__file__).resolve().parents[1]

SURFACES = ("liquid 3He", "liquid 4He", "solid Ne", "solid H2", "solid HD", "solid D2")
FORMATS = ("md", "csv", "json")
_VARIANTS = (("--grid-h", "0.5"), ("--grid-zmax", "900"), ("--field", "3e4"),
             ("--levels", "4", "--field", "1e5"), ("--b", "0", "--v0", "1e6"),
             ("--b", "0", "--v0", "1e6", "--levels", "4", "--field", "3e4"))

# 103 runs: 9 tables, 54 states of the six surfaces, 36 variants of two, 4 dumps
CLI_MATRIX = [
    *((*cmd, "--format", fmt) for cmd in (("table1",), ("table2",), ("table2", "--residuals"))
      for fmt in FORMATS),
    *(("states", "--substance", name, "--levels", str(levels), "--format", fmt)
      for name in SURFACES for levels in (1, 2, 6) for fmt in FORMATS),
    *(("states", "--substance", name, *variant, "--format", fmt)
      for name in ("liquid 3He", "solid Ne") for variant in _VARIANTS for fmt in FORMATS),
    ("states", "--substance", "liquid 3He", "--dump-psi", "psi"),
    ("states", "--substance", "liquid 4He", "--v0", "1e6", "--b", "0", "--field", "3e4",
     "--dump-psi", "psi"),
    ("states", "--substance", "solid Ne", "--grid-h", "0.5", "--dump-psi", "psi"),
    ("states", "--substance", "solid D2", "--levels", "6", "--field", "1e5",
     "--dump-psi", "psi"),
]

GOLDENS = {
    "phase_diagram_gamma127.csv": ("phase-diagram", "--gamma0", "127", "--format", "csv"),
    "table2_residuals.csv": ("table2", "--residuals", "--format", "csv"),
    "states_Ne_6_field3e4.csv": ("states", "--substance", "Ne", "--levels", "6",
                                 "--field", "3e4", "--format", "csv"),
    "states_4He_hard_wall_4.csv": ("states", "--substance", "4He", "--v0", "1e6", "--b", "0",
                                   "--levels", "4", "--format", "csv"),
}

RUNNER_SEEDS = (1, 2)
RUNNER_OPS = 2000
RUNNER_SCRIPT = """
import hashlib, json, sys
sys.path[:0] = ["bench", "src"]
import worker, workloads
runner = worker.Runner(worker._load_eqls("src"))
outputs = []
for op in workloads.take("spectra-sweep", int(sys.argv[1]), int(sys.argv[2])):
    try:
        outputs.append(runner.run(op))
    except Exception as exc:
        outputs.append({"error": f"{type(exc).__name__}: {exc}"})
print(hashlib.sha256(json.dumps(outputs).encode()).hexdigest())
"""


def run(command: list[str], tree: Path, workdir: Path) -> list[str]:
    """The outputs of one command run in `workdir` against `tree`'s src/: exit
    status, stdout, stderr and each file written under `workdir`, as lines."""
    workdir.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k != "EQLS_SUBSTANCES"}
    env["PYTHONPATH"] = str(tree / "src")
    p = subprocess.run(command, cwd=workdir, env=env, capture_output=True, encoding="utf-8",
                       errors="replace")
    record = [f"exit {p.returncode}", "--- stdout", *p.stdout.splitlines(),
              "--- stderr", *p.stderr.splitlines()]
    for path in sorted(x for x in workdir.rglob("*") if x.is_file()):
        record += [f"--- file {path.relative_to(workdir).as_posix()}",
                   *path.read_text(encoding="utf-8", errors="replace").splitlines()]
    return record


def outputs(tree: Path, scratch: Path) -> dict[str, list[str]]:
    """Every run of the matrix in `tree`, by name; `scratch` holds the work dirs."""
    runs = [(" ".join(argv), argv, None) for argv in CLI_MATRIX]
    runs += [(f"golden {name}", argv, name) for name, argv in GOLDENS.items()]
    result = {}
    for k, (name, argv, golden) in enumerate(runs):
        result[name] = run([sys.executable, "-m", "eqls", *argv], tree, scratch / str(k))
        if golden is not None:
            stored = tree / "tests" / "golden" / golden
            result[name] += [f"--- stored {golden}",
                             *stored.read_text(encoding="utf-8", errors="replace").splitlines()]
    for seed in RUNNER_SEEDS:
        # run in the tree itself, which the script reads bench/ and src/ from
        p = subprocess.run([sys.executable, "-c", RUNNER_SCRIPT, str(seed), str(RUNNER_OPS)],
                           cwd=tree, capture_output=True, encoding="utf-8", errors="replace")
        result[f"runner spectra-sweep seed {seed}, {RUNNER_OPS} ops"] = [
            f"exit {p.returncode}", "--- sha256", *p.stdout.splitlines(),
            "--- stderr", *p.stderr.splitlines()]
    return result


def first_difference(base: list[str], head: list[str]) -> str | None:
    """Where two records first differ, or None if they are the same."""
    for k, (b, h) in enumerate(zip(base, head)):
        if b != h:
            return f"line {k + 1}: base {b!r}, head {h!r}"
    if len(base) != len(head):
        k = min(len(base), len(head))
        side, longer = ("base", base) if len(base) > k else ("head", head)
        return f"line {k + 1}: only {side} has {longer[k]!r}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--head", default="HEAD")
    args = parser.parse_args(argv)
    try:
        with tempfile.TemporaryDirectory(prefix="eqls-identity-") as tmp:
            trees = {side: Path(tmp) / side for side in ("base", "head")}
            commits = {side: export(REPO, getattr(args, side), trees[side]) for side in trees}
            found = {side: outputs(trees[side], Path(tmp) / f"{side}-runs") for side in trees}
    except ABError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    differ = 0
    for name, base in found["base"].items():
        where = first_difference(base, found["head"][name])
        if where is not None:
            differ += 1
            print(f"differs: {name}: {where}")
    print(f"{differ} of {len(found['base'])} runs differ between base {commits['base'][:12]} "
          f"and head {commits['head'][:12]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
