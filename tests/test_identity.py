"""`tools/identity.py` on faked trees: a stand-in `eqls` and bench, so no solve runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))         # identity imports ab's export
_spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)

MAIN = """import pathlib, sys
args = sys.argv[1:]
if "--dump-psi" in args:
    out = pathlib.Path(args[args.index("--dump-psi") + 1])
    out.mkdir()
    (out / "state1.dat").write_text("# header\\n{dump}\\n")
print("ran", *args)
if args[0] == "table2":
    print("{stderr}", file=sys.stderr)
sys.exit({code} if args[0] == "table1" else 0)
"""

WORKER = """from pathlib import Path
def _load_eqls(src):
    assert Path(src).is_dir()
    return {{}}
class Runner:
    def __init__(self, mods):
        pass
    def run(self, op):
        return {{"op": op, "energy": {energy}}}
"""

WORKLOADS = """def take(workload, seed, count):
    return [[workload, seed, k] for k in range(count)]
"""

SAME = {"dump": "psi 1", "stderr": "note", "code": 0, "energy": -0.5, "golden": "a,b\n"}


def fake_tree(dest, dump, stderr, code, energy, golden):
    """A tree with identity.py's layout: src/eqls, bench/ and tests/golden."""
    (dest / "src" / "eqls").mkdir(parents=True)
    (dest / "src" / "eqls" / "__init__.py").write_text("")
    (dest / "src" / "eqls" / "__main__.py").write_text(
        MAIN.format(dump=dump, stderr=stderr, code=code))
    (dest / "bench").mkdir()
    (dest / "bench" / "worker.py").write_text(WORKER.format(energy=energy))
    (dest / "bench" / "workloads.py").write_text(WORKLOADS)
    (dest / "tests" / "golden").mkdir(parents=True)
    (dest / "tests" / "golden" / "g.csv").write_text(golden)


@pytest.fixture
def trees(monkeypatch):
    """Fakes `export`: revision "B" is the base tree, and "H" is the base with the
    changes in `head` applied; returns `head`, for the test to fill in."""
    head = {}

    def export(repo, rev, dest):
        fake_tree(dest, **(SAME if rev == "B" else {**SAME, **head}))
        return rev * 40

    monkeypatch.setattr(identity, "export", export)
    monkeypatch.setattr(identity, "CLI_MATRIX", [("table1", "--format", "md"),
                                                 ("states", "--dump-psi", "psi")])
    monkeypatch.setattr(identity, "GOLDENS", {"g.csv": ("table2", "--format", "csv")})
    monkeypatch.setattr(identity, "RUNNER_SEEDS", (1,))
    monkeypatch.setattr(identity, "RUNNER_OPS", 3)
    return head


def test_the_full_matrix_is_the_recorded_one():
    assert len(identity.CLI_MATRIX) == 103
    assert len(set(identity.CLI_MATRIX)) == 103
    golden = ROOT / "tests" / "golden"
    assert sorted(identity.GOLDENS) == sorted(p.name for p in golden.iterdir())
    assert (identity.RUNNER_SEEDS, identity.RUNNER_OPS) == ((1, 2), 2000)


def test_identical_trees_pass(trees, capsys):
    assert identity.main(["--base", "B", "--head", "H"]) == 0
    out = capsys.readouterr().out
    assert out == f"0 of 4 runs differ between base {'B' * 12} and head {'H' * 12}\n"


@pytest.mark.parametrize("change, run, where", [
    ({"dump": "psi 2"}, "states --dump-psi psi", "line 7: base 'psi 1', head 'psi 2'"),
    ({"stderr": "warning"}, "golden g.csv", "line 5: base 'note', head 'warning'"),
    ({"code": 3}, "table1 --format md", "line 1: base 'exit 0', head 'exit 3'"),
    ({"golden": "a,b\nc,d\n"}, "golden g.csv", "line 8: only head has 'c,d'"),
    ({"energy": -0.25}, "runner spectra-sweep seed 1, 3 ops", "line 3: base '")],
    ids=["dump_file", "stderr", "exit_status", "stored_golden", "runner_digest"])
def test_a_tree_whose_single_output_differs_fails(trees, capsys, change, run, where):
    trees.update(change)
    assert identity.main(["--base", "B", "--head", "H"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(f"differs: {run}: {where}")
    assert lines[1].startswith("1 of 4 runs differ")


def test_a_revision_that_cannot_be_exported_exits_2(monkeypatch, capsys):
    def export(repo, rev, dest):
        raise identity.ABError(f"git rev-parse: unknown revision {rev}")

    monkeypatch.setattr(identity, "export", export)
    assert identity.main(["--base", "nope"]) == 2
    assert capsys.readouterr().err == "error: git rev-parse: unknown revision nope\n"


def test_first_difference():
    assert identity.first_difference(["a", "b"], ["a", "b"]) is None
    assert identity.first_difference(["a", "b"], ["a", "c"]) == "line 2: base 'b', head 'c'"
    assert identity.first_difference(["a", "b"], ["a"]) == "line 2: only base has 'b'"
