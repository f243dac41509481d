"""`tools/ab.py`'s summary and pairing, on synthetic runs: no benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def test_quartiles():
    assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)


def test_a_clear_gain_reads_better():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    head = [b * 1.5 for b in base]
    v = ab.verdict(base, head, "higher", 0.25)
    assert (v["verdict"], v["head_wins"], v["pairs"]) == ("better", 10, 10)
    assert v["worse_by"] == pytest.approx(-0.5)
    # the same gain in 8 of 10 pairs is no claim
    v = ab.verdict(base, head[:8] + base[8:], "higher", 0.25)
    assert (v["verdict"], v["head_wins"]) == ("within bound", 8)
    # and 9 pairs are too few to claim it
    assert ab.verdict(base[:9], head[:9], "higher", 0.25)["verdict"] == "within bound"


def test_a_regression_past_the_bound_reads_worse():
    base = [100.0, 101.0, 99.0, 100.5, 100.0]
    v = ab.verdict(base, [b * 1.3 for b in base], "lower", 0.25)
    assert v["verdict"] == "worse"
    assert v["worse_by"] == pytest.approx(0.3)
    assert ab.verdict(base, [b * 1.2 for b in base], "lower", 0.25)["verdict"] == "within bound"


def test_a_spread_wider_than_the_bound_is_unresolved():
    base = [10.0, 20.0, 10.0, 20.0, 15.0]
    head = [20.0, 10.0, 15.0, 12.0, 18.0]
    v = ab.verdict(base, head, "lower", 0.1)
    assert v["base_spread"] > 0.1
    assert v["verdict"] == "unresolved"
    # unless every head run beats every base run
    assert ab.verdict(base, [9.9, 9.0, 9.5, 9.1, 9.8], "lower", 0.1)["verdict"] == "within bound"


def test_per_pair_ratios_cancel_a_drift_of_the_host():
    # both sides slow down by a third over the last pairs: the sides' medians
    # and quartiles spread, the head/base ratio of every pair stays 1.2
    drift = [1.0] * 7 + [0.7, 0.65, 0.6]
    base = [100.0 * d for d in drift]
    head = [120.0 * d for d in drift]
    v = ab.verdict(base, head, "higher", 0.25)
    assert v["base_spread"] > 0.25
    assert v["ratio"] == pytest.approx({"q1": 1.2, "median": 1.2, "q3": 1.2})
    assert v["verdict"] == "unresolved"     # the rule still reads the sides' medians
    # a pair with a zero base has no ratio
    assert ab.verdict([0.0, 0.0, 2.0], [0.0, 1.0, 1.0], "lower", 0.25)["ratio"] == {
        "q1": 0.5, "median": 0.5, "q3": 0.5}
    assert ab.verdict([0.0, 0.0], [0.0, 1.0], "lower", 0.25)["ratio"] is None


def test_ties_count_for_neither_side_and_a_zero_base_is_no_change():
    v = ab.verdict([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], "lower", 0.25)
    assert (v["worse_by"], v["base_spread"], v["head_wins"], v["verdict"]) == (
        0.0, 0.0, 0, "within bound")
    assert ab.verdict([0.0] * 3, [1e-9] * 3, "lower", 0.25)["verdict"] == "worse"


def test_summary_covers_every_end_to_end_metric_with_its_bound():
    run = {"setup_s": 0.1, "ops_per_s": 50.0, "op_p50_ms": 6.0, "op_p90_ms": 30.0,
           "peak_rss_mb": 45.0, "ok_ratio": 1.0, "max_rel_err": 0.0119}
    pairs = [{"base": run, "head": dict(run, peak_rss_mb=50.0)} for _ in range(5)]
    summary = ab.summarize(pairs, END_TO_END)
    assert list(summary) == [m["name"] for m in END_TO_END]
    for m in END_TO_END:
        assert summary[m["name"]]["bound"] == m["bound"]
    assert summary["peak_rss_mb"]["verdict"] == "worse"       # +11% against a 10% bound
    assert {v["verdict"] for k, v in summary.items() if k != "peak_rss_mb"} == {"within bound"}


def test_pairs_alternate_and_runs_merge_by_workload(tmp_path, monkeypatch):
    calls = []

    def export(repo, rev, dest):
        return {"A": "a" * 40, "B": "b" * 40, "C": "c" * 40}[rev]

    def run_once(command, tree, workload, seed, seconds):
        calls.append((tree.name, workload, seed, seconds))
        value = {"base": 10.0, "head": 11.0}[tree.name]
        metrics = {m["name"]: {"value": value} for m in END_TO_END}
        return ({"metrics": metrics, "attempted": 5, "failed": 0, "correct": True},
                {"environment": {"python": "3"}})

    monkeypatch.setattr(ab, "export", export)
    monkeypatch.setattr(ab, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    args = ["--base", "A", "--head", "B", "--pairs", "3", "--seconds", "2", "--seed0", "7",
            "--out", str(out)]
    assert ab.main(args + ["--workload", "phase-map"]) == 0
    assert calls == [("base", "phase-map", 7, 2.0), ("head", "phase-map", 7, 2.0),
                     ("head", "phase-map", 8, 2.0), ("base", "phase-map", 8, 2.0),
                     ("base", "phase-map", 9, 2.0), ("head", "phase-map", 9, 2.0)]
    assert ab.main(args + ["--workload", "cli-session"]) == 0
    doc = json.loads(out.read_text())
    assert sorted(doc["workloads"]) == ["cli-session", "phase-map"]
    assert doc["base"]["commit"] == "a" * 40
    entry = doc["workloads"]["phase-map"]
    assert [r["first"] for r in entry["runs"]] == ["base", "head", "base"]
    assert entry["metrics"]["ops_per_s"]["head_wins"] == 3
    assert entry["metrics"]["op_p50_ms"]["head_wins"] == 0
    # a file of other revisions is not mixed with new runs
    assert ab.main(["--base", "A", "--head", "C", "--pairs", "1", "--seconds", "2",
                    "--workload", "phase-map", "--out", str(out)]) == 1
    assert json.loads(out.read_text()) == doc


def test_each_side_records_its_package_line_count(tmp_path, monkeypatch):
    sizes = {"A": {"a.py": 3, "b.py": 2}, "B": {"a.py": 4}}

    def export(repo, rev, dest):
        package = dest / "src" / "eqls"
        (package / "data").mkdir(parents=True)
        for name, count in sizes[rev].items():
            (package / name).write_text("x = 1\n" * count)
        (package / "data" / "c.py").write_text("not counted\n")
        (dest / "tools").mkdir()
        (dest / "tools" / "d.py").write_text("not counted\n")
        return rev.lower() * 40

    def run_once(command, tree, workload, seed, seconds):
        metrics = {m["name"]: {"value": 1.0} for m in END_TO_END}
        return ({"metrics": metrics, "attempted": 1, "failed": 0, "correct": True},
                {"environment": {}})

    monkeypatch.setattr(ab, "export", export)
    monkeypatch.setattr(ab, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    assert ab.main(["--base", "A", "--head", "B", "--pairs", "1", "--seconds", "1",
                    "--workload", "phase-map", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["base"]["src_lines"], doc["head"]["src_lines"]) == (5, 4)
    assert doc["head"] == {"rev": "B", "commit": "b" * 40, "src_lines": 4}
