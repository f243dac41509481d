"""Tests of the benchmark itself: `python3 -m pytest bench`."""

import json
import re
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import checks
import run
import workloads
from tracer import Span, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


# ------------------------------------------------------------------ inputs

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.take(workload, 7, 60) == workloads.take(workload, 7, 60)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_inputs(workload):
    assert workloads.take(workload, 7, 60) != workloads.take(workload, 8, 60)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_blocks_keep_the_operation_mix(workload):
    mixes = [workloads.properties(workload, workloads.take(workload, seed, 120), [])["mix"]
             for seed in (1, 2, 3)]
    assert mixes[0] == mixes[1] == mixes[2]


# ------------------------------------------------------------------ checker

@pytest.fixture(scope="module")
def runner():
    sys.path.insert(0, str(SRC))
    import worker
    return worker.Runner(worker._load_eqls(str(SRC)))


def _scale(value, factor):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return value * factor if isinstance(value, float) else value
    if isinstance(value, list):
        return [_scale(v, factor) for v in value]
    return {k: _scale(v, factor) for k, v in value.items()}


_NUMBER = re.compile(r"-?\d\.\d+e[+-]\d+")


def _scale_text(out, factor):
    text = _NUMBER.sub(lambda m: f"{float(m.group()) * factor:.6e}", out["stdout"])
    return {**out, "stdout": text}


LIBRARY_CASES = {
    "hard wall": next(op for op in workloads.take("spectra-sweep", 1, 40)
                      if op.get("potential") == "hard_wall"),
    "liquid 4He": workloads.warmup_op("spectra-sweep"),
    "melting curve": {"kind": "curve", "gamma0": 127.0,
                      "temps": [1.0 + 2.0 * i for i in range(8)]},
    "tile": {"kind": "tile", "gamma0": 127.0,
             "points": [[n, t] for n in (1e8, 1e10, 1e12) for t in (0.3, 3.0)]},
}

CLI_CASES = [
    ["couple", "larmor", "--b-field", "0.5", "--format", "csv"],
    ["couple", "gs", "--g", "20", "--f-charge", "6", "--f-larmor", "6.03",
     "--grad-bz", "800", "--format", "csv"],
    ["classify", "--density", "1e10", "--temperature", "1", "--format", "csv"],
    ["table1", "--format", "csv"],
    ["states", "--substance", "liquid 4He", "--levels", "2", "--format", "csv"],
    ["phase-diagram", "--gamma0", "127", "--points", "6", "--format", "csv"],
]


@pytest.mark.parametrize("name", LIBRARY_CASES)
def test_checker_rejects_one_percent_perturbation(runner, name):
    op = LIBRARY_CASES[name]
    out = runner.run(op)
    assert checks.check_op(op, out).ok
    for factor in (1.01, 0.99):
        assert not checks.check_op(op, _scale(out, factor)).ok


@pytest.mark.parametrize("argv", CLI_CASES, ids=lambda a: " ".join(a[:2]))
def test_checker_rejects_perturbed_cli_output(runner, argv):
    op = {"kind": "cli", "family": workloads._family(argv), "argv": argv}
    out = runner.run(op)
    verdict = checks.check_op(op, out)
    assert verdict.ok, verdict.errors
    for factor in (1.01, 0.99):
        assert not checks.check_op(op, _scale_text(out, factor)).ok


def test_checker_counts_failed_commands():
    op = {"kind": "cli", "family": "table1", "argv": ["table1"]}
    assert not checks.check_op(op, {"exit": 2, "stdout": "", "stderr": "error"}).ok
    assert not checks.check_op(op, {"error": "RuntimeError: boom"}).ok


def test_half_ulp_of_printed_numbers():
    assert checks.half_ulp("-0.6762") == pytest.approx(5e-5)
    assert checks.half_ulp("1.234560e-03") == pytest.approx(5e-10)
    assert checks.half_ulp("1.07%") == pytest.approx(5e-3)
    assert checks.half_ulp("45") == pytest.approx(0.5)


# ------------------------------------------------------------------ tracing

def test_self_time_of_a_synthetic_nested_trace():
    spans = [Span("a", 0.0, 10.0),
             Span("b", 1.0, 4.0, parent=0),
             Span("c", 3.0, 6.0, parent=0),      # overlaps b: union [1, 6]
             Span("d", 2.0, 3.0, parent=1),
             Span("e", 9.0, 12.0, parent=0)]     # overruns a: clipped to [9, 10]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_tracer_spans_calls_through_module_globals():
    mod = types.SimpleNamespace()
    mod.inner = lambda: time.sleep(0.01)

    def outer():
        mod.inner()
        time.sleep(0.02)

    mod.outer = outer
    other = types.SimpleNamespace(alias=outer)
    originals = (mod.inner, mod.outer)
    tracer = Tracer()
    tracer.install([mod, other], {"m.inner": (mod.inner, None), "m.outer": (outer, None)})
    other.alias()
    tracer.uninstall()
    assert (mod.inner, mod.outer, other.alias) == (*originals, outer)
    outer_span, inner_span = tracer.spans
    assert (outer_span.name, inner_span.name, inner_span.parent) == ("m.outer", "m.inner", 0)
    own, child = self_times(tracer.spans)
    assert own == pytest.approx(outer_span.end - outer_span.start - child)
    assert child >= 0.01 and own >= 0.02


# ------------------------------------------------------- BENCHMARK.json and CLI

def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "bench/run.py", "--workload", "phase-map",
                        "--seed", "1", "--seconds", "1"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert p.returncode != 0 and p.stdout == ""


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_streams_repeat_after_one_cycle(workload):
    cycle = workloads.CYCLE_OPS[workload]
    ops = workloads.take(workload, 3, cycle + 5)
    assert ops[cycle:] == ops[:5]


def test_repeated_input_must_reproduce_its_first_output():
    first = checks.Verdict()
    assert checks.check_repeat(first, {"n1": [1.0]}, {"n1": [1.0]}).ok
    assert not checks.check_repeat(first, {"n1": [1.0001]}, {"n1": [1.0]}).ok
