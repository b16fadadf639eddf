"""Self-checks of the benchmark.

    python3 -m pytest benchmark/test_benchmark.py

Runs of the benchmark go through run.py in a fresh process, as the
benchmark itself does; they take about a minute in all.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# counts that must repeat exactly between two traced runs at one seed
REPEATED_COUNTS = (
    "rng.blocks",
    "polynomials.evaluate_calls",
    "polynomials.terms_evaluated",
    "fields.ext_mul_calls",
) + tuple(f"blackbox.probes.{kind}" for kind in layertrace.PROBE_KINDS)


def bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [
            sys.executable, os.path.join("benchmark", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", "2", "--trace", str(trace),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    record_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(record_line)["run_record"], json.loads(result_line)


def test_benchmark_json_names_every_metric_and_workload():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layertrace.PER_LAYER)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_counts_repeat_and_a_second_seed_changes_inputs(workload):
    record_a, first = result_of(bench(workload, 7, 1))
    _, second = result_of(bench(workload, 7, 1))
    record_b, other = result_of(bench(workload, 8, 1))
    assert first["correct"] and second["correct"] and other["correct"]
    assert first["failed"] == second["failed"] == other["failed"] == 0
    for name in REPEATED_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert [m for m, _ in layertrace.PER_LAYER] == list(first["metrics"])
    assert record_a["inputs_sha256"] != record_b["inputs_sha256"]


def test_untraced_run_reports_every_end_to_end_metric():
    _, result = result_of(bench("exact-sweep", 3, 0))
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("trap-verdict", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_restores_every_wrapper_even_when_a_target_is_missing(monkeypatch):
    lib = run.load_library()
    before = (lib.cli.main, lib.plan_test, vars(lib.RandomStream)["next_below"])
    with layertrace.Tracer():
        assert lib.cli.main is not before[0]
    assert (lib.cli.main, lib.plan_test, vars(lib.RandomStream)["next_below"]) == before

    missing = layertrace.SPANS + (("irredtest", "no_such_function", "x.y", None, None),)
    monkeypatch.setattr(layertrace, "SPANS", missing)
    with pytest.raises(layertrace.TraceError):
        with layertrace.Tracer():
            pass
    assert (lib.cli.main, lib.plan_test, vars(lib.RandomStream)["next_below"]) == before
