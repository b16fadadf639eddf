"""Smoke tests for the experiment scripts under scripts/."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trap_experiment_runs(capsys):
    script = load_script("trap_experiment")
    assert script.main(["--runs", "1", "--primes", "11"]) == 0
    out = capsys.readouterr()
    lines = out.out.splitlines()
    assert lines[0] == "runs = 1, epsilon = 0.005"
    assert lines[1] == "  q=11: N = 634, threshold = 81"
    assert "flagged as reducible, out of 1 seeds:" in lines
    assert "trap prime 7 is not among --primes" in out.err


def test_replicate_tables_runs(capsys):
    script = load_script("replicate_tables")
    assert script.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "epsilon = 0.005, quantile s = 2.58"
    for header in (
        "required sample count N ('inf' = no N separates the hypotheses)",
        "decision threshold on the zero count k",
        "closed-form upper estimate for N (blank where inconclusive)",
    ):
        assert header in lines
