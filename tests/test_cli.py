import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import irredtest
from irredtest.cli import _build_parser, main

from console_pins import EXTENSION_PINS, PINS, check

MATRIX_2X2 = "2 2 4 2\nx1\nx2\nx3\nx4\n"

RUN_KEYS = ["q", "n", "N", "k", "p_hat", "half_width", "mode", "seed", "elapsed"]
PLAN_KEYS = ["s", "p1", "p2", "p_middle", "threshold_k", "outcome"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_plan_feasible(capsys):
    code, out, _ = run_cli(capsys, "plan", "-q", "5", "-n", "4", "--compat-s258")
    assert code == 0
    values = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert values["N"] == "1103"
    assert values["threshold_k"] == "303"
    assert values["feasible"] == "true"
    assert values["s"] == "2.58"
    assert values["exceeds_point_count"] == "true"  # 1103 > 5^4


def test_plan_beyond_float_range(capsys):
    code, out, _ = run_cli(capsys, "plan", "-q", "7", "-n", "400")
    assert code == 0
    values = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert values["feasible"] == "true"
    assert float(values["p1"]) == 1 / 7


def test_plan_infeasible_exit_code(capsys):
    code, out, _ = run_cli(capsys, "plan", "-q", "2", "-n", "2")
    assert code == 2
    assert "feasible=false" in out
    assert "N=" not in out


def test_plan_usage_errors(capsys):
    code, _, err = run_cli(capsys, "plan", "-q", "1", "-n", "4")
    assert code == 1 and "field order" in err
    code, _, err = run_cli(capsys, "plan", "-q", "5")
    assert code == 1
    code, _, err = run_cli(capsys, "plan", "-q", "5", "-n", "4", "--bogus")
    assert code == 1


PLAN_PINS = [
    (["-q", "11", "-n", "4", "--compat-s258"], 0, """\
q=11
n=4
epsilon=0.005
s=2.58
p1=0.09703882521655478
p2=0.1654784199897643
feasible=true
p_middle=0.12738359386395434
N=634
threshold_k=81
exceeds_point_count=false
"""),
    (["-q", "2", "-n", "2"], 2, """\
q=2
n=2
epsilon=0.005
s=2.5758293035489
p1=1.143957325887225
p2=0.19231659682856872
feasible=false
"""),
]


@pytest.mark.parametrize("argv, want_code, want_out", PLAN_PINS)
def test_plan_prints_the_plan_fields_in_order(capsys, argv, want_code, want_out):
    # taken when each field had its own print; an infeasible plan stops
    # after feasible=false
    code, out, err = run_cli(capsys, "plan", *argv)
    assert (code, out, err) == (want_code, want_out, "")


def test_readme_shows_the_pinned_plan():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    argv, _, want_out = PLAN_PINS[0]
    assert f"$ irredtest plan {' '.join(argv)}\n{want_out}```" in readme


def test_main_builds_its_parser_once(capsys):
    _build_parser.cache_clear()
    run_cli(capsys, "plan", "-q", "5", "-n", "4")
    run_cli(capsys, "dist", "--kind", "single", "-q", "2")
    info = _build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--which", "N", "--compat-s258")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n\\q,2,3,5,7,11,13,17"
    assert len(lines) == 11
    grid = {row.split(",")[0]: row.split(",")[1:] for row in lines[1:]}
    assert grid["7"][0] == "4457"
    assert grid["4"][4] == "634"
    assert grid["1"] == ["inf"] * 7
    code, out, _ = run_cli(capsys, "table", "--which", "threshold", "--compat-s258")
    grid = {row.split(",")[0]: row.split(",")[1:] for row in out.strip().splitlines()[1:]}
    assert grid["7"][0] == "2821"
    assert grid["10"][6] == "55"


def test_table_rejects_unknown_grid(capsys):
    code, _, _ = run_cli(capsys, "table", "--which", "gamma")
    assert code == 1


def test_run_poly_estimate_json(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--poly", "x1", "--field", "11", "-n", "3",
        "-N", "1000", "--seed", "7",
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload.keys()) == RUN_KEYS
    assert payload["q"] == 11 and payload["n"] == 3
    assert payload["N"] == 1000
    assert payload["mode"] == "sampled"
    assert payload["seed"] == 7
    assert 0.0 <= payload["p_hat"] <= 1.0
    assert payload["k"] == round(payload["p_hat"] * 1000)


def test_run_estimate_auto_exact_on_small_domains(capsys):
    # 5^3 = 125 points fit under the requested 1000 draws, so the
    # estimator switches to exhaustive counting
    code, out, _ = run_cli(
        capsys, "run", "--poly", "x1", "--field", "5", "-n", "3",
        "-N", "1000", "--seed", "7",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "exact"
    assert payload["N"] == 125
    assert payload["p_hat"] == 0.2


def test_run_matrix_exact(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(MATRIX_2X2)
    code, out, _ = run_cli(capsys, "run", "--matrix", str(path), "--exact")
    assert code == 0
    payload = json.loads(out)
    assert payload["p_hat"] == 0.625
    assert payload["mode"] == "exact"
    assert payload["N"] == 16 and payload["k"] == 10
    assert payload["half_width"] == 0.0


def test_run_matrix_over_extension_fields(capsys, tmp_path):
    # rank probes over table-backed GF(9) and schoolbook GF(7^4)
    cases = [
        ("2 2 4 3^2:1,0,1\nx1\nx2 + {0,1}\nx3\nx4\n", ("--exact",), (6561, 801)),
        ("2 2 4 7^4:1,1,0,0,1\nx1\nx2\nx3\nx4\n", ("-N", "3000", "--seed", "1"), (3000, 2)),
    ]
    for text, args, want in cases:
        path = tmp_path / "m.txt"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "run", "--matrix", str(path), *args)
        payload = json.loads(out)
        assert code == 0 and (payload["N"], payload["k"]) == want, text


def test_run_test_verdict_and_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--poly", "x1*x2 + x3", "-q", "11", "-n", "3",
        "--seed", "5", "--compat-s258",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "LikelyIrreducible"
    assert payload["N"] == 2355  # planned sample count for (11, 3)

    code, out, _ = run_cli(
        capsys, "run", "--fixture", "trap", "--fixture-seed", "1", "-q", "7",
        "--seed", "3", "--compat-s258",
    )
    assert code == 3
    assert json.loads(out)["outcome"] == "LikelyReducible"


def test_run_infeasible_exit(capsys):
    code, out, _ = run_cli(capsys, "run", "--poly", "x1", "-q", "2", "-n", "2")
    assert code == 2
    payload = json.loads(out)
    assert payload["outcome"] == "Infeasible"
    assert payload["N"] is None


def plan_values(capsys, *argv):
    """The `plan` output as numbers, keyed as printed."""
    code, out, _ = run_cli(capsys, "plan", *argv)
    assert code == 0
    values = dict(line.split("=", 1) for line in out.splitlines())
    return {
        "s": float(values["s"]),
        "p1": float(values["p1"]),
        "p2": float(values["p2"]),
        "p_middle": float(values["p_middle"]),
        "N": int(values["N"]),
        "threshold_k": int(values["threshold_k"]),
    }


def test_run_json_reports_time_and_plan(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--poly", "x1*x2 + x3", "-q", "7", "-n", "3",
        "--compat-s258", "--seed", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == RUN_KEYS + PLAN_KEYS
    assert payload["elapsed"] > 0
    want = plan_values(capsys, "-q", "7", "-n", "3", "--compat-s258")
    for key in ("s", "p1", "p2", "p_middle", "threshold_k"):
        assert payload[key] == want[key]
    assert payload["N"] == want["N"]
    assert payload["outcome"] == "LikelyIrreducible"

    # an infeasible plan draws nothing but still says how it was made
    code, out, _ = run_cli(
        capsys, "run", "--poly", "x1", "-q", "2", "-n", "2", "--seed", "9"
    )
    assert code == 2
    payload = json.loads(out)
    assert list(payload) == RUN_KEYS + PLAN_KEYS
    assert payload["seed"] == 9
    assert payload["elapsed"] is None and payload["k"] is None
    assert payload["p1"] >= payload["p2"]
    assert payload["p_middle"] is None and payload["threshold_k"] is None


def test_run_seed_spans_64_bits(capsys):
    # the largest seed is accepted and reported as given; -1 and 2^64 are
    # usage errors (test_oversized_inputs_exit_fast) instead of aliases
    argv = ("run", "--poly", "x1 + x2", "-q", "7", "-n", "2", "-N", "100")
    code, out, _ = run_cli(capsys, *argv, "--seed", str(2**64 - 1))
    assert code == 0
    assert json.loads(out)["seed"] == 2**64 - 1
    code, _, err = run_cli(capsys, *argv, "--seed", "seven")
    assert code == 1 and "not an integer" in err


def test_run_fixture_curve(capsys):
    code, out, _ = run_cli(capsys, "run", "--fixture", "curve", "-q", "2", "--exact")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 5
    assert payload["N"] == 32
    assert payload["p_hat"] == payload["k"] / 32


def test_run_fixture_singular(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--fixture", "singular", "-q", "2", "--ext-bound", "2",
        "-N", "200", "--seed", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 10  # cubic coefficient vectors
    assert payload["N"] == 200


# ids without the exit code, as this test's cases have always been named
@pytest.mark.parametrize(
    "argv, want, want_code",
    [pytest.param(*pin, id=f"argv{i}-want{i}") for i, pin in enumerate(EXTENSION_PINS)],
)
def test_run_extension_field_counts_are_pinned(capsys, argv, want, want_code):
    check(argv, want, want_code, *run_cli(capsys, "run", *argv)[:2])


@pytest.mark.parametrize("argv, want, want_code", PINS)
def test_run_console_counts_are_pinned(capsys, argv, want, want_code):
    # the console-script pins, run in process
    check(argv, want, want_code, *run_cli(capsys, "run", *argv)[:2])


def test_run_epsilon_out_of_range(capsys):
    # the exact path checks epsilon as the sampled and planned paths do
    for extra in (["--exact"], ["-N", "10"], []):
        code, _, err = run_cli(
            capsys, "run", "--poly", "x1+1", "-q", "7", "-n", "3", *extra, "-e", "5"
        )
        assert code == 1 and err.startswith("error:") and "epsilon" in err
    code, out, _ = run_cli(
        capsys, "run", "--poly", "x1+1", "-q", "7", "-n", "3", "-N", "10", "-e", "0.5"
    )
    assert code == 0 and '"half_width": 0.0,' in out


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_exits_quietly(unbuffered):
    # the read end is closed before the child starts, so its first write
    # to stdout (unbuffered) or its flush (buffered) meets a broken pipe
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=str(Path(irredtest.__file__).parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "irredtest.cli", "dist", "--kind", "single",
             "-q", "2", "-n", "6"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60, text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_matrix_file_errors_are_reported(capsys):
    code, _, err = run_cli(capsys, "run", "--matrix", "/nonexistent/m.txt")
    assert code == 1 and err.startswith("error:")


def test_run_source_validation(capsys, tmp_path):
    code, _, err = run_cli(capsys, "run", "--poly", "x1", "-q", "3")
    assert code == 1 and "-n" in err
    code, _, _ = run_cli(capsys, "run", "-q", "3")
    assert code == 1
    code, _, _ = run_cli(
        capsys, "run", "--poly", "x1", "--fixture", "curve", "-q", "3", "-n", "1"
    )
    assert code == 1
    code, _, _ = run_cli(capsys, "run", "--fixture", "trap")
    assert code == 1
    code, _, _ = run_cli(
        capsys, "run", "--poly", "x1", "-q", "4", "-n", "1", "-N", "10"
    )
    assert code == 1  # composite order
    code, _, _ = run_cli(capsys, "run", "--matrix", "/nonexistent/m.txt")
    assert code == 1
    code, _, err = run_cli(
        capsys, "run", "--poly", "x9", "-q", "3", "-n", "2", "-N", "10"
    )
    assert code == 1 and "x9" in err
    code, _, err = run_cli(capsys, "run", "--poly", "x1", "-q", "7", "--field", "7", "-n", "1")
    assert code == 1 and "either -q or --field" in err
    # a flag that the chosen oracle or mode would ignore is a usage error
    path = tmp_path / "m.txt"
    path.write_text("2 2 4 7\nx1\nx2\nx3\nx4\n")
    ignored = [
        ("--matrix", str(path), "-q", "11", "-N", "5"),
        ("--matrix", str(path), "--field", "11", "-N", "5"),
        ("--matrix", str(path), "-n", "4", "-N", "5"),
        ("--fixture", "trap", "-q", "7", "-n", "9", "-N", "5"),
        ("--fixture", "singular", "-q", "2", "-n", "10", "-N", "5"),
        ("--poly", "x1", "-q", "7", "-n", "1", "--ext-bound", "2", "-N", "5"),
        ("--fixture", "curve", "-q", "2", "--ext-bound", "2", "--exact"),
        ("--poly", "x1", "-q", "7", "-n", "1", "-N", "5", "--exact"),
        ("--poly", "x1", "-q", "7", "-n", "1", "-N", "5", "-d", "9", "--fixture-seed", "4"),
        ("--poly", "x1", "-q", "7", "-n", "1", "-N", "5", "--compat-s258"),
        ("--poly", "x1", "-q", "7", "-n", "1", "--exact", "--compat-s258"),
        ("--fixture", "trap", "-q", "7", "-d", "4", "-N", "5"),
        ("--fixture", "singular", "-q", "2", "--fixture-seed", "1", "-N", "5"),
    ]
    for argv in ignored:
        code, out, err = run_cli(capsys, "run", *argv)
        assert (code, out) == (1, "") and err.startswith("error: "), argv
    # dist reads neither -e nor --compat-s258, so argparse refuses them
    for flags in (("-e", "0.1"), ("--compat-s258",)):
        code, out, err = run_cli(capsys, "dist", "--kind", "single", "-q", "2", "-n", "1", *flags)
        assert (code, out) == (1, "") and "unrecognized arguments" in err, flags
    code, out, _ = run_cli(capsys, "run", "--matrix", str(path), "-N", "5")
    assert code == 0 and json.loads(out)["q"] == 7


def test_dist_single_small(capsys):
    code, out, _ = run_cli(capsys, "dist", "--kind", "single", "-q", "2", "-n", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# kind=single q=2 n=1")
    assert lines[1] == "k,p_analytic,p_bruteforce"
    rows = [line.split(",") for line in lines[2:]]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    for r in rows:
        assert r[1] == r[2]  # analytic matches enumeration exactly
    assert float(rows[1][1]) == 0.5


def test_dist_rows_beyond_exact_range(capsys):
    # 2^10 + 1 rows, each through BinomialModel.pmf_float
    code, out, _ = run_cli(capsys, "dist", "--kind", "single", "-q", "2", "-n", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "k,p_analytic"
    rows = lines[2:]
    assert len(rows) == 1025
    assert [r.split(",")[0] for r in rows] == [str(k) for k in range(1025)]


def test_dist_large_case_is_analytic_only(capsys):
    code, out, _ = run_cli(capsys, "dist", "--kind", "product", "-q", "11", "-n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert "mean=0.17355371900826447" in lines[0]
    assert lines[1] == "k,p_analytic"
    assert len(lines) == 2 + 11**4 + 1


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--fixture", "singular", "-q", "3", "--ext-bound", "30000000", "-N", "10"),
        ("run", "--fixture", "singular", "-q", "2", "-d", "10000", "--ext-bound", "1"),
        ("dist", "--kind", "single", "-q", "3", "-n", "10000000"),
        ("dist", "--kind", "single", "-q", "13", "-n", "9"),  # 13^9 + 1 rows
        ("dist", "--kind", "single", "-q", "2", "-n", "20"),  # 2^20 + 1 rows
        ("dist", "--kind", "substitution", "-q", "3", "--x-count", "1", "--m", "10000000"),
        ("dist", "--kind", "substitution", "-q", "0", "--x-count", "1", "--m", "3"),
        ("dist", "--kind", "substitution", "-q", "2", "--gamma-x", "1/0"),
        ("dist", "--kind", "det", "-q", "2", "--rows", "4000", "--cols", "4000"),
        ("dist", "--kind", "det", "-q", str(2**63 - 25), "--rows", "1000", "--cols", "1000"),
        ("run", "--poly", "(" * 400 + "x1" + ")" * 400, "-q", "7", "-n", "1", "-N", "10"),
        ("run", "--poly", " + ".join(f"x{i}" for i in range(1, 3001)), "-q", "7", "-n", "3000", "-N", "10"),
        ("run", "--poly", "x1", "-q", "7", "-n", "1", "-N", "10", "--seed", "-1"),
        ("run", "--poly", "x1", "-q", "7", "-n", "1", "-N", "10", "--seed", str(2**64)),
        ("run", "--fixture", "trap", "-q", "7", "-N", "10", "--fixture-seed", "-1"),
        ("run", "--fixture", "trap", "-q", "7", "-N", "10", "--fixture-seed", str(2**64)),
        ("plan", "-q", str(10**400), "-n", "2"),
        # a refusal names a number of more than 20 digits by its bit length
        ("run", "--poly", "x1", "-q", str(10**400), "-n", "1", "-N", "10"),
        ("run", "--poly", "x1", "--field", str(10**400 + 1), "-n", "1", "-N", "10"),
        ("dist", "--kind", "single", "-q", str(10**400), "-n", "1"),
        ("dist", "--kind", "substitution", "-q", str(10**400), "--x-count", "1", "--m", "2"),
        ("dist", "--kind", "intersection", "-q", "2", "-n", "1", "--x-count", str(10**400)),
        ("run", "--poly", "x1", "-q", "7", "-n", "1", "-N", "10", "--seed", str(10**400)),
        ("run", "--fixture", "trap", "-q", "7", "-N", "5", "--fixture-seed", str(10**400)),
        ("dist", "--kind", "det", "-q", str(10**4000), "--rows", "100", "--cols", "100"),
    ],
)
def test_oversized_inputs_exit_fast(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == "" and err.startswith("error:")
    assert err.count("\n") == 1 and len(err) < 200, err[:300]


def test_run_huge_exponent_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "run", "--poly", "x1^1000000000 + 1", "-q", "7", "-n", "1",
        "-N", "50", "--seed", "1",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out)["k"] == 0  # 10^9 = 4 mod 6, and -1 is no fourth power mod 7


def test_run_term_in_3000_variables(capsys):
    # one Horner level per variable; parsing the 3000-factor product takes
    # most of the time, so the bound is loose
    poly = "*".join(f"x{i}" for i in range(1, 3001)) + " + 1"
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "run", "--poly", poly, "-q", "7", "-n", "3000", "-N", "50", "--seed", "1"
    )
    assert time.perf_counter() - start < 20.0
    assert code == 0
    result = json.loads(out)
    assert result["n"] == 3000 and result["N"] == 50


def test_dist_det(capsys):
    code, out, _ = run_cli(
        capsys, "dist", "--kind", "det", "-q", "2", "--rows", "2", "--cols", "2"
    )
    assert code == 0
    assert "expectation=0.625" in out


def test_dist_requires_parameters(capsys):
    code, _, _ = run_cli(capsys, "dist", "--kind", "intersection", "-q", "3")
    assert code == 1
    code, _, _ = run_cli(capsys, "dist", "--kind", "substitution", "-q", "2")
    assert code == 1
    code, _, _ = run_cli(capsys, "dist", "--kind", "gamma", "-q", "2")
    assert code == 1


def test_dist_refuses_the_flags_of_other_kinds(capsys):
    ignored = [
        ("single", "-n", "1", "--rows", "5"),
        ("product", "--cols", "3"),
        ("det", "-n", "7"),
        ("det", "--x-count", "2"),
        ("single", "--x-count", "2"),
        ("intersection", "--x-count", "1", "--m", "2"),
        ("intersection", "--x-count", "1", "--gamma-x", "1/2"),
        ("product", "--gamma-x", "1/2"),
    ]
    for kind, *flags in ignored:
        code, out, err = run_cli(capsys, "dist", "--kind", kind, "-q", "2", *flags)
        assert (code, out) == (1, "") and "does not apply to --kind " + kind in err, flags
    # without -n, --rows and --cols each kind reads its default: 1, 2 and 2
    assert run_cli(capsys, "dist", "--kind", "single", "-q", "2") == run_cli(
        capsys, "dist", "--kind", "single", "-q", "2", "-n", "1"
    )
    code, out, _ = run_cli(capsys, "dist", "--kind", "det", "-q", "2")
    assert code == 0 and out.startswith("# kind=det q=2 rows=2 cols=2 expectation=0.625")


def test_dist_brute_force_over_fixed_point_sets(capsys):
    # the brute-force column of intersection and of substitution with --m,
    # pinned byte for byte; --gamma-x sets only the analytic column
    cases = {
        ("--kind", "intersection", "-q", "3", "-n", "1", "--x-count", "2"): (
            "# kind=intersection q=3 n=1 trials=2 mean=0.3333333333333333\n"
            "k,p_analytic,p_bruteforce\n"
            "0,0.4444444444444444,0.4444444444444444\n"
            "1,0.4444444444444444,0.4444444444444444\n"
            "2,0.1111111111111111,0.1111111111111111\n"
            "3,0.0,0.0\n"
        ),
        ("--kind", "substitution", "-q", "2", "-n", "1", "--x-count", "3", "--m", "2"): (
            "# kind=substitution q=2 n=1 trials=2 mean=0.75\n"
            "k,p_analytic,p_bruteforce\n"
            "0,0.0625,0.0625\n"
            "1,0.375,0.375\n"
            "2,0.5625,0.5625\n"
        ),
        (
            "--kind", "substitution", "-q", "2", "-n", "1",
            "--gamma-x", "1/2", "--x-count", "1", "--m", "2",
        ): (
            "# kind=substitution q=2 n=1 trials=2 mean=0.5\n"
            "k,p_analytic,p_bruteforce\n"
            "0,0.25,0.5625\n"
            "1,0.5,0.375\n"
            "2,0.25,0.0625\n"
        ),
    }
    for argv, want in cases.items():
        assert run_cli(capsys, "dist", *argv) == (0, want, "")


def test_dist_target_points_stop_at_the_target_space(capsys):
    # --x-count beyond q^m names every target point once instead of
    # building 10^15 points
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "dist", "--kind", "substitution", "-q", "2", "-n", "1",
        "--gamma-x", "1/2", "--x-count", str(10**15), "--m", "1",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.splitlines()[2:] == ["0,0.25,0.0", "1,0.5,0.0", "2,0.25,1.0"]


def test_dist_substitution_with_explicit_density(capsys):
    code, out, _ = run_cli(
        capsys, "dist", "--kind", "substitution", "-q", "2", "-n", "1",
        "--gamma-x", "1/4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "k,p_analytic"  # no brute force without m and x-count
    assert float(lines[2].split(",")[1]) == 0.5625
