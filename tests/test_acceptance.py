"""Acceptance checklist for the package.

Each test here pins one externally meaningful behavior: replication of the
published reference grids, the worked numeric examples, exact agreement
between analytic models and brute-force enumeration, and the statistical
guarantees of the sampling machinery (trap detection, interval coverage,
range-split invariance).  Every test prints a single PASS/FAIL line (visible
under `pytest -s`) and enforces a wall-clock budget.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import functools
import time
from fractions import Fraction
from itertools import product as cartesian

from irredtest import (
    COMPAT_S,
    GF,
    TABLE_QS,
    brute_force_distribution,
    count_zeros_range,
    curve_determinantal_matrix,
    det_expectation,
    det_rank_bb,
    estimate_gamma,
    exact_gamma,
    from_poly,
    gamma_model,
    intersection_model,
    make_product_trap_fixture,
    parse_poly,
    plan_test,
    product_model,
    random_dense_poly,
    run_irreducibility_test,
    singular_curve_bb,
    substitution_model,
    table_grid,
    total_degree,
    wald_interval,
)
from irredtest.estimator import LIKELY_IRREDUCIBLE, LIKELY_REDUCIBLE
from irredtest.fixtures import FIXTURE_STREAM
from irredtest.rng import RandomStream

EPS = 0.005

# Reference grids for epsilon = 0.005 over q in TABLE_QS, n = 1..10, as
# published; "inf" marks (q, n) pairs where no sample size separates the
# two hypotheses.  Produced with the two-decimal planning quantile
# (COMPAT_S), see planner.py.
REF_N = {
    1: ["inf"] * 7,
    2: ["inf"] * 7,
    3: ["inf", "inf", "inf", 28373, 2355, 1908, 1669],
    4: ["inf", "inf", 1103, 647, 634, 682, 803],
    5: ["inf", 1705, 367, 369, 482, 551, 695],
    6: ["inf", 384, 259, 308, 447, 521, 673],
    7: [4457, 224, 225, 289, 437, 513, 667],
    8: [619, 173, 212, 283, 434, 511, 666],
    9: [295, 151, 206, 280, 433, 511, 666],
    10: [197, 140, 204, 279, 433, 511, 665],
}
REF_THRESHOLD = {
    1: ["inf"] * 7,
    2: ["inf"] * 7,
    3: ["inf", "inf", "inf", 5607, 301, 207, 139],
    4: ["inf", "inf", 303, 128, 81, 74, 66],
    5: ["inf", 754, 101, 73, 61, 59, 57],
    6: ["inf", 170, 71, 61, 57, 56, 55],
    7: [2821, 99, 61, 57, 55, 55, 55],
    8: [391, 76, 58, 56, 55, 55, 55],
    9: [186, 67, 56, 55, 55, 55, 55],
    10: [125, 62, 56, 55, 55, 55, 55],
}


def criterion(label: str, budget: float):
    """Time the test body, print one PASS/FAIL line, enforce the budget."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"\n{label}: FAIL ({elapsed:.2f}s)", flush=True)
                raise
            elapsed = time.perf_counter() - start
            ok = elapsed <= budget
            status = "PASS" if ok else "FAIL"
            print(
                f"\n{label}: {status} ({elapsed:.2f}s, budget {budget:g}s)",
                flush=True,
            )
            assert ok, f"{label} took {elapsed:.2f}s, budget {budget:g}s"

        return run

    return wrap


def _check_grid(rows, ref, anchors):
    for n, cells in rows:
        expected = ref[n]
        for q, got, want in zip(TABLE_QS, cells, expected):
            if want == "inf":
                assert got == "inf", f"(q={q}, n={n}): got {got}, want inf"
            else:
                assert got != "inf", f"(q={q}, n={n}): got inf, want {want}"
                assert abs(got - want) <= 1, f"(q={q}, n={n}): {got} vs {want}"
    grid = {(q, n): c for n, cells in rows for q, c in zip(TABLE_QS, cells)}
    for (q, n), want in anchors.items():
        assert grid[(q, n)] == want, f"anchor (q={q}, n={n}): {grid[(q, n)]}"


@criterion("criterion 01  sample-size grid replication", 1.0)
def test_c01_sample_size_grid():
    rows = table_grid(EPS, "N", s=COMPAT_S)
    _check_grid(rows, REF_N, {(2, 7): 4457, (11, 4): 634})


@criterion("criterion 02  threshold grid replication", 1.0)
def test_c02_threshold_grid():
    rows = table_grid(EPS, "threshold", s=COMPAT_S)
    _check_grid(rows, REF_THRESHOLD, {(2, 7): 2821, (11, 4): 81})


@criterion("criterion 03  worked model constants (q=11, n=4)", 1.0)
def test_c03_model_constants():
    tol = 1e-4

    approx = gamma_model(11, 4).normal_approx()
    assert abs(approx.mean - 0.0909) <= tol
    assert abs(approx.sd - 0.0024) <= tol
    iv = approx.central_interval(EPS)
    assert abs(iv.lo - 0.0847) <= tol
    assert abs(iv.hi - 0.0971) <= tol

    papprox = product_model(11, 4).normal_approx()
    assert abs(papprox.sd - 0.0031) <= tol
    piv = papprox.central_interval(EPS)
    assert abs(piv.lo - 0.1655) <= tol
    assert abs(piv.hi - 0.1816) <= tol


@criterion("criterion 04  Wald interval worked examples", 1.0)
def test_c04_wald_examples():
    iv = wald_interval(567, 1000, EPS)
    assert round(100 * iv.estimate, 1) == 56.7
    assert round(100 * iv.half_width, 1) == 4.0

    iv = wald_interval(93, 1000, EPS)
    assert round(100 * iv.estimate, 1) == 9.3
    assert round(100 * iv.half_width, 1) == 2.4


@criterion("criterion 05  analytic pmfs match brute-force enumeration", 30.0)
def test_c05_brute_force_agreement():
    for q, n in ((2, 1), (2, 2), (3, 1)):
        assert brute_force_distribution(q, n, "single") == gamma_model(
            q, n
        ).pmf_vector()

    assert brute_force_distribution(2, 1, "product") == product_model(
        2, 1
    ).pmf_vector()

    xs = [(0,), (1,)]
    bf = brute_force_distribution(3, 1, "intersection", x_points=xs)
    analytic = intersection_model(3, 1, len(xs)).pmf_vector()
    assert bf[: len(analytic)] == analytic
    assert all(p == 0 for p in bf[len(analytic) :])

    bf = brute_force_distribution(2, 1, "substitution", x_points=[(0,)], m=1)
    assert bf == substitution_model(2, 1, Fraction(1, 2)).pmf_vector()


@criterion("criterion 06  rank-deficiency expectation", 5.0)
def test_c06_det_expectation():
    # every 2x2 matrix over F_2, counted directly
    singular = 0
    for a, b, c, d in cartesian(range(2), repeat=4):
        if (a * d - b * c) % 2 == 0:
            singular += 1
    assert det_expectation(2, 2, 2) == Fraction(singular, 16) == Fraction(5, 8)

    # the four-term series truncation is good to q^-11 for square 12x12
    for q in TABLE_QS:
        series = (
            Fraction(1, q)
            + Fraction(1, q**2)
            - Fraction(1, q**5)
            - Fraction(1, q**7)
        )
        assert abs(det_expectation(q, 12, 12) - series) <= Fraction(1, q**11)


@criterion("criterion 07  product trap detection across primes", 120.0)
def test_c07_product_trap():
    plan7 = plan_test(7, 4, EPS, s=COMPAT_S)
    assert (plan7.N, plan7.threshold_k) == (647, 128)
    plan11 = plan_test(11, 4, EPS, s=COMPAT_S)
    plan13 = plan_test(13, 4, EPS, s=COMPAT_S)

    f7, f11, f13 = GF(7), GF(11), GF(13)
    caught7 = kept11 = kept13 = 0
    for seed in range(20):
        fx = make_product_trap_fixture(seed)
        v7 = run_irreducibility_test(from_poly(fx.reduce_mod(f7)), plan7, seed)
        v11 = run_irreducibility_test(from_poly(fx.reduce_mod(f11)), plan11, seed)
        v13 = run_irreducibility_test(from_poly(fx.reduce_mod(f13)), plan13, seed)
        caught7 += v7.outcome == LIKELY_REDUCIBLE
        kept11 += v11.outcome == LIKELY_IRREDUCIBLE
        kept13 += v13.outcome == LIKELY_IRREDUCIBLE
    assert caught7 >= 18, f"mod 7 flagged reducible only {caught7}/20 times"
    assert kept11 >= 18, f"mod 11 kept irreducible only {kept11}/20 times"
    assert kept13 >= 18, f"mod 13 kept irreducible only {kept13}/20 times"


@criterion("criterion 08  singular cubic oracle: exact vs sampled", 600.0)
def test_c08_singular_cubic_coverage():
    bb = singular_curve_bb(3, GF(2), ext_bound=4)
    assert bb.field.q ** bb.n == 1024
    exact = exact_gamma(bb)
    assert 0 < exact < 1
    covered = 0
    for seed in range(20):
        report = estimate_gamma(bb, 1000, seed, epsilon=EPS, mode="sample")
        covered += report.interval.contains(float(exact))
    assert covered >= 18, f"interval covered the exact value {covered}/20 times"


@criterion("criterion 09  range-split invariance", 60.0)
def test_c09_range_split_invariance():
    f7 = GF(7)
    oracles = [
        from_poly(parse_poly("x1*x2^2 + x2*x3 + 2", f7, 3)),
        det_rank_bb(curve_determinantal_matrix(f7)),
        singular_curve_bb(2, GF(3), ext_bound=1),
    ]
    for bb in oracles:
        k = estimate_gamma(bb, 997, 2024, epsilon=EPS, mode="sample").k
        for splits in (1, 2, 8):
            step = -(-997 // splits)
            bounds = [*range(0, 997, step), 997]
            parts = [count_zeros_range(bb, 2024, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
            assert len(parts) == splits
            assert sum(parts) == k, f"{bb.label}: {splits} splits give {sum(parts)}, not {k}"


@criterion("criterion 10  interval coverage on random sextics (q=3, n=4)", 300.0)
def test_c10_interval_coverage():
    field = GF(3)
    n, degree, runs = 4, 6, 500
    covered = 0
    for seed in range(runs):
        stream = RandomStream(seed, stream=FIXTURE_STREAM)
        f = random_dense_poly(field, n, degree, stream)
        while total_degree(f) < degree:  # vanishing top part; essentially never
            f = random_dense_poly(field, n, degree, stream)
        bb = from_poly(f)
        exact = exact_gamma(bb)
        report = estimate_gamma(bb, 1000, seed, epsilon=EPS, mode="sample")
        covered += report.interval.contains(float(exact))
    assert covered >= 0.97 * runs, f"covered {covered}/{runs}"
