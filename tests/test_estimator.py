import dataclasses
import hashlib
import math
from collections import Counter
from fractions import Fraction

import pytest

from irredtest import (
    ArityMismatch,
    BlackBox,
    COMPAT_S,
    DomainTooLarge,
    FieldMismatch,
    GF,
    INFEASIBLE,
    LIKELY_IRREDUCIBLE,
    LIKELY_REDUCIBLE,
    MODE_EXACT,
    MODE_SAMPLED,
    RandomStream,
    RangeError,
    count_zeros,
    count_zeros_range,
    estimate_gamma,
    exact_gamma,
    from_poly,
    make_product_trap_fixture,
    parse_poly,
    plan_test,
    product_bb,
    random_dense_poly,
    run_irreducibility_test,
    sample_points,
    rng,
    total_degree,
)
from irredtest.estimator import _points

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)
F7 = GF(7)


def test_sample_points_deterministic_and_stream_addressed():
    pts = sample_points(F5, 3, 50, seed=11)
    again = sample_points(F5, 3, 50, seed=11)
    assert pts == again
    assert all(len(p) == 3 and all(0 <= c < 5 for c in p) for p in pts)
    # point i is a pure function of (seed, i): rebuilding any single index
    # from its own stream gives the same point
    def point_at(i):
        rs = RandomStream(11, stream=i)
        return tuple(rs.next_below(5) for _ in range(3))

    assert pts[17] == point_at(17)
    assert pts[0] == point_at(0)
    other = sample_points(F5, 3, 50, seed=12)
    assert pts != other
    with pytest.raises(ArityMismatch, match="need at least one variable, got 0"):
        sample_points(F5, 0, 1, seed=11)
    with pytest.raises(RangeError, match="sample count must be >= 0, got -1"):
        sample_points(F5, 3, -1, seed=11)


@pytest.mark.parametrize(
    "p, k, n, digest",
    [
        (7, 1, 3, "884ba30212424090c36ceab3e8de68c8e69376b060b22b67ca3776ca414ccf8b"),
        (13, 1, 4, "e4ae7b07a0615a6848e29493205815facaf7c6c6046348b1a06f36b6437cd2e1"),
        (3, 2, 3, "d73f7ccb405041c07db71963e5703dc63c7f2fdb0618ed949157830153f43abd"),
        (2, 1, 10, "97115cb956b37e95d519e6cadfea06d2076c81d2cdbc96ff36d1d7f2dd0d4aab"),
        (10000019, 1, 2, "038c6a54b523447ba1984451af2c2e320d0cf8ef0caf45655ca533bbfe1cea9d"),
    ],
)
def test_sample_points_are_frozen(p, k, n, digest):
    # the point stream is part of every seeded result; these digests were
    # taken from the loop-over-rounds Philox and must never change
    pts = sample_points(GF(p, k), n, 5000, seed=20261018)
    if k > 1:  # digests were taken when extension elements were coordinate tuples
        pts = [tuple(tuple(a // p ** (k - 1 - j) % p for j in range(k)) for a in pt) for pt in pts]
    assert hashlib.sha256(repr(pts).encode()).hexdigest() == digest


def test_sample_points_cover_small_domain_evenly():
    counts = Counter(sample_points(F2, 3, 8000, seed=0))
    assert len(counts) == 8
    assert all(850 <= c <= 1150 for c in counts.values())


def test_exact_gamma_values():
    assert exact_gamma(from_poly(parse_poly("x1", F3, 2))) == Fraction(1, 3)
    prod = product_bb(parse_poly("x1", F5, 2), parse_poly("x2", F5, 2))
    assert exact_gamma(prod) == Fraction(9, 25)
    assert exact_gamma(from_poly(parse_poly("0", F2, 2))) == 1
    assert exact_gamma(from_poly(parse_poly("1", F2, 2))) == 0


def test_counts_take_any_truthy_answer_as_a_zero():
    # a user's oracle may answer 2 for "zero" and None for "not zero"
    bb = BlackBox(F3, 2, lambda pt: 2 if pt[0] == 0 else None)
    assert exact_gamma(bb) == Fraction(1, 3)
    sampled = [pt[0] == 0 for pt in sample_points(F3, 2, 200, seed=5)]
    assert count_zeros(bb, 200, seed=5) == sum(sampled)
    assert count_zeros_range(bb, 5, 50, 200) == sum(sampled[50:])


def test_exact_gamma_cap():
    bb = from_poly(parse_poly("x1", F3, 20))
    with pytest.raises(DomainTooLarge):
        exact_gamma(bb)
    # rejected by the exponent; 2^(10^12) is never built
    wide = BlackBox(F2, 10**12, lambda pt: True)
    with pytest.raises(DomainTooLarge):
        exact_gamma(wide)
    with pytest.raises(DomainTooLarge):
        estimate_gamma(wide, 10, seed=0, mode="exact")


def test_estimate_constant_oracles():
    rep = estimate_gamma(from_poly(parse_poly("0", F7, 2)), 500, seed=1, mode="sample")
    assert rep.k == rep.N == 500 and rep.p_hat == 1.0
    rep = estimate_gamma(from_poly(parse_poly("1", F7, 2)), 500, seed=1, mode="sample")
    assert rep.k == 0 and rep.p_hat == 0.0
    assert rep.interval.degenerate


def test_estimate_determinism():
    bb = from_poly(parse_poly("x1 + x2", F7, 2))
    a = estimate_gamma(bb, 2000, seed=3)
    b = estimate_gamma(bb, 2000, seed=3)
    assert (a.N, a.k, a.mode, a.seed) == (b.N, b.k, b.mode, b.seed)
    c = estimate_gamma(bb, 2000, seed=4)
    assert a.k != c.k or a.seed != c.seed


def test_estimate_sampled_report_shape():
    bb = from_poly(parse_poly("x1", F5, 3))
    rep = estimate_gamma(bb, 10_000, seed=7, mode="sample")
    assert rep.mode == MODE_SAMPLED
    assert rep.N == 10_000
    assert rep.k == round(rep.p_hat * rep.N)
    assert abs(rep.p_hat - 0.2) < 0.016  # > 4 sigma margin
    assert rep.interval.level == 0.99
    assert rep.elapsed >= 0.0


def test_estimate_auto_switches_to_exact():
    bb = from_poly(parse_poly("x1*x2 + 1", F2, 4))
    rep = estimate_gamma(bb, 100, seed=0)
    assert rep.mode == MODE_EXACT
    assert rep.N == 16
    assert rep.interval.half_width == 0.0
    assert rep.p_hat == float(exact_gamma(bb))
    # forcing the sampled path keeps the requested N
    sampled = estimate_gamma(bb, 100, seed=0, mode="sample")
    assert sampled.mode == MODE_SAMPLED and sampled.N == 100
    # auto stays sampled when N is below the domain size
    small = estimate_gamma(bb, 10, seed=0)
    assert small.mode == MODE_SAMPLED
    forced = estimate_gamma(bb, 3, seed=0, mode="exact")
    assert forced.mode == MODE_EXACT and forced.N == 16


def test_estimate_mode_validation():
    bb = from_poly(parse_poly("x1", F2, 2))
    with pytest.raises(RangeError):
        estimate_gamma(bb, 100, seed=0, mode="guess")
    with pytest.raises(RangeError):
        estimate_gamma(bb, 0, seed=0, mode="sample")


def test_estimate_epsilon_validation():
    # a 4-point domain: auto with 10 draws and "exact" both count exactly
    bb = from_poly(parse_poly("x1 + x2", F2, 2))
    for mode, n_samples in (("exact", 0), ("auto", 10), ("sample", 10)):
        for epsilon in (5, 0.0, -0.1, 0.51, float("nan")):
            with pytest.raises(RangeError, match="epsilon"):
                estimate_gamma(bb, n_samples, seed=0, epsilon=epsilon, mode=mode)
        rep = estimate_gamma(bb, n_samples, seed=0, epsilon=0.5, mode=mode)
        assert rep.interval.level == 0.0
        assert math.copysign(1.0, rep.interval.half_width) == 1.0


def test_estimate_agrees_with_exact_gamma():
    stream = RandomStream(40, stream=0)
    poly = random_dense_poly(F7, 3, 2, stream)
    bb = from_poly(poly)
    gamma = float(exact_gamma(bb))
    rep = estimate_gamma(bb, 100_000, seed=13, mode="sample")
    sigma = math.sqrt(gamma * (1.0 - gamma) / rep.N)
    assert abs(rep.p_hat - gamma) <= 5.0 * sigma


def test_sharded_counts_are_identical():
    bb = from_poly(parse_poly("x1*x2 + x3", F5, 3))
    base = count_zeros(bb, 3000, seed=21)
    for cuts in ([1500], [1000, 2000], [1, 375, 750, 1125, 1500, 1875, 2250, 2625]):
        bounds = [0, *cuts, 3000]
        parts = [count_zeros_range(bb, 21, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        assert sum(parts) == base
    assert count_zeros_range(bb, 21, 3000, 3000) == 0


def test_range_splits_off_batch_boundaries():
    # points are built in batches of rng.BATCH streams; ranges that start
    # and stop inside batches must still sum to the one-pass count
    batch = rng.BATCH
    bb = from_poly(parse_poly("x1*x2 + x3", F7, 3))
    total = 3 * batch + 17
    base = count_zeros(bb, total, seed=8)
    for cuts in ([1], [batch - 1, batch + 1], [5, batch, 2 * batch - 3, 3 * batch + 16]):
        bounds = [0, *cuts, total]
        parts = [count_zeros_range(bb, 8, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        assert sum(parts) == base


def _points_one_stream_each(field, n, seed, lo, hi):
    out = []
    for i in range(lo, hi):
        below = RandomStream(seed, i).next_below
        out.append(tuple(below(field.q) for _ in range(n)))
    return out


@pytest.mark.parametrize(
    "field, n, seed, lo, hi",
    [
        # the index's high word turns nonzero inside a batch
        (F7, 3, 1, 2**32 - 300, 2**32 + 300),
        (F2, 10, 5, 2**32 - 3, 2**32 + 700),
        # seeds as RandomStream masks them: to 64 bits, then split in two
        (F5, 4, -1, 0, 600),
        (GF(13), 5, 2**64 + 5, 100, 700),
        (GF(3, 2), 9, 2**40 + 7, 2**32 - 7, 2**32 + 7),
        # about half the words are rejected, so draws run into _refill
        (GF(2147483659), 4, 2**40 + 7, 2**32 - 300, 2**32 + 300),
        (GF(2147483659), 9, 3, 0, 300),
        # above 2^32 a draw takes two words
        (GF(2**61 - 1), 3, 4, 0, 300),
    ],
)
def test_points_equal_one_stream_per_index(field, n, seed, lo, hi):
    assert list(_points(field, n, seed, lo, hi)) == _points_one_stream_each(field, n, seed, lo, hi)


def test_count_zeros_range_rejects_bad_ranges():
    bb = from_poly(parse_poly("x1", F5, 2))
    with pytest.raises(RangeError):
        count_zeros_range(bb, 0, -1, 10)
    with pytest.raises(RangeError):
        count_zeros_range(bb, 0, 10, 9)
    with pytest.raises(RangeError):
        count_zeros(bb, -1, 0)


def test_verdict_outcomes():
    plan = plan_test(11, 3, 0.005, s=COMPAT_S)
    assert plan.feasible
    irr = parse_poly("x1*x2 + x3", GF(11), 3)
    verdict = run_irreducibility_test(from_poly(irr), plan, seed=5)
    assert verdict.outcome == LIKELY_IRREDUCIBLE
    assert verdict.report.N == plan.N
    red = product_bb(
        parse_poly("x1 + 1", GF(11), 3), parse_poly("x2 + 2", GF(11), 3)
    )
    verdict = run_irreducibility_test(red, plan, seed=5)
    assert verdict.outcome == LIKELY_REDUCIBLE


def test_verdict_threshold_boundary():
    plan = plan_test(5, 4, 0.005, s=COMPAT_S)
    bb = from_poly(parse_poly("x1", F5, 4))
    report = estimate_gamma(bb, plan.N, seed=2, mode="sample")
    at = dataclasses.replace(plan, threshold_k=report.k)
    below = dataclasses.replace(plan, threshold_k=report.k - 1)
    assert run_irreducibility_test(bb, at, seed=2).outcome == LIKELY_IRREDUCIBLE
    assert run_irreducibility_test(bb, below, seed=2).outcome == LIKELY_REDUCIBLE


def test_verdict_infeasible_plan():
    plan = plan_test(2, 3, 0.005, s=COMPAT_S)
    assert not plan.feasible
    verdict = run_irreducibility_test(from_poly(parse_poly("x1", F2, 3)), plan, seed=0)
    assert verdict.outcome == INFEASIBLE
    assert verdict.report is None


def test_verdict_context_checks():
    plan = plan_test(5, 4, 0.005, s=COMPAT_S)
    with pytest.raises(FieldMismatch):
        run_irreducibility_test(from_poly(parse_poly("x1", F7, 4)), plan, seed=0)
    with pytest.raises(ArityMismatch):
        run_irreducibility_test(from_poly(parse_poly("x1", F5, 3)), plan, seed=0)


def test_verdicts_see_only_the_zero_set_over_the_field():
    # the test counts zeros in F_7^4, so a square, or a factor with no
    # F_7-points (x1^2 + 1, as -1 is no square mod 7), reads as the other
    # factor; x1^2 - 3*x2^2 is irreducible over F_7 (3 is no square) but
    # splits over F_49, and reads as irreducible, which is right over F_7
    plan = plan_test(7, 4, 0.005, s=COMPAT_S)
    assert (plan.N, plan.threshold_k) == (647, 128)
    g = "x1*x2 + x3^2 + x4 + 1"
    cases = {
        g: (Fraction(1, 7), [89, 79, 86], LIKELY_IRREDUCIBLE),
        f"({g})*({g})": (Fraction(1, 7), [89, 79, 86], LIKELY_IRREDUCIBLE),
        f"({g})*(x1^2 + 1)": (Fraction(1, 7), [89, 79, 86], LIKELY_IRREDUCIBLE),
        "x1^2 - 3*x2^2": (Fraction(1, 49), [16, 12, 16], LIKELY_IRREDUCIBLE),
        f"({g})*(x2 + x3*x4 + 3)": (Fraction(636, 2401), [159, 156, 160], LIKELY_REDUCIBLE),
    }
    for text, (gamma, ks, outcome) in cases.items():
        bb = from_poly(parse_poly(text, F7, 4))
        assert exact_gamma(bb) == gamma, text
        verdicts = [run_irreducibility_test(bb, plan, seed) for seed in (1, 2, 3)]
        assert [v.report.k for v in verdicts] == ks, text
        assert {v.outcome for v in verdicts} == {outcome}, text


# ---------------------------------------------------------------------------
# the product trap fixture

def test_trap_fixture_structure():
    fx = make_product_trap_fixture(1)
    again = make_product_trap_fixture(1)
    assert fx == again
    assert fx != make_product_trap_fixture(2)
    assert all(-9 <= c <= 9 for c in fx.f1.values())
    assert all(-9 <= c <= 9 for c in fx.f3.values())
    assert max(sum(e) for e in fx.f1) == 5
    assert max(sum(e) for e in fx.f2) == 5
    assert max(sum(e) for e in fx.f3) == 10
    assert all(len(e) == 4 for e in fx.f)
    # each fixture's stream reads about 310 blocks through refills of 1 to
    # 256 blocks; the digest was taken with one block per refill
    traps = [sorted(make_product_trap_fixture(s).f.items()) for s in range(6)]
    assert hashlib.sha256(repr(traps).encode()).hexdigest() == (
        "de812867e2dacb1174ec6481bb57377c472dcc983f2ecd515555b9d447e9a849"
    )
    # f = f1*f2 + 7*f3 over the integers, each side evaluated term by term
    def value(terms, point):
        return sum(c * math.prod(x**e for x, e in zip(point, exps))
                   for exps, c in terms.items())

    for seed in range(6):
        fx = make_product_trap_fixture(seed)
        for point in ((0, 0, 0, 0), (1, -1, 2, 3), (5, 2, -7, 1), (-3, 4, 6, -2)):
            assert value(fx.f, point) == (
                value(fx.f1, point) * value(fx.f2, point) + 7 * value(fx.f3, point)
            )


def test_trap_collapses_to_product_mod_7():
    fx = make_product_trap_fixture(3)
    f_mod7 = fx.reduce_mod(F7)
    g1, g2 = fx.factors_mod(F7)
    assert f_mod7 == g1 * g2  # the cofactor term is a multiple of 7
    assert total_degree(f_mod7) == 10


def test_trap_keeps_degree_elsewhere():
    fx = make_product_trap_fixture(4)
    f11 = fx.reduce_mod(GF(11))
    assert total_degree(f11) == 10
    f13 = fx.reduce_mod(GF(13))
    assert total_degree(f13) == 10


def test_trap_verdicts_flip_with_the_prime():
    fx = make_product_trap_fixture(1)
    plan7 = plan_test(7, 4, 0.005, s=COMPAT_S)
    plan11 = plan_test(11, 4, 0.005, s=COMPAT_S)
    v7 = run_irreducibility_test(from_poly(fx.reduce_mod(F7)), plan7, seed=5)
    v11 = run_irreducibility_test(from_poly(fx.reduce_mod(GF(11))), plan11, seed=5)
    assert v7.outcome == LIKELY_REDUCIBLE
    assert v11.outcome == LIKELY_IRREDUCIBLE
