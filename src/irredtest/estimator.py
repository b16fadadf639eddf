"""Sampling experiments against zero-test oracles, exact counts, verdicts.

Point i of a run is generated from its own counter stream keyed by
(seed, i).  count_zeros_range counts any index range of a run, so a run
split into ranges, counted anywhere and summed, gives the same count as
one sequential pass.
"""

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _cartesian

from .blackbox import BlackBox
from .errors import ArityMismatch, DomainTooLarge, FieldMismatch, RangeError
from .fields import power_exceeds
from .planner import TestPlan
from .rng import prefilled_streams
from .stats import ConfidenceInterval, wald_interval

LIKELY_IRREDUCIBLE = "LikelyIrreducible"
LIKELY_REDUCIBLE = "LikelyReducible"
INFEASIBLE = "Infeasible"

MODE_SAMPLED = "sampled"
MODE_EXACT = "exact"

EXACT_CAP_DEFAULT = 10**6


@dataclass(frozen=True)
class SampleReport:
    """Outcome of one zero-fraction measurement."""

    N: int
    k: int
    p_hat: float
    interval: ConfidenceInterval
    mode: str
    seed: int
    elapsed: float


@dataclass(frozen=True)
class Verdict:
    outcome: str
    plan: TestPlan
    report: SampleReport = None


def _points(field, n, seed, lo, hi):
    """Points lo..hi-1 of run (seed); point i depends only on (seed, i).

    Point i is n draws next_below(q) from RandomStream(seed, i).  The
    streams come in batches that already hold the blocks those draws take
    when none is rejected: one word a draw, two when q exceeds 2^32.
    """
    q = field.q
    draws = range(n)
    words = n if q <= 1 << 32 else 2 * n
    for stream in prefilled_streams(seed, lo, hi, -(-words // 4)):
        below = stream.next_below
        yield tuple([below(q) for _ in draws])


def sample_points(field, n: int, count: int, seed: int):
    """Deterministic uniform points; draw i depends only on (seed, i)."""
    if n < 1:
        raise ArityMismatch(f"need at least one variable, got {n}")
    if count < 0:
        raise RangeError(f"sample count must be >= 0, got {count}")
    return list(_points(field, n, seed, 0, count))


def _count_hits(bb: BlackBox, points) -> int:
    """Points at which the oracle reports a zero; any truthy answer counts."""
    probe = bb.is_zero_at
    hits = 0
    for pt in points:
        if probe(pt):
            hits += 1
    return hits


def count_zeros_range(bb: BlackBox, seed: int, lo: int, hi: int) -> int:
    """Zero hits among points lo..hi-1 of the run (seed).

    The counts of contiguous ranges covering [0, N) sum to
    count_zeros(bb, N, seed), wherever each range is counted.
    """
    if not 0 <= lo <= hi:
        raise RangeError(f"need 0 <= lo <= hi, got lo={lo}, hi={hi}")
    return _count_hits(bb, _points(bb.field, bb.n, seed, lo, hi))


def count_zeros(bb: BlackBox, n_samples: int, seed: int) -> int:
    """Zero hits among the first n_samples points of the run (seed)."""
    if n_samples < 0:
        raise RangeError(f"sample count must be >= 0, got {n_samples}")
    return count_zeros_range(bb, seed, 0, n_samples)


def exact_gamma(bb: BlackBox, cap: int = EXACT_CAP_DEFAULT) -> Fraction:
    """Exact zero fraction by visiting every point of field^n."""
    q, n = bb.field.q, bb.n
    if power_exceeds(q, n, cap):
        raise DomainTooLarge(f"{q}^{n} points exceed the exact-count cap {cap}")
    return Fraction(_count_hits(bb, _cartesian(bb.field.elements(), repeat=n)), q**n)


def estimate_gamma(
    bb: BlackBox,
    n_samples: int,
    seed: int,
    epsilon: float = 0.005,
    mode: str = "auto",
) -> SampleReport:
    """Measure the zero fraction of an oracle.

    mode "auto" switches to exhaustive counting when the full domain is both
    within EXACT_CAP_DEFAULT and no bigger than the requested sample count;
    "sample" and "exact" force the respective path.  Sampled reports carry a
    Wald interval at level 1 - 2*epsilon; every path takes 0 < epsilon <= 1/2.
    """
    if mode not in ("auto", "sample", "exact"):
        raise RangeError(f"unknown mode {mode!r}")
    if not 0 < epsilon <= 0.5:
        raise RangeError(f"epsilon must be in (0, 1/2], got {epsilon}")
    q, n = bb.field.q, bb.n
    use_exact = mode == "exact" or (
        mode == "auto"
        and not power_exceeds(q, n, EXACT_CAP_DEFAULT)
        and n_samples >= q**n
    )
    start = time.perf_counter()
    if use_exact:
        frac = exact_gamma(bb)
        elapsed = time.perf_counter() - start
        domain = q**n
        return SampleReport(
            N=domain,
            k=frac.numerator * (domain // frac.denominator),
            p_hat=float(frac),
            interval=ConfidenceInterval(
                estimate=float(frac), half_width=0.0, level=1 - 2 * epsilon
            ),
            mode=MODE_EXACT,
            seed=seed,
            elapsed=elapsed,
        )
    if n_samples < 1:
        raise RangeError(f"need at least one sample, got {n_samples}")
    hits = count_zeros(bb, n_samples, seed)
    elapsed = time.perf_counter() - start
    return SampleReport(
        N=n_samples,
        k=hits,
        p_hat=hits / n_samples,
        interval=wald_interval(hits, n_samples, epsilon),
        mode=MODE_SAMPLED,
        seed=seed,
        elapsed=elapsed,
    )


def run_irreducibility_test(bb: BlackBox, plan: TestPlan, seed: int) -> Verdict:
    """Execute a plan against an oracle and call the verdict.

    Always draws exactly plan.N fresh samples (no exact shortcut), so the
    verdict matches the planned error model even when the domain is tiny.
    """
    if bb.field.q != plan.q:
        raise FieldMismatch(f"oracle over order {bb.field.q}, plan for {plan.q}")
    if bb.n != plan.n:
        raise ArityMismatch(f"oracle arity {bb.n}, plan for {plan.n}")
    if not plan.feasible:
        return Verdict(outcome=INFEASIBLE, plan=plan)
    report = estimate_gamma(bb, plan.N, seed, epsilon=plan.epsilon, mode="sample")
    outcome = (
        LIKELY_IRREDUCIBLE if report.k <= plan.threshold_k else LIKELY_REDUCIBLE
    )
    return Verdict(outcome=outcome, plan=plan, report=report)
