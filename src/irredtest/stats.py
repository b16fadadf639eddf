"""Exact zero-count distributions and their normal approximations.

Counting zeros of a uniformly random function f : F_q^n -> F_q at the
q^n domain points is a binomial experiment; the models below record the
exact success probabilities as Fractions so that identities can be tested
with equality, not tolerance.  Normal approximations and quantiles (from
statistics.NormalDist) serve the planning side, where floats are the right
tool.  Sizes q^n are compared with their limits through
fields.power_exceeds, so an oversized case never builds its power.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress as _compress, product as _cartesian
from statistics import NormalDist

from .errors import EmptyList, OrderOverflow, RangeError, TooLarge
from .fields import ORDER_CAP, power_exceeds

KIND_SINGLE = "single"
KIND_PRODUCT = "product"
KIND_INTERSECTION = "intersection"
KIND_SUBSTITUTION = "substitution"

# Largest denominator det_expectation builds, 2^(2^19): the largest square
# case over F_2, 1023 x 1023 (a 523,776-bit denominator), takes about 1.4 s
# on a 2-vCPU Xeon, and the cost grows faster than the denominator's bits.
DET_DENOMINATOR_CAP = 1 << (1 << 19)


@dataclass(frozen=True)
class NormalApprox:
    """N(mean, sd) approximation to an observed zero fraction."""

    mean: float
    sd: float

    def central_interval(self, epsilon: float, s: float = None):
        """Symmetric interval with tail mass epsilon on each side.

        s defaults to inverse_tail_quantile(epsilon); a given s must be
        finite and > 0.
        """
        s = _quantile(epsilon, s)
        return ConfidenceInterval(
            estimate=self.mean, half_width=s * self.sd, level=1 - 2 * epsilon
        )


@dataclass(frozen=True)
class ConfidenceInterval:
    estimate: float
    half_width: float
    level: float

    @property
    def lo(self) -> float:
        return max(0.0, self.estimate - self.half_width)

    @property
    def hi(self) -> float:
        return min(1.0, self.estimate + self.half_width)

    @property
    def degenerate(self) -> bool:
        """True when the width collapsed (all-or-nothing counts)."""
        return self.half_width == 0.0

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class BinomialModel:
    """Zero counts k ~ B(trials, success_p) with exact rational parameters."""

    trials: int
    success_p: Fraction

    def __post_init__(self):
        if self.trials < 0:
            raise RangeError(f"trials must be >= 0, got {self.trials}")
        if not 0 <= self.success_p <= 1:
            raise RangeError(f"success probability {self.success_p} outside [0, 1]")

    def pmf(self, k: int) -> Fraction:
        if k < 0 or k > self.trials:
            return Fraction(0)
        p = self.success_p
        return math.comb(self.trials, k) * p**k * (1 - p) ** (self.trials - k)

    def pmf_float(self, k: int) -> float:
        """Log-space evaluation; usable at trial counts where exact
        rationals are too big to be worth materializing."""
        if k < 0 or k > self.trials:
            return 0.0
        p = float(self.success_p)
        if p == 0.0:
            return 1.0 if k == 0 else 0.0
        if p == 1.0:
            return 1.0 if k == self.trials else 0.0
        n = self.trials
        log_pmf = (
            math.lgamma(n + 1)
            - math.lgamma(k + 1)
            - math.lgamma(n - k + 1)
            + k * math.log(p)
            + (n - k) * math.log1p(-p)
        )
        return math.exp(log_pmf)

    def pmf_vector(self):
        return [self.pmf(k) for k in range(self.trials + 1)]

    def mean_fraction(self) -> Fraction:
        """Expected zero fraction k/trials; equals success_p."""
        return self.success_p

    def normal_approx(self) -> NormalApprox:
        """Gaussian approximation to the zero fraction k/trials."""
        if self.trials == 0:
            raise RangeError("no normal approximation for 0 trials")
        p = float(self.success_p)
        return NormalApprox(mean=p, sd=math.sqrt(p * (1 - p) / self.trials))


def _check_qn(q, n):
    if q < 2:
        raise RangeError(f"field order must be >= 2, got {q}")
    if n < 1:
        raise RangeError(f"need at least one variable, got {n}")
    if power_exceeds(q, n, ORDER_CAP - 1):
        raise OrderOverflow(f"{q}^{n} points exceed the supported 64-bit range")


def gamma_model(q: int, n: int) -> BinomialModel:
    """Zero counts of a uniform function on q^n points: B(q^n, 1/q)."""
    _check_qn(q, n)
    return BinomialModel(trials=q**n, success_p=Fraction(1, q))


def product_model(q: int, n: int) -> BinomialModel:
    """Zero counts of a product of two independent uniform functions.

    At each point the product vanishes when either factor does, so the
    per-point probability is 1 - (1 - 1/q)^2 = (2q - 1)/q^2.
    """
    _check_qn(q, n)
    return BinomialModel(trials=q**n, success_p=Fraction(2 * q - 1, q * q))


def intersection_model(q: int, n: int, x_count: int) -> BinomialModel:
    """Zeros of a uniform function restricted to a fixed set of x_count points."""
    _check_qn(q, n)
    if not 0 <= x_count <= q**n:
        raise RangeError(f"x_count {x_count} outside [0, {q}^{n}]")
    return BinomialModel(trials=x_count, success_p=Fraction(1, q))


def intersection_expectation(q: int, c: int) -> Fraction:
    """Expected fraction cut out by c independent uniform constraints: q^-c."""
    if q < 2:
        raise RangeError(f"field order must be >= 2, got {q}")
    if c < 0:
        raise RangeError(f"constraint count must be >= 0, got {c}")
    return Fraction(1, q**c)


def substitution_model(q: int, n: int, gamma_x) -> BinomialModel:
    """Zero counts after substituting a uniform map into a fixed target set.

    gamma_x is the density of the target zero set X inside its own space;
    each of the q^n substituted points lands in X independently with that
    probability.
    """
    _check_qn(q, n)
    gamma_x = Fraction(gamma_x)
    if not 0 <= gamma_x <= 1:
        raise RangeError(f"gamma_x {gamma_x} outside [0, 1]")
    return BinomialModel(trials=q**n, success_p=gamma_x)


def det_expectation(q: int, r: int, c: int) -> Fraction:
    """Probability that a uniform r x c matrix over F_q has rank < r.

    Full row rank needs each of the r rows to avoid the span of the previous
    ones: success probability prod_{i<r} (1 - q^(i-c)).  Its denominator is
    q^(rc - r(r-1)/2); TooLarge is raised before any product when that
    passes DET_DENOMINATOR_CAP.
    """
    if q < 2:
        raise RangeError(f"field order must be >= 2, got {q}")
    if not 1 <= r <= c:
        raise RangeError(f"need 1 <= rows <= cols, got {r} x {c}")
    exponent = r * c - r * (r - 1) // 2
    if power_exceeds(q, exponent, DET_DENOMINATOR_CAP):
        raise TooLarge(
            f"{r} x {c} over F_{q}: the denominator {q}^{exponent} passes"
            f" 2^{DET_DENOMINATOR_CAP.bit_length() - 1}"
        )
    full = Fraction(1)
    for i in range(r):
        full *= 1 - Fraction(1, q ** (c - i))
    return 1 - full


# ---------------------------------------------------------------------------
# quantiles and intervals

def inverse_tail_quantile(epsilon: float) -> float:
    """s such that the upper Gaussian tail beyond s has mass epsilon,
    for 0 < epsilon <= 1/2."""
    if not 0 < epsilon <= 0.5:
        raise RangeError(f"tail mass must be in (0, 1/2], got {epsilon}")
    return 0.0 - NormalDist().inv_cdf(epsilon)  # 0.0, not -0.0, at 1/2


def _quantile(epsilon: float, s) -> float:
    """inverse_tail_quantile(epsilon) when s is None, else s, which must be
    finite and > 0."""
    if s is None:
        return inverse_tail_quantile(epsilon)
    if not 0 < s < math.inf:
        raise RangeError(f"quantile s must be finite and > 0, got {s}")
    return s


def wald_interval(k: int, n_samples: int, epsilon: float) -> ConfidenceInterval:
    """Normal-approximation interval for a zero fraction from k hits in N draws.

    Two-sided level 1 - 2*epsilon; the plug-in width collapses to zero at
    k = 0 or k = N, flagged via `degenerate`.
    """
    if n_samples < 1:
        raise RangeError(f"need at least one sample, got {n_samples}")
    if not 0 <= k <= n_samples:
        raise RangeError(f"count {k} outside [0, {n_samples}]")
    s = inverse_tail_quantile(epsilon)
    p_hat = k / n_samples
    half = s * math.sqrt(p_hat * (1 - p_hat) / n_samples)
    return ConfidenceInterval(estimate=p_hat, half_width=half, level=1 - 2 * epsilon)


# ---------------------------------------------------------------------------
# brute force ground truth

def _as_point_indices(q, dims, points):
    """Set of mixed-radix indices of the given coordinate tuples inside F_q^dims."""
    idx = set()
    for pt in points:
        if len(pt) != dims:
            raise RangeError(f"point {pt} does not have {dims} coordinates")
        acc = 0
        for c in pt:
            if not 0 <= c < q:
                raise RangeError(f"coordinate {c} outside [0, {q})")
            acc = acc * q + c
        idx.add(acc)
    return idx


def _bounded_power(q, exponent, limit, what):
    """q^exponent, or TooLarge when it exceeds limit, never building a huge power."""
    if power_exceeds(q, exponent, limit):
        raise TooLarge(f"{q}^{exponent} {what} exceed the limit {limit}")
    return q**exponent


def brute_force_distribution(
    q: int,
    n: int,
    kind: str,
    x_points=None,
    m: int = None,
    limit: int = 10**7,
):
    """Exact zero-count pmf by enumerating every function in the model.

    Returns a list of q^n + 1 Fractions summing to one.  One loop walks
    every table of q^n values in range(q^width) and tallies each table by
    how many of its counted positions hold a zero value.  `kind` fixes
    those: "single" (a uniform function on F_q^n) has width 1, every
    position and zero values {0}; "product" enumerates pairs (a, b) as
    a*q + b, width 2, zero when a = 0 or b = 0; "intersection" counts a
    single function only at the positions of x_points; "substitution"
    enumerates maps into F_q^m, width m, zero at the indices of x_points.
    Work is bounded by `limit` tables, q^(width * q^n), checked before
    any point set is built.
    """
    _check_qn(q, n)
    domain = q**n
    if kind in (KIND_SINGLE, KIND_INTERSECTION):
        width, what = 1, "functions"
    elif kind == KIND_PRODUCT:
        width, what = 2, "function pairs"
    elif kind == KIND_SUBSTITUTION:
        if m is None or m < 1:
            raise RangeError("substitution needs the target dimension m >= 1")
        width, what = m, "maps"
    else:
        raise RangeError(f"unknown kind {kind!r}")
    if kind == KIND_INTERSECTION and x_points is None:
        raise EmptyList("intersection needs the point set x_points")
    if kind == KIND_SUBSTITUTION and x_points is None:
        raise EmptyList("substitution needs the target point set x_points")
    total = _bounded_power(q, width * domain, limit, what)

    positions, zeros = range(domain), {0}
    if kind == KIND_PRODUCT:
        zeros = {v for v in range(q * q) if v < q or v % q == 0}
    elif kind == KIND_INTERSECTION:
        positions = _as_point_indices(q, n, x_points)
    elif kind == KIND_SUBSTITUTION:
        zeros = _as_point_indices(q, m, x_points)
    # each value enters the enumeration as its zero flag, and each position
    # as its counted flag, so a table's count is one sum over compress
    zero_flags = [int(v in zeros) for v in range(q**width)]
    counted = [int(i in positions) for i in range(domain)]
    counts = [0] * (domain + 1)
    for table in _cartesian(zero_flags, repeat=domain):
        counts[sum(_compress(table, counted))] += 1
    return [Fraction(c, total) for c in counts]
