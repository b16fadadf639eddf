"""Sample size planning for the zero-count irreducibility test.

The test draws N uniform points, counts zeros k, and declares the input
irreducible-looking when k stays at or below a threshold.  Planning picks
N and the threshold so that both error modes (an irreducible input whose
zero fraction drifts high, a two-factor product whose fraction drifts low)
have tail mass at most epsilon under the normal approximation.

The two hypotheses sit at zero fractions 1/q and (2q - 1)/q^2.  Because a
single function on q^n points already fluctuates, both centers are first
shifted toward each other by s(epsilon) standard deviations of the
one-shot experiment; when the shifted values cross, no sample size works
at this (q, n) and the plan is infeasible.

Every function here that takes s defaults it to the exact quantile
inverse_tail_quantile(epsilon); a given s must be finite and > 0, or
RangeError is raised.
"""

import math
from dataclasses import dataclass

from .errors import InfeasibleOrder, OrderOverflow, RangeError
from .fields import ORDER_CAP
from .stats import _quantile

# Planning quantile rounded to two decimals, as commonly tabulated for
# epsilon = 0.005.  Published reference grids were produced with this
# value; pass s=COMPAT_S to reproduce them cell for cell.
COMPAT_S = 2.58

TABLE_QS = (2, 3, 5, 7, 11, 13, 17)
TABLE_NS = tuple(range(1, 11))


@dataclass(frozen=True)
class TestPlan:
    """Everything needed to run and judge one sampling experiment."""

    q: int
    n: int
    epsilon: float
    s: float
    p1: float
    p2: float
    feasible: bool
    p_middle: float = None
    N: int = None
    threshold_k: int = None
    exceeds_point_count: bool = False


def _check_args(q, n, epsilon):
    if q < 2:
        raise RangeError(f"field order must be >= 2, got {q}")
    if q >= ORDER_CAP:
        raise OrderOverflow("field order must be below 2^63")
    if n < 1:
        raise RangeError(f"need at least one variable, got {n}")
    if not 0 < epsilon < 0.5:
        raise RangeError(f"epsilon must be in (0, 1/2), got {epsilon}")


def adjusted_probabilities(q, n, epsilon, s=None):
    """Hypothesis centers after the one-shot fluctuation adjustment.

    p1 is 1/q pushed up by s standard deviations of a single function's
    zero fraction; p2 is (2q - 1)/q^2 pushed down the same way.  The pair
    brackets a usable decision band only when p1 < p2.
    """
    _check_args(q, n, epsilon)
    s = _quantile(epsilon, s)
    try:
        points = float(q) ** n
    except OverflowError:  # q^n beyond float range: the adjustment is 0
        points = math.inf
    a = 1.0 / q
    b = (2.0 * q - 1.0) / (q * q)
    p1 = a + s * math.sqrt(a * (1.0 - a) / points)
    p2 = b - s * math.sqrt(b * (1.0 - b) / points)
    return p1, p2


def p_middle(p1: float, p2: float) -> float:
    """Decision boundary equalizing both normal tail masses.

    Derived by equating (t - p1)/sigma1 = (p2 - t)/sigma2 with the binomial
    sigmas at p1 and p2; the closed form is a variance-weighted mean.
    """
    if not 0 < p1 < p2 < 1:
        raise RangeError(f"need 0 < p1 < p2 < 1, got {p1}, {p2}")
    w1 = math.sqrt(p1 * (1.0 - p1))
    w2 = math.sqrt(p2 * (1.0 - p2))
    return math.sqrt(p1 * p2) * (
        math.sqrt(p1 * (1.0 - p2)) + math.sqrt(p2 * (1.0 - p1))
    ) / (w1 + w2)


def p_middle_geometric(p1: float, p2: float) -> float:
    """Geometric mean shortcut; stays within 1e-2 of p_middle in practice."""
    if not 0 < p1 < p2 < 1:
        raise RangeError(f"need 0 < p1 < p2 < 1, got {p1}, {p2}")
    return math.sqrt(p1 * p2)


def required_N(p1: float, p2: float, epsilon: float, s=None) -> int:
    """Smallest sample count giving both tails mass <= epsilon.

    Ceiling of ((s * (sigma1 + sigma2)) / (p2 - p1))^2, with a tiny snap
    tolerance so that values landing within 1e-9 of an integer are not
    bumped a whole step up by float noise.
    """
    if not 0 < epsilon < 0.5:
        raise RangeError(f"epsilon must be in (0, 1/2), got {epsilon}")
    if not 0 < p1 < 1 or not 0 < p2 < 1:
        raise RangeError(f"probabilities outside (0, 1): {p1}, {p2}")
    if p1 >= p2:
        raise InfeasibleOrder(f"no sample size separates p1={p1} >= p2={p2}")
    s = _quantile(epsilon, s)
    rhs = s * (math.sqrt(p1 * (1.0 - p1)) + math.sqrt(p2 * (1.0 - p2))) / (p2 - p1)
    value = rhs * rhs
    nearest = round(value)
    if abs(value - nearest) < 1e-9:
        n_req = int(nearest)
    else:
        n_req = math.ceil(value)
    return max(1, n_req)


def plan_test(q: int, n: int, epsilon: float, s=None) -> TestPlan:
    """Full plan for one (q, n): adjusted centers, N, decision threshold."""
    _check_args(q, n, epsilon)
    s = _quantile(epsilon, s)
    p1, p2 = adjusted_probabilities(q, n, epsilon, s=s)
    if p1 >= p2:
        return TestPlan(
            q=q, n=n, epsilon=epsilon, s=s, p1=p1, p2=p2, feasible=False
        )
    n_samples = required_N(p1, p2, epsilon, s=s)
    boundary = p_middle(p1, p2)
    # nearest count to N * boundary, half rounded up
    threshold = math.floor(n_samples * boundary + 0.5)
    return TestPlan(
        q=q,
        n=n,
        epsilon=epsilon,
        s=s,
        p1=p1,
        p2=p2,
        feasible=True,
        p_middle=boundary,
        N=n_samples,
        threshold_k=threshold,
        # q^n >= 2^n > n_samples once n reaches its bit length; this
        # keeps q^n from being built at huge n
        exceeds_point_count=n < n_samples.bit_length() and n_samples > q**n,
    )


def estimate_N_bound(q: int, n: int, epsilon: float, s=None):
    """Closed-form upper estimate for N, usable without planning.

    sqrt(N) <= s * (2q)^(3/2) / (q - 1 - 2 s q^(-(n-2)/2)); returns None
    when the denominator is not positive (the estimate says nothing), and
    needs q >= 3.
    """
    _check_args(q, n, epsilon)
    if q < 3:
        raise RangeError(f"estimate needs q >= 3, got {q}")
    s = _quantile(epsilon, s)
    denom = q - 1.0 - 2.0 * s * float(q) ** (-(n - 2) / 2.0)
    if denom <= 0:
        return None
    root = s * (2.0 * q) ** 1.5 / denom
    return math.ceil(root * root)


def table_grid(epsilon: float, which: str, s=None):
    """Rows of the published-style reference grid.

    Returns a list of (n, cells) with one cell per q in TABLE_QS; a cell is
    an int or the string "inf" for infeasible combinations.  `which` picks
    the sample count ("N") or the decision threshold ("threshold").
    """
    if which not in ("N", "threshold"):
        raise RangeError(f"which must be 'N' or 'threshold', got {which!r}")
    rows = []
    for n in TABLE_NS:
        cells = []
        for q in TABLE_QS:
            plan = plan_test(q, n, epsilon, s=s)
            if not plan.feasible:
                cells.append("inf")
            else:
                cells.append(plan.N if which == "N" else plan.threshold_k)
        rows.append((n, cells))
    return rows


def emit_table_csv(epsilon: float, which: str, s=None) -> str:
    """CSV text for table_grid: header row, then one row per n."""
    lines = ["n\\q," + ",".join(str(q) for q in TABLE_QS)]
    for n, cells in table_grid(epsilon, which, s=s):
        lines.append(f"{n}," + ",".join(str(c) for c in cells))
    return "\n".join(lines) + "\n"
