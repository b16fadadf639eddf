import math

import pytest

from irredtest import (
    COMPAT_S,
    InfeasibleOrder,
    OrderOverflow,
    RangeError,
    TABLE_NS,
    TABLE_QS,
    adjusted_probabilities,
    emit_table_csv,
    estimate_N_bound,
    inverse_tail_quantile,
    p_middle,
    p_middle_geometric,
    plan_test,
    required_N,
    table_grid,
)


def test_adjusted_probabilities_anchor():
    p1, p2 = adjusted_probabilities(2, 7, 0.005, s=COMPAT_S)
    assert abs(p1 - 0.6140) <= 1e-4
    assert abs(p2 - 0.6513) <= 1e-4
    assert p1 < p2


def test_adjusted_probabilities_limits():
    # the fluctuation terms die off as n grows
    p1, p2 = adjusted_probabilities(5, 40, 0.005)
    assert abs(p1 - 0.2) < 1e-8
    assert abs(p2 - 9 / 25) < 1e-8
    with pytest.raises(RangeError):
        adjusted_probabilities(1, 3, 0.005)
    with pytest.raises(RangeError):
        adjusted_probabilities(3, 3, 0.6)
    with pytest.raises(RangeError, match="need at least one variable, got 0"):
        adjusted_probabilities(5, 0, 0.005)


def test_adjusted_probabilities_crossing():
    p1, p2 = adjusted_probabilities(3, 4, 0.005, s=COMPAT_S)
    assert abs(p1 - 0.4685) <= 1e-3
    assert abs(p2 - 0.4131) <= 1e-3
    assert p1 > p2  # infeasible cell


def test_p_middle_properties():
    assert abs(p_middle(0.25, 0.75) - 0.5) <= 1e-12
    val = p_middle(0.6140209684663308, 0.6512549447440531)
    assert abs(val - 0.6328) <= 1e-4
    tight = p_middle(0.3, 0.3 + 1e-9)
    assert abs(tight - 0.3) < 1e-6
    with pytest.raises(RangeError):
        p_middle(0.7, 0.3)
    with pytest.raises(RangeError):
        p_middle(0.0, 0.5)


def test_p_middle_between_and_near_geometric():
    for q in TABLE_QS:
        for n in TABLE_NS:
            plan = plan_test(q, n, 0.005, s=COMPAT_S)
            if not plan.feasible:
                continue
            assert plan.p1 < plan.p_middle < plan.p2
            # the geometric shortcut tracks the exact boundary closely;
            # worst gap on this grid is just above 1e-2, at (2, 10)
            assert abs(plan.p_middle - p_middle_geometric(plan.p1, plan.p2)) < 2e-2
    with pytest.raises(RangeError, match="need 0 < p1 < p2 < 1"):
        p_middle_geometric(0.3, 0.2)


def test_required_N_floor_and_errors():
    assert required_N(0.0001, 0.9999, 0.4) == 1
    # the raw value is 9.000000000000004; within 1e-9 of an integer it snaps
    assert required_N(0.1, 0.5, 0.005, s=1.5) == 9
    with pytest.raises(InfeasibleOrder):
        required_N(0.5, 0.4, 0.005)
    with pytest.raises(RangeError):
        required_N(0.0, 0.5, 0.005)
    with pytest.raises(RangeError):
        required_N(0.2, 0.4, 0.9)
    for bad in (-2.58, 0.0, math.inf):
        with pytest.raises(RangeError, match="quantile s must be finite and > 0"):
            required_N(0.1, 0.5, 0.005, s=bad)


def test_plan_anchor_cells():
    cases = {
        (2, 7): (4457, 2821),
        (11, 4): (634, 81),
        (7, 3): (28373, 5607),
        (5, 4): (1103, 303),
        (17, 10): (665, 55),
    }
    for (q, n), (want_n, want_t) in cases.items():
        plan = plan_test(q, n, 0.005, s=COMPAT_S)
        assert plan.feasible
        assert plan.N == want_n
        assert plan.threshold_k == want_t
        assert 0 < plan.threshold_k < plan.N


def test_plan_beyond_float_range():
    # 7^400 and 2^1100 overflow a float; the one-shot adjustment is then 0
    plan = plan_test(7, 400, 0.005)
    assert plan.feasible
    assert plan.p1 == 1 / 7 and plan.p2 == 13 / 49
    assert plan.exceeds_point_count is False
    p1, p2 = adjusted_probabilities(2, 1100, 0.005)
    assert (p1, p2) == (0.5, 0.75)
    # 2^(10^12) would not fit in memory; the plan never builds it
    assert plan_test(2, 10**12, 0.005).exceeds_point_count is False
    # orders from 2^63 on are refused, as the field constructors refuse them,
    # before 1.0 / q can overflow, and the message leaves q out
    for q in (2**63, 10**400):
        with pytest.raises(OrderOverflow, match=r"^field order must be below 2\^63$"):
            plan_test(q, 2, 0.005)
        with pytest.raises(OrderOverflow, match=r"^field order must be below 2\^63$"):
            estimate_N_bound(q, 2, 0.005)
    assert plan_test(2**63 - 1, 2, 0.005).feasible
    assert estimate_N_bound(2**63 - 1, 2, 0.005) is not None


def test_plan_infeasible_cells():
    for q, n in ((2, 2), (3, 4), (17, 2), (2, 6)):
        plan = plan_test(q, n, 0.005, s=COMPAT_S)
        assert not plan.feasible
        assert plan.N is None and plan.threshold_k is None


def test_feasibility_monotone_in_n():
    for q in TABLE_QS:
        seen_feasible = False
        for n in range(1, 13):
            plan = plan_test(q, n, 0.005, s=COMPAT_S)
            if seen_feasible:
                assert plan.feasible
            seen_feasible = seen_feasible or plan.feasible
        assert seen_feasible


def test_exceeds_point_count_flag():
    assert plan_test(2, 7, 0.005, s=COMPAT_S).exceeds_point_count  # 4457 > 128
    assert not plan_test(11, 4, 0.005, s=COMPAT_S).exceeds_point_count


def test_default_quantile_is_precise():
    plan = plan_test(11, 4, 0.005)
    assert abs(plan.s - inverse_tail_quantile(0.005)) < 1e-12
    assert plan.N == 631 and plan.threshold_k == 80
    compat = plan_test(11, 4, 0.005, s=COMPAT_S)
    assert compat.s == 2.58
    assert (compat.N, compat.threshold_k) == (634, 81)
    # a given s must be finite and > 0: s=-2.58 would plan N=72 at (7, 3),
    # s=0 N=1 with threshold 0, and s=inf would read as infeasible
    for bad in (-2.58, 0.0, math.inf):
        for planner in (plan_test, adjusted_probabilities):
            with pytest.raises(RangeError, match="quantile s must be finite and > 0"):
                planner(7, 3, 0.005, s=bad)


def test_smaller_epsilon_needs_more_samples():
    strict = plan_test(11, 4, 0.001)
    loose = plan_test(11, 4, 0.01)
    assert strict.feasible and loose.feasible
    assert strict.N > loose.N


def test_looser_epsilon_shrinks_every_feasible_cell():
    for q in TABLE_QS:
        for n in TABLE_NS:
            tight = plan_test(q, n, 0.005, s=COMPAT_S)
            loose = plan_test(q, n, 0.25)
            if tight.feasible:
                assert loose.feasible
                assert loose.N < tight.N


def test_estimate_N_bound():
    assert estimate_N_bound(17, 10, 0.005, s=COMPAT_S) == 1022
    assert estimate_N_bound(17, 10, 0.005, s=COMPAT_S) >= plan_test(
        17, 10, 0.005, s=COMPAT_S
    ).N
    # denominator goes nonpositive: the bound has nothing to say
    assert estimate_N_bound(3, 2, 0.005, s=COMPAT_S) is None
    with pytest.raises(RangeError):
        estimate_N_bound(2, 7, 0.005)
    with pytest.raises(RangeError, match="need at least one variable, got 0"):
        estimate_N_bound(17, 0, 0.005)
    with pytest.raises(RangeError, match="epsilon must be in"):
        estimate_N_bound(17, 10, 0.5)
    for bad in (-2.58, 0.0, math.inf):
        with pytest.raises(RangeError, match="quantile s must be finite and > 0"):
            estimate_N_bound(17, 10, 0.005, s=bad)


def test_estimate_N_bound_scales_linearly_in_q():
    # for large q the bound behaves like a constant times q
    ratios = [
        estimate_N_bound(q, 40, 0.005, s=COMPAT_S) / q
        for q in (101, 211, 401, 1009)
    ]
    assert max(ratios) / min(ratios) < 1.05
    assert all(50 < r < 57 for r in ratios)


def test_table_grid_shape():
    rows = table_grid(0.005, "N", s=COMPAT_S)
    assert [n for n, _ in rows] == list(range(1, 11))
    assert all(len(cells) == 7 for _, cells in rows)
    with pytest.raises(RangeError):
        table_grid(0.005, "samples")


def test_table_csv_format():
    csv = emit_table_csv(0.005, "N", s=COMPAT_S)
    lines = csv.strip().split("\n")
    assert lines[0] == "n\\q,2,3,5,7,11,13,17"
    assert len(lines) == 11
    cells = {tuple(line.split(",")[:1]): line.split(",") for line in lines[1:]}
    assert cells[("2",)][1] == "inf"
    assert cells[("7",)][1] == "4457"
    thr = emit_table_csv(0.005, "threshold", s=COMPAT_S).strip().split("\n")
    assert thr[10].split(",")[7] == "55"


def test_plan_is_deterministic():
    a = plan_test(7, 5, 0.005, s=COMPAT_S)
    b = plan_test(7, 5, 0.005, s=COMPAT_S)
    assert a == b
