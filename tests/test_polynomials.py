import hashlib
import itertools
import operator
import pickle
import time
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from irredtest import (
    ArityMismatch,
    FieldMismatch,
    GF,
    PolySyntaxError,
    RandomStream,
    RangeError,
    SparsePolynomial,
    UnknownVariable,
    UnsupportedSize,
    format_poly,
    from_poly,
    make_product_trap_fixture,
    monomials_up_to,
    parse_poly,
    random_dense_poly,
    total_degree,
)
from irredtest.polynomials import (
    _MAX_DENSE_ENTRIES,
    _MAX_ENTRIES,
    _check_terms,
    _horner,
    _monomials,
    _product,
    _reduced_terms,
    _value_table,
)

from conftest import PINNED_MODULI, all_points, naive_eval

F2 = GF(2)
F3 = GF(3)
F7 = GF(7)


def test_parse_basic_examples():
    f = parse_poly("x1*x2 + 3*x1^2 - 1", F7, 2)
    assert f.terms == {(1, 1): 1, (2, 0): 3, (0, 0): 6}
    assert parse_poly("0", F7, 3).is_zero()
    assert parse_poly("x1 + x1", F2, 1).is_zero()
    assert parse_poly("-1", F7, 1).terms == {(0,): 6}
    assert parse_poly("7", F7, 1).is_zero()
    assert parse_poly("(x1 + 1) * (x1 + 1)", F2, 1).terms == {(2,): 1, (0,): 1}
    assert parse_poly("x1^0", F5 := GF(5), 1).terms == {(0,): 1}
    assert parse_poly("2 * x2^3", F7, 2).terms == {(0, 3): 2}
    # a variable met again in a term adds its exponent; constants multiply
    f = parse_poly("x1*x2^2*3*(x2 + 1)*x1^3*4*x2", F7, 2)
    assert f.terms == {(4, 4): 5, (4, 3): 5}
    assert parse_poly("- x1 - 2*x1*x1 + (x1*x1)", F7, 1).terms == {(1,): 6, (2,): 6}
    assert parse_poly("0*x1*(x2 + 1) + x3", F7, 3).terms == {(0, 0, 1): 1}
    assert parse_poly("(x1 - x1)*(x2 + 1)", F7, 2).is_zero()


def test_parse_whitespace_insensitive():
    a = parse_poly("x1*x2+3*x1^2-1", F7, 2)
    b = parse_poly("  x1 * x2\t+ 3 * x1 ^ 2 - 1 ", F7, 2)
    assert a == b


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(PolySyntaxError) as info:
        parse_poly("2x1", F7, 1)
    assert info.value.position == 1
    with pytest.raises(PolySyntaxError):
        parse_poly("x1 x2", F7, 2)
    with pytest.raises(PolySyntaxError):
        parse_poly("3(x1)", F7, 1)


def test_parse_nesting_depth_is_bounded():
    # 100 levels parse; past that the offending '(' is a syntax error, where
    # unbounded recursion raised RecursionError at about 330 levels
    assert parse_poly("(" * 100 + "x1 + 1" + ")" * 100, F7, 1) == parse_poly("x1 + 1", F7, 1)
    with pytest.raises(PolySyntaxError) as info:
        parse_poly("(" * 101 + "x1" + ")" * 101, F7, 1)
    assert info.value.position == 100
    with pytest.raises(PolySyntaxError) as info:
        parse_poly("x1 * " + "(" * 330 + "x1" + ")" * 330, F7, 1)
    assert info.value.position == 5 + 100
    # siblings do not add up: depth counts only open parentheses
    assert parse_poly(" + ".join(["(" * 100 + "x1" + ")" * 100] * 3), F7, 1).terms == {(1,): 3}


def test_parse_is_linear_in_the_text():
    # a term's factors gather into one exponent list, and a sum's terms into
    # one dict; a polynomial product per factor or a copy per term made
    # parse time grow with the square of the length
    n = 10_000
    start = time.perf_counter()
    f = parse_poly("*".join(f"x{i}" for i in range(1, n + 1)) + " + 1", F7, n)
    assert time.perf_counter() - start < 1.0
    assert f.terms == {(1,) * n: 1, (0,) * n: 1}
    start = time.perf_counter()
    g = parse_poly(" + ".join(f"x1^{e}" for e in range(20_000)), F7, 1)
    assert time.perf_counter() - start < 1.0
    assert g.terms == {(e,): 1 for e in range(20_000)}


def test_parse_cost_is_bounded():
    # every term is a dense n-tuple: terms x n entries are counted before
    # they are built, and past _MAX_ENTRIES the parse stops
    n = 1_000
    f = parse_poly(" + ".join(f"x{i}" for i in range(1, n + 1)), F7, n)
    assert len(f.terms) == n and n * n == _MAX_ENTRIES
    start = time.perf_counter()
    with pytest.raises(UnsupportedSize):
        parse_poly(" + ".join(f"x{i}" for i in range(1, 3_001)), F7, 3_000)
    # a product of sums is counted, pair by pair, before it is multiplied out
    wide = "(" + " + ".join(f"x{i}" for i in range(1, 101)) + ")"
    with pytest.raises(UnsupportedSize):
        parse_poly(f"{wide}*{wide}", F7, 100)
    assert time.perf_counter() - start < 1.0
    half = "(" + " + ".join(f"x{i}" for i in range(1, 51)) + ")"
    assert len(parse_poly(f"{half}*{half}", F7, 50).terms) == 50 * 51 // 2


def test_parse_error_positions():
    with pytest.raises(PolySyntaxError) as info:
        parse_poly("x1 + + 3", F7, 1)
    assert info.value.position == 5
    with pytest.raises(PolySyntaxError) as info:
        parse_poly("x1 + ", F7, 1)
    assert info.value.position == 5
    with pytest.raises(PolySyntaxError):
        parse_poly("(x1", F7, 1)
    with pytest.raises(PolySyntaxError):
        parse_poly("x1 ^ x2", F7, 2)
    with pytest.raises(PolySyntaxError):
        parse_poly("", F7, 1)
    with pytest.raises(PolySyntaxError) as info:
        parse_poly("x1 + y", F7, 1)
    assert info.value.position == 5
    # ASCII digits only: int() would refuse or reread other digit characters
    for text, at, message in (
        ("x1^\u00b2", 3, "unexpected character"),
        ("x\u00b2", 0, "numeric index"),
        ("\u0663*x1", 0, "unexpected character"),
        # past sys.get_int_max_str_digits() digits, int() refuses the run
        ("9" * 5000, 0, "5000 digits exceeds"),
        ("x1^" + "9" * 5000, 3, "5000 digits exceeds"),
        ("x" + "1" * 5000, 0, "5000 digits exceeds"),
    ):
        with pytest.raises(PolySyntaxError, match=message) as info:
            parse_poly(text, F7, 1)
        assert info.value.position == at


def test_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse_poly("x3", F7, 2)
    with pytest.raises(UnknownVariable):
        parse_poly("x0", F7, 2)
    with pytest.raises(UnknownVariable) as info:
        parse_poly("x1 + x9", F7, 2)
    assert info.value.position == 5


def test_format_canonical_order():
    f = parse_poly("x1*x2 + 3*x1^2 - 1", F7, 2)
    assert format_poly(f) == "3*x1^2 + x1*x2 + 6"
    assert format_poly(SparsePolynomial.zero(F7, 2)) == "0"
    assert format_poly(parse_poly("x2 + x1", F7, 2)) == "x1 + x2"
    assert format_poly(parse_poly("1*x1", F7, 2)) == "x1"


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
        st.integers(1, 6),
        max_size=12,
    )
)
def test_format_parse_round_trip_f7(terms):
    f = SparsePolynomial(F7, 3, terms)
    assert parse_poly(format_poly(f), F7, 3) == f


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.sampled_from([0b01, 0b10, 0b11]),
        max_size=8,
    )
)
def test_format_parse_round_trip_extension(terms):
    # extension coefficients print as braced coordinate literals
    F4 = GF(2, 2)
    f = SparsePolynomial(F4, 2, terms)
    assert parse_poly(format_poly(f), F4, 2) == f


def test_braced_literal_parsing():
    F4 = GF(2, 2)
    f = parse_poly("{1,1}*x1 + {0,1}", F4, 1)
    assert f.terms == {(1,): 0b11, (0,): 0b01}
    assert parse_poly("{3}", F2, 1).terms == {(0,): 1}
    with pytest.raises(PolySyntaxError):
        parse_poly("{1,1}", F7, 1)  # two coordinates over a prime field
    with pytest.raises(PolySyntaxError):
        parse_poly("{1,0,0}", F4, 1)  # too many coordinates


def test_evaluate_against_naive_oracle_f7():
    stream = RandomStream(11, stream=0)
    f = random_dense_poly(F7, 3, 5, stream)
    for pt in all_points(F7, 3):
        assert f.evaluate(pt) == naive_eval(f, pt)


def test_evaluate_against_naive_oracle_extension():
    F4 = GF(2, 2)
    stream = RandomStream(12, stream=0)
    f = random_dense_poly(F4, 2, 3, stream)
    for pt in all_points(F4, 2):
        assert f.evaluate(pt) == naive_eval(f, pt)


# prime fields, and GF(p, k) at every pinned default modulus: on tables up to
# TABLE_CAP, and GF(7^4), above it, on schoolbook arithmetic
ORACLE_FIELDS = [GF(p) for p in (2, 3, 7, 13)] + [GF(p, k) for p, k in PINNED_MODULI]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_evaluate_matches_naive_oracle_every_field(data):
    # exponents up to 40 exercise the reduction x^e = x^(1 + (e-1) mod (q-1))
    # for q up to 27, and six variables with up to 40 terms give tries with
    # many branches
    field = data.draw(st.sampled_from(ORACLE_FIELDS))
    q = field.q
    n = data.draw(st.integers(0, 6))
    terms = data.draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, 40)] * n), st.integers(1, q - 1), max_size=40
        )
    )
    f = SparsePolynomial(field, n, terms)
    points = data.draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * n), max_size=5))
    for pt in points + [(0,) * n]:
        assert f.evaluate(pt) == naive_eval(f, pt)


@pytest.mark.parametrize("p", [2, 3, 7, 13])
def test_fermat_binomial_vanishes_but_keeps_its_terms(p):
    field = GF(p)
    f = parse_poly(f"x1^{p} - x1", field, 1)
    assert all(f.evaluate((x,)) == 0 for x in field.elements())
    assert f.terms == {(p,): 1, (1,): p - 1}


def test_evaluate_large_dense_polynomial():
    # far more terms than one generated expression can hold
    f = random_dense_poly(F7, 5, 14, RandomStream(1))
    assert len(f.terms) == 9979
    for pt in [(0, 0, 0, 0, 0), (1, 2, 3, 4, 5), (6, 6, 6, 6, 6), (3, 0, 5, 1, 2)]:
        assert f.evaluate(pt) == naive_eval(f, pt)


@pytest.mark.parametrize("field", [GF(2, 2), GF(7, 4), GF(10000019)])
def test_huge_exponent_evaluates_fast(field):
    q = field.q
    f = parse_poly("x1^1000000000 + 1", field, 1)
    reduced = parse_poly(f"x1^{1 + (10**9 - 1) % (q - 1)} + 1", field, 1)
    points = [0, 1, 2, 3, q - 1]
    start = time.perf_counter()
    values = [f.evaluate((x,)) for x in points]
    assert time.perf_counter() - start < 1.0
    assert values == [reduced.evaluate((x,)) for x in points]
    assert values == [field.add(field.pow(x, 10**9), field.one) for x in points]


@pytest.mark.parametrize("n", [3000, 10000])
def test_term_in_thousands_of_variables(n):
    # one term nests n levels deep in the Horner trie; the generated code
    # must stay within the parser's and compiler's nesting limits
    field = GF(10000019)
    f = SparsePolynomial(field, n, {(1,) * n: 5, (0,) * n: 1})
    assert f.evaluate((2,) * n) == (5 * 2**n + 1) % field.p
    assert f.evaluate((2,) * (n - 1) + (0,)) == 1


def test_staircase_keeps_a_register_per_level():
    # x_i*...*x_n summed over i: every level of the trie branches, so n
    # partial values are live at once and cross many generated functions
    n = 300
    f = SparsePolynomial(F7, n, {(0,) * i + (1,) * (n - i): 1 for i in range(n)})
    assert f.evaluate((2,) * n) == (2 ** (n + 1) - 2) % 7
    pt = tuple(i % 7 for i in range(3, n + 3))
    assert f.evaluate(pt) == naive_eval(f, pt)


def test_dense_univariate_degree_3000():
    # 3000 Horner steps in one variable, with gaps and a large prime
    field = GF(10000019)
    p = field.p
    stream = RandomStream(5, stream=0)
    terms = {(e,): 1 + stream.next_below(p - 1) for e in range(3001) if e % 7 != 3}
    f = SparsePolynomial(field, 1, terms)
    for x in (0, 1, 2, 12345, p - 1):
        want = sum(c * pow(x, e, p) for (e,), c in terms.items()) % p
        assert f.evaluate((x,)) == want


def _is_table(f):
    return "T" in f._evaluator.__globals__


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_value_table_matches_horner_and_naive(data):
    # both evaluators are built on the same reduced terms, whatever the rule
    # would pick; the table spans every variable, read or not, and over
    # GF(257) its values are stored as array('H')
    p = data.draw(st.sampled_from([2, 3, 5, 7, 13, 257]))
    n = data.draw(st.integers(0, 1 if p == 257 else 4))
    field = GF(p)
    kind = data.draw(st.sampled_from(["terms", "zero", "constant"]))
    if kind == "terms":
        exps = st.tuples(*[st.integers(0, 3 * p)] * n)
        terms = data.draw(st.dictionaries(exps, st.integers(1, p - 1), max_size=12))
        f = SparsePolynomial(field, n, terms)
    elif kind == "zero":
        f = SparsePolynomial.zero(field, n)
    else:
        f = SparsePolynomial.constant(field, n, data.draw(st.integers(1, p - 1)))
    reduced = _reduced_terms(f)
    table = _value_table(p, reduced, list(range(n)))
    horner = _horner(field, n, reduced)
    points = data.draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * n), max_size=6))
    for pt in points + [(0,) * n, (p - 1,) * n]:
        assert table(pt) == horner(pt) == naive_eval(f, pt)
    assert type(table.__globals__["T"]) is (bytes if p < 256 else array)


def test_value_table_of_a_dense_univariate_over_gf257():
    # every exponent below p, coefficients near p: the widest lanes of a
    # univariate table, values stored as array('H')
    p = 257
    stream = RandomStream(6, stream=0)
    terms = {(e,): p - 1 - stream.next_below(4) for e in range(p)}
    table = _value_table(p, terms, [0])
    assert table.__globals__["T"].typecode == "H"
    for x in range(p):
        assert table((x,)) == sum(c * pow(x, e, p) for (e,), c in terms.items()) % p


def test_dense_univariate_over_gf65521_keeps_horner_code():
    # 1,100 terms would admit 65,521 entries, but a table would take p^2
    # (about 4.3e9) slab multiply-adds, so the rule keeps Horner code
    field = GF(65521)
    p = field.p
    stream = RandomStream(6, stream=0)
    terms = {(stream.next_below(p),): 1 + stream.next_below(p - 1) for _ in range(1100)}
    f = SparsePolynomial(field, 1, terms)
    assert len(f.terms) > 1024
    for x in (0, 1, 2, 12345, p - 1):
        assert f.evaluate((x,)) == sum(c * pow(x, e, p) for (e,), c in terms.items()) % p
    assert not _is_table(f)


def test_the_rule_picks_the_table_for_small_prime_domains_only():
    trap = make_product_trap_fixture(3)
    tabulated = [
        trap.reduce_mod(GF(7)),
        trap.reduce_mod(GF(13)),
        random_dense_poly(F3, 4, 6, RandomStream(3)),
        parse_poly("x2", F7, 3),  # 7 entries and 49 multiply-adds for one term
    ]
    compiled = [
        parse_poly("x1^2*x2 + 3*x3*x1 + x2^2 + 5", F7, 3),  # 343 + 147 for 4 terms
        parse_poly("x1*x2 + 1", GF(3, 2), 2),  # extension fields never tabulate
        SparsePolynomial.constant(F7, 2, 3),  # reads no variable
        SparsePolynomial.zero(F7, 2),
    ]
    for f in tabulated + compiled:
        pt = (1,) * f.n
        assert f.evaluate(pt) == naive_eval(f, pt)
    assert [_is_table(f) for f in tabulated + compiled] == [True] * 4 + [False] * 4


def test_value_table_reads_and_reduces_only_its_coordinates():
    f = parse_poly("x1", F7, 3)
    assert f.evaluate((1, "a", 2.0)) == 1 and _is_table(f)
    assert from_poly(f).is_zero_at((0, "a", 2.0))
    g = parse_poly("x1^2*x3 + x3 + 1", F7, 3)
    assert g.evaluate((10**30, "a", -1)) == g.evaluate((1, 0, 6)) == 6 and _is_table(g)
    # a read coordinate that is not an int, a str with a % directive too
    for x in (3.0, "a", "%z", None):
        with pytest.raises(RangeError):
            g.evaluate((x, 0, 1))


def test_pickling_drops_the_kept_evaluator():
    for text, table in (("x1 + 1", True), ("x1*x2 + 1", False)):
        f = parse_poly(text, F7, 2)
        assert f.evaluate((1, 1)) == 2 and _is_table(f) == table
        g = pickle.loads(pickle.dumps(f))
        assert g == f and g._evaluator is None
        assert g.evaluate((1, 1)) == 2


def test_evaluator_is_built_on_first_evaluation_only():
    # construction, parsing and oracles build nothing: set-up stays cheap
    made = [
        parse_poly("x1^3*x2 + 2*x2 + 1", F7, 2),
        random_dense_poly(F3, 4, 6, RandomStream(3)),
        make_product_trap_fixture(1).reduce_mod(GF(11)),
    ]
    from_poly(made[0])
    assert all(f._evaluator is None for f in made)
    for f in made:
        f.evaluate((1,) * f.n)
        assert f._evaluator is not None


def test_evaluate_examples():
    f = parse_poly("x1*x2 + 1", F2, 2)
    assert f.evaluate((1, 1)) == 0
    assert f.evaluate((0, 1)) == 1
    assert SparsePolynomial.zero(F7, 2).evaluate((3, 4)) == 0
    assert SparsePolynomial.constant(F7, 0, 5).evaluate(()) == 5
    x2 = SparsePolynomial.variable(F7, 3, 2)
    assert x2 == parse_poly("x2", F7, 3) and x2.evaluate((3, 4, 5)) == 4
    with pytest.raises(ArityMismatch):
        f.evaluate((1,))
    # the evaluator kept by the first call stays out of the pickle
    g = pickle.loads(pickle.dumps(f))
    assert g == f and g.evaluate((1, 1)) == 0


def test_extension_coordinates_must_be_elements():
    # coordinates index the extension tables: -1 would read the last entry
    # (element 8 of GF(9), not the field's -1), and 9 would run off the end
    F9 = GF(3, 2)
    f = parse_poly("x1 + 1", F9, 1)
    for x in (-1, 9, 3.0, True, (1, 0)):
        with pytest.raises(RangeError):
            f.evaluate((x,))
        with pytest.raises(RangeError):
            from_poly(f).is_zero_at((x,))
    assert [f.evaluate((x,)) for x in (0, 8)] == [3, 2]
    # every coordinate is checked, read or not: by the zero polynomial, a
    # constant, and a dense polynomial whose code spans several functions
    dense = random_dense_poly(F9, 3, 12, RandomStream(4))
    stream = RandomStream(5, stream=0)
    for _ in range(50):
        pt = tuple(stream.next_below(9) for _ in range(3))
        assert dense.evaluate(pt) == naive_eval(dense, pt)
    assert "c1" in dense._evaluator.__globals__  # more than _CHUNK_OPS operations
    for g in (SparsePolynomial.zero(F9, 3), SparsePolynomial.constant(F9, 3, 5), dense):
        for x in (-1, 9):
            with pytest.raises(RangeError):
                g.evaluate((0, x, 0))
    # a prime field still reduces any int mod p
    assert parse_poly("x1 + 1", F7, 1).evaluate((-1,)) == 0


def test_prime_coordinates_must_be_ints():
    # a float must not come out as the value 0.0, which counts as a zero, nor
    # as a bare TypeError from pow()
    for text, pt in (("x1*x2 + 1", (3.0, 2)), ("x1^2 + 1", (3.0,)), ("x1", ("3",))):
        f = parse_poly(text, F7, len(pt))
        with pytest.raises(RangeError):
            f.evaluate(pt)
        with pytest.raises(RangeError):
            from_poly(f).is_zero_at(pt)
    # ints outside [0, p) still reduce mod p, also through pow()
    f = parse_poly("x1^2*x2 + 1", F7, 2)
    assert f.evaluate((10, -1)) == f.evaluate((3, 6)) == 6
    assert from_poly(f).is_zero_at((-1, 6))


def test_arithmetic_identities():
    for field in (F3, GF(3, 2)):
        stream = RandomStream(13, stream=0)
        f = random_dense_poly(field, 2, 3, stream)
        g = random_dense_poly(field, 2, 3, stream)
        zero = SparsePolynomial.zero(field, 2)
        one = SparsePolynomial.constant(field, 2, field.one)
        assert f + zero == f
        assert f * one == f
        assert f - f == zero
        assert (f + g) == (g + f)
        for pt in all_points(field, 2):
            assert (f + g).evaluate(pt) == field.add(f.evaluate(pt), g.evaluate(pt))
            assert (f * g).evaluate(pt) == field.mul(f.evaluate(pt), g.evaluate(pt))
            assert (-f).evaluate(pt) == field.neg(f.evaluate(pt))


def test_freshman_dream_in_char_2():
    f = parse_poly("x1 + 1", F2, 1)
    assert f * f == parse_poly("x1^2 + 1", F2, 1)


def test_no_zero_coefficients_stored():
    f = parse_poly("x1 + 1", F3, 1)
    g = parse_poly("2*x1 + 2", F3, 1)
    assert (f + g).is_zero()
    h = parse_poly("x1 + 2", F3, 1) * parse_poly("x1 + 1", F3, 1)
    assert all(c != 0 for c in h.terms.values())


def test_mixing_contexts_raises():
    f = parse_poly("x1", F3, 2)
    with pytest.raises(FieldMismatch):
        f + parse_poly("x1", F7, 2)
    with pytest.raises(ArityMismatch):
        f + parse_poly("x1", F3, 3)


def test_constructor_validation():
    with pytest.raises(ArityMismatch):
        SparsePolynomial(F3, 2, {(1,): 1})
    with pytest.raises(ArityMismatch, match="variable count must be >= 0, got -1"):
        SparsePolynomial(F7, -1, {})
    with pytest.raises(ArityMismatch, match="variable count must be >= 0, got -1"):
        parse_poly("1", F7, -1)
    with pytest.raises(TypeError, match="cannot combine with int"):
        SparsePolynomial(F7, 1, {}) + 5
    for exps in ((-1,), (2, 0, -3)):
        with pytest.raises(RangeError, match=r"^negative exponent in \(.*-\d"):
            SparsePolynomial(F3, len(exps), {exps: 1})
    # no variables: the one monomial is the empty tuple
    assert SparsePolynomial(F3, 0, {(): 2}).terms == {(): 2}
    with pytest.raises(UnknownVariable):
        SparsePolynomial.variable(F3, 2, 3)
    # a coefficient must be an element, an int in [0, q): elements index
    # the extension tables, where -1 would read the last entry
    for field, c in ((GF(3, 2), 9), (GF(3, 2), -1), (GF(3, 2), (1, 0)), (F7, 7)):
        with pytest.raises(RangeError):
            SparsePolynomial(field, 1, {(1,): c})
    # zero coefficients are dropped on construction
    assert SparsePolynomial(F3, 1, {(2,): 0}).is_zero()
    # an exponent is an int: not a float, even an integral one, nor a bool
    for exps in ((1.5, 0), (2.0, 1), ("a", 1), (True, 0), (0, 1 << 70, 1.0)):
        with pytest.raises(RangeError, match=r"^non-int exponent in \("):
            SparsePolynomial(F7, len(exps), {exps: 1})
    # the error is the first offending term's, checked in the old order:
    # arity, then exponents, then the coefficient
    bad = {(1, 0): 2, (1, 0, 0): 9, (-1, 0): 1}
    with pytest.raises(ArityMismatch, match=r"\(1, 0, 0\)"):
        SparsePolynomial(F7, 2, bad)
    with pytest.raises(RangeError, match="coefficient 9 "):
        SparsePolynomial(F7, 2, {(1, 0): 9, (1,): 1, (-1, 0): 1})
    with pytest.raises(RangeError, match=r"negative exponent in \(-1, 0\)"):
        SparsePolynomial(F7, 2, {(1, 0): 2, (-1, 0): 9})
    with pytest.raises(RangeError, match=r"coefficient True "):
        SparsePolynomial(F7, 1, {(1,): 1, (2,): True})
    # a key with no length is named, not a bare TypeError
    for key in (5, None):
        with pytest.raises(RangeError, match=rf"^exponent key {key} is not a tuple"):
            SparsePolynomial(F7, 1, {key: 1})
    # a key that is a sequence of ints is stored as a tuple
    assert SparsePolynomial(F7, 2, {b"\x01\x02": 3}).terms == {(1, 2): 3}
    # the terms are a mapping, not a list of pairs
    with pytest.raises(TypeError, match="^terms must be a mapping from exponent tuples to coeff"):
        SparsePolynomial(F7, 2, [((1, 0), 1)])


def naive_product(a, b, add, mul):
    """Schoolbook product on tuple keys, pairs a-major: the reference for
    _product's term map and its insertion order."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = mul(ca, cb)
            out[e] = add(out[e], c) if e in out else c
    return {e: c for e, c in out.items() if c}


GF9 = GF(3, 2)
# (add, mul, nonzero coefficients): the integers, a prime field, an extension
PRODUCT_RINGS = {
    "Z": (operator.add, operator.mul, st.integers(-3, 3).filter(bool)),
    "F7": (F7.add, F7.mul, st.integers(1, 6)),
    "GF9": (GF9.add, GF9.mul, st.integers(1, 8)),
}
# 255 + 1 and 255 + 255 cross a byte; 2^64 + 3 and 10^30 need wide slots
PRODUCT_EXPONENTS = st.sampled_from([0, 255, 256, 2**64 + 3, 10**30]) | st.integers(0, 3)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_product_matches_the_schoolbook_product(data):
    add, mul, coeff = PRODUCT_RINGS[data.draw(st.sampled_from(sorted(PRODUCT_RINGS)))]
    n = data.draw(st.integers(0, 5))
    exps = st.tuples(*[PRODUCT_EXPONENTS] * n)
    a, b = (data.draw(st.dictionaries(exps, coeff, max_size=7)) for _ in range(2))
    got = _product(a, b, add, mul)
    assert list(got.items()) == list(naive_product(a, b, add, mul).items())


def test_product_cancels_and_keeps_the_first_occurrence_order():
    big = 10**30
    cases = [
        # (x + 1)(x - 1): the x terms cancel
        ({(big,): 1, (0,): 1}, {(big,): 1, (0,): -1}, operator.add, operator.mul),
        # (x + y)(y - x + 2xy): x*y, the first key, cancels against y*(-x)
        ({(1, 0): 1, (0, 1): 1}, {(0, 1): 1, (1, 0): -1, (1, 1): 2}, operator.add, operator.mul),
        ({(255, 1): 3, (1, 255): 4}, {(1, 255): 5, (255, 1): 2}, F7.add, F7.mul),
        ({(): 3}, {(): 5}, F7.add, F7.mul),
        ({(): 3}, {}, F7.add, F7.mul),
    ]
    for a, b, add, mul in cases:
        got = _product(a, b, add, mul)
        assert list(got.items()) == list(naive_product(a, b, add, mul).items())
    assert _product(*cases[0]) == {(2 * big,): 1, (0,): -1}
    assert list(_product(*cases[1])) == [(2, 0), (2, 1), (0, 2), (1, 2)]
    assert _product(*cases[3]) == {(): 1}


def test_monomials_up_to_count_and_order():
    mons = list(monomials_up_to(4, 5))
    assert len(mons) == 126  # C(9, 4)
    assert mons[0] == (0, 0, 0, 0)
    assert mons == sorted(mons, key=lambda e: (sum(e), e))
    assert len(set(mons)) == len(mons)
    assert list(monomials_up_to(0, 3)) == [()]
    # with no variables the walk stops at degree 0, however large d is
    assert list(monomials_up_to(0, 10**18)) == [()]
    with pytest.raises(ArityMismatch, match="variable count must be >= 0, got -1"):
        list(monomials_up_to(-1, 2))


def test_monomials_up_to_matches_brute_force():
    for n in range(6):
        for d in range(7):
            ref = sorted(
                (e for e in itertools.product(range(d + 1), repeat=n) if sum(e) <= d),
                key=lambda e: (sum(e), e),
            )
            assert list(monomials_up_to(n, d)) == ref, (n, d)


def test_random_dense_poly_in_many_variables():
    # past Python's recursion limit: a walk with one level per variable
    # would raise RecursionError here
    f = random_dense_poly(F2, 1200, 1, RandomStream(1))
    assert total_degree(f) == 1
    stream = RandomStream(2, stream=0)
    for pt in ((1,) * 1200, tuple(stream.next_below(2) for _ in range(1200))):
        assert f.evaluate(pt) == naive_eval(f, pt)


def test_random_dense_poly_refuses_large_shapes_before_the_walk():
    # 60 x C(68, 8), about 3.9e11 exponent entries, is refused at once
    start = time.perf_counter()
    for n, d in ((60, 8), (1, 1 << 21), (1 << 21, 1), (2000, 10**100)):
        with pytest.raises(UnsupportedSize, match=f"passes {_MAX_DENSE_ENTRIES} exponent"):
            random_dense_poly(F7, n, d, RandomStream(1))
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ArityMismatch, match="variable count must be >= 0, got -1"):
        random_dense_poly(F7, -1, 0, RandomStream(1))
    # no variables: one monomial, whatever the degree
    assert random_dense_poly(F7, 0, 10**18, RandomStream(1)).n == 0


def test_large_monomial_walks_are_not_kept():
    # 1,202 monomials in 1,201 variables pass 2^16 exponent entries, so the
    # walk is freed with its polynomial; no other test builds this shape,
    # so a walk kept from an earlier test cannot hide here
    stream = RandomStream(1)
    tracemalloc.start()
    try:
        f = random_dense_poly(F2, 1201, 1, stream)
        del f
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1_000_000
    # the trap and sextic shapes stay shared
    for n, d in ((4, 5), (4, 6), (4, 10)):
        assert _monomials(n, d) is _monomials(n, d)


def test_random_dense_poly_shape_and_determinism():
    f = random_dense_poly(F7, 4, 5, RandomStream(21, stream=0))
    g = random_dense_poly(F7, 4, 5, RandomStream(21, stream=0))
    assert f == g
    assert total_degree(f) <= 5
    assert len(f.terms) <= 126
    h = random_dense_poly(F7, 4, 5, RandomStream(22, stream=0))
    assert f != h
    assert random_dense_poly(F7, 2, 0, RandomStream(1)).n == 2
    with pytest.raises(RangeError, match="degree must be >= 0, got -1"):
        random_dense_poly(F7, 2, -1, RandomStream(1))
    # the sextics of c10 and exact-sweep, 53 blocks a stream, so their draws
    # span several refills; the digest was taken with one block per refill
    sextics = [
        sorted(random_dense_poly(F3, 4, 6, RandomStream(s, stream=1 << 32)).terms.items())
        for s in range(20)
    ]
    assert hashlib.sha256(repr(sextics).encode()).hexdigest() == (
        "c7f0ac4387deebb9cb05b85c7460e5b9019c3bd81dde116a825698998363d83e"
    )


def test_random_dense_poly_draw_order_and_shared_keys():
    f = random_dense_poly(F7, 2, 3, RandomStream(5, stream=0))
    assert format_poly(f) == (
        "4*x1^3 + 3*x1^2*x2 + x1*x2^2 + x2^3 + 2*x1^2 + x1*x2 + 6*x2^2"
        " + 4*x1 + 4*x2 + 1"
    )
    # dense polynomials of one shape share their exponent-tuple keys
    g = random_dense_poly(F7, 2, 3, RandomStream(6, stream=0))
    keys = {exps: exps for exps in g.terms}
    assert all(keys.get(exps, exps) is exps for exps in f.terms)


def test_total_degree():
    assert total_degree(SparsePolynomial.zero(F3, 2)) == -1
    assert total_degree(parse_poly("x1^2*x2 + x2", F3, 2)) == 3
    F101 = GF(101)
    for seed in range(5):
        s = RandomStream(seed, stream=3)
        f = random_dense_poly(F101, 2, 3, s)
        g = random_dense_poly(F101, 2, 4, s)
        assert total_degree(f * g) == total_degree(f) + total_degree(g)


def _assert_adopted(h, *operands):
    """h's term map is one the checking constructor accepts and keeps as it
    is, key order included, and it is h's own: no operand shares it."""
    _check_terms(h.terms, h.n, h.field.q)
    rebuilt = SparsePolynomial(h.field, h.n, h.terms)
    assert rebuilt == h and list(rebuilt.terms) == list(h.terms)
    before = [dict(f) for f in operands]
    h.terms.clear()
    h.terms[("mutated",)] = 1
    assert [dict(f) for f in operands] == before


ADOPTING_FIELDS = [F2, F7, GF9]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_adopting_producers_build_what_the_constructor_would(data):
    field = data.draw(st.sampled_from(ADOPTING_FIELDS))
    n = data.draw(st.integers(0, 3))
    exps = st.tuples(*[st.sampled_from([0, 1, 2, 9, 2**64 + 3])] * n)
    coeff = st.integers(1, field.q - 1)
    f, g = (
        SparsePolynomial(field, n, data.draw(st.dictionaries(exps, coeff, max_size=6)))
        for _ in range(2)
    )
    for h, operands in (
        (f + g, (f, g)),
        (f - g, (f, g)),
        (f - f, (f,)),
        (-f, (f,)),
        (f * g, (f, g)),
        (parse_poly(format_poly(f), field, n), (f,)),
    ):
        _assert_adopted(h, *(x.terms for x in operands))
    seed, d = data.draw(st.integers(0, 2**64 - 1)), data.draw(st.integers(0, 4))
    _assert_adopted(random_dense_poly(field, n, d, RandomStream(seed)))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_trap_reductions_build_what_the_constructor_would(seed):
    fx = make_product_trap_fixture(seed)
    for field in (F7, GF(11), GF(13), GF9):
        _assert_adopted(fx.reduce_mod(field), fx.f, fx.f1, fx.f2, fx.f3)
        for factor in fx.factors_mod(field):
            _assert_adopted(factor, fx.f, fx.f1, fx.f2, fx.f3)
