import itertools
import pickle
import random
import time

import pytest

from irredtest import (
    DivisionByZero,
    ExtensionField,
    FieldSpec,
    GF,
    NonPrimeCharacteristic,
    OrderOverflow,
    PrimeField,
    RandomStream,
    RangeError,
    ReducibleModulus,
    UnsupportedSize,
    extension_of,
    find_irreducible,
    is_prime,
    make_field,
    parse_poly,
    singular_curve_bb,
)
from irredtest.fields import TABLE_CAP, _poly_is_irreducible, power_exceeds

from conftest import PINNED_MODULI

SMALL_FIELDS = [
    GF(2),
    GF(3),
    GF(5),
    GF(7),
    GF(13),
    GF(2, 2),
    GF(2, 3),
    GF(2, 4),
    GF(3, 2),
]


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-3, 32):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    # composites with no factor among the witnesses: Miller-Rabin rejects
    # them (3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7)
    assert not is_prime(1763)  # 41 * 43
    assert not is_prime(3215031751)
    assert is_prime(2**64 - 59)


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=lambda f: str(f.spec))
def test_field_axioms_exhaustive(field):
    els = field.elements()
    assert len(els) == field.q == len(set(els))
    assert els[0] == field.zero
    for a, b in itertools.product(els, repeat=2):
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.sub(a, b) == field.add(a, field.neg(b))
    for a, b, c in itertools.product(els, repeat=3):
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(
            field.mul(a, b), field.mul(a, c)
        )
    for a in els:
        assert field.add(a, field.zero) == a
        assert field.mul(a, field.one) == a
        assert field.add(a, field.neg(a)) == field.zero
        if a != field.zero:
            assert field.mul(a, field.inv(a)) == field.one
            assert field.pow(a, field.q - 1) == field.one


@pytest.mark.parametrize("field", SMALL_FIELDS + [GF(7, 4)], ids=lambda f: str(f.spec))
def test_index_round_trip(field):
    # element i has coordinates (i // p^(k-1-j)) % p, constant first; braced
    # text and from_coords are the only ways in from coordinates
    p, k = field.p, field.k
    if field.q <= 256:
        els = field.elements()
    else:
        rnd = random.Random(field.q)
        els = [rnd.randrange(field.q) for _ in range(200)] + [0, 1, field.q - 1]
    for a in els:
        coords = [a // p ** (k - 1 - j) % p for j in range(k)]
        assert field.from_coords(coords) == a
        assert parse_poly(field.format_element(a), field, 0).terms.get((), 0) == a


@pytest.mark.parametrize("field", SMALL_FIELDS + [GF(7, 4)], ids=lambda f: str(f.spec))
def test_sub_is_the_coordinate_difference(field):
    # a - b has coordinates (a_j - b_j) mod p, on every pair of a small
    # field and on a sample of GF(7^4), which has no tables
    p, k, q = field.p, field.k, field.q
    places = [p ** (k - 1 - j) for j in range(k)]
    if q <= 256:
        pairs = itertools.product(field.elements(), repeat=2)
    else:
        rnd = random.Random(q)
        pairs = [(rnd.randrange(q), rnd.randrange(q)) for _ in range(500)]
        pairs += [(0, q - 1), (q - 1, 0), (q - 1, q - 1)]
    for a, b in pairs:
        want = sum((a // t % p - b // t % p) % p * t for t in places)
        assert field.sub(a, b) == want, (a, b)
    assert field.k == 1 or (field._log == []) == (q > TABLE_CAP)


def test_inverse_by_brute_force_f7():
    f = GF(7)
    # the unique b with 3*b == 1
    matches = [b for b in f.elements() if f.mul(3, b) == 1]
    assert matches == [5]
    assert f.inv(3) == 5
    assert f.pow(3, -1) == 5 and f.pow(3, -2) == 4


def test_f16_structure():
    f = GF(2, 4)
    g = 0b0100  # x: coordinates (0, 1, 0, 0)
    # brute-force inverse search agrees with the xgcd inverse
    matches = [b for b in f.elements() if f.mul(g, b) == f.one]
    assert matches == [f.inv(g)]
    assert f.inv(g) == 0b1001  # 1 + x^3
    # multiplicative group is cyclic of order 15 and g generates it
    powers = {f.pow(g, e) for e in range(1, 16)}
    assert len(powers) == 15
    assert f.pow(g, 15) == f.one


def test_division_by_zero():
    for field in (GF(5), GF(2, 2)):
        with pytest.raises(DivisionByZero):
            field.inv(field.zero)


def test_make_field_rejects_composite_characteristic():
    for p in (1, 4, 6, 9, 15):
        with pytest.raises(NonPrimeCharacteristic):
            make_field(FieldSpec(p))
    with pytest.raises(NonPrimeCharacteristic, match="^4 is not prime$"):
        GF(4, 2)
    # find_irreducible checks p before its scan, which no composite p ends
    start = time.perf_counter()
    for p, k in ((4, 2), (6, 3), (9, 2)):
        with pytest.raises(NonPrimeCharacteristic):
            find_irreducible(p, k)
    assert time.perf_counter() - start < 1.0
    for k in (0, -1):
        with pytest.raises(RangeError, match=f"extension degree must be >= 1, got {k}"):
            find_irreducible(2, k)
    # past 20 digits p is named by its bit length: str() refuses 6,021 digits
    for make in (lambda: GF(2**20000), lambda: find_irreducible(2**20000, 2)):
        with pytest.raises(NonPrimeCharacteristic, match="^<20001-bit integer> is not prime$"):
            make()
    # the constructor checks p itself: Z/4 would give inv(2) == 2 * 2 == 0
    with pytest.raises(NonPrimeCharacteristic):
        PrimeField(FieldSpec(4))
    # p is checked before the modulus is reduced mod p
    with pytest.raises(NonPrimeCharacteristic):
        ExtensionField(FieldSpec(0, 2, (1, 0, 1)))
    # each constructor checks the degree first: a prime field of GF(3, 2)'s
    # spec would equal GF(3, 2), and an extension of degree 1 has no modulus
    with pytest.raises(RangeError, match="degree 1, got 2"):
        PrimeField(FieldSpec(3, 2, (1, 0, 1)))
    with pytest.raises(RangeError, match="degree > 1, got 1"):
        ExtensionField(FieldSpec(3))


def test_make_field_rejects_reducible_modulus():
    # x^2 + 1 has the root 1 over F_2
    with pytest.raises(ReducibleModulus):
        make_field(FieldSpec(2, 2, (1, 0, 1)))
    # x^2 - 1 splits over F_7
    with pytest.raises(ReducibleModulus):
        make_field(FieldSpec(7, 2, (6, 0, 1)))


def test_make_field_rejects_non_monic():
    with pytest.raises(RangeError):
        make_field(FieldSpec(5, 2, (2, 0, 3)))
    with pytest.raises(RangeError):
        ExtensionField(FieldSpec(5, 2, (2, 0, 3)))
    # a prime field takes no modulus, from GF as from FieldSpec
    with pytest.raises(RangeError):
        GF(7, 1, (0, 1))


def test_order_overflow():
    with pytest.raises(OrderOverflow):
        make_field(FieldSpec(18446744073709551557))  # prime, >= 2^63
    with pytest.raises(OrderOverflow):
        PrimeField(FieldSpec(18446744073709551557))
    with pytest.raises(OrderOverflow):
        GF(2, 64)
    with pytest.raises(OrderOverflow):
        find_irreducible(2, 64)
    with pytest.raises(OrderOverflow):
        GF(2, 10**12)  # rejected by the exponent; 2^(10^12) is never built


def test_power_exceeds_boundaries():
    assert not power_exceeds(2, 3, 8)
    assert power_exceeds(2, 4, 8)
    assert power_exceeds(3, 2, 8)
    assert not power_exceeds(2, 62, (1 << 63) - 1)
    assert power_exceeds(2, 63, (1 << 63) - 1)
    assert power_exceeds(2, 10**15, 10**7)
    for base, exponent, limit in itertools.product(
        range(2, 10), range(13), (0, 1, 7, 8, 9, 255, 256, 10**6, 10**9)
    ):
        assert power_exceeds(base, exponent, limit) == (base**exponent > limit)
    # a big base under a big limit is decided by bit lengths, never built:
    # (2^63 - 25)^500000 alone takes seconds
    start = time.perf_counter()
    assert power_exceeds(2**63 - 25, 500_000, 1 << (1 << 19))
    assert not power_exceeds(2**63 - 25, 8_000, 1 << (1 << 19))
    assert time.perf_counter() - start < 0.5


def test_field_spec_shape_validation():
    with pytest.raises(RangeError):
        FieldSpec(3, 0)
    with pytest.raises(RangeError):
        FieldSpec(3, 1, (0, 1))
    with pytest.raises(RangeError):
        FieldSpec(3, 2, (1, 1))  # needs k+1 coefficients
    with pytest.raises(RangeError):
        FieldSpec(3, 2)  # extension without modulus


def test_spec_string_round_trip():
    for text in ("11", "2^4:1,1,0,0,1", "3^2:1,0,1"):
        spec = FieldSpec.parse(text)
        assert str(spec) == text
        assert make_field(spec).spec == make_field(str(spec)).spec
    assert FieldSpec.parse(" 7 ").p == 7
    for bad in ("", "x", "4^", "2^2", "2^2:1,1", "2^a:1,1,1"):
        with pytest.raises(RangeError):
            FieldSpec.parse(bad)


def _mobius(n):
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


@pytest.mark.parametrize("p, max_k", [(2, 8), (3, 5), (5, 4), (7, 3)])
def test_irreducible_counts_match_gauss_formula(p, max_k):
    # monic irreducibles of degree k over F_p: (1/k) sum_{d | k} mu(d) p^(k/d)
    for k in range(1, max_k + 1):
        expected = sum(_mobius(d) * p ** (k // d) for d in range(1, k + 1) if k % d == 0) // k
        accepted = sum(
            _poly_is_irreducible(tail + (1,), p)
            for tail in itertools.product(range(p), repeat=k)
        )
        assert accepted == expected, (p, k)


def test_find_irreducible_keeps_its_scan_order():
    recorded = {
        (2, 16): (1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,),
        (2, 26): (1, 1, 0, 1, 1) + (0,) * 21 + (1,),
        (3, 16): (1, 0, 1, 1) + (0,) * 12 + (1,),
        (5, 10): (3, 1, 1) + (0,) * 7 + (1,),
    }
    for (p, k), modulus in recorded.items():
        assert find_irreducible(p, k) == modulus


def test_large_moduli_build_fast():
    start = time.perf_counter()
    assert make_field(FieldSpec(2, 44, find_irreducible(2, 44))).q == 2**44
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    assert make_field("10000019^2:10000017,0,1").q == 10000019**2  # x^2 - 2
    with pytest.raises(ReducibleModulus):
        make_field("10000019^2:10000018,0,1")  # x^2 - 1
    assert time.perf_counter() - start < 1.0


def _divides(d, m, p):
    """Whether the monic d divides m over F_p, by long division."""
    m = list(m)
    for i in range(len(m) - len(d), -1, -1):
        c = m[i + len(d) - 1]
        for j, dj in enumerate(d):
            m[i + j] = (m[i + j] - c * dj) % p
    return not any(m)


def _first_irreducible_by_trial_division(p, k):
    """find_irreducible's scan order, each candidate tested against every
    monic polynomial of degree 1..k/2."""
    divisors = [
        tail + (1,)
        for deg in range(1, k // 2 + 1)
        for tail in itertools.product(range(p), repeat=deg)
    ]
    for idx in range(p**k):
        cand = tuple(idx // p**i % p for i in range(k)) + (1,)
        if not any(_divides(d, cand, p) for d in divisors):
            return cand


@pytest.mark.parametrize(
    "p, k",
    [(p, k) for p in (2, 3, 5, 7, 11, 13) for k in range(2, 9) if p**k <= 3**5 or p == 2],
)
def test_find_irreducible_matches_trial_division(p, k):
    modulus = find_irreducible(p, k)
    assert modulus == _first_irreducible_by_trial_division(p, k)
    field = GF(p, k, modulus)
    g = field.q - 1
    assert field.mul(g, field.inv(g)) == field.one


def _schoolbook(field):
    """A second context for field's spec with its tables dropped, so it
    runs on the schoolbook helpers."""
    twin = ExtensionField(field.spec)
    twin._log = []
    return twin


def _assert_tables_match_schoolbook(field, pairs):
    school = _schoolbook(field)
    n = field.q - 1
    for a, b in pairs:
        for op in ("mul", "add", "sub"):
            assert getattr(field, op)(a, b) == getattr(school, op)(a, b), (op, a, b)
    for a in {a for pair in pairs for a in pair}:
        assert field.neg(a) == school.neg(a)
        for e in (0, 1, 2, n):
            assert field.pow(a, e) == school.pow(a, e), (a, e)
        if a == field.zero:
            for f in (field, school):
                with pytest.raises(DivisionByZero):
                    f.inv(a)
                with pytest.raises(DivisionByZero):
                    f.pow(a, -1)
        else:
            assert field.inv(a) == school.inv(a)
            for e in (-n - 1, -2, -1, n + 3, 10**9 + 7):
                assert field.pow(a, e) == school.pow(a, e), (a, e)
    assert field._log and not school._log


@pytest.mark.parametrize(
    "p, k", [pk for pk in sorted(PINNED_MODULI) if pk[0] ** pk[1] <= 256], ids=str
)
def test_tables_match_schoolbook_on_every_pair(p, k):
    field = GF(p, k)
    els = field.elements()
    _assert_tables_match_schoolbook(field, list(itertools.product(els, repeat=2)))


@pytest.mark.parametrize("p, k", [(7, 3), (2, 9), (5, 4), (3, 6), (31, 2), (2, 10)], ids=str)
def test_tables_match_schoolbook_on_a_sample(p, k):
    field = GF(p, k)
    assert 256 < field.q <= TABLE_CAP
    rnd = random.Random(p * 100 + k)
    els = field.elements()
    pairs = [(rnd.choice(els), rnd.choice(els)) for _ in range(300)]
    _assert_tables_match_schoolbook(field, pairs + [(field.zero, els[-1]), (els[-1], field.zero)])


def test_fields_above_the_table_cap_stay_schoolbook():
    for field, seed in ((GF(7, 4), 74), (GF(2, 16), 216)):
        assert field.q > TABLE_CAP
        rnd = random.Random(seed)
        big = 10**9 + 7
        for _ in range(50):
            a = rnd.randrange(1, field.q)
            b = rnd.randrange(field.q)
            assert field.mul(a, field.inv(a)) == field.one
            assert field.sub(field.add(a, b), b) == a
            assert field.pow(a, field.q - 1) == field.one
            # powers against repeated products, from either operand
            for x in (a, b):
                power = field.one
                for e in range(7):
                    assert field.pow(x, e) == power, (x, e)
                    power = field.mul(power, x)
            inverse = field.inv(a)
            for e in range(7):
                assert field.pow(a, -e) == field.pow(inverse, e), (a, e)
            assert field.pow(a, big) == field.pow(a, big % (field.q - 1))
        assert field.pow(field.zero, 0) == field.one
        with pytest.raises(DivisionByZero):
            field.pow(field.zero, -1)
        assert field._log == []


def test_tables_are_built_per_field_on_first_use():
    # first use is construction: every object the constructor makes builds
    # its own tables, while GF and make_field hand out one object per spec
    spec = GF(3, 2).spec
    first, second = ExtensionField(spec), ExtensionField(spec)
    assert first == second and first._log and first._log == second._log
    assert first._log is not second._log and first._exp is not second._exp
    assert first._zech is not second._zech
    assert GF(3, 2) is GF(3, 2) is make_field(spec) is make_field(str(spec))
    assert GF(3, 2) is not first and GF(3, 2) == first


@pytest.fixture
def empty_field_cache():
    make_field.cache_clear()
    yield
    make_field.cache_clear()


def test_fields_are_built_once_per_spec(empty_field_cache, monkeypatch):
    built = []
    build_tables = ExtensionField._build_tables

    def counted(self):
        built.append(self.q)
        return build_tables(self)

    monkeypatch.setattr(ExtensionField, "_build_tables", counted)
    for _ in range(2):
        singular_curve_bb(3, GF(2), ext_bound=4)
    assert sorted(built) == [4, 8, 16]
    # a refused spec raises every time and is never kept
    size = make_field.cache_info().currsize
    for _ in range(2):
        with pytest.raises(NonPrimeCharacteristic):
            make_field("4")
    assert make_field.cache_info().currsize == size
    assert make_field.cache_info().maxsize == 64
    # a modulus given as a list makes the same spec, so the same field
    assert make_field(FieldSpec(2, 2, [1, 1, 1])) is GF(2, 2)


def test_tables_refuse_a_reducible_modulus():
    # x^8 + x + 1 = (x^2 + x + 1)(x^6 + x^5 + x^3 + x^2 + 1) over F_2
    with pytest.raises(ReducibleModulus):
        ExtensionField(FieldSpec(2, 8, (1, 1, 0, 0, 0, 0, 0, 0, 1)))
    # above TABLE_CAP too: mod x^4 over F_7, x^2 (index 49) is a zero divisor
    assert 7**4 > TABLE_CAP
    with pytest.raises(ReducibleModulus):
        ExtensionField(FieldSpec(7, 4, (0, 0, 0, 0, 1)))


def test_pickle_rebuilds_a_field_without_its_tables(empty_field_cache):
    for args in ((7,), (3, 2), (2, 10)):
        field = GF(*args)
        fresh = pickle.dumps(field)
        els = field.elements()
        field.mul(els[-1], els[-2])
        assert len(pickle.dumps(field)) == len(fresh)
        # unpickling takes the process's own object for the spec, and
        # builds a new one, tables and all, once that is gone
        assert pickle.loads(fresh) is field
        make_field.cache_clear()
        copy = pickle.loads(fresh)
        assert copy == field and copy is not field
        for a, b in itertools.product([*els[:20], *els[-20:]], repeat=2):
            assert copy.mul(a, b) == field.mul(a, b)
            assert copy.add(a, b) == field.add(a, b)


def test_default_moduli_match_search():
    for (p, k), modulus in PINNED_MODULI.items():
        assert find_irreducible(p, k) == modulus
        assert GF(p, k).modulus == modulus  # constructing re-verifies irreducibility


def test_fields_compare_by_spec():
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert GF(2, 2) == make_field("2^2:1,1,1")
    # a modulus coefficient is reduced mod p: 8 is 1 over F_7
    assert make_field("7^2:8,0,1") == GF(7, 2)
    assert make_field("7^2:8,0,1").spec.modulus == (1, 0, 1)


def test_random_element_determinism_and_range():
    f = GF(11)
    a = [f.random_element(RandomStream(9, stream=i)) for i in range(50)]
    b = [f.random_element(RandomStream(9, stream=i)) for i in range(50)]
    assert a == b
    assert all(0 <= x < 11 for x in a)
    g = GF(2, 2)
    els = set(g.elements())
    assert all(g.random_element(RandomStream(1, stream=i)) in els for i in range(40))


def test_random_element_uniformity():
    f = GF(11)
    stream = RandomStream(3)
    counts = [0] * 11
    for _ in range(11000):
        counts[f.random_element(stream)] += 1
    assert min(counts) > 850 and max(counts) < 1150


def test_extension_embedding_is_a_homomorphism():
    # extension bases embed through a root found in the image of F_Q^*
    for (p, k, e) in ((2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2), (5, 2, 2)):
        base = GF(p, k)
        big, embed = extension_of(base, e)
        assert big.q == base.q**e
        images = [embed(a) for a in base.elements()]
        assert len(set(images)) == base.q
        for a in base.elements():
            for b in base.elements():
                assert embed(base.add(a, b)) == big.add(embed(a), embed(b))
                assert embed(base.mul(a, b)) == big.mul(embed(a), embed(b))
        assert embed(base.one) == big.one


def test_extension_of_extension_base_is_fast():
    # a scan of all 2^16 elements of the extension took over 0.6 s
    start = time.perf_counter()
    big, embed = extension_of(GF(2, 2), 8)
    assert time.perf_counter() - start < 1.0
    assert big.q == 2**16
    assert embed(GF(2, 2).one) == big.one


def test_braced_coordinates_and_formatting():
    F4, F7 = GF(2, 2), GF(7)
    assert F4.from_coords([3, 1]) == 0b11
    assert F4.from_coords([1]) == 0b10
    assert F7.from_coords([9]) == 2
    with pytest.raises(RangeError, match="prime field take one coordinate"):
        F7.from_coords([1, 1])
    with pytest.raises(RangeError, match="3 coordinates, field has 2"):
        F4.from_coords([1, 0, 0])
    assert F4.format_element(0b10) == "1"
    assert F4.format_element(0b00) == "0"
    assert F4.format_element(0b01) == "{0,1}"
    assert F7.format_element(5) == "5"


def test_extension_of_prime_base():
    base = GF(5)
    big, embed = extension_of(base, 2)
    assert big.q == 25
    assert embed(3) == big.from_int(3)
    same, ident = extension_of(base, 1)
    assert same is base
    assert ident(4) == 4
    with pytest.raises(RangeError, match="extension degree must be >= 1, got 0"):
        extension_of(GF(2), 0)
    with pytest.raises(UnsupportedSize, match="2\\^30 exceeds the work cap"):
        extension_of(GF(2), 30)
