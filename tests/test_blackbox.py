import hashlib
import itertools
import random
import time
from fractions import Fraction

import pytest

from irredtest import (
    ArityMismatch,
    BlackBox,
    EmptyList,
    FieldMismatch,
    GF,
    PolyMatrix,
    RandomStream,
    RangeError,
    UnsupportedSize,
    curve_determinantal_matrix,
    det_expectation,
    det_rank_bb,
    exact_gamma,
    extension_of,
    from_poly,
    intersection_bb,
    load_poly_matrix,
    matrix_rank,
    parse_matrix_text,
    parse_poly,
    product_bb,
    random_dense_poly,
    sample_points,
    singular_curve_bb,
    substitute_bb,
    ternary_monomials,
)
from irredtest.blackbox import _has_zero_lane

from conftest import all_points, naive_det, naive_rank

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


def count_zeros_exhaustive(bb):
    return sum(1 for pt in all_points(bb.field, bb.n) if bb.is_zero_at(pt))


def generic_matrix(field, rows, cols):
    """Matrix whose entries are the distinct variables x1..x(rows*cols)."""
    n = rows * cols
    entries = [
        [parse_poly(f"x{i * cols + j + 1}", field, n) for j in range(cols)]
        for i in range(rows)
    ]
    return PolyMatrix(field, n, entries)


def test_from_poly_basic():
    f = parse_poly("x1", F3, 2)
    bb = from_poly(f)
    assert count_zeros_exhaustive(bb) == 3
    zero_bb = from_poly(parse_poly("0", F3, 2))
    assert count_zeros_exhaustive(zero_bb) == 9
    one_bb = from_poly(parse_poly("1", F3, 2))
    assert count_zeros_exhaustive(one_bb) == 0
    with pytest.raises(ArityMismatch):
        bb.is_zero_at((1,))
    with pytest.raises(ArityMismatch, match="arity must be >= 0, got -1"):
        BlackBox(F3, -1, lambda pt: True)


def test_product_matches_explicit_product():
    stream = RandomStream(31, stream=0)
    f = random_dense_poly(F3, 2, 2, stream)
    g = random_dense_poly(F3, 2, 2, stream)
    combined = product_bb(from_poly(f), from_poly(g))
    explicit = from_poly(f * g)
    for pt in all_points(F3, 2):
        assert combined.is_zero_at(pt) == explicit.is_zero_at(pt)
    # polynomials are accepted directly too
    assert product_bb(f, g).is_zero_at((0, 0)) == explicit.is_zero_at((0, 0))


def test_product_requires_matching_contexts():
    with pytest.raises(FieldMismatch):
        product_bb(parse_poly("x1", F3, 1), parse_poly("x1", F5, 1))
    with pytest.raises(ArityMismatch):
        product_bb(parse_poly("x1", F3, 1), parse_poly("x1", F3, 2))
    with pytest.raises(TypeError, match="expected a BlackBox or SparsePolynomial, got int"):
        product_bb(parse_poly("x1", F3, 1), 5)


def test_intersection_cuts_down_to_origin():
    boxes = [parse_poly("x1", F5, 2), parse_poly("x2", F5, 2)]
    bb = intersection_bb(boxes)
    zeros = [pt for pt in all_points(F5, 2) if bb.is_zero_at(pt)]
    assert zeros == [(0, 0)]
    single = intersection_bb([parse_poly("x1", F5, 2)])
    assert count_zeros_exhaustive(single) == 5
    with pytest.raises(EmptyList):
        intersection_bb([])
    with pytest.raises(FieldMismatch):
        intersection_bb([parse_poly("x1", F5, 2), parse_poly("x1", F3, 2)])
    with pytest.raises(ArityMismatch, match="arity 2 vs 1"):
        intersection_bb([parse_poly("x1", F5, 2), parse_poly("x1", F5, 1)])


def test_substitute_matches_composition():
    det_bb = det_rank_bb(generic_matrix(F2, 2, 2))
    stream = RandomStream(32, stream=0)
    maps = [random_dense_poly(F2, 2, 1, stream) for _ in range(4)]
    pulled = substitute_bb(det_bb, maps)
    assert pulled.n == 2
    for pt in all_points(F2, 2):
        image = tuple(g.evaluate(pt) for g in maps)
        assert pulled.is_zero_at(pt) == det_bb.is_zero_at(image)


def test_substitute_validation():
    det_bb = det_rank_bb(generic_matrix(F2, 2, 2))
    good = [parse_poly("x1", F2, 2)] * 4
    with pytest.raises(ArityMismatch):
        substitute_bb(det_bb, good[:3])
    with pytest.raises(FieldMismatch):
        substitute_bb(det_bb, [parse_poly("x1", F3, 2)] * 4)
    with pytest.raises(EmptyList):
        substitute_bb(det_bb, [])
    with pytest.raises(TypeError, match="must be SparsePolynomial"):
        substitute_bb(det_bb, good[:3] + [from_poly(good[0])])
    with pytest.raises(ArityMismatch, match="disagree on source arity"):
        substitute_bb(det_bb, good[:3] + [parse_poly("x1", F2, 3)])


def test_oracles_are_pure():
    bb = det_rank_bb(generic_matrix(F3, 2, 2))
    pts = sample_points(F3, 4, 40, seed=2)
    first = [bb.is_zero_at(pt) for pt in pts]
    second = [bb.is_zero_at(pt) for pt in pts]
    assert first == second


# ---------------------------------------------------------------------------
# rank oracles

def test_matrix_rank_against_minor_rank():
    stream = RandomStream(33, stream=0)
    for _ in range(60):
        rows = 1 + stream.next_below(3)
        cols = rows + stream.next_below(2)
        m = [
            [F5.random_element(stream) for _ in range(cols)] for _ in range(rows)
        ]
        assert matrix_rank(F5, m) == naive_rank(F5, m)
    assert matrix_rank(GF(7), []) == 0
    # over table-backed GF(8) and GF(9) and schoolbook GF(7^4); a last row
    # in the span of the others keeps the rank below full
    for field in (GF(2, 3), GF(3, 2), GF(7, 4)):
        for _ in range(30):
            rows = 1 + stream.next_below(3)
            cols = rows + stream.next_below(2)
            m = [
                [field.random_element(stream) for _ in range(cols)] for _ in range(rows)
            ]
            c = field.random_element(stream)
            dependent = m + [[field.add(field.mul(c, x), y) for x, y in zip(m[0], m[-1])]]
            for matrix in (m, dependent):
                assert matrix_rank(field, matrix) == naive_rank(field, matrix)


def test_det_rank_bb_singleton_matches_poly_oracle():
    f = random_dense_poly(F5, 2, 2, RandomStream(34, stream=0))
    single = det_rank_bb(PolyMatrix(F5, 2, [[f]]))
    direct = from_poly(f)
    for pt in all_points(F5, 2):
        assert single.is_zero_at(pt) == direct.is_zero_at(pt)


def test_generic_2x2_direct_count():
    # over F_2 all sixteen 2x2 matrices: rank < 2 exactly when ad = bc
    bb = det_rank_bb(generic_matrix(F2, 2, 2))
    expected = sum(
        1
        for a, b, c, d in itertools.product((0, 1), repeat=4)
        if (a * d - b * c) % 2 == 0
    )
    assert count_zeros_exhaustive(bb) == expected == 10
    assert exact_gamma(bb) == det_expectation(2, 2, 2) == Fraction(5, 8)


def test_generic_3x3_matches_laplace():
    bb = det_rank_bb(generic_matrix(F2, 3, 3))
    for pt in all_points(F2, 9):
        m = [list(pt[i * 3 : (i + 1) * 3]) for i in range(3)]
        assert bb.is_zero_at(pt) == (naive_det(F2, m) == 0)


def test_generic_4x4_sampled_against_laplace():
    bb = det_rank_bb(generic_matrix(F3, 4, 4))
    for pt in sample_points(F3, 16, 400, seed=9):
        m = [list(pt[i * 4 : (i + 1) * 4]) for i in range(4)]
        assert bb.is_zero_at(pt) == (naive_det(F3, m) == 0)


def test_rectangular_rank_counts():
    bb = det_rank_bb(generic_matrix(F2, 2, 3))
    count = count_zeros_exhaustive(bb)
    assert Fraction(count, 64) == det_expectation(2, 2, 3)
    assert exact_gamma(bb) == det_expectation(2, 2, 3)


def test_poly_matrix_validation():
    with pytest.raises(RangeError):
        generic_matrix(F2, 3, 2)  # tall matrices are rejected
    with pytest.raises(EmptyList):
        PolyMatrix(F2, 1, [])
    f3_entry = parse_poly("x1", F3, 4)
    with pytest.raises(FieldMismatch):
        PolyMatrix(F2, 4, [[f3_entry] * 2])
    x1 = parse_poly("x1", F2, 1)
    with pytest.raises(RangeError, match="ragged matrix rows"):
        PolyMatrix(F2, 1, [[x1, x1], [x1]])
    with pytest.raises(ArityMismatch, match="mismatched arity"):
        PolyMatrix(F2, 1, [[x1, parse_poly("x1", F2, 2)]])


# ---------------------------------------------------------------------------
# matrix files

MATRIX_TEXT = """\
# rank oracle demo
2 2 4 5
x1
x2
x3
x4
"""


def test_parse_matrix_text():
    m = parse_matrix_text(MATRIX_TEXT)
    assert (m.rows, m.cols, m.n) == (2, 2, 4)
    assert m.field.q == 5
    assert m.values_at((1, 2, 3, 4)) == [[1, 2], [3, 4]]


def test_load_matrix_file(tmp_path):
    path = tmp_path / "matrix.txt"
    path.write_text(MATRIX_TEXT)
    m = load_poly_matrix(path)
    assert m.entries[1][0] == parse_poly("x3", m.field, 4)
    bb = det_rank_bb(m)
    assert bb.is_zero_at((1, 2, 2, 4))  # determinant 4 - 4
    assert not bb.is_zero_at((1, 0, 0, 1))


def test_matrix_file_errors():
    with pytest.raises(RangeError):
        parse_matrix_text("")
    with pytest.raises(RangeError):
        parse_matrix_text("2 2 1\nx1\nx1\nx1\nx1\n")  # short header
    with pytest.raises(RangeError, match="bad matrix header '2 x 4 7'"):
        parse_matrix_text("2 x 4 7\n")
    with pytest.raises(RangeError):
        parse_matrix_text("2 2 1 5\nx1\nx1\nx1\n")  # missing entry
    extension = "1 1 1 2^2:1,1,1\n{1,1}*x1\n"
    m = parse_matrix_text(extension)
    assert m.field.k == 2


# ---------------------------------------------------------------------------
# the shipped space curve

def test_curve_matrix_shape_and_entries():
    m = curve_determinantal_matrix(GF(11))
    assert (m.rows, m.cols, m.n) == (3, 5, 5)
    assert m.entries[0][0] == parse_poly("x1+x2-x4-x5", GF(11), 5)
    assert m.entries[2][4] == parse_poly("x1-x2+x3+x4+x5", GF(11), 5)
    for row in m.entries:
        for f in row:
            assert all(sum(e) == 1 for e in f.terms)  # linear forms


def test_curve_rank_against_minor_rank():
    F11 = GF(11)
    m = curve_determinantal_matrix(F11)
    for pt in sample_points(F11, 5, 60, seed=4):
        values = m.values_at(pt)
        assert matrix_rank(F11, values) == naive_rank(F11, values)


def test_curve_zero_fraction_dual_route():
    for field in (F2, F3):
        m = curve_determinantal_matrix(field)
        bb = det_rank_bb(m)
        drops = 0
        total = 0
        for pt in all_points(field, 5):
            total += 1
            if naive_rank(field, m.values_at(pt)) < 3:
                drops += 1
        assert exact_gamma(bb) == Fraction(drops, total)


# ---------------------------------------------------------------------------
# singular ternary forms

def form_coeffs(field, d, spec):
    """Coefficient vector from {monomial: int} in ternary_monomials order."""
    return tuple(field.from_int(spec.get(m, 0)) for m in ternary_monomials(d))


def naive_singular(field, d, coeffs, ext_bound):
    """Scan every nonzero coordinate triple over each extension directly."""
    mons = ternary_monomials(d)
    p = field.p
    for e in range(1, ext_bound + 1):
        E, embed = extension_of(field, e)
        ecoeffs = [embed(c) for c in coeffs]
        triples = [
            t
            for t in itertools.product(E.elements(), repeat=3)
            if t != (E.zero,) * 3
        ]
        for (x, y, z) in triples:
            def mono(a, b, c):
                return E.mul(E.mul(E.pow(x, a), E.pow(y, b)), E.pow(z, c))

            f = E.zero
            fx = fy = fz = E.zero
            for w, (a, b, c) in zip(ecoeffs, mons):
                f = E.add(f, E.mul(w, mono(a, b, c)))
                if a % p:
                    part = E.mul(E.from_int(a % p), mono(a - 1, b, c))
                    fx = E.add(fx, E.mul(w, part))
                if b % p:
                    part = E.mul(E.from_int(b % p), mono(a, b - 1, c))
                    fy = E.add(fy, E.mul(w, part))
                if c % p:
                    part = E.mul(E.from_int(c % p), mono(a, b, c - 1))
                    fz = E.add(fz, E.mul(w, part))
            if f == E.zero and fx == E.zero and fy == E.zero and fz == E.zero:
                return True
    return False


def test_ternary_monomials_order():
    assert ternary_monomials(2) == [
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    ]
    assert len(ternary_monomials(3)) == 10
    assert len(ternary_monomials(5)) == 21
    with pytest.raises(RangeError, match="degree must be >= 0, got -1"):
        ternary_monomials(-1)


def test_ternary_monomials_are_lex_descending():
    for d in range(9):
        assert ternary_monomials(d) == [
            (a, b, d - a - b) for a in range(d, -1, -1) for b in range(d - a, -1, -1)
        ]


def test_singular_known_forms():
    conic = singular_curve_bb(2, F5)
    assert conic.is_zero_at(form_coeffs(F5, 2, {(1, 1, 0): 1}))  # xy pair of lines
    assert not conic.is_zero_at(
        form_coeffs(F5, 2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    )
    # cuspidal cubic y^2 z - x^3 over F_5: singular at (0:0:1)
    cubic5 = singular_curve_bb(3, F5, ext_bound=1)
    assert cubic5.is_zero_at(form_coeffs(F5, 3, {(0, 2, 1): 1, (3, 0, 0): -1}))
    # the diagonal cubic is smooth away from characteristic 3
    cubic2 = singular_curve_bb(3, F2, ext_bound=4)
    assert not cubic2.is_zero_at(
        form_coeffs(F2, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    )
    assert cubic2.is_zero_at(form_coeffs(F2, 3, {}))  # zero form counts


def test_singular_zero_fraction_regression():
    bb = singular_curve_bb(3, F2, ext_bound=4)
    assert exact_gamma(bb, cap=2048) == Fraction(43, 64)


def test_singular_permutation_invariance():
    bb = singular_curve_bb(3, F2, ext_bound=4)
    mons = ternary_monomials(3)
    index = {m: i for i, m in enumerate(mons)}
    for perm in ((1, 0, 2), (2, 0, 1)):
        for pt in all_points(F2, 10):
            permuted = tuple(
                pt[index[tuple(m[j] for j in perm)]] for m in mons
            )
            assert bb.is_zero_at(pt) == bb.is_zero_at(permuted)


def test_singular_matches_naive_scan_f2():
    bb = singular_curve_bb(3, F2, ext_bound=3)
    pts = sample_points(F2, 10, 12, seed=6)
    for pt in pts:
        assert bb.is_zero_at(pt) == naive_singular(F2, 3, pt, 3)


def test_singular_matches_naive_scan_f3():
    bb = singular_curve_bb(2, F3, ext_bound=2)
    pts = sample_points(F3, 6, 25, seed=7)
    for pt in pts:
        assert bb.is_zero_at(pt) == naive_singular(F3, 2, pt, 2)


def test_singular_matches_naive_scan_where_p_divides_an_exponent():
    # the partial factor a*x^(a-1)*y^b*z^c vanishes when p divides a
    for field, d, count, seed in ((F2, 4, 24, 9), (F3, 3, 6, 10)):
        bb = singular_curve_bb(d, field, ext_bound=2)
        answers = set()
        for pt in sample_points(field, bb.n, count, seed=seed):
            answer = bb.is_zero_at(pt)
            assert answer == naive_singular(field, d, pt, 2)
            answers.add(answer)
        assert answers == {True, False}


def singular_bits(bb, forms):
    """The oracle's answers as a string of '0' and '1', in `forms` order."""
    return "".join("1" if bb.is_zero_at(f) else "0" for f in forms)


# answers over every GF(2) form, pinned from the list-column probe that the
# lane-packed probe replaced: (d, ext_bound) -> (singular forms, sha256)
F2_SINGULAR_DIGESTS = {
    (1, 1): (1, "fa95b43be4cf8bb030d85e663324ecc5247c2af6272672bfd4bbc1020b40582b"),
    (2, 4): (36, "99a36c1a4f07f3425c52422205e59abfa3737d45fe67980b153e89a423c548b4"),
    (3, 2): (680, "c7c33a5d0bc3304f2ef0117d5cc69d006ae0971a39c553d33394e97e0c76f4e0"),
    (3, 4): (688, "11e67c845d3e1060ffea202a0c3798e0fa57567f09ad7e42d4f71305c62797b2"),
}


@pytest.mark.parametrize("d, ext_bound", sorted(F2_SINGULAR_DIGESTS))
def test_singular_f2_answers_are_pinned(d, ext_bound):
    bb = singular_curve_bb(d, F2, ext_bound=ext_bound)
    bits = singular_bits(bb, itertools.product((0, 1), repeat=bb.n))
    assert len(bits) == 2**bb.n
    count, digest = F2_SINGULAR_DIGESTS[d, ext_bound]
    assert (bits.count("1"), hashlib.sha256(bits.encode()).hexdigest()) == (count, digest)


def test_singular_f2_quartic_sample_is_pinned():
    bb = singular_curve_bb(4, F2, ext_bound=2)
    rnd = random.Random(2004)
    words = [rnd.getrandbits(bb.n) for _ in range(3000)]
    bits = singular_bits(bb, (tuple(w >> j & 1 for j in range(bb.n)) for w in words))
    assert bits.count("1") == 1899
    digest = "d41d0eeb95ea0d1798ebdde3cafc820a7b6ba61161ccba008db12a9345df56fe"
    assert hashlib.sha256(bits.encode()).hexdigest() == digest


def test_singular_f3_conics_are_pinned():
    # over an odd characteristic a conic is singular iff its symmetric
    # matrix [[2a, b, c], [b, 2d, e], [c, e, 2f]] is; its singular points
    # span that matrix's kernel, which is defined over F_3
    bb = singular_curve_bb(2, F3, ext_bound=2)
    forms = list(itertools.product(range(3), repeat=6))
    bits = singular_bits(bb, forms)
    dets = "".join(
        "1" if naive_det(F3, [[2 * a % 3, b, c], [b, 2 * d % 3, e], [c, e, 2 * f % 3]]) == 0 else "0"
        for a, b, c, d, e, f in forms
    )
    assert bits == dets and bits.count("1") == 261
    digest = "0b0473765ec9b68a79c255acaf258c31ce28f2abbf548feea7921645375a8c38"
    assert hashlib.sha256(bits.encode()).hexdigest() == digest


# sampled odd-p and extension-base answers, pinned from schoolbook extension
# arithmetic: (field, d, forms, singular forms, sha256)
SAMPLED_SINGULAR_DIGESTS = {
    "GF(3) cubics": (
        F3, 3, 300, 129, "9b7e3eadda7710a73a7841134901f1d29acd954365917bb5f426d8157b2a5967"
    ),
    "GF(4) cubics": (
        GF(2, 2), 3, 100, 38, "523c477d3dc64fc07d4629153722b44286b6e8314de7adf72e8ee951303973f0"
    ),
}


@pytest.mark.parametrize("case", sorted(SAMPLED_SINGULAR_DIGESTS))
def test_singular_odd_and_extension_samples_are_pinned(case):
    field, d, count, singular, digest = SAMPLED_SINGULAR_DIGESTS[case]
    bb = singular_curve_bb(d, field, ext_bound=2)
    rnd = random.Random(13)
    els = field.elements()
    forms = [tuple(rnd.choice(els) for _ in range(bb.n)) for _ in range(count)]
    bits = singular_bits(bb, forms)
    assert (bits.count("1"), hashlib.sha256(bits.encode()).hexdigest()) == (singular, digest)


def lanes(values, width):
    """Little-endian lanes of `width` bytes, and the low and high masks."""
    acc = int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")
    low = int.from_bytes(b"\1".ljust(width, b"\0") * len(values), "little")
    return acc, low, low << (8 * width - 1)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_zero_lane_mask(width):
    top = 1 << (8 * width - 1)
    full = (1 << 8 * width) - 1
    cases = [
        ([0, 5, 7, 9], True),  # bottom
        ([5, 7, 9, 0], True),  # top
        ([5, 0, 9, 1], True),  # middle, with a 1 above it
        ([0, 0, 0, 0], True),
        ([1, 2, 3, 4], False),
        ([1, 1, 1, 1], False),
        ([0x80] * 4, False),
        ([0xFF] * 4, False),
        ([top, full, top + 1, 1], False),
        ([top, full, 0, top], True),
        ([full, 0x80, 0xFF, 1], False),
        ([0], True),
        ([full], False),
    ]
    for values, expected in cases:
        assert _has_zero_lane(*lanes(values, width)) is expected, (values, width)
    if width == 1:
        for pair in itertools.product(range(256), repeat=2):
            assert _has_zero_lane(*lanes(pair, 1)) is (0 in pair), pair


def test_singular_extension_base_field():
    F4 = GF(2, 2)
    bb = singular_curve_bb(2, F4, ext_bound=2)
    assert bb.is_zero_at(form_coeffs(F4, 2, {(1, 1, 0): 1}))
    pts = sample_points(F4, 6, 8, seed=8)
    for pt in pts:
        assert bb.is_zero_at(pt) == naive_singular(F4, 2, pt, 2)


def test_singular_work_cap():
    with pytest.raises(UnsupportedSize):
        singular_curve_bb(3, F5)  # default bound (d-1)^2 = 4: 5^12 points
    # stage tables: 10 cubic monomials x (13 + 91) points over F_3 and F_9
    with pytest.raises(UnsupportedSize, match="10 monomials x 104 points"):
        singular_curve_bb(3, F3, ext_bound=2, work_cap=1039)
    assert singular_curve_bb(3, F3, ext_bound=2, work_cap=1040).n == 10
    start = time.perf_counter()
    with pytest.raises(UnsupportedSize):
        singular_curve_bb(10_000, F2, ext_bound=1)
    with pytest.raises(UnsupportedSize):
        singular_curve_bb(3, F3, ext_bound=30_000_000)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(RangeError):
        singular_curve_bb(0, F2)
    with pytest.raises(RangeError, match="extension bound must be >= 1, got 0"):
        singular_curve_bb(3, F2, ext_bound=0)
    bb = singular_curve_bb(3, F5, ext_bound=2)
    assert bb.n == 10
    # rational singular points are still found under the shrunken bound
    assert bb.is_zero_at(form_coeffs(F5, 3, {(0, 2, 1): 1, (3, 0, 0): -1}))
