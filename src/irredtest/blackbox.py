"""Black-box zero tests and their combinators.

A BlackBox answers one question: is the hidden function zero at a point.
Everything downstream (sampling, exact counting, verdicts) only sees this
interface, so explicit polynomials, determinantal loci and discriminant
style constructions all plug into the same estimator.
"""

from .errors import (
    ArityMismatch,
    EmptyList,
    FieldMismatch,
    RangeError,
    UnsupportedSize,
)
from .fields import Field, extension_of, make_field, power_exceeds
from .polynomials import SparsePolynomial, _monomials_of_degree, parse_poly


class BlackBox:
    """Pure zero-test oracle over field^n."""

    __slots__ = ("field", "n", "label", "_fn")

    def __init__(self, field: Field, n: int, fn, label="blackbox"):
        if n < 0:
            raise ArityMismatch(f"arity must be >= 0, got {n}")
        self.field = field
        self.n = n
        self.label = label
        self._fn = fn

    def is_zero_at(self, point) -> bool:
        if len(point) != self.n:
            raise ArityMismatch(f"point has {len(point)} coords, need {self.n}")
        return self._fn(point)

    def __repr__(self):
        return f"<blackbox {self.label} over {self.field.spec}, n={self.n}>"


def _coerce(obj) -> BlackBox:
    if isinstance(obj, BlackBox):
        return obj
    if isinstance(obj, SparsePolynomial):
        return from_poly(obj)
    raise TypeError(f"expected a BlackBox or SparsePolynomial, got {type(obj).__name__}")


def from_poly(f: SparsePolynomial, label=None) -> BlackBox:
    """Zero test of an explicit polynomial."""
    zero = f.field.zero
    return BlackBox(
        f.field,
        f.n,
        lambda pt: f.evaluate(pt) == zero,
        label or "poly",
    )


def product_bb(f, g) -> BlackBox:
    """Oracle for f*g: zero where either factor vanishes."""
    f, g = _coerce(f), _coerce(g)
    if f.field != g.field:
        raise FieldMismatch("factors live over different fields")
    if f.n != g.n:
        raise ArityMismatch(f"arity {f.n} vs {g.n}")
    return BlackBox(
        f.field,
        f.n,
        lambda pt: f.is_zero_at(pt) or g.is_zero_at(pt),
        f"product({f.label}, {g.label})",
    )


def intersection_bb(boxes) -> BlackBox:
    """Oracle for the common zero set of all the given boxes."""
    boxes = [_coerce(b) for b in boxes]
    if not boxes:
        raise EmptyList("intersection of zero oracles")
    first = boxes[0]
    for b in boxes[1:]:
        if b.field != first.field:
            raise FieldMismatch("oracles live over different fields")
        if b.n != first.n:
            raise ArityMismatch(f"arity {first.n} vs {b.n}")
    return BlackBox(
        first.field,
        first.n,
        lambda pt: all(b.is_zero_at(pt) for b in boxes),
        f"intersection[{len(boxes)}]",
    )


def substitute_bb(target, maps) -> BlackBox:
    """Pull a zero oracle back along a polynomial map A^m -> A^n.

    `maps` gives one coordinate polynomial (in x1..xm) per input of the
    target oracle.
    """
    target = _coerce(target)
    maps = list(maps)
    if not maps:
        raise EmptyList("substitution needs at least one coordinate map")
    if len(maps) != target.n:
        raise ArityMismatch(
            f"target takes {target.n} inputs, got {len(maps)} coordinate maps"
        )
    m = maps[0].n
    for g in maps:
        if not isinstance(g, SparsePolynomial):
            raise TypeError("coordinate maps must be SparsePolynomial")
        if g.field != target.field:
            raise FieldMismatch("coordinate maps live over a different field")
        if g.n != m:
            raise ArityMismatch("coordinate maps disagree on source arity")
    return BlackBox(
        target.field,
        m,
        lambda pt: target.is_zero_at(tuple(g.evaluate(pt) for g in maps)),
        f"substitute({target.label})",
    )


# ---------------------------------------------------------------------------
# polynomial matrices and rank loci

class PolyMatrix:
    """r x c matrix of polynomials over one field context, r <= c."""

    __slots__ = ("field", "n", "rows", "cols", "entries")

    def __init__(self, field: Field, n: int, entries):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise EmptyList("matrix needs at least one entry")
        rows, cols = len(entries), len(entries[0])
        if rows > cols:
            raise RangeError(f"matrix must be wide: rows {rows} > cols {cols}")
        for row in entries:
            if len(row) != cols:
                raise RangeError("ragged matrix rows")
            for f in row:
                if f.field != field:
                    raise FieldMismatch("matrix entry over a different field")
                if f.n != n:
                    raise ArityMismatch("matrix entry with mismatched arity")
        self.field = field
        self.n = n
        self.rows = rows
        self.cols = cols
        self.entries = entries

    def values_at(self, point):
        return [[f.evaluate(point) for f in row] for row in self.entries]


def matrix_rank(field: Field, rows) -> int:
    """Rank of a matrix of field elements by Gaussian elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    zero = field.zero
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        piv = None
        for r in range(rank, nrows):
            if m[r][col] != zero:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = field.inv(m[rank][col])
        prow = m[rank]
        for j in range(col, ncols):
            prow[j] = field.mul(prow[j], inv)
        for r in range(rank + 1, nrows):
            factor = m[r][col]
            if factor != zero:
                mr = m[r]
                for j in range(col, ncols):
                    mr[j] = field.sub(mr[j], field.mul(factor, prow[j]))
        rank += 1
    return rank


def det_rank_bb(matrix: PolyMatrix) -> BlackBox:
    """Oracle for the locus where the matrix drops below full row rank."""
    r = matrix.rows
    field = matrix.field
    return BlackBox(
        field,
        matrix.n,
        lambda pt: matrix_rank(field, matrix.values_at(pt)) < r,
        f"rank_below({r}x{matrix.cols})",
    )


# ---------------------------------------------------------------------------
# matrix files

def parse_matrix_text(text: str) -> PolyMatrix:
    """Parse the matrix exchange format.

    First non-comment line: `rows cols nvars fieldspec`.  Then rows*cols
    polynomial lines in row-major order.  Blank lines and lines starting
    with '#' are skipped.
    """
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise RangeError("empty matrix file")
    head = lines[0].split()
    if len(head) != 4:
        raise RangeError(f"header must be 'rows cols nvars fieldspec', got {lines[0]!r}")
    try:
        rows, cols, nvars = int(head[0]), int(head[1]), int(head[2])
    except ValueError:
        raise RangeError(f"bad matrix header {lines[0]!r}") from None
    field = make_field(head[3])
    body = lines[1:]
    if len(body) != rows * cols:
        raise RangeError(
            f"expected {rows * cols} polynomial lines, found {len(body)}"
        )
    polys = [parse_poly(ln, field, nvars) for ln in body]
    entries = [polys[i * cols : (i + 1) * cols] for i in range(rows)]
    return PolyMatrix(field, nvars, entries)


def load_poly_matrix(path) -> PolyMatrix:
    with open(path, encoding="utf-8") as fh:
        return parse_matrix_text(fh.read())


# A wide matrix of linear forms on A^5 whose rank-deficiency locus is a
# fixed space curve; ships as a worked example for rank oracles.  Entries
# are row-major, three rows of five.
CURVE_MATRIX_ENTRIES = (
    ("x1+x2-x4-x5", "-x1-x3+x4+x5", "-x1-x3-x4-x5", "-x2-x3-x4+x5", "-x1+x2-x3-x4-x5"),
    ("x1-x2-x3-x5", "x1-x2-x3-x4+x5", "-x1-x2-x4-x5", "-x2-x3", "-x1+x3-x4+x5"),
    ("-x1+x4+x5", "-x1+x2-x3+x4+x5", "-x2+x5", "-x2+x3", "x1-x2+x3+x4+x5"),
)


def curve_determinantal_matrix(field: Field) -> PolyMatrix:
    """The shipped 3x5 space curve example, parsed over `field`."""
    entries = [
        [parse_poly(s, field, 5) for s in row] for row in CURVE_MATRIX_ENTRIES
    ]
    return PolyMatrix(field, 5, entries)


# ---------------------------------------------------------------------------
# singular ternary forms

def ternary_monomials(d: int):
    """Exponent triples (a, b, c) with a+b+c = d, lex descending."""
    if d < 0:
        raise RangeError(f"degree must be >= 0, got {d}")
    return list(_monomials_of_degree(3, d))[::-1]


def _build_stage(field, e, mons, work_cap, packed):
    """Tables of the degree-e extension E for singular_curve_bb.

    For every projective point over E and every degree-d monomial
    x^a y^b z^c in `mons` the entry is (value, a*x^(a-1)*y^b*z^c,
    b*x^a*y^(b-1)*z^c, c*x^a*y^b*z^(c-1)).  Each is one degree-(d-1)
    monomial value: times a coordinate for the value, times (a mod p) for
    a partial factor, which is zero when p divides a.  Returns (E, rows,
    scalars), scalars[c] being the image of c in E, or if `packed` (F_2:
    addition XORs elements) (columns, low, high): column j is one int whose
    lane i, W = ceil(4*bits/8) bytes for bits = (E.q-1).bit_length(), is
    value | dx << bits | dy << 2*bits | dz << 3*bits; low has a 1 per lane,
    high = low << (8W-1).
    """
    E, embed = extension_of(field, e, work_cap=work_cap)
    p, zero, one = field.p, E.zero, E.one
    d = sum(mons[0])
    below = ternary_monomials(d - 1)
    where = {m: j for j, m in enumerate(below)}
    recipes = []
    for m in mons:
        lowered = [where[m[:t] + (m[t] - 1,) + m[t + 1 :]] if m[t] else None for t in range(3)]
        scales = [E.from_int(a % p) if a % p else None for a in m]
        first = next(t for t in range(3) if m[t])
        recipes.append((first, lowered, scales))
    els = E.elements()
    points = [(one, a, b) for a in els for b in els] + [(zero, one, b) for b in els]
    rows = []
    for pt in points + [(zero, zero, one)]:
        pows = []
        for coord in pt:
            row = [one]
            for _ in range(d - 1):
                row.append(E.mul(row[-1], coord))
            pows.append(row)
        px, py, pz = pows
        vals = [E.mul(E.mul(px[a], py[b]), pz[c]) for a, b, c in below]
        row = []
        for first, lowered, scales in recipes:
            entry = [E.mul(vals[lowered[first]], pt[first])]
            for j, s in zip(lowered, scales):
                if s is None:
                    entry.append(zero)
                else:
                    entry.append(vals[j] if s == one else E.mul(s, vals[j]))
            row.append(entry)
        rows.append(row)
    if packed:
        bits = (E.q - 1).bit_length()
        width = (4 * bits + 7) // 8
        lanes = [[sum(v << t * bits for t, v in enumerate(x)) for x in row] for row in rows]
        columns = [
            int.from_bytes(b"".join(v.to_bytes(width, "little") for v in col), "little")
            for col in zip(*lanes)
        ]
        low = int.from_bytes(b"\1".ljust(width, b"\0") * len(rows), "little")
        return columns, low, low << (8 * width - 1)
    return E, rows, [embed(a) for a in field.elements()]


def _has_zero_lane(acc, low, high):
    """Whether acc has a zero lane ("haszero", Bit Twiddling Hacks); low has
    a 1 and high the top bit in each lane.  Exact: borrows start only at zero
    lanes, the lowest turns to all ones, ~acc drops lanes with top bit set."""
    return (acc - low) & ~acc & high != 0


def singular_curve_bb(d: int, field: Field, ext_bound=None, work_cap=10_000_000) -> BlackBox:
    """Oracle on coefficient vectors of ternary degree-d forms that answers
    whether the projective plane curve f = 0 has a singular point.

    A form is flagged when f and its three partials share a projective zero
    over some extension of degree e <= ext_bound; intersection bounds put
    every singular point of a degree-d curve within degree (d-1)^2, which is
    the default bound.  The zero form counts as singular.  Points are scanned
    over the smallest extensions first, one _build_stage table per extension;
    over F_2 a probe XORs packed columns and asks _has_zero_lane, else it
    sums weighted table rows.
    work_cap bounds both q^(3*ext_bound) and the stage tables: one entry per
    monomial and projective point, that is
    m * sum(q^(2e) + q^e + 1 for e <= ext_bound) with m = (d+1)(d+2)/2.
    """
    if d < 1:
        raise RangeError(f"form degree must be >= 1, got {d}")
    if ext_bound is None:
        ext_bound = max(1, (d - 1) ** 2)
    if ext_bound < 1:
        raise RangeError(f"extension bound must be >= 1, got {ext_bound}")
    q = field.q
    if power_exceeds(q, 3 * ext_bound, work_cap):
        raise UnsupportedSize(
            f"q^(3*ext_bound) = {q}^{3 * ext_bound} exceeds the work cap {work_cap}"
        )
    m = (d + 1) * (d + 2) // 2
    points = sum(q ** (2 * e) + q**e + 1 for e in range(1, ext_bound + 1))
    if m * points > work_cap:
        raise UnsupportedSize(
            f"stage tables of {m} monomials x {points} points exceed the work cap {work_cap}"
        )
    mons = ternary_monomials(d)
    packed = q == 2
    stages = [_build_stage(field, e, mons, work_cap, packed) for e in range(1, ext_bound + 1)]

    def probe(coeffs):
        active = [(j, c) for j, c in enumerate(coeffs) if c]
        if not active:
            return True
        if packed:
            for columns, low, high in stages:
                acc = 0
                for j, _ in active:
                    acc ^= columns[j]
                if _has_zero_lane(acc, low, high):
                    return True
            return False
        for E, rows, scalars in stages:
            ezero = E.zero
            emul, eadd = E.mul, E.add
            weights = [(j, scalars[c]) for j, c in active]
            for row in rows:
                s0 = s1 = s2 = s3 = ezero
                for j, w in weights:
                    v0, v1, v2, v3 = row[j]
                    s0 = eadd(s0, emul(w, v0))
                    s1 = eadd(s1, emul(w, v1))
                    s2 = eadd(s2, emul(w, v2))
                    s3 = eadd(s3, emul(w, v3))
                if s0 == ezero and s1 == ezero and s2 == ezero and s3 == ezero:
                    return True
        return False

    # arity is the coefficient count: the oracle consumes coefficient
    # vectors listed in ternary_monomials(d) order
    return BlackBox(field, m, probe, f"singular_ternary(d={d}, ext<={ext_bound})")
