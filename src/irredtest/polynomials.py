"""Sparse multivariate polynomials and their text form.

A polynomial over a field context is a mapping from exponent tuples to
nonzero coefficients.  The text grammar (variables x1, x2, ..., explicit
'*' everywhere, '^' for powers, integer literals reduced mod p) is:

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := integer | braced | variable ['^' integer] | '(' expr ')'
    braced := '{' integer (',' integer)* '}'

Braced literals name extension field coefficients coordinate-wise; they
exist so that formatting stays invertible over extension fields.  Plain
integer literals cover every prime field constant.  Parentheses nest at
most 100 deep (_MAX_DEPTH); a deeper '(' is a PolySyntaxError.  Each term
is a dense exponent tuple of n entries, so a parse builds at most
_MAX_ENTRIES of them in all (terms x n, products of parenthesised sums
counted before they are formed) and raises UnsupportedSize before a term
would pass that.
"""

import functools
import itertools
import operator
import sys
from array import array
from math import comb

from .errors import (
    ArityMismatch,
    Error,
    FieldMismatch,
    PolySyntaxError,
    RangeError,
    UnknownVariable,
    UnsupportedSize,
    _shown,
)
from .fields import Field, power_exceeds


def _monomials_of_degree(n: int, t: int):
    """Yield the exponent tuples in n variables of total degree t, lex
    ascending.  Stars and bars: e_i counts the stars between bars i - 1 and
    i, and the n - 1 bar slots among t + n - 1 are taken in lex order."""
    if n == 0:
        if t == 0:
            yield ()
        return
    end = (t + n - 1,)
    for bars in itertools.combinations(range(t + n - 1), n - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + end))


def monomials_up_to(n: int, d: int):
    """Yield exponent tuples with total degree <= d, graded lex ascending."""
    if n < 0:
        raise ArityMismatch(f"variable count must be >= 0, got {n}")
    if n == 0:
        d = min(d, 0)  # only degree 0 has a monomial, however large d is
    for t in range(d + 1):
        yield from _monomials_of_degree(n, t)


@functools.lru_cache(maxsize=8)
def _shared_monomials(n, d):
    return tuple(monomials_up_to(n, d))


def _monomials(n: int, d: int):
    """monomials_up_to(n, d) as one tuple, shared by the dense polynomials
    of its shape while it holds at most 2^16 exponent entries (n times the
    monomials), so the cache of 8 shapes pins at most 8 x 2^16 entries."""
    if n * comb(n + d, d) > 1 << 16:
        return tuple(monomials_up_to(n, d))
    return _shared_monomials(n, d)


def _collect(pairs, add):
    """Term map of (exponents, coefficient) pairs, over a field or the
    integers: coefficients that meet are combined by `add`, zero sums drop."""
    out = {}
    for exps, c in pairs:
        out[exps] = add(out[exps], c) if exps in out else c
    return {exps: c for exps, c in out.items() if c}


def _product(a, b, add, mul):
    """Term map of the product of the term maps a and b, over a field or the
    integers, as _collect would give it for the pairs taken a-major.

    Each exponent tuple is packed into one int with w bits per variable,
    where w is the bit length of the largest exponent of a plus the largest
    of b, so no slot of a sum carries: the key of a pair's product is the
    sum of the two keys.  Coefficients meet in a dict keyed by those ints,
    in the order the pairs come, and the keys are unpacked once, at the end.
    """
    if not a or not b:
        return {}
    n = len(next(iter(a)))
    chain = itertools.chain.from_iterable
    w = ((max(chain(a)) + max(chain(b))).bit_length() or 1) if n else 1
    shifts = range(0, w * n, w)
    lshift = operator.lshift
    pb = [(sum(map(lshift, e, shifts)), c) for e, c in b.items()]
    out = {}
    get = out.get
    for ea, ca in a.items():
        ka = sum(map(lshift, ea, shifts))
        for kb, cb in pb:
            k = ka + kb
            s = get(k)
            out[k] = mul(ca, cb) if s is None else add(s, mul(ca, cb))
    mask = (1 << w) - 1
    return {tuple([k >> at & mask for at in shifts]): c for k, c in out.items() if c}


_INT = frozenset([int])


def _check_terms(terms, n, q):
    """Raise for the first term of `terms` that is not n int exponents >= 0
    with a coefficient in [0, q)."""
    for exps, c in terms.items():
        try:
            arity = len(exps)
        except TypeError:
            raise RangeError(f"exponent key {exps!r} is not a tuple") from None
        if arity != n:
            raise ArityMismatch(f"exponent tuple {exps} does not match {n} variables")
        if not _INT.issuperset(map(type, exps)):
            raise RangeError(f"non-int exponent in {exps}")
        if exps and min(exps) < 0:
            raise RangeError(f"negative exponent in {exps}")
        # elements index the field's tables, so a stray int would not fail
        if type(c) is not int or not 0 <= c < q:
            raise RangeError(f"coefficient {c!r} is not an element of F_{q}")


class SparsePolynomial:
    """Immutable-by-convention term map over a shared field context.

    Term maps are checked once, where they enter.  The constructor checks
    every map it is given, term by term, and copies it with zero
    coefficients dropped.  The library's own producers (sums, negations
    and products, parse_poly, random_dense_poly and the trap fixture's
    reductions) build maps that are valid by construction, so they hand
    them over through _adopt, with no check and no copy.
    """

    __slots__ = ("field", "n", "terms", "_evaluator")

    def __init__(self, field: Field, n: int, terms):
        if n < 0:
            raise ArityMismatch(f"variable count must be >= 0, got {n}")
        self.field = field
        self.n = n
        try:
            keys, coeffs = terms.keys(), terms.values()
        except AttributeError:
            raise TypeError(
                "terms must be a mapping from exponent tuples to coefficients,"
                f" not {type(terms).__name__}"
            ) from None
        # whole-map passes in C; the per-term loop runs only to name the
        # first offending term
        chain, entries = itertools.chain, itertools.chain.from_iterable
        try:
            valid = not terms or (
                {n}.issuperset(map(len, keys))
                and _INT.issuperset(map(type, chain(entries(keys), coeffs)))
                and min(chain(entries(keys), coeffs)) >= 0
                and max(coeffs) < field.q
            )
        except TypeError:
            valid = False
        if not valid:
            _check_terms(terms, n, field.q)
        self.terms = {tuple(exps): c for exps, c in terms.items() if c}
        self._evaluator = None

    # -- constructors --------------------------------------------------

    @classmethod
    def _adopt(cls, field, n, terms):
        """The polynomial whose term map is `terms` itself, unchecked and
        uncopied.  `terms` must be a dict that no one else holds, of tuples
        of n ints >= 0 to nonzero elements of `field`."""
        f = cls.__new__(cls)
        f.field, f.n, f.terms, f._evaluator = field, n, terms, None
        return f

    @classmethod
    def zero(cls, field, n):
        return cls(field, n, {})

    @classmethod
    def constant(cls, field, n, c):
        return cls(field, n, {(0,) * n: c})

    @classmethod
    def variable(cls, field, n, i):
        """x_i, indices starting at 1."""
        if not 1 <= i <= n:
            raise UnknownVariable(f"x{i} is not among x1..x{n}")
        exps = tuple(1 if j == i - 1 else 0 for j in range(n))
        return cls(field, n, {exps: field.one})

    # -- arithmetic -----------------------------------------------------

    def _check(self, other):
        if not isinstance(other, SparsePolynomial):
            raise TypeError(f"cannot combine with {type(other).__name__}")
        if self.field != other.field:
            raise FieldMismatch("operands live over different fields")
        if self.n != other.n:
            raise ArityMismatch(f"arity {self.n} vs {other.n}")

    def __add__(self, other):
        self._check(other)
        pairs = itertools.chain(self.terms.items(), other.terms.items())
        return SparsePolynomial._adopt(self.field, self.n, _collect(pairs, self.field.add))

    def __neg__(self):
        field = self.field
        return SparsePolynomial._adopt(
            field, self.n, {e: field.neg(c) for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        field = self.field
        terms = _product(self.terms, other.terms, field.add, field.mul)
        return SparsePolynomial._adopt(field, self.n, terms)

    def __eq__(self, other):
        return (
            isinstance(other, SparsePolynomial)
            and self.field == other.field
            and self.n == other.n
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"<poly {format_poly(self)!r} over {self.field.spec}>"

    def __reduce__(self):
        # the kept evaluator is generated code, which does not pickle
        return (SparsePolynomial, (self.field, self.n, self.terms))

    def is_zero(self):
        return not self.terms

    # -- evaluation -----------------------------------------------------

    def evaluate(self, point):
        """Value at a point, one coordinate per variable.

        The first call builds an evaluator (see _compile) and keeps it;
        nothing is built before that call.  Over F_p, a polynomial whose
        domain is small next to its term count gets a table of its values
        at every point of the variables it reads, built at about 0.3 to
        1 us per entry, and each call is one lookup; any other polynomial,
        over any field, gets generated code in nested Horner form, at about
        one multiply and one add per term.  Both give the values of
        term-by-term evaluation.  A coordinate that the value reads and
        that is not an int raises RangeError; over an extension, so does
        any non-element.  Over F_p an int outside [0, p) is reduced mod p.
        """
        if len(point) != self.n:
            raise ArityMismatch(f"point has {len(point)} coords, need {self.n}")
        fn = self._evaluator
        if fn is None:
            fn = self._evaluator = _compile(self)
        try:
            value = fn(point)
        except Error:
            raise
        except (TypeError, ValueError):  # ValueError: a str's own % formatting
            value = None
        if type(value) is not int:
            raise RangeError(f"a coordinate of {point!r} is not an int")
        return value


def _reduced_terms(f: SparsePolynomial):
    """f's terms with each exponent e >= 1 taken to 1 + (e - 1) mod (q - 1).

    x^q = x at every point of F_q, so the values are unchanged and no
    exponent exceeds q - 1.  Terms that meet are merged, zero sums dropped.
    """
    m = f.field.q - 1
    keys = (tuple(1 + (e - 1) % m if e else 0 for e in exps) for exps in f.terms)
    return _collect(zip(keys, f.terms.values()), f.field.add)


# Binary operations a register's pending expression may reach before it is
# stored; no generated expression nests deeper than about twice this, so
# the parser's and compiler's nesting limits hold at every n.
_EXPR_OPS = 16
# Binary operations per generated function.  The functions are compiled
# one at a time, since compiling a large polynomial in one piece raises
# peak memory.
_CHUNK_OPS = 256


# Tabulate when p^m <= _TABLE_MAX and p^m + m p^2 <= _TABLE_PER_TERM x terms:
# entries and multiply-adds cost 0.3 to 1 us each, a compiled term about 12 us.
_TABLE_MAX = 1 << 16
_TABLE_PER_TERM = 64


def _compile(f: SparsePolynomial):
    """Evaluator of f: a value table or generated Horner code.

    Over F_p, let m >= 1 be the number of variables the reduced terms read.
    When p^m <= _TABLE_MAX and p^m + m p^2 is at most _TABLE_PER_TERM times
    the number of reduced terms, the evaluator looks values up in the table
    of _value_table.  Its build costs about 0.3 to 1 us per entry and per
    multiply-add, at most a few times the 12 us or so per term of compiling
    Horner code, and each call is then one lookup.  Every other polynomial,
    over any field, compiles through _horner.  Both return the values of
    term-by-term evaluation.
    """
    field, terms = f.field, _reduced_terms(f)
    if field.k == 1:
        read = sorted({i for exps in terms for i, e in enumerate(exps) if e})
        p, m = field.p, len(read)
        if m and not power_exceeds(p, m, _TABLE_MAX):
            if p**m + m * p * p <= _TABLE_PER_TERM * len(terms):
                return _value_table(p, terms, read)
    return _horner(field, f.n, terms)


def _value_table(p, terms, read):
    """Evaluator over F_p that looks each value up in a table.

    `terms` are reduced (every exponent below p), and `read` lists, in
    order, the m variables the table spans, at least those the terms read.
    The coefficients are laid out as a p^m tensor indexed by the exponents
    of the variables in `read`, and the p x p matrix (x^e mod p) is applied
    along each axis in turn (Yates's method), which leaves f's value at x
    at index sum of x_j p^(m-1-j).  The tensor is held as 64-bit lanes:
    slab e of the leading axis is one int of p^(m-1) lanes, so an axis step
    is p^2 multiply-adds of a scalar and a slab, and a strided assignment
    of each result row, out[x::p], moves the next axis to the front.
    No lane passes (p - 1) (p (p - 1))^m < p^(2m+1), which is below 2^48
    for p^m <= 2^16 (and below 2^64 for any p^m < 2^21), so the lanes are
    reduced mod p once, at the end: into bytes for p < 256, else into
    array('H'), which holds them for p < 2^16.

    The generated code reads only the coordinates in `read`; x % p reduces
    any int, and a coordinate that is not an int fails as an index.
    """
    m, order = len(read), sys.byteorder
    size = p**m
    width = 8 * size // p  # bytes of one slab of the leading axis
    lanes = array("Q", [0]) * size
    for exps, c in terms.items():
        index = 0
        for i in read:
            index = index * p + exps[i]
        lanes[index] = c
    powers = [[pow(x, e, p) for e in range(p)] for x in range(p)]
    for _ in range(m):
        # the slabs are copies, so the rows overwrite the lanes in place
        flat = memoryview(lanes).cast("B")
        slabs = [int.from_bytes(flat[e * width:(e + 1) * width], order) for e in range(p)]
        for x, row in enumerate(powers):
            row_sum = sum(v * slab for v, slab in zip(row, slabs) if v)
            lanes[x::p] = array("Q", row_sum.to_bytes(width, order))
    values = map(p.__rmod__, lanes)
    namespace = {"T": bytes(values) if p < 256 else array("H", values)}
    index = " + ".join(
        f"x[{i:d}] % {p:d}" + (f" * {p ** (m - 1 - j):d}" if j < m - 1 else "")
        for j, i in enumerate(read)
    )
    _define(f"def evaluate(x):\n    return T[{index or 0}]\n", namespace)
    return namespace["evaluate"]


def _horner(field, n, terms):
    """Evaluator as generated code in nested Horner form, over any field.

    The reduced terms, sorted by exponent tuple in descending order, are
    the leaves of a trie whose level i branches on the exponent of x_{i+1}.
    A node's value combines its children's by Horner's rule in that
    variable: acc = acc * x^gap + child, where gap is the drop between
    consecutive child exponents and is taken by one power; then acc is
    multiplied by x to the last child's exponent.  That is about one
    multiply and one add per term.  The trie is walked by a loop over the
    sorted terms, never by recursion, so a term in thousands of variables
    builds like a short one.  The zero polynomial is the one constant term 0.

    Over F_p, sums and products are Python int operators, each power is one
    pow(x, gap, p) and one % p ends the value.  Over an extension the same
    code calls the field's own arithmetic, as mul(a, b), add(a, b) and
    pw(x, e), after check(x) has made sure that every coordinate is an
    element: coordinates index the field's tables, where a prime field
    reduces any int mod p.  The code holds only integer literals and
    generated names.
    """
    code = _HornerCode(field, n)
    for exps, c in sorted(terms.items(), reverse=True) or [((0,) * n, 0)]:
        code.add(exps, c)
    return code.evaluator()


class _HornerCode:
    """Statements of a Horner evaluator, grown one term at a time.

    The nodes open at any moment are those on the path of the last term
    added.  Register r{k} holds an open node's value; a node's first child
    shares its parent's register and every later child takes the next
    one, so registers are never more than n + 1.  A register's value is
    kept as a pending expression and stored by a statement only when the
    expression reaches _EXPR_OPS operations, when its parent would read a
    register about to be reused, or at the end.  Statements go into
    chunks of about _CHUNK_OPS operations, and the registers stored at a
    chunk's end are passed to the next chunk.
    """

    def __init__(self, field, n):
        self.n = n
        self.one = f"{field.one:d}"
        # how the code spells x_{i+1}^e for e > 1, a product (of a term, of
        # a sum), a sum and the value, and the names it calls
        if field.k == 1:
            p = field.p
            self.power = f"pow(x{{:d}}, {{:d}}, {p:d})"
            self.product = ("{}*{}", "({})*{}")
            self.sum, self.result, self.check = "{} + {}", f"r0 % {p:d}", ""
            self.namespace = {"pow": pow}
        else:
            self.power = "pw(x{:d}, {:d})"
            self.product = ("mul({}, {})",) * 2
            self.sum, self.result, self.check = "add({}, {})", "r0", "    check(x)\n"
            self.namespace = {
                "mul": field.mul, "add": field.add, "pw": field.pow,
                "check": _element_check(field.q),
            }
        self.prev = None  # exponents of the last term: the open path
        self.reg = [0] * (n + 1)  # register per level; level n holds the coefficient
        self.gap = [0] * (n + 1)  # exponent drop joining a node to its parent, 0 for a first child
        # register -> [text, operations, is a sum, variable indices]
        self.pending = [None] * (n + 1)
        self.stored = set()  # registers whose value is in r{k}
        self.chunks = []  # (lines, variables, registers in, registers out)
        self.lines, self.vars, self.ops, self.live_in = [], set(), 0, ()

    def add(self, exps, c):
        """The next term; terms come in descending order of exponents."""
        prev, reg, gap = self.prev, self.reg, self.gap
        if prev is None:
            split, k = -1, 0
        else:
            split = 0
            while exps[split] == prev[split]:
                split += 1
            self.close(split)
            # a later child of the node at level split
            k = reg[split] + 1
            gap[split + 1] = prev[split] - exps[split]
        for level in range(split + 1, self.n + 1):
            reg[level] = k
        for level in range(split + 2, self.n + 1):
            gap[level] = 0
        self.pending[k] = [f"{c:d}", 0, False, set()]
        self.prev = exps

    def close(self, split):
        """Finish the open nodes below level `split`, deepest first."""
        pending, prev, reg, gap = self.pending, self.prev, self.reg, self.gap
        for level in range(self.n, split, -1):
            k = reg[level]
            if level < self.n and prev[level]:
                pending[k] = self.times_power(pending[k], level, prev[level])
                if pending[k][1] >= _EXPR_OPS:
                    self.store(k)
            if gap[level]:
                text, ops, _, used = self.times_power(pending[k - 1], level - 1, gap[level])
                child = pending[k]
                ops += child[1] + 1
                pending[k - 1] = [self.sum.format(text, child[0]), ops, True, used | child[3]]
                # a parent that reads r{k} is stored before a later child reuses it
                if k in self.stored or ops >= _EXPR_OPS:
                    self.store(k - 1)
                self.stored.discard(k)

    def times_power(self, expr, i, e):
        """The pending expression `expr` times x_{i+1}^e."""
        text, ops, is_sum, used = expr
        factor = f"x{i:d}" if e == 1 else self.power.format(i, e)
        used.add(i)
        if text == self.one:
            return [factor, ops, False, used]
        return [self.product[is_sum].format(text, factor), ops + 1, False, used]

    def store(self, k):
        text, ops, _, used = self.pending[k]
        self.lines.append(f"    r{k:d} = {text}")
        self.vars |= used
        self.ops += ops + 1
        self.pending[k] = [f"r{k:d}", 0, False, set()]
        self.stored.add(k)
        if self.ops >= _CHUNK_OPS:
            self.end_chunk()

    def end_chunk(self):
        live_out = tuple(sorted(self.stored))
        self.chunks.append((self.lines, self.vars, self.live_in, live_out))
        self.lines, self.vars, self.ops, self.live_in = [], set(), 0, live_out

    def evaluator(self):
        self.close(-1)
        if self.pending[0][0] != "r0":
            self.store(0)
        if self.lines:
            self.end_chunk()
        namespace = self.namespace
        if len(self.chunks) == 1:  # one call per evaluation for small polynomials
            lines, used, _, _ = self.chunks[0]
            body = _body(lines, used)
        else:
            calls = []
            for j, (lines, used, live_in, live_out) in enumerate(self.chunks):
                args = "".join(f", r{k:d}" for k in live_in)
                out = ", ".join(f"r{k:d}" for k in live_out)
                _define(f"def c{j:d}(x{args}):\n{_body(lines, used)}    return {out}\n", namespace)
                calls.append(f"    {out} = c{j:d}(x{args})\n")
            body = "".join(calls)
        _define(f"def evaluate(x):\n{self.check}{body}    return {self.result}\n", namespace)
        return namespace["evaluate"]


def _body(lines, used):
    binds = "".join(f"    x{i:d} = x[{i:d}]\n" for i in sorted(used))
    return binds + "\n".join(lines) + "\n"


def _define(source, namespace):
    exec(compile(source, "<irredtest polynomial>", "exec"), namespace)


def _element_check(q):
    """check(x) for generated code over F_q: RangeError unless every
    coordinate is an int in [0, q)."""

    def check(point):
        for x in point:
            if type(x) is not int or not 0 <= x < q:
                raise RangeError(f"coordinate {x!r} is not an element of F_{q}")

    return check


def total_degree(f: SparsePolynomial) -> int:
    """Max total degree over terms; -1 for the zero polynomial."""
    if not f.terms:
        return -1
    return max(sum(e) for e in f.terms)


# exponent entries (variables x monomials) one random_dense_poly may build;
# the 1,201 monomials in 1,200 variables of degree 1 hold about 1.44M
_MAX_DENSE_ENTRIES = 1 << 21


def random_dense_poly(field, n, d, stream) -> SparsePolynomial:
    """Independent uniform coefficient for every monomial of degree <= d.

    The coefficients are one stream.below_many(q, monomials) call, which
    reads the words of one next_below(q) per monomial in the
    monomials_up_to order, so the result is reproducible from
    (field, n, d, stream position).  A shape of more than
    _MAX_DENSE_ENTRIES exponent entries, n x C(n + d, d), raises
    UnsupportedSize before the walk starts.
    """
    if d < 0:
        raise RangeError(f"degree must be >= 0, got {d}")
    if n < 0:
        raise ArityMismatch(f"variable count must be >= 0, got {n}")
    # n (d + 1) <= n C(n + d, d) bounds n and d first, so comb stays cheap
    if n * (d + 1) > _MAX_DENSE_ENTRIES or n * comb(n + d, d) > _MAX_DENSE_ENTRIES:
        raise UnsupportedSize(
            f"a dense polynomial of degree {_shown(d)} in {_shown(n)} variables"
            f" passes {_MAX_DENSE_ENTRIES} exponent entries"
        )
    mons = _monomials(n, d)
    coeffs = stream.below_many(field.q, len(mons))
    return SparsePolynomial._adopt(field, n, dict(itertools.compress(zip(mons, coeffs), coeffs)))


# ---------------------------------------------------------------------------
# formatting

def _format_term(field, exps, c):
    factors = []
    coeff = field.format_element(c)
    if not any(exps):
        return coeff
    if coeff != "1":
        factors.append(coeff)
    for i, e in enumerate(exps):
        if e == 1:
            factors.append(f"x{i + 1}")
        elif e > 1:
            factors.append(f"x{i + 1}^{e}")
    return "*".join(factors)


def format_poly(f: SparsePolynomial) -> str:
    """Canonical text: graded lex descending, canonical coefficients."""
    if not f.terms:
        return "0"
    order = sorted(f.terms, key=lambda e: (sum(e), e), reverse=True)
    return " + ".join(_format_term(f.field, e, f.terms[e]) for e in order)


# ---------------------------------------------------------------------------
# parsing

_OPS = set("+-*^(){},")
# deepest '(' nesting parse_poly accepts; each level costs two stack frames
_MAX_DEPTH = 100
# exponent entries one parse may build; a sum of 1,000 one-variable terms in
# 1,000 variables reaches it and parses in about 0.15 s
_MAX_ENTRIES = 1_000_000


def _digits(text, position):
    """int(text) for a run of ASCII digits; past sys.get_int_max_str_digits()
    digits a PolySyntaxError at `position` instead of int's ValueError."""
    try:
        return int(text)
    except ValueError:
        raise PolySyntaxError(
            f"integer of {len(text)} digits exceeds the limit of"
            f" {sys.get_int_max_str_digits()}", position
        ) from None


def _tokenize(text):
    tokens = []  # (kind, value, position)
    i, L = 0, len(text)
    while i < L:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < L and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("int", _digits(text[i:j], i), i))
            i = j
            continue
        if ch == "x":
            j = i + 1
            while j < L and "0" <= text[j] <= "9":
                j += 1
            if j == i + 1:
                raise PolySyntaxError("variable needs a numeric index", i)
            tokens.append(("var", _digits(text[i + 1 : j], i), i))
            i = j
            continue
        raise PolySyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, L))
    return tokens


class _Parser:
    def __init__(self, tokens, field, n):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.entries = 0
        self.field = field
        self.n = n

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise PolySyntaxError(f"expected {kind}, found {tok[0]!r}", tok[2])
        self.pos += 1
        return tok

    def charge(self, terms, pos):
        """Count the entries of `terms` exponent tuples about to be built."""
        self.entries += terms * self.n
        if self.entries > _MAX_ENTRIES:
            raise UnsupportedSize(
                f"terms x variables passes {_MAX_ENTRIES} at position {pos}"
            )

    def parse_expr(self):
        """Term map of a sum of terms, merged once at its end so that each
        term costs its own size and not the size of the sum so far."""
        neg = self.field.neg
        pairs = []
        op = self.take()[0] if self.peek()[0] in "+-" else "+"
        while True:
            terms = self.parse_term().items()
            pairs.extend(terms if op == "+" else ((e, neg(c)) for e, c in terms))
            if self.peek()[0] not in "+-":
                return _collect(pairs, self.field.add)
            op = self.take()[0]

    def parse_term(self):
        """Product of factors.  Integer, braced and x_i^e factors gather into
        one coefficient and one exponent list; only a parenthesised factor
        multiplies term maps."""
        field, n = self.field, self.n
        self.charge(1, self.peek()[2])
        coeff, exps, groups = field.one, [0] * n, []
        while True:
            kind, value, pos = self.peek()
            if kind == "int":
                self.take()
                coeff = field.mul(coeff, field.from_int(value))
            elif kind == "{":
                coeff = field.mul(coeff, self.parse_braced())
            elif kind == "var":
                self.take()
                if not 1 <= value <= n:
                    raise UnknownVariable(f"x{value} is not among x1..x{n}", position=pos)
                power = 1
                if self.peek()[0] == "^":
                    self.take()
                    ek, power, epos = self.take()
                    if ek != "int":
                        raise PolySyntaxError("exponent must be an integer", epos)
                exps[value - 1] += power
            elif kind == "(":
                if self.depth == _MAX_DEPTH:
                    raise PolySyntaxError(f"parentheses nested deeper than {_MAX_DEPTH}", pos)
                self.take()
                self.depth += 1
                groups.append(self.parse_expr())
                self.depth -= 1
                self.take(")")
            else:
                raise PolySyntaxError(f"expected a factor, found {kind!r}", pos)
            if self.peek()[0] != "*":
                break
            self.take()
        term = {tuple(exps): coeff} if coeff else {}
        unit = {(0,) * n: field.one} if groups else None
        for g in groups:
            self.charge(len(term) * len(g), pos)
            # 1 * g is g, so a term of parenthesised sums alone starts from g
            term = g if term == unit else _product(term, g, field.add, field.mul)
        return term

    def parse_braced(self):
        _, _, pos = self.take("{")
        coords = [self.take("int")[1]]
        while self.peek()[0] == ",":
            self.take()
            coords.append(self.take("int")[1])
        self.take("}")
        try:
            return self.field.from_coords(coords)
        except RangeError as exc:
            raise PolySyntaxError(str(exc), pos) from None


def parse_poly(text: str, field: Field, n: int) -> SparsePolynomial:
    """Parse the grammar above into a polynomial in x1..xn over `field`."""
    if n < 0:
        raise ArityMismatch(f"variable count must be >= 0, got {n}")
    parser = _Parser(_tokenize(text), field, n)
    terms = parser.parse_expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise PolySyntaxError(f"unexpected {kind!r} after expression", pos)
    # the tokens give int exponents >= 0 and field operations every coefficient
    return SparsePolynomial._adopt(field, n, terms)
