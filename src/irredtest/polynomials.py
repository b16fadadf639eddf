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
most 100 deep (_MAX_DEPTH); a deeper '(' is a PolySyntaxError.
"""

import functools

from .errors import (
    ArityMismatch,
    FieldMismatch,
    PolySyntaxError,
    RangeError,
    UnknownVariable,
)
from .fields import Field


def monomials_up_to(n: int, d: int):
    """Yield exponent tuples with total degree <= d, graded lex ascending."""
    if n < 0:
        raise ArityMismatch(f"variable count must be >= 0, got {n}")

    def of_degree(m, total):
        if m == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in of_degree(m - 1, total - first):
                yield (first,) + rest

    for total in range(d + 1):
        if n == 0:
            if total == 0:
                yield ()
            continue
        yield from of_degree(n, total)


@functools.lru_cache(maxsize=8)
def _monomials(n: int, d: int):
    """monomials_up_to(n, d) as one shared tuple, so that dense
    polynomials of the same shape share their exponent-tuple keys."""
    return tuple(monomials_up_to(n, d))


class SparsePolynomial:
    """Immutable-by-convention term map over a shared field context."""

    __slots__ = ("field", "n", "terms", "_evaluator")

    def __init__(self, field: Field, n: int, terms):
        if n < 0:
            raise ArityMismatch(f"variable count must be >= 0, got {n}")
        self.field = field
        self.n = n
        zero = field.zero
        clean = {}
        for exps, c in terms.items():
            if len(exps) != n:
                raise ArityMismatch(
                    f"exponent tuple {exps} does not match {n} variables"
                )
            if any(e < 0 for e in exps):
                raise RangeError(f"negative exponent in {exps}")
            if c != zero:
                clean[tuple(exps)] = c
        self.terms = clean
        self._evaluator = None

    # -- constructors --------------------------------------------------

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
        field = self.field
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = field.add(out[exps], c) if exps in out else c
        return SparsePolynomial(field, self.n, out)

    def __neg__(self):
        field = self.field
        return SparsePolynomial(
            field, self.n, {e: field.neg(c) for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        field = self.field
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                c = field.mul(ca, cb)
                out[exps] = field.add(out[exps], c) if exps in out else c
        return SparsePolynomial(field, self.n, out)

    def scale(self, c):
        field = self.field
        return SparsePolynomial(
            field, self.n, {e: field.mul(c, v) for e, v in self.terms.items()}
        )

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

        The first call builds an evaluator and keeps it: straight-line
        code over a prime field, power rows over an extension field.
        """
        if len(point) != self.n:
            raise ArityMismatch(f"point has {len(point)} coords, need {self.n}")
        fn = self._evaluator
        if fn is None:
            build = _compile_prime if self.field.k == 1 else _extension_evaluator
            fn = self._evaluator = build(self)
        return fn(point)


# Terms per generated function.  One generated sum of a few thousand
# terms overflows the compiler's recursion limit, and compiling a large
# polynomial in one piece raises peak memory.
_CHUNK_TERMS = 128


def _reduced_terms(f: SparsePolynomial):
    """f's terms with each exponent e >= 1 taken to 1 + (e - 1) mod (q - 1).

    x^q = x at every point of F_q, so the values are unchanged and no
    exponent exceeds q - 1.  Terms that meet are merged, zero sums dropped.
    """
    field = f.field
    m = field.q - 1
    out = {}
    for exps, c in f.terms.items():
        key = tuple(1 + (e - 1) % m if e else 0 for e in exps)
        out[key] = field.add(out[key], c) if key in out else c
    zero = field.zero
    return {exps: c for exps, c in out.items() if c != zero}


def _compile_prime(f: SparsePolynomial):
    """Evaluator over F_p as generated straight-line code.

    Each distinct power x_i^e of the reduced terms is taken once with
    pow(); the terms are summed as Python ints by generated functions of
    at most _CHUNK_TERMS terms each, compiled one at a time, and one % p
    ends the sum.  The code holds only integer literals and generated
    names.
    """
    p = f.field.p
    powers = {}  # (i, e) -> generated name
    rows = []  # (factors, power names) per term
    for exps, c in _reduced_terms(f).items():
        names = [
            powers.setdefault((i, e), f"w{len(powers)}")
            for i, e in enumerate(exps)
            if e
        ]
        c %= p
        rows.append((names if c == 1 and names else [f"{c:d}", *names], names))
    lines = [
        f"    {w} = x[{i:d}]" if e == 1 else f"    {w} = pow(x[{i:d}], {e:d}, {p:d})"
        for (i, e), w in powers.items()
    ]
    namespace = {"pow": pow}
    for k in range(0, len(rows), _CHUNK_TERMS):
        chunk = rows[k : k + _CHUNK_TERMS]
        args = ", ".join(dict.fromkeys(w for _, names in chunk for w in names))
        # one term per line halves the size of the code's line table
        body = "\n + ".join("*".join(factors) for factors, _ in chunk)
        _define(f"def c{k}({args}):\n    return (\n{body}\n)\n", namespace)
        lines.append(f"    t += c{k}({args})")
    lines.append(f"    return t % {p:d}")
    _define("def evaluate(x):\n    t = 0\n" + "\n".join(lines) + "\n", namespace)
    return namespace["evaluate"]


def _define(source, namespace):
    exec(compile(source, "<irredtest polynomial>", "exec"), namespace)


def _extension_evaluator(f: SparsePolynomial):
    """Evaluator over an extension field: one power row per variable."""
    field = f.field
    terms = _reduced_terms(f)
    maxes = [max((exps[i] for exps in terms), default=0) for i in range(f.n)]

    def evaluate(point):
        one = field.one
        pows = []
        for x, m in zip(point, maxes):
            row = [one]
            for _ in range(m):
                row.append(field.mul(row[-1], x))
            pows.append(row)
        total = field.zero
        for exps, c in terms.items():
            v = c
            for row, e in zip(pows, exps):
                if e:
                    v = field.mul(v, row[e])
            total = field.add(total, v)
        return total

    return evaluate


def total_degree(f: SparsePolynomial) -> int:
    """Max total degree over terms; -1 for the zero polynomial."""
    if not f.terms:
        return -1
    return max(sum(e) for e in f.terms)


def random_dense_poly(field, n, d, stream) -> SparsePolynomial:
    """Independent uniform coefficient for every monomial of degree <= d.

    Monomials are visited in the monomials_up_to order, one draw each, so
    the result is reproducible from (field, n, d, stream position).
    """
    if d < 0:
        raise RangeError(f"degree must be >= 0, got {d}")
    terms = {}
    zero = field.zero
    for exps in _monomials(n, d):
        c = field.random_element(stream)
        if c != zero:
            terms[exps] = c
    return SparsePolynomial(field, n, terms)


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
# deepest '(' nesting parse_poly accepts; each level costs three stack frames
_MAX_DEPTH = 100


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
        if ch.isdigit():
            j = i
            while j < L and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch == "x":
            j = i + 1
            while j < L and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise PolySyntaxError("variable needs a numeric index", i)
            tokens.append(("var", int(text[i + 1 : j]), i))
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

    def parse_expr(self):
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.take()[0] == "-" else 1
        acc = self.parse_term()
        if sign < 0:
            acc = -acc
        while self.peek()[0] in "+-":
            op = self.take()[0]
            t = self.parse_term()
            acc = acc - t if op == "-" else acc + t
        return acc

    def parse_term(self):
        f = self.parse_factor()
        while self.peek()[0] == "*":
            self.take()
            f = f * self.parse_factor()
        return f

    def parse_factor(self):
        kind, value, pos = self.peek()
        field, n = self.field, self.n
        if kind == "int":
            self.take()
            return SparsePolynomial.constant(field, n, field.from_int(value))
        if kind == "{":
            return self.parse_braced()
        if kind == "var":
            self.take()
            if not 1 <= value <= n:
                raise UnknownVariable(
                    f"x{value} is not among x1..x{n}", position=pos
                )
            poly = SparsePolynomial.variable(field, n, value)
            if self.peek()[0] == "^":
                self.take()
                ek, ev, epos = self.take()
                if ek != "int":
                    raise PolySyntaxError("exponent must be an integer", epos)
                exps = tuple(ev if j == value - 1 else 0 for j in range(n))
                poly = SparsePolynomial(field, n, {exps: field.one})
            return poly
        if kind == "(":
            if self.depth == _MAX_DEPTH:
                raise PolySyntaxError(f"parentheses nested deeper than {_MAX_DEPTH}", pos)
            self.take()
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.take(")")
            return inner
        raise PolySyntaxError(f"expected a factor, found {kind!r}", pos)

    def parse_braced(self):
        _, _, pos = self.take("{")
        coords = [self.take("int")[1]]
        while self.peek()[0] == ",":
            self.take()
            coords.append(self.take("int")[1])
        self.take("}")
        try:
            elem = self.field.from_coords(coords)
        except RangeError as exc:
            raise PolySyntaxError(str(exc), pos) from None
        return SparsePolynomial.constant(self.field, self.n, elem)


def parse_poly(text: str, field: Field, n: int) -> SparsePolynomial:
    """Parse the grammar above into a polynomial in x1..xn over `field`."""
    if n < 0:
        raise ArityMismatch(f"variable count must be >= 0, got {n}")
    parser = _Parser(_tokenize(text), field, n)
    poly = parser.parse_expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise PolySyntaxError(f"unexpected {kind!r} after expression", pos)
    return poly
