"""Finite field contexts F_q for q = p^k.

Every element of every field is an int in [0, q), its index.  Element i
of an extension has coordinates (i // p^(k-1-j)) % p, constant first, over
a fixed monic irreducible modulus, so one is p^(k-1).  Only this module
knows coordinates: from_coords and format_element turn text into elements
and back.  Operands must be elements; SparsePolynomial's constructor is the
checked boundary.  Each field checks its spec when it is made, at every
size; an extension proves its modulus irreducible by Ben-Or's test,
polynomial in k and log p, so every p^k < 2^63 builds in milliseconds.
extension_of embeds an extension base by evaluation at a root of its modulus,
found in the copy of F_q^* inside the bigger field, not by scanning it.

An extension field of order at most TABLE_CAP builds, when it is made, a
log list indexed by element (the discrete log to a generator g), an
antilog list and a Zech table (the log of 1 + g^i).  A product is then one
antilog lookup at la + lb and a sum one Zech lookup, for p = 2 and odd p
alike.  Each field object builds its own tables, from the schoolbook
helpers below; bigger fields use those helpers throughout, a power as one
_ring_pow on coordinates, as does Ben-Or's test, whose modulus may factor.
"""

import functools
from dataclasses import dataclass

from .errors import (
    DivisionByZero,
    NonPrimeCharacteristic,
    OrderOverflow,
    RangeError,
    ReducibleModulus,
    UnsupportedSize,
    _integer,
    _quoted,
    _shown,
)

ORDER_CAP = 1 << 63
# Extension fields of at most this order use log, antilog and Zech tables;
# the largest build, GF(2^10), takes about 15 ms on a 2-vCPU Xeon.
TABLE_CAP = 1 << 10


def power_exceeds(base: int, exponent: int, limit: int) -> bool:
    """base^exponent > limit, for base >= 2, without building a huge power.

    With b = base.bit_length(), 2^((b-1)e) <= base^e < 2^(be), so the
    power is built only when those bounds straddle limit, and then it has
    fewer than twice limit's bits.
    """
    bits, b = limit.bit_length(), base.bit_length()
    if exponent * (b - 1) >= bits:
        return True
    return exponent * b >= bits and base**exponent > limit


# Deterministic Miller-Rabin witness set, exact for n < 2^64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_order(p: int, k: int):
    """Refuse a composite p, then an order p^k of 2^63 or more, unbuilt."""
    if not is_prime(p):
        raise NonPrimeCharacteristic(f"{_shown(p)} is not prime")
    if power_exceeds(p, k, ORDER_CAP - 1):
        raise OrderOverflow(f"field order {_shown(p)}^{_shown(k)} exceeds 2^63")


@dataclass(frozen=True)
class FieldSpec:
    """Shape of a field: characteristic p, extension degree k, modulus.

    The modulus is a tuple of k+1 coefficients, constant first, and is
    present exactly when k > 1.  Validation beyond shape (primality,
    order cap, irreducibility) happens in the field constructors.
    """

    p: int
    k: int = 1
    modulus: tuple = None

    def __post_init__(self):
        if self.k < 1:
            raise RangeError(f"extension degree must be >= 1, got {_shown(self.k)}")
        if self.k == 1 and self.modulus is not None:
            raise RangeError("prime fields take no modulus")
        if self.k > 1:
            if self.modulus is None:
                raise RangeError("extension fields need an explicit modulus")
            if len(self.modulus) != self.k + 1:
                raise RangeError(
                    f"modulus must list {_shown(self.k + 1)} coefficients, got {len(self.modulus)}"
                )

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        """Parse "p" or "p^k:c0,c1,...,ck" (modulus constant-first)."""
        text = text.strip()
        try:
            if "^" not in text:
                return cls(p=_integer(text))
            head, _, tail = text.partition("^")
            kpart, colon, coeffs = tail.partition(":")
            if not colon:
                raise ValueError("missing modulus")
            modulus = tuple(map(_integer, coeffs.split(",")))
            return cls(p=_integer(head), k=_integer(kpart), modulus=modulus)
        except ValueError as exc:
            raise RangeError(f"bad field spec {_quoted(text)}: {exc}") from None

    def __str__(self):
        if self.k == 1:
            return str(self.p)
        coeffs = ",".join(str(c) for c in self.modulus)
        return f"{self.p}^{self.k}:{coeffs}"


# ---------------------------------------------------------------------------
# univariate helpers over F_p (coefficient lists, constant first)

def _poly_divmod(a, b, p):
    a = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    if len(a) - 1 < db:
        return [0], a
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1 - db, -1, -1):
        c = a[i + db] * inv_lead % p
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                if bj:
                    a[i + j] = (a[i + j] - c * bj) % p
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return q, a


def _poly_gcdex(a, b, p):
    """(g, s) with g the monic gcd of a monic a and b over F_p, s*b == g mod a.

    Extended Euclid on coefficient lists, constant first.
    """
    r0, r1 = list(a), list(b)
    while len(r1) > 1 and r1[-1] == 0:
        r1.pop()
    s0, s1 = [0], [1]
    while r1 != [0]:
        qpoly, rem = _poly_divmod(r0, r1, p)
        s_next = s0 + [0] * (len(qpoly) + len(s1) - 1 - len(s0))
        for i, qc in enumerate(qpoly):
            if qc:
                for j, sc in enumerate(s1):
                    s_next[i + j] = (s_next[i + j] - qc * sc) % p
        while len(s_next) > 1 and s_next[-1] == 0:
            s_next.pop()
        r0, r1 = r1, rem
        s0, s1 = s1, s_next
    scale = pow(r0[-1], p - 2, p)
    return [c * scale % p for c in r0], [c * scale % p for c in s0]


# ---------------------------------------------------------------------------
# schoolbook arithmetic in F_p[x]/(m): coefficient tuples of length k, with m
# monic of degree k given by its reduction rows; m need not be irreducible

def _reduction_rows(modulus, p):
    """x^(k+i) reduced mod the monic modulus of degree k, for i in [0, k-1)."""
    k = len(modulus) - 1
    tail = [(-c) % p for c in modulus[:k]]  # x^k == tail
    rows = [tail]
    for _ in range(k - 2):
        prev = rows[-1]
        shifted = [0] + prev[:-1]
        lead = prev[-1]
        if lead:
            shifted = [(s + lead * t) % p for s, t in zip(shifted, tail)]
        rows.append(shifted)
    return tuple(tuple(r) for r in rows)


def _ring_mul(a, b, p, reduction):
    k = len(a)
    conv = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y
    out = conv[:k]
    for m in range(k, 2 * k - 1):
        c = conv[m]
        if c:
            for j, t in enumerate(reduction[m - k]):
                if t:
                    out[j] += c * t
    return tuple(v % p for v in out)


def _ring_pow(a, e, p, reduction):
    """a^e for e >= 0, by square and multiply."""
    result = (1,) + (0,) * (len(a) - 1)
    while e:
        if e & 1:
            result = _ring_mul(result, a, p, reduction)
        a = _ring_mul(a, a, p, reduction)
        e >>= 1
    return result


def _prime_factors(n):
    """The distinct primes dividing n >= 1, by trial division."""
    primes, d = [], 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    return primes


def _poly_is_irreducible(coeffs, p):
    """Ben-Or's test for a monic univariate over F_p.

    A monic m of degree k > 1 is irreducible iff gcd(x^(p^i) - x, m) = 1
    for every 1 <= i <= k/2, since each irreducible of degree d divides
    x^(p^d) - x.  F_p[x]/(m) arithmetic takes no inverse, so m may factor.
    """
    k = len(coeffs) - 1
    if k == 1:
        return True
    reduction = _reduction_rows(coeffs, p)
    x = h = (0, 1) + (0,) * (k - 2)
    for _ in range(k // 2):
        h = _ring_pow(h, p, p, reduction)
        if _poly_gcdex(coeffs, [(a - b) % p for a, b in zip(h, x)], p)[0] != [1]:
            return False
    return True


@functools.lru_cache(maxsize=64)
def find_irreducible(p: int, k: int) -> tuple:
    """Smallest monic irreducible of degree k over F_p in the scan order below.

    p must be prime and p^k below 2^63, checked before any scan."""
    if k < 1:
        raise RangeError(f"extension degree must be >= 1, got {k}")
    _check_order(p, k)
    if k == 1:
        return (0, 1)
    for idx in range(p ** k):
        tail, t = [], idx
        for _ in range(k):
            tail.append(t % p)
            t //= p
        cand = tuple(tail) + (1,)
        if _poly_is_irreducible(cand, p):
            return cand
    raise ReducibleModulus(f"no irreducible of degree {k} over F_{p}")  # unreachable


class Field:
    """Shared interface and the derived operations from_int and sub; add,
    neg, mul, inv and pow live in the subclasses.  Operands must be
    elements, ints in [0, q): the table lookups do not check them, and
    SparsePolynomial's constructor is the checked boundary."""

    __slots__ = ("spec", "p", "k", "q", "zero", "one")

    def __eq__(self, other):
        return isinstance(other, Field) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"{type(self).__name__}({self.spec})"

    def elements(self):
        """All q elements in enumeration order."""
        return range(self.q)

    def random_element(self, stream):
        return stream.next_below(self.q)

    def from_int(self, c: int):
        """The image of the integer c: c % p times one (one is 1 in F_p)."""
        return c % self.p * self.one

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def __reduce__(self):
        # rebuilt from the spec: tables stay behind
        return (type(self), (self.spec,))


class PrimeField(Field):

    __slots__ = ()

    def __init__(self, spec: FieldSpec):
        if spec.k != 1:
            raise RangeError(f"a prime field has degree 1, got {spec.k}")
        _check_order(spec.p, 1)
        self.spec = spec
        self.p = spec.p
        self.k = 1
        self.q = spec.p
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero(f"0 has no inverse in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def pow(self, a, e: int):
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def from_coords(self, coords):
        """The element written {c} in braced text."""
        if len(coords) != 1:
            raise RangeError("braced literals over a prime field take one coordinate")
        return coords[0] % self.p

    def format_element(self, a) -> str:
        return str(a)


class ExtensionField(Field):
    """F_p[x]/(m) for a monic irreducible m of degree k > 1.

    The constructor checks k > 1, p and p^k, then m reduced mod p, which its
    spec keeps: monic, and irreducible by Ben-Or's test.  Up to TABLE_CAP
    elements, arithmetic runs on tables built when the field is made; above
    it, _log is [] and arithmetic runs on coordinates (_coords, _element):
    sums digit by digit, the rest by the schoolbook helpers.
    """

    __slots__ = ("modulus", "_reduction", "_places", "_log", "_exp", "_zech", "_half")

    def __init__(self, spec: FieldSpec):
        if spec.k < 2:
            raise RangeError(f"an extension field has degree > 1, got {spec.k}")
        _check_order(spec.p, spec.k)
        modulus = tuple(c % spec.p for c in spec.modulus)
        if modulus[-1] != 1:
            raise RangeError("modulus must be monic")
        if not _poly_is_irreducible(modulus, spec.p):
            raise ReducibleModulus(f"modulus {spec.modulus} is reducible over F_{spec.p}")
        if modulus != spec.modulus:
            spec = FieldSpec(spec.p, spec.k, modulus)
        self.spec = spec
        self.p = spec.p
        self.k = spec.k
        self.q = spec.p ** spec.k
        self.modulus = spec.modulus
        self.zero = 0
        self.one = spec.p ** (spec.k - 1)
        self._places = tuple(spec.p ** (spec.k - 1 - j) for j in range(spec.k))
        self._reduction = _reduction_rows(spec.modulus, spec.p)
        self._log = [] if self.q > TABLE_CAP else self._build_tables()

    def _coords(self, a):
        """The k coordinates of element a, constant first."""
        p = self.p
        return [a // place % p for place in self._places]

    def _element(self, coords):
        """The element with these coordinates mod p, constant first, zero-padded."""
        p = self.p
        return sum([c % p * place for c, place in zip(coords, self._places)])

    def _build_tables(self):
        """The log list; also sets _exp, _zech and _half.

        The constructor has proved the modulus irreducible, so F_q^* is
        cyclic.  With n = q - 1 and g the first generator in index order,
        _log sends g^i to i and zero to 2n.  _exp lists g^0..g^(n-1) twice,
        then 2n + 1 zeros, so it is indexed by la + lb and by la + _half
        for any two logs, zero's included; _half is the log of -1.  _zech[i]
        is the log of 1 + g^i, or None where that is zero, for the n logs
        i; add indexes it by lb - la, and a negative difference wraps
        through Python's list indexing, since g^(i - n) is g^i.
        """
        p, q, one, reduction = self.p, self.q, self.one, self._reduction
        n = q - 1
        unit = (1,) + (0,) * (self.k - 1)  # the coordinates of one
        primes = _prime_factors(n)
        for i in range(1, q):
            g = self._coords(i)
            if all(_ring_pow(g, n // r, p, reduction) != unit for r in primes):
                break
        powers = [unit]
        for _ in range(n - 1):
            powers.append(_ring_mul(powers[-1], g, p, reduction))
        exp = [self._element(v) for v in powers]
        log = [None] * q
        for i, v in enumerate(exp):
            log[v] = i
        # 1 + v adds one to the top base-p digit of v
        self._zech = [log[(v + one) % q] for v in exp]
        log[0] = 2 * n
        self._exp = exp * 2 + [0] * (2 * n + 1)
        self._half = n // 2 if p > 2 else 0
        return log

    def add(self, a, b):
        log = self._log
        if log:
            lb = log[b]
            if lb >= self.q:
                return a
            la = log[a]
            if la >= self.q:
                return b
            z = self._zech[lb - la]  # g^la + g^lb = g^la * (1 + g^(lb - la))
            return self.zero if z is None else self._exp[la + z]
        p = self.p  # (a // t) % p is a's coordinate at place t
        return sum([(a // t + b // t) % p * t for t in self._places])

    def neg(self, a):
        log = self._log
        if log:
            return self._exp[log[a] + self._half]
        p = self.p
        return sum([-(a // t) % p * t for t in self._places])

    def mul(self, a, b):
        log = self._log
        if log:
            return self._exp[log[a] + log[b]]
        return self._element(_ring_mul(self._coords(a), self._coords(b), self.p, self._reduction))

    def inv(self, a):
        if self._log:
            return self.pow(a, -1)
        if a:
            return self._element(_poly_gcdex(self.modulus, self._coords(a), self.p)[1])
        raise DivisionByZero(f"0 has no inverse in F_{self.p}^{self.k}")

    def pow(self, a, e: int):
        log = self._log
        if not log:
            if e < 0:
                a, e = self.inv(a), -e
            return self._element(_ring_pow(self._coords(a), e, self.p, self._reduction))
        la = log[a]
        if la < self.q:
            return self._exp[la * e % (self.q - 1)]
        if e < 0:
            raise DivisionByZero(f"0 has no inverse in F_{self.p}^{self.k}")
        return self.zero if e else self.one

    def from_coords(self, coords):
        """The element written {c0,c1,...} in braced text, zero-padded."""
        if len(coords) > self.k:
            raise RangeError(
                f"braced literal has {len(coords)} coordinates, field has {self.k}"
            )
        return self._element(coords)

    def format_element(self, a) -> str:
        """Braced coordinates, or a plain integer for a base-field constant."""
        if a % self.one == 0:
            return str(a // self.one)
        return "{" + ",".join(str(c) for c in self._coords(a)) + "}"


def make_field(spec) -> Field:
    """The field of a FieldSpec, or of its string form; the constructor checks it."""
    if isinstance(spec, str):
        spec = FieldSpec.parse(spec)
    return (PrimeField if spec.k == 1 else ExtensionField)(spec)


def GF(p: int, k: int = 1, modulus=None) -> Field:
    """Convenience constructor; when k > 1 and no modulus is given, the one
    find_irreducible(p, k) returns.  It or the constructor checks p and p^k."""
    if k > 1 and modulus is None:
        modulus = find_irreducible(p, k)
    return make_field(FieldSpec(p, k, None if modulus is None else tuple(modulus)))


def extension_of(field: Field, e: int, work_cap: int = 10_000_000):
    """Degree-e extension of `field` plus an embedding map.

    Returns (big_field, embed) where embed sends elements of `field` into
    the extension compatibly with both arithmetics.  For a prime base the
    embedding is coefficient placement.  For an extension base of order q,
    g -> g^((Q-1)/(q-1)) maps big^* onto the copy of F_q^*, which holds the
    k roots of the base modulus; embed is Horner evaluation at the first
    root among those images, g in index order.  work_cap bounds Q and so
    that search.
    """
    if e < 1:
        raise RangeError(f"extension degree must be >= 1, got {e}")
    if e == 1:
        return field, lambda a: a
    p = field.p
    big_k = field.k * e
    if power_exceeds(p, big_k, work_cap):
        raise UnsupportedSize(
            f"extension of order {p}^{big_k} exceeds the work cap {work_cap}"
        )
    big = GF(p, big_k)
    if field.k == 1:
        return big, big.from_int

    def at(coeffs, x):
        acc = big.zero
        for c in reversed(coeffs):
            acc = big.add(big.mul(acc, x), big.from_int(c))
        return acc

    step = (big.q - 1) // (field.q - 1)
    for i in range(1, big.q):
        root = big.pow(i, step)
        if at(field.modulus, root) == big.zero:
            return big, lambda a: at(field._coords(a), root)
    raise ReducibleModulus("base modulus has no root in the extension")  # unreachable
