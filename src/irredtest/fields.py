"""Finite field contexts F_q for q = p^k.

Elements are plain Python values: residues (ints in [0, p)) for prime
fields, coefficient tuples of length k for extensions, coordinates listed
constant-first against a fixed monic irreducible modulus.  A Field object
owns the arithmetic and the text form of its elements (from_coords,
format_element); elements themselves carry no back-reference, which keeps
them hashable and cheap.  An extension modulus is checked by Ben-Or's
test, polynomial in k and log p, so every p^k < 2^63 builds in milliseconds.
extension_of embeds an extension base by evaluation at a root of its modulus,
found in the copy of F_q^* inside the bigger field, not by scanning it.
"""

from dataclasses import dataclass

from .errors import (
    DivisionByZero,
    NonPrimeCharacteristic,
    OrderOverflow,
    RangeError,
    ReducibleModulus,
    UnsupportedSize,
)

ORDER_CAP = 1 << 63


def power_exceeds(base: int, exponent: int, limit: int) -> bool:
    """base^exponent > limit, for base >= 2, without building a huge power.

    base^exponent >= 2^exponent > limit once exponent reaches
    limit.bit_length(), so the power is built only below that.
    """
    return exponent >= limit.bit_length() or base**exponent > limit


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


@dataclass(frozen=True)
class FieldSpec:
    """Shape of a field: characteristic p, extension degree k, modulus.

    The modulus is a tuple of k+1 coefficients, constant first, and is
    present exactly when k > 1.  Validation beyond shape (primality,
    irreducibility, order cap) happens in make_field.
    """

    p: int
    k: int = 1
    modulus: tuple = None

    def __post_init__(self):
        if self.k < 1:
            raise RangeError(f"extension degree must be >= 1, got {self.k}")
        if self.k == 1 and self.modulus is not None:
            raise RangeError("prime fields take no modulus")
        if self.k > 1:
            if self.modulus is None:
                raise RangeError("extension fields need an explicit modulus")
            if len(self.modulus) != self.k + 1:
                raise RangeError(
                    f"modulus must list {self.k + 1} coefficients, got {len(self.modulus)}"
                )

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        """Parse "p" or "p^k:c0,c1,...,ck" (modulus constant-first)."""
        text = text.strip()
        try:
            if "^" not in text:
                return cls(p=int(text))
            head, _, tail = text.partition("^")
            kpart, colon, coeffs = tail.partition(":")
            if not colon:
                raise ValueError("missing modulus")
            modulus = tuple(int(c) for c in coeffs.split(","))
            return cls(p=int(head), k=int(kpart), modulus=modulus)
        except ValueError as exc:
            raise RangeError(f"bad field spec {text!r}: {exc}") from None

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


def _poly_is_irreducible(coeffs, p):
    """Ben-Or's test for a monic univariate over F_p.

    A monic m of degree k > 1 is irreducible iff gcd(x^(p^i) - x, m) = 1
    for every 1 <= i <= k/2, since each irreducible of degree d divides
    x^(p^d) - x.  F_p[x]/(m) arithmetic takes no inverse, so m may factor.
    """
    k = len(coeffs) - 1
    if k == 1:
        return True
    ring = ExtensionField(FieldSpec(p, k, tuple(coeffs)))
    x = h = (0, 1) + (0,) * (k - 2)
    for _ in range(k // 2):
        h = ring.pow(h, p)
        if _poly_gcdex(coeffs, ring.sub(h, x), p)[0] != [1]:
            return False
    return True


def find_irreducible(p: int, k: int) -> tuple:
    """Smallest monic irreducible of degree k over F_p in the scan order below."""
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


# Shipped defaults, reproduced by find_irreducible and re-verified at
# construction time anyway.
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (5, 2): (2, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (2, 0, 0, 1),
    (7, 4): (1, 1, 0, 0, 1),
}


class Field:
    """Shared interface; concrete arithmetic lives in the subclasses."""

    __slots__ = ("spec", "p", "k", "q", "zero", "one", "_elements")

    def __eq__(self, other):
        return isinstance(other, Field) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"{type(self).__name__}({self.spec})"

    def elements(self):
        """All q elements in enumeration order (cached tuple)."""
        if self._elements is None:
            self._elements = tuple(self.element_from_index(i) for i in range(self.q))
        return self._elements

    def random_element(self, stream):
        return self.element_from_index(stream.next_below(self.q))

    def pow(self, a, e: int):
        if e < 0:
            a, e = self.inv(a), -e
        result = self.one
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result


class PrimeField(Field):

    __slots__ = ()

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p = spec.p
        self.k = 1
        self.q = spec.p
        self.zero = 0
        self.one = 1 % spec.p
        self._elements = None

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

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

    def from_int(self, c: int):
        return c % self.p

    def element_from_index(self, i: int):
        if not 0 <= i < self.q:
            raise RangeError(f"index {i} outside [0, {self.q})")
        return i

    def index_of(self, a) -> int:
        return a % self.p

    def from_coords(self, coords):
        """The element written {c} in braced text."""
        if len(coords) != 1:
            raise RangeError("braced literals over a prime field take one coordinate")
        return coords[0] % self.p

    def format_element(self, a) -> str:
        return str(a)


class ExtensionField(Field):

    __slots__ = ("modulus", "_reduction", "_places")

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p = spec.p
        self.k = spec.k
        self.q = spec.p ** spec.k
        self.modulus = spec.modulus
        self.zero = (0,) * spec.k
        self.one = (1,) + (0,) * (spec.k - 1)
        self._elements = None
        self._places = tuple(spec.p ** (spec.k - 1 - j) for j in range(spec.k))
        # x^(k+i) reduced mod the modulus, for i in [0, k-1)
        p, k = spec.p, spec.k
        tail = [(-c) % p for c in spec.modulus[:k]]  # x^k == tail
        rows = [tail]
        for _ in range(k - 2):
            prev = rows[-1]
            shifted = [0] + prev[:-1]
            lead = prev[-1]
            if lead:
                shifted = [(s + lead * t) % p for s, t in zip(shifted, tail)]
            rows.append(shifted)
        self._reduction = tuple(tuple(r) for r in rows)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        p, k = self.p, self.k
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
                row = self._reduction[m - k]
                for j, t in enumerate(row):
                    if t:
                        out[j] += c * t
        return tuple(v % p for v in out)

    def inv(self, a):
        if all(c == 0 for c in a):
            raise DivisionByZero(f"0 has no inverse in F_{self.p}^{self.k}")
        _, coeffs = _poly_gcdex(self.modulus, a, self.p)
        return tuple(coeffs) + (0,) * (self.k - len(coeffs))

    def from_int(self, c: int):
        return (c % self.p,) + (0,) * (self.k - 1)

    def element_from_index(self, i: int):
        if not 0 <= i < self.q:
            raise RangeError(f"index {i} outside [0, {self.q})")
        return tuple((i // place) % self.p for place in self._places)

    def index_of(self, a) -> int:
        return sum(c * place for c, place in zip(a, self._places))

    def from_coords(self, coords):
        """The element written {c0,c1,...} in braced text, zero-padded."""
        if len(coords) > self.k:
            raise RangeError(
                f"braced literal has {len(coords)} coordinates, field has {self.k}"
            )
        return tuple(c % self.p for c in coords) + (0,) * (self.k - len(coords))

    def format_element(self, a) -> str:
        """Braced coordinates, or a plain integer for a base-field constant."""
        if not any(a[1:]):
            return str(a[0])
        return "{" + ",".join(str(c) for c in a) + "}"


def make_field(spec) -> Field:
    """Build a validated field context from a FieldSpec (or its string form)."""
    if isinstance(spec, str):
        spec = FieldSpec.parse(spec)
    if not is_prime(spec.p):
        raise NonPrimeCharacteristic(f"{spec.p} is not prime")
    if power_exceeds(spec.p, spec.k, ORDER_CAP - 1):
        raise OrderOverflow(f"field order {spec.p}^{spec.k} exceeds 2^63")
    if spec.k == 1:
        return PrimeField(spec)
    modulus = tuple(c % spec.p for c in spec.modulus)
    if modulus[-1] != 1:
        raise RangeError("modulus must be monic")
    if not _poly_is_irreducible(modulus, spec.p):
        raise ReducibleModulus(
            f"modulus {spec.modulus} is reducible over F_{spec.p}"
        )
    if modulus != spec.modulus:
        spec = FieldSpec(spec.p, spec.k, modulus)
    return ExtensionField(spec)


def GF(p: int, k: int = 1, modulus=None) -> Field:
    """Convenience constructor; fills in a default modulus when k > 1."""
    if k == 1:
        return make_field(FieldSpec(p))
    if not is_prime(p):
        raise NonPrimeCharacteristic(f"{p} is not prime")
    if power_exceeds(p, k, ORDER_CAP - 1):
        raise OrderOverflow(f"field order {p}^{k} exceeds 2^63")
    if modulus is None:
        modulus = DEFAULT_MODULI.get((p, k)) or find_irreducible(p, k)
    return make_field(FieldSpec(p, k, tuple(modulus)))


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
        root = big.pow(big.element_from_index(i), step)
        if at(field.modulus, root) == big.zero:
            return big, lambda a: at(a, root)
    raise ReducibleModulus("base modulus has no root in the extension")  # unreachable
