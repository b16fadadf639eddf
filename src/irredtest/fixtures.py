"""The product trap fixture: one integer polynomial, opposite verdicts."""

from dataclasses import dataclass

from .polynomials import SparsePolynomial, monomials_up_to
from .rng import RandomStream

TRAP_VARS = 4
TRAP_FACTOR_DEGREE = 5
TRAP_COFACTOR_DEGREE = 10
TRAP_SPREAD = 7
_COEFF_LO, _COEFF_HI = -9, 9


def _int_poly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        elif e in out:
            del out[e]
    return out


def _int_poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            v = out.get(e, 0) + ca * cb
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    return out


def _random_int_poly(nvars, degree, stream):
    span = _COEFF_HI - _COEFF_LO + 1
    while True:
        terms = {}
        has_top = False
        for exps in monomials_up_to(nvars, degree):
            c = _COEFF_LO + stream.next_below(span)
            if c:
                terms[exps] = c
                if sum(exps) == degree:
                    has_top = True
        if has_top:  # keep the nominal degree exact
            return terms


@dataclass(frozen=True)
class ProductTrapFixture:
    """f = f1*f2 + 7*f3 with integer coefficients in [-9, 9].

    Reduced mod 7 the cofactor term drops and f becomes the product f1*f2,
    an obvious reducible; at any other prime the extra term generically
    restores irreducibility.  Useful as a ground-truth pair for verdict
    testing: same integer polynomial, opposite expected answers depending
    on the reduction prime.
    """

    seed: int
    f1: dict
    f2: dict
    f3: dict
    f: dict

    def reduce_mod(self, field) -> SparsePolynomial:
        return _reduce_int_poly(self.f, field)

    def factors_mod(self, field):
        return (
            _reduce_int_poly(self.f1, field),
            _reduce_int_poly(self.f2, field),
        )


def _reduce_int_poly(terms, field) -> SparsePolynomial:
    return SparsePolynomial(
        field, TRAP_VARS, {e: field.from_int(c) for e, c in terms.items()}
    )


# fixture construction draws from a stream id far above any sampling
# stream (those are the point indices 0..N-1), so reusing one seed for
# both the fixture and its test run keeps the draws independent
FIXTURE_STREAM = 1 << 32


def make_product_trap_fixture(seed: int) -> ProductTrapFixture:
    """Deterministic trap instance; draws come from FIXTURE_STREAM of `seed`."""
    stream = RandomStream(seed, stream=FIXTURE_STREAM)
    f1 = _random_int_poly(TRAP_VARS, TRAP_FACTOR_DEGREE, stream)
    f2 = _random_int_poly(TRAP_VARS, TRAP_FACTOR_DEGREE, stream)
    f3 = _random_int_poly(TRAP_VARS, TRAP_COFACTOR_DEGREE, stream)
    f = _int_poly_add(
        _int_poly_mul(f1, f2), {e: TRAP_SPREAD * c for e, c in f3.items()}
    )
    return ProductTrapFixture(seed=seed, f1=f1, f2=f2, f3=f3, f=f)
