"""The product trap fixture: one integer polynomial, opposite verdicts."""

import operator
from dataclasses import dataclass
from math import comb

from .polynomials import SparsePolynomial, _collect, _monomials, _product
from .rng import RandomStream

TRAP_VARS = 4
TRAP_FACTOR_DEGREE = 5
TRAP_COFACTOR_DEGREE = 10
TRAP_SPREAD = 7
_COEFF_LO, _COEFF_HI = -9, 9


def _random_int_poly(nvars, degree, stream):
    mons = _monomials(nvars, degree)
    # graded order: the monomials of the top degree come last
    top = len(mons) - comb(nvars + degree - 1, degree)
    span = _COEFF_HI - _COEFF_LO + 1
    while True:
        coeffs = [_COEFF_LO + c for c in stream.below_many(span, len(mons))]
        if any(coeffs[top:]):  # keep the nominal degree exact
            return {e: c for e, c in zip(mons, coeffs) if c}


@dataclass(frozen=True)
class ProductTrapFixture:
    """f = f1*f2 + 7*f3 with integer coefficients in [-9, 9].

    Reduced mod 7 the cofactor term drops and f becomes the product f1*f2,
    an obvious reducible; at any other prime the extra term generically
    restores irreducibility.  Useful as a ground-truth pair for verdict
    testing: same integer polynomial, opposite expected answers depending
    on the reduction prime.

    The maps are those make_product_trap_fixture builds: int coefficients
    on tuples of TRAP_VARS ints >= 0.  reduce_mod and factors_mod adopt
    their reductions unchecked, so a fixture made by hand must hold such
    maps too.
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
    # from_int's c % p * one, without a method call per coefficient
    p, one = field.p, field.one
    return SparsePolynomial._adopt(
        field, TRAP_VARS, {e: c % p * one for e, c in terms.items() if c % p}
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
    f1f2 = _product(f1, f2, operator.add, operator.mul).items()
    f = _collect([*f1f2, *((e, TRAP_SPREAD * c) for e, c in f3.items())], operator.add)
    return ProductTrapFixture(seed=seed, f1=f1, f2=f2, f3=f3, f=f)
