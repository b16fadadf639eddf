"""Monte Carlo irreducibility testing over finite fields by zero counting.

The reducibility signal: a uniform point is a zero of an irreducible
polynomial with probability about 1/q, but of a nontrivial product with
probability about (2q - 1)/q^2.  Planning picks a sample size at which the
two regimes separate; sampling any zero-test oracle then yields a
calibrated verdict.
"""

from .errors import (
    ArityMismatch,
    DivisionByZero,
    DomainTooLarge,
    EmptyList,
    Error,
    FieldMismatch,
    InfeasibleOrder,
    NonPrimeCharacteristic,
    OrderOverflow,
    PolySyntaxError,
    RangeError,
    ReducibleModulus,
    TooLarge,
    UnknownVariable,
    UnsupportedSize,
)
from .fields import (
    ExtensionField,
    Field,
    FieldSpec,
    GF,
    PrimeField,
    extension_of,
    find_irreducible,
    is_prime,
    make_field,
)
from .rng import RandomStream, philox4x32
from .polynomials import (
    SparsePolynomial,
    format_poly,
    monomials_up_to,
    parse_poly,
    random_dense_poly,
    total_degree,
)
from .blackbox import (
    BlackBox,
    PolyMatrix,
    CURVE_MATRIX_ENTRIES,
    curve_determinantal_matrix,
    det_rank_bb,
    from_poly,
    intersection_bb,
    load_poly_matrix,
    matrix_rank,
    parse_matrix_text,
    product_bb,
    singular_curve_bb,
    substitute_bb,
    ternary_monomials,
)
from .stats import (
    BinomialModel,
    ConfidenceInterval,
    NormalApprox,
    brute_force_distribution,
    det_expectation,
    gamma_model,
    intersection_expectation,
    intersection_model,
    inverse_tail_quantile,
    product_model,
    substitution_model,
    wald_interval,
)
from .planner import (
    COMPAT_S,
    TABLE_NS,
    TABLE_QS,
    TestPlan,
    adjusted_probabilities,
    emit_table_csv,
    estimate_N_bound,
    p_middle,
    p_middle_geometric,
    plan_test,
    required_N,
    table_grid,
)
from .estimator import (
    INFEASIBLE,
    LIKELY_IRREDUCIBLE,
    LIKELY_REDUCIBLE,
    MODE_EXACT,
    MODE_SAMPLED,
    SampleReport,
    Verdict,
    count_zeros,
    count_zeros_range,
    estimate_gamma,
    exact_gamma,
    run_irreducibility_test,
    sample_points,
)
from .fixtures import ProductTrapFixture, make_product_trap_fixture

__version__ = "0.1.0"
