"""Exact counting and identity verification for shifted-product equations.

Counts solutions of (x_1 + theta) ... (x_k + theta) = (y_1 + theta) ...
(y_k + theta) over 1 <= x_i, y_i <= X exactly, for transcendental, algebraic
and rational shifts theta, and machine-checks the factorization identities
that explain why irrational shifts leave almost only diagonal solutions.
"""

from .counting import (
    CapacityError,
    CountReport,
    ProductTable,
    SolutionPair,
    build_product_table,
    cancel_common_factors,
    count_mean_value,
    diagonal_count_exact,
    find_nondiagonal_witnesses,
    representation_count,
)
from .polynomials import (
    MinimalPolynomial,
    Poly,
    elementary_symmetric,
    norm_factor,
    reduce_mod_minpoly,
    shift_product_poly,
)
from .shifts import (
    Algebraic,
    CanonicalProduct,
    Rational,
    Shift,
    Transcendental,
    format_shift,
    minimal_polynomial_for,
    parse_shift,
    shifted_product,
)
from .verify import (
    InsufficientDataError,
    NonIntegralQuotientError,
    NotASolutionError,
    PreconditionViolationError,
    WitnessReport,
    factor_out_minpoly,
    fit_growth_exponent,
    norm_identity_check,
    product_difference,
    reference_exponent,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "Algebraic",
    "CanonicalProduct",
    "CapacityError",
    "CountReport",
    "InsufficientDataError",
    "MinimalPolynomial",
    "NonIntegralQuotientError",
    "NotASolutionError",
    "Poly",
    "PreconditionViolationError",
    "ProductTable",
    "Rational",
    "Shift",
    "SolutionPair",
    "Transcendental",
    "WitnessReport",
    "build_product_table",
    "cancel_common_factors",
    "count_mean_value",
    "diagonal_count_exact",
    "elementary_symmetric",
    "factor_out_minpoly",
    "find_nondiagonal_witnesses",
    "fit_growth_exponent",
    "format_shift",
    "minimal_polynomial_for",
    "norm_factor",
    "norm_identity_check",
    "parse_shift",
    "product_difference",
    "reduce_mod_minpoly",
    "reference_exponent",
    "representation_count",
    "shift_product_poly",
    "shifted_product",
    "verify_witness",
]
