"""qident: exact verification of q-series and theta-function identities.

Series arithmetic runs over truncated Puiseux series with rational
exponents and coefficients in Q(sqrt2); a built-in catalog covers the
Gollnitz-Gordon and order-four continued fractions, their theta/eta
product representations, and level-8 Eisenstein sums.
"""

from .backend import KERNEL_BACKEND
from .blocks import (
    PochSpec,
    ThetaSpec,
    b_value,
    eta,
    gamma_k,
    h_series,
    i_series,
    phi,
    pochhammer,
    psi,
    sine_ratio_table,
    theta1_normalized,
    theta_product,
    theta_sum,
)
from .catalog import catalog, catalog_ids, get
from .cfrac import CFEvaluation, eval_general_cf, eval_h_cf, eval_i_cf
from .dsl import ParseError, parse_expression, parse_identity, render, render_identity
from .expr import evaluate_to_order
from .field import ONE, SQRT2, ZERO, AlgebraicNumber
from .lambert import (
    BilateralSpec,
    LambertSpec,
    bilateral_1psi1_lhs,
    bilateral_1psi1_rhs,
    bilateral_term,
    lambert_sum,
    legendre_symbol,
)
from .series import (
    InsufficientPrecisionError,
    LeadingCoefficientError,
    Mismatch,
    PuiseuxSeries,
    SlotBudgetError,
)
from .verify import Identity, VerificationReport, report_json, verify, verify_many

__version__ = "0.1.0"

__all__ = [
    "AlgebraicNumber", "ZERO", "ONE", "SQRT2",
    "PuiseuxSeries", "Mismatch",
    "InsufficientPrecisionError", "LeadingCoefficientError", "SlotBudgetError",
    "PochSpec", "ThetaSpec",
    "pochhammer", "theta_sum", "theta_product", "eta",
    "gamma_k", "sine_ratio_table", "b_value", "theta1_normalized",
    "h_series", "i_series", "phi", "psi",
    "CFEvaluation", "eval_general_cf", "eval_h_cf", "eval_i_cf",
    "LambertSpec", "BilateralSpec", "legendre_symbol", "lambert_sum",
    "bilateral_term", "bilateral_1psi1_lhs", "bilateral_1psi1_rhs",
    "evaluate_to_order",
    "ParseError", "parse_identity", "parse_expression", "render",
    "render_identity",
    "Identity", "VerificationReport", "verify", "verify_many", "report_json",
    "catalog", "catalog_ids", "get",
    "KERNEL_BACKEND",
    "__version__",
]
