"""Floating-point continued-fraction evaluation.

The only analytic (non-formal) corner of the package: modified Lentz
evaluation of the general two-parameter continued fraction and of the
two special fractions h and i, for comparison against their truncated
product-series values on a sample grid inside the unit interval.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# Lentz floor substituted for vanishing partial denominators.
_TINY = 1e-30


class CFEvaluation(NamedTuple):
    """Outcome of one continued-fraction evaluation.

    `residual` is the absolute difference of the last two convergents of
    the reported value; `converged` implies residual <= the requested
    tolerance.  `tiny_denominator` flags any Lentz floor substitution.
    """

    value: float
    depth_used: int
    converged: bool
    residual: float
    tiny_denominator: bool = False


def _lentz(b0, a_fn, b_fn, tol, max_depth, transform=lambda v: v,
           residual_trace=None):
    """Modified Lentz iteration for b0 + K(a_n / b_n).

    Convergence is measured on `transform` of the running convergent
    (the reported value), matching the returned residual.
    """
    flagged = False
    f = b0 if b0 != 0.0 else _TINY
    if f == _TINY:
        flagged = True
    c = f
    d = 0.0
    out_prev = transform(f)
    residual = math.inf
    depth = 0
    for n in range(1, max_depth + 1):
        an = a_fn(n)
        bn = b_fn(n)
        d = bn + an * d
        if d == 0.0:
            d = _TINY
            flagged = True
        c = bn + an / c
        if c == 0.0:
            c = _TINY
            flagged = True
        d = 1.0 / d
        f *= c * d
        out = transform(f)
        residual = abs(out - out_prev)
        out_prev = out
        depth = n
        if residual_trace is not None:
            residual_trace.append(residual)
        if residual <= tol:
            return CFEvaluation(out, depth, True, residual, flagged)
    return CFEvaluation(out_prev, depth, False, residual, flagged)


def eval_general_cf(k: float, l: float, q: float, tol: float = 1e-12,
                    max_depth: int = 500) -> CFEvaluation:
    """The general continued fraction with head 1/(1-kl) and partial
    numerators (k - l q^{2n-1})(l - k q^{2n-1}), partial denominators
    (1-kl)(q^{2n} + 1).

    Requires |kl| < 1 and |q| < 1.  Its value equals the Pochhammer ratio
    (k^2 q^3; q^4)(l^2 q^3; q^4) / ((k^2 q; q^4)(l^2 q; q^4)).
    """
    if not (abs(k * l) < 1 and abs(q) < 1):  # NaN, inf * 0 included
        raise ValueError("need |kl| < 1 and |q| < 1")
    head = 1.0 - k * l

    def a_fn(n):
        qp = q ** (2 * n - 1)
        return (k - l * qp) * (l - k * qp)

    def b_fn(n):
        return head * (q ** (2 * n) + 1.0)

    return _lentz(head, a_fn, b_fn, tol, max_depth, transform=lambda v: 1.0 / v)


def gcf_product_value(k: float, l: float, q: float, factors: int = 200) -> float:
    """Numeric Pochhammer-ratio side of the general continued fraction."""
    num = den = 1.0
    for j in range(factors):
        q4j = q ** (4 * j)
        num *= (1.0 - k * k * q ** 3 * q4j) * (1.0 - l * l * q ** 3 * q4j)
        den *= (1.0 - k * k * q * q4j) * (1.0 - l * l * q * q4j)
    return num / den


def eval_h_cf(q: float, tol: float = 1e-12, max_depth: int = 500,
              residual_trace=None) -> CFEvaluation:
    """q^{1/2} / (1 + q + q^2/(1 + q^3 + q^4/(1 + q^5 + ...))).

    Partial numerators q^{2n}, partial denominators 1 + q^{2n+1}.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("need 0 < q < 1")
    sq = math.sqrt(q)
    return _lentz(
        1.0 + q,
        lambda n: q ** (2 * n),
        lambda n: 1.0 + q ** (2 * n + 1),
        tol,
        max_depth,
        transform=lambda v: sq / v,
        residual_trace=residual_trace,
    )


def eval_i_cf(q: float, tol: float = 1e-12, max_depth: int = 500,
              residual_trace=None) -> CFEvaluation:
    """1 / (1 + q/(1 + (q^2+q)/(1 + q^3/(1 + (q^4+q^2)/(1 + ...))))).

    Partial numerators alternate q^{2t-1} and q^{2t} + q^t; all partial
    denominators are 1.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("need 0 < q < 1")

    def a_fn(n):
        t = (n + 1) // 2
        if n % 2:
            return q ** (2 * t - 1)
        return q ** (2 * t) + q ** t

    return _lentz(
        1.0,
        a_fn,
        lambda n: 1.0,
        tol,
        max_depth,
        transform=lambda v: 1.0 / v,
        residual_trace=residual_trace,
    )
