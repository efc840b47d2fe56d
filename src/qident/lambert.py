"""Eisenstein/Lambert-type sums and the bilateral 1psi1 summation.

Congruence-restricted sums sum_m w(m) q^{a m} / (1 - q^{b m}) expand by
writing each reciprocal as a geometric series; the bilateral sum
sum_j z^j / (1 - x q^j) is specialized to x = q^alpha, z = q^beta over
the base q^s, where both index directions produce exponents growing to
infinity.  Its product side, by Ramanujan's 1psi1 summation, is a
quotient of Pochhammer families (:func:`product_families`), filled in
product form like the other family atoms of :mod:`qident.expr`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .blocks import PochSpec, Record
from .series import MAX_SLOT_STEPS, PuiseuxSeries, _fr, check_steps, dense_slots

_FR = Fraction


# Miller-Rabin to the first 13 prime bases decides primality exactly below
# this bound (J. Sorenson and J. Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 2017); a Legendre modulus must lie below it.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_LEGENDRE_P = 3_317_044_064_679_887_385_961_981


def _check_odd_prime(p: int) -> None:
    """Raise ValueError unless p is an odd prime below MAX_LEGENDRE_P, by
    deterministic Miller-Rabin: at most 13 modular powers, whatever p."""
    bad = ValueError(f"legendre(p) needs an odd prime p below {MAX_LEGENDRE_P}")
    if not 3 <= p < MAX_LEGENDRE_P or p % 2 == 0:
        raise bad
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2**s, d odd
    for a in _MR_BASES:
        x = pow(a, (p - 1) >> s, p)
        if x == 1 or a == p:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            raise bad


def _euler_criterion(m: int, p: int) -> int:
    """(m | p) as m^((p-1)/2) mod p, for p known to be an odd prime."""
    t = pow(m, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


def legendre_symbol(m: int, p: int) -> int:
    """Quadratic-residue character of m modulo an odd prime p.

    0 when p | m, otherwise +-1 by Euler's criterion m^((p-1)/2) mod p.
    """
    _check_odd_prime(p)
    return _euler_criterion(m, p)


class LambertSpec(Record):
    """sum over m >= 1, m = residue (mod modulus) of
    w(m) * sum_i c_i q^{a_i m} / (1 - q^{b m}).

    `numerators` lists (c_i, a_i) with c_i = +-1 and a_i >= 1;
    `weight` is "unit" (w = 1), "linear" (w = m) or "legendre"
    (w = (m | legendre_p)).
    """

    __slots__ = ()
    modulus: int
    residue: int
    numerators: tuple[tuple[int, int], ...]
    denom_exponent: int
    weight: str
    legendre_p: int

    def __init__(self, modulus, residue, numerators, denom_exponent,
                 weight="unit", legendre_p=0):
        numerators = tuple(map(tuple, numerators))
        if modulus < 1 or not 0 <= residue < modulus:
            raise ValueError("need modulus >= 1 and 0 <= residue < modulus")
        if denom_exponent < 1:
            raise ValueError("denominator exponent must be positive")
        for c, a in numerators:
            if c not in (1, -1) or a < 1:
                raise ValueError("numerators must be (+-1, positive exponent)")
        if weight not in ("unit", "linear", "legendre"):
            raise ValueError(f"unknown weight {weight!r}")
        if weight == "legendre":
            _check_odd_prime(legendre_p)
        super().__init__(modulus, residue, numerators, denom_exponent,
                         weight, legendre_p)

    def leading_exponent(self) -> int:
        """a_min * m for the least m of the class with a nonzero weight.

        Exact unless the numerators with exponent a_min cancel.  A Legendre
        weight vanishes only at multiples of p; if the first m is one, the
        next is not, unless p divides the modulus and the whole sum is 0.
        """
        m = self.residue or self.modulus
        if self.weight == "legendre" and m % self.legendre_p == 0:
            m += self.modulus
        return min(a for _, a in self.numerators) * m


def _lambert_progressions(spec: LambertSpec, n: int):
    """(head, step, coefficient) of every geometric tail below q^n.

    m runs over its residue class until min_i(a_i) * m reaches n; each m
    of nonzero weight w(m) gives, per numerator (c_i, a_i), the tail
    c_i w(m) (q^{a_i m} + q^{a_i m + b m} + ...).
    """
    # fields read once: each read of a record field is a call
    modulus, numerators, b, weight = (spec.modulus, spec.numerators,
                                      spec.denom_exponent, spec.weight)
    a_min = min(a for _, a in numerators)
    m = spec.residue if spec.residue >= 1 else modulus
    while a_min * m < n:
        if weight == "unit":
            w = 1
        elif weight == "linear":
            w = m
        else:
            w = _euler_criterion(m, spec.legendre_p)
        if w:
            for c, a in numerators:
                yield a * m, b * m, c * w
        m += modulus


def _progression_sum(progressions, low, n, den, order, what) -> PuiseuxSeries:
    """Sum the tails sign * (q^(head/den) + q^((head + step)/den) + ...).

    `progressions()` yields the (head, step, sign) triples afresh on each
    call, heads and steps on the grid 1/den.  Slot e - low of one int array
    holds the coefficient of q^(e/den) for low <= e < n, the grid exponents
    below `order`.  Every term is one slot update, counted before the loop
    as one step, as a slot visit of :func:`~qident.blocks.fill` is: the
    array is dense, so its slot count already bounds the memory.
    The count stops as soon as it passes MAX_SLOT_STEPS, so a refusal
    comes without walking the remaining progressions.
    """
    terms = 0
    for head, step, _ in progressions():
        terms += len(range(head, n, step))
        if terms > MAX_SLOT_STEPS:
            break
    check_steps(terms, f"{what} of at least {terms} terms")
    acc = [0] * (n - low)
    for head, step, sign in progressions():
        for e in range(head - low, n - low, step):
            acc[e] += sign
    return PuiseuxSeries.from_slots(_FR(low, den), den, acc, None, order)


def lambert_sum(spec: LambertSpec, order) -> PuiseuxSeries:
    """Expand the congruence-restricted Lambert sum below `order`, every
    geometric tail on the integer grid; see :func:`_progression_sum`."""
    order = _fr(order)
    n = dense_slots(order)  # the integer exponents below order are e < n
    return _progression_sum(lambda: _lambert_progressions(spec, n),
                            0, n, 1, order, "Lambert sum")


class BilateralSpec(Record):
    """sum_j z^j / (1 - x q^j) at x = q^x_exp, z = q^z_exp, base q^base."""

    __slots__ = ()
    base: Fraction
    x_exp: Fraction
    z_exp: Fraction

    def __init__(self, base, x_exp, z_exp):
        base, x_exp, z_exp = _fr(base), _fr(x_exp), _fr(z_exp)
        if not 0 < x_exp < base:
            raise ValueError("need 0 < x exponent < base exponent")
        if not 0 < z_exp < base:
            raise ValueError("need 0 < z exponent < base exponent")
        super().__init__(base, x_exp, z_exp)


def _summand(s, alpha, beta, j):
    """(head, step, sign) of the index-j summand: sign * sum_t q^(head + t step).

    For j >= 0 the reciprocal 1 / (1 - q^{alpha + s j}) expands directly.
    For j = -j' < 0 the exponent alpha - s j' is negative, and
    1 / (1 - q^{-u}) = -q^u / (1 - q^u) for u = s j' - alpha > 0, so the
    summand is -q^{-j' beta} q^{j's - alpha} sum_{t>=0} q^{(j's - alpha) t}.
    """
    if j >= 0:
        return beta * j, alpha + s * j, 1
    step = -s * j - alpha
    return beta * j + step, step, -1


def _bilateral_progressions(s: int, alpha: int, beta: int, n: int):
    """The nonempty summands below q^n, as _summand triples on one grid.

    The head of the j-th summand is beta*j for j >= 0 and
    j'(s - beta) - alpha for j = -j', both strictly increasing, so each
    direction stops at the first summand with head >= n.
    """
    for j, direction in ((0, 1), (-1, -1)):
        while True:
            head, step, sign = _summand(s, alpha, beta, j)
            if head >= n:
                break
            yield head, step, sign
            j += direction


def bilateral_1psi1_lhs(spec: BilateralSpec, order) -> PuiseuxSeries:
    """Sum the bilateral series term by term below `order`.

    All exponents lie on the grid 1/den of the spec.  The summands are
    accumulated by :func:`_progression_sum` from the least head, the j = -1
    head s - alpha - beta when that is negative and 0 otherwise.
    """
    order = _fr(order)
    den = math.lcm(spec.base.denominator, spec.x_exp.denominator,
                   spec.z_exp.denominator)
    grid = [int(x * den) for x in (spec.base, spec.x_exp, spec.z_exp)]
    low = min(0, grid[0] - grid[1] - grid[2])
    # grid exponents below order are e < n; the array holds low <= e < n
    n = dense_slots(order * den - low) + low
    return _progression_sum(lambda: _bilateral_progressions(*grid, n),
                            low, n, den, order, "1psi1 sum")


def product_families(spec: BilateralSpec) -> list:
    """The 1psi1 product side (xz, q/xz, q, q; q)_inf / (x, q/x, z, q/z; q)_inf
    over base q^s, as Pochhammer families, the divisors with power -1.

    With 0 < alpha, beta < s from the spec, all eight offsets are positive
    exactly when alpha + beta < s; outside that window the product form
    does not hold and this raises ValueError.
    """
    s, alpha, beta = spec.base, spec.x_exp, spec.z_exp
    if alpha + beta >= s:
        raise ValueError(
            f"the 1psi1 product side needs alpha + beta < s, not "
            f"{alpha} + {beta} >= {s}"
        )
    return ([(PochSpec(-1, off, s), 1) for off in (alpha + beta, s - alpha - beta, s, s)]
            + [(PochSpec(-1, off, s), -1) for off in (alpha, s - alpha, beta, s - beta)])
