"""Eisenstein/Lambert-type sums and the bilateral 1psi1 summation.

Congruence-restricted sums sum_m w(m) q^{a m} / (1 - q^{b m}) expand by
writing each reciprocal as a geometric series; the bilateral sum
sum_j z^j / (1 - x q^j) is specialized to x = q^alpha, z = q^beta over
the base q^s, where both index directions produce exponents growing to
infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .blocks import PochSpec, pochhammer
from .series import PuiseuxSeries

_FR = Fraction


def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def legendre_symbol(m: int, p: int) -> int:
    """Quadratic-residue character of m modulo an odd prime p.

    0 when p | m, otherwise +-1 by Euler's criterion m^((p-1)/2) mod p.
    """
    if not _is_odd_prime(p):
        raise ValueError(f"modulus {p} is not an odd prime")
    t = pow(m % p, (p - 1) // 2, p)
    if t == 0:
        return 0
    return 1 if t == 1 else -1


@dataclass(frozen=True)
class LambertSpec:
    """sum over m >= 1, m = residue (mod modulus) of
    w(m) * sum_i c_i q^{a_i m} / (1 - q^{b m}).

    `numerators` lists (c_i, a_i) with c_i = +-1 and a_i >= 1;
    `weight` is "unit" (w = 1), "linear" (w = m) or "legendre"
    (w = (m | legendre_p)).
    """

    modulus: int
    residue: int
    numerators: tuple[tuple[int, int], ...]
    denom_exponent: int
    weight: str = "unit"
    legendre_p: int = 0

    def __post_init__(self):
        object.__setattr__(self, "numerators", tuple(map(tuple, self.numerators)))
        if self.modulus < 1 or not 0 <= self.residue < self.modulus:
            raise ValueError("need modulus >= 1 and 0 <= residue < modulus")
        if self.denom_exponent < 1:
            raise ValueError("denominator exponent must be positive")
        for c, a in self.numerators:
            if c not in (1, -1) or a < 1:
                raise ValueError("numerators must be (+-1, positive exponent)")
        if self.weight not in ("unit", "linear", "legendre"):
            raise ValueError(f"unknown weight {self.weight!r}")
        if self.weight == "legendre" and not _is_odd_prime(self.legendre_p):
            raise ValueError("legendre weight needs an odd prime modulus")

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


def lambert_sum(spec: LambertSpec, order) -> PuiseuxSeries:
    """Expand the congruence-restricted Lambert sum below `order`.

    m runs over its residue class until min_i(a_i) * m reaches the
    truncation; each term contributes the geometric tail
    q^{a_i m} + q^{a_i m + b m} + ...
    """
    order = _fr(order)
    a_min = min(a for _, a in spec.numerators)
    acc: dict[int, int] = {}
    m = spec.residue if spec.residue >= 1 else spec.modulus
    while a_min * m < order:
        if spec.weight == "unit":
            w = 1
        elif spec.weight == "linear":
            w = m
        else:
            w = legendre_symbol(m, spec.legendre_p)
        if w:
            bm = spec.denom_exponent * m
            for c, a in spec.numerators:
                e = a * m
                cw = c * w
                while e < order:
                    acc[e] = acc.get(e, 0) + cw
                    e += bm
        m += spec.modulus
    return PuiseuxSeries(acc, order)


@dataclass(frozen=True)
class BilateralSpec:
    """sum_j z^j / (1 - x q^j) at x = q^x_exp, z = q^z_exp, base q^base."""

    base: Fraction
    x_exp: Fraction
    z_exp: Fraction

    def __post_init__(self):
        object.__setattr__(self, "base", _fr(self.base))
        object.__setattr__(self, "x_exp", _fr(self.x_exp))
        object.__setattr__(self, "z_exp", _fr(self.z_exp))
        if not 0 < self.x_exp < self.base:
            raise ValueError("need 0 < x exponent < base exponent")
        if not 0 < self.z_exp < self.base:
            raise ValueError("need 0 < z exponent < base exponent")


def bilateral_term(spec: BilateralSpec, j: int, order) -> PuiseuxSeries:
    """The index-j summand q^{beta j} / (1 - q^{alpha + s j}) below `order`.

    For j >= 0 the reciprocal expands directly.  For j = -j' < 0 the
    exponent alpha - s j' is negative, and
    1 / (1 - q^{-u}) = -q^u / (1 - q^u) for u = s j' - alpha > 0, so the
    term is -q^{-j' beta} q^{j's - alpha} sum_{t>=0} q^{(j's - alpha) t}.
    """
    order = _fr(order)
    s, alpha, beta = spec.base, spec.x_exp, spec.z_exp
    if j >= 0:
        head, step, sign = beta * j, alpha + s * j, 1
    else:
        jp = -j
        step = s * jp - alpha
        head, sign = -beta * jp + step, -1
    acc: dict[Fraction, int] = {}
    e = head
    while e < order:
        acc[e] = acc.get(e, 0) + sign
        e += step
    return PuiseuxSeries(acc, order)


def bilateral_1psi1_lhs(spec: BilateralSpec, order) -> PuiseuxSeries:
    """Sum the bilateral series term by term below `order`.

    The least exponent of the j-th term is beta*j for j >= 0 and
    j'(s - beta) - alpha for j = -j', both strictly increasing, so each
    direction stops at the first empty term.
    """
    order = _fr(order)
    out = PuiseuxSeries.zero(order)
    j = 0
    while True:
        t = bilateral_term(spec, j, order)
        if not t:
            break
        out = out + t
        j += 1
    j = -1
    while True:
        t = bilateral_term(spec, j, order)
        if not t:
            break
        out = out + t
        j -= 1
    return out


def bilateral_1psi1_rhs(spec: BilateralSpec, order) -> PuiseuxSeries:
    """(xz, q/xz, q, q; q)_inf / (x, q/x, z, q/z; q)_inf over base q^s."""
    s, alpha, beta = spec.base, spec.x_exp, spec.z_exp
    offsets_num = (alpha + beta, s - alpha - beta, s, s)
    offsets_den = (alpha, s - alpha, beta, s - beta)
    for off in offsets_num + offsets_den:
        if off <= 0:
            raise ValueError(
                f"Pochhammer offset {off} not positive; spec outside the "
                "product form's validity window"
            )
    order = _fr(order)
    out = PuiseuxSeries.one(order)
    for off in offsets_num:
        out = out * pochhammer(PochSpec(-1, off, s), order)
    for off in offsets_den:
        out = out * pochhammer(PochSpec(-1, off, s), order).inverse()
    return out
