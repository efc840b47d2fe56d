"""Built-in identity catalog.

Every entry is stored as DSL text and parsed on first access, so the
catalog doubles as a parser exercise; ids are stable and the list is
deterministic (the randomized triple-product instances use a fixed,
recorded seed).

Catalog notes: the product of the three theta_1 special values
(theta_1(pi/8) theta_1(2pi/8) theta_1(3pi/8) = 2 eta^3(t) eta(8t)/eta(2t))
has no entry of its own.  Dividing it by 8 q^{3/8} sin(pi/8) sin(2pi/8)
sin(3pi/8) (q;q)^3 reduces it to `prodK`, so it is covered exactly by the
trio {theta1-norm-1/2/3, prodK} plus the numeric sine-product check in
the test suite.  Entries that hold by construction: `theta1-norm-1`/`-3`,
whose right side folds to T1N(k) over an empty map (so the trio's content
is `theta1-norm-2` and `prodK`), and `f-sum-vs-prod` and the 20
`triple-product-rand-*`, whose two sides are the same theta sum, as an
f atom folds as its sum side.  The tests check G1's and
G3's product side, and the triple product by multiplying its Pochhammer
factors one pass at a time (`oracle_theta_product`, `oracle_pass_fill`).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from .dsl import parse_identity
from .verify import Identity

_FR = Fraction

# Seed for the randomized Jacobi-triple-product instances (recorded so
# that catalog ids and golden reports are reproducible).
TRIPLE_PRODUCT_SEED = 1729
TRIPLE_PRODUCT_COUNT = 20

# Expected period-8 values of the three difference tables, as
# (rational, sqrt2) coefficient pairs scaled by 2*sqrt2; `0` means the
# entry vanishes.  One period suffices: the tables are 8-periodic and the
# catalog polynomials cover four periods (k = 0..31).
B_TABLE_PERIOD = {
    1: (0, 1, 1, 0, 0, -1, -1, 0),
    2: (1, 0, 0, 1, -1, 0, 0, -1),
    3: (1, 1, 1, 1, -1, -1, -1, -1),
}


def _b_table_text(i: int) -> str:
    parts = []
    for k in range(32):
        unit = B_TABLE_PERIOD[i][k % 8]
        if unit == 0:
            continue
        term = f"2*sqrt2*q^({k})"
        if not parts:
            parts.append(term if unit > 0 else f"0 - {term}")
        else:
            parts.append(("+ " if unit > 0 else "- ") + term)
    return " ".join(parts)


def _triple_product_entries():
    rng = random.Random(TRIPLE_PRODUCT_SEED)
    grid = [_FR(k, 2) for k in range(1, 17)]
    entries = []
    for n in range(1, TRIPLE_PRODUCT_COUNT + 1):
        a, b = rng.choice(grid), rng.choice(grid)
        s1, s2 = rng.choice("+-"), rng.choice("+-")
        args = f"({s1}q^{a},{s2}q^{b})"
        entries.append(
            (
                f"triple-product-rand-{n:02d}",
                f"fsum{args} == f{args}",
                24,
                False,
                "Jacobi triple product, random monomial instance",
            )
        )
    return entries


# The eta-quotient prefactor shared by all six G-product identities.
_PREF = "eta(4)^(1/2)*eta(1)^(1/4)*eta(8)/(eta(1/2)*eta(2)^(3/4))"
_GGPROD = "H(1)^(1/2)*I(1)^(1/4)"           # sqrt(h) * 4th-root(i)
_GGRATIO = "I(1)^(1/4)/H(1)^(1/2)"          # 4th-root(i) / sqrt(h)
_G112 = "G1(1/2)^(2)*G3(1/2)"
_G122 = "G1(1/2)*G3(1/2)^(2)"
_EIS8 = "lambert(2,1,+1+3-5-7,8)"           # the level-8 odd-m Eisenstein sum


def _entries():
    entries = list(_triple_product_entries())
    entries += [
        ("f-sum-vs-prod",
         "fsum(+q^1,+q^1) == f(+q^1,+q^1)",
         24, False,
         "theta bilateral sum vs triple-product form"),
        ("lemma-f1",
         "f(+q^1,+q^5)*f(+q^2,+q^4) == f(+q^1,+q^2)*psi(3)",
         24, False,
         "theta factorization f(g,gd^2) f(d,g^2d) = f(g,d) psi(gd), instance (1,2)"),
        ("lemma-f2",
         "f(+q^1,+q^2) + f(-q^1,-q^2) == 2*f(+q^5,+q^7)",
         24, False,
         "theta bisection sum rule, instance (1,2)"),
        ("lemma-f3",
         "f(+q^1,+q^2) - f(-q^1,-q^2) == 2*q^(1)*f(+q^1,+q^11)",
         24, False,
         "theta bisection difference rule, instance (1,2)"),
        ("lemma-f4",
         "f(-q^1,-q^2) == f(+q^5,+q^7) - q^(1)*f(+q^1,+q^11)",
         24, False,
         "negative-argument theta split, instance (1,2)"),
        ("hcf-minus",
         "1/H(1) - H(1) == phi(2)/(q^(1/2)*psi(4))",
         20, False,
         "Gollnitz-Gordon fraction: reciprocal difference law"),
        ("hcf-plus",
         "1/H(1) + H(1) == phi(1)/(q^(1/2)*psi(4))",
         20, False,
         "Gollnitz-Gordon fraction: reciprocal sum law"),
        ("theta1-norm-1",
         "T1N(1) == poch(-,1,1)*G1(1)",
         24, False,
         "normalized theta_1 at pi/8 equals (q;q) G1"),
        ("theta1-norm-2",
         "T1N(2) == poch(-,1,1)*G2(1)",
         24, False,
         "normalized theta_1 at 2pi/8 equals (q;q) G2"),
        ("theta1-norm-3",
         "T1N(3) == poch(-,1,1)*G3(1)",
         24, False,
         "normalized theta_1 at 3pi/8 equals (q;q) G3"),
        ("ypoly-8",
         "(1 - q^(1))*(1 + q^(1))*(1 - sqrt2*q^(1) + q^(2))*(1 + q^(2))"
         "*(1 + sqrt2*q^(1) + q^(2)) == 1 - q^(8)",
         12, False,
         "eighth-roots-of-unity factorization of 1 - y^8 over Q(sqrt2)"),
        ("prodK",
         "G1(1)*G2(1)*G3(1) == q^(-1/4)*eta(8)/eta(2)",
         24, False,
         "G1 G2 G3 collapses to an eta quotient"),
        ("fab1",
         "f(-q^2,-q^14) == f(+q^20,+q^44) - q^(2)*f(+q^12,+q^52)",
         60, False,
         "f(-q^2,-q^14) split into positive-argument thetas"),
        ("fab2",
         "f(-q^6,-q^10) == f(+q^28,+q^36) - q^(6)*f(+q^4,+q^60)",
         60, False,
         "f(-q^6,-q^10) split into positive-argument thetas"),
        ("diff-313",
         "G1(1) - G3(1) == 2*sqrt2*q^(25/24)*f(-q^2,-q^14)/eta(1)",
         20, True,
         "G1 - G3 as an eta-weighted theta (printed sign under test)"),
        ("sum-318",
         "(1+sqrt2)*G3(1) - (1-sqrt2)*G1(1)"
         " == 2*sqrt2*q^(1/24)*f(-q^6,-q^10)/eta(1)",
         20, True,
         "(1+sqrt2) G3 - (1-sqrt2) G1 as an eta-weighted theta"),
        ("comb-3113",
         "sqrt2*G3(1) + sqrt2*G1(1) == 2*sqrt2*q^(1/24)"
         "*(f(-q^6,-q^10) - q^(1)*f(-q^2,-q^14))/eta(1)",
         20, True,
         "sqrt2 (G1 + G3) as an eta-weighted theta combination"),
        ("thm31-i",
         f"{_G112} - {_G122} == 2*sqrt2*q^(-3/32)*{_PREF}*{_GGPROD}",
         20, True,
         "G-product difference vs the two continued fractions, part (i)"),
        ("thm31-ii",
         f"{_G112} + {_G122} == 2*q^(-3/32)*{_PREF}*({_GGRATIO} - {_GGPROD})",
         20, True,
         "G-product sum vs the two continued fractions, part (ii)"),
        ("thm31-iii",
         f"(1+sqrt2)*{_G122} - (1-sqrt2)*{_G112}"
         f" == 2*sqrt2*q^(-3/32)*{_PREF}*{_GGRATIO}",
         20, True,
         "weighted G-product difference vs the fractions, part (iii)"),
        ("thm31-iv",
         f"(1-sqrt2)*{_G112} + (1+sqrt2)*{_G122}"
         f" == 2*q^(-3/32)*{_PREF}*({_GGRATIO} + {_GGPROD})",
         20, True,
         "weighted G-product sum vs the fractions, part (iv)"),
        ("thm31-v",
         f"sqrt2*({_G122} + {_G112})"
         f" == 2*sqrt2*q^(-3/32)*{_PREF}*({_GGRATIO} - {_GGPROD})",
         20, True,
         "sqrt2-weighted G-product sum vs the fractions, part (v)"),
        ("thm31-vi",
         f"sqrt2*({_G122} - {_G112}) == 4*q^(-3/32)*{_PREF}*{_GGPROD}",
         20, True,
         "sqrt2-weighted G-product difference vs the fractions, part (vi)"),
        ("btable-1",
         f"btable(1) == {_b_table_text(1)}",
         32, False,
         "difference table B1: four periods of exact values"),
        ("btable-2",
         f"btable(2) == {_b_table_text(2)}",
         32, False,
         "difference table B2: four periods of exact values"),
        ("btable-3",
         f"btable(3) == {_b_table_text(3)}",
         32, False,
         "difference table B3: four periods of exact values"),
        ("e1-thm41",
         f"{_EIS8} == eta(16)^(4)/eta(8)^(2)*(1/H(2) + H(2))",
         24, False,
         "level-8 Eisenstein sum as eta^4(16)/eta^2(8) (1/h(q^2) + h(q^2))"),
        ("e2-cor42",
         f"{_EIS8} == eta(16)^(4)/eta(8)^(2)*phi(2)/(q^(1)*psi(8))",
         24, False,
         "level-8 Eisenstein sum as eta^4(16)/eta^2(8) phi(q^2)/(q psi(q^8))"),
        ("thm43-i",
         "lambert(2,1,+1-3+5-7,8)"
         " == eta(16)^(4)/eta(8)^(2)*phi(4)/(q^(1)*psi(8))",
         24, False,
         "odd-m alternating Eisenstein sum as an eta quotient"),
        ("thm43-ii",
         "lambert(4,1,+1+5,8) - lambert(4,3,+3+7,8)"
         " == eta(32)^(2)*eta(16)/eta(8)*phi(4)/(q^(2)*psi(16))",
         24, False,
         "mod-4 split Eisenstein sums as an eta quotient"),
        ("thm43-iii",
         "lambert(8,1,+1-5,8) - lambert(8,3,+3+7,8) + lambert(8,5,+1+5,8)"
         " - lambert(8,7,+7-3,8)"
         " == eta(16)^(2)*eta(64)^(2)/(eta(8)*eta(32))"
         "*phi(16)/(q^(4)*psi(32))",
         24, False,
         "mod-8 split Eisenstein sums as an eta quotient"),
        ("thm44-i",
         "lambert(1,0,+1-3-5+7,8,m)"
         " == eta(8)^(4)*eta(4)^(2)/eta(2)^(2)*phi(1)/(q^(1/2)*psi(4))",
         24, False,
         "weight-m Eisenstein sum as an eta quotient"),
        ("thm44-ii",
         "lambert(1,0,+1-3-5+7,8,legendre(3))"
         " == eta(1)*eta(2)^(2)*eta(6)*eta(8)^(3)*eta(24)"
         "/(eta(3)*eta(4)^(5))*phi(2)/(q^(1/2)*psi(4))",
         24, False,
         "Legendre-symbol-twisted Eisenstein sum as an eta quotient"),
        ("psi11-spec-a",
         "psi11lhs(16,8,2) == psi11rhs(16,8,2)",
         48, False,
         "Ramanujan 1psi1 summation, specialization (16, 8, 2)"),
        ("psi11-spec-b",
         "psi11lhs(16,8,6) == psi11rhs(16,8,6)",
         48, False,
         "Ramanujan 1psi1 summation, specialization (16, 8, 6)"),
    ]
    return entries


@lru_cache(maxsize=1)
def catalog() -> tuple[Identity, ...]:
    """The deterministic built-in catalog (ids unique, order stable)."""
    out = []
    seen = set()
    for ident, text, order, tolerant, ref in _entries():
        if ident in seen:
            raise AssertionError(f"duplicate catalog id {ident}")
        seen.add(ident)
        lhs, rhs = parse_identity(text)
        out.append(
            Identity(ident, lhs, rhs, _FR(order), ref, sign_tolerant=tolerant)
        )
    return tuple(out)


def catalog_ids() -> list[str]:
    return [idy.id for idy in catalog()]


def get(identity_id: str) -> Identity:
    for idy in catalog():
        if idy.id == identity_id:
            return idy
    raise KeyError(identity_id)
