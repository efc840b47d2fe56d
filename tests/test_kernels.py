"""Convolution kernels, and the hook points that series products call."""

from fractions import Fraction as F

import qident
from qident import backend
from qident.field import AlgebraicNumber as A
from qident.series import PuiseuxSeries as P


def test_a_backend_was_selected():
    assert qident.KERNEL_BACKEND == backend.KERNEL_BACKEND == "python"


def test_convolve_is_polynomial_multiplication():
    # (1 + q)(1 - q) = 1 - q^2, with a sqrt2 part exercising the cross terms
    rc, ic = backend.convolve([1, 1], [0, 1], [1, -1], [0, 0], 3)
    assert rc == [1, 0, -1]
    assert ic == [0, 1, -1]


def test_convolve_handles_bigints():
    big = 10**40
    rc, ic = backend.convolve([big], [big], [big], [big], 1)
    assert rc == [big * big * 3]  # xu + 2yv
    assert ic == [big * big * 2]


def test_products_call_the_kernels_through_backend(monkeypatch):
    # outside tools (the benchmark's tracer) rebind these two names on
    # `qident.backend`; a product that bypassed them would go unseen
    calls = {"convolve": 0, "convolve_rational": 0}

    def counting(name):
        kernel = getattr(backend, name)

        def wrapper(*args):
            calls[name] += 1
            return kernel(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(backend, name, counting(name))
    rational = P({n: n + 1 for n in range(12)}, 12)
    assert (rational * rational).coefficient(1) == A(4)
    irrational = P({F(n, 2): A(1, n) for n in range(12)}, 6)
    assert (irrational * irrational).coefficient(F(1, 2)) == A(2, 2)
    assert calls == {"convolve": 1, "convolve_rational": 1}
