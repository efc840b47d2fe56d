"""The convolution kernel, and the hook point that series products call."""

from fractions import Fraction as F

import qident
from qident import backend
from qident.field import AlgebraicNumber as A
from qident.series import PuiseuxSeries as P
from test_series import oracle_mul


def test_a_backend_was_selected():
    assert qident.KERNEL_BACKEND == backend.KERNEL_BACKEND == "python"


def test_convolve_is_polynomial_multiplication():
    # (1 + q)(1 - q) = 1 - q^2
    assert backend.convolve_rational([1, 1], [1, -1], 3) == [1, 0, -1]
    # (1 + q)^2 truncated below q^2, and an empty factor
    assert backend.convolve_rational([1, 1], [1, 1], 2) == [1, 2]
    assert backend.convolve_rational([], [1, 1], 2) == [0, 0]


def test_convolve_handles_bigints():
    big = 10**40
    assert backend.convolve_rational([big, -big], [big, big], 2) == [
        big * big, 0]


def test_products_call_the_kernels_through_backend(monkeypatch):
    # outside tools (the benchmark's tracer) rebind this name on
    # `qident.backend`; a product that bypassed it would go unseen.  One
    # rational convolution per nonzero part pair: 1 for rational factors,
    # 2 when one factor has a sqrt2 part, 3 when both have one
    calls = []
    kernel = backend.convolve_rational

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(backend, "convolve_rational", counting)
    rational = P({n: n + 1 for n in range(12)}, 12)
    mixed = P({F(n, 2): A(1, n) for n in range(12)}, 6)
    pure = P({F(n, 3): A(0, n + 1) for n in range(12)}, 4)
    for a, b, n in [(rational, rational, 1),
                    (rational, mixed, 2), (mixed, rational, 2),
                    (pure, rational, 2), (rational, pure, 2),
                    (mixed, mixed, 3), (mixed, pure, 3), (pure, pure, 3)]:
        calls.clear()
        assert a * b == oracle_mul(a, b)
        assert len(calls) == n
