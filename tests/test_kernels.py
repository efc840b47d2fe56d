"""The convolution kernel, and the hook point that series products call."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import qident
from qident import backend
from qident.field import AlgebraicNumber as A
from qident.series import PuiseuxSeries as P
from test_series import oracle_mul


def oracle_convolve(ra, rb, nout):
    """The schoolbook loop the packed kernel replaced: every nonzero pair
    of slots, one multiply-add each."""
    rc = [0] * nout
    for i in range(min(len(ra), nout)):
        x = ra[i]
        if not x:
            continue
        for j in range(min(len(rb), nout - i)):
            u = rb[j]
            if u:
                rc[i + j] += x * u
    return rc


@st.composite
def kernel_arrays(draw, max_len):
    """A signed int array: bit sizes from 1 to 10^4, runs of zeros, and
    trailing zeros."""
    bits = draw(st.sampled_from([1, 2, 7, 8, 9, 63, 64, 65, 300, 10_000]))
    value = st.integers(-(2**bits - 1), 2**bits - 1)
    body = draw(st.lists(st.one_of(st.just(0), value), max_size=max_len))
    return body + [0] * draw(st.integers(0, 3))


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


@settings(max_examples=200, deadline=None)
@given(kernel_arrays(40), kernel_arrays(40), st.integers(0, 90))
def test_convolve_matches_the_schoolbook_loop(ra, rb, nout):
    # nout runs from 0 past len(ra) + len(rb), so the cut hits either side
    assert backend.convolve_rational(ra, rb, nout) == oracle_convolve(ra, rb, nout)


@settings(max_examples=40, deadline=None)
@example([1], [-(2**10_000 - 1)] * 300, 400)
@given(kernel_arrays(3), kernel_arrays(300), st.integers(1, 400))
def test_convolve_skewed_sizes(short, long, nout):
    assert backend.convolve_rational(short, long, nout) == \
        oracle_convolve(short, long, nout)
    assert backend.convolve_rational(long, short, nout) == \
        oracle_convolve(long, short, nout)


# all values of one sign and of the largest size, summed `count` times:
# the product's widest slot count*(2^a - 1)*(2^b - 1) has bit length
# a + b + count.bit_length(), a whole number of bytes, so a slot of that
# many bytes without a sign bit would be too narrow
@pytest.mark.parametrize("abits, bbits, count",
                         [(3, 3, 3), (11, 11, 3), (30, 31, 7), (100, 98, 3)])
@pytest.mark.parametrize("sign", [1, -1])
def test_widest_slot_keeps_its_sign_bit(abits, bbits, count, sign):
    assert (abits + bbits + count.bit_length()) % 8 == 0
    ra = [sign * (2**abits - 1)] * count
    rb = [2**bbits - 1] * count
    got = backend.convolve_rational(ra, rb, 2 * count)
    assert got == oracle_convolve(ra, rb, 2 * count)
    assert abs(got[count - 1]).bit_length() == abits + bbits + count.bit_length()


@pytest.mark.parametrize("bits", range(1, 42))
def test_slot_bytes_hold_the_bits_and_a_sign(bits):
    # every value below 2^bits in magnitude survives a round trip
    w = backend.slot_bytes(bits)
    values = [2**bits - 1, -(2**bits - 1), 0, 1, -1]
    assert backend.unpack(backend.pack(values, w), w, 5) == values


def test_unpack_reads_slots_modulo_the_length():
    # slots past n and the borrow of a negative top slot do not show
    w = 2
    x = backend.pack([5, -7, 300, -1, 9], w)
    assert backend.unpack(x, w, 3) == [5, -7, 300]
    assert backend.unpack(x, w, 7) == [5, -7, 300, -1, 9, 0, 0]


@pytest.mark.parametrize("w", range(1, 11))
@pytest.mark.parametrize("n", [0, 1, 400])
def test_unpack_reads_the_extreme_slots_on_both_paths(w, n, monkeypatch):
    # slot values 0 and +-(2^(8w - 1) - 1), in a packed int that is
    # negative (its top slot is), and one longer than n slots
    top = 2 ** (8 * w - 1) - 1
    values = [(0, top, -top)[k % 3] for k in range(n)]
    if n:
        values[-1] = -top
    longer = values + [top, -top, 5]
    packed = [backend.pack(values, w), backend.pack(longer, w)]
    assert n == 0 or packed[0] < 0
    native = [backend.unpack(x, w, n) for x in packed]
    assert native == [values, values]
    monkeypatch.setattr(backend, "_CASTS", {})
    assert [backend.unpack(x, w, n) for x in packed] == native


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10), st.data())
def test_unpack_round_trips_pack(w, data):
    top = 2 ** (8 * w - 1) - 1
    values = data.draw(st.lists(st.integers(-top, top), max_size=50))
    x = backend.pack(values, w)
    assert backend.unpack(x, w, len(values)) == values
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backend, "_CASTS", {})
        assert backend.unpack(x, w, len(values)) == values


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
