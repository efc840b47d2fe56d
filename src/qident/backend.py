"""Convolution kernel: the truncated Cauchy product of two int arrays.

It is the kernel of every dense series product.  Fractional parts are
factored out by the caller, so it runs on plain (unbounded) ints, and a
Z[sqrt2] product is assembled from up to three calls in
:meth:`qident.series.PuiseuxSeries._mul_packed`.  A product of operands
with few nonzero terms skips it: each call touches every output slot,
and :meth:`qident.series.PuiseuxSeries._mul_dense` multiplies such
operands term pair by term pair instead.

The kernel is Kronecker substitution (D. Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic
Comput. 2009): each array becomes one Python int with w bytes a slot,
the two ints are multiplied once, and the slots of the product are read
back.  :func:`pack` and :func:`unpack` are shared with the packed fills
of :mod:`qident.blocks`.
"""

import struct
import sys

KERNEL_BACKEND = "python"

# the native signed formats :func:`unpack` casts to, by width in bytes
_CASTS = ({w: f for w, f in ((1, "b"), (2, "h"), (4, "i"), (8, "q"))
           if struct.calcsize(f) == w} if sys.byteorder == "little" else {})


def slot_bytes(bits) -> int:
    """Bytes a signed slot needs for values below 2**bits in magnitude:
    the bits, one sign bit, rounded up to whole bytes."""
    return (bits + 8) // 8


def product_bytes(abits, bbits, count) -> int:
    """Slot width of a product of arrays whose values lie below 2**abits
    and 2**bbits: a slot sums at most `count` (the shorter length)
    products, so it lies below 2**(abits + bbits + count.bit_length())."""
    return slot_bytes(abits + bbits + count.bit_length())


def pack(values, w) -> int:
    """sum values[k] * 2**(8*w*k), each |values[k]| below 2**(8*w).

    The positive and negative parts are laid out as bytes apart, so each
    value converts once with int.to_bytes.
    """
    zero = bytes(w)
    pos = b"".join([v.to_bytes(w, "little") if v > 0 else zero for v in values])
    x = int.from_bytes(pos, "little")
    if min(values, default=0) < 0:
        neg = b"".join([(-v).to_bytes(w, "little") if v < 0 else zero
                        for v in values])
        x -= int.from_bytes(neg, "little")
    return x


def unpack(x, w, n) -> list:
    """The first n signed w-byte slots of x, read modulo 2**(8*w*n), so x
    may be negative or longer.

    Adding 2**(8*w - 1) to every slot makes each one a plain byte string
    in [0, 2**(8*w)) without carries, provided every slot value c has
    |c| < 2**(8*w - 1).  For a width of a machine int (1, 2, 4 or 8
    bytes) on a little-endian host, flipping each slot's top bit back
    leaves the slot in two's complement, and one memoryview cast reads
    all of them; any other width takes the bias off slot by slot.
    """
    size = w * n
    half = 1 << (8 * w - 1)
    bias = int.from_bytes(half.to_bytes(w, "little") * n, "little")
    biased = (x + bias) & ((1 << (8 * size)) - 1)
    fmt = _CASTS.get(w)
    if fmt:
        return memoryview((biased ^ bias).to_bytes(size, "little")).cast(fmt).tolist()
    data = biased.to_bytes(size, "little")
    read = int.from_bytes
    return [read(b, "little") - half for b, in struct.iter_unpack(f"{w}s", data)]


def convolve_rational(ra, rb, nout):
    """Truncated Cauchy product of two integer coefficient arrays.

    Slot k of the result collects ra[i] * rb[j] over i + j = k; only the
    first `nout` slots are produced.  Each operand is cut to `nout` slots
    and to its last nonzero one, and packed at the width of
    :func:`product_bytes`, so every slot of the product fits its bytes
    with a sign bit to spare.
    """
    ra = _trimmed(ra, nout)
    rb = _trimmed(rb, nout)
    if not ra or not rb:
        return [0] * nout
    w = product_bytes(max(map(abs, ra)).bit_length(),
                      max(map(abs, rb)).bit_length(), min(len(ra), len(rb)))
    return unpack(pack(ra, w) * pack(rb, w), w, nout)


def _trimmed(values, nout):
    values = values[:nout]
    n = len(values)
    while n and not values[n - 1]:
        n -= 1
    return values[:n]
