"""Convolution kernels: truncated Cauchy products on Z[sqrt2] int arrays.

Coefficients are integer pairs ``(r, i)`` standing for ``r + i*sqrt2``;
fractional parts are factored out by the caller, so the inner loops run on
plain (unbounded) ints.  The kernels are pure Python.
"""

KERNEL_BACKEND = "python"


def convolve(ra, ia, rb, ib, nout):
    """Truncated Cauchy product of two Z[sqrt2] coefficient arrays.

    Slot k of the result collects all products with i + j = k, using
    (x + y*sqrt2)(u + v*sqrt2) = (xu + 2yv) + (xv + yu)*sqrt2.  Only the
    first `nout` slots are produced.
    """
    rc = [0] * nout
    ic = [0] * nout
    na = min(len(ra), nout)
    for i in range(na):
        x = ra[i]
        y = ia[i]
        if not x and not y:
            continue
        nb = min(len(rb), nout - i)
        for j in range(nb):
            u = rb[j]
            v = ib[j]
            if u or v:
                k = i + j
                rc[k] += x * u + 2 * y * v
                ic[k] += x * v + y * u
    return rc, ic


def convolve_rational(ra, rb, nout):
    """Same as :func:`convolve` when both irrational parts vanish."""
    rc = [0] * nout
    na = min(len(ra), nout)
    for i in range(na):
        x = ra[i]
        if not x:
            continue
        nb = min(len(rb), nout - i)
        for j in range(nb):
            u = rb[j]
            if u:
                rc[i + j] += x * u
    return rc
