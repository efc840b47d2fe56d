"""Convolution kernel: the truncated Cauchy product of two int arrays.

It is the one product kernel.  Fractional parts are factored out by the
caller, so the inner loop runs on plain (unbounded) ints, and a Z[sqrt2]
product is assembled from up to three calls in
:meth:`qident.series.PuiseuxSeries._mul_dense`.  The kernel is pure Python.
"""

KERNEL_BACKEND = "python"


def convolve_rational(ra, rb, nout):
    """Truncated Cauchy product of two integer coefficient arrays.

    Slot k of the result collects ra[i] * rb[j] over i + j = k; only the
    first `nout` slots are produced.
    """
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
