"""Scalar maximization shared by the model fits."""

from __future__ import annotations

import math


def golden_max(fun, lo: float, hi: float, iters: int) -> float:
    """Golden-section maximization of a unimodal scalar function on [lo, hi].

    Runs a fixed number of bracket reductions, each shrinking the bracket
    by 1/phi, and returns the midpoint of the final bracket.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)
