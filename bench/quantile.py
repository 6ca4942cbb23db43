"""The Harrell-Davis quantile estimator, in the standard library only.

A sample quantile is one order statistic, so on a few dozen latencies it
moves with the noise of a single query.  The Harrell-Davis estimate is a
weighted mean of all order statistics, the weights being the probability
that a Beta(p(n+1), (1-p)(n+1)) variable falls in each one's slot; it
estimates the same quantile with a fraction of the noise.  Near p = 1 it
gives the largest values weights that are small but not negligible, so
the benchmark uses it for the median only.
"""

from __future__ import annotations

import math


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta ({a}, {b}, {x}) did not converge")


def betainc(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _betacf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _betacf(b, a, 1.0 - x) / b


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of `values`, 0 < p < 1."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    total = 0.0
    below = 0.0
    for i, x in enumerate(xs, 1):
        upto = betainc(a, b, i / n)
        total += (upto - below) * x
        below = upto
    return total
