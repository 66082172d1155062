"""Statistics shared by run.py and the benchmark's tests.

Percentiles are nearest-rank: the p-th percentile of n sorted samples is
sample ceil(p * n) (1-based), so it is always a measured value. A
percentile is only reported when at least ten samples lie above it.
"""

import math
import statistics

MIN_TAIL = 10


def percentile(values, p):
    """Nearest-rank percentile, p in (0, 1]."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(p * n))


def tail_ok(n, p):
    """True when the p-th percentile of n samples has >= 10 beyond it."""
    return samples_beyond(n, p) >= MIN_TAIL


def min_samples(p):
    """Smallest n for which the p-th percentile keeps 10 samples beyond."""
    n = 1
    while not tail_ok(n, p):
        n += 1
    return n


def spread(values):
    """Interquartile distance as a share of the median (the acceptance
    rule's noise measure)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def within_bound(parent, child, better, bound):
    """True when `child` is not worse than `parent` by more than `bound`
    (a share of `parent`)."""
    if better == "lower":
        return child <= parent * (1.0 + bound)
    if better == "higher":
        return child >= parent * (1.0 - bound)
    raise ValueError("better must be 'lower' or 'higher'")
