"""Frozen reference kernel: how fast the machine runs at the moment of measurement.

The host's speed drifts by tens of percent over seconds and minutes, and the
drift is shared by everything that runs on it.  The benchmark runs this
kernel between operations and rescales each operation's wall time to the
speed at which the kernel takes `NOMINAL_S`.  The kernel imports nothing
from the package, so no change to the package can move it; its mix follows
the package's hot path: restricted-growth-string enumeration, float
products, `math.fsum` and `math.comb` Leibniz sums.  It is pure Python and
imports no numpy, so it can run before a timed `import etcphd`.
"""

from __future__ import annotations

import math
import time

NOMINAL_S = 0.02

# Nominal time for `setup_probe.py --reference` to import its fixed set of
# standard-library modules; the import part of set-up time is rescaled by it.
NOMINAL_IMPORT_S = 0.05

_LABELS = 8
_WEIGHTS = [1.0 + 0.01 * k for k in range(1 << _LABELS)]
_SERIES = [[0.5 + 0.001 * ((i * j) % 17) for i in range(20)] for j in range(80)]
_GRID = [0.5 + k / 20000.0 for k in range(20000)]


def _partition_sum() -> float:
    n = _LABELS
    a = [0] * n
    b = [1] * n
    terms = []
    while True:
        masks: dict[int, int] = {}
        for label, block in enumerate(a):
            masks[block] = masks.get(block, 0) | (1 << label)
        product = 1.0
        for mask in masks.values():
            product *= _WEIGHTS[mask]
        terms.append(product)
        j = n - 1
        while j > 0 and a[j] >= b[j]:
            j -= 1
        if j == 0:
            return math.fsum(terms)
        a[j] += 1
        for i in range(j + 1, n):
            a[i] = 0
            b[i] = max(b[j], a[j] + 1) if i == j + 1 else max(b[i - 1], a[i - 1] + 1)


def _leibniz_sum() -> float:
    total = 0.0
    for left, right in zip(_SERIES, _SERIES[1:]):
        for n in range(len(left)):
            total += math.fsum(math.comb(n, i) * left[i] * right[n - i] for i in range(n + 1))
    return total


def _grid_sum() -> float:
    return math.fsum([a * b for a, b in zip(_GRID, reversed(_GRID))])


def run_once() -> float:
    """Wall time of one pass of the kernel, in seconds."""
    start = time.perf_counter()
    _partition_sum()
    _leibniz_sum()
    _grid_sum()
    return time.perf_counter() - start

