"""Reference computation: fixed work outside designforge, timed right before
and right after every job of a benchmark run.

On a shared host the processor's speed swings by 10-50% within seconds, as
other tenants load the core, its caches and the memory bus.  A job's time
divided by the mean of the reference times around it cancels most of that
swing.  The work resembles the jobs': an 11-term three-term recurrence in
double-double arithmetic over 40k values, cache-resident like the dd energy,
and a float64 recurrence over 1M values, memory-bound like the MZ check's
series over its grid.  It imports nothing from designforge, so that no
change to the program changes the reference.

Run as a helper process: each line read from stdin runs the work once and
prints its time in seconds.
"""

import sys
import time

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1
DD_VALUES = 40_000
DD_TERMS = 11
FLOAT_VALUES = 1_000_000
FLOAT_TERMS = 7


def _two_prod(a, b):
    p = a * b
    ca = _SPLITTER * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLITTER * b
    bhi = cb - (cb - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _dd_add(x, y):
    s = x[0] + y[0]
    bb = s - x[0]
    err = (x[0] - (s - bb)) + (y[0] - bb) + (x[1] + y[1])
    hi = s + err
    return hi, err - (hi - s)


def _dd_mul(x, y):
    p, err = _two_prod(x[0], y[0])
    err = err + (x[0] * y[1] + x[1] * y[0])
    hi = p + err
    return hi, err - (hi - p)


def work(t_dd, t_float):
    """One run: Chebyshev-type recurrences over both operands."""
    t = (t_dd, np.zeros_like(t_dd))
    prev, cur = (np.ones_like(t_dd), np.zeros_like(t_dd)), t
    acc = cur
    for _ in range(2, DD_TERMS + 1):
        twice = _dd_mul(t, cur)
        prev, cur = cur, _dd_add((2.0 * twice[0], 2.0 * twice[1]), (-prev[0], -prev[1]))
        acc = _dd_add(acc, cur)
    prev, cur = np.ones_like(t_float), t_float.copy()
    total = cur.copy()
    for _ in range(2, FLOAT_TERMS + 1):
        prev, cur = cur, 2.0 * t_float * cur - prev
        total += cur
    return float(acc[0][0] + total[0])


def main():
    rng = np.random.default_rng(0)
    t_dd = rng.uniform(-1.0, 1.0, DD_VALUES)
    t_float = rng.uniform(-1.0, 1.0, FLOAT_VALUES)
    for _ in sys.stdin:
        start = time.perf_counter()
        work(t_dd, t_float)
        print(time.perf_counter() - start, flush=True)


if __name__ == "__main__":
    main()
