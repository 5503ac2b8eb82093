"""Host speed probe of the gqw benchmark.

The benchmark runs on a few cores of a shared host whose speed drifts in
phases lasting about a minute: one fixed input can take twice as long in a
slow phase as in a fast one, and the processes run slower rather than wait
(their CPU time grows with their wall time).  A run of the benchmark is
shorter than such a phase, so the median of its reps still carries it.

``chunk()`` times a fixed pure-Python job that uses no gqw code, so no change
to gqw moves it: exact rational arithmetic with dict updates on tuple keys
and short-lived sorted tuples (the kind of work the expression kernel does)
and 2x2 float tuple products (the kind ``mpc_group`` does).  ``run.py``
times a chunk between every two reps of a workload, and ``factor()`` turns
the chunks around a rep into the host's slowdown against the nominal
machine, on which a chunk takes ``NOMINAL_S``: a 2-vCPU 2.1 GHz x86 VM with
Python 3.11.

Over 126 interleaved reps of the three workloads on that VM, dividing each
rep by the chunk timed next to it cut the spread of 5-rep medians (standard
deviation of their logarithm) from 0.126 to 0.095 on check-bundled, 0.147 to
0.060 on symbolic-corpus and 0.152 to 0.042 on identities.  A chunk of one
kind of work alone, or one host factor for a whole run, did worse.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_S = 0.3


def chunk() -> float:
    """Seconds the reference job takes now."""
    t0 = time.perf_counter()
    # exact rationals summed into a small dict, with a 2x2 product per round
    acc: dict = {}
    m = (1.0, 0.5, -0.25, 1.0)
    third = Fraction(3, 7)
    for i in range(30000):
        key = (i % 101, i % 7)
        acc[key] = acc.get(key, 0) + Fraction(i % 97 + 1, i % 13 + 1) * third
        a, b, c, d = m
        m = (a * 0.5 + b * c * 0.1, a * b * 0.3 + b * d * 0.2,
             c * a * 0.1 + d * c * 0.4, c * b * 0.2 + d * d * 0.5)
        if abs(m[0]) < 1e-6:
            m = (1.0, 0.5, -0.25, 1.0)
    # many short-lived dicts and sorted tuples, as canonical terms are built
    terms: list = []
    for i in range(3700):
        d = {("p", j % 5, i % 3): Fraction(j + 1, i % 11 + 1) for j in range(8)}
        terms.append(tuple(sorted(d.items(), key=lambda kv: kv[0])))
        if len(terms) > 3000:
            terms = terms[1500:]
    # 2x2 float tuple products, as in the matrix exponential
    x = (0.3, 0.1, -0.2, 0.4)
    total = 0.0
    for i in range(40000):
        a, b, c, d = x
        y = (a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d)
        total += abs(y[0]) + abs(y[3])
        x = tuple(v / (1.0 + total * 1e-9) for v in (0.3, 0.1 + 1e-7 * i, -0.2, 0.4))
    return time.perf_counter() - t0


def factor(before: float, after: float) -> float:
    """The host's slowdown over a stretch of the run, from the chunks timed
    right before and right after it.  Dividing a time measured in that
    stretch by it gives the time on the nominal machine."""
    return (before + after) / (2 * NOMINAL_S)
