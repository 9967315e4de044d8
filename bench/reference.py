"""A fixed reference kernel that times the machine, not griforge.

On a shared host the CPU speed moves by up to half, in spells from a
few seconds to minutes, as neighbours load it. The benchmark runs this
kernel between consecutive ops and divides each op's time by the
kernel's time around it, so that an op's figure is its cost at one
fixed machine speed: the speed at which the kernel takes ``REF_S``.

The kernel mixes the two kinds of arithmetic griforge spends its time
on: exact ``Fraction`` arithmetic on growing integers, as in LLL, and
small-integer modular arithmetic, as in the ring and field layers. It
uses the standard library only and no griforge code, so a change to
griforge cannot change its cost.
"""

import random
import time
from fractions import Fraction

# A fixed scale: about the kernel's median time on an x86_64 Xeon VM with
# 2 vCPUs under CPython 3.11.7 (7 ms at its fastest, 11 ms median over a
# run). The figures the benchmark reports are op times on a machine that
# runs the kernel in exactly this time.
REF_S = 0.010

_rng = random.Random(20080119)
_MATRIX = [[_rng.randrange(-2**20, 2**20) for _ in range(10)] for _ in range(10)]


def kernel() -> int:
    """Exact Gram-Schmidt of a fixed 10x10 integer matrix, then a modular loop."""
    basis = []
    for row in _MATRIX:
        v = [Fraction(x) for x in row]
        for b, b_sq in basis:
            mu = sum(x * y for x, y in zip(row, b)) / b_sq
            v = [x - mu * y for x, y in zip(v, b)]
        basis.append((v, sum(x * x for x in v)))
    acc = 0
    for i in range(20000):
        acc = (acc * 31 + i) % 1000003
    return acc + len(basis)


def seconds() -> float:
    """Wall time of one run of the kernel."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
