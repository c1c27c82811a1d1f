"""Exact rational matrices and linear algebra on top of Python integers.

Probabilities are rationals throughout, so matrices are stored as integer
numerators over a single common denominator, in one numpy array: int64
where the entries are known to fit, Python ints (dtype object) otherwise.
That keeps golden-value tests as equality tests and makes products exact.
Elimination uses the fraction-free (Bareiss) scheme, which bounds
coefficient growth without leaving the integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

from .errors import LengthMismatch, SingularSystem


class ScaledMatrix:
    """A rational matrix as integer numerators `num` over denominator `den`.

    num is a 2-D integer ndarray: int64 when the code that builds it knows
    every row's absolute sum is below 2^63, and dtype object (Python ints,
    arbitrary precision) otherwise, list input included.  den is a positive
    Python int.  Instances are canonicalized (gcd of all entries and den
    divided out) so equality of values is equality of representations.
    """

    __slots__ = ("num", "den", "n", "m")

    def __init__(self, num, den):
        if not isinstance(num, np.ndarray):
            num = np.array([list(map(int, row)) for row in num], dtype=object)
        elif num.dtype != np.int64:
            num = num.astype(object)
        self.num = num
        self.den = int(den)
        self.n, self.m = num.shape
        if self.den < 0:
            self.den = -self.den
            self.num = -self.num
        g = gcd(self.den, int(np.gcd.reduce(self.num, axis=None)))
        if g > 1:
            self.den //= g
            self.num = self.num // g

    def row_sums(self):
        return [Fraction(v, self.den) for v in self.num.sum(axis=1).tolist()]

    def min_entry(self) -> Fraction:
        return Fraction(int(self.num.min()), self.den)

    def __eq__(self, other):
        return (isinstance(other, ScaledMatrix) and other.den == self.den
                and np.array_equal(other.num, self.num))

    def __matmul__(self, other: "ScaledMatrix") -> "ScaledMatrix":
        if self.m != other.n:
            raise LengthMismatch(f"matmul: {self.n}x{self.m} times "
                                 f"{other.n}x{other.m}")
        num = self.num.astype(object).dot(other.num.astype(object))
        return ScaledMatrix(num, self.den * other.den)


def bareiss_echelon(rows):
    """Fraction-free row echelon form of an integer matrix.

    Returns (echelon rows, pivot column list).  Input rows are copied.
    """
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    m = len(a[0]) if n else 0
    piv_cols = []
    prev = 1
    r = 0
    for c in range(m):
        pivot_row = next((i for i in range(r, n) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        for i in range(r + 1, n):
            for j in range(c + 1, m):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        piv_cols.append(c)
        r += 1
        if r == n:
            break
    return a, piv_cols


def nullspace_vector(rows):
    """A nonzero rational right-nullspace vector of an integer matrix.

    Requires the nullspace to be exactly one-dimensional; raises
    SingularSystem otherwise.
    """
    n_cols = len(rows[0])
    ech, piv_cols = bareiss_echelon(rows)
    free = [c for c in range(n_cols) if c not in piv_cols]
    if len(free) != 1:
        raise SingularSystem(
            f"nullspace dimension is {len(free)}, expected 1")
    x = [Fraction(0)] * n_cols
    x[free[0]] = Fraction(1)
    for r in range(len(piv_cols) - 1, -1, -1):
        c = piv_cols[r]
        s = sum(Fraction(ech[r][j]) * x[j] for j in range(c + 1, n_cols))
        x[c] = -s / ech[r][c]
    return x


def stationary_nullspace(matrix: ScaledMatrix):
    """Solve pi * M = pi, sum(pi) = 1 exactly for a stochastic ScaledMatrix."""
    n = matrix.n
    d = matrix.den
    # columns of (M^T - I) scaled by den stay integral
    rows = matrix.num.T.tolist()
    for i in range(n):
        rows[i][i] -= d
    v = nullspace_vector(rows)
    total = sum(v)
    if total == 0:
        raise SingularSystem("nullspace vector has zero mass")
    return [x / total for x in v]
