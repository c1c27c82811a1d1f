"""Exact rational matrices and linear algebra on top of Python integers.

Probabilities are rationals throughout, so matrices are stored as integer
numerators over a single common denominator.  That keeps golden-value tests
as equality tests and makes products exact.  Elimination uses the
fraction-free (Bareiss) scheme, which bounds coefficient growth without
leaving the integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .errors import LengthMismatch, SingularSystem


class ScaledMatrix:
    """A rational matrix as integer numerators `num` over denominator `den`.

    num is a list of row lists of Python ints (arbitrary precision); den is a
    positive int.  Instances are canonicalized (gcd of all entries and den
    divided out) so equality of values is equality of representations.
    """

    __slots__ = ("num", "den", "n", "m")

    def __init__(self, num, den, reduce=True):
        self.num = [list(map(int, row)) for row in num]
        self.den = int(den)
        self.n = len(self.num)
        self.m = len(self.num[0]) if self.n else 0
        if self.den < 0:
            self.den = -self.den
            self.num = [[-v for v in row] for row in self.num]
        if reduce:
            self._reduce()

    def _reduce(self):
        g = self.den
        for row in self.num:
            for v in row:
                g = gcd(g, v)
                if g == 1:
                    return
        if g > 1:
            self.den //= g
            self.num = [[v // g for v in row] for row in self.num]

    @classmethod
    def from_fractions(cls, rows):
        rows = [[Fraction(v) for v in row] for row in rows]
        den = 1
        for row in rows:
            for v in row:
                den = lcm(den, v.denominator)
        num = [[int(v * den) for v in row] for row in rows]
        return cls(num, den)

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], 1)

    def entry(self, i, j) -> Fraction:
        return Fraction(self.num[i][j], self.den)

    def row(self, i):
        return [Fraction(v, self.den) for v in self.num[i]]

    def rows_as_fractions(self):
        return [self.row(i) for i in range(self.n)]

    def to_float(self) -> np.ndarray:
        out = np.empty((self.n, self.m), dtype=np.float64)
        d = float(self.den)
        for i, row in enumerate(self.num):
            out[i] = [v / d for v in row]
        return out

    def row_sums(self):
        return [Fraction(sum(row), self.den) for row in self.num]

    def min_entry(self) -> Fraction:
        return Fraction(min(min(row) for row in self.num), self.den)

    def __eq__(self, other):
        return (isinstance(other, ScaledMatrix) and other.den == self.den
                and other.num == self.num)

    def __matmul__(self, other: "ScaledMatrix") -> "ScaledMatrix":
        if self.m != other.n:
            raise LengthMismatch(f"matmul: {self.n}x{self.m} times "
                                 f"{other.n}x{other.m}")
        bt = list(zip(*other.num))
        num = [[sum(x * y for x, y in zip(row, col)) for col in bt]
               for row in self.num]
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
        pivot_row = None
        for i in range(r, n):
            if a[i][c] != 0:
                pivot_row = i
                break
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
    rows = [[matrix.num[j][i] - (d if i == j else 0) for j in range(n)]
            for i in range(n)]
    v = nullspace_vector(rows)
    total = sum(v)
    if total == 0:
        raise SingularSystem("nullspace vector has zero mass")
    return [x / total for x in v]
