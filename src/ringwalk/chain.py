"""Class-constant multiplication distributions and the walk's transition matrices.

The walk adds a uniform element with probability alpha and otherwise
multiplies by a sample from Q, a distribution constant on similarity
classes.  B holds the multiplication-only transitions

    B[a, b] = sum of Q(x) over x with x*a == b    (left multiplication),

and the full chain matrix is M = (alpha/n) * ones + (1 - alpha) * B.
Everything is exact-rational.  The commands build neither B nor M:
b_blocks reads the rows of B they ask for off the multiplication table, a
block of at most _ROWS rows at a time, each counted by integer np.add.at
scatters of Q's weights.  Each block also comes with sizes(), which counts
the same gather of the table's columns with unit weights, on call, for
the sizes |R_{x,y}| that the R_{x,y} check reads under any Q.  A
command's checks on B share one such pass (checks.scan_b), and what they
report of M follows from B >= 0, B 1 = 1 and 0 < alpha < 1
(checks.m_shift_test).  build_B and build_M are the dense n x n B and M,
oracles for the tests and the benchmark.  Every weighted count of the
table's columns is _count_columns: rows of B, the stationary routes' lumped
counts (b_rows at phi) and d_of_t's rows of B^t (weights mu_t = Q^{*t}).
stationary._certificate_counts alone reads the table's rows, as the
solve's independent check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import (
    AlphaOutOfRange,
    InvariantViolation,
    NegativeWeight,
    NotNormalized,
    RingMismatch,
    UnknownClass,
)
from .exact import ScaledMatrix
from .rings import FiniteRing

_ROWS = 64                 # rows of B read at a time
_SCATTER = 2**14           # table entries one np.add.at counts


def check_alpha(alpha) -> Fraction:
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise AlphaOutOfRange(f"alpha = {alpha} outside (0,1)")
    return alpha


def check_same_ring(ring: FiniteRing, Q: ClassDistribution) -> None:
    """Q's class weights index `ring`'s classes only if Q was built on it."""
    if Q.ring is not ring:
        raise RingMismatch(f"Q was built on another ring object "
                           f"({Q.ring.label}), not on {ring.label}")


class ClassDistribution:
    """Probability weights on a ring, constant on similarity classes.

    weights[i] is the per-element weight of class i; the total mass
    sum(|class| * weight) must be exactly 1 and is never silently fixed up.
    """

    def __init__(self, ring: FiniteRing, weights):
        part = ring.similarity
        if len(weights) != len(part):
            raise UnknownClass("need exactly one weight per similarity class")
        weights = [Fraction(w) for w in weights]
        for w in weights:
            if w < 0:
                raise NegativeWeight(f"negative class weight {w}")
        total = sum(w * len(cls) for w, cls in zip(weights, part.classes))
        if total != 1:
            raise NotNormalized(
                f"class masses sum to {total}, not 1 (weights are per element)")
        self.ring = ring
        self.weights = weights

    @classmethod
    def uniform(cls, ring: FiniteRing) -> "ClassDistribution":
        w = Fraction(1, ring.n)
        return cls(ring, [w] * len(ring.similarity))

    @classmethod
    def from_weights(cls, ring: FiniteRing, mapping) -> "ClassDistribution":
        """Build from {element index: per-element weight}.

        Keys may be any member of a class (they are canonicalized); each
        class must be covered exactly once.
        """
        part = ring.similarity
        weights = [None] * len(part)
        for key, w in mapping.items():
            key = int(key)
            if not (0 <= key < ring.n):
                raise UnknownClass(f"{key} is not an element index")
            ci = int(part.class_of[key])
            if weights[ci] is not None:
                raise UnknownClass(
                    f"class of element {key} specified more than once")
            weights[ci] = Fraction(w)
        missing = [int(part.reps[i]) for i, w in enumerate(weights) if w is None]
        if missing:
            raise UnknownClass(f"no weight for classes of representatives {missing}")
        return cls(ring, weights)

    def scaled_weights(self):
        """(integer per-element weights, common denominator): one lcm over
        the class weights and one gather by class.  The weights are an
        int64 array below 2^63 and Python ints (dtype object) from there."""
        den = lcm(*(w.denominator for w in self.weights))
        w = np.array([w.numerator * (den // w.denominator)
                      for w in self.weights],
                     dtype=np.int64 if den < 2 ** 63 else object)
        return w[self.ring.similarity.class_of], den

    def __eq__(self, other):
        return (isinstance(other, ClassDistribution)
                and other.ring is self.ring and other.weights == self.weights)


@dataclass
class TransitionMatrix:
    """Row-stochastic exact-rational matrix of kind "B" or "M"; matrix.num
    is its n x n integer ndarray of numerators, int64 or dtype object (see
    ScaledMatrix)."""

    matrix: ScaledMatrix
    kind: str
    ring: FiniteRing

    def check_stochastic(self):
        if any(s != 1 for s in self.matrix.row_sums()):
            raise InvariantViolation(f"{self.kind} rows must sum to exactly 1")


def b_blocks(ring: FiniteRing, Q: ClassDistribution, rows):
    """(block, num, sizes) for consecutive blocks of at most _ROWS entries
    of rows.  num holds the integer numerators of B[block, :] over Q's
    common denominator den, int64 below 2^63 and Python ints (dtype object)
    from there, as Q.scaled_weights().  sizes() is the int64 array with
    sizes()[j, x] = |R_{x,y}| = #{r : r y = x} for y = block[j], whatever
    Q is: the same columns counted with unit weights, on the first call
    only, so a reader that never calls it pays nothing for it.

    Row a of B is column a of the multiplication table counted with Q's
    weights: B[a, b] = sum of w[x] over x with x*a == b.  Each block is
    counted by np.add.at of the weights into a fresh array, in the
    weights' own dtype, which sums exactly: each sum is B[a, b] <= den.
    """
    check_same_ring(ring, Q)
    w = Q.scaled_weights()[0]
    rows = np.asarray(rows, np.intp)
    for i in range(0, len(rows), _ROWS):
        block = rows[i:i + _ROWS]
        yield block, *_count_columns(ring.mul, block, w)


def _count_columns(mul, block, w):
    """(num, sizes): the w-weighted counts of the columns block of mul
    (b_blocks, and d_of_t's mu_t) and a cached sizes() for their
    unit-weighted counts, both from one gather of the columns, made here
    so that a suspended b_blocks holds no block of B.  Each scatter counts
    `width` columns, about _SCATTER table entries: entry x of its i-th
    column c is keyed i n + x*c in its rows of the block."""
    n = len(mul)
    # one pass over the table's rows, then each column made contiguous
    cols = np.take(mul, block, axis=1).T.copy()
    num = np.empty((len(block), n), dtype=w.dtype)
    width = min(len(block), max(1, _SCATTER // n))
    weights = np.tile(w, width)
    offsets = np.arange(width)[:, None] * n
    for j in range(0, len(block), width):
        part, counts = cols[j:j + width], num[j:j + width]
        counts.fill(0)      # zeroed just before its scatter, while cached
        np.add.at(counts.reshape(-1), (part + offsets[:len(part)]).ravel(),
                  weights[:part.size])

    @functools.cache
    def sizes():
        # entry x of the block's j-th column c keyed j n + x*c, as above
        keys = cols + np.arange(0, cols.size, n)[:, None]
        return np.bincount(keys.ravel(), minlength=cols.size).reshape(
            cols.shape)

    return num, sizes


def b_rows(ring: FiniteRing, Q: ClassDistribution, rows) -> np.ndarray:
    """The numerators of B[rows, :], one row per entry of rows: the blocks
    of b_blocks, concatenated."""
    return np.concatenate([num for _, num, _ in b_blocks(ring, Q, rows)])


def build_B(ring: FiniteRing, Q: ClassDistribution) -> TransitionMatrix:
    """Multiplication-only transition matrix with exact rational entries,
    for left multiplication a -> x*a, the convention the spectral and
    stationary theory uses: the dense b_rows(ring, Q, range(n)), an
    oracle that no command builds."""
    num = b_rows(ring, Q, range(ring.n))
    tm = TransitionMatrix(ScaledMatrix(num, Q.scaled_weights()[1]), "B", ring)
    tm.check_stochastic()
    return tm


def build_M(ring: FiniteRing, Q: ClassDistribution, alpha) -> TransitionMatrix:
    """The full chain matrix (alpha/n) * ones + (1 - alpha) * B, strictly
    positive: a dense oracle that no command builds."""
    alpha = check_alpha(alpha)
    B = build_B(ring, Q)
    n = B.matrix.n
    p, s = alpha.numerator, alpha.denominator
    common = lcm(n, B.matrix.den)
    add_part = p * (common // n)
    mul_scale = (s - p) * (common // B.matrix.den)
    num = B.matrix.num      # M's entries are >= 0, its rows sum to s common
    if s * common >= 2 ** 63:
        num = num.astype(object)
    tm = TransitionMatrix(ScaledMatrix(add_part + mul_scale * num, s * common),
                          "M", ring)
    tm.check_stochastic()
    if tm.matrix.min_entry() < Fraction(alpha, n):
        raise InvariantViolation(f"M has an entry below alpha/n = "
                                 f"{Fraction(alpha, n)}")
    return tm
