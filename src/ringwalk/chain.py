"""Class-constant multiplication distributions and the walk's transition matrices.

The walk adds a uniform element with probability alpha and otherwise
multiplies by a sample from Q, a distribution constant on similarity
classes.  B holds the multiplication-only transitions

    B[a, b] = sum of Q(x) over x with x*a == b    (left multiplication),

and the full chain matrix is M = (alpha/n) * ones + (1 - alpha) * B.
Everything is exact-rational.
"""

from __future__ import annotations

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


def check_alpha(alpha, allow_boundary=False) -> Fraction:
    alpha = Fraction(alpha)
    if not (0 <= alpha <= 1 if allow_boundary else 0 < alpha < 1):
        raise AlphaOutOfRange(
            f"alpha = {alpha} outside {'[0,1]' if allow_boundary else '(0,1)'}")
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
    alpha: Fraction | None = None

    @property
    def n(self):
        return self.matrix.n

    def check_stochastic(self):
        if any(s != 1 for s in self.matrix.row_sums()):
            raise InvariantViolation(f"{self.kind} rows must sum to exactly 1")


def weighted_mul_counts(ring: FiniteRing, weights) -> np.ndarray:
    """Integer matrix W[a, b] = sum of weights[x] over x with x*a == b.

    weights are integers >= 0, so every entry is at most the row sum
    sum(weights): the entries are int64 below 2**63 and Python ints
    (dtype object) from there on.
    """
    dtype = np.int64 if sum(map(int, weights)) < 2 ** 63 else object
    w = np.array(weights, dtype=dtype)
    out = np.zeros((ring.n, ring.n), dtype=dtype)
    for a in range(ring.n):
        np.add.at(out[a], ring.mul[:, a], w)    # uint16 indices below n
    return out


def build_B(ring: FiniteRing, Q: ClassDistribution) -> TransitionMatrix:
    """Multiplication-only transition matrix with exact rational entries,
    for left multiplication a -> x*a, the convention the spectral and
    stationary theory uses."""
    check_same_ring(ring, Q)
    w_int, den = Q.scaled_weights()
    num = weighted_mul_counts(ring, w_int)
    tm = TransitionMatrix(ScaledMatrix(num, den), "B", ring)
    tm.check_stochastic()
    return tm


def chain_matrix(B: TransitionMatrix, alpha) -> TransitionMatrix:
    """Full chain matrix (alpha/n) * ones + (1 - alpha) * B; strictly positive."""
    alpha = check_alpha(alpha)
    n = B.n
    p, s = alpha.numerator, alpha.denominator
    common = lcm(n, B.matrix.den)
    add_part = p * (common // n)
    mul_scale = (s - p) * (common // B.matrix.den)
    num = B.matrix.num      # M's entries are >= 0, its rows sum to s common
    if s * common >= 2 ** 63:
        num = num.astype(object)
    tm = TransitionMatrix(ScaledMatrix(add_part + mul_scale * num, s * common),
                          "M", B.ring, alpha=alpha)
    tm.check_stochastic()
    if tm.matrix.min_entry() < Fraction(alpha, n):
        raise InvariantViolation(f"M has an entry below alpha/n = "
                                 f"{Fraction(alpha, n)}")
    return tm


def build_M(ring: FiniteRing, Q: ClassDistribution, alpha) -> TransitionMatrix:
    """The chain matrix of B built from (ring, Q); see chain_matrix."""
    return chain_matrix(build_B(ring, Q), alpha)
