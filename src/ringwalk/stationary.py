"""Stationary distributions: exact solve, ideal-poset recursion, closed forms.

Four routes that must agree exactly wherever their domains overlap:

  * stationary_solve: the exact nullspace of the k x k chain lumped over
    the generator sets S_a (k = |phi|), spread evenly over each S_a and
    certified by an exact integer pi M = pi over all n columns; any n.
  * stationary_recursive: the top-down recursion over the principal-ideal
    poset, valid for any class-constant Q.
  * stationary_uniform: the uniform-Q specialization using coset counts and
    annihilator sizes.
  * stationary_gl2: the closed forms for M2(F_q) with uniform Q (any prime
    q, including 2).

All values are Fractions; pi is constant on each S_a, so the recursion only
solves |phi| unknowns and then spreads them.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .chain import (
    _SCATTER,
    ClassDistribution,
    b_rows,
    check_alpha,
    check_same_ring,
)
from .errors import DenominatorZero, InvariantViolation, SingularSystem
from .exact import ScaledMatrix, stationary_nullspace
from .gl2 import require_m2_ring
from .rings import FiniteRing


def stationary_solve(ring: FiniteRing, Q: ClassDistribution, alpha):
    """Unique pi with pi M = pi and sum(pi) = 1, exactly, for any n.

    B(uc, ud) = B(c, d) for every unit u, so M lumps over the S_a (Kemeny &
    Snell, Finite Markov Chains, 6.3): the k x k chain Mbar(a, b) = alpha
    |S_b|/n + (1 - alpha) Q{x : x a in S_b} is solved and pi(S_b) spread
    evenly over S_b.  That pi is then certified against M on every column.
    """
    check_same_ring(ring, Q)
    alpha = check_alpha(alpha)
    n, poset = ring.n, ring.ideals
    p, s = alpha.numerator, alpha.denominator
    w, den = Q.scaled_weights()
    # counts[i, j] = den Q{x : x a in S_j}, a = phi[i], the generator of
    # ideal i: the rows a of B, each summed over S_j, and then dropped
    counts = b_rows(ring, Q, ring.phi)
    counts = np.stack([counts[:, g].sum(axis=1) for g in poset.generators],
                      axis=1)
    sizes = [len(g) for g in poset.generators]
    pi_bar = stationary_nullspace(ScaledMatrix(
        [[p * den * size + (s - p) * n * int(c) for size, c in zip(sizes, row)]
         for row in counts], s * n * den))
    pi_ideal = [x / size for x, size in zip(pi_bar, sizes)]
    pi = [pi_ideal[i] for i in poset.id_of]
    if any(x <= 0 for x in pi_ideal):
        raise SingularSystem("stationary vector of a positive chain must be "
                             "strictly positive")
    # pi = P[b] / L on S_b and Q = w / den turn (pi M)(y) = pi(y) into
    # p den L + (s - p) n (C P)[y] = s n den P[b(y)], with C[y, b] <= n den
    # the sum of w[z] over z x = y, x in S_b: n x k integers, k bignums
    L = lcm(*(x.denominator for x in pi_ideal))
    P = np.array([x.numerator * (L // x.denominator) for x in pi_ideal],
                 dtype=object)
    C = _certificate_counts(ring, w, den)
    if not np.array_equal(p * den * L + (s - p) * n * C.dot(P),
                          s * n * den * P[poset.id_of]):
        raise InvariantViolation("solved pi fails the exact pi M = pi check")
    return pi


def _certificate_counts(ring: FiniteRing, w: np.ndarray, den: int):
    """C[y, b] = sum of w[z] over z x = y with x in S_b, for integer Q
    weights w <= den (Q.scaled_weights()): an n x k array, k = |phi|,
    int64 where n den < 2^63 and Python ints (dtype object) from there.

    The table is read about _SCATTER / n rows z of nonzero weight at a
    time: each entry z x is keyed y k + b(x), and w[z] is added at its
    key by one np.add.at in C's dtype, which sums exactly: each sum is
    C[y, b] <= n den.
    """
    n, poset = ring.n, ring.ideals
    k = len(poset)
    C = np.zeros(n * k, dtype=np.int64 if n * den < 2 ** 63 else object)
    zs = np.flatnonzero(w)
    rows = max(1, _SCATTER // n)
    for start in range(0, len(zs), rows):
        block = zs[start:start + rows]
        # widened first: uint16 y k would wrap once n k reaches 2^16
        keys = (np.multiply(ring.mul[block], k, dtype=np.intp)
                + poset.id_of).ravel()
        np.add.at(C, keys, np.repeat(w[block], n))
    return C.reshape(n, k)


def _ideal_order(ring: FiniteRing):
    """Ideal ids sorted so containing ideals come first; ties by generator."""
    poset = ring.ideals
    k = len(poset)
    depth = [int(poset.leq[i].sum()) for i in range(k)]  # how many contain i
    return sorted(range(k), key=lambda i: (depth[i], int(poset.reps[i])))


def _q_transfer(ring: FiniteRing, w: np.ndarray, den: int, x: int,
                y: int) -> Fraction:
    """sum over coset reps u of LStab(y) and r in R_{x,y} of Q(r u^{-1}),
    with Q = w / den as integer per-element weights (Q.scaled_weights())."""
    rset = ring.r_xy(x, y)
    inv = [ring.inv(int(u)) for u in ring.coset_reps(y)]
    terms = w[ring.mul[np.ix_(rset, inv)]]
    # each term is at most den, so int64 holds the sum below 2^63
    if den * terms.size >= 2 ** 63:
        terms = terms.astype(object)
    return Fraction(int(terms.sum()), den)


def stationary_recursive(ring: FiniteRing, Q: ClassDistribution, alpha):
    """Solve pi on phi top-down over the ideal poset, spread over S_a."""
    alpha = check_alpha(alpha)
    poset = ring.ideals
    w, q_den = Q.scaled_weights()
    pi_ideal = {}
    for i in _ideal_order(ring):
        x = int(poset.reps[i])
        num = Fraction(alpha, ring.n)
        for j in poset.strictly_above(i):
            y = int(poset.reps[j])
            num += (1 - alpha) * _q_transfer(ring, w, q_den, x, y) * pi_ideal[j]
        den = 1 - (1 - alpha) * _q_transfer(ring, w, q_den, x, x)
        if den == 0:
            raise DenominatorZero(
                f"recursion denominator vanished at generator {x}; this "
                f"Q/alpha pair is outside the formula's domain")
        pi_ideal[i] = num / den
    return [pi_ideal[int(poset.id_of[x])] for x in range(ring.n)]


def stationary_uniform(ring: FiniteRing, alpha):
    """Uniform-Q closed form: coset counts |U_y| and annihilator sizes."""
    alpha = check_alpha(alpha)
    poset = ring.ideals
    u_count = {i: len(ring.coset_reps(int(poset.reps[i])))
               for i in range(len(poset))}
    ann = {i: len(ring.lann(int(poset.reps[i]))) for i in range(len(poset))}
    pi_ideal = {}
    for i in _ideal_order(ring):
        num = alpha + (1 - alpha) * sum(
            u_count[j] * ann[j] * pi_ideal[j]
            for j in poset.strictly_above(i))
        den = ring.n - (1 - alpha) * u_count[i] * ann[i]
        if den == 0:
            raise DenominatorZero(f"vanishing denominator at ideal {i}")
        pi_ideal[i] = Fraction(num, 1) / den
    return [pi_ideal[int(poset.id_of[x])] for x in range(ring.n)]


def gl2_stationary_values(q: int, alpha):
    """(unit, nonzero non-unit, zero) stationary probabilities of the
    uniform-multiplication chain on M2(F_q).

    The shared denominator factor is q^3 + q^2 - q + (q^2-1)(q^2-q) alpha,
    i.e. |R| - (1-alpha)|U_R|, so pi_unit is the uniform-Q unit formula
    alpha / (n - u + u alpha) with n = |R| and u = |U_R|.
    """
    alpha = Fraction(alpha)
    units = (q * q - 1) * (q * q - q)
    d1 = q ** 3 + q ** 2 - q + units * alpha
    e = 1 + (q * q - 1) * alpha
    pi_unit = alpha / d1
    pi_nonunit = q * q * alpha / (e * d1)
    pi_zero = Fraction(q ** 3 + q ** 2 - q - q * (q * q - 1) * alpha) / (e * d1)
    if units * pi_unit + (q ** 4 - units - 1) * pi_nonunit + pi_zero != 1:
        raise InvariantViolation(f"GL2 closed forms for q={q} do not sum to 1")
    return pi_unit, pi_nonunit, pi_zero


def stationary_gl2(ring: FiniteRing, alpha):
    """Per-element stationary vector on M2(F_q) for uniform Q, from the
    closed forms; q may be any prime, including 2."""
    q = require_m2_ring(ring)
    alpha = check_alpha(alpha)
    pi_unit, pi_nonunit, pi_zero = gl2_stationary_values(q, alpha)
    out = []
    for x in range(ring.n):
        if x == ring.zero:
            out.append(pi_zero)
        elif x in ring.unit_set:
            out.append(pi_unit)
        else:
            out.append(pi_nonunit)
    return out
