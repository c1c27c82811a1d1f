"""Stationary distributions: exact solve, ideal-poset recursion, closed forms.

Four routes that must agree exactly wherever their domains overlap:

  * stationary_solve: the exact nullspace of the k x k chain lumped over
    the generator sets S_a (k = |phi|), spread evenly over each S_a and
    certified by an exact integer pi M = pi over all n columns; any n.
  * stationary_recursive: back-substitution on the same lumped chain,
    top-down over the principal-ideal poset; any class-constant Q.
  * stationary_uniform: the same back-substitution with the uniform-Q
    transfers |S_a| |LAnn(a)| / n.
  * stationary_gl2: the closed forms for M2(F_q) with uniform Q (any prime
    q, including 2).

The solve and the recursion read the lumped counts off the rows phi of B
(_lumped_counts); the solve's certificate reads the table's rows on its
own (_certificate_counts).  All values are Fractions; pi is constant on
each S_a, so each route solves |phi| unknowns and then spreads them.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .chain import _SCATTER, ClassDistribution, b_rows, check_alpha
from .errors import InvariantViolation, SingularSystem
from .exact import ScaledMatrix, stationary_nullspace
from .gl2 import require_m2_ring
from .rings import FiniteRing


def _lumped_counts(ring: FiniteRing, Q: ClassDistribution) -> np.ndarray:
    """counts[i, j] = den Q{x : x a_i in S_j}, for a_i = phi[i] the
    generator of ideal i and den Q's common denominator: the rows phi of B
    (b_rows), each summed over S_j.  Each row sums to den."""
    rows = b_rows(ring, Q, ring.phi)
    return np.stack([rows[:, g].sum(axis=1) for g in ring.ideals.generators],
                    axis=1)


def stationary_solve(ring: FiniteRing, Q: ClassDistribution, alpha):
    """Unique pi with pi M = pi and sum(pi) = 1, exactly, for any n.

    B(uc, ud) = B(c, d) for every unit u, so M lumps over the S_a (Kemeny &
    Snell, Finite Markov Chains, 6.3): the k x k chain Mbar(a, b) = alpha
    |S_b|/n + (1 - alpha) Q{x : x a in S_b} is solved and pi(S_b) spread
    evenly over S_b.  That pi is then certified against M on every column.
    """
    alpha = check_alpha(alpha)
    n, poset = ring.n, ring.ideals
    p, s = alpha.numerator, alpha.denominator
    counts = _lumped_counts(ring, Q)
    w, den = Q.scaled_weights()
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


def _recurse(ring: FiniteRing, alpha: Fraction, transfer):
    """pi per element by back-substitution on the lumped chain, with
    transfer(i, j) = t_ij = sum of B(x, a_i) over x in S_j for a_i =
    phi[i], zero unless ideal j contains ideal i.

    pi is constant on each S_j, so pi(a_i) = alpha/n + (1 - alpha) sum_j
    t_ij pi_j, and the ideals containing i are solved before i: each ideal
    strictly above i lies below fewer ideals than i does.  The factor
    1 - (1 - alpha) t_ii is at least alpha > 0, because t_ii = Q{x : x a_i
    in S_i} <= 1 (stationary_recursive's identity with j = i).
    """
    poset = ring.ideals
    pi_ideal = {}
    for i in np.argsort(poset.leq.sum(axis=1), kind="stable").tolist():
        num = Fraction(alpha, ring.n) + (1 - alpha) * sum(
            transfer(i, j) * pi_ideal[j]
            for j in np.flatnonzero(poset.leq[i]).tolist() if j != i)
        pi_ideal[i] = num / (1 - (1 - alpha) * transfer(i, i))
    return [pi_ideal[i] for i in poset.id_of.tolist()]


def stationary_recursive(ring: FiniteRing, Q: ClassDistribution, alpha):
    """pi by back-substitution (_recurse) on the lumped counts, for any
    class-constant Q, with t_ij = |S_j| counts[j, i] / (|S_i| den).

    Proof: B(uc, ud) = B(c, d) for every unit u, and the units act
    transitively on each S_a (FiniteRing.ideals).  So sum_{y in S_i} B(x, y)
    is counts[j, i] / den at every x in S_j, and sum_{x in S_j} B(x, y) is
    t_ij at every y in S_i: both sum B over S_j x S_i.
    """
    alpha = check_alpha(alpha)
    counts = _lumped_counts(ring, Q)
    den = Q.scaled_weights()[1]
    sizes = [len(g) for g in ring.ideals.generators]
    return _recurse(ring, alpha, lambda i, j: Fraction(
        sizes[j] * int(counts[j, i]), sizes[i] * den))


def stationary_uniform(ring: FiniteRing, alpha):
    """pi for uniform Q by back-substitution (_recurse), with
    t_ij = |S_j| |LAnn(a_j)| / n for ideal j containing ideal i: each x in
    S_j takes a_i to R_{a_i,x}, a coset of LAnn(x), and |LAnn(x)| =
    |LAnn(a_j)|."""
    alpha = check_alpha(alpha)
    poset = ring.ideals
    t = [Fraction(len(g) * len(ring.lann(int(a))), ring.n)
         for g, a in zip(poset.generators, poset.reps)]
    return _recurse(ring, alpha, lambda i, j: t[j])


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
