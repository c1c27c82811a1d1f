"""Paper facts on GL2(F_q) and M2(F_q) as test oracles: Ind_P^G 1 over the
mirabolic subgroup P, and the class functions F on span(S_A)."""

import numpy as np

from ringwalk.chain import weighted_mul_counts
from ringwalk.errors import InvariantViolation
from ringwalk.gl2 import (
    character_table,
    classify_nonunit_class,
    irreps,
    matrix_rank,
    require_m2_ring,
)


def ring_element_index(ring, entries) -> int:
    """Index of the 2x2 matrix with the given entries in the ring enumeration."""
    q = require_m2_ring(ring)
    a, b, c, d = (int(v) % q for v in entries)
    return ((a * q + b) * q + c) * q + d


def mirabolic_trace_sum(q: int, rep) -> complex:
    """Sum of the character of rep over P = {[[1, y], [0, w]], w != 0}: the
    identity, q-1 elements in the unipotent class of 1, and q elements in
    each split class {1, w} for w != 1."""
    tab = character_table(q)
    row = tab.values[tab.irrep_index(rep)]
    return (row[tab.class_index("central", (1,))]
            + (q - 1) * row[tab.class_index("unipotent", (1,))]
            + sum(q * row[tab.class_index("split", (1, w))]
                  for w in range(2, q)))


def induced_from_P_decomposition(q: int) -> dict:
    """Multiplicity of every irreducible in Ind_P^G(1), from P-fixed vectors."""
    out = {}
    for rep in irreps(q):
        s = mirabolic_trace_sum(q, rep) / (q * (q - 1))
        out[rep] = round(s.real)
        if abs(s - out[rep]) >= 1e-9:
            raise InvariantViolation(f"non-integral multiplicity {s} for "
                                     f"{rep}")
    return out


def class_function_F(ring, A: int, X: int) -> dict:
    """Group-algebra coefficients (unit index -> int) of the class function
    that reproduces, on span(S_A) for a rank-one A in phi, the projected
    action of the class sum of the nonzero non-invertible class of X: the
    class sum of u_1 minus (q-1) times 1 for Y_0, and the class sum of u_t
    plus the central t I for Y_t, with u_t = [[t, 1], [0, t]]."""
    q = require_m2_ring(ring)
    tag = classify_nonunit_class(ring, X)
    t = 1 if tag == ("Y0",) else tag[1]
    part = ring.similarity
    u = ring_element_index(ring, (t, 1, 0, t))
    coeffs = {int(v): 1 for v in part.classes[part.class_of[u]]}
    if tag == ("Y0",):
        coeffs[ring.one] = -(q - 1)
    else:
        coeffs[ring_element_index(ring, (t, 0, 0, t))] = 1
    return coeffs


def rank_one_generators(ring, q):
    return [int(a) for a in ring.phi
            if matrix_rank(ring.entries[int(a)].ravel(), q) == 1]


def y_elements(ring, q):
    """One element of each nonzero non-invertible class: Y_0, then Y_t."""
    return [ring_element_index(ring, (0, 0, 1, 0))] + [
        ring_element_index(ring, (t, 0, 0, 0)) for t in range(1, q)]


def projected_and_F_action(ring, A: int, X: int):
    """Integer matrices on span(S_A): the projected operator W[S_A, S_A]^T
    of the class sum of X, and the action of class_function_F(ring, A, X)."""
    part = ring.similarity
    sa = ring.s_set(A)
    pos = np.zeros(ring.n, dtype=np.intp)
    pos[sa] = np.arange(len(sa))
    weights = np.zeros(ring.n, dtype=np.int64)
    weights[part.classes[part.class_of[X]]] = 1
    projected = weighted_mul_counts(ring, weights)[np.ix_(sa, sa)].T
    action = np.zeros_like(projected)
    for w, coeff in class_function_F(ring, A, X).items():   # w a unit
        action[pos[ring.mul[w, sa]], np.arange(len(sa))] += coeff
    return projected, action
