"""Paper facts on GL2(F_q) and M2(F_q) as test oracles: the character
table entry by entry from Fraction angles, Ind_P^G 1 over the mirabolic
subgroup P, and the class functions F on span(S_A)."""

import cmath
from fractions import Fraction

import numpy as np

from ringwalk.errors import InvariantViolation, UnknownCase
from ringwalk.fields import gf
from ringwalk.gl2 import (
    character_table,
    classify_nonunit_class,
    conj_classes,
    irreps,
    matrix_rank,
    require_m2_ring,
)

from ring_oracle import mul_counts_by_loop


def angle_fraction(field, k: int, x: int) -> Fraction:
    """The angle of the character of index k at the unit x, as a fraction
    of a full turn: g^j goes to k*j/m mod 1, g the field's generator and
    m = |F| - 1."""
    m = field.size - 1
    return Fraction(k * int(field.dlog[x]) % m, m)


def angle_to_complex(theta: Fraction) -> complex:
    """exp(2*pi*i*theta), exact at the rational right angles; theta and
    -theta map to exact complex conjugates."""
    theta = theta % 1
    if theta > Fraction(1, 2):
        return angle_to_complex(1 - theta).conjugate()
    if theta == 0:
        return complex(1, 0)
    if theta == Fraction(1, 2):
        return complex(-1, 0)
    if theta == Fraction(1, 4):
        return complex(0, 1)
    return cmath.exp(2j * cmath.pi * float(theta))


def char_value(q: int, rep, cls, root=angle_to_complex):
    """Single character-table entry of GL2(F_q) (Fulton & Harris, section
    5.2), each angle theta a fraction of a full turn mapped by root to
    exp(2 pi i theta): complex by default, or in F_p (table_mod_p)."""
    F = gf(q)
    ext = gf(q, 2)

    def chi(k, x):
        return angle_fraction(F, k, x)

    def nu(k, a):
        return angle_fraction(ext, k, a)

    kind, params = rep.kind, rep.params
    if kind == "det":
        (k,) = params
        if cls.kind in ("central", "unipotent"):
            return root(2 * chi(k, cls.params[0]))
        if cls.kind == "split":
            x, y = cls.params
            return root(chi(k, x) + chi(k, y))
        (a,) = cls.params
        return root(chi(k, ext.norm(a)))
    if kind == "steinberg":
        (k,) = params
        if cls.kind == "central":
            return q * root(2 * chi(k, cls.params[0]))
        if cls.kind == "unipotent":
            return 0
        if cls.kind == "split":
            x, y = cls.params
            return root(chi(k, x) + chi(k, y))
        (a,) = cls.params
        return -root(chi(k, ext.norm(a)))
    if kind == "principal":
        k1, k2 = params
        if cls.kind == "central":
            x = cls.params[0]
            return (q + 1) * root(chi(k1, x) + chi(k2, x))
        if cls.kind == "unipotent":
            x = cls.params[0]
            return root(chi(k1, x) + chi(k2, x))
        if cls.kind == "split":
            x, y = cls.params
            return (root(chi(k1, x) + chi(k2, y))
                    + root(chi(k1, y) + chi(k2, x)))
        return 0
    if kind == "cuspidal":
        (k,) = params
        if cls.kind == "central":
            x = cls.params[0]
            return (q - 1) * root(nu(k, x))
        if cls.kind == "unipotent":
            x = cls.params[0]
            return -root(nu(k, x))
        if cls.kind == "split":
            return 0
        (a,) = cls.params
        return -(root(nu(k, a))
                 + root(nu(k, ext.frobenius(a))))
    raise UnknownCase(f"unknown irrep kind {kind}")


def table_values(q: int) -> np.ndarray:
    """The complex character table of GL2(F_q), irreps x classes."""
    return np.array([[char_value(q, r, c) for c in conj_classes(q)]
                     for r in irreps(q)])


def table_mod_p(q: int, p: int, zeta: int) -> np.ndarray:
    """The character table in F_p, zeta of order m = q^2 - 1 in F_p standing
    for exp(2 pi i / m): the angle a/m maps to zeta^a."""
    m = q * q - 1

    def root(theta):
        a = theta * m
        if a.denominator != 1:
            raise InvariantViolation(f"angle {theta} is not a multiple of "
                                     f"1/{m}")
        return pow(zeta, int(a) % m, p)

    return np.array([[char_value(q, r, c, root) % p for c in conj_classes(q)]
                     for r in irreps(q)])


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
    projected = mul_counts_by_loop(ring, weights)[np.ix_(sa, sa)].T
    action = np.zeros_like(projected)
    for w, coeff in class_function_F(ring, A, X).items():   # w a unit
        action[pos[ring.mul[w, sa]], np.arange(len(sa))] += coeff
    return projected, action
