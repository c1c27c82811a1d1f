"""Distribution validation and exact transition-matrix construction."""

import os
import subprocess
import sys
from fractions import Fraction as Fr

import numpy as np
import pytest

import ringwalk
from ringwalk.chain import ClassDistribution, build_B, build_M, check_alpha
from ringwalk.errors import (
    AlphaOutOfRange,
    NegativeWeight,
    NotNormalized,
    UnknownClass,
)
from ringwalk.exact import ScaledMatrix
from ringwalk.gl2 import ring_element_index
from ringwalk.rings import matrix_ring, upper_triangular_ring, zn_ring

# the multiplication-only matrix of M2(F2) with uniform Q, in sixteenths,
# on the lexicographically ordered basis
GOLDEN_M2F2_B = [
    [16, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [4, 4, 0, 0, 4, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [4, 0, 4, 0, 0, 0, 0, 0, 4, 0, 4, 0, 0, 0, 0, 0],
    [4, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 4],
    [4, 4, 0, 0, 4, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [4, 4, 0, 0, 4, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [4, 0, 4, 0, 0, 0, 0, 0, 4, 0, 4, 0, 0, 0, 0, 0],
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [4, 0, 4, 0, 0, 0, 0, 0, 4, 0, 4, 0, 0, 0, 0, 0],
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [4, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 4],
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [4, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 4],
]


# ---------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------

def test_uniform_distribution_basics():
    r = matrix_ring(2)
    q = ClassDistribution.uniform(r)
    assert all(w == Fr(1, 16) for w in q.weights)
    assert sum(q.element_weights()) == 1


def test_weight_validation_errors():
    r = zn_ring(6)
    good = {x: Fr(1, 6) for x in range(6)}
    ClassDistribution.from_weights(r, good)
    bad = dict(good)
    bad[0] = Fr(1, 3)
    with pytest.raises(NotNormalized):
        ClassDistribution.from_weights(r, bad)
    bad = dict(good)
    bad[0] = Fr(-1, 6)
    bad[1] = Fr(1, 2)
    with pytest.raises(NegativeWeight):
        ClassDistribution.from_weights(r, bad)
    with pytest.raises(UnknownClass):
        ClassDistribution.from_weights(r, {0: Fr(1, 1)})
    with pytest.raises(UnknownClass):
        ClassDistribution.from_weights(r, {**good, 6: Fr(0)})


def test_duplicate_class_key_rejected():
    r = matrix_ring(2)
    part = r.similarity
    w = {int(rep): Fr(1, 16) for rep in part.reps}
    # 7 and 13 are conjugate units, so keying both names one class twice
    w.pop(int(part.reps[part.class_of[7]]))
    w[7] = Fr(1, 16)
    ClassDistribution.from_weights(r, w)        # canonicalization accepts 7
    w[13] = Fr(1, 16)
    with pytest.raises(UnknownClass):
        ClassDistribution.from_weights(r, w)


def test_nonuniform_class_constant_example():
    # half the mass on the identity class, half spread over one
    # non-central class of M2(F3)
    r = matrix_ring(3)
    part = r.similarity
    other = next(i for i in range(len(part))
                 if part.invertible[i] and len(part.classes[i]) > 1)
    w = {int(part.reps[i]): Fr(0) for i in range(len(part))}
    w[r.one] = Fr(1, 2)
    w[int(part.reps[other])] = Fr(1, 2 * len(part.classes[other]))
    q = ClassDistribution.from_weights(r, w)
    assert q.weight_of_element(r.one) == Fr(1, 2)


def test_same_distribution_under_different_keys_gives_same_matrix():
    r = matrix_ring(2)
    part = r.similarity
    w1 = {int(rep): Fr(1, 16) for rep in part.reps}
    w2 = {int(cls[-1]): Fr(1, 16) for cls in part.classes}
    q1 = ClassDistribution.from_weights(r, w1)
    q2 = ClassDistribution.from_weights(r, w2)
    assert q1 == q2
    assert build_B(r, q1).matrix == build_B(r, q2).matrix


# ---------------------------------------------------------------------
# B construction
# ---------------------------------------------------------------------

def test_golden_b_matrix_m2f2():
    r = matrix_ring(2)
    b = build_B(r, ClassDistribution.uniform(r))
    assert b.matrix == ScaledMatrix(GOLDEN_M2F2_B, 16)


def test_uniform_entries_are_fiber_counts():
    for r in (zn_ring(6), upper_triangular_ring(2)):
        b = build_B(r, ClassDistribution.uniform(r))
        for a in range(r.n):
            for c in range(r.n):
                count = int(np.sum(r.mul[:, a] == c))
                assert b.entry(a, c) == Fr(count, r.n)


def test_row_of_identity_is_q_itself():
    r = matrix_ring(2)
    q = ClassDistribution.uniform(r)
    b = build_B(r, q)
    assert b.matrix.row(r.one) == q.element_weights()


def test_zero_row_is_absorbing():
    for r in (zn_ring(6), matrix_ring(2)):
        b = build_B(r, ClassDistribution.uniform(r))
        assert b.entry(r.zero, r.zero) == 1


def test_point_mass_on_identity_class_gives_identity_matrix():
    r = matrix_ring(2)
    part = r.similarity
    w = {int(rep): Fr(0) for rep in part.reps}
    w[r.one] = Fr(1)
    b = build_B(r, ClassDistribution.from_weights(r, w))
    assert b.matrix == ScaledMatrix.identity(r.n)


def test_point_mass_on_zero_class_gives_zero_column():
    r = matrix_ring(2)
    part = r.similarity
    w = {int(rep): Fr(0) for rep in part.reps}
    w[r.zero] = Fr(1)
    b = build_B(r, ClassDistribution.from_weights(r, w))
    for a in range(r.n):
        assert b.entry(a, r.zero) == 1


def test_conjugation_invariance_of_b():
    # B(u c, u d) = B(c, d): relabelling by a unit leaves transitions alone
    for r in (zn_ring(6), upper_triangular_ring(2), matrix_ring(2)):
        b = np.array(build_B(r, ClassDistribution.uniform(r)).matrix.num)
        for u in r.units:
            perm = r.mul[int(u), :]
            assert np.array_equal(b[np.ix_(perm, perm)], b)


def test_left_right_sides_coincide_only_when_commutative():
    for r, same in ((zn_ring(6), True), (zn_ring(12), True),
                    (upper_triangular_ring(2), False), (matrix_ring(2), False)):
        q = ClassDistribution.uniform(r)
        left = build_B(r, q, side="left").matrix
        right = build_B(r, q, side="right").matrix
        assert (left == right) == same


def test_right_side_is_transpose_relabel_for_m2():
    # z -> z^T is an anti-automorphism of M2 preserving similarity classes,
    # so B_right(a, b) = B_left(a^T, b^T)
    r = matrix_ring(3)
    q = ClassDistribution.uniform(r)
    left = build_B(r, q, side="left").matrix
    right = build_B(r, q, side="right").matrix
    perm = [ring_element_index(r, (e[0, 0], e[1, 0], e[0, 1], e[1, 1]))
            for e in r.entries]
    for a in range(r.n):
        for b in range(r.n):
            assert right.entry(a, b) == left.entry(perm[a], perm[b])


# ---------------------------------------------------------------------
# M construction
# ---------------------------------------------------------------------

def test_alpha_validation():
    r = zn_ring(6)
    q = ClassDistribution.uniform(r)
    with pytest.raises(AlphaOutOfRange):
        build_M(r, q, Fr(0))
    with pytest.raises(AlphaOutOfRange):
        build_M(r, q, Fr(3, 2))
    assert check_alpha(Fr(1), allow_boundary=True) == 1


def test_boundary_alpha_one_gives_uniform_rows():
    r = zn_ring(6)
    m = build_M(r, ClassDistribution.uniform(r), Fr(1), allow_boundary=True)
    assert all(m.entry(a, b) == Fr(1, 6)
               for a in range(6) for b in range(6))


def test_m_entry_golden():
    r = matrix_ring(2)
    m = build_M(r, ClassDistribution.uniform(r), Fr(1, 2))
    assert m.entry(0, 0) == Fr(17, 32)


def test_m_minimum_entry_bound():
    r = matrix_ring(2)
    for alpha in (Fr(1, 4), Fr(1, 2), Fr(7, 9)):
        m = build_M(r, ClassDistribution.uniform(r), alpha)
        assert m.matrix.min_entry() >= Fr(alpha, r.n)


def test_rows_sum_to_one_exactly():
    for r in (zn_ring(12), matrix_ring(3)):
        q = ClassDistribution.uniform(r)
        assert all(s == 1 for s in build_B(r, q).matrix.row_sums())
        assert all(s == 1 for s in
                   build_M(r, q, Fr(2, 7)).matrix.row_sums())


OPTIMIZED_SCRIPT = """
from ringwalk.chain import ClassDistribution, TransitionMatrix, build_B
from ringwalk.errors import InvariantViolation, RingMismatch
from ringwalk.exact import ScaledMatrix
from ringwalk.rings import FiniteRing, matrix_ring, zn_ring
assert False, "this script must run under python -O"
"""


@pytest.mark.parametrize("call, error", [
    # both rings have 16 elements: only the ring check can catch the mix-up
    ("build_B(zn_ring(16), ClassDistribution.uniform(matrix_ring(2)))",
     "RingMismatch"),
    ("TransitionMatrix(ScaledMatrix([[1, 0], [1, 1]], 1), 'B',"
     " zn_ring(2)).check_stochastic()", "InvariantViolation"),
    # zn_ring(4)'s tables with 2*3 = 3*2 = 1: not associative
    ("FiniteRing(zn_ring(4).add, [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 1],"
     " [0, 3, 1, 1]], 0, 1, 'bad', {})", "InvariantViolation"),
])
def test_invariants_survive_python_O(call, error):
    script = OPTIMIZED_SCRIPT + f"""
try:
    {call}
except {error}:
    print("raised")
"""
    src = os.path.dirname(os.path.dirname(ringwalk.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"
