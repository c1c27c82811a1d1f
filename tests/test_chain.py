"""Distribution validation and exact transition-matrix construction."""

import json
import os
import subprocess
import sys
from fractions import Fraction as Fr
from math import lcm

import numpy as np
import pytest

import ringwalk
from ringwalk.chain import (
    ClassDistribution,
    build_B,
    build_M,
)
from ringwalk.cli import q_from_config
from ringwalk.errors import (
    AlphaOutOfRange,
    NegativeWeight,
    NotNormalized,
    UnknownClass,
)
from ringwalk.exact import ScaledMatrix
from ringwalk.rings import matrix_ring, upper_triangular_ring, zn_ring

from gl2_oracle import ring_element_index
from reference_simulate import right_multiplication_B

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


def element_weights(q):
    """Q's weight of every element, as Fractions."""
    return [q.weights[c] for c in q.ring.similarity.class_of]


def fraction_rows(matrix):
    """A ScaledMatrix as rows of Fractions."""
    return [[Fr(v, matrix.den) for v in row] for row in matrix.num.tolist()]


# ---------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------

def test_uniform_distribution_basics():
    r = matrix_ring(2)
    q = ClassDistribution.uniform(r)
    assert all(w == Fr(1, 16) for w in q.weights)
    assert sum(element_weights(q)) == 1


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
    assert element_weights(q)[r.one] == Fr(1, 2)


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
        rows = fraction_rows(build_B(r, ClassDistribution.uniform(r)).matrix)
        for a in range(r.n):
            for c in range(r.n):
                count = int(np.sum(r.mul[:, a] == c))
                assert rows[a][c] == Fr(count, r.n)


def test_row_of_identity_is_q_itself():
    r = matrix_ring(2)
    q = ClassDistribution.uniform(r)
    b = build_B(r, q)
    assert fraction_rows(b.matrix)[r.one] == element_weights(q)


def test_zero_row_is_absorbing():
    for r in (zn_ring(6), matrix_ring(2)):
        b = build_B(r, ClassDistribution.uniform(r))
        assert b.matrix.num[r.zero, r.zero] == b.matrix.den


def test_point_mass_on_identity_class_gives_identity_matrix():
    r = matrix_ring(2)
    part = r.similarity
    w = {int(rep): Fr(0) for rep in part.reps}
    w[r.one] = Fr(1)
    b = build_B(r, ClassDistribution.from_weights(r, w))
    assert b.matrix == ScaledMatrix(np.eye(r.n, dtype=np.int64), 1)


def test_point_mass_on_zero_class_gives_zero_column():
    r = matrix_ring(2)
    part = r.similarity
    w = {int(rep): Fr(0) for rep in part.reps}
    w[r.zero] = Fr(1)
    b = build_B(r, ClassDistribution.from_weights(r, w))
    assert np.all(b.matrix.num[:, r.zero] == b.matrix.den)


def q_over_64_bits(r):
    """A --Q on r whose common denominator (2^61-1)(2^31-1) is above 2**64."""
    part = r.similarity
    p1, p2 = 2 ** 61 - 1, 2 ** 31 - 1      # primes: the denominator is p1*p2
    c1, c2 = [ci for ci in range(len(part)) if part.reps[ci] != r.zero][:2]
    w = {int(rep): Fr(0) for rep in part.reps}
    w[int(part.reps[c1])] = Fr(1, p1)
    w[int(part.reps[c2])] = Fr(1, p2)
    w[r.zero] = 1 - Fr(len(part.classes[c1]), p1) \
        - Fr(len(part.classes[c2]), p2)
    q = q_from_config(r, json.dumps({k: str(v) for k, v in w.items()}))
    assert q.scaled_weights()[1] > 2 ** 64
    return q


def test_b_exact_when_denominator_exceeds_64_bits():
    """A --Q whose common denominator is above 2**64, so that B's integer
    numerators do not fit int64, still gives the exact B."""
    r = matrix_ring(2)
    q = q_over_64_bits(r)
    b = build_B(r, q)
    ws, rows = element_weights(q), fraction_rows(b.matrix)
    for a in range(r.n):
        for c in range(r.n):
            brute = sum((ws[x] for x in range(r.n) if r.mul[x, a] == c),
                        Fr(0))
            assert rows[a][c] == brute
    assert all(s == 1 for s in b.matrix.row_sums())


def test_m_shift_exact_when_denominator_exceeds_64_bits():
    from ringwalk.checks import check_m_shift
    r = matrix_ring(2)
    q = q_over_64_bits(r)
    for alpha in (Fr(1, 3), Fr(1, 2)):
        ok, detail = check_m_shift(r, q, alpha)
        assert ok, detail


def test_object_path_matches_fractions_and_passes_verify(monkeypatch):
    """On M2(F3), with Q's common denominator past 2^63: B and M are object
    arrays equal to the Fraction sums entry for entry, every verify check
    passes, and one B entry moved below zero still fails
    spectrum-m-shift."""
    from ringwalk import checks
    from ringwalk.checks import check_m_shift, full_suite
    from test_cli import corrupt_b_negative, corrupted_reader
    r = matrix_ring(3)
    q = q_over_64_bits(r)
    alpha = Fr(1, 3)
    oracle = [[Fr(0)] * r.n for _ in range(r.n)]
    ws = element_weights(q)
    for x in range(r.n):
        for a in range(r.n):
            oracle[a][r.mul[x, a]] += ws[x]
    b = build_B(r, q)
    m = build_M(r, q, alpha)
    assert b.matrix.num.dtype == m.matrix.num.dtype == object
    assert fraction_rows(b.matrix) == oracle
    assert fraction_rows(m.matrix) == [
        [alpha / r.n + (1 - alpha) * v for v in row] for row in oracle]
    suite = full_suite(r, q, alpha, T=3)
    assert all(ok for _, ok, _ in suite), suite
    monkeypatch.setattr(checks, "b_blocks",
                        corrupted_reader(checks.b_blocks, corrupt_b_negative))
    assert check_m_shift(r, q, alpha) == \
        (False, "a row of B or M is not a probability vector")


@pytest.mark.parametrize("make", [lambda: matrix_ring(2), lambda: zn_ring(12)],
                         ids=["M2(F2)", "Z_12"])
def test_scaled_weights_equal_per_element_fractions(make):
    r = make()
    for q in (ClassDistribution.uniform(r), q_over_64_bits(r)):
        ws = element_weights(q)
        den = lcm(*(w.denominator for w in ws))
        got, got_den = q.scaled_weights()
        assert got_den == den
        assert list(got) == [int(w * den) for w in ws]


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
        left = build_B(r, q).matrix
        right = right_multiplication_B(r, q)
        assert (left == right) == same


def test_right_side_is_transpose_relabel_for_m2():
    # z -> z^T is an anti-automorphism of M2 preserving similarity classes,
    # so B_right(a, b) = B_left(a^T, b^T)
    r = matrix_ring(3)
    q = ClassDistribution.uniform(r)
    left = build_B(r, q).matrix
    right = right_multiplication_B(r, q)
    perm = [ring_element_index(r, (e[0, 0], e[1, 0], e[0, 1], e[1, 1]))
            for e in r.entries]
    assert right.den == left.den
    assert np.array_equal(right.num, left.num[np.ix_(perm, perm)])


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


def test_m_entry_golden():
    r = matrix_ring(2)
    m = build_M(r, ClassDistribution.uniform(r), Fr(1, 2))
    assert fraction_rows(m.matrix)[0][0] == Fr(17, 32)


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
from fractions import Fraction
from ringwalk.chain import ClassDistribution, TransitionMatrix, build_B
from ringwalk.errors import (AlphaOutOfRange, InvariantViolation,
                             LengthMismatch, ParamOutOfRange, RingMismatch)
from ringwalk.exact import ScaledMatrix
from ringwalk.gl2 import character_table
from ringwalk.mixing import class_products, simulate
from ringwalk.rings import (FiniteRing, SimilarityPartition, matrix_ring,
                            zn_ring)
from ringwalk import checks, fields, spectrum, stationary
import numpy as np
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
    # 2 is no unit of Z_6: its powers leave the claimed unit group {1, 2}
    ("r = zn_ring(6); r.units = np.array([1, 2]); r.unit_generators",
     "InvariantViolation"),
    # one entry of M2(F3)'s product moved: only the generator checks see it
    ("m = (r := matrix_ring(3)).mul.copy(); m[40, 50] = (m[40, 50] + 1) % 81;"
     " FiniteRing(r.add, m, r.zero, r.one, 'bad', {})", "InvariantViolation"),
    # 1x2 times 1x2: zip would silently truncate to a 1x2 "product"
    ("ScaledMatrix([[1, 0]], 1) @ ScaledMatrix([[1, 0]], 1)",
     "LengthMismatch"),
    ("character_table(3).classify((1, 1, 1, 1))", "InvariantViolation"),
    # doubled fixed-point counts: Burnside gives 4 orbits on S_0 x S_0, not 1
    ("spectrum.fixed_point_counts = lambda r, a, f=spectrum."
     "fixed_point_counts: 2 * f(r, a); spectrum."
     "is_multiplicity_free_nonunit(r := matrix_ring(3), r.zero)",
     "InvariantViolation"),
    # no unit generators: the diagonal of S_1 x S_1 (|S_1| = 8) splits
    ("r = matrix_ring(3); r.unit_generators = (); "
     "spectrum.is_multiplicity_free_nonunit(r, 1)", "InvariantViolation"),
    # halved characters: the table reads 1/2 at 1, not the degree chi(1)
    ("spectrum.unit_group_characters = lambda r, f=spectrum."
     "unit_group_characters: f(r) / 2; spectrum.block_spectrum(r := "
     "matrix_ring(3), ClassDistribution.uniform(r))",
     "InvariantViolation"),
    # one irrep dropped: the table no longer matches the exact degrees
    ("spectrum.unit_group_characters = lambda r, f=spectrum."
     "unit_group_characters: f(r)[1:]; spectrum.block_spectrum(r := "
     "matrix_ring(3), ClassDistribution.uniform(r))",
     "InvariantViolation"),
    # one irrep dropped with its degree: the squared degrees sum to 47,
    # not |U| = 48
    ("spectrum.unit_group_characters = lambda r, f=spectrum."
     "unit_group_characters: f(r)[1:]; spectrum.unit_group_degrees = "
     "lambda r, f=spectrum.unit_group_degrees: f(r)[1:]; spectrum."
     "block_spectrum(r := matrix_ring(3), ClassDistribution.uniform(r))",
     "InvariantViolation"),
    # Q read off B[1, U] differs within a class of units
    ("b = build_B(r := matrix_ring(3), ClassDistribution.uniform(r));"
     " b.matrix.num[r.one, r.units[-1]] += 1; spectrum.b_blocks = "
     "lambda r, q, rows: [(rows, b.matrix.num[list(rows)], None)]; "
     "spectrum.block_spectrum(r, ClassDistribution.uniform(r))",
     "InvariantViolation"),
    # the lumped solution with half of one class's mass moved to the next
    ("stationary.stationary_nullspace = lambda m, f=stationary."
     "stationary_nullspace: (lambda v: [v[0] / 2, v[1] + v[0] / 2] + v[2:])"
     "(f(m)); stationary.stationary_solve(r := zn_ring(6), "
     "ClassDistribution.uniform(r), Fraction(1, 2))", "InvariantViolation"),
    # an equal copy of Z_6 is still another ring object: Q's class weights
    # index only the classes of the ring Q was built on
    ("build_B(r := zn_ring(6), ClassDistribution.uniform(FiniteRing("
     "r.add, r.mul, r.zero, r.one, r.label, {})))", "RingMismatch"),
    # {2, 4} is closed under conjugation in Z_6 but holds two orbits
    ("r = zn_ring(6); r.__dict__['similarity'] = SimilarityPartition("
     "[np.array([0]), np.array([1]), np.array([2, 4]), np.array([3]),"
     " np.array([5])], np.array([0, 1, 2, 3, 5]), np.array([0, 1, 2, 3, 2,"
     " 4]), np.array([False, True, False, False, True])); class_products(r)",
     "InvariantViolation"),
    ("simulate(r := zn_ring(6), ClassDistribution.uniform(r), Fraction(1, 2),"
     " 0, 5, 100, seed=None)", "ParamOutOfRange"),
    # a coin draw of 2^63 or more does not fit int64
    ("simulate(r := zn_ring(6), ClassDistribution.uniform(r),"
     " Fraction(1, 2**63 + 1), 0, 5, 100, seed=1)", "ParamOutOfRange"),
    # 2^16 + 3 in an int64 table would wrap to the valid entry 3 as uint16
    ("a = (r := zn_ring(4)).add.astype(np.int64); a[1, 2] += 2**16;"
     " FiniteRing(a, r.mul, r.zero, r.one, 'wide', {})", "InvariantViolation"),
    # alpha must lie in (0, 1), though the check reads only B
    ("checks.check_m_shift(r := zn_ring(6), ClassDistribution.uniform(r),"
     " Fraction(0))", "AlphaOutOfRange"),
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
