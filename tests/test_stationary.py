"""Stationary distributions: oracle solve, recursion, and closed forms."""

from fractions import Fraction as Fr
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringwalk import stationary
from ringwalk.chain import ClassDistribution
from ringwalk.errors import InvariantViolation, SingularSystem
from ringwalk.rings import (
    matrix_ring,
    product_ring,
    upper_triangular_ring,
    zn_ring,
)
from ringwalk.stationary import (
    gl2_stationary_values,
    stationary_gl2,
    stationary_recursive,
    stationary_solve,
    stationary_uniform,
)

from random_rings import random_class_q, random_ring
from ring_oracle import certificate_counts_by_class, transfer_by_cosets
from test_chain import q_over_64_bits
from test_mixing import seeded_q

ALPHAS = (Fr(1, 4), Fr(1, 2), Fr(3, 4))


def uniform(ring):
    return ClassDistribution.uniform(ring)


def m2f2_paper_values(alpha):
    unit = alpha / (2 * (3 * alpha + 5))
    nonunit = 2 * alpha / ((3 * alpha + 1) * (3 * alpha + 5))
    zero = (5 - 3 * alpha) / ((3 * alpha + 1) * (3 * alpha + 5))
    return unit, nonunit, zero


# ---------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------

def test_solve_m2f2_golden_values():
    ring = matrix_ring(2)
    pi = stationary_solve(ring, uniform(ring), Fr(1, 2))
    assert sum(pi) == 1
    unit, nonunit, zero = m2f2_paper_values(Fr(1, 2))
    assert (unit, nonunit, zero) == (Fr(1, 26), Fr(4, 65), Fr(14, 65))
    for x in range(16):
        if x == ring.zero:
            assert pi[x] == zero
        elif x in ring.unit_set:
            assert pi[x] == unit
        else:
            assert pi[x] == nonunit


def test_solve_above_former_cap():
    ring = matrix_ring(5)
    q = seeded_q(ring, 1)
    assert stationary_solve(ring, q, Fr(1, 2)) == \
        stationary_recursive(ring, q, Fr(1, 2))


def test_solve_certificate_catches_a_wrong_lumped_solution(monkeypatch):
    # move half of the first lumped class's mass to the second, sum kept 1
    solve = stationary.stationary_nullspace

    def shifted(matrix):
        v = solve(matrix)
        return [v[0] / 2, v[1] + v[0] / 2] + v[2:]

    monkeypatch.setattr(stationary, "stationary_nullspace", shifted)
    ring = upper_triangular_ring(3)
    with pytest.raises(InvariantViolation):
        stationary_solve(ring, seeded_q(ring, 2), Fr(1, 3))


def test_solve_exact_when_denominator_exceeds_64_bits():
    # the lumped counts and the certificate both go past int64
    r = matrix_ring(2)
    q = q_over_64_bits(r)
    assert stationary_solve(r, q, Fr(1, 3)) == \
        stationary_recursive(r, q, Fr(1, 3))


@settings(max_examples=30, deadline=None)
@given(st.data())
@pytest.mark.parametrize("scale", [1, None, 2 ** 63],
                         ids=["int64", "int64-weights-object-counts",
                              "object"])
def test_certificate_counts_equal_the_per_class_count(scale, data):
    """The row-block count of the pi M = pi certificate against the count
    by similarity class, on random rings and random class-constant Q.  A
    scale turns each nonzero class weight x into x * scale + 1, and
    weight 1 on the zero class pins the common denominator to the total:
    small at scale 1 (int64 weights and counts), above 2^63 at scale 2^63
    (dtype object), and within a factor n below 2^63 at the largest scale
    that keeps it there (None), so that int64 weights give dtype object
    counts.  Scatters of 1 to 300 table entries cut the table's rows."""
    ring = random_ring(data.draw)
    part = ring.similarity
    raw = data.draw(st.lists(st.integers(0, 9), min_size=len(part),
                             max_size=len(part)))
    raw[part.class_of[ring.one]] += 1
    raw[part.class_of[ring.zero]] = 0
    wide = scale is None
    if wide:
        masses = [(x * len(c), len(c)) for x, c in zip(raw, part.classes)
                  if x]
        scale = (2 ** 63 - 2 - sum(size for _, size in masses)) // sum(
            mass for mass, _ in masses)
    raw = [x * scale + 1 if x else 0 for x in raw]
    raw[part.class_of[ring.zero]] = 1
    total = sum(x * len(c) for x, c in zip(raw, part.classes))
    w, den = ClassDistribution(
        ring, [Fr(x, total) for x in raw]).scaled_weights()
    assert den > scale and (den < 2 ** 63 <= ring.n * den) == wide
    entries = data.draw(st.integers(1, 300))
    with mock.patch.object(stationary, "_SCATTER", entries):
        got = stationary._certificate_counts(ring, w, den)
    want = certificate_counts_by_class(ring, w, den)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def transfers(route, ring, *args):
    """The t_ij, as transfer(i, j), that route hands to
    stationary._recurse."""
    seen, recurse = [], stationary._recurse

    def capture(ring, alpha, transfer):
        seen.append(transfer)
        return recurse(ring, alpha, transfer)

    with mock.patch.object(stationary, "_recurse", capture):
        route(ring, *args)
    return seen[0]


def assert_transfers_match(ring, Q):
    """Both routes' t_ij equal the sum over R_{x,y} and the coset reps of
    LStab(y): every pair for stationary_recursive, and the pairs with
    ideal j containing ideal i, the only ones it reads, for
    stationary_uniform."""
    t = transfers(stationary_recursive, ring, Q, Fr(1, 2))
    t_uniform = transfers(stationary_uniform, ring, Fr(1, 2))
    poset, u = ring.ideals, uniform(ring)
    for i, x in enumerate(poset.reps.tolist()):
        for j, y in enumerate(poset.reps.tolist()):
            assert t(i, j) == transfer_by_cosets(ring, Q, x, y)
            if poset.leq[i, j]:
                assert t_uniform(i, j) == transfer_by_cosets(ring, u, x, y)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_solve_equals_recursion_on_random_rings(data):
    ring = random_ring(data.draw)
    q = random_class_q(data.draw, ring)
    assert_transfers_match(ring, q)
    s = data.draw(st.integers(2, 50))
    alpha = Fr(data.draw(st.integers(1, s - 1)), s)
    assert stationary_solve(ring, q, alpha) == \
        stationary_recursive(ring, q, alpha)
    u = uniform(ring)
    assert stationary_solve(ring, u, alpha) == \
        stationary_recursive(ring, u, alpha) == stationary_uniform(ring, alpha)


def q_with_prime_denominator(ring, p):
    """Q with weight 1/p on the first nonzero class, the rest on zero."""
    part = ring.similarity
    c = next(ci for ci in range(len(part)) if part.reps[ci] != ring.zero)
    w = [Fr(0)] * len(part)
    w[c] = Fr(1, p)
    w[part.class_of[ring.zero]] = 1 - Fr(len(part.classes[c]), p)
    return ClassDistribution(ring, w)


@pytest.mark.parametrize("make", [
    lambda: matrix_ring(2), lambda: upper_triangular_ring(3),
    # R^op's principal left ideals are R's principal right ideals
    lambda: upper_triangular_ring(3).opposite()],
    ids=["M2(F2)", "B2(F3)", "B2(F3)^op"])
def test_transfers_exact_past_int64(make):
    ring = make()
    # den above 2^64: the weights themselves leave int64
    assert_transfers_match(ring, q_over_64_bits(ring))
    # den = 2^61 - 1: int64 weights and lumped counts
    assert_transfers_match(ring, q_with_prime_denominator(ring, 2 ** 61 - 1))


# ---------------------------------------------------------------------
# recursion and closed forms
# ---------------------------------------------------------------------

def test_recursion_matches_solve_uniform():
    for ring in (zn_ring(6), upper_triangular_ring(2), matrix_ring(2)):
        q = uniform(ring)
        for alpha in ALPHAS:
            assert stationary_recursive(ring, q, alpha) == \
                stationary_solve(ring, q, alpha)


def test_recursion_matches_solve_nonuniform():
    ring = matrix_ring(2)
    part = ring.similarity
    w = {int(rep): Fr(1, 16) for rep in part.reps}
    w[ring.zero] = Fr(2, 16)
    w[6] = Fr(1, 16) - Fr(1, 48)
    q = ClassDistribution.from_weights(ring, w)
    for alpha in (Fr(1, 4), Fr(2, 5)):
        assert stationary_recursive(ring, q, alpha) == \
            stationary_solve(ring, q, alpha)


def test_uniform_closed_form_agrees_everywhere():
    rings = (zn_ring(6), zn_ring(12), upper_triangular_ring(2),
             upper_triangular_ring(3), matrix_ring(2), matrix_ring(3),
             product_ring(zn_ring(2), zn_ring(3)))
    for ring in rings:
        got = stationary_uniform(ring, Fr(1, 3))
        assert got == stationary_recursive(ring, uniform(ring), Fr(1, 3))


def test_pi_is_constant_on_generator_sets():
    ring = matrix_ring(3)
    pi = stationary_recursive(ring, uniform(ring), Fr(1, 3))
    for s in ring.ideals.generators:
        vals = {pi[int(x)] for x in s}
        assert len(vals) == 1


def test_pi_is_conjugation_invariant():
    ring = upper_triangular_ring(3)
    pi = stationary_recursive(ring, uniform(ring), Fr(2, 7))
    for u in ring.units:
        uinv = ring.inv(int(u))
        for x in range(ring.n):
            conj = int(ring.mul[ring.mul[u, x], uinv])
            assert pi[conj] == pi[x]


def test_pi_positive_and_fixed():
    ring = upper_triangular_ring(2)
    q = uniform(ring)
    alpha = Fr(2, 5)
    pi = stationary_solve(ring, q, alpha)
    assert all(p > 0 for p in pi)


# ---------------------------------------------------------------------
# the unit formula
# ---------------------------------------------------------------------

def units_formula(n, u, alpha):
    """Uniform-Q stationary probability of any unit, n = |R| and u = |U_R|."""
    return alpha / (n - u + u * alpha)


def test_units_formula_m2f2_shape():
    ring = matrix_ring(2)
    for alpha in (Fr(1, 7), Fr(1, 2), Fr(5, 6)):
        pi = stationary_solve(ring, uniform(ring), alpha)
        assert {pi[u] for u in ring.units} == {units_formula(16, 6, alpha)} \
            == {alpha / (2 * (3 * alpha + 5))}


def test_units_formula_matches_gl2_line():
    for q in (2, 3, 5):
        n = q ** 4
        u = (q * q - 1) * (q * q - q)
        for alpha in (Fr(1, 3), Fr(4, 7)):
            assert units_formula(n, u, alpha) == \
                gl2_stationary_values(q, alpha)[0]


# ---------------------------------------------------------------------
# the M2(F_q) closed forms
# ---------------------------------------------------------------------

def test_gl2_values_match_section3_example_at_q2():
    for alpha in ALPHAS:
        assert gl2_stationary_values(2, alpha) == m2f2_paper_values(alpha)


def test_gl2_vector_matches_solve_q3():
    ring = matrix_ring(3)
    alpha = Fr(2, 5)
    assert stationary_gl2(ring, alpha) == \
        stationary_solve(ring, uniform(ring), alpha)


def test_gl2_total_mass_identity_q3():
    q = 3
    alpha = Fr(1, 3)
    unit, nonunit, zero = gl2_stationary_values(q, alpha)
    u = (q * q - 1) * (q * q - q)
    assert u * unit + (q ** 4 - u - 1) * nonunit + zero == 1


def test_monotone_structure_uniform():
    # pi(zero) > pi(nonzero non-unit) > pi(unit) strictly inside (0,1)
    for q in (2, 3):
        for alpha in (Fr(1, 10), Fr(1, 2), Fr(9, 10)):
            unit, nonunit, zero = gl2_stationary_values(q, alpha)
            assert zero > nonunit > unit


def test_solve_flags_singular_inputs():
    from ringwalk.exact import ScaledMatrix, stationary_nullspace
    with pytest.raises(SingularSystem):
        stationary_nullspace(ScaledMatrix(np.eye(3, dtype=np.int64), 1))
