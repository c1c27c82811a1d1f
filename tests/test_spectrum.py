"""Spectral routes: numeric, B's diagonal blocks, and GL2 closed forms,
held up against LAPACK; and the exact spectrum checks."""

import os
import random
import tracemalloc
from fractions import Fraction as Fr
from math import lcm

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ringwalk import cli, spectrum
from ringwalk.chain import (
    ClassDistribution,
    TransitionMatrix,
    build_B,
    build_M,
    chain_matrix,
    weighted_mul_counts,
)
from ringwalk.checks import (
    check_conjugation_invariance,
    check_m_shift,
    check_spectrum_gl2,
    check_spectrum_two_way,
)
from ringwalk.exact import ScaledMatrix
from ringwalk.fields import is_prime
from ringwalk.errors import (
    InvariantViolation,
    RingMismatch,
    TooLarge,
    UnsupportedQ,
)
from ringwalk.rings import (
    matrix_ring,
    product_ring,
    upper_triangular_ring,
    zn_ring,
)
from ringwalk.spectrum import (
    EigenvalueMultiset,
    block_spectrum,
    eig_numeric,
    fixed_point_counts,
    gl2_spectrum,
    gl2_spectrum_mod_p,
    is_multiplicity_free_nonunit,
    power_traces_mod_p,
    unit_block_spectrum,
    unit_group_characters,
)

from random_rings import random_class_q, random_ring
from spectral_oracle import (
    MATCH,
    abelian_characters_by_dict,
    block_values,
    closed_form_values,
    dense_float,
    expand,
    multiplicities,
    multisets_match,
    numeric_multiplicity,
    orbital_mult_free,
    shift_to_chain_values,
    union_find_merge,
)
from test_cli import seeded_q_json


def uniform(ring):
    return ClassDistribution.uniform(ring)


def blocks(ring, q):
    """The values of block_spectrum on the exact B of (ring, q), the
    blocks' multisets concatenated."""
    return block_values(block_spectrum(ring, build_B(ring, q)))


def nonuniform_m2f3():
    """All-positive class-constant Q on M2(F3): extra mass on the zero
    class, less on the identity class, uniform elsewhere."""
    r = matrix_ring(3)
    part = r.similarity
    w = {}
    for ci in range(len(part)):
        rep = int(part.reps[ci])
        if rep == r.zero:
            w[rep] = Fr(1, 54)
        elif rep == r.one:
            w[rep] = Fr(1, 162)
        else:
            w[rep] = Fr(1, 81)
    return r, ClassDistribution.from_weights(r, w)


# ---------------------------------------------------------------------
# eigenvalue multisets
# ---------------------------------------------------------------------

def test_merge_identity_matrix():
    em = eig_numeric(np.eye(7))
    assert len(em.values) == 1
    assert em.values[0] == pytest.approx(1)
    assert em.mults.tolist() == [7]


def test_merge_separation_and_total():
    em = EigenvalueMultiset.from_values([0, 1e-12, 1, 1 + 2e-9, 0.5], 1e-8)
    assert em.total() == 5
    assert len(em.values) == 3
    gaps = np.abs(em.values[:, None] - em.values[None, :])
    assert gaps[~np.eye(3, dtype=bool)].min() > 1e-8


TAU = 1e-8


@st.composite
def clustered_spectra(draw):
    """Values on a coarse grid, each repeated, chained at 0.9 tau steps,
    jittered within tau or paired with its conjugate."""
    centers = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                            min_size=1, max_size=8))
    out = []
    for re, im in centers:
        z = complex(re / 4, im / 4)
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(["dup", "chain", "jitter", "conj"]))
            if kind == "dup":
                out += [z] * draw(st.integers(1, 3))
            elif kind == "chain":       # a, a + 0.9 tau, a + 1.8 tau
                out += [z + 0.9 * TAU * t for t in range(3)]
            elif kind == "jitter":
                d = draw(st.floats(-1.5, 1.5))
                out.append(z + complex(d * TAU, draw(st.floats(-1, 1)) * TAU))
            else:
                out += [z, z.conjugate()]
    return draw(st.permutations(out))


@settings(max_examples=200, deadline=None)
@given(clustered_spectra())
def test_merge_equals_union_find(evs):
    em = EigenvalueMultiset.from_values(evs, TAU)
    values, mults = union_find_merge(evs, TAU)
    assert np.array_equal(em.values, values)
    assert np.array_equal(em.mults, mults)


def test_merge_links_a_chain_only_through_its_middle():
    a = 0.25 + 0.5j
    em = EigenvalueMultiset.from_values([a + 1.8 * TAU, a, a + 0.9 * TAU], TAU)
    assert em.mults.tolist() == [3]
    em = EigenvalueMultiset.from_values([a + 1.8 * TAU, a], TAU)
    assert em.mults.tolist() == [1, 1]


def test_merge_cost_follows_the_number_of_distinct_values():
    """3,000 equal zeros are one distinct value, so the pair search sees
    three values and not the 4.5 million pairs of zeros."""
    evs = [0.0] * 3000 + [0.5, 1.0]
    tracemalloc.start()
    try:
        em = EigenvalueMultiset.from_values(evs, TAU)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert em.mults.tolist() == [3000, 1, 1]
    assert peak < 4 * 2 ** 20


def test_eig_cap():
    with pytest.raises(TooLarge):
        eig_numeric(np.eye(5000))


def test_b_spectrum_in_unit_disk_with_simple_one():
    for ring in (zn_ring(6), upper_triangular_ring(3), matrix_ring(2)):
        ev = expand(eig_numeric(dense_float(build_B(ring, uniform(ring)))))
        assert np.all(np.abs(ev) <= 1 + 1e-9)
        assert numeric_multiplicity(ev, 1.0) == 1
        assert multisets_match(ev, np.conj(ev), MATCH)


def test_m2f2_eigenvalue_structure():
    """Uniform Q on M2(F2): the unit block is the regular representation of
    a group with irreducible dimensions 1, 1, 2; the three rank-one blocks
    contribute 1 - 1/q^2 = 3/4 each; zero block gives 1."""
    ring = matrix_ring(2)
    em = eig_numeric(dense_float(build_B(ring, uniform(ring))))
    got = {round(float(v.real), 9): int(m) for v, m in em}
    assert got == {0.0: 11, 0.375: 1, 0.75: 3, 1.0: 1}


def test_z6_block_spectrum_matches_brute_force():
    ring = zn_ring(6)
    bm = blocks(ring, uniform(ring))
    # independent brute-force diagonalization of the fiber-count matrix
    brute = np.linalg.eigvals(
        np.array([[np.sum(ring.mul[:, a] == b) for b in range(6)]
                  for a in range(6)]) / 6)
    assert multisets_match(bm, brute, MATCH)
    expected = [1, Fr(2, 3), Fr(1, 2), Fr(1, 3), 0, 0]
    assert multisets_match(bm, [complex(float(x)) for x in expected],
                           MATCH)


def test_block_total_is_ring_size():
    for ring in (zn_ring(12), upper_triangular_ring(3), matrix_ring(2),
                 product_ring(zn_ring(2), zn_ring(3))):
        assert len(blocks(ring, uniform(ring))) == ring.n


def test_block_matches_numeric_many_rings_and_qs():
    rings = [zn_ring(6), zn_ring(12), upper_triangular_ring(2),
             upper_triangular_ring(3), matrix_ring(2),
             product_ring(zn_ring(2), zn_ring(3))]
    for ring in rings:
        part = ring.similarity
        qs = [uniform(ring)]
        # two lopsided but valid class-constant choices
        w = {int(part.reps[i]): Fr(0) for i in range(len(part))}
        w[ring.zero] = Fr(1, 2)
        w[ring.one] = Fr(1, 2)
        qs.append(ClassDistribution.from_weights(ring, w))
        w2 = {int(part.reps[i]): Fr(1, 2 * (ring.n - 1))
              for i in range(len(part))}
        w2[ring.zero] = Fr(1, 2)
        qs.append(ClassDistribution.from_weights(ring, w2))
        for q in qs:
            em = expand(eig_numeric(dense_float(build_B(ring, q))))
            assert multisets_match(em, blocks(ring, q), MATCH), ring.label
            assert check_spectrum_two_way(ring, build_B(ring, q))[0]


def test_block_spectrum_rejects_b_of_another_ring():
    """Z_16 and M2(F2) both have 16 elements: only the ring identity tells
    their B apart."""
    ring = zn_ring(16)
    with pytest.raises(RingMismatch):
        block_spectrum(matrix_ring(2), build_B(ring, uniform(ring)))


def test_block_spectrum_counts_n_eigenvalues(monkeypatch):
    """A unit block that loses one distinct value leaves the block totals
    short of n."""
    unit_block = spectrum.unit_block_spectrum

    def short(*args):
        em = unit_block(*args)
        return EigenvalueMultiset(em.values[1:], em.mults[1:])

    monkeypatch.setattr(spectrum, "unit_block_spectrum", short)
    ring = matrix_ring(3)
    with pytest.raises(InvariantViolation, match="not n = 81"):
        block_spectrum(ring, build_B(ring, uniform(ring)))


def test_projected_operator_zero_is_one_by_one_identity():
    for ring in (zn_ring(6), matrix_ring(2)):
        assert ring.s_set(ring.zero).tolist() == [ring.zero]
        b = build_B(ring, uniform(ring)).matrix
        assert b.num[ring.zero, ring.zero] == b.den


def test_projected_operator_unit_block_shape_and_equivariance():
    """The unit-block operator W[S_1, S_1]^T is |U| x |U| and commutes with
    the unit action: P[u s', u s] = P[s', s], exhaustively on M2(F2)."""
    ring = matrix_ring(2)
    sa = ring.s_set(ring.one)
    assert len(sa) == len(ring.units)
    pos = {int(s): i for i, s in enumerate(sa)}
    mat = weighted_mul_counts(ring, [1] * ring.n)[np.ix_(sa, sa)].T
    for u in ring.units:
        perm = [pos[int(ring.mul[u, s])] for s in sa]
        assert np.array_equal(mat[np.ix_(perm, perm)], mat)


# ---------------------------------------------------------------------
# GL2 closed forms
# ---------------------------------------------------------------------

def test_three_way_agreement_q3_uniform():
    ring = matrix_ring(3)
    q = uniform(ring)
    em = expand(eig_numeric(dense_float(build_B(ring, q))))
    bm = blocks(ring, q)
    rep = gl2_spectrum(ring, q)
    assert rep.total() == 81
    assert multisets_match(em, bm, MATCH)
    assert multisets_match(em, closed_form_values(rep), MATCH)


def test_three_way_agreement_q3_nonuniform():
    ring, q = nonuniform_m2f3()
    em = expand(eig_numeric(dense_float(build_B(ring, q))))
    bm = blocks(ring, q)
    rep = gl2_spectrum(ring, q)
    assert multisets_match(em, bm, MATCH)
    assert multisets_match(em, closed_form_values(rep), MATCH)


def test_unit_block_trivial_eigenvalue_uniform():
    ring = matrix_ring(3)
    rep = gl2_spectrum(ring, uniform(ring))
    triv = [v for (block, label, dim, v, m) in rep.rows
            if block == "unit" and label == "det(0,)"]
    assert triv[0] == pytest.approx(48 / 81)     # |GL2(F3)| / 81


def test_gl2_multiplicity_accounting():
    for q in (3, 5):
        ring = matrix_ring(q)
        rep = gl2_spectrum(ring, uniform(ring))
        by_block = {}
        for block, _, dim, _, m in rep.rows:
            by_block.setdefault(block, 0)
            by_block[block] += m
        assert by_block["unit"] == (q * q - 1) * (q * q - q)
        assert by_block["rank-one"] == (q + 1) * (q * q - 1)
        assert by_block["zero"] == 1
        assert rep.total() == q ** 4


def test_gl2_rejects_even_q():
    ring = matrix_ring(2)
    with pytest.raises(UnsupportedQ):
        gl2_spectrum(ring, uniform(ring))


@pytest.mark.skipif(not os.environ.get("RINGWALK_EXTENDED"),
                    reason="set RINGWALK_EXTENDED=1 for the q=5 run")
def test_three_way_agreement_q5_extended():
    ring = matrix_ring(5)
    q = uniform(ring)
    em = expand(eig_numeric(dense_float(build_B(ring, q))))
    bm = blocks(ring, q)
    rep = gl2_spectrum(ring, q)
    assert rep.total() == 625
    assert multisets_match(em, bm, MATCH)
    assert multisets_match(em, closed_form_values(rep), MATCH)


# ---------------------------------------------------------------------
# chain shift
# ---------------------------------------------------------------------

def test_m_spectrum_is_shifted_b_spectrum():
    for ring in (zn_ring(6), matrix_ring(2), upper_triangular_ring(3)):
        q = uniform(ring)
        alpha = Fr(1, 3)
        b = expand(eig_numeric(dense_float(build_B(ring, q))))
        m = expand(eig_numeric(dense_float(build_M(ring, q, alpha))))
        assert multisets_match(m, shift_to_chain_values(b, alpha), MATCH)


# ---------------------------------------------------------------------
# exact spectrum checks
# ---------------------------------------------------------------------

def seeded_q(ring, seed):
    """A class-constant Q with random integer class weights 1..9."""
    rnd = random.Random(seed)
    part = ring.similarity
    w = [rnd.randint(1, 9) for _ in part.classes]
    total = sum(x * len(c) for x, c in zip(w, part.classes))
    return ClassDistribution(ring, [Fr(x, total) for x in w])


@pytest.mark.parametrize("q, p", [(3, 89), (5, 673), (7, 2593)])
def test_gl2_prime_is_least_above_q4_and_one_mod_q2_minus_1(q, p):
    ring = matrix_ring(q)
    got, D, rows = gl2_spectrum_mod_p(ring, uniform(ring))
    assert got == p and is_prime(p) and p > q ** 4
    assert [c for c in range(q ** 4 + 1, p + 1)
            if (c - 1) % (q * q - 1) == 0 and is_prime(c)] == [p]
    assert D == q ** 4
    assert sum(m for *_, m in rows) == q ** 4


@pytest.mark.parametrize("make", [lambda: zn_ring(12),
                                  lambda: upper_triangular_ring(3),
                                  lambda: matrix_ring(3)],
                         ids=["Z_12", "B2(F3)", "M2(F3)"])
def test_power_traces_equal_exact_matrix_powers(make):
    ring = make()
    Q = seeded_q(ring, 1)
    D = lcm(*(w.denominator for w in Q.weights))
    B = build_B(ring, Q).matrix
    DB = np.array(B.num, dtype=object) * (D // B.den)     # integral
    power = np.eye(ring.n, dtype=np.int64).astype(object)
    traces = power_traces_mod_p(ring, Q, 89, D, 6)
    for j in range(1, 7):
        power = power.dot(DB)
        assert traces[j - 1] == np.trace(power) % 89


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("seed", [None, 1, 2])
def test_gl2_check_passes_and_matches_lapack(q, seed):
    ring = matrix_ring(q)
    Q = uniform(ring) if seed is None else seeded_q(ring, seed)
    ok, detail = check_spectrum_gl2(ring, Q)
    assert ok, detail
    if q == 3:      # LAPACK as the oracle for the complex closed forms
        em = expand(eig_numeric(dense_float(build_B(ring, Q))))
        assert multisets_match(em, closed_form_values(gl2_spectrum(ring, Q)))


def test_gl2_check_skips_outside_odd_prime_m2():
    for ring in (zn_ring(6), matrix_ring(2), matrix_ring(2, size=3)):
        ok, detail = check_spectrum_gl2(ring, uniform(ring))
        assert ok and detail.startswith("skipped")


@pytest.mark.parametrize("make", [lambda: zn_ring(12),
                                  lambda: upper_triangular_ring(3),
                                  lambda: matrix_ring(3),
                                  lambda: matrix_ring(5),
                                  lambda: matrix_ring(2, size=3),
                                  lambda: product_ring(zn_ring(4),
                                                       matrix_ring(2))],
                         ids=["Z_12", "B2(F3)", "M2(F3)", "M2(F5)", "M3(F2)",
                              "Z_4xM2(F2)"])
def test_unit_generators_generate_the_unit_group(make):
    ring = make()
    gens = ring.unit_generators
    assert 2 ** len(gens) <= len(ring.units)
    group = {ring.one}
    frontier = [ring.one]
    while frontier:
        frontier = [int(ring.mul[h, g]) for h in frontier for g in gens
                    if int(ring.mul[h, g]) not in group]
        group.update(frontier)
    assert group == set(ring.units.tolist())


def test_conjugation_check_uses_every_generator():
    """A change to B that commutes with the first generator g only: mass
    moved along the orbit of (1, d) under the powers of g."""
    ring = matrix_ring(3)
    B = build_B(ring, seeded_q(ring, 1))
    g = ring.unit_generators[0]
    powers = [ring.one]
    while int(ring.mul[powers[-1], g]) != ring.one:
        powers.append(int(ring.mul[powers[-1], g]))
    d, e = (int(u) for u in ring.units[-2:])
    num = B.matrix.num.copy()
    for h in powers:
        num[h, ring.mul[h, d]] += 1
        num[h, ring.mul[h, e]] -= 1
    bad = TransitionMatrix(ScaledMatrix(num, B.matrix.den), "B", ring)
    perm, num = ring.mul[g, :], bad.matrix.num
    assert np.array_equal(num[np.ix_(perm, perm)], num)
    assert not check_conjugation_invariance(ring, bad)[0]


def test_conjugation_check_reads_the_last_row_block():
    """Mass moved within row x = n - 1 of B on Z_2 x M2(F3) is seen.  The
    units are (1, u), so x and every u^-1 x lie past the first 64 rows that
    the check compares."""
    ring = product_ring(zn_ring(2), matrix_ring(3))
    B = build_B(ring, seeded_q(ring, 1))
    num = B.matrix.num.copy()
    x = ring.n - 1
    y, z = np.flatnonzero(num[x])[:2]
    num[x, y] += 1
    num[x, z] -= 1
    bad = TransitionMatrix(ScaledMatrix(num, B.matrix.den), "B", ring)
    assert ring.units.min() >= 81
    assert not check_conjugation_invariance(ring, bad)[0]


def test_two_way_check_reads_the_last_row_block():
    """Mass moved in row x >= 64 of B on M2(F3), from an entry inside the
    ideal of x to a unit y, is reported at (x, y): the check compares 64
    rows at a time and must reach the last block."""
    ring = matrix_ring(3)
    B = build_B(ring, seeded_q(ring, 1))
    x = max(set(range(ring.n)) - set(ring.units.tolist()))
    y = int(ring.units[0])
    num = B.matrix.num.copy()
    z = np.flatnonzero(num[x])[0]
    num[x, y] += 1
    num[x, z] -= 1
    bad = TransitionMatrix(ScaledMatrix(num, B.matrix.den), "B", ring)
    assert x >= 64
    assert check_spectrum_two_way(ring, bad) == \
        (False, f"B({x}, {y}) != 0 but I_{y} is not inside I_{x}")


def test_m_shift_check_reads_the_last_row_block():
    """Mass moved within row x = n - 1 of M on M2(F3), past the first 64
    rows the check compares, breaks M = (1 - alpha) B + (alpha/n) J."""
    ring = matrix_ring(3)
    B = build_B(ring, seeded_q(ring, 1))
    M = chain_matrix(B, Fr(1, 2))
    assert check_m_shift(B, M)[0]
    num = M.matrix.num.copy()
    x = ring.n - 1
    num[x, 0] += 1
    num[x, 1] -= 1
    bad = TransitionMatrix(ScaledMatrix(num, M.matrix.den), "M", ring,
                           alpha=M.alpha)
    assert x >= 64
    assert check_m_shift(B, bad) == \
        (False, "M != (1 - alpha) B + (alpha/n) J")


def test_gl2_check_catches_a_change_that_keeps_the_trace(monkeypatch):
    """Two closed forms of equal multiplicity moved by +1 and -1 (in D *
    eigenvalue): the first power sum is unchanged, a later one is not."""
    from ringwalk import spectrum
    rows_of = spectrum._gl2_rows

    def moved(*args):
        rows = list(rows_of(*args))
        for i, sign in ((0, 1), (1, -1)):        # det(0,) and det(1,)
            block, label, dim, s, mult = rows[i]
            rows[i] = (block, label, dim, s + sign * dim, mult)
        return rows

    monkeypatch.setattr(spectrum, "_gl2_rows", moved)
    ring = matrix_ring(3)
    ok, detail = check_spectrum_gl2(ring, seeded_q(ring, 2))
    assert not ok and "power sum 1 " not in detail


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_exact_checks_agree_with_lapack_on_random_rings(data):
    """On random rings and random class-constant Q, the exact checks pass
    and the block spectra have LAPACK's power sums.  (B may have Jordan
    blocks, whose eigenvalues LAPACK moves by ~sqrt(eps); power sums are
    traces, so they stay well conditioned.)"""
    ring = random_ring(data.draw)
    B = build_B(ring, random_class_q(data.draw, ring))
    alpha = Fr(data.draw(st.integers(1, 9)), 10)
    for check in (check_conjugation_invariance(ring, B),
                  check_spectrum_two_way(ring, B),
                  check_m_shift(B, chain_matrix(B, alpha))):
        assert check[0], check[1]
    numeric = expand(eig_numeric(dense_float(B)))
    blocks = block_values(block_spectrum(ring, B))
    for j in range(1, 9):
        assert abs(np.sum(numeric ** j) - np.sum(blocks ** j)) < 1e-9 * ring.n


# ---------------------------------------------------------------------
# the unit block from characters
# ---------------------------------------------------------------------

def assert_unit_block_equals_lapack(ring, Q):
    """The character route's unit block against eig_numeric(B[U, U]^T):
    each value has its nearest LAPACK value within 1e-9, with the same
    multiplicity, and there are as many values."""
    assert unit_group_characters(ring) is not None
    B = build_B(ring, Q)
    got = unit_block_spectrum(ring, B)
    want = eig_numeric(dense_float(B)[np.ix_(ring.units, ring.units)].T)
    assert len(got.values) == len(want.values)
    for v, m in got:
        j = np.argmin(np.abs(want.values - v))
        assert abs(want.values[j] - v) <= 1e-9
        assert want.mults[j] == m


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_character_unit_block_equals_lapack_on_random_rings(data):
    ring = random_ring(data.draw)
    assume(unit_group_characters(ring) is not None)
    assert_unit_block_equals_lapack(ring, random_class_q(data.draw, ring))


@pytest.mark.parametrize("q, seed", [(3, None), (3, 1), (5, None), (5, 1)])
def test_character_unit_block_equals_lapack_on_m2(q, seed):
    """GL2's table, with uniform Q and the benchmark's seed-1 Q."""
    ring = matrix_ring(q)
    Q = cli.q_from_config(ring, seeded_q_json(ring, seed) if seed else None)
    assert_unit_block_equals_lapack(ring, Q)


def assert_abelian_characters_equal_the_oracle(ring):
    m = len(ring.units)
    rows = [[Fr(int(a), m) for a in row]
            for row in spectrum._abelian_characters(ring)]
    assert rows == [[chi[int(u)] for u in ring.units]
                    for chi in abelian_characters_by_dict(ring)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_abelian_characters_equal_the_oracle_on_random_rings(data):
    ring = random_ring(data.draw)
    assume(ring.units_abelian)
    assert_abelian_characters_equal_the_oracle(ring)


@pytest.mark.parametrize("n", [1, 60, 243])
def test_abelian_characters_equal_the_oracle_on_zn(n):
    assert_abelian_characters_equal_the_oracle(zn_ring(n))


def test_abelian_character_table_is_capped(monkeypatch):
    """EIG_CAP bounds the |U| x |U| table as it bounds LAPACK's block."""
    ring = zn_ring(60)                       # 16 units
    monkeypatch.setattr(spectrum, "EIG_CAP", 15)
    with pytest.raises(TooLarge):
        blocks(ring, uniform(ring))


def test_unit_block_route_is_named():
    assert spectrum.unit_block_route(matrix_ring(3)) == "characters (8 irreps)"
    assert spectrum.unit_block_route(zn_ring(60)) == \
        "characters (16 irreps)"
    assert spectrum.unit_block_route(upper_triangular_ring(5)) == \
        "lapack (80x80)"


# ---------------------------------------------------------------------
# permutation-character multiplicities
# ---------------------------------------------------------------------

def perm_char_multiplicity(ring, a, chi):
    """Multiplicity of chi, on ring.units, in U_R's permutation rep on S_a."""
    return multiplicities(ring, a, fixed_point_counts(ring, a), [chi])[0]


def test_perm_multiplicity_trivial_on_zero():
    for ring in (zn_ring(6), matrix_ring(2), matrix_ring(3)):
        trivial = np.ones(len(ring.units))
        assert perm_char_multiplicity(ring, ring.zero, trivial) == 1


def test_perm_multiplicity_regular_on_unit_block():
    ring = matrix_ring(3)
    chars = unit_group_characters(ring)
    from ringwalk.gl2 import character_table
    tab = character_table(3)
    for chi, rep in zip(chars, tab.irreps):
        assert perm_char_multiplicity(ring, ring.one, chi) == rep.dim


def test_perm_multiplicity_rank_one_decomposition():
    """Prop-style check: on a rank-one S_a the constituents are exactly the
    induced-from-mirabolic ones, each once."""
    from gl2_oracle import induced_from_P_decomposition
    from ringwalk.gl2 import character_table
    ring = matrix_ring(3)
    tab = character_table(3)
    dec = induced_from_P_decomposition(3)
    chars = unit_group_characters(ring)
    a = next(int(a) for a in ring.phi
             if int(a) not in ring.unit_set and int(a) != ring.zero)
    for chi, rep in zip(chars, tab.irreps):
        assert perm_char_multiplicity(ring, a, chi) == dec[rep]


def test_fixed_point_counts_consistency():
    ring = matrix_ring(2)
    fix = fixed_point_counts(ring, ring.one)
    # only the identity fixes anything in the regular action
    assert fix[list(ring.units).index(ring.one)] == len(ring.units)
    assert sorted(fix)[:-1] == [0] * (len(ring.units) - 1)


# ---------------------------------------------------------------------
# multiplicity-freeness
# ---------------------------------------------------------------------

def test_zero_is_multiplicity_free_everywhere():
    for ring in (zn_ring(6), zn_ring(12),
                 product_ring(zn_ring(2), zn_ring(3)),
                 upper_triangular_ring(2), upper_triangular_ring(3),
                 matrix_ring(2), matrix_ring(3)):
        assert is_multiplicity_free_nonunit(ring, ring.zero)
    # in the one-element ring zero = one is a unit, so the notion is empty
    with pytest.raises(ValueError):
        is_multiplicity_free_nonunit(zn_ring(1), 0)


def test_commutative_rings_all_multiplicity_free():
    for ring in (zn_ring(4), zn_ring(6), zn_ring(12),
                 product_ring(zn_ring(2), zn_ring(3))):
        for a in ring.phi:
            if int(a) in ring.unit_set:
                continue
            assert is_multiplicity_free_nonunit(ring, int(a))


def test_m2_rank_one_multiplicity_free():
    ring = matrix_ring(3)
    for a in ring.phi:
        a = int(a)
        if a in ring.unit_set or a == ring.zero:
            continue
        assert is_multiplicity_free_nonunit(ring, a)


def test_upper_triangular_all_nonunits_multiplicity_free():
    for q in (2, 3):
        ring = upper_triangular_ring(q)
        for a in ring.phi:
            if int(a) in ring.unit_set:
                continue
            assert is_multiplicity_free_nonunit(ring, int(a))


def test_m3f2_rank_two_generators_are_not_multiplicity_free():
    """A genuine negative: in the 3x3 matrix ring the plane-ideal
    generators induce representations with repeated constituents."""
    ring = matrix_ring(2, size=3)
    sizes = {len(ring.s_set(int(a))): int(a) for a in ring.phi}
    assert set(sizes) == {1, 7, 42, 168}     # point, lines, planes, units
    assert is_multiplicity_free_nonunit(ring, sizes[7])
    assert not is_multiplicity_free_nonunit(ring, sizes[42])


def test_mult_free_rejects_units():
    ring = matrix_ring(2)
    with pytest.raises(ValueError):
        is_multiplicity_free_nonunit(ring, ring.one)


def nonunit_generators(ring):
    return [int(a) for a in ring.phi if int(a) not in ring.unit_set]


def test_character_and_orbital_routes_agree_on_m2f3():
    ring = matrix_ring(3)
    chars = unit_group_characters(ring)
    assert chars is not None
    for a in nonunit_generators(ring):
        by_chars = all(perm_char_multiplicity(ring, a, chi) <= 1
                       for chi in chars)
        assert by_chars == orbital_mult_free(ring, a)


def test_m2_over_gf4_takes_the_orbital_route():
    # GL2(F_4) has no closed-form table here: q = 4 is not an odd prime
    from ringwalk.fields import gf
    ring = matrix_ring(gf(2, 2))
    assert unit_group_characters(ring) is None
    for a in nonunit_generators(ring):
        assert is_multiplicity_free_nonunit(ring, a) == \
            orbital_mult_free(ring, a)


def test_unit_group_characters_built_once_per_ring(monkeypatch):
    from ringwalk.gl2 import CharacterTable
    calls = []
    classify = CharacterTable.classify

    def counted(self, entries):
        calls.append(tuple(entries))
        return classify(self, entries)

    monkeypatch.setattr(CharacterTable, "classify", counted)
    ring = matrix_ring(5)
    chars = unit_group_characters(ring)
    assert unit_group_characters(ring) is chars
    unit_block_spectrum(ring, build_B(ring, uniform(ring)))
    assert unit_group_characters(ring) is chars
    assert len(calls) <= int(ring.similarity.invertible.sum())
    with pytest.raises(ValueError):
        chars[0, 0] = 0


def per_character_multiplicity(fix, chi, units):
    """<fix, chi> over the unit group, one character at a time."""
    val = np.sum(fix * np.conj(chi)) / units
    m = round(val.real)
    assert abs(val - m) < 1e-8
    return m


@pytest.mark.parametrize("make", [lambda: matrix_ring(3),
                                  lambda: matrix_ring(5),
                                  lambda: upper_triangular_ring(5),
                                  lambda: zn_ring(12)],
                         ids=["M2(F3)", "M2(F5)", "B2(F5)", "Z_12"])
def test_one_product_multiplicities_equal_per_character(make):
    ring = make()
    chars = unit_group_characters(ring)
    for a in nonunit_generators(ring):
        if chars is None:
            # B2(F5): non-abelian units outside M2(F_q), so no table
            assert is_multiplicity_free_nonunit(ring, a) == \
                orbital_mult_free(ring, a)
            continue
        fix = fixed_point_counts(ring, a)
        expected = [per_character_multiplicity(fix, chi, len(ring.units))
                    for chi in chars]
        assert multiplicities(ring, a, fix, chars).tolist() == expected
        assert is_multiplicity_free_nonunit(ring, a) == \
            (max(expected) <= 1)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_orbital_route_equals_both_oracles_on_random_rings(data):
    """The one-row orbital route against the sweep-and-matmul oracle on
    every non-unit generator, and against the characters wherever U_R has
    a table."""
    ring = random_ring(data.draw)
    chars = unit_group_characters(ring)
    for a in nonunit_generators(ring):
        got = is_multiplicity_free_nonunit(ring, a)
        assert got == orbital_mult_free(ring, a)
        if chars is not None:
            mults = multiplicities(ring, a, fixed_point_counts(ring, a), chars)
            assert got == bool(np.all(mults <= 1))


@pytest.mark.parametrize("make, count", [
    (lambda: matrix_ring(2, size=3), 7),
    (lambda: product_ring(zn_ring(4), matrix_ring(2)), 2),
    (lambda: product_ring(zn_ring(2), matrix_ring(3)), 1),
    (lambda: product_ring(zn_ring(2), upper_triangular_ring(3)), 1),
], ids=["M3(F2)", "Z_4xM2(F2)", "Z_2xM2(F3)", "Z_2xB2(F3)"])
def test_generators_that_are_not_multiplicity_free(make, count):
    ring = make()
    gens = nonunit_generators(ring)
    flags = [is_multiplicity_free_nonunit(ring, a) for a in gens]
    assert flags.count(False) == count
    assert flags == [orbital_mult_free(ring, a) for a in gens]


def test_orbital_route_checks_that_u_r_is_transitive():
    """S_1 and S_3 of M2(F3) are two orbits of U_R.  On their union
    Burnside's count still holds, so only the diagonal check sees it; with
    no unit generators the diagonal of S_1 x S_1 splits too."""
    ring = matrix_ring(3)
    union = np.concatenate([ring.s_set(1), ring.s_set(3)])
    ring.s_set = lambda a: union
    with pytest.raises(InvariantViolation, match="not one U_R-orbit"):
        is_multiplicity_free_nonunit(ring, 1)
    ring = matrix_ring(3)
    ring.unit_generators = ()
    with pytest.raises(InvariantViolation, match="not one U_R-orbit"):
        is_multiplicity_free_nonunit(ring, 1)


def test_orbital_index_cap_names_s_a(monkeypatch):
    ring = matrix_ring(3)
    assert len(ring.s_set(1)) == 8
    monkeypatch.setattr(spectrum, "EIG_CAP", 7)
    with pytest.raises(TooLarge) as exc:
        is_multiplicity_free_nonunit(ring, 1)
    assert "|S_1| = 8" in str(exc.value)
    monkeypatch.setattr(spectrum, "EIG_CAP", 8)
    assert is_multiplicity_free_nonunit(ring, 1)


def test_abelian_character_route_is_exact():
    ring = zn_ring(12)
    chars = unit_group_characters(ring)
    assert len(chars) == len(ring.units)
    sub = ring.mul[np.ix_(ring.units, ring.units)]
    index = {int(u): i for i, u in enumerate(ring.units)}
    for chi in chars:
        for i, u in enumerate(ring.units):
            for j, v in enumerate(ring.units):
                k = index[int(sub[i, j])]
                assert chi[k] == pytest.approx(chi[i] * chi[j], abs=1e-12)
