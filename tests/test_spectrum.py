"""Spectral routes: numeric, B's diagonal blocks, and GL2 closed forms,
held up against LAPACK; and the exact spectrum checks."""

import os
import random
import tracemalloc
from fractions import Fraction as Fr
from math import lcm
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ringwalk import chain, checks, cli, spectrum
from ringwalk.chain import (
    ClassDistribution,
    b_blocks,
    b_rows,
    build_B,
    build_M,
)
from ringwalk.checks import (
    check_conjugation_invariance,
    check_m_shift,
    check_spectrum_gl2,
    check_spectrum_two_way,
)
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
    MERGE_TOL,
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
from ring_oracle import mul_counts_by_loop
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
from test_cli import corrupt_b_negative, corrupted_reader, seeded_q_json


def uniform(ring):
    return ClassDistribution.uniform(ring)


def blocks(ring, q):
    """The values of block_spectrum on the exact B of (ring, q), the
    blocks' multisets concatenated."""
    return block_values(block_spectrum(ring, q))


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
    em = EigenvalueMultiset.from_values([0, 1e-12, 1, 1 + 2e-9, 0.5])
    assert em.total() == 5
    assert len(em.values) == 3
    gaps = np.abs(em.values[:, None] - em.values[None, :])
    assert gaps[~np.eye(3, dtype=bool)].min() > 1e-8


TAU = MERGE_TOL


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
    em = EigenvalueMultiset.from_values(evs)
    values, mults = union_find_merge(evs, TAU)
    assert np.array_equal(em.values, values)
    assert np.array_equal(em.mults, mults)


def test_merge_links_a_chain_only_through_its_middle():
    a = 0.25 + 0.5j
    em = EigenvalueMultiset.from_values([a + 1.8 * TAU, a, a + 0.9 * TAU])
    assert em.mults.tolist() == [3]
    em = EigenvalueMultiset.from_values([a + 1.8 * TAU, a])
    assert em.mults.tolist() == [1, 1]


def test_merge_cost_follows_the_number_of_distinct_values():
    """3,000 equal zeros are one distinct value, so the pair search sees
    three values and not the 4.5 million pairs of zeros."""
    evs = [0.0] * 3000 + [0.5, 1.0]
    tracemalloc.start()
    try:
        em = EigenvalueMultiset.from_values(evs)
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
            assert check_spectrum_two_way(ring, q)[0]


def test_block_spectrum_rejects_q_of_another_ring():
    """Z_16 and M2(F2) both have 16 elements: only the ring identity tells
    their Q apart, and b_rows checks it before it reads a block."""
    with pytest.raises(RingMismatch):
        block_spectrum(matrix_ring(2), uniform(zn_ring(16)))


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
        block_spectrum(ring, uniform(ring))


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
    mat = mul_counts_by_loop(ring, [1] * ring.n)[np.ix_(sa, sa)].T
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


def test_conjugation_check_uses_every_generator(monkeypatch):
    """A change to B that commutes with the first generator g only: mass
    moved along the orbit of (1, d) under the powers of g."""
    ring = matrix_ring(3)
    Q = seeded_q(ring, 1)
    g = ring.unit_generators[0]
    powers = [ring.one]
    while int(ring.mul[powers[-1], g]) != ring.one:
        powers.append(int(ring.mul[powers[-1], g]))
    d, e = (int(u) for u in ring.units[-2:])

    def corrupt(num):
        num = num.copy()
        for h in powers:
            num[h, ring.mul[h, d]] += 1
            num[h, ring.mul[h, e]] -= 1
        return num

    monkeypatch.setattr(checks, "b_blocks",
                        corrupted_reader(b_blocks, corrupt))
    perm, num = ring.mul[g, :], corrupt(b_rows(ring, Q, range(ring.n)))
    assert np.array_equal(num[np.ix_(perm, perm)], num)
    assert not check_conjugation_invariance(ring, Q)[0]


def test_conjugation_check_reads_the_last_row_block(monkeypatch):
    """Mass moved within row x = n - 1 of B on Z_2 x M2(F3) is seen.  The
    units are (1, u), so x and every u^-1 x lie past the first 64 rows that
    the check compares."""
    ring = product_ring(zn_ring(2), matrix_ring(3))
    Q = seeded_q(ring, 1)
    x = ring.n - 1

    def corrupt(num):
        num = num.copy()
        y, z = np.flatnonzero(num[x])[:2]
        num[x, y] += 1
        num[x, z] -= 1
        return num

    assert check_conjugation_invariance(ring, Q)[0]
    monkeypatch.setattr(checks, "b_blocks",
                        corrupted_reader(b_blocks, corrupt))
    assert ring.units.min() >= 81
    assert not check_conjugation_invariance(ring, Q)[0]


def test_conjugation_check_sees_a_defect_that_one_prime_divides(monkeypatch):
    """Mass p0 moved within row x = n - 1 of B on M2(F3), p0 the least
    prime in the check's range (2^18, 2^19), under a Q whose common
    denominator exceeds 2^64: B stays a probability matrix, and it agrees
    with the true B mod p0, so only primes drawn at random see the
    change."""
    ring = matrix_ring(3)
    Q = class_q(ring, [c % 5 + 1 for c in range(len(ring.similarity))], BIG)
    p0, x = 2 ** 18 + 3, ring.n - 1
    num = b_rows(ring, Q, range(ring.n))

    def corrupt(num):
        num = num.copy()
        y, z = np.flatnonzero(num[x])[:2]
        num[x, y] += p0
        num[x, z] -= p0
        return num

    assert check_conjugation_invariance(ring, Q)[0]
    assert is_prime(p0) and not any(map(is_prime, range(2 ** 18, p0)))
    assert Q.scaled_weights()[1] > 2 ** 64
    assert corrupt(num).min() >= 0 and not np.any((corrupt(num) - num) % p0)
    monkeypatch.setattr(checks, "b_blocks",
                        corrupted_reader(b_blocks, corrupt))
    assert not check_conjugation_invariance(ring, Q)[0]


def test_conjugation_bound_counts_the_primes_of_its_range():
    """N of the conjugation check's bound is the number of primes in
    (2^18, 2^19), by a sieve, and its draws are primes of that range."""
    sieve = np.ones(2 ** 19, dtype=bool)
    sieve[:2] = False
    for d in range(2, 2 ** 10):
        if sieve[d]:
            sieve[d * d::d] = False
    assert checks._PRIMES == np.count_nonzero(sieve[2 ** 18:])
    rnd = random.Random(5)
    assert all(sieve[p] and p > 2 ** 18
               for p in (checks._random_prime(rnd) for _ in range(50)))


def test_two_way_check_reads_the_last_row_block(monkeypatch):
    """Mass moved in row x >= 64 of B on M2(F3), from an entry inside the
    ideal of x to a unit y, is reported at (x, y): the check compares 64
    rows at a time and must reach the last block."""
    ring = matrix_ring(3)
    Q = seeded_q(ring, 1)
    x = max(set(range(ring.n)) - set(ring.units.tolist()))
    y = int(ring.units[0])

    def corrupt(num):
        num = num.copy()
        z = np.flatnonzero(num[x])[0]
        num[x, y] += 1
        num[x, z] -= 1
        return num

    assert check_spectrum_two_way(ring, Q)[0]
    monkeypatch.setattr(checks, "b_blocks",
                        corrupted_reader(b_blocks, corrupt))
    assert x >= 64
    assert check_spectrum_two_way(ring, Q) == \
        (False, f"B({x}, {y}) != 0 but I_{y} is not inside I_{x}")


def test_m_shift_check_reads_the_last_row_block(monkeypatch):
    """Row x = n - 1 of B on M2(F3), past the first 64 rows the check
    reads, with one entry moved below zero: B is no longer a stochastic
    matrix, so the shift of its spectrum to M's is unproven."""
    ring = matrix_ring(3)
    Q = seeded_q(ring, 1)
    assert check_m_shift(ring, Q, Fr(1, 2))[0]
    x = ring.n - 1
    monkeypatch.setattr(checks, "b_blocks", corrupted_reader(
        b_blocks, lambda num: corrupt_b_negative(num, x)))
    assert x >= 64 and next(checks.b_blocks(ring, Q, [x]))[1].min() < 0
    assert check_m_shift(ring, Q, Fr(1, 2)) == \
        (False, "a row of B or M is not a probability vector")


def test_scan_keeps_each_check_s_first_failure(monkeypatch):
    """Two faults in B on B2(F5), read by one scan in full_suite.  Row 0
    moves mass onto the unit orbit U d of d = 5, which the units fix as a
    set: spectrum-two-way fails in the first row block, and the
    conjugation check and spectrum-m-shift pass there.  Row x gets an
    entry below zero, and x and every u^-1 x lie in the last block:
    those two fail only there.  Each check keeps its own first failure,
    the details that the checks give when run one at a time (pinned)."""
    ring = upper_triangular_ring(5)
    Q = seeded_q(ring, 1)
    d, x = 5, ring.n - 1
    orbit = np.unique(ring.mul[ring.units, d])

    def corrupt(num):
        num = corrupt_b_negative(num, x)
        num[0, 0] -= len(orbit)
        num[0, orbit] += 1
        return num

    inverses = [ring.inv(int(u)) for u in ring.unit_generators]
    assert min(ring.mul[inverses, x]) >= 64 and len(orbit) == 4
    monkeypatch.setattr(checks, "b_blocks",
                        corrupted_reader(b_blocks, corrupt))
    want = {
        "rxy-annihilator": "emptiness of R_{5,0} disagrees with the poset",
        "conjugation-invariance": "B(u c, u d) != B(c, d) for unit 27",
        "spectrum-two-way": "B(0, 5) != 0 but I_5 is not inside I_0",
        "spectrum-m-shift": "a row of B or M is not a probability vector",
    }
    alone = [checks.check_rxy_sizes(ring),
             check_conjugation_invariance(ring, Q),
             check_spectrum_two_way(ring, Q),
             check_m_shift(ring, Q, Fr(1, 2))]
    assert alone == [(False, detail) for detail in want.values()]
    suite = {name: (ok, detail) for name, ok, detail
             in checks.full_suite(ring, Q, Fr(1, 2), T=3)}
    assert {name: suite[name] for name in want} == \
        {name: (False, detail) for name, detail in want.items()}

BIG = 2 ** 64 + 1        # a class_q scale whose denominator exceeds 2^63


def class_q(ring, class_weights, scale=0):
    """Q with per-element weight proportional to class_weights[c] on class
    c.  A scale turns each nonzero weight x into x * scale + 1, so that the
    common denominator exceeds the scale."""
    raw = [x * scale + 1 if scale and x else x for x in class_weights]
    total = sum(x * len(c) for x, c in zip(raw, ring.similarity.classes))
    return ClassDistribution(ring, [Fr(x, total) for x in raw])


def row_sets(ring, a, u):
    """The row sets b_rows must read: the first 64-row block (all of a
    smaller ring), the last, possibly partial, block, S_a, the first block
    moved by the unit u, and the identity alone."""
    first = np.arange(min(64, ring.n))
    return {"first": first,
            "last": np.arange((ring.n - 1) // 64 * 64, ring.n),
            "S_a": ring.s_set(a),
            "perm[block]": ring.mul[u, first],
            "one": [ring.one]}


def assert_b_rows_equal_the_count(ring, Q, a, u):
    """b_rows against mul_counts_by_loop on the per-element Fractions of Q,
    over their own common denominator, on every row set of row_sets."""
    per_element = [Q.weights[c] for c in ring.similarity.class_of]
    den = lcm(*(w.denominator for w in per_element))
    assert Q.scaled_weights()[1] == den
    want = mul_counts_by_loop(ring, [w * den for w in per_element])
    for name, rows in row_sets(ring, a, u).items():
        got = b_rows(ring, Q, rows)
        assert got.dtype == (object if den >= 2 ** 63 else np.int64), name
        assert np.array_equal(got, want[np.asarray(rows)]), name


@pytest.mark.parametrize("big", [0, BIG], ids=["int64", "object"])
@pytest.mark.parametrize("make", [lambda: matrix_ring(3),
                                  lambda: upper_triangular_ring(5)],
                         ids=["M2(F3)", "B2(F5)"])
def test_b_rows_equal_the_count_on_fixed_rings(make, big):
    """On two non-commutative rings, where a row of the table is not a
    column, with a class of weight 0 (the zero class)."""
    ring = make()
    part = ring.similarity
    weights = [(3 * c) % 7 + 1 for c in range(len(part))]
    weights[part.class_of[ring.zero]] = 0
    a = ring.phi[len(ring.phi) // 2]
    assert_b_rows_equal_the_count(ring, class_q(ring, weights, big), a,
                                  ring.unit_generators[-1])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data())
@pytest.mark.parametrize("big", [0, BIG], ids=["int64", "object"])
def test_b_rows_equal_the_count_on_random_rings(big, data):
    """Random rings and random class-constant Q, one class of weight 0
    besides the identity's, with and without a denominator above 2^63;
    scatters of 1 to 300 table entries cut the blocks and their
    columns."""
    ring = random_ring(data.draw, room=160)
    part = ring.similarity
    k = len(part)
    weights = data.draw(st.lists(st.integers(0, 9), min_size=k, max_size=k))
    one = part.class_of[ring.one]
    weights[one] += 1
    if k > 1:
        weights[data.draw(st.sampled_from(
            [c for c in range(k) if c != one]))] = 0
    a = data.draw(st.sampled_from(ring.phi.tolist()))
    u = data.draw(st.sampled_from(ring.units.tolist()))
    with mock.patch.object(chain, "_SCATTER", data.draw(st.integers(1, 300))):
        assert_b_rows_equal_the_count(ring, class_q(ring, weights, big), a, u)


def test_block_floats_round_each_entry_once():
    """A block of B reaches LAPACK as float(numerator) / float(den), each
    entry rounded once, with den above 2^53 in int64 and above 2^63."""
    ring = matrix_ring(3)
    for scale, dtype in ((2 ** 47, np.int64), (BIG, object)):
        q = class_q(ring, [c % 5 + 1 for c in range(len(ring.similarity))],
                    scale)
        num, den = b_rows(ring, q, range(ring.n)), q.scaled_weights()[1]
        assert den > 2 ** 53 and num.dtype == dtype
        rows, cols = [80, 0, 41], [3, 1, 80]
        assert spectrum._float_block(ring, q, rows, cols).tolist() == \
            [[int(num[r, c]) / float(den) for c in cols] for r in rows]


def test_b_checks_and_blocks_hold_no_n_by_n_array():
    """On M2(F7), built first, the checks on B, one at a time and all four
    over one scan, and block_spectrum trace a peak below n^2 * 2 bytes:
    they read B 64 rows at a time, where the int64 B alone is n^2 * 8
    bytes (46 MB).  The scan holds one block at a time, with its
    unit-weight counts, and the conjugation test's sketches: 12 floats a
    row."""
    ring = matrix_ring(7)
    Q = seeded_q(ring, 1)
    for a in ring.phi:
        ring.s_set(a)
    ring.ideals, ring.unit_generators, unit_group_characters(ring)
    tracemalloc.start()
    try:
        assert check_conjugation_invariance(ring, Q)[0]
        assert check_spectrum_two_way(ring, Q)[0]
        assert check_m_shift(ring, Q, Fr(1, 2))[0]
        assert all(ok for ok, _ in checks.scan_b(ring, Q, [
            checks.rxy_test(ring), checks.conjugation_test(ring, Q),
            checks.two_way_test(ring, Q), checks.m_shift_test(Q, Fr(1, 2))]))
        assert sum(em.total() for _, em in block_spectrum(ring, Q)) == ring.n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ring.n ** 2 * 2, peak


def test_scan_builds_one_containment_matrix_per_row_block(monkeypatch):
    """The R_{x,y} and two-way tests read the same containment matrix of
    each row block of B, built once for both; a scan of tests that read
    none builds none."""
    ring = matrix_ring(3)
    Q = seeded_q(ring, 2)
    built = []
    real = checks._containment
    monkeypatch.setattr(checks, "_containment",
                        lambda r, block: built.append(len(block))
                        or real(r, block))
    assert all(ok for ok, _ in checks.scan_b(ring, Q, [
        checks.rxy_test(ring), checks.two_way_test(ring, Q),
        checks.m_shift_test(Q, Fr(1, 2))]))
    assert built == [len(block) for block, *_ in
                     chain.b_blocks(ring, Q, range(ring.n))]
    built.clear()
    assert checks.scan_b(ring, Q, [checks.m_shift_test(Q, Fr(1, 2))])[0][0]
    assert built == []


def test_only_the_rxy_check_counts_unit_weights(monkeypatch):
    """chain.b_blocks counts a block's unit weights (one np.bincount) only
    when its sizes() is first called: a scan without the R_{x,y} test,
    block_spectrum's diagonal blocks and b_rows count them for no block,
    and a scan with the test counts them once a block."""
    ring = matrix_ring(3)
    Q = seeded_q(ring, 2)
    counted = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def bincount(self, keys, minlength):
            counted.append(minlength // ring.n)
            return np.bincount(keys, minlength=minlength)

    monkeypatch.setattr(chain, "np", CountingNumpy())
    assert all(ok for ok, _ in checks.scan_b(ring, Q, [
        checks.conjugation_test(ring, Q), checks.two_way_test(ring, Q),
        checks.m_shift_test(Q, Fr(1, 2))]))
    assert sum(em.total() for _, em in block_spectrum(ring, Q)) == ring.n
    assert len(b_rows(ring, Q, range(ring.n))) == ring.n
    assert counted == []
    assert checks.scan_b(ring, Q, [checks.rxy_test(ring)])[0][0]
    assert counted == [64, ring.n - 64]
    (_, _, sizes), = chain.b_blocks(ring, Q, [0])
    assert sizes() is sizes() and counted[2:] == [1]


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
    Q = random_class_q(data.draw, ring)
    alpha = Fr(data.draw(st.integers(1, 9)), 10)
    for check in (check_conjugation_invariance(ring, Q),
                  check_spectrum_two_way(ring, Q),
                  check_m_shift(ring, Q, alpha)):
        assert check[0], check[1]
    numeric = expand(eig_numeric(dense_float(build_B(ring, Q))))
    blocks = block_values(block_spectrum(ring, Q))
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
    got = unit_block_spectrum(ring, Q)
    want = eig_numeric(
        dense_float(build_B(ring, Q))[np.ix_(ring.units, ring.units)].T)
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


@pytest.mark.parametrize("make, message", [
    (lambda: zn_ring(13), "character table capped at 10 units, got 12"),
    (lambda: upper_triangular_ring(3), "eigen solve capped at 10, got 12"),
], ids=["Z_13", "B2(F3)"])
def test_block_spectrum_meets_its_caps_before_its_first_read(monkeypatch,
                                                            make, message):
    """12 units pass a cap of 10: Z_13's abelian character table, and
    B2(F3)'s unit block, which goes to LAPACK.  block_spectrum refuses
    before it reads any row of B, as a b_blocks call would crash, and
    the refusal allocates under 1 MiB."""
    ring = make()
    q = uniform(ring)
    ring.ideals, ring.unit_set          # built before the trace
    monkeypatch.setattr(spectrum, "EIG_CAP", 10)
    monkeypatch.setattr(spectrum, "b_blocks", None)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge) as refusal:
            spectrum.block_spectrum(ring, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refusal.value) == message
    assert peak < 2**20


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
    unit_block_spectrum(ring, uniform(ring))
    assert unit_group_characters(ring) is chars
    assert len(calls) <= int(ring.similarity.invertible.sum())
    with pytest.raises(ValueError):
        chars[0, 0] = 0


@pytest.mark.parametrize("make, q", [(lambda: matrix_ring(3), 3),
                                     (lambda: matrix_ring(5), 5),
                                     (lambda: zn_ring(360), None)],
                         ids=["M2(F3)", "M2(F5)", "Z_360"])
def test_unit_block_uses_exact_character_degrees(monkeypatch, make, q):
    """The degrees chi(1) the unit block divides by are Irrep.dim on
    M2(F_q), in the order of the GL2 table's irreps, and 1 for each of the
    96 characters of the abelian U(Z_360)."""
    from ringwalk.gl2 import character_table
    ring = make()
    used = []
    degrees = spectrum.unit_group_degrees
    monkeypatch.setattr(spectrum, "unit_group_degrees",
                        lambda r: used.append(degrees(r)) or used[-1])
    unit_block_spectrum(ring, uniform(ring))
    want = [1] * 96 if q is None else \
        [rep.dim for rep in character_table(q).irreps]
    assert len(used) == 1 and used[0].dtype == np.int64
    assert used[0].tolist() == want


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
    ring.ideals                  # certified with the true unit generators
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
