"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS line on success (visible with pytest -v -s or in
captured output).  Runtime limits are asserted where the criterion states
them.  The optional extended spectrum run at q = 5 is gated behind
RINGWALK_EXTENDED=1.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction as Fr

import numpy as np
import pytest

from ringwalk.chain import ClassDistribution, build_B
from ringwalk.exact import ScaledMatrix
from ringwalk.gl2 import character_table
from ringwalk.mixing import d_of_t, mixing_bound, simulate
from ringwalk.rings import (
    matrix_ring,
    product_ring,
    upper_triangular_ring,
    zn_ring,
)
from ringwalk.spectrum import (
    block_spectrum,
    eig_numeric,
    gl2_spectrum,
    is_multiplicity_free_nonunit,
)
from ringwalk.stationary import (
    stationary_gl2,
    stationary_recursive,
    stationary_solve,
    stationary_uniform,
)

from gl2_oracle import (
    induced_from_P_decomposition,
    projected_and_F_action,
    rank_one_generators,
    y_elements,
)
from ring_oracle import r_xy
from spectral_oracle import (
    MATCH,
    block_values,
    closed_form_values,
    dense_float,
    expand,
    multisets_match,
    numeric_multiplicity,
)
from test_chain import GOLDEN_M2F2_B


def nonuniform_q_m2f3(ring):
    part = ring.similarity
    w = {}
    for ci in range(len(part)):
        rep = int(part.reps[ci])
        if rep == ring.zero:
            w[rep] = Fr(1, 54)
        elif rep == ring.one:
            w[rep] = Fr(1, 162)
        else:
            w[rep] = Fr(1, 81)
    return ClassDistribution.from_weights(ring, w)


def test_criterion_1_golden_matrix():
    """build_B on M2(F2), uniform Q, reproduces the published 16x16 matrix
    entry for entry in exact rationals, in under a second."""
    t0 = time.time()
    ring = matrix_ring(2)
    b = build_B(ring, ClassDistribution.uniform(ring))
    assert b.matrix == ScaledMatrix(GOLDEN_M2F2_B, 16)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS golden 16x16 matrix, exact equality "
          f"({elapsed:.3f}s)")


def test_criterion_2_golden_stationary():
    """All four stationary routes equal the published symbolic formulas at
    alpha in {1/4, 1/2, 3/4}, exactly, in under a second."""
    t0 = time.time()
    ring = matrix_ring(2)
    q = ClassDistribution.uniform(ring)
    for alpha in (Fr(1, 4), Fr(1, 2), Fr(3, 4)):
        unit = alpha / (2 * (3 * alpha + 5))
        nonunit = 2 * alpha / ((3 * alpha + 1) * (3 * alpha + 5))
        zero = (5 - 3 * alpha) / ((3 * alpha + 1) * (3 * alpha + 5))
        expected = [zero if x == ring.zero
                    else unit if x in ring.unit_set else nonunit
                    for x in range(16)]
        assert stationary_solve(ring, q, alpha) == expected
        assert stationary_recursive(ring, q, alpha) == expected
        assert stationary_uniform(ring, alpha) == expected
        assert stationary_gl2(ring, alpha) == expected
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2 PASS four-way golden stationary at three alphas "
          f"({elapsed:.3f}s)")


def test_criterion_3_spectrum_three_way_q3():
    """Numeric, diagonal-block, and closed-form spectra of M2(F3) agree
    as multisets within 1e-6 for uniform and one non-uniform Q; 81 = q^4
    eigenvalues; under 30 s."""
    t0 = time.time()
    ring = matrix_ring(3)
    for q in (ClassDistribution.uniform(ring), nonuniform_q_m2f3(ring)):
        b = build_B(ring, q)
        em = expand(eig_numeric(dense_float(b)))
        bm = block_values(block_spectrum(ring, q))
        g = gl2_spectrum(ring, q)
        assert len(em) == len(bm) == g.total() == 81
        assert multisets_match(em, bm, MATCH)
        assert multisets_match(em, closed_form_values(g), MATCH)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"ACCEPTANCE 3 PASS three-way spectrum at q=3, two Qs, 1e-6 "
          f"({elapsed:.1f}s)")


@pytest.mark.skipif(not os.environ.get("RINGWALK_EXTENDED"),
                    reason="optional extended run; set RINGWALK_EXTENDED=1")
def test_criterion_3_extended_q5():
    t0 = time.time()
    ring = matrix_ring(5)
    q = ClassDistribution.uniform(ring)
    b = build_B(ring, q)
    em = expand(eig_numeric(dense_float(b)))
    bm = block_values(block_spectrum(ring, q))
    g = gl2_spectrum(ring, q)
    assert len(em) == len(bm) == g.total() == 625
    assert multisets_match(em, bm, MATCH)
    assert multisets_match(em, closed_form_values(g), MATCH)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    print(f"ACCEPTANCE 3x PASS extended q=5 three-way ({elapsed:.1f}s)")


def _merged_block_predictions(detail, tol=1e-8):
    values = []
    mults = []
    for _, em in detail:
        for v, m in em:
            for i, w in enumerate(values):
                if abs(w - v) <= tol:
                    mults[i] += int(m)
                    break
            else:
                values.append(complex(v))
                mults.append(int(m))
    return list(zip(values, mults))


def test_criterion_4_multiplicity_lower_bounds():
    """Every predicted eigenvalue's numeric multiplicity meets the stated
    lower bound: dim(rho)^2 in the unit block, dim(rho) summed over
    coinciding predictions otherwise; checked on M2(F3) and B2(F3)."""
    # M2(F3): per-irreducible bounds from the character closed forms
    ring = matrix_ring(3)
    q = ClassDistribution.uniform(ring)
    numeric = expand(eig_numeric(dense_float(build_B(ring, q))))
    g = gl2_spectrum(ring, q)
    # mult is dim^2 in the unit block, dim summed over the rank-one blocks
    for _, _, _, value, bound in g.rows:
        assert numeric_multiplicity(numeric, value, MATCH) >= bound, \
            f"multiplicity of {value} below {bound}"
    # B2(F3): all generators are units or multiplicity-free non-units, so
    # the block spectra are exact predictions; coinciding values add up
    ring = upper_triangular_ring(3)
    for a in ring.phi:
        if int(a) not in ring.unit_set:
            assert is_multiplicity_free_nonunit(ring, int(a))
    q = ClassDistribution.uniform(ring)
    b = build_B(ring, q)
    numeric = expand(eig_numeric(dense_float(b)))
    detail = block_spectrum(ring, q)
    for value, mult in _merged_block_predictions(detail):
        assert numeric_multiplicity(numeric, value, MATCH) >= mult
    print("ACCEPTANCE 4 PASS multiplicity lower bounds on M2(F3) and B2(F3)")


def test_criterion_5_character_table_suite():
    """Row and column orthogonality to 1e-10, exact dimension sums, class
    counts, and the induced-from-mirabolic multiplicity pattern, for
    q in {3, 5, 7}, in under 10 s."""
    t0 = time.time()
    for q in (3, 5, 7):
        tab = character_table(q)
        r = len(tab.irreps)
        assert r == len(tab.classes)
        assert sum(rep.dim ** 2 for rep in tab.irreps) == \
            (q * q - 1) * (q * q - q)
        v = tab.values
        gram = (v * tab.class_sizes) @ v.conj().T / tab.group_order
        assert np.abs(gram - np.eye(r)).max() < 1e-10
        col = v.conj().T @ v
        expected = np.diag(tab.group_order / tab.class_sizes)
        assert np.abs(col - expected).max() < 1e-10
        dec = induced_from_P_decomposition(q)
        ones = {(rep.kind, rep.params) for rep, m in dec.items() if m == 1}
        assert all(m in (0, 1) for m in dec.values())
        expected_ones = {("det", (0,)), ("steinberg", (0,))} | \
            {("principal", (0, k)) for k in range(1, q - 1)}
        assert ones == expected_ones
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"ACCEPTANCE 5 PASS character tables q=3,5,7 orthogonal to 1e-10 "
          f"({elapsed:.1f}s)")


def test_criterion_6_multiplicity_free_predicates():
    """Zero in every constructed ring; all elements of commutative rings;
    rank-one generators of M2(F3); all non-unit generators of B2(F3)."""
    commutative = [zn_ring(4), zn_ring(6), zn_ring(12),
                   product_ring(zn_ring(2), zn_ring(3))]
    noncommutative = [upper_triangular_ring(2), upper_triangular_ring(3),
                      matrix_ring(2), matrix_ring(3)]
    for ring in commutative + noncommutative:
        assert is_multiplicity_free_nonunit(ring, ring.zero)
    for ring in commutative:
        for a in ring.phi:
            if int(a) not in ring.unit_set:
                assert is_multiplicity_free_nonunit(ring, int(a))
    m2 = matrix_ring(3)
    for a in m2.phi:
        a = int(a)
        if a not in m2.unit_set and a != m2.zero:
            assert is_multiplicity_free_nonunit(m2, a)   # the rank-one ones
    b2 = upper_triangular_ring(3)
    for a in b2.phi:
        if int(a) not in b2.unit_set:
            assert is_multiplicity_free_nonunit(b2, int(a))
    print("ACCEPTANCE 6 PASS multiplicity-free predicates")


def test_criterion_7_mixing_bounds():
    """d(t) <= (1-alpha)^t for t <= 20 in exact arithmetic, and the
    empirical t_mix never exceeds log(eps)/log(1-alpha) + 1, on four rings
    at alpha in {1/4, 1/2} and eps in {1/4, 1/10}."""
    rings = [zn_ring(6), upper_triangular_ring(2), matrix_ring(2),
             matrix_ring(3)]
    for ring in rings:
        q = ClassDistribution.uniform(ring)
        for alpha in (Fr(1, 4), Fr(1, 2)):
            curve = d_of_t(ring, q, alpha, 20,
                           stationary_recursive(ring, q, alpha))
            assert curve.exact_values is not None       # n <= 256: exact
            assert all(d <= b for d, b in zip(curve.exact_values,
                                              curve.exact_bounds))
            for eps in (Fr(1, 4), Fr(1, 10)):
                tm = curve.t_mix(eps)
                assert tm is not None
                assert tm <= mixing_bound(alpha, eps)
    print("ACCEPTANCE 7 PASS exact geometric bound and t_mix bound on "
          "Z6, B2(F2), M2(F2), M2(F3)")


def test_criterion_8_simulation_consistency():
    """10^5 trajectories of 50 steps on M2(F2) at alpha = 1/2 land within
    0.02 TV of the exact stationary law; identical seeds reproduce."""
    ring = matrix_ring(2)
    q = ClassDistribution.uniform(ring)
    alpha = Fr(1, 2)
    res = simulate(ring, q, alpha, x0=0, t=50, samples=100_000, seed=2024)
    pi = stationary_solve(ring, q, alpha)
    tv = res.tv_to(pi)
    assert tv < 0.02
    res2 = simulate(ring, q, alpha, x0=0, t=50, samples=100_000, seed=2024)
    assert np.array_equal(res.counts, res2.counts)
    args = ["simulate", "--ring", "matrix", "--q", "2", "--alpha", "1/2",
            "--seed", "2024", "--samples", "20000", "--steps", "50"]
    outs = [subprocess.run([sys.executable, "-m", "ringwalk.cli"] + args,
                           capture_output=True, text=True).stdout
            for _ in range(2)]
    assert outs[0] == outs[1]
    print(f"ACCEPTANCE 8 PASS simulation TV {tv:.4f} < 0.02, reproducible")


def test_criterion_9_structural_suite():
    """Orbit-stabilizer, generator-set partition, |R_xy| = |LAnn(y)| when
    nonempty, and unit-transitivity witnesses for all S_a pairs, exhaustive
    on every constructed ring with at most 100 elements."""
    rings = [zn_ring(1), zn_ring(4), zn_ring(6), zn_ring(12),
             product_ring(zn_ring(2), zn_ring(3)),
             upper_triangular_ring(2), upper_triangular_ring(3),
             matrix_ring(2)]
    assert all(r.n <= 100 for r in rings)
    for ring in rings:
        for a in ring.phi:
            a = int(a)
            assert len(ring.s_set(a)) * len(ring.lstab(a)) == len(ring.units)
        counts = np.zeros(ring.n, dtype=int)
        for s in ring.ideals.generators:
            counts[s] += 1
        assert np.all(counts == 1)
        for x in range(ring.n):
            for y in range(ring.n):
                fiber = r_xy(ring, x, y)
                if fiber:
                    assert len(fiber) == len(ring.lann(y))
        for a in ring.phi:
            sa = ring.s_set(int(a))
            for x in sa:
                assert set(ring.mul[ring.units, int(x)].tolist()) == \
                    set(sa.tolist())
    print(f"ACCEPTANCE 9 PASS structural suite, exhaustive on "
          f"{len(rings)} rings")


def test_criterion_10_class_functions_equal_projected_operators():
    """The two tabulated class functions act on span(S_A) identically to
    the single-class projected operators W[S_A, S_A]^T for every rank-one
    A at q = 3; integer matrices, so equality is exact (stronger than
    1e-10)."""
    q = 3
    ring = matrix_ring(q)
    checked = 0
    for a in rank_one_generators(ring, q):
        for x in y_elements(ring, q):
            projected, action = projected_and_F_action(ring, a, x)
            assert np.abs(projected - action).max() == 0
            checked += 1
    assert checked == (q + 1) * q     # q+1 rank-one ideals, q class functions
    print(f"ACCEPTANCE 10 PASS {checked} class-function/projected-operator "
          f"matrix identities, exact")
