"""TV distance, the geometric mixing bound, and the seeded simulator."""

import functools
import sys
import threading
import time
import tracemalloc
from fractions import Fraction as Fr
from math import lcm
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringwalk import mixing
from ringwalk.chain import ClassDistribution, build_B, build_M
from ringwalk.errors import (
    InvariantViolation,
    LengthMismatch,
    ParamOutOfRange,
    TooLarge,
)
from ringwalk.exact import ScaledMatrix
from ringwalk.mixing import (
    class_products,
    d_of_t,
    mixing_bound,
    simulate,
    tv_distance,
)
from ringwalk.rings import (
    SIZE_CAP,
    SimilarityPartition,
    matrix_ring,
    product_ring,
    upper_triangular_ring,
    zn_ring,
)
from ringwalk.stationary import stationary_recursive, stationary_solve

from random_rings import random_class_q, random_ring
from reference_simulate import (
    one_step_rows,
    reference_simulate,
    right_multiplication_B,
)
from ring_oracle import class_products_by_division, units_by_argmax
from spectral_oracle import dense_float


def uniform(ring):
    return ClassDistribution.uniform(ring)


def opposite(ring, q):
    """R^op and Q on it: R^op has R's classes in R's order, so Q keeps its
    class weights.  simulate on them is R's right-multiplying walk."""
    op = ring.opposite()
    return op, ClassDistribution(op, q.weights)


def d_curve(ring, q, alpha, T):
    """d_of_t with pi from stationary_recursive, as the commands pass it."""
    return d_of_t(ring, q, alpha, T, stationary_recursive(ring, q, alpha))


# ---------------------------------------------------------------------
# TV distance
# ---------------------------------------------------------------------

def test_tv_basics():
    assert tv_distance([Fr(1, 2), Fr(1, 2)], [Fr(1, 2), Fr(1, 2)]) == 0
    assert tv_distance([1, 0], [0, 1]) == 1
    assert tv_distance([Fr(1, 2), Fr(1, 2)], [Fr(1), Fr(0)]) == Fr(1, 2)
    assert tv_distance([0.25] * 4, [1.0, 0, 0, 0]) == pytest.approx(0.75)


def test_tv_symmetry_and_range():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.dirichlet(np.ones(6))
        b = rng.dirichlet(np.ones(6))
        assert tv_distance(a, b) == pytest.approx(tv_distance(b, a))
        assert 0 <= tv_distance(a, b) <= 1


def test_tv_length_mismatch():
    with pytest.raises(LengthMismatch):
        tv_distance([1], [0.5, 0.5])


# ---------------------------------------------------------------------
# d(t) curves
# ---------------------------------------------------------------------

def test_d_zero_is_one_minus_min_pi():
    ring = matrix_ring(2)
    q = uniform(ring)
    alpha = Fr(1, 2)
    curve = d_curve(ring, q, alpha, 3)
    pi = stationary_solve(ring, q, alpha)
    assert curve.exact_values[0] == 1 - min(pi)
    assert curve.exact_values[0] >= 1 - max(pi)


def test_d_curve_monotone_and_bounded_m2f2():
    ring = matrix_ring(2)
    curve = d_curve(ring, uniform(ring), Fr(1, 2), 20)
    ex = curve.exact_values
    assert all(ex[t + 1] <= ex[t] for t in range(20))
    assert all(ex[t] <= Fr(1, 2 ** t) for t in range(21))
    assert all(0 <= v <= 1 for v in ex)


def test_geometric_bound_on_all_small_rings():
    for ring in (zn_ring(6), upper_triangular_ring(2), matrix_ring(2)):
        for alpha in (Fr(1, 4), Fr(1, 2)):
            curve = d_curve(ring, uniform(ring), alpha, 20)
            assert curve.exact_values is not None
            assert curve.bound_holds()


def test_t_cap():
    ring = zn_ring(6)
    with pytest.raises(ParamOutOfRange):
        d_curve(ring, uniform(ring), Fr(1, 2), 65)


def seeded_q(ring, seed):
    """Class-constant Q from fixed-seed integer class weights 0..9."""
    part = ring.similarity
    w = np.random.default_rng(seed).integers(0, 10, size=len(part))
    w[part.class_of[ring.one]] += 1          # never all zero
    total = sum(int(x) * len(c) for x, c in zip(w, part.classes))
    return ClassDistribution(ring, [Fr(int(x), total) for x in w])


def matrix_power_curve(ring, q, alpha, T):
    """Oracle: exact powers of M and the max over all n starts."""
    m = build_M(ring, q, alpha).matrix
    pi = stationary_solve(ring, q, alpha)
    power = ScaledMatrix(np.eye(ring.n, dtype=np.int64), 1)
    out = []
    for t in range(T + 1):
        out.append(max(tv_distance([Fr(v, power.den) for v in row], pi)
                       for row in power.num.tolist()))
        if t < T:
            power = power @ m
    return out


CROSS_RINGS = {
    "M2(F2)": lambda: matrix_ring(2),
    "B2(F3)": lambda: upper_triangular_ring(3),
    "Z_12": lambda: zn_ring(12),
    "Z_2xM2(F2)": lambda: product_ring(zn_ring(2), matrix_ring(2)),
    "M2(F3)": lambda: matrix_ring(3),
}


@pytest.mark.parametrize("alpha", [Fr(1, 2), Fr(1, 3)])
@pytest.mark.parametrize("q_seed", [None, 1, 2])
@pytest.mark.parametrize("ring_name", sorted(CROSS_RINGS))
def test_curve_equals_matrix_power_oracle(ring_name, q_seed, alpha):
    ring = CROSS_RINGS[ring_name]()
    q = uniform(ring) if q_seed is None else seeded_q(ring, q_seed)
    T = 8 if ring.n > 32 else 12
    curve = d_curve(ring, q, alpha, T)
    assert curve.exact_values == matrix_power_curve(ring, q, alpha, T)
    assert curve.values == [float(v) for v in curve.exact_values]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_curve_equals_matrix_power_oracle_on_random_rings(data):
    """Random rings with at most 81 elements, random class-constant Q and
    random alpha in (0, 1)."""
    ring = random_ring(data.draw, room=81)
    q = random_class_q(data.draw, ring)
    s = data.draw(st.integers(2, 12))
    alpha = Fr(data.draw(st.integers(1, s - 1)), s)
    T = 6
    assert d_curve(ring, q, alpha, T).exact_values == \
        matrix_power_curve(ring, q, alpha, T)


def test_exact_curve_above_former_cap():
    # 625 states: exact for every n, checked against float matrix powers
    ring = matrix_ring(5)
    q = uniform(ring)
    alpha = Fr(1, 2)
    T = 6
    curve = d_curve(ring, q, alpha, T)
    assert len(curve.exact_values) == T + 1
    assert all(isinstance(v, Fr) for v in curve.exact_values)
    assert curve.bound_holds()
    pi = np.array([float(v) for v in stationary_recursive(ring, q, alpha)])
    m = dense_float(build_M(ring, q, alpha))
    power = np.eye(ring.n)
    for t in range(T + 1):
        d = 0.5 * np.abs(power - pi[None, :]).sum(axis=1).max()
        assert abs(curve.values[t] - d) <= 1e-12
        power = power @ m


def test_class_products_reject_a_partition_that_is_not_conjugation_closed():
    ring = zn_ring(6)
    classes = [np.array([0]), np.array([1, 5]), np.array([2, 3, 4])]
    class_of = np.array([0, 1, 2, 2, 2, 1])
    ring.__dict__["similarity"] = SimilarityPartition(
        classes, np.array([0, 1, 2]), class_of,
        np.array([False, True, False]))
    with pytest.raises(InvariantViolation):
        class_products(ring)


def test_class_products_reject_closed_classes_that_merge_orbits():
    """Z_6 is commutative, so every partition is closed under conjugation
    and each orbit is one element.  {2, 4} merges two orbits, yet every
    pair total over it is even: only |C| |C_U(rep)| = |U| sees it."""
    ring = zn_ring(6)
    ring.__dict__["similarity"] = SimilarityPartition(
        [np.array([0]), np.array([1]), np.array([2, 4]), np.array([3]),
         np.array([5])], np.array([0, 1, 2, 3, 5]),
        np.array([0, 1, 2, 3, 2, 4]),
        np.array([False, True, False, False, True]))
    with pytest.raises(InvariantViolation):
        class_products(ring)


def test_class_products_reject_classes_that_trade_two_elements():
    """Two classes of 12 in M2(F3) trade their last elements: the sizes,
    representatives and centralizers stay, so only the conjugation check
    sees it."""
    ring = matrix_ring(3)
    part = ring.similarity
    a, b = [c for c, cl in enumerate(part.classes) if len(cl) == 12][:2]
    class_of = part.class_of.copy()
    class_of[[part.classes[a][-1], part.classes[b][-1]]] = b, a
    ring.__dict__["similarity"] = SimilarityPartition(
        [np.flatnonzero(class_of == c) for c in range(len(part))],
        part.reps, class_of, part.invertible)
    with pytest.raises(InvariantViolation):
        class_products(ring)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_units_and_class_products_equal_the_dense_oracles(data):
    ring = random_ring(data.draw)
    units, inverse = units_by_argmax(ring)
    assert np.array_equal(ring.units, units)
    assert ring._inv_map == inverse
    for got, want in zip(class_products(ring),
                         class_products_by_division(ring)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_class_products_add_under_a_mebibyte_to_the_ring():
    """Only the products that land on a representative are kept, and the
    table is read _BLOCK rows at a time; counting all n^2 products took
    6.7 MiB on M2(F5)."""
    ring = matrix_ring(5)
    ring.unit_generators, ring.similarity
    tracemalloc.start()
    try:
        class_products(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def test_class_products_hold_at_most_42_bytes_per_product():
    """Every class of Z_2000 is a singleton, so its 4 * 10^6 products are
    distinct keys, the most memory a product can take.  Sorted in place
    and counted off one mask of run boundaries, they peak below 42 bytes
    per product under tracemalloc (np.unique's sorted copy took 48)."""
    ring = zn_ring(2000)
    ring.unit_generators, ring.similarity
    tracemalloc.start()
    try:
        count = mixing._count_class_products(ring)[3]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(count) == ring.n ** 2 and count.sum() == ring.n ** 2
    assert peak < 42 * ring.n ** 2, peak / ring.n ** 2


def test_class_products_refuse_above_the_cap_before_they_allocate(
        monkeypatch):
    """Every class of Z_1000 is a singleton, so all n^2 = 10^6 products
    land on a representative.  Above a cap of 10^6 - 1 the first pass
    refuses them, with memory for one block of the table, not for a key
    per product (8 MB)."""
    ring = zn_ring(1000)
    ring.unit_generators, ring.similarity
    monkeypatch.setattr(mixing, "PRODUCT_CAP", 10**6 - 1)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="class products capped at "
                                           "999999, got 1000000"):
            class_products(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    monkeypatch.setattr(mixing, "PRODUCT_CAP", 10**6)
    assert class_products(ring)[3].sum() == 10**6


def test_one_verify_counts_class_products_once(monkeypatch):
    """d_of_t and the GL2 power traces share the counts kept on the ring."""
    from ringwalk.checks import full_suite
    calls = []
    count = mixing._count_class_products
    monkeypatch.setattr(mixing, "_count_class_products",
                        lambda ring: calls.append(ring.label) or count(ring))
    ring = matrix_ring(3)
    assert all(ok for _, ok, _ in full_suite(ring, uniform(ring), Fr(1, 2)))
    assert calls == ["M2(F3)"]
    with pytest.raises(ValueError):
        class_products(ring)[3][0] = 0


# ---------------------------------------------------------------------
# the coupling bound
# ---------------------------------------------------------------------

def test_mixing_bound_values():
    assert mixing_bound(Fr(1, 2), Fr(1, 4)) == pytest.approx(3.0)
    # just under 1/2 the bound stays at least 1
    assert mixing_bound(Fr(9, 10), Fr(49, 100)) >= 1.0


def test_mixing_bound_domain():
    with pytest.raises(ParamOutOfRange):
        mixing_bound(Fr(1, 2), Fr(1, 2))
    with pytest.raises(ParamOutOfRange):
        mixing_bound(Fr(0), Fr(1, 4))
    with pytest.raises(ParamOutOfRange):
        mixing_bound(Fr(1), Fr(1, 4))


def test_empirical_t_mix_below_bound():
    for ring in (zn_ring(6), matrix_ring(2)):
        for alpha in (Fr(1, 4), Fr(1, 2)):
            curve = d_curve(ring, uniform(ring), alpha, 20)
            for eps in (Fr(1, 4), Fr(1, 10)):
                tm = curve.t_mix(eps)
                assert tm is not None
                assert tm <= mixing_bound(alpha, eps)


# ---------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------

def test_simulation_deterministic_per_seed():
    ring = matrix_ring(2)
    q = uniform(ring)
    a = simulate(ring, q, Fr(1, 2), 0, 30, 5000, seed=11)
    b = simulate(ring, q, Fr(1, 2), 0, 30, 5000, seed=11)
    c = simulate(ring, q, Fr(1, 2), 0, 30, 5000, seed=12)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)
    assert a.counts.sum() == 5000


def test_simulation_block_merge_deterministic():
    ring = zn_ring(6)
    q = uniform(ring)
    a = simulate(ring, q, Fr(1, 2), 0, 10, 9000, seed=5, blocks=3)
    b = simulate(ring, q, Fr(1, 2), 0, 10, 9000, seed=5, blocks=3)
    assert np.array_equal(a.counts, b.counts)


def test_long_run_reaches_stationarity():
    ring = matrix_ring(2)
    q = uniform(ring)
    res = simulate(ring, q, Fr(1, 2), 0, 50, 100_000, seed=123)
    pi = stationary_solve(ring, q, Fr(1, 2))
    assert res.tv_to(pi) < 0.02


def test_one_step_frequencies_match_m_rows():
    # per-entry agreement with the exact transition rows at CLT scale
    for ring in (zn_ring(6), upper_triangular_ring(2)):
        q = uniform(ring)
        alpha = Fr(1, 2)
        m = dense_float(build_M(ring, q, alpha))
        rows = one_step_rows(ring, q, alpha, 1_000_000, seed=77)
        assert np.abs(rows - m).max() < 0.005


def test_one_step_right_side_matches_right_matrix():
    ring = upper_triangular_ring(2)
    q = uniform(ring)
    alpha = Fr(1, 2)
    b_right = dense_float(right_multiplication_B(ring, q))
    m_right = 0.5 / ring.n + 0.5 * b_right
    rows = one_step_rows(*opposite(ring, q), alpha, 400_000, seed=21)
    assert np.abs(rows - m_right).max() < 0.005
    # and on this ring the two sides genuinely differ
    b_left = dense_float(build_B(ring, q))
    assert np.abs(b_left - b_right).max() > 0.1


def test_q_sampling_respects_class_weights():
    ring = matrix_ring(2)
    part = ring.similarity
    w = {int(rep): Fr(1, 16) for rep in part.reps}
    w[ring.zero] = Fr(2, 16)
    w[6] = Fr(1, 16) - Fr(1, 48)
    q = ClassDistribution.from_weights(ring, w)
    # alpha ~ 0 so nearly every step is a multiplication by a Q draw;
    # start at the identity so the end state is the drawn element
    n = 200_000
    res = simulate(ring, q, Fr(1, 1000), ring.one, 1, n, seed=31)
    freq = res.counts / n
    for x in range(ring.n):
        p = float(q.weights[part.class_of[x]]) * (1 - 1 / 1000) + 1 / 16000
        se = (p * (1 - p) / n) ** 0.5
        assert abs(freq[x] - p) <= 3.5 * se + 1e-9


def test_seed_is_mandatory():
    ring = zn_ring(6)
    with pytest.raises(ParamOutOfRange, match="'seed'"):
        simulate(ring, uniform(ring), Fr(1, 2), 0, 5, 100, seed=None)


# ---------------------------------------------------------------------
# golden counts: fixed seeds must give the same counts in every version
# ---------------------------------------------------------------------

def z12_q(den, seed):
    """Q on Z_12 (all classes singletons) with common denominator den."""
    ring = zn_ring(12)
    k = [int(x) for x in
         np.random.default_rng(seed).integers(1, den // 12, size=11)]
    return ring, ClassDistribution(
        ring, [Fr(x, den) for x in k] + [Fr(den - sum(k), den)])


def move_range(ring, q, alpha):
    """R = s lcm(n, D), the range of simulate's move draws."""
    return Fr(alpha).denominator * lcm(ring.n, q.scaled_weights()[1])


def golden_cases():
    m2 = matrix_ring(2)
    b3 = upper_triangular_ring(3)
    z40 = z12_q(2**40 - 87, 7)
    z56 = z12_q(2**56 - 5, 11)
    z32 = z12_q(2**32 - 5, 10)
    # (ring, Q, simulate keywords, counts)
    return {
        "m2f2-left": (
            m2, seeded_q(m2, 3),
            dict(alpha=Fr(1, 3), x0=0, t=7, samples=3000, seed=101),
            [1239, 135, 135, 110, 128, 118, 123, 117, 126, 98, 109, 104, 140,
             91, 92, 135]),
        # the right-multiplying walk: the left walk on R^op
        "m2f2-right": (
            *opposite(m2, seeded_q(m2, 3)),
            dict(alpha=Fr(1, 3), x0=0, t=7, samples=3000, seed=101),
            [1253, 148, 126, 116, 130, 109, 113, 109, 108, 104, 111, 105, 143,
             106, 93, 126]),
        "b2f3-blocks3": (
            b3, seeded_q(b3, 5),
            dict(alpha=Fr(2, 5), x0=b3.one, t=6, samples=2000, seed=202,
                 blocks=3),
            [571, 50, 58, 131, 50, 53, 138, 63, 50, 67, 36, 36, 79, 31, 24,
             70, 30, 31, 68, 39, 30, 88, 33, 50, 57, 35, 32]),
        # blocks of 200 and 201 samples (the names recall the step chunks
        # these cases once cut)
        "b2f3-chunks-left": (
            b3, seeded_q(b3, 6),
            dict(alpha=Fr(1, 2), x0=1, t=11, samples=401, seed=303,
                 blocks=2),
            [69, 11, 13, 17, 4, 10, 23, 10, 14, 10, 23, 10, 15, 7, 9, 18, 14,
             13, 19, 17, 6, 17, 6, 13, 13, 10, 10]),
        "b2f3-chunks-right": (
            *opposite(b3, seeded_q(b3, 6)),
            dict(alpha=Fr(1, 2), x0=1, t=11, samples=401, seed=303,
                 blocks=2),
            [65, 10, 16, 26, 3, 11, 18, 12, 10, 12, 12, 14, 15, 15, 11, 16,
             17, 7, 20, 17, 8, 9, 6, 12, 20, 10, 9]),
        # R about 2^45.6: whole-word draws
        "z12-den2^40": (
            *z40, dict(alpha=Fr(1, 4), x0=5, t=5, samples=3000, seed=404),
            [704, 154, 191, 204, 346, 158, 226, 183, 326, 180, 172, 156]),
        # R about 2^61.6, close below the 2^63 edge: whole-word draws;
        # Z_12^op has Z_12's tables, but is another ring object
        "z12-den2^56": (
            *opposite(*z56),
            dict(alpha=Fr(1, 4), x0=7, t=5, samples=3000, seed=405),
            [447, 133, 214, 211, 357, 226, 275, 180, 402, 176, 209, 170]),
        # an alpha denominator above 2^31
        "m2f2-alpha-den2^31+11": (
            m2, seeded_q(m2, 9),
            dict(alpha=Fr(1, 2**31 + 11), x0=m2.one, t=9, samples=3000,
                 seed=606),
            [2828, 17, 13, 15, 23, 15, 0, 0, 19, 0, 27, 0, 22, 0, 0, 21]),
        # a Q denominator in (2^31, 2^32); blocks of 1500 samples
        "z12-den2^32-5": (
            *z32, dict(alpha=Fr(1, 3), x0=5, t=6, samples=3000, seed=707,
                       blocks=2),
            [868, 156, 154, 179, 292, 165, 238, 144, 300, 186, 162, 156]),
    }


@pytest.mark.parametrize("name", list(golden_cases()))
def test_simulation_golden_counts(name):
    ring, q, kwargs, counts = golden_cases()[name]
    res = simulate(ring, q, **kwargs)
    assert res.counts.tolist() == counts


def test_golden_z12_denominators_exceed_guide_table():
    """The Z_12 cases draw whole words (R above 2^32) and map them through
    guide tables with straddling buckets; z12-den2^56 sits close below the
    2^63 edge, and z12-den2^32-5 keeps a Q denominator in (2^31, 2^32).
    The other cases but m2f2-alpha-den2^31+11 draw half-words (R below
    2^32)."""
    cases = golden_cases()
    ranges = {}
    for name in ("z12-den2^32-5", "z12-den2^40", "z12-den2^56"):
        ring, q, kwargs, _ = cases[name]
        sampler = mixing.QSampler(mixing.move_weights(ring.n, q,
                                                      kwargs["alpha"]))
        assert sampler.den == move_range(ring, q, kwargs["alpha"])
        assert sampler.shift > 0 and sampler.straddles
        ranges[name] = sampler.den
    assert 2**32 < ranges["z12-den2^40"] < ranges["z12-den2^56"] < 2**63
    assert ranges["z12-den2^56"] > 2**61
    assert 2**31 < cases["z12-den2^32-5"][1].scaled_weights()[1] < 2**32
    assert all(move_range(ring, q, kwargs["alpha"]) < 2**32
               for name, (ring, q, kwargs, _) in cases.items()
               if not name.startswith(("z12", "m2f2-alpha-den")))


# ---------------------------------------------------------------------
# the move range R = s lcm(n, D) must lie below 2^63
# ---------------------------------------------------------------------

def z12_point_q(den):
    """Q on Z_12 with mass 1/den on 0 and the rest on 1: common
    denominator den."""
    ring = zn_ring(12)
    return ring, ClassDistribution(
        ring, [Fr(1, den), Fr(den - 1, den)] + [Fr(0)] * 10)


def z2_uniform():
    ring = zn_ring(2)
    return ring, uniform(ring)


@pytest.mark.parametrize("ring, q, alpha", [
    (*z12_point_q(2**62 - 4), Fr(1, 2)),
    (*z2_uniform(), Fr(1, 2**62 - 1)),
], ids=["z12-R2^63-8", "z2-R2^63-2"])
def test_simulate_accepts_a_move_range_just_below_2_63(ring, q, alpha):
    """R = 2 D = 2^63 - 8 (D = 2^62 - 4, a multiple of 12), and R =
    2 (2^62 - 1) = 2^63 - 2 from alpha alone: the simulator runs, on
    whole-word draws, and equals the reference."""
    assert 2**63 - 8 <= move_range(ring, q, alpha) < 2**63
    kwargs = dict(alpha=alpha, x0=1, t=4, samples=301, seed=9, blocks=2)
    res = simulate(ring, q, **kwargs)
    assert res.counts.tolist() == reference_simulate(ring, q, side="left",
                                                     **kwargs).tolist()


@pytest.mark.parametrize("ring, q, alpha, field", [
    (*z12_point_q(2**62 + 8), Fr(1, 2), "Q"),
    (*z2_uniform(), Fr(1, 2**62), "alpha"),
    (*z12_q(2**58 - 27, 8), Fr(1, 4), "Q"),
], ids=["z12-R2^63+16", "z2-R2^63", "z12-den2^58"])
def test_simulate_refuses_a_move_range_of_2_63(monkeypatch, ring, q, alpha,
                                               field):
    """R = 2^63 + 16 (D = 2^62 + 8, a multiple of 12), R = 2^63 exactly
    from alpha alone, and the former golden case z12-den2^58 (R about
    2^63.6): ParamOutOfRange, with s, L and 2^63, before any Philox stream
    is made.  It names 'alpha' where s n >= 2^63, which no Q can mend
    (L >= n), and 'Q' otherwise."""
    R = move_range(ring, q, alpha)
    assert R >= 2**63
    monkeypatch.setattr(np.random, "Philox", None)
    with pytest.raises(ParamOutOfRange) as err:
        simulate(ring, q, alpha, 0, 5, 100, seed=1)
    L = R // alpha.denominator
    assert str(err.value).startswith(f"field '{field}'")
    assert f"{alpha.denominator} * {L}" in str(err.value)
    assert "2^63" in str(err.value)


# ---------------------------------------------------------------------
# the end states follow the exact law M^t(x0, .) of the chain
# ---------------------------------------------------------------------

LAW_RINGS = {
    "M2(F3)": lambda: matrix_ring(3),
    "B2(F5)": lambda: upper_triangular_ring(5),
    "Z_360": lambda: zn_ring(360),
    "Z_4xM2(F2)": lambda: product_ring(zn_ring(4), matrix_ring(2)),
}


@functools.lru_cache(maxsize=None)
def law_ring(name):
    ring = LAW_RINGS[name]()
    return ring, seeded_q(ring, 5)


def exact_law(ring, q, alpha, x0, t, side):
    """M^t(x0, .) by float vector-matrix products, M from the dense oracle
    build_M (left), or alpha/n + (1 - alpha) B with B from
    right_multiplication_B (right)."""
    if side == "left":
        m = dense_float(build_M(ring, q, alpha))
    else:
        m = float(alpha) / ring.n + float(1 - alpha) * dense_float(
            right_multiplication_B(ring, q))
    law = np.zeros(ring.n)
    law[x0] = 1.0
    for _ in range(t):
        law = law @ m
    return law


def tv_bound(law, m, delta=1e-9):
    """McDiarmid: TV(empirical of m samples, law) exceeds
    E TV + sqrt(ln(1/delta) / (2m)) with probability at most delta, and
    E TV <= 1/2 sum_x sqrt(law(x) (1 - law(x)) / m)."""
    return 0.5 * np.sqrt(law * (1 - law) / m).sum() + \
        np.sqrt(np.log(1 / delta) / (2 * m))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("alpha", [Fr(1, 10), Fr(1, 2), Fr(2, 7)],
                         ids=["1/10", "1/2", "2/7"])
@pytest.mark.parametrize("name", sorted(LAW_RINGS))
def test_end_states_follow_the_exact_law(name, alpha, side):
    """The guard that simulate samples the paper's chain and not merely
    its own stream: 2*10^5 trajectories of 3 steps from the identity, on
    a seeded Q, land within the McDiarmid bound (delta = 10^-9) of the
    exact M^3(1, .).  The right walk runs as the left walk on R^op, and
    its law comes from R's own tables (right_multiplication_B)."""
    ring, q = law_ring(name)
    m, t = 200_000, 3
    law = exact_law(ring, q, alpha, ring.one, t, side)
    walk = opposite(ring, q) if side == "right" else (ring, q)
    res = simulate(*walk, alpha, ring.one, t, m, seed=17)
    tv = 0.5 * np.abs(res.counts / m - law).sum()
    assert tv <= tv_bound(law, m), (tv, tv_bound(law, m))


# ---------------------------------------------------------------------
# the simulator keeps the stream of the plain reference
# ---------------------------------------------------------------------

FACTORS = [("zn", n) for n in range(2, 13)] + [
    ("b2", 2), ("b2", 3), ("b2", 5), ("m2", 2), ("m2", 3)]
SIZES = {("zn", n): n for n in range(2, 13)} | {
    ("b2", 2): 8, ("b2", 3): 27, ("b2", 5): 125, ("m2", 2): 16, ("m2", 3): 81}


@functools.lru_cache(maxsize=None)
def small_ring(factors):
    build = {"zn": zn_ring, "b2": upper_triangular_ring, "m2": matrix_ring}
    rings = [build[kind](param) for kind, param in factors]
    ring = rings[0]
    for other in rings[1:]:
        ring = product_ring(ring, other)
    return ring


# Q common denominators on both sides of 2^20 and of 2^31
Q_DENOMINATORS = st.one_of(
    st.integers(2, 2**20),
    st.integers(2**20 + 1, 2**31 - 2),
    st.sampled_from([2**20, 2**20 + 1, 2**31 - 1, 2**31, 2**31 + 1]),
    st.integers(2**31 + 2, 2**54))


def alphas(top):
    """alpha = p/s in (0, 1) with s <= top: small denominators, and ones
    above 2^31 where top allows, so that R = s L spans draws on half-words
    and on whole words up to 2^63."""
    dens = st.integers(2, min(12, top)) if top >= 2 else st.nothing()
    if top > 2**31:
        dens = st.one_of(dens, st.integers(2**31 + 1, top))
    return dens.flatmap(lambda s: st.builds(Fr, st.integers(1, s - 1),
                                            st.just(s)))


@st.composite
def simulation_cases(draw):
    """A small ring (Z_n, B2(F_p), M2(F_2), M2(F_3) or a product of two,
    n <= 256), a class-constant Q with common denominator den, an alpha
    with R = s lcm(n, den) < 2^63, simulate arguments, a side, and a
    sample-block size that cuts rows and leaves half-words pending between
    draws."""
    factors = tuple(draw(st.lists(st.sampled_from(FACTORS), min_size=1,
                                  max_size=2).filter(
        lambda fs: np.prod([SIZES[f] for f in fs]) <= 256)))
    ring = small_ring(factors)
    part = ring.similarity
    zero, one = part.class_of[ring.zero], part.class_of[ring.one]
    den = draw(Q_DENOMINATORS)
    # weight 1/den on the zero class pins the common denominator to den
    share = draw(st.lists(st.integers(0, 1000), min_size=len(part),
                          max_size=len(part)))
    unit = (den - 1) // (1000 * ring.n)
    w = [x * unit for x in share]
    w[zero], w[one] = 1, 0
    w[one] = den - sum(x * len(c) for x, c in zip(w, part.classes))
    q = ClassDistribution(ring, [Fr(x, den) for x in w])
    samples = draw(st.integers(1, 40))
    kwargs = dict(
        alpha=draw(alphas((2**63 - 1) // lcm(ring.n, den))),
        x0=draw(st.integers(0, ring.n - 1)),
        t=draw(st.integers(0, 12)), samples=samples,
        seed=draw(st.integers(-2**63, 2**63 - 1)),
        blocks=draw(st.integers(1, samples + 3)))
    side = draw(st.sampled_from(["left", "right"]))
    return ring, q, kwargs, side, draw(st.integers(1, 16))


@settings(deadline=None, max_examples=150)
@given(simulation_cases())
def test_simulate_equals_reference_stream(case):
    """simulate on R (left) or on R^op (right) keeps the reference's
    stream for the same side on R."""
    ring, q, kwargs, side, sample_block = case
    walk = opposite(ring, q) if side == "right" else (ring, q)
    with mock.patch.object(mixing, "SAMPLE_BLOCK", sample_block):
        res = simulate(*walk, **kwargs)
    expected = reference_simulate(ring, q, side=side, **kwargs)
    assert res.counts.tolist() == expected.tolist()


@pytest.mark.parametrize("name", ["b2f3-chunks-right", "z12-den2^32-5",
                                  "z12-den2^40"])
def test_counts_do_not_depend_on_sample_block(name):
    """Sample blocks of 1 to 16 and the default cut a block's draws in
    different places, leaving half-words pending (R <= 2^32) or not: the
    counts are the golden ones every time."""
    ring, q, kwargs, counts = golden_cases()[name]
    for size in [*range(1, 17), mixing.SAMPLE_BLOCK]:
        with mock.patch.object(mixing, "SAMPLE_BLOCK", size):
            res = simulate(ring, q, **kwargs)
        assert res.counts.tolist() == counts, size


@pytest.mark.parametrize("make, side", [
    (lambda: matrix_ring(5), "left"), (lambda: matrix_ring(5), "right"),
    (lambda: zn_ring(200), "left")], ids=["M2(F5)-left", "M2(F5)-right",
                                         "Z_200-left"])
def test_simulate_equals_reference_where_scaled_entries_exceed_uint16(make,
                                                                      side):
    """The step table's flat indices code*n + x reach 2n^2 - 1 >= 2^16 on
    these rings: the products of the uint16 move codes by n taken in
    uint16 would wrap.  The reference builds its own int64 table; the
    right walk runs on R^op."""
    ring = make()
    assert (2 * ring.n - 1) * ring.n >= 2**16
    q = seeded_q(ring, 4)
    kwargs = dict(alpha=Fr(1, 3), x0=1, t=6, samples=400, seed=11, blocks=2)
    walk = opposite(ring, q) if side == "right" else (ring, q)
    res = simulate(*walk, **kwargs)
    expected = reference_simulate(ring, q, side=side, **kwargs)
    assert res.counts.tolist() == expected.tolist()


def simulate_peak(m, t, alpha=Fr(1, 3)):
    """tracemalloc peak of simulate on M2(F3) with m samples of t steps,
    and the bound the module docstring states for it: 2 bytes per sample
    (one uint16 state) plus at most 40 bytes per SAMPLE_BLOCK entry (two
    sample blocks' int64 draws in flight, one drawn and one mapped, and
    the caller-owned scratch: intp buckets, int32 move codes, straddle
    mask and intp gather index) and 64 KiB for the step table and the
    counts."""
    ring = matrix_ring(3)
    q = uniform(ring)
    ring.similarity
    simulate(ring, q, alpha, 0, 1, 10, seed=3)     # first-call imports
    tracemalloc.start()
    try:
        simulate(ring, q, alpha, 0, t, m, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, 2 * m + 40 * mixing.SAMPLE_BLOCK + 2**16


def test_simulate_memory_is_two_bytes_per_sample():
    """No buffer grows with the steps: 40 steps of 200,000 samples held
    16 MB of move codes when a chunk of steps was drawn pass by pass.
    alpha denominators of 3, above 2^31 and above 2^40 put R on half-word
    draws and on whole-word draws."""
    for t, alpha in [(40, Fr(1, 3)), (3, Fr(1, 3)), (5, Fr(1, 2**31 + 11)),
                     (5, Fr(1, 2**40 + 11))]:
        peak, bound = simulate_peak(200_000, t, alpha)
        assert peak <= bound, (t, alpha, peak, bound)


def test_simulate_counts_end_states_without_a_widened_copy():
    """2^21 samples of one step: the end states are counted a sample block
    at a time.  int32 states and one bincount over all of them, which
    widens them to int64, took 14 bytes a sample (29.4 MB here)."""
    peak, bound = simulate_peak(2**21, 1)
    assert peak <= bound, (peak, bound)


def test_a_step_allocates_nothing():
    """run_chain gathers through the caller's intp index: np.take would
    copy a narrower index to intp, 8 bytes a sample, at every step.  The
    step allocates under 2 bytes a sample (the int32 -> intp multiply
    casts through numpy's 64 KiB buffer).  One step of one sample block:
    the draw thread has drawn its one array before the step starts, so
    what the step allocates is its own."""
    ring = matrix_ring(3)
    grew = []
    real = mixing._kernels.run_chain

    def measured(states, moves, table, index):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        real(states, moves, table, index)
        grew.append(tracemalloc.get_traced_memory()[1] - before)

    simulate(ring, uniform(ring), Fr(1, 3), 0, 1, 10, seed=3)
    tracemalloc.start()
    try:
        with mock.patch.object(mixing._kernels, "run_chain", measured):
            simulate(ring, uniform(ring), Fr(1, 3), 0, 1,
                     mixing.SAMPLE_BLOCK, seed=3)
    finally:
        tracemalloc.stop()
    assert len(grew) == 1 and grew[0] < 2 * mixing.SAMPLE_BLOCK, grew


# ---------------------------------------------------------------------
# the draw thread: numpy only, joined on every exit
# ---------------------------------------------------------------------

def _spied_generator(on_draw):
    """A stand-in for np.random.Generator whose integers() first calls
    on_draw(k), k its 1-based count of calls on that generator."""
    real = np.random.Generator

    class Spied:
        def __init__(self, bit_generator):
            self.rng = real(bit_generator)
            self.calls = 0

        def integers(self, *args, **kwargs):
            self.calls += 1
            on_draw(self.calls)
            return self.rng.integers(*args, **kwargs)

    return Spied


def test_simulate_calls_the_package_on_the_calling_thread():
    """run_chain, QSampler.__call__ and move_weights run on the thread that
    called simulate; only the draws run elsewhere, on one thread per
    block.  A tracer keeps one span stack per process, so a package call
    on the draw thread would corrupt its accounting."""
    ring, q, kwargs, counts = golden_cases()["b2f3-blocks3"]
    calls = {"run_chain": [], "QSampler.__call__": [], "move_weights": []}
    draws = []

    def on(name, fn):
        def wrapped(*args, **kw):
            calls[name].append(threading.get_ident())
            return fn(*args, **kw)
        return wrapped

    with mock.patch.object(mixing, "SAMPLE_BLOCK", 100), \
            mock.patch.object(mixing._kernels, "run_chain",
                              on("run_chain", mixing._kernels.run_chain)), \
            mock.patch.object(mixing.QSampler, "__call__",
                              on("QSampler.__call__",
                                 mixing.QSampler.__call__)), \
            mock.patch.object(mixing, "move_weights",
                              on("move_weights", mixing.move_weights)), \
            mock.patch.object(np.random, "Generator", _spied_generator(
                lambda k: draws.append(threading.get_ident()))):
        res = simulate(ring, q, **kwargs)
    assert res.counts.tolist() == counts
    # 3 blocks of 666-668 samples: 7 sample blocks of at most 100, 6 steps
    assert {name: len(ids) for name, ids in calls.items()} == {
        "run_chain": 3 * 7 * 6, "QSampler.__call__": 3 * 7 * 6,
        "move_weights": 1}
    assert {i for ids in calls.values() for i in ids} == \
        {threading.get_ident()}
    assert len(draws) == 3 * 7 * 6
    assert threading.get_ident() not in draws


def _run_with_timeout(fn, seconds=30):
    """Run fn on a daemon thread; return what it raised.  Fails, rather
    than hangs, if fn has not returned within `seconds`."""
    raised = []

    def target():
        try:
            fn()
        except BaseException as exc:     # handed back to the test
            raised.append(exc)

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(seconds)
    assert not runner.is_alive(), "simulate did not return"
    return raised


def test_simulate_reraises_a_step_error_and_joins_its_draw_thread():
    """run_chain raises on its 5th call, once the draw thread has had the
    time to draw two arrays ahead and wait for a slot: simulate re-raises
    that error and joins the draw thread before it returns."""
    ring, q, kwargs, _ = golden_cases()["m2f2-left"]
    step = mixing._kernels.run_chain
    seen = []

    def failing(*args):
        seen.append(None)
        if len(seen) == 5:
            time.sleep(0.2)
            raise RuntimeError("step 5 failed")
        return step(*args)

    baseline = threading.active_count()
    with mock.patch.object(mixing, "SAMPLE_BLOCK", 100), \
            mock.patch.object(mixing._kernels, "run_chain", failing):
        raised = _run_with_timeout(lambda: simulate(ring, q, **kwargs))
    assert [str(e) for e in raised] == ["step 5 failed"]
    assert threading.active_count() == baseline


def test_simulate_reraises_a_draw_error_and_joins_its_draw_thread():
    """The draw thread's 4th draw raises: the error reaches the caller of
    simulate, and no thread is left behind."""
    ring, q, kwargs, _ = golden_cases()["m2f2-left"]

    def fail(k):
        if k == 4:
            raise RuntimeError("draw 4 failed")

    baseline = threading.active_count()
    with mock.patch.object(mixing, "SAMPLE_BLOCK", 100), \
            mock.patch.object(np.random, "Generator", _spied_generator(fail)):
        raised = _run_with_timeout(lambda: simulate(ring, q, **kwargs))
    assert [str(e) for e in raised] == ["draw 4 failed"]
    assert threading.active_count() == baseline


def test_concurrent_simulations_keep_their_golden_counts():
    """Six simulate calls at once, on more threads than cores and with a
    short switch interval, each with its draw threads: every call's counts
    are its golden ones, so no draw array is lost, repeated or handed to
    another call."""
    names = ["m2f2-left", "b2f3-blocks3", "z12-den2^40"] * 2
    results = {}

    def run(i, name):
        ring, q, kwargs, _ = golden_cases()[name]
        results[i] = simulate(ring, q, **kwargs).counts.tolist()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(mixing, "SAMPLE_BLOCK", 50):
            runners = [threading.Thread(target=run, args=item, daemon=True)
                       for item in enumerate(names)]
            for runner in runners:
                runner.start()
            for runner in runners:
                runner.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(runner.is_alive() for runner in runners)
    assert results == {i: golden_cases()[name][3]
                       for i, name in enumerate(names)}


def sample(sampler, draws):
    """sampler on the draws, with scratch of their length made fresh."""
    k = len(draws)
    return sampler(draws, np.empty(k, dtype=np.int32),
                   np.empty(k, dtype=np.intp), np.empty(k, dtype=bool))


class _PointQ:
    """A Q stub on n elements: all mass on the last element."""

    def __init__(self, n):
        self.n = n

    def scaled_weights(self):
        w = np.zeros(self.n, dtype=np.int64)
        w[-1] = 1
        return w, 1


def test_move_codes_are_bounded_below_uint16_at_the_size_cap():
    """At n = SIZE_CAP the move codes reach 2n - 1 and no further, and
    writing them into uint16 loses nothing."""
    assert SIZE_CAP < 2**16            # every element index fits the tables
    assert 2 * SIZE_CAP <= 2**16
    assert 2 * SIZE_CAP**2 < 2**31
    n = SIZE_CAP
    for alpha in (Fr(1, 2), Fr(1, 2**31 + 11), Fr(1, 2**40)):
        sampler = mixing.QSampler(mixing.move_weights(n, _PointQ(n), alpha))
        assert sampler.den == alpha.denominator * n
        draws = np.random.Generator(np.random.Philox(key=[9, 0])).integers(
            0, sampler.den, size=5000, dtype=np.int64)
        codes = sample(sampler, draws)
        assert codes.max() == 2 * n - 1
        assert set(codes[codes >= n].tolist()) == {2 * n - 1}
        assert np.array_equal(codes.astype(np.uint16), codes)


# ---------------------------------------------------------------------
# the guide-table Q-sampler is searchsorted, element by element
# ---------------------------------------------------------------------

@st.composite
def weights_and_draws(draw):
    """Nonnegative integer weights with 1 <= sum <= 2^62, and draws in
    [0, sum) that include both sides of every cumulative boundary."""
    bits = draw(st.integers(0, 62))
    k = draw(st.integers(1, 40))
    cap = max(1, 2**bits // k)
    w = draw(st.lists(st.integers(0, cap), min_size=k, max_size=k))
    w[draw(st.integers(0, k - 1))] += 1
    den = sum(w)
    cum = np.cumsum(w)
    edges = [int(c) + d for c in cum[:-1] for d in (-1, 0, 1)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    draws = np.concatenate([
        np.array([e for e in edges if 0 <= e < den] + [0, den - 1],
                 dtype=np.int64),
        rng.integers(0, den, size=500, dtype=np.int64)])
    return w, draws


@settings(deadline=None)
@given(weights_and_draws())
def test_q_sampler_equals_searchsorted(case):
    w, draws = case
    sampler = mixing.QSampler(w)
    assert sampler.den == sum(w)
    assert len(sampler.lo) <= 2**mixing.GUIDE_BITS
    assert len(sampler.lo) <= 2**(len(w).bit_length() + 5)
    zs = sample(sampler, draws)
    assert zs.dtype == np.int32
    assert np.array_equal(zs, np.searchsorted(np.cumsum(w), draws, "right"))


def test_q_sampler_straddling_buckets_only_above_guide_bits():
    assert not mixing.QSampler([1] * 2**mixing.GUIDE_BITS).straddles
    sampler = mixing.QSampler([2**40 + 1, 2**40 - 1])
    assert sampler.straddles
    draws = np.array([2**40, 2**40 + 1, 2**40 + 2], dtype=np.int64)
    assert sample(sampler, draws).tolist() == [0, 1, 1]
    # a draw past two boundaries of its bucket (two empty outcomes and one
    # of weight 1) takes the binary search
    sampler = mixing.QSampler([2**40 + 1, 0, 0, 1, 2**40 - 2])
    assert sample(sampler, draws).tolist() == [0, 3, 4]
