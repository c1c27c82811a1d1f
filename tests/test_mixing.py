"""TV distance, the geometric mixing bound, and the seeded simulator."""

import functools
import tracemalloc
from fractions import Fraction as Fr
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringwalk import _kernels, mixing
from ringwalk.chain import ClassDistribution, build_B, build_M
from ringwalk.errors import InvariantViolation, LengthMismatch, ParamOutOfRange
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
    curve = d_of_t(ring, q, alpha, 3)
    pi = stationary_solve(ring, q, alpha)
    assert curve.exact_values[0] == 1 - min(pi)
    assert curve.exact_values[0] >= 1 - max(pi)


def test_d_curve_monotone_and_bounded_m2f2():
    ring = matrix_ring(2)
    curve = d_of_t(ring, uniform(ring), Fr(1, 2), 20)
    ex = curve.exact_values
    assert all(ex[t + 1] <= ex[t] for t in range(20))
    assert all(ex[t] <= Fr(1, 2 ** t) for t in range(21))
    assert all(0 <= v <= 1 for v in ex)


def test_geometric_bound_on_all_small_rings():
    for ring in (zn_ring(6), upper_triangular_ring(2), matrix_ring(2)):
        for alpha in (Fr(1, 4), Fr(1, 2)):
            curve = d_of_t(ring, uniform(ring), alpha, 20)
            assert curve.exact_values is not None
            assert curve.bound_holds()


def test_t_cap():
    ring = zn_ring(6)
    with pytest.raises(ParamOutOfRange):
        d_of_t(ring, uniform(ring), Fr(1, 2), 65)


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
    curve = d_of_t(ring, q, alpha, T)
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
    assert d_of_t(ring, q, alpha, T).exact_values == \
        matrix_power_curve(ring, q, alpha, T)


def test_exact_curve_above_former_cap():
    # 625 states: exact for every n, checked against float matrix powers
    ring = matrix_ring(5)
    q = uniform(ring)
    alpha = Fr(1, 2)
    T = 6
    curve = d_of_t(ring, q, alpha, T)
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
            curve = d_of_t(ring, uniform(ring), alpha, 20)
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


def test_boundary_alpha_one_single_step_is_uniform():
    ring = matrix_ring(2)
    q = uniform(ring)
    res = simulate(ring, q, Fr(1), 0, 1, 1_000_000, seed=9,
                   allow_boundary=True)
    tv = tv_distance(res.empirical(), [1 / 16] * 16)
    assert tv < 0.01


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
    rows = one_step_rows(ring, q, alpha, 400_000, seed=21, side="right")
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


def golden_cases():
    m2 = matrix_ring(2)
    b3 = upper_triangular_ring(3)
    z40 = z12_q(2**40 - 87, 7)
    z58 = z12_q(2**58 - 27, 8)
    z32 = z12_q(2**32 - 5, 10)
    # (ring, Q, simulate keywords, STEP_CHUNK_ENTRIES or None, counts)
    return {
        "m2f2-left": (
            m2, seeded_q(m2, 3),
            dict(alpha=Fr(1, 3), x0=0, t=7, samples=3000, seed=101), None,
            [1263, 135, 125, 131, 132, 108, 92, 123, 119, 91, 124, 111, 114,
             105, 111, 116]),
        "m2f2-right": (
            m2, seeded_q(m2, 3),
            dict(alpha=Fr(1, 3), x0=0, t=7, samples=3000, seed=101,
                 side="right"), None,
            [1270, 114, 125, 128, 139, 117, 95, 118, 134, 96, 124, 107, 124,
             87, 109, 113]),
        "b2f3-blocks3": (
            b3, seeded_q(b3, 5),
            dict(alpha=Fr(2, 5), x0=b3.one, t=6, samples=2000, seed=202,
                 blocks=3), None,
            [586, 53, 54, 100, 39, 42, 134, 64, 60, 82, 32, 42, 83, 28, 38,
             66, 33, 44, 64, 33, 35, 73, 45, 40, 68, 30, 32]),
        # blocks of 200 and 201 samples, 3 and 2 steps per chunk
        "b2f3-chunks-left": (
            b3, seeded_q(b3, 6),
            dict(alpha=Fr(1, 2), x0=1, t=11, samples=401, seed=303,
                 blocks=2), 600,
            [58, 13, 18, 25, 14, 15, 15, 20, 12, 15, 9, 12, 17, 11, 4, 15, 10,
             9, 14, 11, 11, 14, 11, 14, 14, 7, 13]),
        "b2f3-chunks-right": (
            b3, seeded_q(b3, 6),
            dict(alpha=Fr(1, 2), x0=1, t=11, samples=401, seed=303,
                 side="right", blocks=2), 600,
            [58, 17, 18, 19, 19, 13, 21, 11, 14, 15, 10, 6, 13, 16, 9, 19, 4,
             10, 15, 11, 15, 17, 12, 15, 10, 6, 8]),
        "z12-den2^40": (
            *z40, dict(alpha=Fr(1, 4), x0=5, t=5, samples=3000, seed=404),
            None,
            [711, 130, 201, 192, 344, 165, 235, 158, 315, 187, 209, 153]),
        # one step per chunk
        "z12-den2^58": (
            *z58, dict(alpha=Fr(1, 4), x0=7, t=5, samples=3000, seed=405,
                       side="right"), 2000,
            [688, 137, 177, 258, 259, 188, 336, 155, 248, 247, 163, 144]),
        "m2f2-alpha1": (
            m2, seeded_q(m2, 4),
            dict(alpha=Fr(1), x0=3, t=3, samples=2000, seed=505,
                 allow_boundary=True), None,
            [89, 144, 123, 110, 131, 131, 139, 119, 130, 129, 119, 123, 117,
             139, 138, 119]),
        # a coin denominator above 2^31
        "m2f2-alpha-den2^31+11": (
            m2, seeded_q(m2, 9),
            dict(alpha=Fr(1, 2**31 + 11), x0=m2.one, t=9, samples=3000,
                 seed=606), None,
            [2829, 15, 26, 19, 16, 22, 0, 0, 18, 0, 21, 0, 16, 0, 0, 18]),
        # Q-draws in (2^31, 2^32); blocks of 1500 samples, 2 steps per chunk
        "z12-den2^32-5": (
            *z32, dict(alpha=Fr(1, 3), x0=5, t=6, samples=3000, seed=707,
                       blocks=2), 4000,
            [800, 124, 154, 198, 277, 155, 279, 159, 317, 193, 186, 158]),
    }


@pytest.mark.parametrize("name", list(golden_cases()))
def test_simulation_golden_counts(monkeypatch, name):
    ring, q, kwargs, chunk, counts = golden_cases()[name]
    if chunk is not None:
        monkeypatch.setattr(mixing, "STEP_CHUNK_ENTRIES", chunk)
    res = simulate(ring, q, **kwargs)
    assert res.counts.tolist() == counts


def test_golden_z12_denominators_exceed_guide_table():
    cases = golden_cases()
    for name in ("z12-den2^32-5", "z12-den2^40", "z12-den2^58"):
        w_int, den = cases[name][1].scaled_weights()
        assert den > 2**mixing.GUIDE_BITS
        assert mixing.QSampler(w_int).shift > 0
    assert 2**31 < cases["z12-den2^32-5"][1].scaled_weights()[1] < 2**32


# ---------------------------------------------------------------------
# the sliced, fused draw loop keeps the stream of the plain chunked loop
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


# Q common denominators on both sides of the guide table (2^20) and of 2^31
Q_DENOMINATORS = st.one_of(
    st.integers(2, 2**20),
    st.integers(2**20 + 1, 2**31 - 2),
    st.sampled_from([2**20, 2**20 + 1, 2**31 - 1, 2**31, 2**31 + 1]),
    st.integers(2**31 + 2, 2**62))

# coin denominators of 1 (alpha 0 or 1), small ones, and ones on both sides
# of 2^31
ALPHAS = st.one_of(
    st.sampled_from([Fr(0), Fr(1), Fr(1, 2**31), Fr(2**31 - 1, 2**31 + 1)]),
    st.integers(2, 12).flatmap(
        lambda s: st.builds(Fr, st.integers(1, s - 1), st.just(s))),
    st.integers(2**31 + 1, 2**63 - 1).flatmap(
        lambda s: st.builds(Fr, st.integers(1, s - 1), st.just(s))))


@st.composite
def simulation_cases(draw):
    """A small ring (Z_n, B2(F_p), M2(F_2), M2(F_3) or a product of two,
    n <= 256), a class-constant Q with common denominator den, and
    simulate arguments with chunk, slice and gather-block sizes that cut
    rows."""
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
        alpha=draw(ALPHAS), x0=draw(st.integers(0, ring.n - 1)),
        t=draw(st.integers(0, 12)), samples=samples,
        seed=draw(st.integers(-2**63, 2**63 - 1)),
        side=draw(st.sampled_from(["left", "right"])),
        blocks=draw(st.integers(1, samples + 3)))
    sizes = dict(STEP_CHUNK_ENTRIES=draw(st.integers(1, 120)),
                 DRAW_SLICE=draw(st.integers(1, 50)),
                 GATHER_BLOCK=draw(st.integers(1, 16)))
    return ring, q, kwargs, sizes


@settings(deadline=None, max_examples=150)
@given(simulation_cases())
def test_simulate_equals_reference_stream(case):
    ring, q, kwargs, sizes = case
    chunk_entries = sizes["STEP_CHUNK_ENTRIES"]
    with mock.patch.object(mixing, "STEP_CHUNK_ENTRIES", chunk_entries), \
            mock.patch.object(mixing, "DRAW_SLICE", sizes["DRAW_SLICE"]), \
            mock.patch.object(_kernels, "GATHER_BLOCK",
                              sizes["GATHER_BLOCK"]):
        res = simulate(ring, q, allow_boundary=True, **kwargs)
    expected = reference_simulate(ring, q, chunk_entries=chunk_entries,
                                  **kwargs)
    assert res.counts.tolist() == expected.tolist()


@pytest.mark.parametrize("make, side", [
    (lambda: matrix_ring(5), "left"), (lambda: matrix_ring(5), "right"),
    (lambda: zn_ring(200), "left")], ids=["M2(F5)-left", "M2(F5)-right",
                                         "Z_200-left"])
def test_simulate_equals_reference_where_scaled_entries_exceed_uint16(make,
                                                                      side):
    """The step table's entries reach (n - 1) 2n >= 2^16 on these rings:
    products of the uint16 ring tables by 2n taken in uint16 would wrap.
    The reference builds its own int32 table."""
    ring = make()
    assert (ring.n - 1) * 2 * ring.n >= 2**16
    q = seeded_q(ring, 4)
    kwargs = dict(alpha=Fr(1, 3), x0=1, t=6, samples=400, seed=11,
                  side=side, blocks=2)
    res = simulate(ring, q, **kwargs)
    expected = reference_simulate(
        ring, q, chunk_entries=mixing.STEP_CHUNK_ENTRIES, **kwargs)
    assert res.counts.tolist() == expected.tolist()


def test_simulate_memory_is_two_bytes_per_chunk_entry(monkeypatch):
    # one uint16 move code per chunk entry; a bool coin and an int32 offset
    # would take 5 bytes an entry, chunk-sized int64 draws about 17
    ring = matrix_ring(3)
    q = uniform(ring)
    ring.similarity
    chunk_entries = 8_000_000
    monkeypatch.setattr(mixing, "STEP_CHUNK_ENTRIES", chunk_entries)
    m = 200_000
    tracemalloc.start()
    try:
        simulate(ring, q, Fr(1, 3), 0, 40, m, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # per sample: the int32 states; per slice entry: the int64 draws, their
    # guide-table buckets and the sampled elements
    bound = 2 * chunk_entries + 8 * m + 24 * mixing.DRAW_SLICE
    assert peak <= bound, (peak, bound)


class _ConstantSampler:
    """A Q-sampler stub: every draw in [0, den) maps to the element z."""

    def __init__(self, z, den):
        self.z, self.den = z, den

    def __call__(self, draws):
        return np.full(draws.shape, self.z, dtype=np.int32)


def test_move_codes_are_bounded_below_uint16_at_the_size_cap():
    assert SIZE_CAP < 2**16            # every element index fits the tables
    assert 2 * SIZE_CAP <= 2**16
    assert 2 * SIZE_CAP**2 < 2**31
    n = SIZE_CAP
    sampler = _ConstantSampler(n - 1, 7)
    entries = 3 * mixing.DRAW_SLICE + 5
    for den in (2, 2**31 + 11, 2**40):
        alpha = Fr(1, den)
        moves = np.empty(entries, dtype=np.uint16)
        mixing._draw_moves(np.random.Generator(np.random.Philox(key=[9, 1])),
                           moves, alpha, n, sampler)
        rng = np.random.Generator(np.random.Philox(key=[9, 1]))
        tails = rng.integers(0, den, size=entries, dtype=np.int64) \
            >= alpha.numerator
        a = rng.integers(0, n, size=entries, dtype=np.int32)
        zs = sampler(rng.integers(0, sampler.den, size=entries,
                                  dtype=np.int64))
        expected = np.where(tails, n + zs, a)
        assert expected.max() == 2 * n - 1
        assert np.array_equal(moves.astype(np.int32), expected)


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
    return w, draws.reshape(1, -1)


@settings(deadline=None)
@given(weights_and_draws())
def test_q_sampler_equals_searchsorted(case):
    w, draws = case
    sampler = mixing.QSampler(w)
    assert sampler.den == sum(w)
    assert len(sampler.lo) <= 2**mixing.GUIDE_BITS
    zs = sampler(draws)
    assert zs.dtype == np.int32
    assert np.array_equal(zs, np.searchsorted(np.cumsum(w), draws, "right"))


def test_q_sampler_straddling_buckets_only_above_guide_bits():
    assert not mixing.QSampler([1] * 2**mixing.GUIDE_BITS).straddles
    sampler = mixing.QSampler([2**40 + 1, 2**40 - 1])
    assert sampler.straddles
    draws = np.array([[2**40, 2**40 + 1, 2**40 + 2]], dtype=np.int64)
    assert sampler(draws).tolist() == [[0, 1, 1]]
