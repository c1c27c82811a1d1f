"""TV distance, the geometric mixing bound, and the seeded simulator."""

from fractions import Fraction as Fr

import numpy as np
import pytest

from ringwalk.chain import ClassDistribution, build_B, build_M
from ringwalk.errors import InvariantViolation, LengthMismatch, ParamOutOfRange
from ringwalk.exact import ScaledMatrix
from ringwalk.mixing import (
    class_products,
    d_of_t,
    mixing_bound,
    one_step_rows,
    simulate,
    tv_distance,
)
from ringwalk.rings import (
    SimilarityPartition,
    matrix_ring,
    product_ring,
    upper_triangular_ring,
    zn_ring,
)
from ringwalk.stationary import stationary_recursive, stationary_solve


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
    pi = stationary_solve(build_M(ring, q, alpha))
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
    pi = stationary_solve(build_M(ring, q, alpha))
    power = ScaledMatrix.identity(ring.n)
    out = []
    for t in range(T + 1):
        out.append(max(tv_distance(power.row(x), pi) for x in range(ring.n)))
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
    m = build_M(ring, q, alpha).to_float()
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
    pi = stationary_solve(build_M(ring, q, Fr(1, 2)))
    assert res.tv_to(pi) < 0.02


def test_one_step_frequencies_match_m_rows():
    # per-entry agreement with the exact transition rows at CLT scale
    for ring in (zn_ring(6), upper_triangular_ring(2)):
        q = uniform(ring)
        alpha = Fr(1, 2)
        m = build_M(ring, q, alpha).to_float()
        rows = one_step_rows(ring, q, alpha, 1_000_000, seed=77)
        assert np.abs(rows - m).max() < 0.005


def test_one_step_right_side_matches_right_matrix():
    ring = upper_triangular_ring(2)
    q = uniform(ring)
    alpha = Fr(1, 2)
    b_right = build_B(ring, q, side="right").to_float()
    m_right = 0.5 / ring.n + 0.5 * b_right
    rows = one_step_rows(ring, q, alpha, 400_000, seed=21, side="right")
    assert np.abs(rows - m_right).max() < 0.005
    # and on this ring the two sides genuinely differ
    b_left = build_B(ring, q, side="left").to_float()
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
        p = float(q.weight_of_element(x)) * (1 - 1 / 1000) + (1 / 1000) / 16
        se = (p * (1 - p) / n) ** 0.5
        assert abs(freq[x] - p) <= 3.5 * se + 1e-9


def test_seed_is_mandatory():
    ring = zn_ring(6)
    with pytest.raises(ValueError):
        simulate(ring, uniform(ring), Fr(1, 2), 0, 5, 100, seed=None)
