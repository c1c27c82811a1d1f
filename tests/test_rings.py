"""Ring constructors, enumeration contracts, and derived structure.

The per-ring structural identities at the bottom run exhaustively on every
test ring with at most 100 elements; the tabulated M2(F_q) facts are
checked against the generator/stabilizer descriptions for q = 3 and q = 5.
"""

import tracemalloc
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringwalk import rings
from ringwalk.chain import ClassDistribution
from ringwalk.checks import check_rxy_sizes, check_witnesses, full_suite
from ringwalk.errors import InvariantViolation, TooLarge
from ringwalk.rings import (
    FiniteRing,
    _greedy_generators,
    matrix_ring,
    product_ring,
    upper_triangular_ring,
    zn_ring,
)

from gl2_oracle import ring_element_index
from random_rings import random_ring
from ring_oracle import (
    coset_reps,
    f_set_by_class,
    f_set_by_rep,
    ideals_by_bit_table,
    ideals_by_column,
    r_xy,
    similarity_sweep,
    triple_axiom_failure,
)

SMALL_RINGS = None


def small_rings():
    global SMALL_RINGS
    if SMALL_RINGS is None:
        SMALL_RINGS = [
            zn_ring(1),
            zn_ring(4),
            zn_ring(6),
            zn_ring(12),
            product_ring(zn_ring(2), zn_ring(3)),
            upper_triangular_ring(2),
            upper_triangular_ring(3),
            matrix_ring(2),
            matrix_ring(3),
        ]
    return SMALL_RINGS


# ---------------------------------------------------------------------
# constructors and enumeration contracts
# ---------------------------------------------------------------------

def test_zero_ring():
    r = zn_ring(1)
    assert r.n == 1 and r.one == r.zero
    assert r.units.tolist() == [0]      # one = zero is its own inverse


def test_z6_units_by_gcd():
    r = zn_ring(6)
    assert r.units.tolist() == [x for x in range(6) if gcd(x, 6) == 1]


def test_z4_principal_ideals():
    r = zn_ring(4)
    # brute-force ideal generation: {x*a mod 4}
    ideals = {tuple(sorted({(x * a) % 4 for x in range(4)})) for a in range(4)}
    assert ideals == {(0,), (0, 2), (0, 1, 2, 3)}
    assert len(r.phi) == 3


@pytest.mark.parametrize("n", [1, 2, 3, 12, 60, 243, 257, 1000, 4999])
def test_zn_tables_equal_the_int64_construction(n):
    """The rotations and running sums of zn_ring against residues taken
    with %, 512 rows at a time."""
    idx = np.arange(n, dtype=np.int64)
    r = zn_ring(n)
    assert r.add.dtype == r.mul.dtype == np.uint16
    for s in range(0, n, 512):
        b = idx[s:s + 512, None]
        assert np.array_equal(r.add[s:s + 512], (b + idx) % n)
        assert np.array_equal(r.mul[s:s + 512], (b * idx) % n)


def test_matrix_ring_f2_basics():
    r = matrix_ring(2)
    assert r.n == 16
    assert len(r.units) == (4 - 1) * (4 - 2)     # (q^2-1)(q^2-q) at q=2
    assert r.one == ring_element_index(r, (1, 0, 1 - 1, 1))
    assert r.one == 0b1001                        # lexicographic (1,0,0,1)


def test_matrix_ring_f3_unit_count():
    r = matrix_ring(3)
    assert r.n == 81
    assert len(r.units) == (9 - 1) * (9 - 3)


def test_matrix_ring_size_cap():
    with pytest.raises(TooLarge):
        matrix_ring(7, size=3)                   # 7^9 far beyond the cap
    with pytest.raises(TooLarge):
        zn_ring(20001)
    with pytest.raises(TooLarge):
        product_ring(zn_ring(150), zn_ring(150))


@pytest.mark.parametrize("make", [
    lambda: matrix_ring(1_000_000_007),
    lambda: matrix_ring(1_000_003),
    lambda: upper_triangular_ring(100_000_007),
    lambda: matrix_ring(3, size=4),
], ids=["M2(F1000000007)", "M2(F1000003)", "B2(F100000007)", "M4(F3)"])
def test_size_is_checked_before_the_field_is_built(monkeypatch, make):
    def no_field(*args):
        raise AssertionError("field built before the size check")

    monkeypatch.setattr(rings, "gf", no_field)
    with pytest.raises(TooLarge):
        make()


def test_matrix_ring_over_quadratic_extension():
    """The constructor accepts a prime-power field handle; the generic
    structure still holds over GF(4)."""
    from ringwalk.fields import gf
    r = matrix_ring(gf(2, 2))
    assert r.n == 256
    assert len(r.units) == (16 - 1) * (16 - 4)
    assert len(r.phi) == 4 + 3
    for a in r.phi:
        assert len(r.s_set(int(a))) * len(r.lstab(int(a))) == len(r.units)


def test_upper_triangular_sizes_and_units():
    assert upper_triangular_ring(2).n == 8
    r = upper_triangular_ring(3)
    assert r.n == 27
    # invertible iff both diagonal entries are nonzero: exhaustive scan
    expected = sum(1 for a in range(3) for b in range(3) for d in range(3)
                   if a and d)
    assert len(r.units) == expected == 12


def test_upper_triangular_embeds_in_matrix_ring():
    bt = upper_triangular_ring(3)
    m = matrix_ring(3)

    def embed(x):
        a, b, d = (x // 9) % 3, (x // 3) % 3, x % 3
        return ring_element_index(m, (a, b, 0, d))

    for x in range(bt.n):
        for y in range(bt.n):
            assert embed(int(bt.mul[x, y])) == \
                int(m.mul[embed(x), embed(y)])
            assert embed(int(bt.add[x, y])) == \
                int(m.add[embed(x), embed(y)])


def test_product_tables_equal_the_int64_construction():
    r1, r2 = upper_triangular_ring(3), zn_ring(6)
    p = product_ring(r1, r2)
    i1, i2 = np.divmod(np.arange(p.n), r2.n)
    for got, t1, t2 in ((p.add, r1.add, r2.add), (p.mul, r1.mul, r2.mul)):
        want = t1[np.ix_(i1, i1)].astype(np.int64) * r2.n + t2[np.ix_(i2, i2)]
        assert got.dtype == np.uint16 and np.array_equal(got, want)


@pytest.mark.parametrize("make, args", [
    (matrix_ring, lambda: (5,)), (upper_triangular_ring, lambda: (7,)),
    (zn_ring, lambda: (1000,)),
    (product_ring, lambda: (zn_ring(3), matrix_ring(5))),
], ids=["M2(F5)", "B2(F7)", "Z_1000", "Z_3xM2(F5)"])
def test_build_peak_is_the_tables(make, args):
    """Building a ring, its units, similarity classes and ideals holds the
    two tables plus O(_BLOCK n): every whole-table pass outside them runs
    _BLOCK rows or columns at a time, with 15-20 bytes per block entry
    (intp and int32 indices, uint16 gathers, a bool mask).  The bound is
    below 1.25 (add + mul bytes) + 1 MiB at every n.  n x n temporaries
    took these rings to 32-500 bytes per block entry."""
    args = args()                  # a product's factors are built untraced
    tracemalloc.start()
    try:
        ring = make(*args)
        ring.units, ring.similarity, ring.ideals
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = ring.add.nbytes + ring.mul.nbytes
    assert peak <= tables + 24 * rings._BLOCK * ring.n, (peak, tables)


def test_product_ring_contracts():
    p = product_ring(zn_ring(2), zn_ring(2))
    assert p.n == 4
    assert p.units.tolist() == [3]               # only (1,1)
    assert p.zero == 0
    p2 = product_ring(zn_ring(2), zn_ring(3))
    assert len(p2.units) == len(zn_ring(6).units)   # CRT comparison


# ---------------------------------------------------------------------
# similarity classes
# ---------------------------------------------------------------------

def test_commutative_rings_have_singleton_classes():
    for r in (zn_ring(6), zn_ring(12), product_ring(zn_ring(2), zn_ring(3))):
        assert len(r.similarity) == r.n
        assert all(len(c) == 1 for c in r.similarity.classes)


def test_m2_class_counts_against_table():
    for q in (3, 5):
        r = matrix_ring(q)
        part = r.similarity
        invertible = int(part.invertible.sum())
        expected_invertible = (q - 1) + (q - 1) + (q - 1) * (q - 2) // 2 \
            + (q * q - q) // 2
        assert invertible == expected_invertible
        assert len(part) == expected_invertible + (q + 1)
    assert len(matrix_ring(3).similarity) == 12


def test_invertible_classes_sit_inside_units():
    for r in small_rings():
        part = r.similarity
        for flag, cls in zip(part.invertible, part.classes):
            inside = all(int(x) in r.unit_set for x in cls)
            outside = all(int(x) not in r.unit_set for x in cls)
            assert (flag and inside) or (not flag and outside)


# ---------------------------------------------------------------------
# ideals, stabilizers, annihilators
# ---------------------------------------------------------------------

def test_m2_ideal_count_is_q_plus_3():
    for q in (2, 3, 5):
        assert len(matrix_ring(q).phi) == q + 3


def test_s_of_identity_is_unit_group():
    for r in small_rings():
        assert set(r.s_set(r.one).tolist()) == r.unit_set


def test_s_of_zero_is_zero():
    for r in small_rings():
        assert r.s_set(r.zero).tolist() == [r.zero]


def test_lstab_description_table_row2():
    # LStab([[0,1],[0,0]]) = {[[1,y],[0,w]] : w != 0}, size q(q-1)
    for q in (3, 5):
        r = matrix_ring(q)
        a = ring_element_index(r, (0, 1, 0, 0))
        expected = {ring_element_index(r, (1, y, 0, w))
                    for y in range(q) for w in range(1, q)}
        assert set(r.lstab(a).tolist()) == expected
        assert len(expected) == q * (q - 1)


def test_lann_of_unit_is_zero():
    for r in small_rings():
        for u in r.units[:3]:
            assert r.lann(int(u)).tolist() == [r.zero]


def test_rxy_examples():
    z4 = zn_ring(4)
    assert r_xy(z4, 2, 2) == [1, 3]
    for r in (zn_ring(6), matrix_ring(2)):
        assert r_xy(r, r.one, r.one) == [r.one]
        for y in range(r.n):
            assert r_xy(r, r.zero, y) == r.lann(y).tolist()


def test_rxy_empty_iff_not_contained():
    r = matrix_ring(2)
    poset = r.ideals
    for x in range(r.n):
        for y in range(r.n):
            nonempty = len(r_xy(r, x, y)) > 0
            contained = bool(poset.leq[poset.id_of[x], poset.id_of[y]])
            assert nonempty == contained


# ---------------------------------------------------------------------
# witnesses and F_a
# ---------------------------------------------------------------------

def test_witness_property_everywhere_small():
    for r in small_rings():
        if r.n > 100:
            continue
        for a in r.phi:
            sa = r.s_set(int(a))
            for x in sa:
                assert set(r.mul[r.units, int(x)].tolist()) == \
                    set(sa.tolist())


def test_witness_rejects_foreign_pairs():
    r = zn_ring(6)
    # 2 generates a smaller ideal than 1: no unit maps 1 to 2
    assert 2 not in r.mul[r.units, 1].tolist()


def test_f_set_unit_and_zero():
    for r in (matrix_ring(2), matrix_ring(3), upper_triangular_ring(3),
              zn_ring(6)):
        part = r.similarity
        f_one = set(r.f_set(r.one).tolist())
        invertible = {i for i in range(len(part)) if part.invertible[i]}
        assert f_one == invertible
        f_zero = set(r.f_set(r.zero).tolist())
        assert f_zero == set(range(len(part)))


def test_f_set_rank_one_matches_table():
    # F_A cap psi^0 = {[[0,0],[1,0]]} u {[[t,0],[0,0]] : t != 0}
    for q in (3, 5):
        r = matrix_ring(q)
        part = r.similarity
        a = ring_element_index(r, (0, 1, 0, 0))
        a = int(r.phi[r.ideals.id_of[a]])
        fa = set(r.f_set(a).tolist())
        noninv = {ci for ci in fa if not part.invertible[ci]}
        expected = {int(part.class_of[ring_element_index(r, (0, 0, 1, 0))])}
        for t in range(1, q):
            expected.add(int(part.class_of[ring_element_index(r, (t, 0, 0, 0))]))
        assert noninv == expected
        # and the invertible classes are always present
        assert {ci for ci in fa if part.invertible[ci]} == \
            {ci for ci in range(len(part)) if part.invertible[ci]}


def test_table_one_s_sets():
    for q in (3, 5):
        r = matrix_ring(q)
        # column type: S = {[[0,a],[0,b]] nonzero}
        a_col = ring_element_index(r, (0, 1, 0, 0))
        expected = {ring_element_index(r, (0, a, 0, b))
                    for a in range(q) for b in range(q)} - {r.zero}
        assert set(r.s_set(a_col).tolist()) == expected
        # row types: S = {[[a, za],[b, zb]] nonzero}
        for z in range(q):
            a_row = ring_element_index(r, (1, z, 0, 0))
            expected = {ring_element_index(r, (a, a * z % q, b, b * z % q))
                        for a in range(q) for b in range(q)} - {r.zero}
            assert set(r.s_set(a_row).tolist()) == expected


def test_table_one_stabilizers_all_rows():
    mirabolic = lambda r, q: {ring_element_index(r, (1, y, 0, w))
                              for y in range(q) for w in range(1, q)}
    for q in (3, 5):
        r = matrix_ring(q)
        assert r.lstab(r.one).tolist() == [r.one]
        assert set(r.lstab(r.zero).tolist()) == r.unit_set
        a_col = ring_element_index(r, (0, 1, 0, 0))
        assert set(r.lstab(a_col).tolist()) == mirabolic(r, q)
        for z in range(q):
            a_row = ring_element_index(r, (1, z, 0, 0))
            assert set(r.lstab(a_row).tolist()) == mirabolic(r, q)


def test_table_one_f_sets_identity_and_zero_rows():
    for q in (3, 5):
        r = matrix_ring(q)
        part = r.similarity
        noninvertible = {ci for ci in range(len(part))
                         if not part.invertible[ci]}
        f_one = set(r.f_set(r.one).tolist())
        assert f_one & noninvertible == set()
        f_zero = set(r.f_set(r.zero).tolist())
        assert f_zero & noninvertible == noninvertible


# ---------------------------------------------------------------------
# structural identities, exhaustive at n <= 100
# ---------------------------------------------------------------------

def test_orbit_stabilizer_identity():
    for r in small_rings():
        for a in r.phi:
            assert len(r.s_set(int(a))) * len(r.lstab(int(a))) == len(r.units)


def test_generator_sets_partition_ring():
    for r in small_rings():
        counts = np.zeros(r.n, dtype=int)
        for s in r.ideals.generators:
            counts[s] += 1
        assert np.all(counts == 1)


def test_rxy_size_equals_lann_when_nonempty():
    for r in small_rings():
        if r.n > 100:
            continue
        for x in range(r.n):
            for y in range(r.n):
                fiber = r_xy(r, x, y)
                if fiber:
                    assert len(fiber) == len(r.lann(y))


def test_rxy_check_is_exhaustive_at_every_size():
    for r in (upper_triangular_ring(5), matrix_ring(3)):
        assert check_rxy_sizes(r) == (True, "exhaustive")


def test_rxy_check_catches_a_wrong_poset_or_table():
    r = upper_triangular_ring(3)
    r.ideals.leq[0, len(r.ideals) - 1] ^= True
    ok, detail = check_rxy_sizes(r)
    assert not ok and "emptiness" in detail
    r = upper_triangular_ring(3)
    r.ideals                                 # built from the true table
    y = int(r.phi[1])
    counts = np.bincount(r.mul[:, y], minlength=r.n)
    x, other = np.nonzero(counts >= 2)[0][:2]
    r.mul = r.mul.copy()
    r.mul[np.nonzero(r.mul[:, y] == x)[0][0], y] = other
    ok, detail = check_rxy_sizes(r)
    assert not ok and "LAnn" in detail


def test_rxy_check_reads_the_last_row_block(monkeypatch):
    """One count moved in row y of the uniform B on M2(F3), y a non-unit
    past the first 64 rows the check reads: R_{u,y} gains a unit u, which
    lies outside I_y, and R_{0,y} = LAnn(y) loses one of its 9 elements.
    The emptiness test comes first and names (u, y)."""
    from ringwalk import checks
    from test_cli import corrupted_reader
    ring = matrix_ring(3)
    y = max(set(range(ring.n)) - set(ring.units.tolist()))
    u = int(ring.units[0])

    def corrupt(num):
        num = num.copy()
        num[y, u] += 1
        num[y, ring.zero] -= 1
        return num

    assert check_rxy_sizes(ring) == (True, "exhaustive")
    monkeypatch.setattr(checks, "b_blocks",
                        corrupted_reader(checks.b_blocks, corrupt))
    assert y >= 64 and len(ring.lann(y)) == 9
    assert check_rxy_sizes(ring) == \
        (False, f"emptiness of R_{{{u},{y}}} disagrees with the poset")


def witnesses_per_element(ring):
    """check_witnesses one element at a time: U x as a set, for every x in
    every S_a."""
    for a in ring.phi:
        sa = ring.s_set(a)
        target = set(sa.tolist())
        for x in sa:
            if set(ring.mul[ring.units, x].tolist()) != target:
                return False, f"units do not act transitively on S_{a}"
    return True, "unit action transitive on every S_a"


class JoinedGeneratorSets:
    """A view of a ring whose S_a is S_a joined with S_b: two unit orbits."""

    def __init__(self, ring, a, b):
        self.ring, self.a, self.b = ring, a, b
        self.phi, self.mul, self.units = ring.phi, ring.mul, ring.units

    def s_set(self, a):
        sa = self.ring.s_set(a)
        if a != self.a:
            return sa
        return np.concatenate([sa, self.ring.s_set(self.b)])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_unit_transitivity_equals_the_per_element_oracle(data):
    ring = random_ring(data.draw)
    assert check_witnesses(ring) == witnesses_per_element(ring) == \
        (True, "unit action transitive on every S_a")
    a, b = data.draw(st.permutations(ring.phi.tolist()))[:2]
    joined = JoinedGeneratorSets(ring, a, b)
    assert check_witnesses(joined) == witnesses_per_element(joined) == \
        (False, f"units do not act transitively on S_{a}")


def test_coset_reps_biject_with_s():
    for r in small_rings():
        for a in r.phi:
            reps = coset_reps(r, int(a))
            images = {int(r.mul[u, int(a)]) for u in reps}
            assert images == set(r.s_set(int(a)).tolist())
            assert len(reps) == len(r.s_set(int(a)))


# ---------------------------------------------------------------------
# ring axioms and derived structure against the plain-loop oracles
# ---------------------------------------------------------------------

def corrupted_tables(ring, table, x, y, shift):
    """Copies of the tables with entry (x, y) of `table` moved by `shift`
    (mod n); for + entry (y, x) moves with it, so + stays symmetric."""
    add, mul = ring.add.copy(), ring.mul.copy()
    t = add if table == "add" else mul
    t[x, y] = (t[x, y] + shift) % ring.n
    if table == "add":
        t[y, x] = t[x, y]
    return add, mul


def rebuild(ring, add, mul):
    return FiniteRing(add, mul, ring.zero, ring.one, "corrupted", {})


def assert_structure_equals_oracles(ring):
    assert triple_axiom_failure(ring.add, ring.mul, ring.zero,
                                ring.one) is None
    part = ring.similarity
    reps, class_of, classes, invertible = similarity_sweep(ring)
    assert part.reps.tolist() == reps.tolist()
    assert part.class_of.tolist() == class_of.tolist()
    assert [c.tolist() for c in part.classes] == [c.tolist() for c in classes]
    assert part.invertible.tolist() == invertible.tolist()
    poset = ring.ideals
    masks, reps, id_of, generators, leq = ideals_by_column(ring)
    assert np.array_equal(poset.masks, masks)
    assert poset.reps.tolist() == reps.tolist()
    assert poset.id_of.tolist() == id_of.tolist()
    assert [g.tolist() for g in poset.generators] == \
        [g.tolist() for g in generators]
    assert np.array_equal(poset.leq, leq)
    for a in ring.phi:
        assert ring.f_set(int(a)).tolist() == f_set_by_class(ring, int(a))
    assert ring.is_commutative == np.array_equal(ring.mul, ring.mul.T)
    units = ring.mul[np.ix_(ring.units, ring.units)]
    assert ring.units_abelian == np.array_equal(units, units.T)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_structure_and_axioms_equal_the_loop_oracles(data):
    ring = random_ring(data.draw)
    assert_structure_equals_oracles(ring)
    table = data.draw(st.sampled_from(["add", "mul"]))
    x, y = (data.draw(st.integers(0, ring.n - 1)) for _ in range(2))
    add, mul = corrupted_tables(ring, table, x, y,
                                data.draw(st.integers(1, ring.n - 1)))
    assert triple_axiom_failure(add, mul, ring.zero, ring.one) is not None
    with pytest.raises(InvariantViolation):
        rebuild(ring, add, mul)


def assert_poset_equals_the_bit_table(ring):
    poset = ring.ideals
    masks, reps, id_of, generators, leq = ideals_by_bit_table(ring)
    assert np.array_equal(poset.masks, masks)
    assert poset.reps.tolist() == reps.tolist()
    assert poset.id_of.tolist() == id_of.tolist()
    assert [g.tolist() for g in poset.generators] == \
        [g.tolist() for g in generators]
    assert np.array_equal(poset.leq, leq)


def assert_f_set_equals_the_per_rep_route(ring):
    for a in ring.phi:
        assert ring.f_set(int(a)).tolist() == \
            f_set_by_rep(ring, int(a)).tolist()


FIXED_RINGS = {
    "Z_1": lambda: zn_ring(1), "Z_360": lambda: zn_ring(360),
    "B2(F3)": lambda: upper_triangular_ring(3),
    "M2(F3)": lambda: matrix_ring(3), "M3(F2)": lambda: matrix_ring(2, 3),
    "Z_4xM2(F2)": lambda: product_ring(zn_ring(4), matrix_ring(2)),
}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ideals_and_f_sets_equal_the_table_routes(data):
    """The orbit-built poset against the n x n bit table, and f_set from
    one column against the per-representative gather."""
    ring = random_ring(data.draw)
    assert_poset_equals_the_bit_table(ring)
    assert_f_set_equals_the_per_rep_route(ring)


@pytest.mark.parametrize("name", sorted(FIXED_RINGS))
def test_ideals_equal_the_bit_table_on_fixed_rings(name):
    assert_poset_equals_the_bit_table(FIXED_RINGS[name]())


@pytest.mark.parametrize("name", sorted(FIXED_RINGS))
def test_f_set_equals_the_per_rep_route_on_fixed_rings(name):
    assert_f_set_equals_the_per_rep_route(FIXED_RINGS[name]())


def test_ideals_certificate_rejects_orbits_of_one_unit_generator():
    """x -> g x for the first of M2(F3)'s two unit generators splits some
    S_a into orbits with the same ideal, which the certificate sees."""
    ring = matrix_ring(3)
    assert len(ring.unit_generators) == 2
    ring.unit_generators = ring.unit_generators[:1]
    with pytest.raises(InvariantViolation, match="same left ideal"):
        ring.ideals


# ---------------------------------------------------------------------
# the opposite ring R^op: the same addition, and x o y = y x
# ---------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.data())
def test_opposite_ring_keeps_units_classes_and_representatives(data):
    """R^op has R's units and inverses, and R's similarity classes with
    the same representatives in the same order, so a class-constant Q
    keeps its class weights there; (R^op)^op has R's tables."""
    ring = random_ring(data.draw)
    op = ring.opposite()
    assert np.array_equal(op.add, ring.add)
    assert np.array_equal(op.mul, ring.mul.T)
    assert op.units.tolist() == ring.units.tolist()
    assert [op.inv(int(u)) for u in op.units] == \
        [ring.inv(int(u)) for u in ring.units]
    part, part_op = ring.similarity, op.similarity
    assert part_op.reps.tolist() == part.reps.tolist()
    assert part_op.class_of.tolist() == part.class_of.tolist()
    assert part_op.invertible.tolist() == part.invertible.tolist()
    assert op.descriptor == {"kind": "opposite", "of": ring.descriptor}
    assert op.element_name(ring.n - 1) == ring.element_name(ring.n - 1)
    back = op.opposite()
    assert np.array_equal(back.add, ring.add)
    assert np.array_equal(back.mul, ring.mul)
    assert (back.zero, back.one) == (ring.zero, ring.one)


@pytest.mark.parametrize("make", [
    lambda: upper_triangular_ring(5),
    lambda: product_ring(zn_ring(6), upper_triangular_ring(3)),
    lambda: matrix_ring(3),
], ids=["B2(F5)", "(Z_6)x(B2(F3))", "M2(F3)"])
def test_verify_suite_passes_on_the_opposite_ring(make):
    """Every check of verify passes on R^op, under uniform Q and under a
    class-constant Q with unequal class weights.  R^op's descriptor kind
    is "opposite", so no closed form keyed on R's kind runs on it: on
    M2(F3)^op, spectrum-gl2 skips and the stationary check has no
    gl2-form."""
    op = make().opposite()
    part = op.similarity
    weights = [Fraction(1 + i % 3) for i in range(len(part))]
    total = sum(w * len(c) for w, c in zip(weights, part.classes))
    for q in (ClassDistribution.uniform(op),
              ClassDistribution(op, [w / total for w in weights])):
        suite = {name: (ok, detail) for name, ok, detail in
                 full_suite(op, q, Fraction(1, 2))}
        assert [name for name, (ok, _) in suite.items() if not ok] == []
        assert suite["spectrum-gl2"][1].startswith("skipped")
        assert "gl2-form" not in suite["stationary-agreement"][1]


def test_zero_ring_has_no_additive_generators():
    ring = zn_ring(1)
    assert ring.additive_generators == ()
    assert ring.unit_generators == ()
    assert_structure_equals_oracles(ring)


@pytest.mark.parametrize("make, size", [
    (lambda: zn_ring(1), 0), (lambda: zn_ring(243), 1),
    (lambda: upper_triangular_ring(5), 3), (lambda: matrix_ring(3), 4),
    (lambda: matrix_ring(5), 4), (lambda: matrix_ring(2, size=3), 9),
    (lambda: product_ring(zn_ring(4), matrix_ring(2)), 5),
], ids=["Z_1", "Z_243", "B2(F5)", "M2(F3)", "M2(F5)", "M3(F2)", "Z_4xM2(F2)"])
def test_additive_generators_reach_every_element(make, size):
    ring = make()
    gens = ring.additive_generators
    assert len(gens) == size
    reached, frontier = {ring.zero}, [ring.zero]
    while frontier:
        frontier = {int(ring.add[x, g]) for x in frontier for g in gens}
        frontier = list(frontier - reached)
        reached.update(frontier)
    assert reached == set(range(ring.n))


def subgroup(add, zero, gens):
    """The elements reached from zero by adding gens, one set at a time."""
    reached, frontier = {zero}, [zero]
    while frontier:
        frontier = {int(add[x, g]) for x in frontier for g in gens}
        frontier = list(frontier - reached)
        reached.update(frontier)
    return reached


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_additive_search_tree_is_a_certificate(data):
    """The tree _validate reads: it reaches every element, y = p(y) + g(y)
    with p(y) reached before y, and o_i = |R_i| / |R_(i-1)| is the order of
    g_i modulo R_(i-1), found by brute force."""
    ring = random_ring(data.draw)
    add, zero = ring.add, ring.zero
    gens, parent, via, sizes = _greedy_generators(add, np.arange(ring.n),
                                                  zero)
    assert gens == ring.additive_generators
    ends = (zero,) + gens
    assert parent[zero] == zero and via[zero] == 0
    for y in range(ring.n):
        assert add[parent[y], ends[via[y]]] == y
        steps = 0
        while y != zero:                  # no cycle: parents come first
            y, steps = parent[y], steps + 1
            assert steps < ring.n
    assert len(sizes) == len(gens) + 1 and sizes[0] == 1
    for i, g in enumerate(gens):
        below = subgroup(add, zero, gens[:i])
        order, x = 1, g
        while x not in below:
            order, x = order + 1, int(add[x, g])
        assert sizes[i + 1] == sizes[i] * order
        assert sizes[i + 1] == len(subgroup(add, zero, gens[:i + 1]))


def z4_near_miss():
    """Z_4 enumerated as the values (0, 2, 1, 3), with one = 1, y 1 = y and,
    for x != 1, y x = 0 for even y and y x = x for odd y.  The search tree
    is 2 = 0 + 2, 1 = 0 + 1, 3 = 2 + 1, and y x = p(y) x + g(y) x holds for
    every x and y; but (1 + 1) 3 = 2 3 = 0 while 1 3 + 1 3 = 2, which only
    the relation o_2 (g_2 x) = (o_2 g_2) x, with g_2 = 1 and o_2 = 2,
    sees."""
    value = np.array([0, 2, 1, 3])
    index = np.argsort(value)

    def times(y, x):
        return y if x == 1 else x * (y % 2)

    add = index[(value[:, None] + value[None, :]) % 4]
    mul = index[[[times(y, x) for x in value] for y in value]]
    return add, mul, int(index[1])


def loop_near_misses():
    """Additions on which the prelude, (b), the tree pass and the
    divisibility of |R_i| all hold, so that only the commutator check of
    (a') rejects them.  On four elements x -> x + 1 is not a permutation;
    the six-element loop (a Latin square with identity 0) has permutation
    columns.  In both, x -> x + 1 and x -> x + 2 do not commute."""
    return {
        "nonpermutation": np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1],
                            [3, 0, 1, 2]]),
        "loop": np.array([[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4],
                                [2, 3, 5, 4, 1, 0], [3, 5, 4, 0, 2, 1],
                                [4, 2, 1, 5, 0, 3], [5, 4, 0, 1, 3, 2]]),
    }


@pytest.mark.parametrize("case", sorted(loop_near_misses()))
def test_tree_pass_needs_the_commutator_check(case):
    add = loop_near_misses()[case]
    n = len(add)
    gens, parent, via, sizes = _greedy_generators(add, np.arange(n), 0)
    ends = np.array((0,) + gens)
    assert np.array_equal(add, add[add[:, parent], ends[via]])
    assert sizes == [1, 2, n]
    mul = np.zeros_like(add)
    mul[1], mul[:, 1] = np.arange(n), np.arange(n)
    assert triple_axiom_failure(add, mul, 0, 1) is not None
    with pytest.raises(InvariantViolation,
                       match="addition is not associative"):
        FiniteRing(add, mul, 0, 1, case, {})


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("entry", ["-1", "n", "2^16 + valid"])
@pytest.mark.parametrize("table, name", [("add", "addition"),
                                         ("mul", "multiplication")])
def test_wide_tables_are_range_checked_before_narrowing(table, name, entry,
                                                        dtype):
    """A table entry outside 0..n-1 is rejected, naming the table, before
    the tables are narrowed to uint16: 2^16 + 3 would wrap to the valid
    entry 3 and pass every axiom."""
    ring = zn_ring(5)
    add, mul = ring.add.astype(dtype), ring.mul.astype(dtype)
    t = add if table == "add" else mul
    t[2, 3] = {"-1": -1, "n": ring.n, "2^16 + valid": 2**16 + t[2, 3]}[entry]
    with pytest.raises(InvariantViolation,
                       match=f"{name} table leaves the ring"):
        FiniteRing(add, mul, ring.zero, ring.one, "wide", {})
    if entry == "2^16 + valid":         # narrowed, the table is Z_5's
        assert np.array_equal(t.astype(np.uint16), getattr(ring, table))


def test_tree_pass_needs_the_power_relations():
    add, mul, one = z4_near_miss()
    gens, parent, via, _ = _greedy_generators(add, np.arange(4), 0)
    ends = np.array((0,) + gens)
    assert np.array_equal(mul, add[mul[parent], mul[ends[via]]])
    assert triple_axiom_failure(add, mul, 0, one) is not None
    with pytest.raises(InvariantViolation,
                       match="right distributivity fails"):
        FiniteRing(add, mul, 0, one, "near-miss", {})


@pytest.mark.parametrize("table", ["add", "mul"])
@pytest.mark.parametrize("make", [lambda: matrix_ring(3),
                                  lambda: upper_triangular_ring(5),
                                  lambda: zn_ring(243),
                                  lambda: matrix_ring(5)],
                         ids=["M2(F3)", "B2(F5)", "Z_243", "M2(F5)"])
def test_single_entry_corruptions_are_rejected(make, table):
    """20 random one-entry changes of either table each raise, on rings up
    to M2(F5) (625 elements)."""
    ring = make()
    rng = np.random.default_rng(ring.n)
    for _ in range(20):
        x, y = rng.integers(ring.n, size=2)
        add, mul = corrupted_tables(ring, table, x, y,
                                    rng.integers(1, ring.n))
        with pytest.raises(InvariantViolation):
            rebuild(ring, add, mul)


def functions_on_z2():
    """All maps Z_2 -> Z_2, f as index 2 f(0) + f(1), added pointwise and
    multiplied by composition, (y x)(t) = y(x(t)).  1 is the identity map.
    (y + g) x = y x + g x holds, but x (y + g) = x y + x g fails for the
    constant maps: a near-ring, not a ring."""
    idx = np.arange(4)
    value = np.stack([idx // 2, idx % 2], axis=1)      # value[f, t] = f(t)
    mul = np.array([[2 * value[y, value[x, 0]] + value[y, value[x, 1]]
                     for x in idx] for y in idx])
    return idx[:, None] ^ idx[None, :], mul


def unital_f2_algebra():
    """F_2^3 on the basis (1, a, b) with a b = 1 and every other product of
    a and b zero, extended bilinearly: distributive, 1 is an identity, and
    (a b) a = a but a (b a) = 0."""
    basis = {(0, 0): 0b100, (0, 1): 0b010, (0, 2): 0b001, (1, 0): 0b010,
             (2, 0): 0b001, (1, 2): 0b100}
    mul = np.zeros((8, 8), dtype=int)
    for x in range(8):
        for y in range(8):
            for i in range(3):
                for j in range(3):
                    if x >> (2 - i) & 1 and y >> (2 - j) & 1:
                        mul[x, y] ^= basis.get((i, j), 0)
    return np.bitwise_xor.outer(np.arange(8), np.arange(8)), mul, 0b100


def s3_addition():
    """The symmetric group S_3 as +, 0 its identity permutation; 1 (a
    transposition) acts as a multiplicative identity and every other
    product is 0."""
    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    index = {p: i for i, p in enumerate(perms)}
    add = np.array([[index[tuple(p[q[t]] for t in range(3))] for q in perms]
                    for p in perms])
    mul = np.zeros((6, 6), dtype=int)
    mul[1], mul[:, 1] = np.arange(6), np.arange(6)
    return add, mul


def one_axiom_broken():
    add3 = np.array([[0, 1, 2], [1, 1, 0], [2, 0, 2]])   # (1+1)+2 != 1+(1+2)
    mul3 = np.zeros((3, 3), dtype=int)
    mul3[1], mul3[:, 1] = np.arange(3), np.arange(3)
    near_add, near_mul = functions_on_z2()
    alg_add, alg_mul, alg_one = unital_f2_algebra()
    mul2 = np.array([[0, 0], [0, 1]])
    return {
        # 1 + 0 = 0: zero is neutral on the left only
        "zero is not neutral": (np.array([[0, 1], [0, 1]]), mul2, 1),
        # ({0, 1}, max, min): 1 has no additive inverse, all else holds
        "some element has no additive inverse": (np.array([[0, 1], [1, 1]]),
                                                 mul2, 1),
        "addition is not associative": (add3, mul3, 1),
        "addition is not commutative": (*s3_addition(), 1),
        "right distributivity fails": (near_add, near_mul.T, 1),
        "left distributivity fails": (near_add, near_mul, 1),
        "multiplication is not associative": (alg_add, alg_mul, alg_one),
    }


@pytest.mark.parametrize("axiom", sorted(one_axiom_broken()))
def test_each_generator_check_names_the_axiom_it_catches(axiom):
    """Near-misses of a ring, each rejected by the check for the first
    axiom it breaks."""
    add, mul, one = one_axiom_broken()[axiom]
    assert triple_axiom_failure(add, mul, 0, one) is not None
    with pytest.raises(InvariantViolation, match=axiom):
        FiniteRing(add, mul, 0, one, "broken", {})
