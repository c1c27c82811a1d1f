"""Table-driven fields GF(p^k) and their multiplicative characters."""

import cmath
import hashlib
from itertools import product

import numpy as np
import pytest

from ringwalk.errors import ElementFieldMismatch, NotPrime, ZeroElement
from ringwalk.fields import (
    char_angle,
    frobenius_twist_index,
    gf,
    primitive_root,
    roots_of_unity,
)


def char_value(field, k, x):
    return roots_of_unity(field.size - 1)[char_angle(field, k, x)]


def mult_order(field, a):
    order = 1
    x = a
    while x != 1:
        x = field.mul[x, a]
        order += 1
    return order


# ---------------------------------------------------------------------
# tables, moduli and generators
# ---------------------------------------------------------------------

# (p, k) -> (sha256 prefix of add.tobytes() + mul.tobytes() as int32,
# modulus, generator), as built by the separate prime-field and
# quadratic-extension classes this module replaced
GOLDEN = {
    (2, 1): ("d4b70e7fcaa87121", (0,), 1),
    (3, 1): ("f75a1d99e548b980", (0,), 2),
    (5, 1): ("2b1d25d4b8f4a0dd", (0,), 2),
    (7, 1): ("0b9f4eb9cba0017c", (0,), 3),
    (11, 1): ("06f20f135f68f070", (0,), 2),
    (13, 1): ("73707ffedc1ff95e", (0,), 2),
    (97, 1): ("c69c2e08553fb005", (0,), 5),
    (2, 2): ("6b6ef8fa873579d5", (1, 1), 2),
    (3, 2): ("6ae8a75aa5c01343", (0, 1), 4),
    (5, 2): ("e68f9fdebaa97e3e", (0, 2), 6),
    (7, 2): ("9c72edfaa2a48377", (0, 1), 9),
    (11, 2): ("5f6c7789c48733bb", (0, 1), 15),
}


@pytest.mark.parametrize("p, k", sorted(GOLDEN))
def test_tables_modulus_and_generator_are_golden(p, k):
    f = gf(p, k)
    assert f.add.dtype == f.mul.dtype == np.int32
    digest = hashlib.sha256(f.add.tobytes() + f.mul.tobytes()).hexdigest()
    assert (digest[:16], f.modulus, f.generator) == GOLDEN[(p, k)]
    assert type(f.generator) is int


def test_tables_are_read_only_and_shared():
    f = gf(3, 2)
    assert gf(3, 2) is f
    with pytest.raises(ValueError):
        f.mul[1, 1] = 0


def irreducible(p, coeffs):
    """t^k + c_{k-1} t^(k-1) + ... + c0 has no factor of degree 1 .. k/2,
    by trial division over all monic polynomials of those degrees."""
    k = len(coeffs)
    f = [1] + list(coeffs)                 # highest coefficient first
    for d in range(1, k // 2 + 1):
        for tail in product(range(p), repeat=d):
            rem = list(f)
            g = [1] + list(tail)
            for i in range(len(rem) - d):
                c = rem[i]
                for j in range(d + 1):
                    rem[i + j] = (rem[i + j] - c * g[j]) % p
            if not any(rem):
                return False
    return True


@pytest.mark.parametrize("p, k, modulus", [
    (2, 3, (0, 1, 1)),              # t^3 + t + 1
    (3, 3, (0, 2, 1)),
    (2, 4, (0, 0, 1, 1)),
    (5, 2, (0, 2)),
])
def test_modulus_is_least_monic_irreducible(p, k, modulus):
    candidates = sorted(product(range(p), repeat=k))
    assert next(c for c in candidates if irreducible(p, c)) == modulus
    assert gf(p, k).modulus == modulus


@pytest.mark.parametrize("p, k", [(2, 3), (3, 3)])
def test_field_axioms_from_tables(p, k):
    f = gf(p, k)
    n = f.size
    add, mul = f.add.astype(np.int64), f.mul.astype(np.int64)
    idx = np.arange(n)
    for t in (add, mul):
        assert np.array_equal(t, t.T)
        # t[t[a, b], c] == t[a, t[b, c]] for all a, b, c
        assert np.array_equal(t[t[:, :, None], idx],
                              t[idx[:, None, None], t[None]])
    assert np.array_equal(add[0], idx) and np.array_equal(mul[1], idx)
    assert not mul[0].any()
    assert ((add == 0).sum(axis=1) == 1).all()
    assert ((mul[1:, 1:] == 1).sum(axis=1) == 1).all()
    # a (b + c) == a b + a c
    assert np.array_equal(mul[idx[:, None, None], add[None]],
                          add[mul[:, :, None], mul[:, None, :]])
    # characteristic p: p copies of any a sum to 0
    acc = np.zeros(n, dtype=np.int64)
    for _ in range(p):
        acc = add[acc, idx]
    assert not acc.any()


# ---------------------------------------------------------------------
# prime fields
# ---------------------------------------------------------------------

def test_field_two_has_trivial_group():
    f = gf(2)
    assert f.generator == 1
    assert f.size - 1 == 1


def test_field_five_primitive_root_is_two():
    f = gf(5)
    assert f.generator == 2
    # brute force: 2 must have multiplicative order exactly 4
    assert mult_order(f, 2) == 4
    assert sorted(pow(2, k, 5) for k in range(4)) == [1, 2, 3, 4]


def test_nine_is_rejected():
    with pytest.raises(NotPrime):
        gf(9)
    with pytest.raises(NotPrime):
        gf(9, 2)


def test_primitive_root_has_full_order_everywhere():
    for p in (3, 5, 7, 11, 13, 97):
        f = gf(p)
        assert mult_order(f, f.generator) == p - 1


def test_field_arithmetic_axioms_small():
    f = gf(7)
    for a in range(f.size):
        for b in range(f.size):
            assert f.add[a, b] == (a + b) % 7
            assert f.mul[a, b] == (a * b) % 7
            if b:
                assert f.mul[b, pow(b, -1, 7)] == 1


def brute_force_primitive_root(p):
    return next(g for g in range(1, p)
                if len({pow(g, j, p) for j in range(p - 1)}) == p - 1)


@pytest.mark.parametrize("p, root", [(89, 3), (673, 5), (2593, 7),
                                     (15121, 11)])
def test_primitive_root_mod_gl2_primes(p, root):
    assert primitive_root(p) == brute_force_primitive_root(p) == root


def test_primitive_root_matches_field_generator():
    for p in (2, 3, 5, 7, 11, 13, 97):
        assert primitive_root(p) == gf(p).generator


# ---------------------------------------------------------------------
# quadratic extensions
# ---------------------------------------------------------------------

def irreducible_quadratics(p):
    return [(b, c) for b in range(p) for c in range(p)
            if all((x * x + b * x + c) % p for x in range(p))]


def test_extension_modulus_f2():
    # x^2 + x + 1 is the only irreducible quadratic over GF(2)
    assert irreducible_quadratics(2) == [(1, 1)]
    assert gf(2, 2).modulus == (1, 1)


def test_extension_modulus_f3():
    # -1 is a non-residue mod 3, so x^2 + 1 is irreducible and lex-least
    assert pow(2, 1, 3) != 1 and all(x * x % 3 != 2 for x in range(3))
    assert min(irreducible_quadratics(3)) == (0, 1)
    assert gf(3, 2).modulus == (0, 1)


def test_extension_frobenius_fixed_field():
    e = gf(5, 2)
    assert e.size == 25
    fixed = [a for a in range(e.size) if e.frobenius(a) == a]
    assert sorted(fixed) == list(range(5))   # exactly the base field


def test_prime_subfield_is_the_first_p_indices():
    for p in (2, 3, 5):
        e, f = gf(p, 2), gf(p)
        assert np.array_equal(e.add[:p, :p], f.add)
        assert np.array_equal(e.mul[:p, :p], f.mul)


def test_frobenius_is_involution_and_power_of_generator():
    e = gf(3, 2)
    g = e.generator
    assert e.frobenius(g) == e.mul[e.mul[g, g], g]
    for a in range(e.size):
        assert e.frobenius(e.frobenius(a)) == a


def test_frobenius_has_order_k():
    e = gf(2, 3)
    for a in range(e.size):
        assert e.frobenius(e.frobenius(e.frobenius(a))) == a
    assert sum(e.frobenius(a) == a for a in range(e.size)) == 2


def test_frobenius_is_ring_homomorphism():
    for p in (2, 3, 5):
        e = gf(p, 2)
        frob = np.array([e.frobenius(a) for a in range(e.size)])
        assert np.array_equal(frob[e.add], e.add[frob[:, None], frob[None]])
        assert np.array_equal(frob[e.mul], e.mul[frob[:, None], frob[None]])


def test_frobenius_rejects_foreign_elements():
    e = gf(3, 2)
    with pytest.raises(ElementFieldMismatch):
        e.frobenius(81)
    with pytest.raises(ElementFieldMismatch):
        e.frobenius(-1)


def test_norm_on_base_field_is_square():
    e = gf(3, 2)
    for a in range(1, 3):
        assert e.norm(a) == (a * a) % 3


def test_norm_fibers_have_size_q_plus_one():
    e = gf(3, 2)
    fibers = {}
    for a in range(1, e.size):
        fibers.setdefault(e.norm(a), []).append(a)
    assert sorted(fibers) == [1, 2]          # surjective onto base units
    assert all(len(v) == 4 for v in fibers.values())


def test_norm_is_product_of_conjugates():
    for p, k in ((3, 2), (5, 2), (2, 3), (3, 3)):
        e = gf(p, k)
        for a in range(1, e.size):
            prod, x = 1, a
            for _ in range(k):
                prod = e.mul[prod, x]
                x = e.frobenius(x)
            assert e.norm(a) == prod < p


def test_norm_of_primitive_root_is_primitive():
    e = gf(3, 2)
    n = e.norm(e.generator)
    assert mult_order(gf(3), n) == 2


def test_norm_of_zero_raises():
    e = gf(3, 2)
    with pytest.raises(ZeroElement):
        e.norm(0)


def test_logs_invert_generator_powers():
    for p, k in ((7, 1), (3, 2), (2, 3)):
        f = gf(p, k)
        x = 1
        for j in range(f.size - 1):
            assert f.exp[j] == x and f.dlog[x] == j
            x = f.mul[x, f.generator]
        assert x == 1 and f.dlog[0] == -1


# ---------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------

def test_trivial_character():
    f = gf(5)
    assert all(char_angle(f, 0, x) == 0 for x in range(1, 5))
    assert all(char_value(f, 0, x) == 1 for x in range(1, 5))


def test_character_index_two_on_two():
    f = gf(5)
    # 2 is the generator, so chi_2(2) = exp(2 pi i * 2/4) = -1
    assert char_value(f, 2, 2) == -1


def test_character_sum_vanishes_for_nontrivial():
    f = gf(5)
    assert abs(sum(char_value(f, 1, x) for x in range(1, 5))) < 1e-12


def test_character_of_zero_raises():
    with pytest.raises(ZeroElement):
        char_angle(gf(5), 1, 0)


def test_character_orthogonality_up_to_48():
    for field in (gf(5), gf(7), gf(13), gf(5, 2), gf(7, 2), gf(2, 3)):
        m = field.size - 1
        if m > 48:
            continue
        units = range(1, field.size)
        for j in range(m):
            for k in range(m):
                s = sum(char_value(field, j, x) *
                        char_value(field, k, x).conjugate() for x in units)
                expected = m if j == k else 0
                assert abs(s - expected) < 1e-9


def test_character_angles_are_exact():
    e = gf(3, 2)
    g = e.generator
    angle = char_angle(e, 3, g)
    assert type(angle) is int and angle == 3      # 3/8 of a turn
    val = char_value(e, 3, g)
    assert abs(val - cmath.exp(2j * cmath.pi * 3 / 8)) < 1e-15


def test_roots_of_unity_are_exact_at_right_angles_and_conjugate():
    r = roots_of_unity(8)
    assert [r[0], r[2], r[4], r[6]] == [1, 1j, -1, -1j]
    assert all(r[8 - a] == r[a].conjugate() for a in range(1, 8))


# ---------------------------------------------------------------------
# decomposability
# ---------------------------------------------------------------------

def test_trivial_character_is_decomposable():
    e = gf(3, 2)
    assert frobenius_twist_index(e, 0) == 0


def test_decomposability_matches_pointwise_definition():
    e = gf(3, 2)
    for k in range(8):
        pointwise = all(char_angle(e, k, e.frobenius(x)) == char_angle(e, k, x)
                        for x in range(1, e.size))
        assert (frobenius_twist_index(e, k) == k) == pointwise


def test_nondecomposable_count_is_q_squared_minus_q():
    for p in (3, 5):
        e = gf(p, 2)
        count = sum(frobenius_twist_index(e, k) != k
                    for k in range(e.size - 1))
        assert count == p * p - p


def test_index_four_over_f9_is_decomposable():
    e = gf(3, 2)
    assert (4 * 3) % 8 == 4
    assert frobenius_twist_index(e, 4) == 4
