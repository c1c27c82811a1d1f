"""Prime fields, quadratic extensions, and multiplicative characters."""

import cmath
from fractions import Fraction

import pytest

from ringwalk.errors import ElementFieldMismatch, NotPrime, ZeroElement
from ringwalk.fields import (
    angle_to_complex,
    char_angle,
    ext_make,
    field_make,
    frobenius_twist_index,
)


def char_value(field, k, x):
    return angle_to_complex(char_angle(field, k, x))


def mult_order(field, a):
    order = 1
    x = a
    while x != field.one:
        x = field.mul(x, a)
        order += 1
    return order


# ---------------------------------------------------------------------
# prime fields
# ---------------------------------------------------------------------

def test_field_two_has_trivial_group():
    f = field_make(2)
    assert f.generator == 1
    assert f.size - 1 == 1


def test_field_five_primitive_root_is_two():
    f = field_make(5)
    assert f.generator == 2
    # brute force: 2 must have multiplicative order exactly 4
    assert mult_order(f, 2) == 4
    assert sorted(pow(2, k, 5) for k in range(4)) == [1, 2, 3, 4]


def test_nine_is_rejected():
    with pytest.raises(NotPrime):
        field_make(9)


def test_primitive_root_has_full_order_everywhere():
    for p in (3, 5, 7, 11, 13, 97):
        f = field_make(p)
        assert mult_order(f, f.generator) == p - 1


def test_field_arithmetic_axioms_small():
    f = field_make(7)
    for a in range(f.size):
        for b in range(f.size):
            assert f.add(a, b) == (a + b) % 7
            assert f.mul(a, b) == (a * b) % 7
            if b:
                assert f.mul(b, f.inv(b)) == 1


# ---------------------------------------------------------------------
# quadratic extensions
# ---------------------------------------------------------------------

def irreducible_quadratics(p):
    return [(b, c) for b in range(p) for c in range(p)
            if all((x * x + b * x + c) % p for x in range(p))]


def test_extension_modulus_f2():
    # x^2 + x + 1 is the only irreducible quadratic over GF(2)
    assert irreducible_quadratics(2) == [(1, 1)]
    assert ext_make(field_make(2)).modulus == (1, 1)


def test_extension_modulus_f3():
    # -1 is a non-residue mod 3, so x^2 + 1 is irreducible and lex-least
    assert pow(2, 1, 3) != 1 and all(x * x % 3 != 2 for x in range(3))
    assert min(irreducible_quadratics(3)) == (0, 1)
    assert ext_make(field_make(3)).modulus == (0, 1)


def test_extension_frobenius_fixed_field():
    e = ext_make(field_make(5))
    assert e.size == 25
    fixed = [a for a in e.elements() if e.frobenius(a) == a]
    assert sorted(fixed) == list(range(5))   # exactly the base field


def test_frobenius_is_involution_and_power_of_generator():
    e = ext_make(field_make(3))
    g = e.generator
    assert e.frobenius(g) == e.pow(g, 3)
    for a in e.elements():
        assert e.frobenius(e.frobenius(a)) == a


def test_frobenius_is_ring_homomorphism():
    for p in (2, 3, 5):
        e = ext_make(field_make(p))
        for a in e.elements():
            for b in e.elements():
                assert e.frobenius(e.add(a, b)) == \
                    e.add(e.frobenius(a), e.frobenius(b))
                assert e.frobenius(e.mul(a, b)) == \
                    e.mul(e.frobenius(a), e.frobenius(b))


def test_frobenius_rejects_foreign_elements():
    e = ext_make(field_make(3))
    with pytest.raises(ElementFieldMismatch):
        e.frobenius(81)


def test_norm_on_base_field_is_square():
    e = ext_make(field_make(3))
    for a in range(1, 3):
        assert e.norm(e.embed(a)) == (a * a) % 3


def test_norm_fibers_have_size_q_plus_one():
    e = ext_make(field_make(3))
    fibers = {}
    for a in e.elements():
        if a == 0:
            continue
        fibers.setdefault(e.norm(a), []).append(a)
    assert sorted(fibers) == [1, 2]          # surjective onto base units
    assert all(len(v) == 4 for v in fibers.values())


def test_norm_of_primitive_root_is_primitive():
    e = ext_make(field_make(3))
    base = field_make(3)
    n = e.norm(e.generator)
    assert mult_order(base, n) == 2


def test_norm_of_zero_raises():
    e = ext_make(field_make(3))
    with pytest.raises(ZeroElement):
        e.norm(0)


# ---------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------

def test_trivial_character():
    f = field_make(5)
    assert all(char_angle(f, 0, x) == 0 for x in range(1, 5))
    assert all(char_value(f, 0, x) == 1 for x in range(1, 5))


def test_character_index_two_on_two():
    f = field_make(5)
    # 2 is the generator, so chi_2(2) = exp(2 pi i * 2/4) = -1
    assert char_value(f, 2, 2) == -1


def test_character_sum_vanishes_for_nontrivial():
    f = field_make(5)
    assert abs(sum(char_value(f, 1, x) for x in range(1, 5))) < 1e-12


def test_character_orthogonality_up_to_48():
    for field in (field_make(5), field_make(7), field_make(13),
                  ext_make(field_make(5)), ext_make(field_make(7))):
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
    e = ext_make(field_make(3))
    g = e.generator
    assert char_angle(e, 3, g) == Fraction(3, 8)
    val = char_value(e, 3, g)
    assert abs(val - cmath.exp(2j * cmath.pi * 3 / 8)) < 1e-15


# ---------------------------------------------------------------------
# decomposability
# ---------------------------------------------------------------------

def test_trivial_character_is_decomposable():
    e = ext_make(field_make(3))
    assert frobenius_twist_index(e, 0) == 0


def test_decomposability_matches_pointwise_definition():
    e = ext_make(field_make(3))
    for k in range(8):
        pointwise = all(char_angle(e, k, e.frobenius(x)) == char_angle(e, k, x)
                        for x in e.elements() if x != 0)
        assert (frobenius_twist_index(e, k) == k) == pointwise


def test_nondecomposable_count_is_q_squared_minus_q():
    for p in (3, 5):
        e = ext_make(field_make(p))
        count = sum(frobenius_twist_index(e, k) != k
                    for k in range(e.size - 1))
        assert count == p * p - p


def test_index_four_over_f9_is_decomposable():
    e = ext_make(field_make(3))
    assert (4 * 3) % 8 == 4
    assert frobenius_twist_index(e, 4) == 4
