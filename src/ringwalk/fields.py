"""Prime fields, their quadratic extensions, and multiplicative characters.

Elements are plain integer indices.  For a prime field GF(p) the index is the
residue itself.  For a quadratic extension GF(p^2) with modulus t^2 + b*t + c
the element a0 + a1*t has index a0 + p*a1.  Both field types are immutable
after construction and safe to share between threads.

Character values are kept as exact angles (fractions of a full turn) and only
materialized to complex floats at linear-algebra boundaries, so orthogonality
sums do not accumulate premature rounding.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache

from .errors import (
    ElementFieldMismatch,
    InvariantViolation,
    NotPrime,
    ZeroElement,
)


def is_prime(n: int) -> bool:
    """Trial division; fine at desk scale (p <= 100 in practice)."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _multiplicative_order(field, a: int) -> int:
    order = 1
    x = a
    while x != field.one:
        x = field.mul(x, a)
        order += 1
    return order


def _least_primitive_root(field) -> int:
    """Least element of full multiplicative order; deterministic across runs."""
    m = field.size - 1
    if m == 1:
        return field.one
    for a in range(1, field.size):
        if a == field.zero:
            continue
        if _multiplicative_order(field, a) == m:
            return a
    raise AssertionError("multiplicative group of a finite field is cyclic")


class PrimeField:
    """GF(p) for prime p, with a cached least primitive root."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p
        self.size = p
        self.zero = 0
        self.one = 1 % p
        self.generator = _least_primitive_root(self)
        self._dlog = self._build_dlog()

    def _build_dlog(self) -> dict:
        table = {}
        x = self.one
        for j in range(self.size - 1):
            table[x] = j
            x = self.mul(x, self.generator)
        return table

    def check(self, a: int) -> None:
        if not (0 <= a < self.size):
            raise ElementFieldMismatch(f"{a} not an element of GF({self.size})")

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroElement("0 has no inverse")
        return pow(a, self.p - 2, self.p)

    def dlog(self, a: int) -> int:
        """Discrete log base the cached primitive root."""
        if a == 0:
            raise ZeroElement("0 is not in the multiplicative group")
        return self._dlog[a]

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


def _least_irreducible_quadratic(base: PrimeField):
    """Lexicographically least (b, c) with t^2 + b*t + c irreducible over base.

    A monic quadratic over a field is irreducible iff it has no root, which
    is an exhaustive check at this scale.
    """
    p = base.p
    for b in range(p):
        for c in range(p):
            if all((x * x + b * x + c) % p != 0 for x in range(p)):
                return b, c
    raise AssertionError("every prime field has an irreducible quadratic")


class QuadraticExtension:
    """GF(p^2) over a prime field, modulus chosen deterministically."""

    def __init__(self, base: PrimeField):
        self.base = base
        self.p = base.p
        self.size = base.p ** 2
        self.modulus = _least_irreducible_quadratic(base)  # (b, c)
        self.zero = 0
        self.one = 1
        self.generator = _least_primitive_root(self)
        self._dlog = self._build_dlog()

    def _build_dlog(self) -> dict:
        table = {}
        x = self.one
        for j in range(self.size - 1):
            table[x] = j
            x = self.mul(x, self.generator)
        return table

    def elements(self):
        return range(self.size)

    def check(self, a: int) -> None:
        if not (0 <= a < self.size):
            raise ElementFieldMismatch(f"{a} not an element of GF({self.size})")

    def coords(self, a: int) -> tuple:
        return (a % self.p, a // self.p)

    def element(self, a0: int, a1: int) -> int:
        return (a0 % self.p) + self.p * (a1 % self.p)

    def embed(self, a: int) -> int:
        """Image of a base-field element under GF(p) -> GF(p^2)."""
        self.base.check(a)
        return a

    def in_base(self, a: int) -> bool:
        return a // self.p == 0

    def add(self, a: int, b: int) -> int:
        a0, a1 = self.coords(a)
        b0, b1 = self.coords(b)
        return self.element(a0 + b0, a1 + b1)

    def mul(self, a: int, b: int) -> int:
        # (a0 + a1 t)(b0 + b1 t) with t^2 = -(b t + c)
        p = self.p
        mb, mc = self.modulus
        a0, a1 = self.coords(a)
        b0, b1 = self.coords(b)
        hi = a1 * b1
        c0 = (a0 * b0 - hi * mc) % p
        c1 = (a0 * b1 + a1 * b0 - hi * mb) % p
        return self.element(c0, c1)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = self.one
        acc = a
        while e:
            if e & 1:
                result = self.mul(result, acc)
            acc = self.mul(acc, acc)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroElement("0 has no inverse")
        return self.pow(a, self.size - 2)

    def dlog(self, a: int) -> int:
        if a == 0:
            raise ZeroElement("0 is not in the multiplicative group")
        return self._dlog[a]

    def frobenius(self, a: int) -> int:
        """a -> a^p; order-two automorphism fixing exactly the base field."""
        self.check(a)
        return self.pow(a, self.p)

    def norm(self, a: int) -> int:
        """a * frobenius(a), landing in the base field."""
        if a == 0:
            raise ZeroElement("norm is defined on the multiplicative group")
        n = self.mul(a, self.frobenius(a))
        n0, n1 = self.coords(n)
        if n1 != 0:
            raise InvariantViolation(f"norm of {a} is {n} = ({n0}, {n1}), "
                                     f"outside the base field")
        return n0

    def sqrt(self, a: int):
        """Any square root of a in GF(p^2), or None if a is not a square."""
        if a == 0:
            return 0
        j = self.dlog(a)
        if j % 2:
            return None
        return self.pow(self.generator, j // 2)

    def __repr__(self):
        b, c = self.modulus
        return f"GF({self.p}^2; t^2+{b}t+{c})"

    def __eq__(self, other):
        return isinstance(other, QuadraticExtension) and other.p == self.p

    def __hash__(self):
        return hash(("QuadraticExtension", self.p))


@lru_cache(maxsize=None)
def field_make(p: int) -> PrimeField:
    return PrimeField(p)


@lru_cache(maxsize=None)
def ext_make_cached(p: int) -> QuadraticExtension:
    return QuadraticExtension(field_make(p))


def ext_make(base: PrimeField) -> QuadraticExtension:
    return ext_make_cached(base.p)


def char_angle(field, k: int, x: int) -> Fraction:
    """Angle, as an exact fraction of a full turn, of the multiplicative
    character of index k at the unit x: with g the field's cached primitive
    root and m = |F| - 1, g^j goes to k*j/m mod 1.  Index 0 is the trivial
    character."""
    m = field.size - 1
    return Fraction((k * field.dlog(x)) % m, m)


def angle_to_complex(theta: Fraction) -> complex:
    """exp(2*pi*i*theta) with exact handling of the rational right angles.

    theta and -theta map to exact complex conjugates, so a fixed-order sum
    over negated angles is the exact conjugate of the sum over the
    angles."""
    theta = theta % 1
    if theta > Fraction(1, 2):
        return angle_to_complex(1 - theta).conjugate()
    if theta == 0:
        return complex(1, 0)
    if theta == Fraction(1, 2):
        return complex(-1, 0)
    if theta == Fraction(1, 4):
        return complex(0, 1)
    if theta == Fraction(3, 4):
        return complex(0, -1)
    return cmath.exp(2j * cmath.pi * float(theta))


def frobenius_twist_index(ext: QuadraticExtension, k: int) -> int:
    return (k * ext.p) % (ext.size - 1)
