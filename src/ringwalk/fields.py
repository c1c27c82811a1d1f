"""Finite fields GF(p^k) as lookup tables, and multiplicative characters.

An element is a plain integer index: a0 + a1*p + ... + a_{k-1}*p^(k-1)
stands for a0 + a1*t + ... + a_{k-1}*t^(k-1) in F_p[t]/(f), with f the
least monic irreducible polynomial of degree k, ordered lexicographically
on its coefficients (c_{k-1}, ..., c0).  For k = 1 that is f = t and the
index is the residue; for k = 2 it is t^2 + b*t + c with the least (b, c).
The indices below p are the prime subfield, so GF(p) sits inside GF(p^k)
as itself.

Like a FiniteRing, a field is a pair of read-only n x n index tables, add
and mul (int32 here, uint16 in a FiniteRing), and every operation is a
lookup.  gf(p, k) builds each field once and shares it; it is immutable
and safe to share between threads.  Table lookups are numpy integers:
convert them with int() before they reach a label.

A character value is an exact angle, an integer a over m = |F| - 1 for
exp(2 pi i a / m); roots_of_unity makes it a complex float only at
linear-algebra boundaries, so orthogonality sums do not round early.
"""

from __future__ import annotations

import cmath
from functools import lru_cache

import numpy as np

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


def primitive_root(p: int) -> int:
    """Least primitive root mod the prime p: the least g with
    g^((p - 1)/r) != 1 (mod p) for every prime r dividing p - 1."""
    m, rest, primes = p - 1, p - 1, []
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            primes.append(d)
            while rest % d == 0:
                rest //= d
        d += 1
    if rest > 1:
        primes.append(rest)
    return next(g for g in range(1, p)
                if all(pow(g, m // r, p) != 1 for r in primes))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _powers(mul, g: int) -> list:
    """[1, g, g^2, ...], each power of g up to the first that is 1 again."""
    out = [1]
    x = int(mul[1, g])
    while x != 1:
        out.append(x)
        x = int(mul[x, g])
    return out


class GF:
    """GF(p^k): int32 add and mul tables over the indices 0 .. p^k - 1,
    the modulus (c_{k-1}, ..., c0), the least generator of the unit group,
    exp[j] = generator^j and its inverse dlog (dlog[0] = -1)."""

    def __init__(self, p: int, k: int = 1):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p, self.k, self.size = p, k, p ** k
        weights = p ** np.arange(k)
        digits = np.arange(self.size)[:, None] // weights % p
        # a candidate modulus t^k + c_{k-1} t^(k-1) + ... + c0 has the
        # digits c of its code; F_p[t]/(f) is a field iff it has no zero
        # divisors, read off its own product table
        for c in digits:
            times_t = np.eye(k, k, -1, dtype=np.int64)
            times_t[:, -1] = -c % p
            basis = [digits]                    # digits of t^i * b, every b
            for _ in range(k - 1):
                basis.append(basis[-1] @ times_t.T % p)
            mul = np.einsum("ai,ibj->abj", digits, np.array(basis)) % p \
                @ weights
            if (mul[1:, 1:] != 0).all():
                break
        else:
            raise InvariantViolation(f"no irreducible polynomial of degree "
                                     f"{k} over F_{p}")
        self.modulus = tuple(int(x) for x in c[::-1])
        self.add = _read_only(((digits[:, None] + digits[None]) % p
                               @ weights).astype(np.int32))
        self.mul = _read_only(mul.astype(np.int32))
        for g in range(1, self.size):
            exp = _powers(self.mul, g)
            if len(exp) == self.size - 1:
                break
        self.generator = g
        self.exp = _read_only(np.array(exp, dtype=np.int64))
        dlog = np.full(self.size, -1, dtype=np.int64)
        dlog[self.exp] = np.arange(self.size - 1)
        self.dlog = _read_only(dlog)

    def check(self, a: int) -> None:
        if not 0 <= a < self.size:
            raise ElementFieldMismatch(f"{a} not an element of {self!r}")

    def power(self, a: int, e: int) -> int:
        """a^e for e >= 1."""
        self.check(a)
        if a == 0:
            return 0
        return int(self.exp[e * int(self.dlog[a]) % (self.size - 1)])

    def frobenius(self, a: int) -> int:
        """a -> a^p, the automorphism of order k fixing the prime field."""
        return self.power(a, self.p)

    def norm(self, a: int) -> int:
        """a^((p^k - 1)/(p - 1)), the product of a's conjugates: a unit of
        the prime field."""
        if a == 0:
            raise ZeroElement("norm is defined on the multiplicative group")
        n = self.power(a, (self.size - 1) // (self.p - 1))
        if n >= self.p:
            raise InvariantViolation(f"norm of {a} is {n}, outside the "
                                     f"prime field")
        return n

    def __repr__(self):
        return f"GF({self.p}^{self.k})"


@lru_cache(maxsize=None)
def gf(p: int, k: int = 1) -> GF:
    return GF(p, k)


def char_angle(field: GF, k: int, x: int) -> int:
    """Angle of the multiplicative character of index k at the unit x, as
    an integer numerator over m = |F| - 1: with g the field's generator,
    g^j goes to k*j mod m.  Index 0 is the trivial character."""
    if x == 0:
        raise ZeroElement("0 is not in the multiplicative group")
    m = field.size - 1
    return k * int(field.dlog[x]) % m


def roots_of_unity(m: int) -> np.ndarray:
    """exp(2 pi i a / m) for a = 0 .. m - 1, a complex array, exact at the
    rational right angles.

    Entry m - a is the exact conjugate of entry a, so a fixed-order sum over
    negated angles is the exact conjugate of the sum over the angles."""
    out = np.empty(m, dtype=np.complex128)
    for a in range(m):
        if 2 * a > m:
            out[a] = out[m - a].conjugate()
        elif a == 0:
            out[a] = complex(1, 0)
        elif 2 * a == m:
            out[a] = complex(-1, 0)
        elif 4 * a == m:
            out[a] = complex(0, 1)
        else:
            out[a] = cmath.exp(2j * cmath.pi * (a / m))
    return out


def frobenius_twist_index(ext: GF, k: int) -> int:
    return (k * ext.p) % (ext.size - 1)
