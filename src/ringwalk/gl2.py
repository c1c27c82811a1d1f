"""Conjugacy classes and the character table of GL2(F_q).

Covers odd primes q.  Class and representation families:

    classes: central diag(x,x); non-semisimple [[x,1],[0,x]]; split
    diag(x,y) with {x,y} unordered; anisotropic with eigenvalue pair
    {alpha, alpha^q} in the quadratic extension.  Sizes 1, q^2-1, q^2+q,
    q^2-q are derived from centralizer orders and cross-checked against
    ring-level orbit sizes in the test suite.

    irreducibles: one-dimensional det twists; q-dimensional Steinberg
    twists; (q+1)-dimensional principal series for unordered character
    pairs; (q-1)-dimensional cuspidals for Frobenius-orbits of
    non-decomposable extension characters.

F_q and F_{q^2} are the tables gf(q) and gf(q, 2); an element of F_q is
the same index, below q, in both.  The character table is built once,
exactly (char_terms), and read in complex floats, orthogonal to rounding
error, or in F_p (CharacterTable.values and CharacterTable.image).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvariantViolation, UnknownCase, UnsupportedQ
from .fields import (
    char_angle,
    frobenius_twist_index,
    gf,
    is_prime,
    roots_of_unity,
)


CLASS_KINDS = ("central", "unipotent", "split", "anisotropic")


@dataclass(frozen=True)
class ConjClass:
    kind: str        # one of CLASS_KINDS
    params: tuple    # (x,) | (x,) | (x, y) with x < y | (alpha_index,)
    size: int
    rep: tuple       # 2x2 matrix entries (a, b, c, d) over F_q


@dataclass(frozen=True)
class Irrep:
    kind: str        # det | steinberg | principal | cuspidal
    params: tuple    # (k,) | (k,) | (k1, k2) with k1 < k2 | (nu_index,)
    dim: int

    def label(self) -> str:
        return f"{self.kind}{self.params}"


def _require_odd_prime(q: int):
    if not is_prime(q) or q == 2:
        raise UnsupportedQ(
            f"closed-form GL2 layer needs an odd prime, got {q}")


def conj_classes(q: int):
    """All conjugacy classes of GL2(F_q) with sizes from centralizer orders."""
    _require_odd_prime(q)
    ext = gf(q, 2)
    g = (q * q - 1) * (q * q - q)
    classes = []
    for x in range(1, q):
        classes.append(ConjClass("central", (x,), 1, (x, 0, 0, x)))
    for x in range(1, q):
        # centralizer {aI + bN, a != 0} of order q(q-1)
        classes.append(ConjClass("unipotent", (x,), g // (q * (q - 1)),
                                 (x, 1, 0, x)))
    for x in range(1, q):
        for y in range(x + 1, q):
            # centralizer = split torus of order (q-1)^2
            classes.append(ConjClass("split", (x, y), g // ((q - 1) ** 2),
                                     (x, 0, 0, y)))
    seen = set()
    for a in range(q, ext.size):        # the elements outside F_q
        key = min(a, ext.frobenius(a))
        if key in seen:
            continue
        seen.add(key)
        t = int(ext.add[key, ext.frobenius(key)])
        if t >= q:
            raise InvariantViolation(f"trace of {key} is {t}, outside "
                                     f"the base field F_{q}")
        nm = ext.norm(key)
        # companion matrix of t^2 - (trace) t + (norm); centralizer is the
        # non-split torus of order q^2 - 1
        classes.append(ConjClass("anisotropic", (key,), g // (q * q - 1),
                                 (0, (-nm) % q, 1, t)))
    total = sum(c.size for c in classes)
    if total != g:
        raise InvariantViolation(f"GL2(F_{q}): class sizes sum to {total}, "
                                 f"not |G| = {g}")
    return classes


def irreps(q: int):
    _require_odd_prime(q)
    m = q - 1
    m2 = q * q - 1
    ext = gf(q, 2)
    reps = []
    for k in range(m):
        reps.append(Irrep("det", (k,), 1))
    for k in range(m):
        reps.append(Irrep("steinberg", (k,), q))
    for k1 in range(m):
        for k2 in range(k1 + 1, m):
            reps.append(Irrep("principal", (k1, k2), q + 1))
    seen = set()
    for k in range(m2):
        kf = frobenius_twist_index(ext, k)
        if kf == k:      # decomposable: not a cuspidal parameter
            continue
        key = min(k, kf)
        if key in seen:
            continue
        seen.add(key)
        reps.append(Irrep("cuspidal", (key,), q - 1))
    total = sum(r.dim ** 2 for r in reps)
    if total != (q * q - 1) * (q * q - q):
        raise InvariantViolation(f"GL2(F_{q}): irrep dimensions squared sum "
                                 f"to {total}, not |G|")
    return reps


def char_terms(q: int, rep: Irrep, cls: ConjClass) -> tuple:
    """Single character-table entry (Fulton & Harris 5.2) as exact integer
    terms ((c0, a0), (c1, a1)): c0 zeta^a0 + c1 zeta^a1, zeta a primitive
    m-th root of unity, m = q^2 - 1, 0 <= a < m.  A term with c = 0 is
    absent; two present terms share one coefficient, 1 or -1.

    c depends on the irrep and class kinds alone.  A term's root is the
    irrep's character at the class's eigenvalues (e1, e2), (x, y) or
    (alpha, alpha^q): alpha(e1 e2) for a det or Steinberg twist,
    alpha(e1) beta(e2) for a principal series and nu(e1) for a cuspidal,
    these two summed over both orders of distinct eigenvalues."""
    F, ext = gf(q), gf(q, 2)
    m = ext.size - 1
    coefs = {            # central, unipotent, split, anisotropic
        "det": (1, 1, 1, 1),
        "steinberg": (q, 0, 1, -1),
        "principal": (q + 1, 1, 1, 0),
        "cuspidal": (q - 1, -1, 0, -1),
    }
    if rep.kind not in coefs:
        raise UnknownCase(f"unknown irrep kind {rep.kind}")
    c = coefs[rep.kind][CLASS_KINDS.index(cls.kind)]
    x = cls.params[0]
    y = ext.frobenius(x) if cls.kind == "anisotropic" else cls.params[-1]

    def angle(e1, e2):      # over m; an angle over q - 1 is q + 1 times it
        if rep.kind == "cuspidal":
            return char_angle(ext, rep.params[0], e1)
        if rep.kind == "principal":
            k1, k2 = rep.params
            return (char_angle(F, k1, e1) + char_angle(F, k2, e2)) * (q + 1)
        return char_angle(F, rep.params[0], int(ext.mul[e1, e2])) * (q + 1)

    if c == 0:
        return (0, 0), (0, 0)
    if x == y or rep.kind in ("det", "steinberg"):
        return (c, angle(x, y) % m), (0, 0)
    return (c, angle(x, y) % m), (c, angle(y, x) % m)


def _trace_det(entries, q: int) -> tuple:
    a, b, c, d = entries
    return (a + d) % q, (a * d - b * c) % q


class CharacterTable:
    """Full character table of GL2(F_q), rows = irreps, columns = classes:
    terms holds each entry exactly, as char_terms gives it, in an int64
    (irreps x classes x 2 x 2) array."""

    def __init__(self, q: int):
        _require_odd_prime(q)
        self.q = q
        self.classes = conj_classes(q)
        self.irreps = irreps(q)
        self.group_order = (q * q - 1) * (q * q - q)
        self.class_sizes = np.array([c.size for c in self.classes])
        self.terms = np.array([[char_terms(q, r, c) for c in self.classes]
                               for r in self.irreps], dtype=np.int64)
        self._class_index = {(c.kind, c.params): i
                             for i, c in enumerate(self.classes)}
        self._irrep_index = {(r.kind, r.params): i
                             for i, r in enumerate(self.irreps)}
        self._by_charpoly = {_trace_det(c.rep, q): i
                             for i, c in enumerate(self.classes)
                             if c.kind != "central"}
        if len(self._by_charpoly) != len(self.classes) - (q - 1):
            raise InvariantViolation(f"GL2(F_{q}): two non-central classes "
                                     f"share a characteristic polynomial")

    @cached_property
    def values(self) -> np.ndarray:
        """The table in complex floats, zeta^a read off roots_of_unity.
        Each entry is formed as its closed form reads, which fixes its
        signed zeros: two terms are summed from the first, a sign of -1
        goes outside that sum, and 1 or -1 multiplies nothing."""
        coef, angle = self.terms[..., 0], self.terms[..., 1]
        roots = roots_of_unity(self.q * self.q - 1)[angle]
        s = np.where(coef[..., 1] != 0, roots[..., 0] + roots[..., 1],
                     roots[..., 0])
        c = coef[..., 0]
        return np.select([c == 1, c == -1, c != 0], [s, -s, c * s], 0)

    def image(self, powers: np.ndarray, p: int) -> np.ndarray:
        """The table in F_p, an int64 array of residues in [0, p): zeta^a
        read as powers[a], the powers of an element of order q^2 - 1."""
        coef, angle = self.terms[..., 0], self.terms[..., 1]
        return (coef * powers[angle]).sum(axis=-1) % p

    def class_index(self, kind: str, params: tuple) -> int:
        return self._class_index[(kind, params)]

    def irrep_index(self, rep: Irrep) -> int:
        return self._irrep_index[(rep.kind, rep.params)]

    def classify(self, entries) -> int:
        """Class index of an invertible matrix given as entries (a, b, c, d).

        A non-scalar 2 x 2 matrix is cyclic, so its class is fixed by its
        characteristic polynomial, read here as (trace, det)."""
        a, b, c, d = (int(v) % self.q for v in entries)
        tr, det = _trace_det((a, b, c, d), self.q)
        if det == 0:
            raise InvariantViolation(f"classify expects an invertible "
                                     f"matrix; {(a, b, c, d)} has det 0")
        if b == 0 and c == 0 and a == d:
            return self.class_index("central", (a,))
        return self._by_charpoly[(tr, det)]


@lru_cache(maxsize=None)
def character_table(q: int) -> CharacterTable:
    return CharacterTable(q)


def rank_one_sigma(q: int):
    """Constituents of the representation induced from the trivial character
    of the mirabolic subgroup: trivial, Steinberg, and each principal series
    pairing a nontrivial character with the trivial one."""
    out = [Irrep("det", (0,), 1), Irrep("steinberg", (0,), q)]
    for k in range(1, q - 1):
        out.append(Irrep("principal", (0, k), q + 1))
    return out


# ---------------------------------------------------------------------------
# hooks into the ring side of M2(F_q)
# ---------------------------------------------------------------------------

def matrix_rank(entries, q: int) -> int:
    a, b, c, d = (int(v) % q for v in entries)
    if (a * d - b * c) % q != 0:
        return 2
    if a or b or c or d:
        return 1
    return 0


def require_m2_ring(ring):
    desc = ring.descriptor
    if desc.get("kind") != "matrix" or desc.get("size") != 2:
        raise UnsupportedQ(f"{ring.label} is not a 2x2 matrix ring")
    return desc["q"]


def classify_nonunit_class(ring, x: int):
    """Tag a non-invertible element: "zero", ("Y0",) nilpotent rank one, or
    ("Yt", t) for the rank-one class of diag(t, 0)."""
    q = require_m2_ring(ring)
    ent = ring.entries[x].ravel()
    r = matrix_rank(ent, q)
    if r == 0:
        return ("zero",)
    if r != 1:
        raise UnknownCase("element is invertible")
    t = int(ent[0] + ent[3]) % q
    if t == 0:
        return ("Y0",)
    return ("Yt", t)
