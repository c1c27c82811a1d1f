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
the same index, below q, in both.  Character values are assembled from
exact angle fractions and mapped to complex (so orthogonality holds to
rounding error) or to F_p at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvariantViolation, UnknownCase, UnsupportedQ
from .fields import (
    angle_to_complex,
    char_angle,
    frobenius_twist_index,
    gf,
    is_prime,
)


@dataclass(frozen=True)
class ConjClass:
    kind: str        # central | unipotent | split | anisotropic
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


def char_value(q: int, rep: Irrep, cls: ConjClass, root=angle_to_complex):
    """Single character-table entry from exact angles.

    root maps an angle theta (a fraction of a full turn) to exp(2 pi i
    theta): complex by default, or in F_p (spectrum.gl2_spectrum_mod_p).
    """
    F = gf(q)
    ext = gf(q, 2)

    def chi(k, x):
        return char_angle(F, k, x)

    def nu(k, a):
        return char_angle(ext, k, a)

    kind, params = rep.kind, rep.params
    if kind == "det":
        (k,) = params
        if cls.kind in ("central", "unipotent"):
            return root(2 * chi(k, cls.params[0]))
        if cls.kind == "split":
            x, y = cls.params
            return root(chi(k, x) + chi(k, y))
        (a,) = cls.params
        return root(chi(k, ext.norm(a)))
    if kind == "steinberg":
        (k,) = params
        if cls.kind == "central":
            return q * root(2 * chi(k, cls.params[0]))
        if cls.kind == "unipotent":
            return 0
        if cls.kind == "split":
            x, y = cls.params
            return root(chi(k, x) + chi(k, y))
        (a,) = cls.params
        return -root(chi(k, ext.norm(a)))
    if kind == "principal":
        k1, k2 = params
        if cls.kind == "central":
            x = cls.params[0]
            return (q + 1) * root(chi(k1, x) + chi(k2, x))
        if cls.kind == "unipotent":
            x = cls.params[0]
            return root(chi(k1, x) + chi(k2, x))
        if cls.kind == "split":
            x, y = cls.params
            return (root(chi(k1, x) + chi(k2, y))
                    + root(chi(k1, y) + chi(k2, x)))
        return 0
    if kind == "cuspidal":
        (k,) = params
        if cls.kind == "central":
            x = cls.params[0]
            return (q - 1) * root(nu(k, x))
        if cls.kind == "unipotent":
            x = cls.params[0]
            return -root(nu(k, x))
        if cls.kind == "split":
            return 0
        (a,) = cls.params
        return -(root(nu(k, a))
                 + root(nu(k, ext.frobenius(a))))
    raise UnknownCase(f"unknown irrep kind {kind}")


def _trace_det(entries, q: int) -> tuple:
    a, b, c, d = entries
    return (a + d) % q, (a * d - b * c) % q


class CharacterTable:
    """Full character table of GL2(F_q), rows = irreps, columns = classes."""

    def __init__(self, q: int):
        _require_odd_prime(q)
        self.q = q
        self.classes = conj_classes(q)
        self.irreps = irreps(q)
        self.group_order = (q * q - 1) * (q * q - q)
        self.class_sizes = np.array([c.size for c in self.classes])
        self.values = np.array(
            [[char_value(q, r, c) for c in self.classes] for r in self.irreps])
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
