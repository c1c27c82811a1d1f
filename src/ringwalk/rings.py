"""Element-enumerated finite rings with identity and their derived structure.

A ring is stored as dense n x n int32 addition and multiplication index
tables.  Matrix-ring tables come from _kernels, which builds them by rows
in O(n^2) numpy work.
Enumeration orders are part of the public contract:

  * zn_ring(n): natural order 0..n-1.
  * matrix_ring(field, size): lexicographic in the row-major entry tuple
    (a11, a12, ..., a_ss), most significant first.
  * upper_triangular_ring(field): lexicographic in (a11, a12, a22).
  * product_ring(r1, r2): row-major pairs, index = i1 * n2 + i2.

Derived structure (units, similarity classes, the principal-left-ideal
poset, generator sets, stabilizers, annihilators) is computed lazily and
cached, each in a few whole-array passes over the tables; everything is
immutable after construction and read-only queries are safe to share
across threads.

Ring axioms are verified at construction time, exhaustively at every n, in
2 |G| passes over the n x n tables for a greedy additive generating set G
(FiniteRing._validate).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import InvariantViolation, ParamOutOfRange, TooLarge
from .fields import field_make

SIZE_CAP = 20000
_BLOCK = 64                # table rows or columns per whole-table pass


def _greedy_generators(table, candidates, start):
    """Generators, greedy in the order of `candidates`: each candidate that
    the earlier generators do not reach from `start` becomes one.  Reached
    means start * g1 * ... * gk, bracketed from the left, for generators gi
    and `*` the operation of `table`; a frontier search finds them.

    Returns (generators, reached), reached a bool mask over the elements.
    """
    reached = np.zeros(len(table), dtype=bool)
    reached[start] = True
    gens = []
    while True:
        missing = candidates[~reached[candidates]]
        if not len(missing):
            return tuple(gens), reached
        gens.append(int(missing[0]))
        frontier = np.flatnonzero(reached)
        while len(frontier):
            step = np.sort(table[np.ix_(frontier, gens)].ravel())
            step = step[~reached[step]]
            frontier = step[np.diff(step, prepend=-1) != 0]
            reached[frontier] = True


@dataclass
class SimilarityPartition:
    """Orbits of conjugation by units; reps are the least index per orbit."""

    classes: list
    reps: np.ndarray
    class_of: np.ndarray
    invertible: np.ndarray

    def __len__(self):
        return len(self.classes)


@dataclass
class IdealPoset:
    """Distinct principal left ideals, their generator sets, and containment.

    leq[i, j] is True when ideal i is contained in ideal j.  reps holds the
    least-index generator of each ideal; generators[i] is S_a for the ideal.
    """

    masks: np.ndarray
    reps: np.ndarray
    id_of: np.ndarray
    generators: list
    leq: np.ndarray

    def __len__(self):
        return len(self.reps)

    def strictly_above(self, i: int) -> np.ndarray:
        above = self.leq[i, :].copy()
        above[i] = False
        return np.nonzero(above)[0]


class FiniteRing:
    """A finite ring with identity given by dense operation tables.

    additive_generators holds the greedy additive generating set G on which
    _validate checked the axioms; every element is a sum of elements of G.
    """

    def __init__(self, add, mul, zero, one, label, descriptor, namer=None):
        add = np.ascontiguousarray(add, dtype=np.int32)
        mul = np.ascontiguousarray(mul, dtype=np.int32)
        n = add.shape[0]
        if n > SIZE_CAP:
            raise TooLarge(f"{label}: {n} elements exceeds the {SIZE_CAP} cap")
        if add.shape != (n, n) or mul.shape != (n, n):
            raise InvariantViolation(f"{label}: operation tables are not "
                                     f"{n} x {n}")
        self.n = n
        self.add = add
        self.mul = mul
        self.zero = int(zero)
        self.one = int(one)
        self.label = label
        self.descriptor = descriptor
        self._namer = namer
        self._validate()

    # -- construction-time checks -------------------------------------

    def _validate(self):
        """Check every ring axiom, exhaustively, in O(n^2 |G|) lookups.

        G is a greedy additive generating set (additive_generators): each
        element is reached from 0 by adding elements of G on the right.
        After an O(n^2) prelude (the tables stay in the ring, 0 is a
        two-sided additive identity, each row of + holds exactly one 0, 1 is
        a two-sided multiplicative identity) these checks suffice:

        (a) (x + g) + y = x + (g + y) for all x, y and g in G.  The middle
            elements a with (x + a) + y = x + (a + y) for all x, y hold 0
            and are closed under + (Light's test; Clifford & Preston, The
            Algebraic Theory of Semigroups I, 1961, sec. 1.2), so they hold
            every element reached and + is associative.  With a right
            inverse for each element (R, +) is then a group, and every
            element is a sum of one or more elements of G (0 as a multiple
            of any g; with G empty, R = {0}).
        (b) g + h = h + g for g, h in G.  The centralizer of any element is
            closed under +, so each g commutes with every sum of elements of
            G, that is with all of R; then so does every element.
        (c) (y + g) x = y x + g x for all x, y and g in G, read as
            g x + y x (one row of + per x) now that + commutes.  For fixed x
            the z with (y + z) x = y x + z x for all y are closed under +,
            by associativity, so y -> y x is additive: right distributivity.
        (d) g (y + h) = g y + g h for all y and g, h in G.  For fixed g the
            same closure gives g (y + z) = g y + g z for all y, z, and by
            (c) x -> x (y + z) - x y - x z is additive, so it vanishes on R:
            left distributivity.
        (e) (g h) k = g (h k) on G^3.  (x y) z - x (y z) is additive in each
            argument by (c) and (d), so it vanishes on R^3.

        (a) and (c) are one pass over an n x n table per g, _BLOCK rows or
        columns at a time; (b), (d) and (e) cost O(n |G|^2).  Once (a) has
        passed, + is a group and G at least doubles the reached subgroup per
        generator, so |G| <= log2 n.
        """
        n, add, mul = self.n, self.add, self.mul
        self._require(add.min() >= 0 and add.max() < n,
                      "addition table leaves the ring")
        self._require(mul.min() >= 0 and mul.max() < n,
                      "multiplication table leaves the ring")
        idx = np.arange(n)
        self._require(np.array_equal(add[self.zero], idx)
                      and np.array_equal(add[:, self.zero], idx),
                      "zero is not neutral")
        self._require(np.all((add == self.zero).sum(axis=1) == 1),
                      "some element has no additive inverse")
        self._require(np.array_equal(mul[self.one], idx),
                      "one is not a left identity")
        self._require(np.array_equal(mul[:, self.one], idx),
                      "one is not a right identity")
        self.additive_generators, _ = _greedy_generators(add, idx, self.zero)
        G = np.array(self.additive_generators, dtype=np.intp)
        for s in range(0, n, _BLOCK):                                # (a)
            rows = add[s:s + _BLOCK]
            for g in G:
                self._require(np.array_equal(add[rows[:, g]], rows[:, add[g]]),
                              "addition is not associative")
        gg = add[np.ix_(G, G)]                                       # (b)
        self._require(np.array_equal(gg, gg.T), "addition is not commutative")
        at = np.arange(_BLOCK)[:, None] * n
        for s in range(0, n, _BLOCK):                                # (c)
            cols = mul[:, s:s + _BLOCK].T.copy()    # cols[i, y] = y (s + i)
            flat = at[:len(cols)] + cols
            for g in G:
                gx_plus = add[mul[g, s:s + _BLOCK]].ravel()[flat]
                self._require(np.array_equal(cols[:, add[:, g]], gx_plus),
                              "right distributivity fails")
        gy, gg = mul[G], mul[np.ix_(G, G)]                           # (d)
        self._require(np.array_equal(mul[G[:, None, None], add[:, G]],
                                     add[gy[:, :, None], gg[:, None, :]]),
                      "left distributivity fails")
        self._require(np.array_equal(mul[gg[:, :, None], G],         # (e)
                                     mul[G[:, None, None], gg]),
                      "multiplication is not associative")

    def _require(self, ok, axiom: str) -> None:
        """Raise (not assert, so -O keeps it) when a ring axiom fails."""
        if not ok:
            raise InvariantViolation(f"{self.label}: {axiom}")

    # -- element helpers ----------------------------------------------

    def element_name(self, x: int) -> str:
        if self._namer is not None:
            return self._namer(x)
        return str(x)

    @cached_property
    def is_commutative(self) -> bool:
        """x y - y x is additive in each argument, so G x G decides it."""
        G = np.array(self.additive_generators, dtype=np.intp)
        gg = self.mul[np.ix_(G, G)]
        return bool(np.array_equal(gg, gg.T))

    # -- units ----------------------------------------------------------

    @cached_property
    def units(self) -> np.ndarray:
        """Left-invertible elements; two-sidedness is checked, not assumed."""
        left_hits = self.mul == self.one          # left_hits[y, x]: y*x == 1
        has_left = left_hits.any(axis=0)
        xs = np.nonzero(has_left)[0]
        ys = np.argmax(left_hits[:, xs], axis=0)
        self._require(np.all(self.mul[xs, ys] == self.one),
                      "left inverse is not a right inverse")
        self._inv_map = dict(zip(xs.tolist(), ys.tolist()))
        return xs

    @cached_property
    def unit_set(self) -> set:
        return set(self.units.tolist())

    def inv(self, u: int) -> int:
        self.units
        return self._inv_map[u]

    @cached_property
    def unit_generators(self) -> tuple:
        """A generating set of U_R, greedy in index order: each new generator
        lies outside the group of the earlier ones, so that group at least
        doubles and there are at most log2 |U| generators."""
        gens, reached = _greedy_generators(self.mul, self.units, self.one)
        self._require(reached.sum() == len(self.units),
                      "products of units leave the unit group")
        return gens

    @cached_property
    def units_abelian(self) -> bool:
        """U_R is abelian when its generators commute pairwise."""
        g = np.array(self.unit_generators, dtype=np.intp)
        gg = self.mul[np.ix_(g, g)]
        return bool(np.array_equal(gg, gg.T))

    # -- similarity classes ----------------------------------------------

    @cached_property
    def similarity(self) -> SimilarityPartition:
        """Orbits of r -> u r u^-1: the components of the graph joining r to
        g r g^-1 for each unit generator g.  Each label falls to the least
        index of its component by min-label propagation with pointer
        jumping, as in spectrum.EigenvalueMultiset.from_values."""
        mul = self.mul
        conj = []
        for g in self.unit_generators:
            h = self.inv(g)
            conj += [mul[mul[g], h], mul[mul[h], g]]   # g r g^-1, g^-1 r g
        label = np.arange(self.n)
        while True:
            low = label.copy()
            for perm in conj:
                np.minimum(low, label[perm], out=low)
            low = low[low]
            if np.array_equal(low, label):
                break
            label = low
        reps, class_of = np.unique(label, return_inverse=True)
        classes = _segments(class_of, len(reps))
        is_unit = np.zeros(self.n, dtype=bool)
        is_unit[self.units] = True
        invertible = is_unit[reps]
        self._require(np.array_equal(invertible[class_of], is_unit),
                      "a similarity class mixes units and non-units")
        return SimilarityPartition(classes, reps, class_of, invertible)

    # -- principal left ideal poset ---------------------------------------

    @cached_property
    def ideals(self) -> IdealPoset:
        """I_a = {x a : x in R} is the set of values in column a of the
        table.  Each I_a becomes a bit-packed membership row, built _BLOCK
        columns at a time, and one np.unique over the rows as raw bytes
        finds the distinct ideals, numbered by least generator."""
        n, mul = self.n, self.mul
        packed = np.empty((n, (n + 7) // 8), dtype=np.uint8)
        at = np.arange(_BLOCK)[:, None] * n
        for s in range(0, n, _BLOCK):
            cols = mul[:, s:s + _BLOCK].T
            member = np.zeros((len(cols), n), dtype=bool)
            member.ravel()[at[:len(cols)] + cols] = True
            packed[s:s + _BLOCK] = np.packbits(member, axis=1)
        rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first, inverse = np.unique(rows, return_index=True,
                                      return_inverse=True)
        order = np.argsort(first)
        reps = first[order]
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        id_of = rank[inverse]
        masks = np.unpackbits(packed[reps], axis=1, count=n).astype(bool)
        k = len(reps)
        generators = _segments(id_of, k)
        leq = np.zeros((k, k), dtype=bool)
        for i in range(k):
            leq[i] = ~np.any(masks[i] & ~masks, axis=1)   # i subset of j
        self._require(masks[np.arange(k), reps].all(),
                      "a is not in its ideal I_a")
        return IdealPoset(masks, reps, id_of, generators, leq)

    @property
    def phi(self) -> np.ndarray:
        """Least-index generators of the distinct principal left ideals."""
        return self.ideals.reps

    def s_set(self, a: int) -> np.ndarray:
        """Generators of the principal left ideal of a."""
        return self.ideals.generators[int(self.ideals.id_of[a])]

    # -- stabilizers, annihilators, fibers --------------------------------

    def lstab(self, a: int) -> np.ndarray:
        us = self.units
        return us[self.mul[us, a] == a]

    def lann(self, a: int) -> np.ndarray:
        return np.nonzero(self.mul[:, a] == self.zero)[0]

    def r_xy(self, x: int, y: int) -> np.ndarray:
        """All r with r*y == x; empty unless I_x is contained in I_y."""
        return np.nonzero(self.mul[:, y] == x)[0]

    def coset_reps(self, x: int) -> np.ndarray:
        """Least-index representatives of the left cosets of LStab(x) in U_R.

        Ordered so that rep u corresponds to the element u*x of S_x.
        """
        us = self.units
        images = self.mul[us, x]
        _, first = np.unique(images, return_index=True)
        return us[np.sort(first)]

    def f_set(self, a: int) -> np.ndarray:
        """Class ids c with (C_c * S_a) meeting S_a.  S_a is closed under
        left multiplication by units and (u x u^-1)(u s) = u (x s), so each
        class is decided by its representative: one gather per call."""
        sa = self.s_set(a)
        in_sa = np.zeros(self.n, dtype=bool)
        in_sa[sa] = True
        prods = self.mul[np.ix_(self.similarity.reps, sa)]
        return np.flatnonzero(in_sa[prods].any(axis=1))

    def __repr__(self):
        return f"FiniteRing({self.label}, n={self.n})"


def _segments(label, k):
    """The index arrays of label == 0, ..., label == k - 1, each ascending."""
    order = np.argsort(label, kind="stable")
    return np.split(order, np.cumsum(np.bincount(label, minlength=k))[:-1])


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def zn_ring(n: int) -> FiniteRing:
    """Z_n with natural enumeration; n = 1 gives the zero ring (one == zero)."""
    if n < 1:
        raise ParamOutOfRange(f"field 'n': Z_{n} needs n >= 1")
    if n > SIZE_CAP:
        raise TooLarge(f"Z_{n} exceeds the {SIZE_CAP} cap")
    idx = np.arange(n, dtype=np.int32)     # (n - 1)^2 < 2^31 below SIZE_CAP
    add = (idx[:, None] + idx[None, :]) % n
    mul = (idx[:, None] * idx[None, :]) % n
    return FiniteRing(add, mul, 0, 1 % n, f"Z_{n}", {"kind": "zn", "n": n})


def _field_tables(field):
    m = field.size
    fadd = np.empty((m, m), dtype=np.int32)
    fmul = np.empty((m, m), dtype=np.int32)
    for a in range(m):
        for b in range(m):
            fadd[a, b] = field.add(a, b)
            fmul[a, b] = field.mul(a, b)
    return fadd, fmul


def _structured_matrix_ring(field, size, positions, label, descriptor):
    """Ring of size x size matrices over `field` supported on `positions`.

    positions is a row-major list of (i, j) entry slots that may be nonzero;
    elements enumerate assignments to those slots lexicographically, most
    significant slot first.
    """
    m = field.size
    d = len(positions)
    n = m ** d
    if n > SIZE_CAP:
        raise TooLarge(f"{label}: {n} elements exceeds the {SIZE_CAP} cap")
    fadd, fmul = _field_tables(field)

    codes = np.arange(n)
    E = np.zeros((n, size, size), dtype=np.int32)
    weight = {}
    for slot, (i, j) in enumerate(positions):
        w = m ** (d - 1 - slot)
        weight[(i, j)] = w
        E[:, i, j] = (codes // w) % m

    place = np.full((size, size), -1, dtype=np.int64)
    for (i, j), w in weight.items():
        place[i, j] = w

    add = _kernels.matrix_add_table(E, fadd, place)
    mul, bad = _kernels.matrix_mul_table(E, fmul, fadd, place)
    if bad:
        raise InvariantViolation(f"{label}: products escape the matrix shape")

    one_code = sum(weight[(i, j)] for (i, j) in positions if i == j)

    def namer(x):
        ent = E[x]
        rows = ",".join("[" + ",".join(str(int(v)) for v in row) + "]"
                        for row in ent)
        return f"[{rows}]"

    ring = FiniteRing(add, mul, 0, one_code, label, descriptor, namer=namer)
    ring.field = field
    ring.mat_size = size
    ring.entries = E
    return ring


def matrix_ring(q, size: int = 2) -> FiniteRing:
    """Full matrix ring of the given size over GF(q).

    q may be an integer prime or a field object (a PrimeField or a
    QuadraticExtension for the q = p^2 case)."""
    field = field_make(q) if isinstance(q, int) else q
    if size not in (2, 3):
        raise TooLarge("matrix rings are supported for size 2 and 3 only")
    positions = [(i, j) for i in range(size) for j in range(size)]
    label = f"M{size}(F{field.size})"
    return _structured_matrix_ring(
        field, size, positions, label,
        {"kind": "matrix", "size": size, "q": field.size})


def upper_triangular_ring(q) -> FiniteRing:
    """Upper triangular 2 x 2 matrices over GF(q); q^3 elements."""
    field = field_make(q) if isinstance(q, int) else q
    positions = [(0, 0), (0, 1), (1, 1)]
    label = f"B2(F{field.size})"
    return _structured_matrix_ring(
        field, 2, positions, label,
        {"kind": "upper_triangular", "q": field.size})


def product_ring(r1: FiniteRing, r2: FiniteRing) -> FiniteRing:
    """Componentwise product; enumeration is row-major in (i1, i2)."""
    n1, n2 = r1.n, r2.n
    n = n1 * n2
    if n > SIZE_CAP:
        raise TooLarge(f"product has {n} elements, above the {SIZE_CAP} cap")
    i1 = np.arange(n) // n2
    i2 = np.arange(n) % n2
    add = (r1.add[np.ix_(i1, i1)].astype(np.int64) * n2
           + r2.add[np.ix_(i2, i2)])
    mul = (r1.mul[np.ix_(i1, i1)].astype(np.int64) * n2
           + r2.mul[np.ix_(i2, i2)])
    zero = r1.zero * n2 + r2.zero
    one = r1.one * n2 + r2.one
    label = f"({r1.label})x({r2.label})"

    def namer(x):
        return f"({r1.element_name(x // n2)},{r2.element_name(x % n2)})"

    return FiniteRing(add, mul, zero, one, label,
                      {"kind": "product",
                       "factors": [r1.descriptor, r2.descriptor]},
                      namer=namer)
