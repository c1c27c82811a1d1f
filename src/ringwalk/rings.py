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
one pass over each n x n table along the search tree of a greedy additive
generating set G, plus O(n |G|^2) checks on G (FiniteRing._validate).
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

    Returns (generators, parent, via, sizes), the search tree alongside the
    generators.  Each reached y is table[parent[y], ends[via[y]]] for
    ends = (start,) + generators, its parent reached before it; the root
    has parent[start] = start and via[start] = 0, and parent[y] = -1 for y
    not reached.  sizes[i] counts what the first i generators reach, so
    sizes[0] = 1.
    """
    n = len(table)
    parent = np.full(n, -1, dtype=np.intp)
    via = np.zeros(n, dtype=np.intp)
    parent[start] = start
    gens, sizes = [], [1]
    while True:
        missing = candidates[parent[candidates] < 0]
        if not len(missing):
            return tuple(gens), parent, via, sizes
        gens.append(int(missing[0]))
        frontier = np.flatnonzero(parent >= 0)
        while len(frontier):
            step = table[np.ix_(frontier, gens)].ravel()
            fresh = np.flatnonzero(parent[step] < 0)
            new, first = np.unique(step[fresh], return_index=True)
            at = fresh[first]
            parent[new] = frontier[at // len(gens)]
            via[new] = at % len(gens) + 1
            frontier = new
        sizes.append(int(np.count_nonzero(parent >= 0)))


def _multiple(add, v, m, zero):
    """m v = v + ... + v (m terms) for each entry of the index array v, by
    doubling."""
    out = np.full_like(v, zero)
    while m:
        if m & 1:
            out = add[out, v]
        v = add[v, v]
        m >>= 1
    return out


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
        """Check every ring axiom, exhaustively, in two passes over the
        n x n tables whatever |G| is.

        G = (g_1, ..., g_k) is a greedy additive generating set
        (additive_generators).  Its search tree writes each y != 0 as
        y = p(y) + g(y), p(y) reached before y and g(y) in G, and R_i, the
        elements reached from 0 by adding g_1..g_i on the right, is closed
        before g_{i+1} is picked.  After an O(n^2) prelude (the tables stay
        in the ring, 0 is a two-sided additive identity, each row of + holds
        exactly one 0, 1 is a two-sided multiplicative identity) these
        checks suffice:

        (b) g + h = h + g for g, h in G.
        (a') x + y = (x + p(y)) + g(y) for all x and y (one pass over +),
            and the columns R_g: x -> x + g for g in G commute.  Then the
            R_g generate a commutative monoid H under composition, and each
            R_y = R_g(y) R_p(y) lies in H, R_0 being the identity.  For h in
            H, h(y) = h(R_y(0)) = R_y(h(0)): h = R_x gives x + y = y + x, and
            h = R_z R_y gives (x + y) + z = R_x(y + z) = x + (y + z).  With
            the prelude's inverses (R, +) is an abelian group.  Run after
            (b): if + were associative, (R, +) would be a group generated by
            G, abelian by (b), and every check of (a') would hold, so a
            failure here means + is not associative.  Now R_i is the
            subgroup <g_1..g_i>, so |R_(i-1)| divides |R_i| (checked), and
            o_i = |R_i| / |R_(i-1)| is the order of g_i modulo R_(i-1).
        (c') y x = p(y) x + g(y) x for all x and y (one pass over the
            multiplication table, read as g(y) x + p(y) x; at the root it
            reads 0 x = 0 x + 0 x, so 0 x = 0), and o_i (g_i x) = (o_i g_i) x
            for each i and all x.  Fix x and let y -> y x be additive on
            R_(i-1).  R_i / R_(i-1) is cyclic of order o_i, generated by
            g_i, so the relation gives one additive map f on R_i that agrees
            with y -> y x on R_(i-1) and at g_i.  The tree steps from p(y)
            to y inside R_i, so y x = f(y) on all of R_i.  By induction over
            R_1 < ... < R_k, y -> y x is additive: right distributivity.
        (d) g (y + h) = g y + g h for all y and g, h in G.  For fixed g the
            z with g (y + z) = g y + g z for all y are closed under +, by
            associativity, so they are all of R; and by (c')
            x -> x (y + z) - x y - x z is additive, so it vanishes on R:
            left distributivity.
        (e) (g h) k = g (h k) on G^3.  (x y) z - x (y z) is additive in each
            argument by (c') and (d), so it vanishes on R^3.

        (a') and (c') each read their table once, _BLOCK rows or columns at
        a time, through lookups in (|G| + 1)-column slices; the rest costs
        O(n |G|^2) for the commutators and O(n log n) for the multiples
        o_i v, by doubling.  G at least doubles the reached subgroup per
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
        gens, parent, via, sizes = _greedy_generators(add, idx, self.zero)
        self.additive_generators = gens
        G = np.array(gens, dtype=np.intp)
        ends = np.concatenate(([self.zero], G))    # y = p(y) + ends[via[y]]
        gg = add[np.ix_(G, G)]                                       # (b)
        self._require(np.array_equal(gg, gg.T), "addition is not commutative")
        shifts = add[:, ends].T.copy()             # shifts[j, x] = x + ends[j]
        at = via * n
        for s in range(0, n, _BLOCK):                                # (a')
            rows = add[s:s + _BLOCK]
            self._require(np.array_equal(rows,
                                         shifts.ravel()[rows[:, parent] + at]),
                          "addition is not associative")
        R = shifts[1:]                             # R[i] = R_(g_i)
        RR = R[np.arange(len(G))[None, :, None], R[:, None, :]]  # R_h R_g
        self._require(np.array_equal(RR, RR.transpose(1, 0, 2)),
                      "addition is not associative")
        sizes = np.array(sizes)
        self._require(np.all(sizes[1:] % sizes[:-1] == 0),
                      "addition is not associative")
        for s in range(0, n, _BLOCK):                                # (c')
            cols = mul[:, s:s + _BLOCK]             # cols[y, i] = y (s + i)
            flat = (cols[ends].astype(np.intp) * n)[via]
            flat += cols[parent]          # index of g(y) x + p(y) x in +
            self._require(np.array_equal(cols, add.ravel()[flat]),
                          "right distributivity fails")
        for g, o in zip(G, sizes[1:] // sizes[:-1]):
            v = _multiple(add, np.append(mul[g], g), o, self.zero)
            self._require(np.array_equal(v[:-1], mul[v[-1]]),
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
        gens, _, _, sizes = _greedy_generators(self.mul, self.units, self.one)
        self._require(sizes[-1] == len(self.units),
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
