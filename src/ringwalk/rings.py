"""Element-enumerated finite rings with identity and their derived structure.

A ring is stored as dense n x n uint16 addition and multiplication index
tables: SIZE_CAP < 2^16, so every element index fits, and any arithmetic
on a table value widens it first (uint16 arithmetic would wrap).
Matrix-ring tables come from _kernels, which builds them by rows in
O(n^2) numpy work.
Enumeration orders are part of the public contract:

  * zn_ring(n): natural order 0..n-1.
  * matrix_ring(field, size): lexicographic in the row-major entry tuple
    (a11, a12, ..., a_ss), most significant first.
  * upper_triangular_ring(field): lexicographic in (a11, a12, a22).
  * product_ring(r1, r2): row-major pairs, index = i1 * n2 + i2.

Derived structure (units, similarity classes, the principal-left-ideal
poset, generator sets, stabilizers, annihilators) is computed lazily and
cached, each from orbits of the unit generators or in a few whole-array
passes over the tables; everything is immutable after construction and
read-only queries are safe to share across threads.

Ring axioms are verified at construction time, exhaustively at every n, in
one pass over each n x n table along the search tree of a greedy additive
generating set G, plus O(n |G|^2) checks on G (FiniteRing._validate).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from ._kernels import _BLOCK
from .errors import InvariantViolation, ParamOutOfRange, TooLarge
from .fields import gf

SIZE_CAP = 20000
MATRIX_SIZES = (2, 3)


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


def orbit_labels(perms, n):
    """The least point of each point's orbit under the group generated by
    `perms`, permutations x -> perm[x] of 0..n-1, by min-label propagation
    with pointer jumping: labels fall within their orbits until label[x] <=
    label[perm[x]] for all x and perm, so they are constant on orbits."""
    label = np.arange(n)
    while True:
        low = label.copy()
        for perm in perms:
            np.minimum(low, label[perm], out=low)
        low = low[low]
        if np.array_equal(low, label):
            return label
        label = low


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


class FiniteRing:
    """A finite ring with identity given by dense operation tables.

    additive_generators holds the greedy additive generating set G on which
    _validate checked the axioms; every element is a sum of elements of G.
    """

    def __init__(self, add, mul, zero, one, label, descriptor, namer=None):
        add, mul = np.asarray(add), np.asarray(mul)
        n = add.shape[0]
        if n > SIZE_CAP:
            raise TooLarge(f"{label}: {n} elements exceeds the {SIZE_CAP} cap")
        if add.shape != (n, n) or mul.shape != (n, n):
            raise InvariantViolation(f"{label}: operation tables are not "
                                     f"{n} x {n}")
        self.n = n
        self.label = label
        self.add = self._index_table(add, "addition")
        self.mul = self._index_table(mul, "multiplication")
        self.zero = int(zero)
        self.one = int(one)
        self.descriptor = descriptor
        self._namer = namer
        self._validate()

    # -- construction-time checks -------------------------------------

    def _index_table(self, table, name):
        """table as a C-contiguous uint16 array.  Its entries are checked
        to be integers in 0..n-1 in the dtype they arrive in, before the
        narrowing, which would wrap 2^16 + 3 to the valid index 3."""
        self._require(table.dtype.kind in "iu" and table.min() >= 0
                      and table.max() < self.n, f"{name} table leaves the ring")
        return np.ascontiguousarray(table, dtype=np.uint16)

    def _validate(self):
        """Check every ring axiom, exhaustively, in two passes over the
        n x n tables whatever |G| is.

        G = (g_1, ..., g_k) is a greedy additive generating set
        (additive_generators).  Its search tree writes each y != 0 as
        y = p(y) + g(y), p(y) reached before y and g(y) in G, and R_i, the
        elements reached from 0 by adding g_1..g_i on the right, is closed
        before g_{i+1} is picked.  After the range check of _index_table
        (the tables stay in the ring) and an O(n^2) prelude (0 is a
        two-sided additive identity, each row of + holds exactly one 0, 1
        is a two-sided multiplicative identity) these checks suffice:

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
        idx = np.arange(n)
        self._require(np.array_equal(add[self.zero], idx)
                      and np.array_equal(add[:, self.zero], idx),
                      "zero is not neutral")
        for s in range(0, n, _BLOCK):
            self._require(np.all(np.count_nonzero(add[s:s + _BLOCK]
                                                  == self.zero, axis=1) == 1),
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
        # flat indices into shifts: each is below (|G| + 1) n, so the
        # gathers skip their bounds checks (mode="clip" never clips)
        at = via * n
        near = np.empty((_BLOCK, n), dtype=np.uint16)
        flat = np.empty((_BLOCK, n), dtype=np.intp)
        for s in range(0, n, _BLOCK):                                # (a')
            rows = add[s:s + _BLOCK]
            m = len(rows)
            np.take(rows, parent, axis=1, out=near[:m], mode="clip")
            np.add(near[:m], at, out=flat[:m])      # x + p(y), then + g(y)
            np.take(shifts, flat[:m], out=near[:m], mode="clip")
            self._require(np.array_equal(rows, near[:m]),
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
            # widened before the product: each flat index is below n^2 < 2^31
            flat = (cols[ends].astype(np.int32) * n)[via]
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
        """Left-invertible elements, each with its least left inverse;
        two-sidedness is checked, not assumed.  The pairs y x = 1 are found
        _BLOCK rows of the table at a time, in row-major order, so the
        first pair of each x holds its least y."""
        n, mul = self.n, self.mul
        hits = [np.flatnonzero(mul[s:s + _BLOCK] == self.one) + s * n
                for s in range(0, n, _BLOCK)]
        ys, xs = np.divmod(np.concatenate(hits), n)
        xs, first = np.unique(xs, return_index=True)
        ys = ys[first]
        self._require(np.all(mul[xs, ys] == self.one),
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
        """Orbits of r -> u r u^-1: orbit_labels under r -> g r g^-1 for
        the unit generators g."""
        conj = [self.mul[self.mul[g], self.inv(g)]
                for g in self.unit_generators]
        reps, class_of = np.unique(orbit_labels(conj, self.n),
                                   return_inverse=True)
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
        """The principal left ideals I_a = R a, from the orbits of the units
        acting on the left, numbered by least generator.

        R (u a) = R a for a unit u, so each orbit U a lies inside the
        generator set S_a = {b : R b = R a}: the orbits refine the
        generator sets.  I_a is the set of values in column a of the
        table, read once per orbit.  If no two orbits give the same ideal,
        no S_a holds two orbits, so each orbit is exactly one S_a: the
        units act transitively on every S_a (f_set, the lumped transfers
        of stationary_recursive and the one start per S_a of d_of_t rely
        on it).  Two equal ideals raise InvariantViolation.  I_a is a left
        ideal holding a, so I_a is contained in I_b iff a lies in I_b;
        equal ideals are the pairs contained in each other.

        Cost: orbit_labels under x -> g x for the unit generators g, O(n)
        per generator and round, then O(k n) for the k columns and masks
        and O(k^2) for containment.
        """
        n, mul = self.n, self.mul
        reps, id_of = np.unique(orbit_labels(
            [mul[g] for g in self.unit_generators], n), return_inverse=True)
        k = len(reps)
        masks = np.zeros((k, n), dtype=bool)
        for i, a in enumerate(reps):
            masks[i, mul[:, a]] = True
        leq = np.ascontiguousarray(masks[:, reps].T)   # a_i in I_(a_j)
        self._require(np.all(leq.diagonal()), "a is not in its ideal I_a")
        self._require(np.count_nonzero(leq & leq.T) == k,
                      "two unit orbits generate the same left ideal")
        return IdealPoset(masks, reps, id_of, _segments(id_of, k), leq)

    @property
    def phi(self) -> np.ndarray:
        """Least-index generators of the distinct principal left ideals."""
        return self.ideals.reps

    def s_set(self, a: int) -> np.ndarray:
        """Generators of the principal left ideal of a."""
        return self.ideals.generators[int(self.ideals.id_of[a])]

    # -- stabilizers and annihilators --------------------------------------

    def lstab(self, a: int) -> np.ndarray:
        us = self.units
        return us[self.mul[us, a] == a]

    def lann(self, a: int) -> np.ndarray:
        return np.nonzero(self.mul[:, a] == self.zero)[0]

    def f_set(self, a: int) -> np.ndarray:
        """Class ids c with (C_c * S_a) meeting S_a, ascending: the classes
        of the x with x a in S_a, read from column a of the table.

        Proof: ideals certifies that every s in S_a is u a for a unit u.
        S_a is closed under left multiplication by units, so x s = x u a
        lies in S_a iff u^-1 x u a does, and u^-1 x u lies in the class of
        x.  So C_c * S_a meets S_a iff some y in C_c has y a in S_a."""
        in_sa = np.zeros(self.n, dtype=bool)
        in_sa[self.s_set(a)] = True
        return np.flatnonzero(np.bincount(
            self.similarity.class_of[in_sa[self.mul[:, a]]]))

    def opposite(self) -> FiniteRing:
        """The opposite ring R^op: the same elements and addition, and the
        product x o y = y x, validated like any ring.

        Left multiplication in R^op is right multiplication in R, so the
        walk that multiplies on the right is the left walk on R^op.  R^op
        has the same units (u v = 1 = v u is symmetric in the two
        products), and its similarity classes are R's as sets, since
        u o x o u^-1 = u^-1 x u and u runs over all units with u^-1.  The
        class representatives are the least indices in those sets, so they
        are R's too, in the same order: a class-constant Q on R has the
        same class weights on R^op.  Its principal left ideals are R's
        principal right ideals.  The descriptor kind is "opposite", so no
        closed form keyed on R's kind applies to it; element names are R's.
        """
        return FiniteRing(self.add, self.mul.T, self.zero, self.one,
                          f"({self.label})^op",
                          {"kind": "opposite", "of": self.descriptor},
                          namer=self._namer)

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
        raise ParamOutOfRange(f"Z_{n} needs n >= 1")
    if n > SIZE_CAP:
        raise TooLarge(f"Z_{n} exceeds the {SIZE_CAP} cap")
    # Row b of + is arange(n) rotated left by b: a window of it twice over.
    twice = np.tile(np.arange(n, dtype=np.uint16), 2)
    add = np.empty((n, n), dtype=np.uint16)
    for b in range(n):
        add[b] = twice[b:b + n]
    # Row b of the product is row b - _BLOCK plus row _BLOCK, less n where
    # the sum reaches n: only the first _BLOCK rows and that step take
    # residues.
    # A sum v of two residues stays below 2n < 2^16 in uint16, where v - n
    # wraps above v for v < n, so minimum(v, v - n) is v mod n.
    idx = np.arange(n)
    mul = np.empty((n, n), dtype=np.uint16)
    mul[:_BLOCK] = idx[:_BLOCK, None] * idx % n
    step = (_BLOCK * idx % n).astype(np.uint16)
    for s in range(_BLOCK, n, _BLOCK):
        rows = mul[s:s + _BLOCK]
        np.add(mul[s - _BLOCK:s - _BLOCK + len(rows)], step, out=rows)
        np.minimum(rows, rows - n, out=rows)
    return FiniteRing(add, mul, 0, 1 % n, f"Z_{n}", {"kind": "zn", "n": n})


def _structured_matrix_ring(q, size, positions, name, descriptor):
    """Ring of size x size matrices over GF(q) supported on `positions`,
    labelled name(Fq).

    q is a prime or a field from fields.gf.  The SIZE_CAP check comes
    first, so an oversized q fails before its field is built.  positions
    is a row-major list of (i, j) entry slots that may be nonzero;
    elements enumerate assignments to those slots lexicographically, most
    significant slot first.
    """
    m = q if isinstance(q, int) else q.size
    d = len(positions)
    n = m ** d
    label = f"{name}(F{m})"
    if m > 1 and n > SIZE_CAP:          # gf rejects m < 2 as not prime
        raise TooLarge(f"{label}: {n} elements exceeds the {SIZE_CAP} cap")
    field = gf(q) if isinstance(q, int) else q

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

    add = _kernels.matrix_add_table(E, field.add, place)
    mul, bad = _kernels.matrix_mul_table(E, field.mul, field.add, place)
    if bad:
        raise InvariantViolation(f"{label}: products escape the matrix shape")

    one_code = sum(weight[(i, j)] for (i, j) in positions if i == j)

    def namer(x):
        return "[" + ",".join("[" + ",".join(map(str, row)) + "]"
                              for row in E[x].tolist()) + "]"

    ring = FiniteRing(add, mul, 0, one_code, label, {**descriptor, "q": m},
                      namer=namer)
    ring.field = field
    ring.mat_size = size
    ring.entries = E
    return ring


def matrix_ring(q, size: int = 2) -> FiniteRing:
    """Full matrix ring of the given size over GF(q).

    q is a prime, or a field from fields.gf: gf(p, k) for q = p^k."""
    if size not in MATRIX_SIZES:
        raise TooLarge("matrix rings are supported for size 2 and 3 only")
    positions = [(i, j) for i in range(size) for j in range(size)]
    return _structured_matrix_ring(q, size, positions, f"M{size}",
                                   {"kind": "matrix", "size": size})


def upper_triangular_ring(q) -> FiniteRing:
    """Upper triangular 2 x 2 matrices over GF(q); q^3 elements."""
    return _structured_matrix_ring(q, 2, [(0, 0), (0, 1), (1, 1)], "B2",
                                   {"kind": "upper_triangular"})


def product_ring(r1: FiniteRing, r2: FiniteRing) -> FiniteRing:
    """Componentwise product; enumeration is row-major in (i1, i2)."""
    n1, n2 = r1.n, r2.n
    n = n1 * n2
    if n > SIZE_CAP:
        raise TooLarge(f"product has {n} elements, above the {SIZE_CAP} cap")
    i1 = np.arange(n) // n2
    i2 = np.arange(n) % n2
    add = np.empty((n, n), dtype=np.uint16)  # t1 * n2 + t2 < n, in uint16
    mul = np.empty((n, n), dtype=np.uint16)
    for s in range(0, n, _BLOCK):
        b1, b2 = i1[s:s + _BLOCK, None], i2[s:s + _BLOCK, None]
        for out, t1, t2 in ((add, r1.add, r2.add), (mul, r1.mul, r2.mul)):
            np.multiply(t1[b1, i1], n2, out=out[s:s + _BLOCK])
            out[s:s + _BLOCK] += t2[b2, i2]
    zero = r1.zero * n2 + r2.zero
    one = r1.one * n2 + r2.one
    label = f"({r1.label})x({r2.label})"

    def namer(x):
        return f"({r1.element_name(x // n2)},{r2.element_name(x % n2)})"

    return FiniteRing(add, mul, zero, one, label,
                      {"kind": "product",
                       "factors": [r1.descriptor, r2.descriptor]},
                      namer=namer)
