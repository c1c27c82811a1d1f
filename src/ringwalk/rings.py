"""Element-enumerated finite rings with identity and their derived structure.

A ring is stored as dense n x n addition and multiplication index tables.
Enumeration orders are part of the public contract:

  * zn_ring(n): natural order 0..n-1.
  * matrix_ring(field, size): lexicographic in the row-major entry tuple
    (a11, a12, ..., a_ss), most significant first.
  * upper_triangular_ring(field): lexicographic in (a11, a12, a22).
  * product_ring(r1, r2): row-major pairs, index = i1 * n2 + i2.

Derived structure (units, similarity classes, the principal-left-ideal
poset, generator sets, stabilizers, annihilators) is computed lazily and
cached; everything is immutable after construction and read-only queries
are safe to share across threads.

Ring axioms are verified at construction time: exhaustively for n <= 256
and on 100k fixed-seed random triples above that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import InvariantViolation, NoWitness, ParamOutOfRange, TooLarge
from .fields import field_make

SIZE_CAP = 20000
EXHAUSTIVE_CAP = 256
RANDOM_TRIPLES = 100_000


@dataclass
class SimilarityPartition:
    """Orbits of conjugation by units; reps are the least index per orbit."""

    classes: list
    reps: np.ndarray
    class_of: np.ndarray
    invertible: np.ndarray

    def __len__(self):
        return len(self.classes)

    def rep_of(self, x: int) -> int:
        return int(self.reps[self.class_of[x]])


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

    def ideal_elements(self, i: int) -> np.ndarray:
        return np.nonzero(self.masks[i])[0]

    def strictly_below(self, i: int) -> np.ndarray:
        """Ideal ids strictly contained in ideal i."""
        below = self.leq[:, i].copy()
        below[i] = False
        return np.nonzero(below)[0]

    def strictly_above(self, i: int) -> np.ndarray:
        above = self.leq[i, :].copy()
        above[i] = False
        return np.nonzero(above)[0]


class FiniteRing:
    """A finite ring with identity given by dense operation tables."""

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
        n, add, mul = self.n, self.add, self.mul
        self._require(add.min() >= 0 and add.max() < n,
                      "addition table leaves the ring")
        self._require(mul.min() >= 0 and mul.max() < n,
                      "multiplication table leaves the ring")
        idx = np.arange(n)
        # additive identity, commutativity, and invertibility
        self._require(np.array_equal(add[self.zero], idx), "zero is not neutral")
        self._require(np.array_equal(add, add.T), "addition is not commutative")
        self._require(all((add[i] == self.zero).sum() == 1 for i in range(n)),
                      "some element has no additive inverse")
        # multiplicative identity
        self._require(np.array_equal(mul[self.one], idx),
                      "one is not a left identity")
        self._require(np.array_equal(mul[:, self.one], idx),
                      "one is not a right identity")
        if n <= EXHAUSTIVE_CAP:
            triples = None
        else:
            rng = np.random.default_rng(0)
            triples = rng.integers(0, n, size=(3, RANDOM_TRIPLES))
        self._check_triples(triples)

    def _check_triples(self, triples):
        add, mul = self.add, self.mul
        if triples is None:
            n = self.n
            b = np.arange(n)[:, None]
            c = np.arange(n)[None, :]
            for a in range(n):
                self._require(np.array_equal(add[add[a, b], c],
                                             add[a, add[b, c]]),
                              "addition is not associative")
                self._require(np.array_equal(mul[mul[a, b], c],
                                             mul[a, mul[b, c]]),
                              "multiplication is not associative")
                self._require(np.array_equal(mul[a, add[b, c]],
                                             add[mul[a, b], mul[a, c]]),
                              "left distributivity fails")
                self._require(np.array_equal(mul[add[b, c], a],
                                             add[mul[b, a], mul[c, a]]),
                              "right distributivity fails")
        else:
            a, b, c = triples
            self._require(np.array_equal(add[add[a, b], c], add[a, add[b, c]]),
                          "addition is not associative")
            self._require(np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]]),
                          "multiplication is not associative")
            self._require(np.array_equal(mul[a, add[b, c]],
                                         add[mul[a, b], mul[a, c]]),
                          "left distributivity fails")
            self._require(np.array_equal(mul[add[a, b], c],
                                         add[mul[a, c], mul[b, c]]),
                          "right distributivity fails")

    def _require(self, ok, axiom: str) -> None:
        """Raise (not assert, so -O keeps it) when a ring axiom fails."""
        if not ok:
            raise InvariantViolation(f"{self.label}: {axiom}")

    # -- element helpers ----------------------------------------------

    def element_name(self, x: int) -> str:
        if self._namer is not None:
            return self._namer(x)
        return str(x)

    def neg(self, x: int) -> int:
        return int(np.nonzero(self.add[x] == self.zero)[0][0])

    @cached_property
    def is_commutative(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

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
    def units_abelian(self) -> bool:
        us = self.units
        sub = self.mul[np.ix_(us, us)]
        return bool(np.array_equal(sub, sub.T))

    # -- similarity classes ----------------------------------------------

    @cached_property
    def similarity(self) -> SimilarityPartition:
        n = self.n
        rep_of = np.arange(n)
        for u in self.units:
            conj = self.mul[self.mul[u], self.inv(u)]   # r -> u r u^-1
            rep_of = np.minimum(rep_of, rep_of[conj])
        # one more sweep in case min labels entered mid-loop; conjugation by
        # all units reaches the whole orbit from any point, so this settles.
        for u in self.units:
            conj = self.mul[self.mul[u], self.inv(u)]
            rep_of = np.minimum(rep_of, rep_of[conj])
        reps = np.unique(rep_of)
        index_of = {int(r): i for i, r in enumerate(reps)}
        class_of = np.array([index_of[int(r)] for r in rep_of])
        classes = [np.nonzero(class_of == i)[0] for i in range(len(reps))]
        invertible = np.array([int(r) in self.unit_set for r in reps])
        for i, cls in enumerate(classes):
            self._require(invertible[i] == all(int(x) in self.unit_set
                                               for x in cls),
                          "a similarity class mixes units and non-units")
        return SimilarityPartition(classes, reps, class_of, invertible)

    # -- principal left ideal poset ---------------------------------------

    @cached_property
    def ideals(self) -> IdealPoset:
        n = self.n
        masks = np.zeros((0, n), dtype=bool)
        seen = {}
        id_of = np.empty(n, dtype=np.int64)
        mask_list = []
        for a in range(n):
            mask = np.zeros(n, dtype=bool)
            mask[self.mul[:, a]] = True          # I_a = { x * a : x in R }
            key = mask.tobytes()
            if key not in seen:
                seen[key] = len(mask_list)
                mask_list.append(mask)
            id_of[a] = seen[key]
        masks = np.array(mask_list)
        k = len(mask_list)
        generators = [np.nonzero(id_of == i)[0] for i in range(k)]
        reps = np.array([int(g[0]) for g in generators])
        leq = np.zeros((k, k), dtype=bool)
        for i in range(k):
            leq[i] = ~np.any(masks[i] & ~masks, axis=1)   # i subset of j
        for i in range(k):
            self._require(masks[i, reps[i]], "a is not in its ideal I_a")
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

    def transitivity_witness(self, a: int, x: int, y: int) -> int:
        s = set(self.s_set(a).tolist())
        if int(x) not in s or int(y) not in s:
            raise ValueError("witness is only defined for pairs inside S_a")
        hits = np.nonzero(self.mul[self.units, x] == y)[0]
        if len(hits) == 0:
            raise NoWitness(f"no unit maps {x} to {y} within S_{a}")
        return int(self.units[hits[0]])

    def f_set(self, a: int) -> np.ndarray:
        """Class ids c with (C_c * S_a) meeting S_a."""
        sa = self.s_set(a)
        in_sa = np.zeros(self.n, dtype=bool)
        in_sa[sa] = True
        hits = []
        for ci, cls in enumerate(self.similarity.classes):
            prods = self.mul[np.ix_(cls, sa)]
            if in_sa[prods].any():
                hits.append(ci)
        return np.array(hits)

    def __repr__(self):
        return f"FiniteRing({self.label}, n={self.n})"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def zn_ring(n: int) -> FiniteRing:
    """Z_n with natural enumeration; n = 1 gives the zero ring (one == zero)."""
    if n < 1:
        raise ParamOutOfRange(f"field 'n': Z_{n} needs n >= 1")
    if n > SIZE_CAP:
        raise TooLarge(f"Z_{n} exceeds the {SIZE_CAP} cap")
    idx = np.arange(n)
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

    # addition is slot-wise
    add = np.zeros((n, n), dtype=np.int64)
    for (i, j), w in weight.items():
        add += fadd[E[:, i, j][:, None], E[:, i, j][None, :]].astype(np.int64) * w

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
