"""The spectrum of the multiplication matrix B: routes and exact checks.

1. eig_numeric: plain dense diagonalization, for display and as the test
   suite's oracle.
2. block_spectrum: the diagonal blocks of the exact B on each S_a, one per
   principal-left-ideal generator a, each read as floats on its own; the
   transposed block B[S_a, S_a]^T keeps only the components of x*s that
   stay inside S_a.  B is block-triangular over the ideal poset
   (checks.check_spectrum_two_way), so the block spectra make up eig(B).
   The unit block is read from U_R's characters and the row B[1, U] when
   unit_group_characters has a table; the other blocks, and the unit block
   of a ring with no table, go to eig_numeric.
3. gl2_spectrum: closed-form eigenvalues for M2(F_q), odd prime q, from the
   GL2 character table, with predicted multiplicities.  gl2_spectrum_mod_p
   is its twin in F_p, checked against power_traces_mod_p exactly.
4. is_multiplicity_free_nonunit: one exact route, |S_a| <= EIG_CAP, with
   no character table: U_R's orbital algebra on S_a, decided on one row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from . import gl2
from .chain import ClassDistribution, TransitionMatrix
from .errors import (
    ConvergenceFailure,
    InvariantViolation,
    RingMismatch,
    TooLarge,
    UnsupportedQ,
)
from .fields import angle_to_complex, is_prime, primitive_root
from .mixing import class_products
from .rings import FiniteRing, orbit_labels

MERGE_TOL = 1e-8
EIG_CAP = 4096
# gl2_spectrum's unit block divides each weighted character sum by dim(rho):
# the scalar by which a class sum acts on an irreducible representation.
GL2_NORMALIZATION = "class-sum-scalar"


@dataclass
class EigenvalueMultiset:
    """Merged eigenvalues with multiplicities."""

    values: np.ndarray
    mults: np.ndarray

    @classmethod
    def from_values(cls, evs, tau: float = MERGE_TOL) -> "EigenvalueMultiset":
        """Merge the values linked, directly or through a chain, by pairs at
        most tau apart; each group's value is its mean.  Equal values share
        a group, so the pair search runs over the distinct values."""
        evs = np.asarray(evs, dtype=np.complex128).ravel()
        evs = evs[np.lexsort((evs.imag, evs.real))]
        distinct, inv = np.unique(evs, return_inverse=True, equal_nan=False)
        k = len(distinct)
        # pairs j < i within tau have real parts within tau; the window of
        # 2 tau holds them all despite the rounding of real - 2 tau
        lo = np.searchsorted(distinct.real, distinct.real - 2 * tau)
        width = np.arange(k) - lo
        i = np.repeat(np.arange(k), width)
        j = np.arange(len(i)) - np.repeat(np.cumsum(width) - width - lo, width)
        near = np.abs(distinct[i] - distinct[j]) <= tau
        i, j = i[near], j[near]
        # label each distinct value with the least index of its group
        label = np.arange(k)
        while True:
            low = label.copy()
            np.minimum.at(low, i, label[j])
            np.minimum.at(low, j, label[i])
            low = low[low]
            if np.array_equal(low, label):
                break
            label = low
        label = label[inv]      # each value takes its distinct value's
        _, counts = np.unique(label, return_counts=True)
        members = evs[np.argsort(label, kind="stable")]
        centers = np.array([members[a:a + c].mean() for a, c in
                            zip(np.cumsum(counts) - counts, counts)])
        order = np.lexsort((centers.imag, centers.real))
        return cls(centers[order], counts[order])

    def total(self) -> int:
        return int(self.mults.sum())

    def __iter__(self):
        return iter(zip(self.values, self.mults))


def eig_numeric(matrix, tau: float = MERGE_TOL) -> EigenvalueMultiset:
    """Eigenvalues of a float matrix via LAPACK, then merged."""
    arr = np.asarray(matrix, dtype=np.float64)
    n = arr.shape[0]
    if n > EIG_CAP:
        raise TooLarge(f"eigen solve capped at {EIG_CAP}, got {n}")
    try:
        evs = np.linalg.eigvals(arr)
    except np.linalg.LinAlgError as exc:  # surfaced, never retried looser
        raise ConvergenceFailure(str(exc)) from exc
    return EigenvalueMultiset.from_values(evs, tau)


def block_spectrum(ring: FiniteRing, B: TransitionMatrix, tau=MERGE_TOL):
    """The spectra of B's diagonal blocks, one per ideal generator a.

    B is the exact multiplication matrix of `ring`.  Only its blocks
    B[S_a, S_a], and the row B[1, U] for the character route, are turned
    into floats, so no n x n float copy is made.  The block of a is
    B[S_a, S_a]^T: P[s', s] = B[s, s'] is the action of sum_x Q(x) x on
    span(S_a) with the components leaving S_a dropped.  The unit block
    comes from unit_block_spectrum, every other block from eig_numeric.
    Returns [(generator, EigenvalueMultiset)], whose totals sum to n.
    """
    if B.ring is not ring:
        raise RingMismatch(f"B was built on another ring object "
                           f"({B.ring.label}), not on {ring.label}")
    detail = []
    for a in ring.phi:
        if int(a) in ring.unit_set:
            em = unit_block_spectrum(ring, B, tau)
        else:
            sa = ring.s_set(a)
            em = eig_numeric(B.matrix.float_block(sa, sa).T, tau)
        detail.append((int(a), em))
    total = sum(em.total() for _, em in detail)
    if total != ring.n:
        raise InvariantViolation(f"the block spectra hold {total} "
                                 f"eigenvalues, not n = {ring.n}")
    return detail


def unit_block_spectrum(ring: FiniteRing, B: TransitionMatrix,
                        tau: float = MERGE_TOL) -> EigenvalueMultiset:
    """Spectrum of the unit block B[U, U]^T of the exact multiplication
    matrix B.

    On units B is left multiplication by sum_u Q(u) u, Q(u) = B[1, u].  Q is
    constant on the conjugacy classes of U_R, so that element is central in
    C[U_R] and acts on each chi-isotypic part, of dimension chi(1)^2, by
    omega_chi = sum_u Q(u) chi(u) / chi(1) (Diaconis & Shahshahani 1981).
    Only the row B[1, U] is read as floats.  Each omega_chi is a fixed-order
    numpy sum over the units, with no BLAS call; conjugate characters hold
    exactly conjugate values (fields.angle_to_complex), so their omegas are
    exact conjugates, as LAPACK returns the eigenvalue pairs of a real
    matrix.  A ring with no character table has its block B[U, U]
    diagonalized by eig_numeric instead.
    """
    units = ring.units
    chars = unit_group_characters(ring)
    if chars is None:
        return eig_numeric(B.matrix.float_block(units, units).T, tau)
    q = B.matrix.float_block([ring.one], units)[0]
    cls = ring.similarity.class_of[units]
    per_class = np.zeros(len(ring.similarity))
    per_class[cls] = q
    if not np.array_equal(per_class[cls], q):
        raise InvariantViolation(f"{ring.label}: B[1, U] is not constant on "
                                 f"the similarity classes of units")
    dims = chars[:, np.searchsorted(units, ring.one)]
    d = np.rint(dims.real).astype(np.int64)
    if np.any(d < 1) or np.any(np.abs(dims - d) > 1e-9):
        raise InvariantViolation(f"{ring.label}: a character degree "
                                 f"chi(1) is not a positive integer")
    if int((d * d).sum()) != len(units):
        raise InvariantViolation(
            f"{ring.label}: the squared character degrees sum to "
            f"{int((d * d).sum())}, not |U| = {len(units)}")
    omega = (chars * q).sum(axis=1) / d
    return EigenvalueMultiset.from_values(np.repeat(omega, d * d), tau)


def unit_block_route(ring: FiniteRing) -> str:
    """How unit_block_spectrum reads the unit block of `ring`.

    It first meets the caps block_spectrum would meet, in the same order
    and with the same TooLarge messages (|U| <= EIG_CAP for an abelian
    character table, |S_a| <= EIG_CAP for each block that goes to
    eig_numeric), so a caller can refuse a ring before it builds B."""
    for a in ring.phi:
        size = len(ring.s_set(a))
        if size > EIG_CAP and (int(a) not in ring.unit_set
                               or unit_group_characters(ring) is None):
            raise TooLarge(f"eigen solve capped at {EIG_CAP}, got {size}")
    chars = unit_group_characters(ring)
    if chars is None:
        u = len(ring.units)
        return f"lapack ({u}x{u})"
    return f"characters ({len(chars)} irreps)"


# ---------------------------------------------------------------------------
# closed forms for M2(F_q)
# ---------------------------------------------------------------------------

@dataclass
class Gl2SpectrumReport:
    """Closed-form B eigenvalues for M2(F_q) with predicted multiplicities."""

    q: int
    rows: list            # (block label, irrep label, dim, eigenvalue, mult)

    def total(self) -> int:
        return sum(r[4] for r in self.rows)


def _gl2_classes(ring: FiniteRing, tab: gl2.CharacterTable) -> np.ndarray:
    """GL2 class index of each invertible similarity class of M2(F_q), -1
    for the non-invertible ones; one classify call per invertible class,
    with its size cross-checked against the table."""
    part = ring.similarity
    out = np.full(len(part), -1)
    for ci in np.nonzero(part.invertible)[0]:
        gi = tab.classify(ring.entries[part.reps[ci]].ravel())
        if tab.classes[gi].size != len(part.classes[ci]):
            raise InvariantViolation(
                f"GL2 class {gi} has {tab.classes[gi].size} elements in "
                f"the table but {len(part.classes[ci])} in {ring.label}")
        out[ci] = gi
    return out


def _gl2_class_data(ring: FiniteRing, Q: ClassDistribution):
    """Split the ring's similarity classes into GL2 classes and the
    non-invertible tags, with sizes cross-checked against the table."""
    q = gl2.require_m2_ring(ring)
    tab = gl2.character_table(q)
    part = ring.similarity
    gl2_of = _gl2_classes(ring, tab)
    invertible = []       # (gl2 class index, Q weight, ring size)
    q_y0 = Fraction(0)
    q_yt = {}
    q_zero = None
    for ci, cls in enumerate(part.classes):
        rep = int(part.reps[ci])
        w = Q.weights[ci]
        if part.invertible[ci]:
            invertible.append((int(gl2_of[ci]), w, len(cls)))
        else:
            tag = gl2.classify_nonunit_class(ring, rep)
            if tag == ("zero",):
                q_zero = w
            elif tag == ("Y0",):
                q_y0 = w
            else:
                q_yt[tag[1]] = w
    if q_zero is None or len(q_yt) != q - 1:
        raise InvariantViolation(
            f"{ring.label}: the non-unit classes are not the zero class, Y_0 "
            f"and {q - 1} classes Y_t")
    return tab, invertible, q_y0, q_yt, q_zero


def _gl2_rows(ring: FiniteRing, Q: ClassDistribution, values_of, weigh):
    """Closed-form rows (block, irrep label, dim, dim * eigenvalue,
    multiplicity) of B on M2(F_q), odd prime q, in one number system:
    values_of(table) is the character table in it (irreps x classes) and
    weigh(w) a Q weight in it."""
    q = gl2.require_m2_ring(ring)
    if q == 2:
        raise UnsupportedQ(
            "q = 2 has a different class structure; use block_spectrum")
    tab, invertible, q_y0, q_yt, _ = _gl2_class_data(ring, Q)
    values = values_of(tab)

    def chi(rep, kind, t):
        return values[tab.irrep_index(rep), tab.class_index(kind, (t,))]

    def unit_sum(rep):
        row = values[tab.irrep_index(rep)]
        return sum(weigh(w) * size * row[gi] for gi, w, size in invertible)

    rows = []
    # (a) unit block: weighted class sums act on the regular representation
    for rep in tab.irreps:
        rows.append(("unit", rep.label(), rep.dim, unit_sum(rep),
                     rep.dim ** 2))
    # (b) the q+1 rank-one blocks share one spectrum
    for rep in gl2.rank_one_sigma(q):
        s = unit_sum(rep) + weigh(q_y0) * (
            (q * q - 1) * chi(rep, "unipotent", 1)
            - (q - 1) * chi(rep, "central", 1))
        for t, w in q_yt.items():
            s += weigh(w) * ((q * q - 1) * chi(rep, "unipotent", t)
                             + chi(rep, "central", t))
        rows.append(("rank-one", rep.label(), rep.dim, s, (q + 1) * rep.dim))
    # (c) zero block
    rows.append(("zero", "trivial", 1, weigh(Fraction(1)), 1))
    total = sum(r[4] for r in rows)
    if total != q ** 4:
        raise InvariantViolation(f"GL2 multiplicities sum to {total}, "
                                 f"not q^4 = {q ** 4}")
    return rows


def gl2_spectrum(ring: FiniteRing, Q: ClassDistribution) -> Gl2SpectrumReport:
    """Closed-form spectrum of B for M2(F_q), odd prime q.

    Each unit-block eigenvalue is the weighted character sum divided by
    dim(rho) (GL2_NORMALIZATION).
    """
    rows = _gl2_rows(ring, Q, lambda tab: tab.values, complex)
    return Gl2SpectrumReport(ring.descriptor["q"], [
        (block, label, dim, s / dim, mult)
        for block, label, dim, s, mult in rows])


def gl2_spectrum_mod_p(ring: FiniteRing, Q: ClassDistribution):
    """The rows of gl2_spectrum in F_p, exactly: (p, D, rows) with rows
    (block, irrep label, D * eigenvalue mod p, multiplicity).

    p is the least prime above q^4 with p = 1 (mod q^2 - 1), so F_p has a
    primitive (q^2 - 1)-th root of unity zeta; the angle a/(q^2 - 1) maps
    to zeta^a, a ring map on the cyclotomic integers holding the character
    values.  D, the lcm of Q's class-weight denominators, makes D * Q and
    so D * eigenvalue integral there.
    """
    q = gl2.require_m2_ring(ring)
    m = q * q - 1
    p = next(p for p in itertools.count(m * (q ** 4 // m) + 1, m)
             if p > q ** 4 and is_prime(p))
    zeta = pow(primitive_root(p), (p - 1) // m, p)

    def root(theta):
        a = theta * m
        if a.denominator != 1:
            raise InvariantViolation(f"angle {theta} is not a multiple of "
                                     f"1/{m}")
        return pow(zeta, int(a) % m, p)

    D = lcm(*(w.denominator for w in Q.weights))
    rows = _gl2_rows(ring, Q, lambda tab: np.array(
        [[gl2.char_value(q, r, c, root) % p for c in tab.classes]
         for r in tab.irreps]), lambda w: int(w * D) % p)
    return p, D, [(block, label, int(s) * pow(dim, -1, p) % p, mult)
                  for block, label, dim, s, mult in rows]


def power_traces_mod_p(ring: FiniteRing, Q: ClassDistribution, p: int,
                       D: int, J: int) -> list:
    """D^j tr(B^j) mod p for j = 1..J, D the lcm of Q's class-weight
    denominators.

    B^j(x, x) sums mu_j(y) over y x = x, mu_j = Q^{*j} the law of a product
    of j Q-samples.  mu_j and fix(y) = #{x : y x = x} are constant on
    similarity classes, so tr(B^j) = sum_c |C_c| fix(r_c) mu_j[c], with
    D^j mu_j convolved on class weights from mixing.class_products.
    """
    part = ring.similarity
    k = len(part)
    i, j, c, count = class_products(ring)
    q_int = np.array([int(w * D) % p for w in Q.weights], dtype=np.int64)
    conv = np.zeros((k, k), dtype=np.int64)     # mu_{t+1} = mu_t @ conv
    np.add.at(conv, (j, c), q_int[i] * (count % p) % p)
    fix = (ring.mul[part.reps] == np.arange(ring.n)).sum(axis=1)
    weight = np.array([len(cl) for cl in part.classes]) * fix % p
    mu = np.zeros(k, dtype=np.int64)
    mu[part.class_of[ring.one]] = 1
    out = []
    for _ in range(J):
        mu = mu @ conv % p
        out.append(int(mu @ weight % p))
    return out


# ---------------------------------------------------------------------------
# U_R's characters and multiplicity-freeness
# ---------------------------------------------------------------------------

def fixed_point_counts(ring: FiniteRing, a: int) -> np.ndarray:
    """fix(u, S_a) for every unit u, in the order of ring.units."""
    sa = ring.s_set(a)
    return (ring.mul[np.ix_(ring.units, sa)] == sa[None, :]).sum(axis=1)


def unit_group_characters(ring: FiniteRing):
    """Irreducible characters of U_R as the rows of a (characters x units)
    complex array, columns in the order of ring.units.

    Available when the unit group is abelian (built directly, at most
    EIG_CAP units) or when the ring is M2(F_q) for an odd prime q (read off
    the GL2 table, one class lookup per similarity class of units).  None
    otherwise.  Built once per ring and kept on it; the array is read-only.
    """
    try:
        return ring._unit_group_characters
    except AttributeError:
        pass
    chars = None
    desc = ring.descriptor
    if ring.units_abelian:
        m = len(ring.units)
        roots = np.array([angle_to_complex(Fraction(k, m)) for k in range(m)])
        chars = roots[_abelian_characters(ring)]
    elif desc.get("kind") == "matrix" and desc.get("size") == 2 \
            and desc["q"] != 2 and is_prime(desc["q"]):
        tab = gl2.character_table(desc["q"])
        gl2_of = _gl2_classes(ring, tab)
        chars = tab.values[:, gl2_of[ring.similarity.class_of[ring.units]]]
    if chars is not None:
        chars.setflags(write=False)
    ring._unit_group_characters = chars
    return chars


def _abelian_characters(ring: FiniteRing) -> np.ndarray:
    """Characters of an abelian unit group U as exact angles: an int64
    (characters x units) array of numerators over m = |U|, columns in the
    order of ring.units.

    Built along a chain of cyclic extensions H < <H, g>, g^d the first power
    of g in H: each character chi of H extends in d ways, sending g to the
    angle (chi(g^d) + r) / d for r = 0..d-1, and h g^i to chi(h) + i times
    that.  Every such angle is a multiple of 1/m, as the exponent of U
    divides m.
    """
    if not ring.units_abelian:
        raise InvariantViolation(f"{ring.label}: the unit group is not "
                                 f"abelian")
    units, mul = ring.units, ring.mul
    m = len(units)
    if m > EIG_CAP:
        raise TooLarge(f"character table capped at {EIG_CAP} units, got {m}")
    subgroup = np.array([ring.one])
    member = np.zeros(ring.n, dtype=bool)
    member[ring.one] = True
    angles = np.zeros((1, 1), dtype=np.int64)   # characters x subgroup
    for g in map(int, units):
        if member[g]:
            continue
        d = 1
        x = g
        while not member[x]:
            x = int(mul[x, g])
            d += 1
        at_x = angles[:, np.flatnonzero(subgroup == x)[0]]
        gen = at_x[:, None] + m * np.arange(d)   # d times the angle of g
        if np.any(gen % d):
            raise InvariantViolation(f"{ring.label}: a character angle is "
                                     f"not a multiple of 1/{m}")
        gen = (gen // d).ravel()
        base = np.repeat(angles, d, axis=0)
        cosets = [subgroup]
        for _ in range(d - 1):
            cosets.append(mul[cosets[-1], g])
        angles = np.concatenate([(base + i * gen[:, None]) % m
                                 for i in range(d)], axis=1)
        subgroup = np.concatenate(cosets)
        member[subgroup] = True
    if len(angles) != m or not np.array_equal(np.sort(subgroup), units):
        raise InvariantViolation(
            f"{ring.label}: built {len(angles)} characters on a subgroup of "
            f"{len(subgroup)} units, not {m}")
    out = np.empty_like(angles)
    out[:, np.searchsorted(units, subgroup)] = angles
    return out


def is_multiplicity_free_nonunit(ring: FiniteRing, a: int) -> bool:
    """Whether U_R's permutation representation on S_a, a a non-unit with
    |S_a| = k <= EIG_CAP, is multiplicity free: whether the indicators A_o
    of the U_R-orbits o on S_a x S_a commute (Ceccherini-Silberstein,
    Scarabotti & Tolli 2008, ch. 4).  The orbit index L comes from
    orbit_labels under (s, t) -> (g s, g t), g a unit generator; its
    diagonal must be one orbit (U_R transitive) and sum_u fix(u)^2 = r |U|
    for its r orbits (Burnside).  A_o A_o' commutes with the unit action,
    so its row s0 = S_a[0], #{s : L[s0, s] = o, L[s, t] = o'} at t, decides
    it: commutative iff the int64 keys (L[s0, s], L[s, t], t), below r^2 k
    <= k^5 < 2^63, and those with o, o' swapped are equal multisets."""
    if int(a) in ring.unit_set:
        raise ValueError("multiplicity-freeness is defined for non-units")
    sa = ring.s_set(a)
    k = len(sa)
    if k > EIG_CAP:
        raise TooLarge(f"orbital index capped at |S_a| = {EIG_CAP}, got "
                       f"|S_{a}| = {k}")
    pos = np.zeros(ring.n, dtype=np.int64)
    pos[sa] = np.arange(k)
    imgs = (pos[ring.mul[g, sa]] for g in ring.unit_generators)
    perms = [(img[:, None] * k + img).ravel() for img in imgs]
    least, L = np.unique(orbit_labels(perms, k * k), return_inverse=True)
    r, L = len(least), L.reshape(k, k)
    if np.any(np.diagonal(L) != L[0, 0]):
        raise InvariantViolation(f"S_{a}: the diagonal of S_a x S_a is not "
                                 f"one U_R-orbit, so U_R is not transitive")
    fix = fixed_point_counts(ring, a).astype(np.int64)
    burnside = int((fix * fix).sum())
    if burnside != r * len(ring.units):
        raise InvariantViolation(f"S_{a}: Burnside count {burnside}/"
                                 f"{len(ring.units)} disagrees with {r} "
                                 f"orbits on S_a x S_a")
    first, t = L[0][:, None], np.arange(k)
    keys = (first * r + L) * k + t
    swapped = (L * r + first) * k + t
    return bool(np.array_equal(np.sort(keys, axis=None),
                               np.sort(swapped, axis=None)))
