"""Float comparisons of eigenvalue multisets, for tests that hold LAPACK
(eig_numeric) up against the block and closed-form spectrum routes, with
the dense float matrices and expanded multisets they compare; the
pairwise union-find merge that EigenvalueMultiset.from_values must
reproduce; the characters of an abelian unit group built one exact angle
at a time, which spectrum._abelian_characters must reproduce; and two
routes to multiplicity-freeness that spectrum.is_multiplicity_free_nonunit
must agree with: permutation-character multiplicities from a character
table, and the orbit-indicator matrices on S_a x S_a multiplied pairwise.
The program's own checks are exact and use none of this."""

from fractions import Fraction

import numpy as np

from ringwalk.errors import InvariantViolation

MATCH = 1e-6


def dense_float(matrix) -> np.ndarray:
    """A whole TransitionMatrix or ScaledMatrix as floats, each entry
    rounded as float(numerator) / float(den), as block_spectrum rounds a
    block."""
    m = getattr(matrix, "matrix", matrix)
    return m.num.astype(float) / float(m.den)


def expand(em) -> np.ndarray:
    """An EigenvalueMultiset's values, each repeated by its multiplicity."""
    return np.repeat(em.values, em.mults)


def block_values(detail) -> np.ndarray:
    """The values of block_spectrum's per-block multisets, concatenated."""
    return np.concatenate([expand(em) for _, em in detail])


def multisets_match(a, b, tol=MATCH) -> bool:
    """Greedy nearest-neighbour matching of two complex multisets."""
    a = np.sort_complex(np.asarray(a, dtype=np.complex128))
    b = np.sort_complex(np.asarray(b, dtype=np.complex128))
    if len(a) != len(b):
        return False
    used = np.zeros(len(b), dtype=bool)
    for x in a:
        # candidates sit in a window of matching real parts
        lo = np.searchsorted(b.real, x.real - tol)
        hi = np.searchsorted(b.real, x.real + tol, side="right")
        best = -1
        best_d = tol
        for j in range(lo, hi):
            if used[j]:
                continue
            d = abs(b[j] - x)
            if d <= best_d:
                best_d = d
                best = j
        if best < 0:
            return False
        used[best] = True
    return True


def numeric_multiplicity(expanded, value, tol=MATCH) -> int:
    return int(np.count_nonzero(np.abs(np.asarray(expanded) - value) <= tol))


def closed_form_values(report) -> np.ndarray:
    """Every eigenvalue of a Gl2SpectrumReport, repeated by multiplicity."""
    return np.concatenate([[v] * m for (_, _, _, v, m) in report.rows])


def shift_to_chain_values(b_values, alpha) -> np.ndarray:
    """eig(M) from eig(B) by Brauer's rank-one shift: one eigenvalue-1 copy
    stays at 1 and every other eigenvalue is scaled by (1 - alpha)."""
    vals = np.asarray(b_values, dtype=np.complex128).copy()
    ones = np.nonzero(np.abs(vals - 1) <= MATCH)[0]
    assert len(ones), "a stochastic matrix always has eigenvalue 1"
    vals *= float(1 - alpha)
    vals[ones[0]] = 1.0
    return vals


def union_find_merge(evs, tau):
    """(values, multiplicities) of the groups of values linked, directly or
    through a chain, by pairs at most tau apart; one pair at a time."""
    evs = np.asarray(evs, dtype=np.complex128).ravel()
    evs = evs[np.lexsort((evs.imag, evs.real))]
    k = len(evs)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # values are sorted by real part, so only a sliding window can link
    j0 = 0
    for i in range(k):
        while evs[i].real - evs[j0].real > tau:
            j0 += 1
        for j in range(j0, i):
            if abs(evs[i] - evs[j]) <= tau:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    centers = np.array([evs[idxs].mean() for idxs in groups.values()])
    counts = np.array([len(idxs) for idxs in groups.values()])
    order = np.lexsort((centers.imag, centers.real))
    return centers[order], counts[order]


def abelian_characters_by_dict(ring):
    """Characters of an abelian unit group, as {unit: exact angle} maps,
    built by extending along a chain of cyclic extensions."""
    mul = ring.mul
    chars = [{ring.one: Fraction(0)}]
    subgroup = [ring.one]
    member = {ring.one}
    for g in map(int, ring.units):
        if g in member:
            continue
        d = 1
        x = g
        while x not in member:
            x = int(mul[x, g])
            d += 1
        g_to_d = x
        new_chars = []
        for chi in chars:
            base = chi[g_to_d]
            for r in range(d):
                zeta = Fraction(base + r, d) % 1
                ext = {}
                for h in subgroup:
                    cur = h
                    for i in range(d):
                        ext[cur] = (chi[h] + i * zeta) % 1
                        cur = int(mul[cur, g])
                new_chars.append(ext)
        chars = new_chars
        subgroup = list(chars[0].keys())
        member = set(subgroup)
    assert len(member) == len(chars) == len(ring.units)
    return chars


def multiplicities(ring, a: int, fix, chars) -> np.ndarray:
    """<fix, chi> over U_R for every row chi of chars, as integers; fix is
    spectrum.fixed_point_counts(ring, a)."""
    vals = np.conj(chars) @ fix / len(ring.units)
    mults = np.rint(vals.real)
    off = np.abs(vals - mults) >= 1e-8
    if off.any():
        raise InvariantViolation(f"non-integral multiplicity {vals[off][0]} "
                                 f"on S_{a}")
    return mults.astype(np.int64)


def pair_orbit_labels(ring, sa: np.ndarray) -> np.ndarray:
    """Orbit label of each (s, t) pair of S_a x S_a under the diagonal
    left-multiplication action of U_R."""
    k = len(sa)
    pos = -np.ones(ring.n, dtype=np.int64)
    pos[sa] = np.arange(k)
    pair_ids = np.arange(k * k)
    labels = pair_ids.copy()
    # after unit u, labels[p] <= labels[u.p] <= u.p, so one sweep over all
    # units already brings each pair to its orbit's least pair id
    for u in ring.units:
        img = pos[ring.mul[u, sa]]
        perm = (img[:, None] * k + img[None, :]).ravel()
        labels = np.minimum(labels, labels[perm])
    return labels


def orbital_mult_free(ring, a: int) -> bool:
    """The centralizer-algebra answer, with no character table: the
    orbit-indicator matrices on S_a x S_a commute pairwise."""
    sa = ring.s_set(a)
    labels = pair_orbit_labels(ring, sa)
    k = len(sa)
    mats = [np.asarray(labels == o, dtype=np.int64).reshape(k, k)
            for o in np.unique(labels)]
    return all(np.array_equal(mats[i] @ mats[j], mats[j] @ mats[i])
               for i in range(len(mats)) for j in range(i + 1, len(mats)))
