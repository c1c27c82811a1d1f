"""Oracles for the ring-structure layer: the loops written the plain way.

triple_axiom_failure checks every ring axiom on every triple of elements,
O(n^3).  similarity_sweep conjugates by every unit in turn, ideals_by_column
keys each principal left ideal by the bytes of its membership mask,
ideals_by_bit_table sorts the n x n bit table of all n ideals,
f_set_by_class looks at every element of every class, f_set_by_rep at
every product of a class representative with S_a, units_by_argmax
reads inverses off the whole n x n mask y x == 1,
class_products_by_division counts every product of the table,
mul_counts_by_loop adds up the weights of B one product at a time,
certificate_counts_by_class counts the products one similarity class at a
time, and transfer_by_cosets sums Q over R_{x,y} (r_xy) and the coset
representatives of LStab(y) (coset_reps).  rings.FiniteRing,
mixing.class_products, chain.b_rows and stationary's routes get the same
answers from generating sets, orbit certificates, blockwise passes and
the lumped counts.
"""

from fractions import Fraction

import numpy as np


def triple_axiom_failure(add, mul, zero, one):
    """The first ring axiom that the tables break, or None."""
    add, mul = np.asarray(add), np.asarray(mul)
    n = len(add)
    idx = np.arange(n)
    if add.min() < 0 or add.max() >= n or mul.min() < 0 or mul.max() >= n:
        return "a table leaves the ring"
    if not np.array_equal(add[zero], idx):
        return "zero is not neutral"
    if not np.array_equal(add, add.T):
        return "addition is not commutative"
    if not np.all((add == zero).sum(axis=1) == 1):
        return "some element has no additive inverse"
    if not (np.array_equal(mul[one], idx)
            and np.array_equal(mul[:, one], idx)):
        return "one is not an identity"
    b, c = idx[:, None], idx[None, :]
    for a in idx:
        if not np.array_equal(add[add[a, b], c], add[a, add[b, c]]):
            return "addition is not associative"
        if not np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]]):
            return "multiplication is not associative"
        if not np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]]):
            return "left distributivity fails"
        if not np.array_equal(mul[add[a, b], c], add[mul[a, c], mul[b, c]]):
            return "right distributivity fails"
    return None


def similarity_sweep(ring):
    """(reps, class_of, classes, invertible) by one sweep over all units:
    after unit u, rep_of[x] <= rep_of[u x u^-1], so one pass already
    reaches each class's least element."""
    rep_of = np.arange(ring.n)
    for u in ring.units:
        conj = ring.mul[ring.mul[u], ring.inv(int(u))]
        rep_of = np.minimum(rep_of, rep_of[conj])
    reps = np.unique(rep_of)
    index_of = {int(r): i for i, r in enumerate(reps)}
    class_of = np.array([index_of[int(r)] for r in rep_of])
    classes = [np.nonzero(class_of == i)[0] for i in range(len(reps))]
    invertible = np.array([int(r) in ring.unit_set for r in reps])
    return reps, class_of, classes, invertible


def ideals_by_column(ring):
    """(masks, reps, id_of, generators, leq), one column of the table at a
    time, ideals numbered in order of first appearance."""
    seen, mask_list = {}, []
    id_of = np.empty(ring.n, dtype=np.int64)
    for a in range(ring.n):
        mask = np.zeros(ring.n, dtype=bool)
        mask[ring.mul[:, a]] = True
        key = mask.tobytes()
        if key not in seen:
            seen[key] = len(mask_list)
            mask_list.append(mask)
        id_of[a] = seen[key]
    masks = np.array(mask_list)
    k = len(mask_list)
    generators = [np.nonzero(id_of == i)[0] for i in range(k)]
    reps = np.array([int(g[0]) for g in generators])
    leq = np.array([[not np.any(masks[i] & ~masks[j]) for j in range(k)]
                    for i in range(k)])
    return masks, reps, id_of, generators, leq


def ideals_by_bit_table(ring):
    """(masks, reps, id_of, generators, leq) from the value sets of all n
    columns as an n x n bit table, one np.unique over its rows as raw
    bytes, and containment tested on the masks."""
    n = ring.n
    member = np.zeros((n, n), dtype=bool)
    member[np.arange(n)[:, None], ring.mul.T] = True      # row a is I_a
    packed = np.packbits(member, axis=1)
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    reps = first[order]
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    id_of = rank[inverse.ravel()]
    masks = member[reps]
    k = len(reps)
    generators = [np.flatnonzero(id_of == i) for i in range(k)]
    leq = np.array([~np.any(masks[i] & ~masks, axis=1) for i in range(k)])
    return masks, reps, id_of, generators, leq


def f_set_by_rep(ring, a):
    """Class ids c with C_c * S_a meeting S_a, deciding each class by its
    representative: one k x |S_a| gather of the table."""
    sa = ring.s_set(a)
    in_sa = np.zeros(ring.n, dtype=bool)
    in_sa[sa] = True
    prods = ring.mul[np.ix_(ring.similarity.reps, sa)]
    return np.flatnonzero(in_sa[prods].any(axis=1))


def f_set_by_class(ring, a):
    """Class ids c with some x in C_c and s in S_a such that x s is in S_a."""
    sa = ring.s_set(a)
    in_sa = np.zeros(ring.n, dtype=bool)
    in_sa[sa] = True
    return [ci for ci, cls in enumerate(ring.similarity.classes)
            if in_sa[ring.mul[np.ix_(cls, sa)]].any()]


def units_by_argmax(ring):
    """(units, inverse map): the columns x of the mask y x == 1 that hold a
    True, each with its least such y."""
    left_hits = ring.mul == ring.one
    xs = np.nonzero(left_hits.any(axis=0))[0]
    ys = np.argmax(left_hits[:, xs], axis=0)
    return xs, dict(zip(xs.tolist(), ys.tolist()))


def class_products_by_division(ring):
    """(i, j, c, count) from all n^2 products: the pairs in C_i x C_j with
    product in C_c, divided by |C_c|, which must divide them."""
    part = ring.similarity
    k = len(part)
    cls = part.class_of.astype(np.int64)
    keys = (cls[:, None] * k + cls[None, :]) * k + cls[ring.mul]
    keys, totals = np.unique(keys, return_counts=True)
    ij, c = np.divmod(keys, k)
    i, j = np.divmod(ij, k)
    sizes = np.array([len(cl) for cl in part.classes])[c]
    assert not np.any(totals % sizes)
    return i, j, c, totals // sizes


def mul_counts_by_loop(ring, weights):
    """W[a, b] = sum of weights[x] over x with x*a == b, one product x*a
    at a time in Python integers: the numerators of B for integer weights
    over their common denominator.  int64 where the weights sum below
    2^63, dtype object from there."""
    n = ring.n
    mul = ring.mul.tolist()
    weights = [int(v) for v in weights]
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for a in range(n):
            out[a][mul[x][a]] += weights[x]
    return np.array(out, dtype=np.int64 if sum(weights) < 2 ** 63 else object)


def certificate_counts_by_class(ring, w, den):
    """C[y, b] = sum of w[z] over z x = y with x in S_b, the counts of
    the pi M = pi certificate of stationary_solve, by one bincount per
    similarity class over |C| n int64 keys y k + b(x).  int64 below
    n den < 2^63, dtype object from there."""
    n, poset = ring.n, ring.ideals
    k = len(poset)
    C = np.zeros((n, k), dtype=np.int64 if n * den < 2 ** 63 else object)
    for cls in ring.similarity.classes:
        if w[cls[0]]:
            keys = (ring.mul[cls].astype(np.int64) * k + poset.id_of).ravel()
            hits = np.bincount(keys, minlength=C.size).reshape(C.shape)
            C += int(w[cls[0]]) * hits.astype(C.dtype, copy=False)
    return C


def r_xy(ring, x, y):
    """All r with r y == x, ascending: empty unless I_x lies in I_y, and
    else a coset of LAnn(y)."""
    return [r for r in range(ring.n) if ring.mul[r, y] == x]


def coset_reps(ring, y):
    """Least-index representatives of the left cosets of LStab(y) in U_R:
    each unit u whose image u y no earlier unit reached, so that the reps
    biject with S_y by u -> u y."""
    seen, reps = set(), []
    for u in ring.units.tolist():
        if int(ring.mul[u, y]) not in seen:
            seen.add(int(ring.mul[u, y]))
            reps.append(u)
    return reps


def transfer_by_cosets(ring, Q, x, y):
    """sum over coset reps u of LStab(y) and r in R_{x,y} of Q(r u^{-1}),
    one Fraction at a time: sum of B(z, x) over z = u y in S_y, since
    r u^{-1} z = x iff r y = x."""
    total = Fraction(0)
    for u in coset_reps(ring, y):
        uinv = ring.inv(u)
        for r in r_xy(ring, x, y):
            total += Q.weights[ring.similarity.class_of[ring.mul[r, uinv]]]
    return total
