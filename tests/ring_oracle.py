"""Oracles for the ring-structure layer: the loops written the plain way.

triple_axiom_failure checks every ring axiom on every triple of elements,
O(n^3).  similarity_sweep conjugates by every unit in turn, ideals_by_column
keys each principal left ideal by the bytes of its membership mask,
f_set_by_class looks at every element of every class, units_by_argmax
reads inverses off the whole n x n mask y x == 1, and
class_products_by_division counts every product of the table.
rings.FiniteRing and mixing.class_products get the same answers from
generating sets, orbit certificates and blockwise passes.
"""

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
