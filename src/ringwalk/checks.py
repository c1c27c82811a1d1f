"""Cross-oracle and structural verification used by the CLI verify command.

Every function returns (ok, detail).  Every check is exhaustive or an
exact identity at every ring size: exact rationals or integers, or exact
arithmetic mod a fixed prime named in the detail.  No check diagonalizes
an n x n matrix or matches eigenvalues within a tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from . import gl2, spectrum
from .chain import ClassDistribution, TransitionMatrix, build_B, chain_matrix
from .errors import InvariantViolation, UnsupportedQ
from .mixing import d_of_t, mixing_bound
from .rings import FiniteRing
from .stationary import (
    stationary_gl2,
    stationary_recursive,
    stationary_solve,
    stationary_uniform,
)

_ROWS = 64                 # rows of B (and M) per blockwise comparison


def check_orbit_stabilizer(ring: FiniteRing):
    for a in ring.phi:
        if len(ring.s_set(a)) * len(ring.lstab(int(a))) != len(ring.units):
            return False, f"|S_a| |LStab(a)| != |U| at a={a}"
    return True, f"{len(ring.phi)} generators"


def check_s_partition(ring: FiniteRing):
    seen = np.zeros(ring.n, dtype=int)
    for s in ring.ideals.generators:
        seen[s] += 1
    ok = bool(np.all(seen == 1))
    return ok, "generator sets partition the ring" if ok else "overlap found"


def check_rxy_sizes(ring: FiniteRing):
    """|R_{x,y}| is |LAnn(y)| when I_x is inside I_y and 0 otherwise, where
    R_{x,y} = {r : r y = x}: one bincount of each column of the table."""
    poset = ring.ideals
    for y in range(ring.n):
        # bincount widens the uint16 column to intp; each value is below n
        counts = np.bincount(ring.mul[:, y], minlength=ring.n)
        contained = poset.leq[poset.id_of, poset.id_of[y]]
        bad = np.nonzero((counts > 0) != contained)[0]
        if len(bad):
            return False, (f"emptiness of R_{{{bad[0]},{y}}} disagrees with "
                           f"the poset")
        bad = np.nonzero(contained & (counts != counts[ring.zero]))[0]
        if len(bad):
            return False, f"|R_{{{bad[0]},{y}}}| != |LAnn({y})|"
    return True, "exhaustive"


def check_witnesses(ring: FiniteRing):
    """Transitivity of units on every generator set: U x = S_a.  The unit
    orbits partition the ring, so one x in S_a covers all of S_a."""
    n = len(ring.mul)
    for a in ring.phi:
        sa = ring.s_set(a)
        orbit = np.zeros(n, dtype=bool)
        orbit[ring.mul[ring.units, sa[0]]] = True
        member = np.zeros(n, dtype=bool)
        member[sa] = True
        if not np.array_equal(orbit, member):
            return False, f"units do not act transitively on S_{a}"
    return True, "unit action transitive on every S_a"


def check_conjugation_invariance(ring: FiniteRing, B: TransitionMatrix):
    """B(u c, u d) = B(c, d) for every unit u.  The units with this property
    are closed under products, so checking a generating set of U_R is
    exhaustive.  B is compared _ROWS rows at a time, so no n x n copy is
    made."""
    num = B.matrix.num
    gens = ring.unit_generators
    for u in gens:
        perm = ring.mul[u, :]
        for s in range(0, ring.n, _ROWS):
            if not np.array_equal(num[perm[s:s + _ROWS]][:, perm],
                                  num[s:s + _ROWS]):
                return False, f"B(u c, u d) != B(c, d) for unit {u}"
    return True, f"exhaustive: {len(gens)} generators of U_R"


def check_spectrum_two_way(ring: FiniteRing, B: TransitionMatrix):
    """B(x, y) != 0 only where I_y lies inside I_x.  The S_a partition the
    ring (s-partition), so listing them along a linear extension of the
    ideal poset makes B block upper triangular: eig(B) is exactly the union
    of the spectra of the diagonal blocks B[S_a, S_a] (block_spectrum).
    B is compared _ROWS rows at a time, so no n x n temporary is made."""
    poset = ring.ideals
    ids = poset.id_of
    for s in range(0, ring.n, _ROWS):
        allowed = poset.leq.T[np.ix_(ids[s:s + _ROWS], ids)]
        bad = np.argwhere((B.matrix.num[s:s + _ROWS] != 0) & ~allowed)
        if len(bad):
            x, y = bad[0] + (s, 0)
            return False, f"B({x}, {y}) != 0 but I_{y} is not inside I_{x}"
    return True, (f"B block-triangular over {len(poset)} ideals: eig(B) is "
                  f"the union of the diagonal-block spectra, exactly")


def check_spectrum_gl2(ring: FiniteRing, Q: ClassDistribution):
    """The GL2 closed forms against B, exactly mod p: with D the lcm of Q's
    denominators, sum_i m_i (D lambda_i)^j = D^j tr(B^j) for j = 1..n.
    p > n, so by Newton's identities the characteristic polynomials of D B
    and of the closed forms agree mod p."""
    try:
        p, D, rows = spectrum.gl2_spectrum_mod_p(ring, Q)
    except UnsupportedQ as exc:
        return True, f"skipped: {exc}"
    traces = spectrum.power_traces_mod_p(ring, Q, p, D, ring.n)
    values = np.array([v for _, _, v, _ in rows], dtype=np.int64)
    mults = np.array([m for *_, m in rows], dtype=np.int64) % p
    powers = np.ones_like(values)
    for j, trace in enumerate(traces, 1):
        powers = powers * values % p
        if int(mults @ powers % p) != trace:
            return False, (f"power sum {j} of D eig(B) differs from the "
                           f"closed forms' mod p={p}")
    return True, (f"{len(rows)} closed forms, total q^4 = {ring.n}: power "
                  f"sums j=1..{ring.n} equal mod p={p}")


def check_m_shift(B: TransitionMatrix, M: TransitionMatrix):
    """B 1 = 1, M 1 = 1 and M - (1 - alpha) B = (alpha/n) J, in integers.
    Then eig(M) is 1 together with (1 - alpha) eig(B) less one copy of 1
    (Brauer, Duke Math. J. 19, 1952), with no eigensolve.  The identity is
    compared _ROWS rows at a time, so no n x n temporary is made."""
    n, p, s = M.n, M.alpha.numerator, M.alpha.denominator
    L = lcm(B.matrix.den, M.matrix.den)
    b, m = B.matrix.num, M.matrix.num
    if (b.min() < 0 or m.min() < 0 or np.any(b.sum(axis=1) != B.matrix.den)
            or np.any(m.sum(axis=1) != M.matrix.den)):
        return False, "a row of B or M is not a probability vector"
    # over the denominator s n L: s n M - (s - p) n B = p J, with each
    # term at most s n L now that 0 <= B, M <= 1
    cm, cb = s * n * (L // M.matrix.den), (s - p) * n * (L // B.matrix.den)
    dtype = object if s * n * L >= 2 ** 63 else np.int64
    for i in range(0, n, _ROWS):
        rows = slice(i, i + _ROWS)
        if np.any(cm * np.asarray(m[rows], dtype)
                  - cb * np.asarray(b[rows], dtype) != p * L):
            return False, "M != (1 - alpha) B + (alpha/n) J"
    return True, (f"alpha={M.alpha}: M = (1-alpha) B + (alpha/n) J and "
                  f"B 1 = M 1 = 1, exactly")


def check_stationary_agreement(ring: FiniteRing, Q: ClassDistribution, alpha,
                               pi_recursive):
    """pi_recursive against the lumped solve and every closed form whose
    domain holds.  A solve that fails its pi M = pi certificate fails the
    check."""
    try:
        methods = {"recursive": pi_recursive,
                   "solve": stationary_solve(ring, Q, alpha)}
    except InvariantViolation as exc:
        return False, f"solve: {exc}"
    uniform_q = Q == ClassDistribution.uniform(ring)
    if uniform_q:
        methods["uniform-form"] = stationary_uniform(ring, alpha)
        if ring.descriptor.get("kind") == "matrix" \
                and ring.descriptor.get("size") == 2:
            methods["gl2-form"] = stationary_gl2(ring, alpha)
    names = sorted(methods)
    for name in names[1:]:
        if methods[name] != methods[names[0]]:
            return False, f"{name} disagrees with {names[0]}"
    return True, "+".join(names)


def t_mix_verdict(curve, eps, bound):
    """True if t_mix(eps) <= bound on a curve computed for t = 0..T, False
    if not, None if the curve cannot tell.

    A curve that ends above eps with T below the bound cannot tell: the
    geometric bound d(t) <= (1-alpha)^t, checked on its own, gives
    d(t) <= eps from t = bound - 1 on.  From T >= bound on, a curve still
    above eps fails."""
    tm = curve.t_mix(eps)
    if tm is None and curve.ts[-1] < bound:
        return None
    return tm is not None and tm <= bound


def check_mixing(ring: FiniteRing, Q: ClassDistribution, alpha, T: int,
                 eps_list):
    curve = d_of_t(ring, Q, alpha, T)
    if not curve.bound_holds():
        return False, "d(t) exceeded (1-alpha)^t"
    undecided = []
    for eps in eps_list:
        bound = mixing_bound(alpha, eps)
        verdict = t_mix_verdict(curve, eps, bound)
        if verdict is False:
            return False, f"t_mix({eps}) = {curve.t_mix(eps)} exceeds {bound}"
        if verdict is None:
            undecided.append(str(eps))
    detail = f"T={T}, eps={list(map(str, eps_list))}"
    if undecided:
        return True, (f"skipped: d({T}) > eps for eps={undecided} and T "
                      f"is below the bound; geometric bound holds, {detail}")
    return True, detail


def check_mult_free_expectations(ring: FiniteRing):
    """Multiplicity-freeness where the group structure guarantees it: the
    zero element everywhere, every non-unit generator in commutative rings
    and in the upper triangular rings, rank-one generators in M2(F_q)."""
    desc = ring.descriptor
    expect_all = ring.is_commutative or desc.get("kind") == "upper_triangular"
    for a in ring.phi:
        a = int(a)
        if a in ring.unit_set:
            continue
        expected = a == ring.zero or expect_all or (
            desc.get("kind") == "matrix" and desc.get("size") == 2
            and gl2.matrix_rank(ring.entries[a].ravel(), desc["q"]) == 1)
        if expected and not spectrum.is_multiplicity_free_nonunit(ring, a):
            return False, f"generator {a}: expected True, got False"
    return True, "all guaranteed predicates hold"


def full_suite(ring: FiniteRing, Q: ClassDistribution, alpha,
               T: int = 20, eps_list=(Fraction(1, 4), Fraction(1, 10))):
    """The verify command's check list: [(name, ok, detail)]."""
    out = [("ring-axioms", True, f"exhaustive: "
            f"{len(ring.additive_generators)} additive generators")]
    for name, fn in (("orbit-stabilizer", check_orbit_stabilizer),
                     ("s-partition", check_s_partition),
                     ("rxy-annihilator", check_rxy_sizes),
                     ("unit-transitivity", check_witnesses),
                     ("multiplicity-free", check_mult_free_expectations)):
        ok, detail = fn(ring)
        out.append((name, ok, detail))
    out += _walk_checks(ring, Q, alpha)
    ok, detail = check_mixing(ring, Q, alpha, min(T, 20), list(eps_list))
    out.append(("mixing-bound", ok, detail))
    return out


def _walk_checks(ring: FiniteRing, Q: ClassDistribution, alpha):
    """The checks on B, M and the recursive pi, each computed once.  M is
    built from this B, last, and B and M are dropped before pi is solved."""
    B = build_B(ring, Q)
    out = [("conjugation-invariance", *check_conjugation_invariance(ring, B)),
           ("spectrum-two-way", *check_spectrum_two_way(ring, B)),
           ("spectrum-gl2", *check_spectrum_gl2(ring, Q)),
           ("spectrum-m-shift", *check_m_shift(B, chain_matrix(B, alpha)))]
    del B
    pi = stationary_recursive(ring, Q, alpha)
    out.append(("stationary-agreement",
                *check_stationary_agreement(ring, Q, alpha, pi)))
    return out
