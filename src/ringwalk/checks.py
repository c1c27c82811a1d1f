"""Cross-oracle and structural verification used by the CLI verify command.

Every check returns (ok, detail) and is exhaustive or an exact identity
at every ring size: exact rationals or integers, or exact arithmetic mod
a fixed prime named in the detail.  The one randomized check is
conjugation-invariance: Freivalds' test mod 3 primes drawn at random from
(2^18, 2^19), which a correct B always passes and a B that fails the
identity passes with probability at most g (f/N + 2^-18)^3, for g unit
generators, f = floor(bits(den)/18) and N primes in that range; its
detail names the bound (conjugation_test).  No check diagonalizes an
n x n matrix or matches eigenvalues within a tolerance.  The checks on B,
the R_{x,y} check among them, are per-block tests (*_test) that scan_b
runs over one pass of B's row blocks (chain.b_blocks): none holds an
n x n array, and a command reads each row block once for all of them,
under any Q.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import numpy as np

from . import gl2, spectrum
from .chain import ClassDistribution, b_blocks, check_alpha
from .errors import InvariantViolation, UnsupportedQ
from .fields import is_prime
from .mixing import d_of_t, mixing_bound
from .rings import FiniteRing
from .stationary import (
    stationary_gl2,
    stationary_recursive,
    stationary_solve,
    stationary_uniform,
)


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


def scan_b(ring: FiniteRing, Q: ClassDistribution, tests):
    """One pass over the row blocks of B for the triples (step, end,
    passed) of tests.  step(block, num, sizes, inside) is called on each
    block (block, num, sizes) of chain.b_blocks, where inside() is the
    block's containment matrix (_containment); sizes() and inside() are
    each built on the first call for the block and shared by every test.
    A step returns a failure detail or None, and is called until it first
    fails; the pass ends once every test has failed.  end, None for a test
    decided block by block, is called once the pass has read every row,
    for the failure detail or None.  Returns (ok, its first failure or
    passed) for each test."""
    fails = [None] * len(tests)
    for block, num, sizes in b_blocks(ring, Q, range(ring.n)):
        inside = functools.cache(functools.partial(_containment, ring, block))
        fails = [fail or step(block, num, sizes, inside)
                 for (step, _, _), fail in zip(tests, fails)]
        del num, sizes, inside      # dropped before the next block is read
        if all(fails):
            break
    fails = [fail or (end and end())
             for (_, end, _), fail in zip(tests, fails)]
    return [(not fail, fail or passed)
            for (_, _, passed), fail in zip(tests, fails)]


def _containment(ring: FiniteRing, block):
    """inside[j, x]: I_x lies inside I_y for y = block[j]."""
    ids = ring.ideals.id_of
    return np.take(ring.ideals.leq.T[ids[block]], ids, axis=1)


def rxy_test(ring: FiniteRing):
    """|R_{x,y}| is |LAnn(y)| when I_x is inside I_y and 0 otherwise, where
    R_{x,y} = {r : r y = x}.  Row y of the block's unit-weight counts
    sizes() (chain.b_blocks) holds the sizes |R_{x,y}| over all x, under
    any Q."""

    def rxy(block, num, sizes, inside):
        contained, counts = inside(), sizes()
        empty = (counts > 0) != contained
        size = contained & (counts != counts[:, [ring.zero]])
        for j in np.flatnonzero(empty.any(axis=1) | size.any(axis=1))[:1]:
            y = block[j]
            if empty[j].any():
                return (f"emptiness of R_{{{empty[j].argmax()},{y}}} "
                        f"disagrees with the poset")
            return f"|R_{{{size[j].argmax()},{y}}}| != |LAnn({y})|"

    return rxy, None, "exhaustive"


def check_rxy_sizes(ring: FiniteRing):
    uniform = ClassDistribution.uniform(ring)
    return scan_b(ring, uniform, [rxy_test(ring)])[0]


_VECTORS = 3            # v, the Freivalds vectors of the conjugation test
_PRIME_BITS = 18        # their primes lie in (2^18, 2^19)
_PRIMES = 20390         # N, the number of primes there (counted by a test)


def _random_prime(rnd: random.Random) -> int:
    """A prime uniform among the _PRIMES in (2^18, 2^19): draws uniform in
    that range until one is prime."""
    while True:
        p = rnd.randrange(2 ** _PRIME_BITS, 2 ** (_PRIME_BITS + 1))
        if is_prime(p):
            return p


def conjugation_test(ring: FiniteRing, Q: ClassDistribution):
    """B(u c, u d) = B(c, d) for every unit u, by Freivalds' test (IFIP
    1977) on the scan's own blocks, modulo random primes (Karp & Rabin,
    IBM J. Res. Dev. 31, 1987).

    The units with this property are closed under products, so a
    generating set of U_R, g generators, suffices.  With r_u(u d) = r(d),
    sum_d B(u c, u d) r(d) = (B r_u)(u c), so B(u c, u d) = B(c, d) for all
    c and d exactly when (B r_u)(u c) = (B r)(c) for all c and every r.
    Each block of rows c keeps, for i = 1..v, the sketches
    (num mod p_i) @ [r_i | r_i,u1 | ... | r_i,ug] mod p_i, and the end of
    the pass compares (B r_u)[u c] with (B r)[c] for every c and generator
    u.  A failure names the first generator u that differs in the first
    row block, in scan order, where some generator does.

    Exactness: the entries of num mod p_i and of r_i are below p_i < 2^19
    and n <= SIZE_CAP, so each dot product is an integer below
    (2^19)^2 SIZE_CAP < 2^53, which a float64 @ sums exactly in any BLAS
    order.

    Domain and bound: v = 3 vectors r_i (_VECTORS), each uniform mod its
    own prime p_i, drawn from fresh entropy among the N primes in
    (2^18, 2^19), so no fixed B can be made to pass.  A correct B always
    passes.  If B(u c, u d) != B(c, d) somewhere, their difference is a
    nonzero integer at most den in size (B's entries lie in [0, den]),
    with at most f = floor(bits(den)/18) prime factors above 2^18.  So p_i
    divides it with probability at most f/N, and otherwise r_i misses it
    with probability 1/p_i < 2^-18: a B that fails the identity passes
    with probability at most g (f/N + 2^-18)^v, den >= 2^63 (dtype object)
    included."""
    gens = ring.unit_generators
    perms = [ring.mul[u, :] for u in gens]
    rnd = random.Random()           # seeded from fresh OS entropy
    primes = [_random_prime(rnd) for _ in range(_VECTORS)]
    # vectors[i]: [r_i | r_i,u1 | ... | r_i,ug], r_u(u d) = r(d)
    vectors = np.empty((_VECTORS, ring.n, 1 + len(gens)))
    for i, p in enumerate(primes):
        r = np.fromiter((rnd.randrange(p) for _ in range(ring.n)), np.int64,
                        ring.n)
        for k, perm in enumerate([np.arange(ring.n)] + perms):
            vectors[i, perm, k] = r
    # sketches[c, i]: (B [r_i | r_i,u1 | ... | r_i,ug])[c] mod p_i
    sketches = np.empty((ring.n, _VECTORS, 1 + len(gens)))
    seen = []

    def sketch(block, num, sizes, inside):
        sketches[block] = np.stack(
            [(num % p).astype(np.float64) @ vectors[i] % p
             for i, p in enumerate(primes)], axis=1)
        seen.append(block)

    def compare():
        # bad[k, c]: (B r_u)[u c] != (B r)[c] for some i, u = gens[k]
        bad = np.zeros((len(gens), ring.n), dtype=bool)
        for k, perm in enumerate(perms):
            bad[k] = (sketches[perm, :, k + 1] != sketches[:, :, 0]).any(1)
        for block in seen:
            for u, differs in zip(gens, bad[:, block]):
                if differs.any():
                    return f"B(u c, u d) != B(c, d) for unit {u}"

    f = Q.scaled_weights()[1].bit_length() // _PRIME_BITS
    bound = len(gens) * (f / _PRIMES + 2.0 ** -_PRIME_BITS) ** _VECTORS
    return sketch, compare, (
        f"Freivalds: {len(gens)} generators of U_R, {_VECTORS} vectors mod "
        f"random primes in (2^{_PRIME_BITS}, 2^{_PRIME_BITS + 1}), false pass "
        f"<= {bound:.1e}")


def check_conjugation_invariance(ring: FiniteRing, Q: ClassDistribution):
    return scan_b(ring, Q, [conjugation_test(ring, Q)])[0]


def two_way_test(ring: FiniteRing, Q: ClassDistribution):
    """B(x, y) != 0 only where I_y lies inside I_x.  The S_a partition the
    ring (s-partition), so listing them along a linear extension of the
    ideal poset makes B block upper triangular: eig(B) is exactly the union
    of the spectra of the diagonal blocks B[S_a, S_a] (block_spectrum)."""
    poset = ring.ideals

    def two_way(block, num, sizes, inside):
        # bad[j, y]: B(x, y) != 0 and I_y is not inside I_x, x = block[j]
        bad = num != 0
        bad &= ~inside()
        if bad.any():
            j, y = np.argwhere(bad)[0]
            x = block[j]
            return f"B({x}, {y}) != 0 but I_{y} is not inside I_{x}"

    return two_way, None, (f"B block-triangular over {len(poset)} ideals: "
                           f"eig(B) is the union of the diagonal-block "
                           f"spectra, exactly")


def check_spectrum_two_way(ring: FiniteRing, Q: ClassDistribution):
    return scan_b(ring, Q, [two_way_test(ring, Q)])[0]


def m_shift_test(Q: ClassDistribution, alpha):
    """B >= 0 and B 1 = 1, in integers, for 0 < alpha < 1.  Then
    M = (1 - alpha) B + (alpha/n) J is stochastic, M 1 = 1, and eig(M) is 1
    together with (1 - alpha) eig(B) less one copy of 1 (Brauer, Duke Math.
    J. 19, 1952), with no M built and no eigensolve."""
    alpha = check_alpha(alpha)
    den = Q.scaled_weights()[1]

    def m_shift(block, rows, sizes, inside):
        if rows.min() < 0 or np.any(rows.sum(axis=1) != den):
            return "a row of B or M is not a probability vector"

    return m_shift, None, (f"alpha={alpha}: M = (1-alpha) B + (alpha/n) J "
                           f"and B 1 = M 1 = 1, exactly")


def check_m_shift(ring: FiniteRing, Q: ClassDistribution, alpha):
    return scan_b(ring, Q, [m_shift_test(Q, alpha)])[0]


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
                 eps_list, pi):
    curve = d_of_t(ring, Q, alpha, T, pi)
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
    out += [(name, *fn(ring)) for name, fn in (
        ("orbit-stabilizer", check_orbit_stabilizer),
        ("s-partition", check_s_partition),
        ("unit-transitivity", check_witnesses),
        ("multiplicity-free", check_mult_free_expectations))]
    # neither B nor M is built: one scan of B's row blocks runs the four
    # checks on it, and spectrum-m-shift reads what it needs of M off B
    rxy, conjugation, two_way, m_shift = scan_b(ring, Q, [
        rxy_test(ring), conjugation_test(ring, Q), two_way_test(ring, Q),
        m_shift_test(Q, alpha)])
    out.insert(3, ("rxy-annihilator", *rxy))     # after s-partition
    out += [("conjugation-invariance", *conjugation),
            ("spectrum-two-way", *two_way),
            ("spectrum-gl2", *check_spectrum_gl2(ring, Q)),
            ("spectrum-m-shift", *m_shift)]
    pi = stationary_recursive(ring, Q, alpha)
    out.append(("stationary-agreement",
                *check_stationary_agreement(ring, Q, alpha, pi)))
    out.append(("mixing-bound", *check_mixing(ring, Q, alpha, min(T, 20),
                                              list(eps_list), pi)))
    return out
