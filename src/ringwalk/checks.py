"""Cross-oracle and structural verification used by the CLI verify command.

Every function returns (ok, detail).  Every check is exhaustive except
conjugation-invariance, which falls back to 8 fixed-seed sampled units above
100 elements and notes the sampling in its detail string.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import gl2, spectrum
from .chain import ClassDistribution, TransitionMatrix, build_B, chain_matrix
from .errors import UnsupportedQ
from .mixing import d_of_t, mixing_bound
from .rings import FiniteRing
from .stationary import (
    stationary_gl2,
    stationary_recursive,
    stationary_solve,
    stationary_uniform,
)

EXHAUSTIVE_N = 100


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
    """Transitivity of units on every generator set: u S_a covers S_a."""
    for a in ring.phi:
        sa = ring.s_set(a)
        target = set(sa.tolist())
        for x in sa:
            if set(ring.mul[ring.units, x].tolist()) != target:
                return False, f"units do not act transitively on S_{a}"
    return True, "unit action transitive on every S_a"


def check_conjugation_invariance(ring: FiniteRing, B: TransitionMatrix,
                                 rng_seed: int = 0):
    n = ring.n
    if n <= EXHAUSTIVE_N:
        units = ring.units
        note = "exhaustive"
    else:
        rng = np.random.default_rng(rng_seed)
        units = rng.choice(ring.units, size=min(8, len(ring.units)),
                           replace=False)
        note = f"{len(units)} sampled units"
    num = np.array(B.matrix.num, dtype=object)
    for u in units:
        perm = ring.mul[int(u), :]
        if not np.array_equal(num[np.ix_(perm, perm)], num):
            return False, f"B(u c, u d) != B(c, d) for unit {u}"
    return True, note


def check_spectrum_two_way(ring: FiniteRing, B: np.ndarray,
                           eig_b: spectrum.EigenvalueMultiset,
                           tol: float = spectrum.MATCH_TOL):
    """eig(B) equals the union of the spectra of B's diagonal blocks on the
    S_a, merged at eig_b.tau; B is the float matrix."""
    bm, _ = spectrum.block_spectrum(ring, B, eig_b.tau)
    ok = spectrum.multisets_match(eig_b.expand(), bm.expand(), tol)
    return ok, f"{eig_b.total()} eigenvalues, tol {tol}"


def check_spectrum_gl2(ring: FiniteRing, Q: ClassDistribution,
                       eig_b: spectrum.EigenvalueMultiset,
                       tol: float = spectrum.MATCH_TOL):
    try:
        rep = spectrum.gl2_spectrum(ring, Q)
    except UnsupportedQ as exc:
        return True, f"skipped: {exc}"
    ok = spectrum.multisets_match(eig_b.expand(), rep.b_values(), tol)
    return ok, (f"total {rep.total()} = q^4, "
                f"normalization {spectrum.GL2_NORMALIZATION}")


def check_m_shift(eig_b: spectrum.EigenvalueMultiset, M: TransitionMatrix,
                  tol: float = spectrum.MATCH_TOL):
    """eig(M) equals the pinned-1, (1-alpha)-scaled eig(B)."""
    m = spectrum.eig_numeric(M, eig_b.tau)
    predicted = spectrum.shift_to_chain_values(eig_b.expand(), M.alpha)
    ok = spectrum.multisets_match(m.expand(), predicted, tol)
    return ok, f"alpha={M.alpha}"


def check_stationary_agreement(ring: FiniteRing, Q: ClassDistribution, alpha,
                               pi_recursive):
    """pi_recursive against the lumped solve and every closed form whose
    domain holds."""
    methods = {"recursive": pi_recursive,
               "solve": stationary_solve(ring, Q, alpha)}
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


def check_mixing(ring: FiniteRing, Q: ClassDistribution, alpha, T: int,
                 eps_list):
    curve = d_of_t(ring, Q, alpha, T)
    if not curve.bound_holds():
        return False, "d(t) exceeded (1-alpha)^t"
    for eps in eps_list:
        tm = curve.t_mix(eps)
        bound = mixing_bound(alpha, eps)
        if tm is None or tm > bound:
            return False, f"t_mix({eps}) = {tm} exceeds {bound}"
    return True, f"T={T}, eps={list(map(str, eps_list))}"


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
        expected = None
        if a == ring.zero:
            expected = True
        elif expect_all:
            expected = True
        elif desc.get("kind") == "matrix" and desc.get("size") == 2 \
                and gl2.matrix_rank(ring.entries[a].ravel(), desc["q"]) == 1:
            expected = True
        got = spectrum.is_multiplicity_free_nonunit(ring, a)
        if expected is not None and got != expected:
            return False, f"generator {a}: expected {expected}, got {got}"
    return True, "all guaranteed predicates hold"


def full_suite(ring: FiniteRing, Q: ClassDistribution, alpha,
               T: int = 20, eps_list=(Fraction(1, 4), Fraction(1, 10))):
    """The verify command's check list: [(name, ok, detail)]."""
    out = [("ring-axioms", True, "validated at construction")]
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
    """The checks on B, eig(B), M and the recursive pi, each computed once.

    M is built from this B for the m-shift check only.  The float B is
    dropped before M is built, the exact B once M exists, and M after its
    check, so at most two of them are held at once and none adds to the
    peak memory of the stationary or mixing checks.
    """
    B = build_B(ring, Q)
    out = [("conjugation-invariance",
            *check_conjugation_invariance(ring, B))]
    if ring.n <= spectrum.EIG_CAP:
        b_float = B.to_float()
        eig_b = spectrum.eig_numeric(b_float)
        out.append(("spectrum-two-way",
                    *check_spectrum_two_way(ring, b_float, eig_b)))
        del b_float
        out.append(("spectrum-gl2", *check_spectrum_gl2(ring, Q, eig_b)))
        M = chain_matrix(B, alpha)
        del B
        out.append(("spectrum-m-shift", *check_m_shift(eig_b, M)))
        del M
    pi = stationary_recursive(ring, Q, alpha)
    out.append(("stationary-agreement",
                *check_stationary_agreement(ring, Q, alpha, pi)))
    return out
