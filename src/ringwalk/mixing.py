"""Total-variation decay curves, the coupling bound, and trajectory simulation.

The worst-start distance d(t) = max_x TV(M^t(x, .), pi) comes from one exact
route for every ring the package builds.  Because X U = U for any
row-stochastic X (U the uniform-rows matrix),

    M^t = (1-alpha)^t B^t + sum_{m<t} alpha (1-alpha)^m U B^m,

so row x of M^t is (1-alpha)^t B^t(x, .) plus a vector V_t shared by every
row.  Row x of B^t is the law mu_t = Q^{*t} of a product of t Q-samples,
pushed forward by y -> y*x.  mu_t is constant on similarity classes, so the
convolution mu_{t+1} = Q * mu_t runs on class weights with integer structure
constants counted once from the multiplication table.  One start per
generator set S_a suffices: left multiplication by a unit preserves B, pi
and V_t, and the units act transitively on each S_a.  The geometric bound
d(t) <= (1-alpha)^t is therefore checked without rounding at every size.

The simulator draws from a counter-based Philox stream; coin flips and
Q-samples are integer draws compared against exact rational thresholds, so
every move has its exact probability and runs reproduce bit-for-bit across
platforms.  The counts for a seed are fixed by this stream contract:

* trajectories split into blocks, and block b draws from
  Philox(key=[seed, b]);
* a block of m trajectories runs in chunks of
  max(1, min(t, STEP_CHUNK_ENTRIES // m)) steps (the last chunk shorter);
* within a chunk come all coins, then all uniform elements, then all
  Q-draws, each row-major over (step, sample).

Each pass draws its flattened chunk in slices of DRAW_SLICE entries (int64
coins and Q-draws, int32 uniform elements); numpy gives the same values and
the same stream position for any slicing.  The three passes fill one uint16
move code per entry in place: the coins write the tails flag (0 or 1), the
uniform elements turn it into a (heads) or n (tails), and the Q-draws add z
to every code >= n.  Every code is below 2n <= 2 * rings.SIZE_CAP < 2^16.
Memory per block is that one buffer, reused across chunks (2 bytes per
chunk entry), plus O(m) for the states and one slice of draws.  Each step
costs O(1) per sample: a Q-draw maps to its element through a guide table
of at most 2^20 buckets (QSampler), and the move is one add and one gather
from a flat int32 table holding the addition and multiplication tables
(_kernels.step_table, run_chain).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, log

import numpy as np

from . import _kernels
from .chain import ClassDistribution, check_alpha, check_same_ring
from .errors import InvariantViolation, LengthMismatch, ParamOutOfRange
from .rings import _BLOCK, FiniteRing
from .stationary import stationary_recursive

T_CAP = 64
STEP_CHUNK_ENTRIES = 20_000_000
DRAW_SLICE = 2**18         # entries per integer draw call within a chunk
GUIDE_BITS = 20            # the Q-sampler guide table has <= 2^20 buckets


def tv_distance(mu, nu):
    """Half the l1 distance; exact when both inputs are exact."""
    if len(mu) != len(nu):
        raise LengthMismatch(f"supports differ: {len(mu)} vs {len(nu)}")
    total = sum(abs(a - b) for a, b in zip(mu, nu))
    return total / 2


@dataclass
class MixingCurve:
    """d(t) for t = 0..T with the geometric bound alongside."""

    ts: list
    values: list          # d(t) as floats
    bounds: list          # (1 - alpha)^t as floats
    alpha: Fraction
    ring_label: str
    exact_values: list    # d(t) as Fractions
    exact_bounds: list    # (1 - alpha)^t as Fractions

    def t_mix(self, eps):
        """First t with d(t) <= eps; None if no computed t reaches eps."""
        eps = Fraction(eps)
        for t, d in zip(self.ts, self.exact_values):
            if d <= eps:
                return t
        return None

    def bound_holds(self) -> bool:
        return all(d <= b for d, b in zip(self.exact_values, self.exact_bounds))


def class_products(ring: FiniteRing):
    """Nonzero structure constants of class-constant convolution.

    Returns arrays (i, j, c, count), ordered by (i, j, c): for any one z in
    C_c there are `count` pairs (x, y) in C_i x C_j with x*y = z.  They are
    counted at z = reps[c] only, from the products that land on a
    representative in each _BLOCK rows of the table, so memory beyond the
    table is O(_BLOCK n) plus one key per such product (n^2 keys, like the
    output, when every class is a singleton).  Conjugation by a unit
    permutes the pairs, so the count is the same for every z in C_c once
    each class is one conjugation orbit, which _check_orbits certifies.
    Counted once per ring and kept on it; the arrays are read-only.
    """
    try:
        return ring._class_products
    except AttributeError:
        pass
    out = _count_class_products(ring)
    for arr in out:
        arr.setflags(write=False)
    ring._class_products = out
    return out


def _count_class_products(ring: FiniteRing):
    part = ring.similarity
    _check_orbits(ring, part)
    k = len(part)
    cls = part.class_of.astype(np.int64)
    is_rep = np.zeros(ring.n, dtype=bool)
    is_rep[part.reps] = True
    keys = []
    for s in range(0, ring.n, _BLOCK):
        rows = ring.mul[s:s + _BLOCK].ravel()     # uint16, used as indices
        at = np.flatnonzero(is_rep[rows])
        ij = (cls[s:s + _BLOCK, None] * k + cls).ravel()[at]
        keys.append(ij * k + cls[rows[at]])
    keys, count = np.unique(np.concatenate(keys), return_counts=True)
    ij, c = np.divmod(keys, k)
    i, j = np.divmod(ij, k)
    return i, j, c, count


def _check_orbits(ring: FiniteRing, part):
    """Raise InvariantViolation unless each class C of `part` is the orbit
    of its representative under conjugation by units.

    class_of is unchanged by r -> g r g^-1 for each unit generator g, so
    each class is a union of orbits and holds the orbit of its
    representative, and |C| |C_U(rep)| = |U|, the orbit's size by
    orbit-stabilizer, so the class is that orbit.  The centralizer sizes
    |C_U(rep)| are counted _BLOCK units at a time.
    """
    mul, units, reps, class_of = ring.mul, ring.units, part.reps, part.class_of
    k = len(reps)
    closed = np.array_equal(class_of[reps], np.arange(k)) and all(
        np.array_equal(class_of[mul[mul[g], ring.inv(g)]], class_of)
        for g in ring.unit_generators)
    central = np.zeros(k, dtype=np.int64)
    for s in range(0, len(units), _BLOCK):
        u = units[s:s + _BLOCK]
        central += np.count_nonzero(
            mul[np.ix_(u, reps)] == mul[np.ix_(reps, u)].T, axis=0)
    sizes = np.bincount(class_of, minlength=k)
    if not (closed and np.all(sizes * central == len(units))):
        raise InvariantViolation(f"{ring.label}: product counts are not "
                                 f"constant on similarity classes")


def d_of_t(ring: FiniteRing, Q: ClassDistribution, alpha, T: int) -> MixingCurve:
    """Exact worst-start TV distance to stationarity for t = 0..T.

    Domain: any ring the package builds, Q class-constant on that ring,
    0 < alpha < 1 and 0 <= T <= T_CAP.  Every value is a Fraction, built
    from the identity

        M^t = (1-alpha)^t B^t + sum_{m<t} alpha (1-alpha)^m U B^m

    with mu_t = Q^{*t} convolved on class weights (B^t(a, .) is mu_t pushed
    forward by y -> y*a, and u B^m is class-constant), pi from
    stationary_recursive, and one start per generator in ring.phi.  Cost,
    for k similarity classes, n elements and P products that land on a
    class representative: one O(n^2 + P log P + |U| k) count of class
    products (a pass over the table, a sort of those P products and the
    centralizer sizes), then O(T * (k^2 + |phi| * n)) exact-integer
    operations.
    """
    if not (0 <= T <= T_CAP):
        raise ParamOutOfRange(f"T must lie in [0, {T_CAP}]")
    alpha = check_alpha(alpha)
    check_same_ring(ring, Q)
    n = ring.n
    class_of = ring.similarity.class_of
    p, s = alpha.numerator, alpha.denominator

    # Q per element is q_int[class] / D; mu_t per element is mu[class] / D^t
    D = lcm(*(w.denominator for w in Q.weights))
    q_int = np.array([int(w * D) for w in Q.weights], dtype=object)
    k = len(q_int)
    i, j, c, count = class_products(ring)
    count = count.astype(object)
    conv = np.zeros((k, k), dtype=object)       # mu_{t+1} = mu_t @ conv
    np.add.at(conv, (j, c), q_int[i] * count)
    spread = np.zeros((k, k), dtype=object)     # n u B^m = mu_m @ spread
    np.add.at(spread, (i, c), count)
    mu = np.zeros(k, dtype=object)
    mu[class_of[ring.one]] = 1

    pi = stationary_recursive(ring, Q, alpha)
    pi_den = lcm(*(x.denominator for x in pi))
    pi_num = np.array([x.numerator * (pi_den // x.denominator) for x in pi],
                      dtype=object)

    # pushforward by y -> y*a: sorted fibers of column a of the table
    fibers = []
    for a in ring.phi:
        targets = ring.mul[:, int(a)]
        order = np.argsort(targets, kind="stable")
        image = targets[order]
        # prepend=-1 makes the diff int64; image (uint16) is below n
        first = np.flatnonzero(np.diff(image, prepend=-1))
        fibers.append((order, first, image[first]))

    # V_t per class is v[class] / (n s^t D^t)
    v = np.zeros(k, dtype=object)
    exact = []
    for t in range(T + 1):
        scale = n * s ** t * D ** t
        den = lcm(scale, pi_den)
        shared = (v * (den // scale))[class_of] - pi_num * (den // pi_den)
        coef = n * (s - p) ** t * (den // scale)
        mu_elem = mu[class_of]
        worst = 0
        for order, first, image in fibers:
            row = shared.copy()
            row[image] += coef * np.add.reduceat(mu_elem[order], first)
            worst = max(worst, np.abs(row).sum())
        exact.append(Fraction(worst, 2 * den))
        v = s * D * v + p * (s - p) ** t * D * mu.dot(spread)
        mu = mu.dot(conv)

    exact_bounds = [(1 - alpha) ** t for t in range(T + 1)]
    return MixingCurve(list(range(T + 1)), [float(x) for x in exact],
                       [float(b) for b in exact_bounds], alpha, ring.label,
                       exact, exact_bounds)


def mixing_bound(alpha, eps) -> float:
    """Coupling bound on the eps-mixing time: log(eps)/log(1-alpha) + 1."""
    alpha = Fraction(alpha)
    eps = Fraction(eps)
    if not 0 < alpha < 1:
        raise ParamOutOfRange(f"alpha = {alpha} outside (0,1)")
    if not 0 < eps < Fraction(1, 2):
        raise ParamOutOfRange(f"eps = {eps} outside (0, 1/2)")
    return log(eps) / log(1 - alpha) + 1


class QSampler:
    """Maps uniform draws in [0, den) to the element whose cumulative
    integer weight first exceeds the draw, as searchsorted(cum, draw,
    "right") does, at O(1) per draw.

    Indexed search (Chen & Asau, 1974): the draw range is cut into at most
    2^GUIDE_BITS buckets of 2^shift draws, and lo[b] is the answer for the
    first draw of bucket b.  Only a bucket that straddles a boundary of
    cum has more than one answer; draws landing there (a share below
    n / 2^(GUIDE_BITS - 1)) fall back to the binary search.  When
    den <= 2^GUIDE_BITS every bucket holds one draw and none straddles.
    """

    def __init__(self, w_int):
        self.cum = np.cumsum(np.array(w_int, dtype=np.int64))
        self.den = int(self.cum[-1])
        self.shift = max(0, (self.den - 1).bit_length() - GUIDE_BITS)
        first = np.arange(((self.den - 1) >> self.shift) + 1,
                          dtype=np.int64) << self.shift
        last = np.minimum(first | ((1 << self.shift) - 1), self.den - 1)
        lo = np.searchsorted(self.cum, first, side="right")
        self.lo = lo.astype(np.int32)
        self.split = np.searchsorted(self.cum, last, side="right") != lo
        self.straddles = bool(self.split.any())

    def __call__(self, draws) -> np.ndarray:
        # a shift of 0 would only copy the draws
        buckets = draws >> self.shift if self.shift else draws
        zs = np.take(self.lo, buckets)
        if self.straddles:
            hit = np.take(self.split, buckets)
            zs[hit] = np.searchsorted(self.cum, draws[hit], side="right")
        return zs


@dataclass
class SimulationResult:
    """End-state counts of seeded trajectories; same seed, same counts."""

    ring_label: str
    start: int
    steps: int
    samples: int
    seed: int
    side: str
    blocks: int
    counts: np.ndarray

    def empirical(self) -> np.ndarray:
        return self.counts / self.counts.sum()

    def tv_to(self, pi) -> float:
        return float(tv_distance(self.empirical(),
                                 np.array([float(p) for p in pi])))


def simulate(ring: FiniteRing, Q: ClassDistribution, alpha, x0: int, t: int,
             samples: int, seed: int, side: str = "left", blocks: int = 1,
             allow_boundary: bool = False) -> SimulationResult:
    """Run `samples` trajectories of length t from x0 and tally end states.

    Heads (probability alpha): add a uniform ring element.  Tails: multiply
    by a Q-sample, on the left by default to match the transition-matrix
    convention; side="right" uses the mirrored product.  Trajectories split
    into `blocks` independent Philox streams keyed (seed, block) and merge
    deterministically, so any execution order gives identical results.

    The stream contract of the module docstring fixes the counts: chunks of
    max(1, min(t, STEP_CHUNK_ENTRIES // m)) steps for a block of m samples,
    and per chunk all coins, all uniform elements, then all Q-draws.  Peak
    memory is about 2 bytes per chunk entry (one uint16 move code; a chunk
    has at most max(m, STEP_CHUNK_ENTRIES) entries), plus 8n^2 bytes for
    the step table, O(m) for the states and one slice of draws.  The alpha
    and Q denominators must lie below 2^63, the range of an int64 draw.
    """
    alpha = check_alpha(alpha, allow_boundary)
    if alpha.denominator >= 2**63:
        raise ParamOutOfRange(f"field 'alpha': denominator "
                              f"{alpha.denominator} is not below 2^63, the "
                              f"range of an int64 coin draw")
    if not 0 <= x0 < ring.n:
        raise ParamOutOfRange(f"field 'start' (x0): {x0} is not an element "
                              f"index of {ring.label} (0..{ring.n - 1})")
    if t < 0:
        raise ParamOutOfRange(f"field 'steps' (t): {t} is negative")
    if samples < 1:
        raise ParamOutOfRange(f"field 'samples': {samples} is below 1")
    if blocks < 1:
        raise ParamOutOfRange(f"field 'blocks': {blocks} is below 1")
    if side not in ("left", "right"):
        raise ParamOutOfRange(f"field 'side': {side!r} is not 'left' or "
                              f"'right'")
    if seed is None:
        raise ParamOutOfRange("field 'seed': a seed is mandatory for "
                              "reproducible simulation")
    if not -2**63 <= seed < 2**63:
        raise ParamOutOfRange(f"field 'seed': {seed} does not fit the "
                              f"signed 64-bit Philox key word")
    w_int, den = Q.scaled_weights()
    if den >= 2**63:
        raise ParamOutOfRange(f"field 'Q': common denominator {den} is not "
                              f"below 2^63, the range of an int64 Q-draw")
    scale = 2 * ring.n      # move codes lie below 2n; x is carried as x*2n
    if scale > 2**16:
        raise InvariantViolation(f"{ring.label}: move codes reach 2n = "
                                 f"{scale}, beyond uint16")
    sampler = QSampler(w_int)
    table = _kernels.step_table(ring.add, ring.mul, left=(side == "left"))
    counts = np.zeros(ring.n, dtype=np.int64)
    per_block = [samples // blocks] * blocks
    per_block[-1] += samples - sum(per_block)
    for block, m in enumerate(per_block):
        if m == 0:
            continue
        rng = np.random.Generator(np.random.Philox(key=[seed, block]))
        states = np.full(m, x0 * scale, dtype=np.int32)
        chunk = max(1, min(t, STEP_CHUNK_ENTRIES // m))
        moves = np.empty(chunk * m, dtype=np.uint16)
        done = 0
        while done < t:
            step = min(chunk, t - done)
            _draw_moves(rng, moves[:step * m], alpha, ring.n, sampler)
            _kernels.run_chain(states, moves[:step * m].reshape(step, m),
                               table)
            done += step
        states //= scale
        counts += np.bincount(states, minlength=ring.n)
    return SimulationResult(ring.label, x0, t, samples, seed, side, blocks,
                            counts)


def _draw_moves(rng, moves, alpha, n, sampler):
    """Fill one chunk's uint16 move codes in place: a for heads (add a) and
    n + z for tails (multiply by z), so the move from state x*2n is
    table[x*2n + code].

    Three passes over the flattened chunk, each in slices of DRAW_SLICE
    entries: the coins write the tails flag, the uniform elements a write
    a + flag*(n - a), and the Q-draws add z wherever the code is >= n.
    Coins and Q-draws are int64 (their denominators reach 2^63), uniform
    elements int32; the arithmetic is int32, and every code is below 2n.
    """
    cuts = [slice(i, i + DRAW_SLICE) for i in range(0, len(moves), DRAW_SLICE)]
    for cut in cuts:
        # unnamed, so the coins are freed before the next pass
        np.greater_equal(rng.integers(0, alpha.denominator,
                                      size=len(moves[cut]), dtype=np.int64),
                         alpha.numerator, out=moves[cut])
    for cut in cuts:
        flag = moves[cut]
        a = rng.integers(0, n, size=len(flag), dtype=np.int32)
        a += flag * (n - a)
        flag[:] = a
    for cut in cuts:
        code = moves[cut]
        z = sampler(rng.integers(0, sampler.den, size=len(code),
                                 dtype=np.int64))
        z *= code >= n
        np.add(code, z, out=code, casting="unsafe")
