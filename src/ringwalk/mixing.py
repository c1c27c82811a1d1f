"""Total-variation decay curves, the coupling bound, and trajectory simulation.

The worst-start distance d(t) = max_x TV(M^t(x, .), pi) comes from one exact
route for every ring the package builds.  Because X U = U for any
row-stochastic X (U the uniform-rows matrix),

    M^t = (1-alpha)^t B^t + sum_{m<t} alpha (1-alpha)^m U B^m,

so row x of M^t is (1-alpha)^t B^t(x, .) plus a vector V_t shared by every
row.  Row x of B^t is the law mu_t = Q^{*t} of a product of t Q-samples,
pushed forward by y -> y*x: column x of the table counted with mu_t's
weights (chain._count_columns).  mu_t is constant on similarity classes,
so the convolution mu_{t+1} = Q * mu_t runs on class weights with integer
structure constants counted once from the multiplication table.  One
start per generator set S_a suffices: left multiplication by a unit
preserves B, pi and V_t, and the units act transitively on each S_a.  The
geometric bound d(t) <= (1-alpha)^t is therefore checked without rounding
at every size.

The simulator walks on the left, as B does: a multiply move takes x to
z x.  The walk that multiplies on the right, x -> x z, is the same walk on
the opposite ring (FiniteRing.opposite), whose left product is R's right
product: it is simulate on R^op, and its stationary law is R^op's.

The simulator draws one integer per move from the chain's exact move law.
With alpha = p/s, Q(z) = w_z/D over Q's common denominator D and
L = lcm(n, D), the 2n move codes carry integer weights over R = s L:
p L/n for each code a (add a) and (s - p) w_z L/D for each code n + z
(multiply by z).  So code a has probability alpha/n and code n + z has
(1 - alpha) Q(z), exactly, and runs reproduce bit-for-bit across
platforms.  The counts for a seed are fixed by this stream contract:

* trajectories split into blocks, and block b draws from
  Philox(key=[seed, b]);
* each step draws Generator.integers(0, R, dtype=int64) once per sample,
  row-major over (step, sample), and maps the draw to its move code by
  the cumulative weights (QSampler).

numpy draws the same integers whether they are asked for at once or in
pieces (a pending half-word stays in the bit generator), so the counts do
not depend on how a block's draws are cut: simulate draws and steps
SAMPLE_BLOCK samples at a time.  Each block's draws are taken by one
draw thread of their own, in stream order, while the calling thread maps
and steps the sample block before; the draw thread alone consumes the
stream, so the counts do not depend on the timing of the two threads.
The domain is R < 2^63, the range of an int64 draw.  Memory per block is
the uint16 states (2 bytes per sample) and O(SAMPLE_BLOCK) beside them,
whatever t is: two sample blocks' int64 draws in flight, one being drawn
and one being mapped, and one sample block of scratch that the caller
owns and reuses (buckets, codes, straddle mask and gather index); the end
states are counted one sample block at a time.  The step table is one
uint16 copy of the addition and multiplication tables, 4n^2 bytes.  Each
step costs O(1) per sample: a draw maps to its move code through a guide
table of about 32 buckets per code (QSampler), and the move is one
multiply, one add and one gather from the step table (_kernels.run_chain).
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import inf, lcm, log

import numpy as np

from . import _kernels
from .chain import (
    ClassDistribution,
    _count_columns,
    check_alpha,
    check_same_ring,
)
from .errors import (
    InvariantViolation,
    LengthMismatch,
    ParamOutOfRange,
    TooLarge,
)
from .rings import _BLOCK, FiniteRing

T_CAP = 64
PRODUCT_CAP = 2**26        # products class_products may keep
SAMPLE_BLOCK = 2**16       # samples drawn and stepped together
GUIDE_BITS = 20            # a QSampler guide table has <= 2^20 buckets


def tv_distance(mu, nu):
    """Half the l1 distance; exact when both inputs are exact."""
    if len(mu) != len(nu):
        raise LengthMismatch(f"supports differ: {len(mu)} vs {len(nu)}")
    return sum(abs(a - b) for a, b in zip(mu, nu)) / 2


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
        return next((t for t, d in zip(self.ts, self.exact_values)
                     if d <= eps), None)

    def bound_holds(self) -> bool:
        return all(d <= b for d, b in zip(self.exact_values, self.exact_bounds))


def class_products(ring: FiniteRing):
    """Nonzero structure constants of class-constant convolution.

    Returns arrays (i, j, c, count), ordered by (i, j, c): for any one z in
    C_c there are `count` pairs (x, y) in C_i x C_j with x*y = z.  They are
    counted at z = reps[c] only, from the products that land on a
    representative in each _BLOCK rows of the table.  A first pass counts
    those P products and raises TooLarge above PRODUCT_CAP before anything
    is kept per product; then memory beyond the table is O(_BLOCK n) plus
    one int64 key per product, sorted in place, and at most 40 bytes per
    product once the runs of equal keys are counted (n^2 keys, like the
    output, when every class is a singleton).  Conjugation
    by a unit permutes the pairs, so the count is the same for every z in
    C_c once each class is one conjugation orbit, which _check_orbits
    certifies.
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
    is_rep = np.zeros(ring.n, dtype=bool)
    is_rep[part.reps] = True
    kept = sum(np.count_nonzero(is_rep[ring.mul[s:s + _BLOCK]])
               for s in range(0, ring.n, _BLOCK))
    if kept > PRODUCT_CAP:
        raise TooLarge(f"class products capped at {PRODUCT_CAP}, got {kept}")
    _check_orbits(ring, part)
    k = len(part)
    cls = part.class_of.astype(np.int64)
    keys = np.empty(kept, dtype=np.int64)
    end = 0
    for s in range(0, ring.n, _BLOCK):
        rows = ring.mul[s:s + _BLOCK].ravel()     # uint16, used as indices
        at = np.flatnonzero(is_rep[rows])
        ij = (cls[s:s + _BLOCK, None] * k + cls).ravel()[at]
        keys[end:end + len(at)] = ij * k + cls[rows[at]]
        end += len(at)
    keys.sort()
    # the first of each run of equal keys, and the run lengths
    first = np.ones(kept, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    del first
    count = np.diff(starts, append=kept)
    keys = keys[starts]
    del starts
    ij, c = np.divmod(keys, k)
    del keys
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


def d_of_t(ring: FiniteRing, Q: ClassDistribution, alpha, T: int,
           pi) -> MixingCurve:
    """Exact worst-start TV distance to stationarity for t = 0..T.

    Domain: any ring the package builds with at most PRODUCT_CAP class
    products (class_products), Q class-constant on that ring, 0 < alpha < 1
    and 0 <= T <= T_CAP.  Every value is a Fraction, built from the
    identity

        M^t = (1-alpha)^t B^t + sum_{m<t} alpha (1-alpha)^m U B^m

    with mu_t = Q^{*t} convolved on class weights (u B^m is
    class-constant), pi the caller's exact stationary law of (Q, alpha)
    (stationary_recursive), and one start per generator in ring.phi.
    Cost, for k similarity classes, n elements and P products that land
    on a class representative: one O(n^2 + P log P + |U| k) count of class
    products (a pass over the table, a sort of those P products and the
    centralizer sizes), then per t an O(k^2) convolution and the rows
    B^t(phi, .), the |phi| columns of the table counted with mu_t's
    weights (chain._count_columns): O(|phi| n) exact-integer operations.
    """
    check_T(T, T_CAP)
    alpha = check_alpha(alpha)
    check_same_ring(ring, Q)
    n = ring.n
    class_of = ring.similarity.class_of
    p, s = alpha.numerator, alpha.denominator

    # Q per element is q_int[class] / D; mu_t per element is mu[class] / D^t
    D = Q.scaled_weights()[1]
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

    pi_den = lcm(*(x.denominator for x in pi))
    pi_num = np.array([x.numerator * (pi_den // x.denominator) for x in pi],
                      dtype=object)

    # V_t per class is v[class] / (n s^t D^t)
    v = np.zeros(k, dtype=object)
    exact = []
    for t in range(T + 1):
        scale = n * s ** t * D ** t
        den = lcm(scale, pi_den)
        shared = (v * (den // scale))[class_of] - pi_num * (den // pi_den)
        coef = n * (s - p) ** t * (den // scale)
        # the rows phi of D^t B^t
        pushed = _count_columns(ring.mul, ring.phi, mu[class_of])[0]
        worst = max(np.abs(shared + coef * row).sum() for row in pushed)
        exact.append(Fraction(worst, 2 * den))
        v = s * D * v + p * (s - p) ** t * D * mu.dot(spread)
        mu = mu.dot(conv)

    exact_bounds = [(1 - alpha) ** t for t in range(T + 1)]
    return MixingCurve(list(range(T + 1)), [float(x) for x in exact],
                       [float(b) for b in exact_bounds], alpha, ring.label,
                       exact, exact_bounds)


def check_T(T: int, cap) -> int:
    """The horizon T in [0, cap]: T_CAP for d_of_t, math.inf where only
    min(T, 20) steps are computed (verify)."""
    if not 0 <= T <= cap:
        domain = "be >= 0" if cap == inf else f"lie in [0, {cap}]"
        raise ParamOutOfRange(f"field 'T': T must {domain}")
    return T


def check_eps(eps) -> Fraction:
    """eps in (0, 1/2), the domain of mixing_bound."""
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 2):
        raise ParamOutOfRange(f"field 'eps': eps = {eps} outside (0, 1/2)")
    return eps


def mixing_bound(alpha, eps) -> float:
    """Coupling bound on the eps-mixing time: log(eps)/log(1-alpha) + 1."""
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ParamOutOfRange(f"alpha = {alpha} outside (0,1)")
    eps = check_eps(eps)
    return log(eps) / log(1 - alpha) + 1


class QSampler:
    """Maps uniform draws in [0, den) to the outcome whose cumulative
    integer weight first exceeds the draw, as searchsorted(cum, draw,
    "right") does, at O(1) per draw.

    Indexed search (Chen & Asau, 1974): the draw range is cut into buckets
    of 2^shift draws, and lo[b] is the answer for the first draw of bucket
    b.  There are at most 2^bits buckets, bits = min(GUIDE_BITS,
    len(w).bit_length() + 5): about 32 per outcome, so the table stays in
    cache.  Only a bucket that straddles a boundary of cum has more than
    one answer; lo holds ~lo[b] (negative) there.  A draw landing in one
    (a share below len(w) / 2^(bits - 1)) steps over the bucket's first
    boundary by one comparison, and falls back to the binary search when
    it lies beyond the next one too.  When den <= 2^bits every bucket
    holds one draw and none straddles.
    """

    def __init__(self, w_int):
        self.cum = np.cumsum(np.array(w_int, dtype=np.int64))
        self.den = int(self.cum[-1])
        bits = min(GUIDE_BITS, len(self.cum).bit_length() + 5)
        self.shift = max(0, (self.den - 1).bit_length() - bits)
        first = np.arange(((self.den - 1) >> self.shift) + 1,
                          dtype=np.int64) << self.shift
        last = np.minimum(first | ((1 << self.shift) - 1), self.den - 1)
        lo = np.searchsorted(self.cum, first, side="right")
        split = np.searchsorted(self.cum, last, side="right") != lo
        self.lo = np.where(split, ~lo, lo).astype(np.int32)
        self.straddles = bool(split.any())

    def __call__(self, draws, out, buckets, straddle) -> np.ndarray:
        """The outcome of each of the 1-D int64 draws, written to out
        (int32) and returned.  buckets (intp) and straddle (bool) are
        scratch; all three have len(draws) entries and belong to the
        caller, which reuses them."""
        # a shift of 0 would only copy the draws
        if self.shift:
            np.right_shift(draws, self.shift, out=buckets)
        else:
            buckets = draws
        # every bucket is in range, as every draw is below den;
        # mode="clip" skips the bounds check, which would buffer out
        np.take(self.lo, buckets, out=out, mode="clip")
        if self.straddles:
            hit = np.flatnonzero(np.less(out, 0, out=straddle))
            dh = draws[hit]
            # cum[z - 1] <= dh, and cum[z] lies in dh's bucket
            z = ~out[hit]
            z += dh >= self.cum[z]
            far = np.flatnonzero(dh >= self.cum[z])
            z[far] = np.searchsorted(self.cum, dh[far], side="right")
            out[hit] = z
        return out


def move_weights(n: int, Q: ClassDistribution, alpha: Fraction) -> np.ndarray:
    """The int64 weights of the 2n move codes, which sum to R = s L for
    alpha = p/s, Q's common denominator D and L = lcm(n, D): p L/n for
    each code a (add a) and (s - p) w_z L/D for each code n + z (multiply
    by z, Q(z) = w_z/D).  So code a has probability alpha/n and code n + z
    (1 - alpha) Q(z), exactly.  Raises ParamOutOfRange unless R < 2^63,
    the range of an int64 draw, naming 'alpha' if s n >= 2^63 already (as
    L >= n, no Q can help then) and 'Q' otherwise."""
    w_int, den = Q.scaled_weights()
    p, s = alpha.numerator, alpha.denominator
    L = lcm(n, den)
    if s * L >= 2**63:
        raise ParamOutOfRange(
            f"field '{'alpha' if s * n >= 2**63 else 'Q'}': the move draw "
            f"range s*L = {s} * {L} (s the alpha denominator, L = lcm(n, Q's "
            f"common denominator)) is not below 2^63, the range of an int64 "
            f"draw")
    weights = np.empty(2 * n, dtype=np.int64)
    weights[:n] = p * (L // n)
    weights[n:] = (s - p) * (L // den) * w_int
    return weights


@dataclass
class SimulationResult:
    """End-state counts of seeded trajectories; same seed, same counts."""

    ring_label: str
    start: int
    steps: int
    samples: int
    seed: int
    blocks: int
    counts: np.ndarray

    def empirical(self) -> np.ndarray:
        return self.counts / self.counts.sum()

    def tv_to(self, pi) -> float:
        return float(tv_distance(self.empirical(),
                                 np.array([float(p) for p in pi])))


def check_simulation(alpha, t: int, samples: int, seed: int,
                     blocks: int) -> Fraction:
    """simulate's checks of its fields that need no ring, in this order:
    alpha, steps t, samples, blocks and seed.  Returns alpha."""
    alpha = check_alpha(alpha)
    if alpha.denominator >= 2**63:
        raise ParamOutOfRange(f"field 'alpha': denominator "
                              f"{alpha.denominator} is not below 2^63, the "
                              f"range of an int64 move draw")
    if t < 0:
        raise ParamOutOfRange(f"field 'steps' (t): {t} is negative")
    if samples < 1:
        raise ParamOutOfRange(f"field 'samples': {samples} is below 1")
    if blocks < 1:
        raise ParamOutOfRange(f"field 'blocks': {blocks} is below 1")
    if seed is None:
        raise ParamOutOfRange("field 'seed': a seed is mandatory for "
                              "reproducible simulation")
    if not -2**63 <= seed < 2**63:
        raise ParamOutOfRange(f"field 'seed': {seed} does not fit the "
                              f"signed 64-bit Philox key word")
    return alpha


def simulate(ring: FiniteRing, Q: ClassDistribution, alpha, x0: int, t: int,
             samples: int, seed: int, blocks: int = 1) -> SimulationResult:
    """Run `samples` trajectories of length t from x0 and tally end states.

    Heads (probability alpha): add a uniform ring element.  Tails: multiply
    by a Q-sample on the left, as B does; the right-multiplying walk on R
    is this one on R.opposite(), under the Q with the same class weights
    there (R^op has R's classes, in R's order).  Trajectories split
    into `blocks` independent Philox streams keyed (seed, block) and merge
    deterministically, so any execution order gives identical results.

    The stream contract of the module docstring fixes the counts: each
    step draws one integer in [0, R) per sample, row-major over (step,
    sample), and QSampler maps it to a move code over move_weights.  The
    draws are taken SAMPLE_BLOCK samples at a time, by one draw thread
    per block (_walk), and the states of those samples take the step at
    once on the calling thread; the counts depend neither on
    SAMPLE_BLOCK nor on the draw thread's timing.  Domain: R = s lcm(n, D)
    < 2^63 for alpha = p/s and Q's common denominator D, checked before
    any draw (move_weights); the alpha denominator alone must lie below
    2^63 too (check_simulation).  Peak memory is 2 bytes per sample (its
    uint16 state) plus O(SAMPLE_BLOCK), whatever t is: two sample blocks'
    int64 draws in flight and one sample block of caller-owned scratch,
    beside 4n^2 bytes for the uint16 step table.
    """
    alpha = check_simulation(alpha, t, samples, seed, blocks)
    if not 0 <= x0 < ring.n:
        raise ParamOutOfRange(f"field 'start' (x0): {x0} is not an element "
                              f"index of {ring.label} (0..{ring.n - 1})")
    sampler = QSampler(move_weights(ring.n, Q, alpha))
    # entry (code, x) of the step table: x + a for code a, z x for code n + z
    table = np.concatenate([ring.add, ring.mul])
    counts = np.zeros(ring.n, dtype=np.int64)
    per_block = [samples // blocks] * blocks
    per_block[-1] += samples - sum(per_block)
    for block, m in enumerate(per_block):
        if m == 0:
            continue
        rng = np.random.Generator(np.random.Philox(key=[seed, block]))
        states = np.full(m, x0, dtype=np.uint16)
        _walk(states, t, rng, sampler, table)
        # bincount widens its input to intp: one sample block at a time
        for cut in range(0, m, SAMPLE_BLOCK):
            counts += np.bincount(states[cut:cut + SAMPLE_BLOCK],
                                  minlength=ring.n)
    return SimulationResult(ring.label, x0, t, samples, seed, blocks, counts)


def _walk(states, t, rng, sampler, table):
    """Step every state t times in place, with the moves of one block's
    stream rng.

    One draw thread (_draw) takes the stream's integers; this thread maps
    each sample block's draws to move codes (QSampler) and steps the
    sample block (_kernels.run_chain).  A semaphore of two slots keeps at
    most two draw arrays alive, one being drawn and one being mapped: the
    thread takes a slot before each draw, and a slot is given back once
    the mapped array is dropped.  The draw thread alone consumes rng, in
    stream order, so the counts do not depend on how the two threads
    interleave.  If either thread raises, the error reaches the caller
    and the draw thread is joined first.
    """
    m = len(states)
    cuts = range(0, m, SAMPLE_BLOCK)
    sizes = [min(SAMPLE_BLOCK, m - cut) for cut in cuts]
    # scratch of one sample block, owned here and reused at every step
    codes = np.empty(sizes[0], dtype=np.int32)
    buckets = np.empty(sizes[0], dtype=np.intp)
    straddle = np.empty(sizes[0], dtype=bool)
    index = np.empty(sizes[0], dtype=np.intp)
    slots = threading.Semaphore(2)
    handoff = queue.SimpleQueue()
    stop = threading.Event()
    drawer = threading.Thread(
        target=_draw, args=(rng, sampler.den, t, sizes, slots, handoff, stop),
        daemon=True)
    drawer.start()
    try:
        for _ in range(t):
            for cut, size in zip(cuts, sizes):
                draws = handoff.get()
                if isinstance(draws, BaseException):
                    raise draws
                moves = sampler(draws, codes[:size], buckets[:size],
                                straddle[:size])
                del draws       # dropped before its slot is given back
                slots.release()
                _kernels.run_chain(states[cut:cut + size], moves, table,
                                   index[:size])
    finally:
        stop.set()
        slots.release()     # wakes a draw thread that waits for a slot
        drawer.join()


def _draw(rng, den, t, sizes, slots, handoff, stop):
    """The draw thread of _walk: for each of t steps and each sample block
    of `sizes`, in that order, take a slot and put
    rng.integers(0, den, size, int64) on handoff; if one raises, put the
    error instead, for _walk to raise on the calling thread.  It calls
    numpy only, never a function of this package, so whatever wraps those
    sees each call on the thread that called simulate.  It returns at the
    first slot it takes once stop is set."""
    try:
        for _ in range(t):
            for size in sizes:
                slots.acquire()
                if stop.is_set():
                    return
                handoff.put(rng.integers(0, den, size=size, dtype=np.int64))
    except BaseException as exc:
        handoff.put(exc)
