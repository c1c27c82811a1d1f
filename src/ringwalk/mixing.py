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

The simulator draws from a counter-based Philox stream keyed by (seed,
block); coin flips and Q-samples are integer draws compared against exact
rational thresholds, so every move has its exact probability and runs
reproduce bit-for-bit across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, log

import numpy as np

from . import _kernels
from .chain import ClassDistribution, check_alpha, check_same_ring
from .errors import InvariantViolation, LengthMismatch, ParamOutOfRange
from .rings import FiniteRing
from .stationary import stationary_recursive

T_CAP = 64
STEP_CHUNK_ENTRIES = 20_000_000


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

    Returns arrays (i, j, c, count): for any one z in C_c there are `count`
    pairs (x, y) in C_i x C_j with x*y = z.  Conjugation by a unit permutes
    those pairs, so the count is the same for every z in C_c, and the pair
    total over C_c must divide by |C_c|.  Sparse, so memory stays O(n^2)
    (that of the table) even when every class is a singleton.
    """
    part = ring.similarity
    k = len(part)
    cls = part.class_of.astype(np.int64)
    keys = (cls[:, None] * k + cls[None, :]) * k + cls[ring.mul]
    keys, totals = np.unique(keys, return_counts=True)
    ij, c = np.divmod(keys, k)
    i, j = np.divmod(ij, k)
    sizes = np.array([len(cl) for cl in part.classes], dtype=np.int64)[c]
    if np.any(totals % sizes):
        raise InvariantViolation(f"{ring.label}: product counts are not "
                                 f"constant on similarity classes")
    return i, j, c, totals // sizes


def d_of_t(ring: FiniteRing, Q: ClassDistribution, alpha, T: int) -> MixingCurve:
    """Exact worst-start TV distance to stationarity for t = 0..T.

    Domain: any ring the package builds, Q class-constant on that ring,
    0 < alpha < 1 and 0 <= T <= T_CAP.  Every value is a Fraction, built
    from the identity

        M^t = (1-alpha)^t B^t + sum_{m<t} alpha (1-alpha)^m U B^m

    with mu_t = Q^{*t} convolved on class weights (B^t(a, .) is mu_t pushed
    forward by y -> y*a, and u B^m is class-constant), pi from
    stationary_recursive, and one start per generator in ring.phi.  Cost,
    for k similarity classes and n elements: one O(n^2 log n) count of
    class products from the table, then O(T * (k^2 + |phi| * n))
    exact-integer operations.
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
    """
    alpha = check_alpha(alpha, allow_boundary)
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
        raise ValueError("a seed is mandatory for reproducible simulation")
    if not -2**63 <= seed < 2**63:
        raise ParamOutOfRange(f"field 'seed': {seed} does not fit the "
                              f"signed 64-bit Philox key word")
    p, s = alpha.numerator, alpha.denominator
    w_int, den = Q.scaled_weights()
    cum = np.cumsum(np.array(w_int, dtype=np.int64))
    counts = np.zeros(ring.n, dtype=np.int64)
    per_block = [samples // blocks] * blocks
    per_block[-1] += samples - sum(per_block)
    for block, m in enumerate(per_block):
        if m == 0:
            continue
        rng = np.random.Generator(np.random.Philox(key=[seed, block]))
        states = np.full(m, x0, dtype=np.int32)
        chunk = max(1, min(t, STEP_CHUNK_ENTRIES // max(m, 1)))
        done = 0
        while done < t:
            step = min(chunk, t - done)
            coins = (rng.integers(0, s, size=(step, m)) < p).astype(np.int8)
            adds = rng.integers(0, ring.n, size=(step, m), dtype=np.int32)
            draws = rng.integers(0, den, size=(step, m), dtype=np.int64)
            zs = np.searchsorted(cum, draws, side="right").astype(np.int32)
            _kernels.run_chain(states, coins, adds, zs, ring.add, ring.mul,
                               left=(side == "left"))
            done += step
        counts += np.bincount(states, minlength=ring.n)
    return SimulationResult(ring.label, x0, t, samples, seed, side, blocks,
                            counts)


def one_step_rows(ring: FiniteRing, Q: ClassDistribution, alpha, samples: int,
                  seed: int, side: str = "left", starts=None) -> np.ndarray:
    """Empirical one-step transition frequencies from each start state."""
    starts = list(range(ring.n)) if starts is None else list(starts)
    rows = np.zeros((len(starts), ring.n))
    for i, a in enumerate(starts):
        res = simulate(ring, Q, alpha, int(a), 1, samples, seed + i, side=side)
        rows[i] = res.empirical()
    return rows
