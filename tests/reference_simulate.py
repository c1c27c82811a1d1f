"""Oracle for the simulator's Philox stream: the move law written the plain
way, from Fractions, with one block-sized draw and searchsorted.  Also
one_step_rows, the simulator's empirical one-step transition rows.

reference_simulate takes the arguments of mixing.simulate and a side, and
returns the end-state counts: side="left" is the walk simulate runs, and
side="right" the walk that multiplies on the right, which simulate runs
on the opposite ring.  The oracle builds the right walk's table from R's
own tables, not from R^op.  The draw order is the stream contract of
mixing.simulate: per block a Philox stream keyed (seed, block), and per
step one integer in [0, R) per sample, row-major over (step, sample), with
R = s lcm(n, D) for alpha = p/s and Q's common denominator D.  The oracle
draws all t*m integers of a block at once, maps them to move codes with
np.searchsorted over its own cumulative weights (the exact probabilities
alpha/n and (1 - alpha) Q(z) times R), and steps through its own table
built from ring.add and ring.mul (n_major_table), so it shares no sampler
or table code with the simulator it checks.
"""

from fractions import Fraction
from math import lcm

import numpy as np

from ringwalk.exact import ScaledMatrix
from ringwalk.mixing import simulate


def n_major_table(ring, side):
    """Flat table of one step: entry a*n + x is x + a and entry
    n*n + z*n + x is z*x (left) or x*z (right)."""
    mul = ring.mul if side == "left" else ring.mul.T
    return np.concatenate([ring.add.T.ravel(), mul.ravel()]).astype(np.int64)


def reference_move_cum(ring, Q, alpha):
    """The draw range R and the cumulative integer weights of the 2n move
    codes: R times alpha/n for each code a, and R times (1 - alpha) Q(z)
    for each code n + z."""
    n = ring.n
    alpha = Fraction(alpha)
    q = [Q.weights[c] for c in ring.similarity.class_of]
    R = alpha.denominator * lcm(n, *(x.denominator for x in q))
    probs = [alpha / n] * n + [(1 - alpha) * x for x in q]
    weights = [x * R for x in probs]
    assert all(w.denominator == 1 for w in weights) and sum(probs) == 1
    return R, np.cumsum(np.array([int(w) for w in weights], dtype=np.int64))


def reference_simulate(ring, Q, alpha, x0, t, samples, seed, side, blocks):
    R, cum = reference_move_cum(ring, Q, alpha)
    table = n_major_table(ring, side)
    n = ring.n
    counts = np.zeros(n, dtype=np.int64)
    per_block = [samples // blocks] * blocks
    per_block[-1] += samples - sum(per_block)
    for block, m in enumerate(per_block):
        if m == 0:
            continue
        rng = np.random.Generator(np.random.Philox(key=[seed, block]))
        draws = rng.integers(0, R, size=(t, m), dtype=np.int64)
        codes = np.searchsorted(cum, draws, side="right")
        states = np.full(m, x0, dtype=np.int64)
        for step in codes:
            states = table[step * n + states]
        counts += np.bincount(states, minlength=n)
    return counts


def one_step_rows(ring, Q, alpha, samples: int, seed: int,
                  starts=None) -> np.ndarray:
    """Empirical one-step transition frequencies from each start state."""
    starts = list(range(ring.n)) if starts is None else list(starts)
    rows = np.zeros((len(starts), ring.n))
    for i, a in enumerate(starts):
        res = simulate(ring, Q, alpha, int(a), 1, samples, seed + i)
        rows[i] = res.empirical()
    return rows


def right_multiplication_B(ring, Q) -> ScaledMatrix:
    """B of the right-multiplying walk a -> a z: the sum of Q(z) over z
    with a z == b, exactly."""
    w, den = Q.scaled_weights()
    num = np.zeros((ring.n, ring.n), dtype=w.dtype)
    for a in range(ring.n):
        np.add.at(num[a], ring.mul[a], w)
    return ScaledMatrix(num, den)
