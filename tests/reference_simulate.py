"""Oracle for the simulator's Philox stream: the chunked loop written the
plain way, with int64 chunk-sized draws and a masked copy per step.  Also
one_step_rows, the simulator's empirical one-step transition rows.

reference_simulate takes the same arguments as mixing.simulate and the
chunk size explicitly; it returns the end-state counts.  The draw order is
the stream contract of mixing.simulate: per block a Philox stream keyed
(seed, block); per chunk of steps all coins, then all uniform elements,
then all Q-draws, each row-major over (step, sample).  The oracle builds
its own step table from ring.add and ring.mul (n_major_table), move-major
where the simulator's is x-major, so it shares no table code with the
simulator it checks.
"""

import math

import numpy as np

from ringwalk.exact import ScaledMatrix
from ringwalk.mixing import QSampler, simulate


def n_major_table(ring, side):
    """Flat table of one step: entry a*n + x is x + a and entry
    n*n + z*n + x is z*x (left) or x*z (right)."""
    mul = ring.mul if side == "left" else ring.mul.T
    return np.concatenate([ring.add.T.ravel(), mul.ravel()]).astype(np.int32)


def reference_run_chain(states, heads, adds, zs, table):
    """Five ops per step: index n*a (heads) or n*(n + z) (tails), plus x."""
    n = math.isqrt(table.size // 2)
    idx = np.empty_like(states)
    for h, a, z in zip(heads, adds, zs):
        np.add(z, n, out=idx)
        np.copyto(idx, a, where=h)
        idx *= n
        idx += states
        np.take(table, idx, out=states, mode="clip")
    return states


def reference_run_chunk(rng, states, step, alpha, n, sampler, table):
    heads = rng.integers(0, alpha.denominator, size=(step, len(states))) \
        < alpha.numerator
    adds = rng.integers(0, n, size=(step, len(states)), dtype=np.int32)
    zs = sampler(rng.integers(0, sampler.den, size=(step, len(states)),
                              dtype=np.int64))
    reference_run_chain(states, heads, adds, zs, table)


def reference_simulate(ring, Q, alpha, x0, t, samples, seed, side, blocks,
                       chunk_entries):
    w_int, _ = Q.scaled_weights()
    sampler = QSampler(w_int)
    table = n_major_table(ring, side)
    counts = np.zeros(ring.n, dtype=np.int64)
    per_block = [samples // blocks] * blocks
    per_block[-1] += samples - sum(per_block)
    for block, m in enumerate(per_block):
        if m == 0:
            continue
        rng = np.random.Generator(np.random.Philox(key=[seed, block]))
        states = np.full(m, x0, dtype=np.int32)
        chunk = max(1, min(t, chunk_entries // m))
        done = 0
        while done < t:
            step = min(chunk, t - done)
            reference_run_chunk(rng, states, step, alpha, ring.n, sampler,
                                table)
            done += step
        counts += np.bincount(states, minlength=ring.n)
    return counts


def one_step_rows(ring, Q, alpha, samples: int, seed: int, side: str = "left",
                  starts=None) -> np.ndarray:
    """Empirical one-step transition frequencies from each start state."""
    starts = list(range(ring.n)) if starts is None else list(starts)
    rows = np.zeros((len(starts), ring.n))
    for i, a in enumerate(starts):
        res = simulate(ring, Q, alpha, int(a), 1, samples, seed + i, side=side)
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
