"""Hot integer kernels: the matrix-ring multiplication table and the
trajectory stepping of the simulator, in numpy."""

from __future__ import annotations

import math

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation, recorded with benchmark results.

    numpy is the only implementation; the function stays so that tools which
    record the backend keep working."""
    return "numpy"


def matrix_mul_table(E, fmul, fadd, place):
    """out[a, b] = encoded index of the matrix product a @ b over the field.

    place[i, j] is the positional multiplier of entry (i, j) in the element
    encoding, or -1 for entries forced to zero by the ring's shape; a nonzero
    product entry at a forced-zero position counts as a closure violation and
    is reported in the second return value.
    """
    n, s, _ = E.shape
    out = np.empty((n, n), dtype=np.int64)
    bad = 0
    for a in range(n):
        idx = np.zeros(n, dtype=np.int64)
        for i in range(s):
            for j in range(s):
                acc = np.zeros(n, dtype=np.int64)
                for k in range(s):
                    acc = fadd[acc, fmul[E[a, i, k], E[:, k, j]]]
                if place[i, j] < 0:
                    bad += int(np.count_nonzero(acc))
                else:
                    idx += acc * place[i, j]
        out[a] = idx
    return out, bad


def step_table(add, mul, left=True):
    """Flat int32 gather table of one simulator step on an n-element ring.

    Entry a*n + x is x + a and entry n*n + z*n + x is z*x (left) or x*z
    (right), so both moves from state x are one lookup at x plus an offset
    that does not depend on x.  int32 holds every index: 2 n^2 < 2^31 for
    n up to rings.SIZE_CAP.
    """
    mul = mul if left else mul.T
    return np.concatenate([add.T.ravel(), mul.ravel()]).astype(np.int32)


def run_chain(states, heads, adds, zs, table):
    """Advance all sample trajectories in place through the pre-drawn moves.

    heads/adds/zs have shape (steps, samples) and table comes from
    step_table.  A heads coin adds the drawn uniform element; a tails coin
    multiplies by the drawn Q-element on the side the table was built for.
    Each step is one gather at index n*a + x (heads) or n*(n + z) + x
    (tails) from state x.
    """
    n = math.isqrt(table.size // 2)
    idx = np.empty_like(states)
    for h, a, z in zip(heads, adds, zs):
        np.add(z, n, out=idx)
        np.copyto(idx, a, where=h)
        idx *= n
        idx += states
        # every index is in range by construction; mode="clip" skips the
        # bounds check, which would also buffer the output
        np.take(table, idx, out=states, mode="clip")
    return states
