"""Hot integer kernels: the matrix-ring multiplication table and the
trajectory stepping of the simulator, in numpy."""

from __future__ import annotations

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


def run_chain(states, coins, adds, zs, add_table, mul_table, left=True):
    """Advance all sample trajectories in place through the pre-drawn moves.

    coins/adds/zs have shape (steps, samples).  A heads coin adds the drawn
    uniform element; a tails coin multiplies by the drawn element, on the
    left by default (matching the transition matrix convention) or on the
    right when left=False.
    """
    for step in range(len(coins)):
        heads = coins[step].astype(bool)
        added = add_table[states, adds[step]]
        if left:
            multiplied = mul_table[zs[step], states]
        else:
            multiplied = mul_table[states, zs[step]]
        np.copyto(states, np.where(heads, added, multiplied))
    return states
