"""Hot integer kernels: the matrix-ring addition and multiplication tables
and the trajectory stepping of the simulator, in numpy.

The matrix-ring tables are built by rows: row i of a sum or a product
depends on a only through row i of a, so each table is a sum of s gathers
from a small table over the m^s row vectors of the field, summed into the
table _BLOCK rows at a time.  The ring tables are uint16, which holds
every index below rings.SIZE_CAP < 2^16; the field tables and the
per-row code contributions are int32, and each contribution is narrowed
to uint16 once, as every partial code is below n."""

from __future__ import annotations

import numpy as np

GATHER_BLOCK = 2**14       # samples stepped together through a chunk
_BLOCK = 64                # table rows gathered together


def active_backend() -> str:
    """Name of the kernel implementation, recorded with benchmark results.

    numpy is the only implementation; the function stays so that tools which
    record the backend keep working."""
    return "numpy"


def _row_codes(E, m):
    """(m^s x s) table of every row vector over a field of m elements, in
    lexicographic order (most significant entry first), and the (n x s)
    index in that table of each element's rows."""
    s = E.shape[1]
    weights = m ** np.arange(s - 1, -1, -1)
    vectors = (np.arange(m ** s)[:, None] // weights) % m
    return vectors, E @ weights


def matrix_mul_table(E, fmul, fadd, place):
    """out[a, b] = encoded index of the matrix product a @ b over the field.

    E[a] holds the s x s field entries of element a.  place[i, j] is the
    positional multiplier of entry (i, j) in the element encoding, or -1 for
    entries forced to zero by the ring's shape; a nonzero product entry at a
    forced-zero position counts as a closure violation and is reported in
    the second return value.

    Row i of a @ b is (row i of a) @ b, so the product entries are tabulated
    once for every one of the m^s row vectors r against every b, and out is
    the sum over i of one row-gather of the code contributions of row i.
    """
    n, s, _ = E.shape
    vectors, rows = _row_codes(E, len(fmul))
    prod = []                   # prod[j][r, b] = entry j of r @ b
    for j in range(s):
        acc = np.zeros((len(vectors), n), dtype=np.int32)
        for k in range(s):
            acc = fadd[acc, fmul[vectors[:, k, None], E[None, :, k, j]]]
        prod.append(acc)
    # codes[i][r, b]: the code part of row i of a @ b when row i of a is r
    codes = []
    bad = 0
    for i in range(s):
        acc = np.zeros((len(vectors), n), dtype=np.int32)
        for j in range(s):
            if place[i, j] < 0:
                nonzero = np.count_nonzero(prod[j], axis=1)
                bad += int(nonzero[rows[:, i]].sum())
            else:
                acc += prod[j] * int(place[i, j])
        codes.append(acc.astype(np.uint16))     # partial codes are below n
    return _gather_rows(codes, rows, n), bad


def matrix_add_table(E, fadd, place):
    """out[a, b] = encoded index of the entrywise sum a + b over the field.

    Arguments as for matrix_mul_table.  Row i of a + b is (row i of a) +
    (row i of b), so it is tabulated once for every row vector r against
    every b, and out is the sum over i of one row-gather.
    """
    n, s, _ = E.shape
    vectors, rows = _row_codes(E, len(fadd))
    codes = []
    for i in range(s):
        acc = np.zeros((len(vectors), n), dtype=np.int32)
        for j in range(s):
            if place[i, j] >= 0:
                acc += fadd[vectors[:, j, None], E[None, :, i, j]] \
                    * int(place[i, j])
        codes.append(acc.astype(np.uint16))     # partial codes are below n
    return _gather_rows(codes, rows, n)


def _gather_rows(codes, rows, n):
    """out[a] = sum over i of codes[i][rows[a, i]], _BLOCK rows of out
    at a time: the first gather lands in out and the rest add in place, so
    no n x n temporary is made.  codes are uint16, and so is out: every
    partial sum is a code below n."""
    out = np.empty((n, n), dtype=np.uint16)
    for s in range(0, n, _BLOCK):
        block = out[s:s + _BLOCK]
        np.take(codes[0], rows[s:s + _BLOCK, 0], axis=0, out=block)
        for i in range(1, len(codes)):
            block += codes[i][rows[s:s + _BLOCK, i]]
    return out


def step_table(add, mul, left=True):
    """Flat int32 gather table of one simulator step on an n-element ring,
    x-major and pre-scaled by 2n, from the uint16 ring tables add and mul.

    Entry x*2n + a holds (x + a)*2n and entry x*2n + n + z holds (z*x)*2n
    (left) or (x*z)*2n (right).  A state carried as x*2n plus a move code
    below 2n (mixing._draw_moves) is the index of its move, and the entry
    is the next state, carried the same way.  int32 holds every entry and
    index: 2 n^2 < 2^31 for n up to rings.SIZE_CAP.  The products are
    computed in int32 (dtype=), not in uint16 and then widened, which would
    wrap once (n - 1) 2n reaches 2^16.  Each half is written in place, so
    the table is the only n x 2n array made.
    """
    n = len(add)
    table = np.empty((n, 2 * n), dtype=np.int32)
    np.multiply(add, 2 * n, out=table[:, :n], dtype=np.int32)
    np.multiply(mul.T if left else mul, 2 * n, out=table[:, n:],
                dtype=np.int32)
    return table.ravel()


def run_chain(states, moves, table):
    """Advance all sample trajectories in place through one chunk of moves.

    states are int32 and carry each element x as x*2n.  moves has shape
    (steps, samples), uint16: moves[t, i] is the code of sample i's move
    at step t, a to add a or n + z to multiply by z (mixing._draw_moves),
    and table comes from step_table.  Each step is one add of the uint16
    code to the int32 state and one gather at the sum.  The samples
    advance in blocks of GATHER_BLOCK through all steps of the chunk, so a
    block's states and the intp copy np.take makes of its index stay in
    cache; trajectories are independent, so the order of blocks does not
    change the result.
    """
    idx = np.empty(min(GATHER_BLOCK, len(states)), dtype=states.dtype)
    for start in range(0, len(states), GATHER_BLOCK):
        block = states[start:start + GATHER_BLOCK]
        block_idx = idx[:len(block)]
        for row in moves[:, start:start + GATHER_BLOCK]:
            np.add(row, block, out=block_idx)
            # every index is in range by construction; mode="clip" skips
            # the bounds check, which would also buffer the output
            np.take(table, block_idx, out=block, mode="clip")
    return states
