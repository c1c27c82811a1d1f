"""Hot integer kernels: the matrix-ring addition and multiplication tables
and the trajectory stepping of the simulator, in numpy.

The matrix-ring tables are built by rows: row i of a sum or a product
depends on a only through row i of a, so each table is a sum of s gathers
from a small table over the m^s row vectors of the field, summed into the
table _BLOCK rows at a time.  The ring tables are uint16, which holds
every index below rings.SIZE_CAP < 2^16; the field tables and the
per-row code contributions are int32, and each contribution is narrowed
to uint16 once, as every partial code is below n.

The simulator steps every sample through a uint16 copy of the ring
tables, [add; mul] stacked: a state is a uint16 element index and a move
an int32 code, and the gather index of one sample block is an intp
scratch array that the caller owns and reuses (run_chain).  run_chain
runs on the thread that called mixing.simulate; that function's draw
thread, one per block, only draws."""

from __future__ import annotations

import numpy as np

_BLOCK = 64                # table rows or columns per whole-table pass


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


def run_chain(states, moves, table, index):
    """Advance a block of sample trajectories one step in place.

    states are the samples' uint16 element indices, and moves their int32
    move codes for this step: a to add a, n + z to multiply by z
    (mixing.move_weights).  table is the (2n x n) uint16 stack of the ring
    tables [add; mul], so entry code*n + x of the flat table is the state
    after move code from x: x + a, or z x for code n + z (a walk that
    multiplies on the right runs on the opposite ring's tables).  The
    step is one multiply, one add and one gather, through index, an intp
    scratch array of len(states) that the caller owns: np.take would copy
    a narrower index to intp on every call.  The caller passes one sample
    block (mixing.SAMPLE_BLOCK), so the states and the index stay in cache.
    """
    n = table.shape[1]
    np.multiply(moves, n, dtype=np.intp, out=index)
    index += states
    # every index is in range by construction; mode="clip" skips the
    # bounds check, which would also buffer the output
    np.take(table, index, out=states, mode="clip")
    return states
