"""The row-wise matrix-ring tables against the entry-by-entry reference."""

import numpy as np
import pytest

from ringwalk import _kernels
from ringwalk.errors import InvariantViolation
from ringwalk.fields import gf
from ringwalk.rings import (
    _structured_matrix_ring,
    matrix_ring,
    upper_triangular_ring,
)


def reference_mul_table(E, fmul, fadd, place):
    """out[a, b] = code of a @ b, one row a and one entry (i, j) at a time,
    plus the count of nonzero product entries at forced-zero positions."""
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


def reference_add_table(E, fadd, place):
    """out[a, b] = code of a + b, one entry slot at a time."""
    n, s, _ = E.shape
    out = np.zeros((n, n), dtype=np.int64)
    for i in range(s):
        for j in range(s):
            if place[i, j] >= 0:
                col = E[:, i, j]
                out += fadd[col[:, None], col[None, :]] * place[i, j]
    return out


def shape_inputs(field, size, positions):
    """The (E, place) pair the ring constructor builds for this shape."""
    m, d = field.size, len(positions)
    codes = np.arange(m ** d)
    E = np.zeros((m ** d, size, size), dtype=np.int32)
    place = np.full((size, size), -1, dtype=np.int64)
    for slot, (i, j) in enumerate(positions):
        place[i, j] = m ** (d - 1 - slot)
        E[:, i, j] = (codes // place[i, j]) % m
    return E, place


FULL2 = [(0, 0), (0, 1), (1, 0), (1, 1)]
RINGS = {
    "M2(F2)": (lambda: matrix_ring(2), FULL2),
    "M2(F3)": (lambda: matrix_ring(3), FULL2),
    "M2(F5)": (lambda: matrix_ring(5), FULL2),
    "M2(F7)": (lambda: matrix_ring(7), FULL2),
    "B2(F5)": (lambda: upper_triangular_ring(5), [(0, 0), (0, 1), (1, 1)]),
    "M3(F2)": (lambda: matrix_ring(2, size=3),
               [(i, j) for i in range(3) for j in range(3)]),
    "M2(F4)": (lambda: matrix_ring(gf(2, 2)), FULL2),
}


@pytest.mark.parametrize("name", sorted(RINGS))
def test_ring_tables_equal_reference(name):
    make, positions = RINGS[name]
    ring = make()
    fadd, fmul = ring.field.add, ring.field.mul
    E, place = shape_inputs(ring.field, ring.mat_size, positions)
    assert np.array_equal(E, ring.entries)
    ref_mul, bad = reference_mul_table(E, fmul, fadd, place)
    assert bad == 0
    assert ring.mul.dtype == ring.add.dtype == np.uint16
    assert np.array_equal(ring.mul, ref_mul)
    assert np.array_equal(ring.add, reference_add_table(E, fadd, place))


@pytest.mark.parametrize("p, size, positions, violations", [
    (3, 2, [(0, 1), (1, 0)], 72),
    (5, 2, [(0, 0), (1, 0), (0, 1)], 10000),
    (2, 3, [(0, 0), (0, 2), (2, 1)], 16),
])
def test_unclosed_shapes_count_violations_like_reference(p, size, positions,
                                                         violations):
    field = gf(p)
    fadd, fmul = field.add, field.mul
    E, place = shape_inputs(field, size, positions)
    out, bad = _kernels.matrix_mul_table(E, fmul, fadd, place)
    ref_out, ref_bad = reference_mul_table(E, fmul, fadd, place)
    assert bad == ref_bad == violations
    assert np.array_equal(out, ref_out)
    with pytest.raises(InvariantViolation):
        _structured_matrix_ring(field, size, positions, "unclosed", {})
