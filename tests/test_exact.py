"""Exact rational matrices, fraction-free elimination, and nullspaces."""

from fractions import Fraction as Fr

import numpy as np
import pytest

from ringwalk.errors import SingularSystem
from ringwalk.exact import (
    ScaledMatrix,
    bareiss_echelon,
    nullspace_vector,
    stationary_nullspace,
)

from spectral_oracle import dense_float


def test_scaled_matrix_canonical_form():
    a = ScaledMatrix([[2, 4], [6, 8]], 4)
    b = ScaledMatrix([[1, 2], [3, 4]], 2)
    assert a == b
    assert (a.num.tolist(), a.den) == ([[1, 2], [3, 4]], 2)


@pytest.mark.parametrize("make, dtype", [
    (lambda rows: np.array(rows, dtype=np.int64), np.int64),
    (lambda rows: np.array(rows, dtype=object), object),
    (lambda rows: rows, object),
], ids=["int64", "object", "list"])
def test_canonical_form_is_the_same_for_every_input(make, dtype):
    m = ScaledMatrix(make([[6, -4], [0, 10]]), -4)
    assert (m.num.tolist(), m.den) == ([[-3, 2], [0, -5]], 2)
    assert m.num.dtype == dtype
    assert m == ScaledMatrix([[-3, 2], [0, -5]], 2)
    assert isinstance(m.den, int) and m.min_entry() == Fr(-5, 2)


def test_big_entries_stay_exact():
    big = 3 * 2 ** 70
    m = ScaledMatrix([[big, 2 ** 64], [0, 6]], 2 ** 65)
    assert m.num.dtype == object
    assert m.row_sums() == [Fr(big + 2 ** 64, 2 ** 65), Fr(6, 2 ** 65)]


def test_matmul_matches_float():
    rng = np.random.default_rng(3)
    a = rng.integers(-5, 6, size=(4, 4))
    b = rng.integers(-5, 6, size=(4, 4))
    sa = ScaledMatrix(a.tolist(), 3)
    sb = ScaledMatrix(b.tolist(), 7)
    prod = sa @ sb
    assert np.allclose(dense_float(prod), (a / 3) @ (b / 7))


def test_bareiss_echelon_rank():
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    ech, piv = bareiss_echelon(rows)
    assert piv == [0, 1]
    assert ech[2] == [0, 0, 0]


def test_nullspace_vector_known_kernel():
    # kernel of [[1, 1, -2], [1, -1, 0]] is spanned by (1, 1, 1)
    v = nullspace_vector([[1, 1, -2], [1, -1, 0]])
    s = v[0]
    assert [x / s for x in v] == [Fr(1), Fr(1), Fr(1)]


def test_nullspace_requires_dimension_one():
    with pytest.raises(SingularSystem):
        nullspace_vector([[1, 0], [0, 1]])        # trivial kernel
    with pytest.raises(SingularSystem):
        nullspace_vector([[1, 1, 1], [2, 2, 2], [3, 3, 3]])   # dim 2


def test_stationary_nullspace_against_float_solver():
    rng = np.random.default_rng(0)
    raw = rng.integers(1, 9, size=(5, 5))
    den = int(raw.sum(axis=1).max())
    # pad each row with extra self-weight to a common denominator
    num = raw.copy()
    for i in range(5):
        num[i, i] += den - raw[i].sum()
    m = ScaledMatrix(num.tolist(), den)
    assert all(s == 1 for s in m.row_sums())
    pi = stationary_nullspace(m)
    assert sum(pi) == 1
    assert [sum(p * Fr(int(m.num[i, j]), m.den) for i, p in enumerate(pi))
            for j in range(5)] == pi
    vals, vecs = np.linalg.eig(dense_float(m).T)
    lead = np.argmin(np.abs(vals - 1))
    ref = np.real(vecs[:, lead] / vecs[:, lead].sum())
    assert np.allclose([float(p) for p in pi], ref)
