"""GL2(F_q) classes, characters, and their agreement with the ring side."""

import numpy as np
import pytest

from ringwalk.chain import ClassDistribution
from ringwalk.errors import UnknownCase, UnsupportedQ
from ringwalk.gl2 import (
    CharacterTable,
    Irrep,
    character_table,
    classify_nonunit_class,
    conj_classes,
    irreps,
    matrix_rank,
    rank_one_sigma,
)
from ringwalk.rings import matrix_ring
from ringwalk.spectrum import (
    fixed_point_counts,
    gl2_spectrum_mod_p,
    unit_group_characters,
)

from gl2_oracle import (
    class_function_F,
    induced_from_P_decomposition,
    mirabolic_trace_sum,
    projected_and_F_action,
    rank_one_generators,
    ring_element_index,
    table_mod_p,
    table_values,
    y_elements,
)
from spectral_oracle import multiplicities


# ---------------------------------------------------------------------
# conjugacy classes
# ---------------------------------------------------------------------

def test_class_counts_and_sizes():
    for q in (3, 5, 7):
        classes = conj_classes(q)
        by_kind = {}
        for c in classes:
            by_kind.setdefault(c.kind, []).append(c)
        assert len(by_kind["central"]) == q - 1
        assert len(by_kind["unipotent"]) == q - 1
        assert len(by_kind["split"]) == (q - 1) * (q - 2) // 2
        assert len(by_kind["anisotropic"]) == (q * q - q) // 2
        assert {c.size for c in by_kind["central"]} == {1}
        assert {c.size for c in by_kind["unipotent"]} == {q * q - 1}
        assert {c.size for c in by_kind["split"]} == {q * q + q}
        assert {c.size for c in by_kind["anisotropic"]} == {q * q - q}
        total = sum(c.size for c in classes)
        assert total == (q * q - 1) * (q * q - q)


def test_q3_class_count_is_twelve_with_ring_noninvertibles():
    assert len(conj_classes(3)) == 8
    assert len(matrix_ring(3).similarity) == 12   # 8 invertible + q+1 others


def test_class_sizes_match_ring_orbits():
    for q in (3, 5):
        r = matrix_ring(q)
        tab = character_table(q)
        part = r.similarity
        for ci, cls in enumerate(part.classes):
            if not part.invertible[ci]:
                continue
            gi = tab.classify(r.entries[int(part.reps[ci])].ravel())
            assert tab.classes[gi].size == len(cls)


def test_classify_round_trips_representatives():
    for q in (3, 5, 7):
        tab = character_table(q)
        for i, c in enumerate(tab.classes):
            assert tab.classify(c.rep) == i


def test_classify_constant_on_ring_orbits():
    r = matrix_ring(3)
    tab = character_table(3)
    part = r.similarity
    for ci, cls in enumerate(part.classes):
        if not part.invertible[ci]:
            continue
        ids = {tab.classify(r.entries[int(x)].ravel()) for x in cls}
        assert len(ids) == 1


def test_class_and_irrep_params_are_python_ints():
    """Labels print their params, and an np.int32 prints as np.int32(3)
    under NumPy 2: every param and class representative entry is an int."""
    for q in (3, 5, 7):
        tab = character_table(q)
        for item in tab.classes + tab.irreps:
            assert all(type(v) is int for v in item.params), item
        for c in tab.classes:
            assert all(type(v) is int for v in c.rep), c


def test_even_q_rejected():
    with pytest.raises(UnsupportedQ):
        conj_classes(2)
    with pytest.raises(UnsupportedQ):
        character_table(4)


# ---------------------------------------------------------------------
# character table
# ---------------------------------------------------------------------

def test_counts_dims_and_orthogonality():
    for q in (3, 5, 7):
        tab = character_table(q)
        assert len(tab.irreps) == len(tab.classes)
        assert sum(r.dim ** 2 for r in tab.irreps) == tab.group_order
        ident = tab.class_index("central", (1,))
        for i, rep in enumerate(tab.irreps):
            assert tab.values[i, ident] == pytest.approx(rep.dim)
        v = tab.values
        gram = (v * tab.class_sizes) @ v.conj().T / tab.group_order
        assert np.abs(gram - np.eye(len(tab.irreps))).max() < 1e-10
        for c1 in range(len(tab.classes)):
            for c2 in range(len(tab.classes)):
                s = np.sum(v[:, c1] * np.conj(v[:, c2]))
                want = tab.group_order / tab.class_sizes[c1] if c1 == c2 else 0
                assert abs(s - want) < 1e-10


def test_table_readings_equal_the_oracle(monkeypatch):
    """The exact table read in complex floats is the oracle's entry-by-entry
    table bit for bit, signed zeros included; read in F_p inside
    gl2_spectrum_mod_p, it is the oracle's F_p evaluation."""
    for q in (3, 5, 7, 11):
        got, want = character_table(q).values, table_values(q)
        assert got.dtype == want.dtype == np.complex128
        got, want = got.view(np.float64), want.view(np.float64)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    images = []
    image = CharacterTable.image

    def recorded(tab, powers, p):
        images.append((tab.q, int(powers[1]), p, image(tab, powers, p)))
        return images[-1][-1]

    monkeypatch.setattr(CharacterTable, "image", recorded)
    for q in (3, 5, 7):
        ring = matrix_ring(q)
        gl2_spectrum_mod_p(ring, ClassDistribution.uniform(ring))
        (tq, zeta, p, got), = images
        images.clear()
        assert tq == q and got.dtype == np.int64
        assert np.array_equal(got, table_mod_p(q, p, zeta))


def test_tabulated_zero_entries():
    tab = character_table(5)
    st = tab.irrep_index(Irrep("steinberg", (2,), 5))
    assert tab.values[st, tab.class_index("unipotent", (3,))] == 0
    cusp = next(i for i, r in enumerate(tab.irreps) if r.kind == "cuspidal")
    assert tab.values[cusp, tab.class_index("split", (1, 2))] == 0
    triv = tab.irrep_index(Irrep("det", (0,), 1))
    assert all(abs(v - 1) < 1e-12 for v in tab.values[triv])


def test_regular_character_inner_product_is_dimension():
    q = 5
    tab = character_table(q)
    reg = np.zeros(len(tab.classes), dtype=complex)
    reg[tab.class_index("central", (1,))] = tab.group_order
    for rep, row in zip(tab.irreps, tab.values):
        got = np.sum(tab.class_sizes * reg * np.conj(row)) / tab.group_order
        assert got == pytest.approx(rep.dim, abs=1e-8)


# ---------------------------------------------------------------------
# induced-from-mirabolic decomposition
# ---------------------------------------------------------------------

def test_mirabolic_trace_sums():
    for q in (3, 5, 7):
        assert mirabolic_trace_sum(q, Irrep("det", (0,), 1)) == \
            pytest.approx(q * (q - 1))
        assert mirabolic_trace_sum(q, Irrep("steinberg", (0,), q)) == \
            pytest.approx(q * (q - 1))


def test_induced_decomposition_pattern():
    for q in (3, 5, 7):
        dec = induced_from_P_decomposition(q)
        expected = set()
        expected.add(("det", (0,)))
        expected.add(("steinberg", (0,)))
        for k in range(1, q - 1):
            expected.add(("principal", (0, k)))
        for rep, m in dec.items():
            if (rep.kind, rep.params) in expected:
                assert m == 1
            else:
                assert m == 0
        dim = sum(rep.dim * m for rep, m in dec.items())
        assert dim == q * q - 1
        assert 1 + q + (q - 2) * (q + 1) == q * q - 1
        # cuspidals never appear
        assert all(m == 0 for rep, m in dec.items() if rep.kind == "cuspidal")


def test_rank_one_sigma_matches_decomposition():
    for q in (3, 5):
        dec = induced_from_P_decomposition(q)
        expected = {(rep.kind, rep.params) for rep, m in dec.items() if m}
        got = {(rep.kind, rep.params) for rep in rank_one_sigma(q)}
        assert got == expected


# ---------------------------------------------------------------------
# Sigma_A on the ring
# ---------------------------------------------------------------------

def test_sigma_a_by_rank():
    """Sigma_A, the constituents of the permutation representation on S_A
    from fixed-point counts: every irreducible at rank 2, rank_one_sigma,
    each once, at rank 1, and the trivial one at rank 0."""
    for q in (3, 5):
        r = matrix_ring(q)
        tab = character_table(q)
        sigma = {2: set(irreps(q)), 1: set(rank_one_sigma(q)),
                 0: {Irrep("det", (0,), 1)}}
        for a in map(int, r.phi):
            mults = multiplicities(r, a, fixed_point_counts(r, a),
                                   unit_group_characters(r))
            rank = matrix_rank(r.entries[a].ravel(), q)
            assert {rep for rep, m in zip(tab.irreps, mults) if m} == \
                sigma[rank]
            assert rank == 2 or set(mults.tolist()) <= {0, 1}
        assert sum(rep.dim for rep in rank_one_sigma(q)) == q * q - 1


# ---------------------------------------------------------------------
# explicit class functions against single-class projected operators
# ---------------------------------------------------------------------

def test_class_function_coefficients():
    q = 3
    r = matrix_ring(q)
    a = rank_one_generators(r, q)[0]
    y0 = ring_element_index(r, (0, 0, 1, 0))
    f0 = class_function_F(r, a, y0)
    assert f0[r.one] == -(q - 1)
    assert sum(v for v in f0.values() if v > 0) == q * q - 1
    for t in (1, 2):
        yt = ring_element_index(r, (t, 0, 0, 0))
        ft = class_function_F(r, a, yt)
        central = ring_element_index(r, (t, 0, 0, t))
        assert ft[central] == 1
        assert sum(ft.values()) == q * q - 1 + 1


def test_class_functions_act_like_projected_operators():
    """The tabulated group-algebra elements reproduce the projected action
    of each non-invertible class sum on span(S_A), entry for entry."""
    q = 3
    r = matrix_ring(q)
    for a in rank_one_generators(r, q):
        for x in y_elements(r, q):
            projected, action = projected_and_F_action(r, a, x)
            assert np.array_equal(projected, action)


def test_class_function_rejects_bad_inputs():
    q = 3
    r = matrix_ring(q)
    a = rank_one_generators(r, q)[0]
    with pytest.raises(UnknownCase):
        class_function_F(r, a, r.one)    # invertible X has no tabulated form


def test_classify_nonunit_tags():
    r = matrix_ring(3)
    assert classify_nonunit_class(r, r.zero) == ("zero",)
    assert classify_nonunit_class(r, ring_element_index(r, (0, 0, 1, 0))) \
        == ("Y0",)
    assert classify_nonunit_class(r, ring_element_index(r, (2, 0, 0, 0))) \
        == ("Yt", 2)
