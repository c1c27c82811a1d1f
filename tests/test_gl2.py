"""GL2(F_q) classes, characters, and their agreement with the ring side."""

import numpy as np
import pytest

from ringwalk.chain import weighted_mul_counts
from ringwalk.errors import UnknownGenerator, UnsupportedQ
from ringwalk.gl2 import (
    Irrep,
    character_table,
    class_function_F,
    classify_nonunit_class,
    conj_classes,
    induced_from_P_decomposition,
    irreps,
    mirabolic_trace_sum,
    rank_one_sigma,
    ring_element_index,
    sigma_A,
)
from ringwalk.rings import matrix_ring


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


def test_tabulated_zero_entries():
    tab = character_table(5)
    st = Irrep("steinberg", (2,), 5)
    assert tab.value(st, "unipotent", (3,)) == 0
    cusp = next(r for r in tab.irreps if r.kind == "cuspidal")
    assert tab.value(cusp, "split", (1, 2)) == 0
    triv = Irrep("det", (0,), 1)
    assert all(abs(v - 1) < 1e-12 for v in tab.row(triv))


def test_regular_character_inner_product_is_dimension():
    q = 5
    tab = character_table(q)
    reg = np.zeros(len(tab.classes), dtype=complex)
    reg[tab.class_index("central", (1,))] = tab.group_order
    for rep in tab.irreps:
        got = tab.inner(reg, tab.row(rep))
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
# sigma_A on the ring
# ---------------------------------------------------------------------

def test_sigma_a_by_rank():
    r = matrix_ring(3)
    by_rank = {}
    for a in r.phi:
        ent = r.entries[int(a)].ravel()
        det = (ent[0] * ent[3] - ent[1] * ent[2]) % 3
        rank = 2 if det else (1 if ent.any() else 0)
        by_rank.setdefault(rank, []).append(int(a))
    assert len(sigma_A(r, by_rank[2][0])) == len(irreps(3))
    zero_sigma = sigma_A(r, by_rank[0][0])
    assert len(zero_sigma) == 1 and zero_sigma[0].kind == "det" \
        and zero_sigma[0].params == (0,)
    for a in by_rank[1]:
        labels = {(rep.kind, rep.params) for rep in sigma_A(r, a)}
        assert ("det", (0,)) in labels and ("steinberg", (0,)) in labels
        assert sum(rep.dim for rep in sigma_A(r, a)) == 3 * 3 - 1


def test_sigma_a_rejects_non_generators():
    r = matrix_ring(3)
    non_phi = next(x for x in range(r.n)
                   if x not in {int(a) for a in r.phi})
    with pytest.raises(UnknownGenerator):
        sigma_A(r, non_phi)


# ---------------------------------------------------------------------
# explicit class functions against single-class projected operators
# ---------------------------------------------------------------------

def rank_one_generators(r, q):
    out = []
    for a in r.phi:
        ent = r.entries[int(a)].ravel()
        det = (int(ent[0]) * int(ent[3]) - int(ent[1]) * int(ent[2])) % q
        if det == 0 and ent.any():
            out.append(int(a))
    return out


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
    part = r.similarity
    for a in rank_one_generators(r, q):
        sa = r.s_set(a)
        pos = {int(s): i for i, s in enumerate(sa)}
        y_elements = [ring_element_index(r, (0, 0, 1, 0))]
        y_elements += [ring_element_index(r, (t, 0, 0, 0))
                       for t in range(1, q)]
        for x in y_elements:
            weights = np.zeros(r.n, dtype=np.int64)
            weights[part.classes[part.class_of[x]]] = 1
            projected = weighted_mul_counts(r, weights)[np.ix_(sa, sa)].T
            action = np.zeros_like(projected)
            for w, coeff in class_function_F(r, a, x).items():
                for s in sa:
                    action[pos[int(r.mul[w, s])], pos[int(s)]] += coeff
            assert np.array_equal(projected, action)


def test_class_function_rejects_bad_inputs():
    q = 3
    r = matrix_ring(q)
    a = rank_one_generators(r, q)[0]
    from ringwalk.errors import UnknownCase
    with pytest.raises(UnknownCase):
        class_function_F(r, a, r.one)    # invertible X has no tabulated form
    with pytest.raises(UnknownGenerator):
        class_function_F(r, 2, ring_element_index(r, (0, 0, 1, 0)))


def test_classify_nonunit_tags():
    r = matrix_ring(3)
    assert classify_nonunit_class(r, r.zero) == ("zero",)
    assert classify_nonunit_class(r, ring_element_index(r, (0, 0, 1, 0))) \
        == ("Y0",)
    assert classify_nonunit_class(r, ring_element_index(r, (2, 0, 0, 0))) \
        == ("Yt", 2)
