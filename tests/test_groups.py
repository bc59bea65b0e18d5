"""Finite-group core: validation, subgroups, cosets, commuting-pair classes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cyclic, dihedral_4, klein_four, quaternion_8, symmetric_3
from twochar.errors import NotAGroup
from twochar.groups import (
    centralizer,
    commuting_pair_classes,
    conjugate_subgroup,
    coset_representative_map,
    double_cosets,
    from_cayley_table,
    generated_subgroup,
    normalizer,
    right_transversal,
    subgroup_class_representatives,
    subgroup_group,
    all_subgroups,
    full_subgroup,
    trivial_subgroup,
)

ALL = [cyclic(4), klein_four(), symmetric_3(), dihedral_4(), quaternion_8()]


def test_identity_is_index_zero():
    for G in ALL:
        assert all(G.mul(0, g) == g == G.mul(g, 0) for g in G.elements)


def test_rejects_table_without_identity():
    with pytest.raises(NotAGroup):
        from_cayley_table([[0, 1], [1, 1]])


def test_rejects_non_associative_loop():
    # A Latin square with two-sided identity that is not a group: element 1
    # squares to the identity yet the table is not any relabelled Z/5.
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(NotAGroup) as exc:
        from_cayley_table(table)
    assert exc.value.witness is not None


def test_rejects_non_latin_rows():
    with pytest.raises(NotAGroup):
        from_cayley_table([[0, 0], [1, 1]])


def test_basic_orders(v4, s3, d4, q8):
    assert [v4.order, s3.order, d4.order, q8.order] == [4, 6, 8, 8]
    assert sorted(s3.order_of(g) for g in s3.elements) == [1, 2, 2, 2, 3, 3]
    assert sorted(q8.order_of(g) for g in q8.elements) == [1, 2, 4, 4, 4, 4, 4, 4]


@settings(max_examples=60, deadline=None)
@given(gi=st.integers(0, len(ALL) - 1), data=st.data())
def test_group_algebra_laws(gi, data):
    G = ALL[gi]
    a = data.draw(st.integers(0, G.order - 1))
    b = data.draw(st.integers(0, G.order - 1))
    g = data.draw(st.integers(0, G.order - 1))
    assert G.inv(G.mul(a, b)) == G.mul(G.inv(b), G.inv(a))
    assert G.conj(g, G.mul(a, b)) == G.mul(G.conj(g, a), G.conj(g, b))
    assert G.order % G.order_of(a) == 0
    assert G.commutes(a, b) == (G.mul(a, b) == G.mul(b, a))


def test_subgroup_counts(v4, s3, d4, q8, z4):
    for G, count in ((v4, 5), (s3, 6), (d4, 10), (q8, 6), (z4, 3)):
        assert len(all_subgroups(G)) == count


def test_subgroup_orders_divide(d4):
    for P in all_subgroups(d4):
        assert d4.order % P.order == 0
        assert 0 in P.elements


def test_generated_subgroup(s3, z4):
    t = next(g for g in s3.elements if s3.order_of(g) == 2)
    assert generated_subgroup(s3, (t,)).order == 2
    assert generated_subgroup(z4, (1,)).order == 4
    assert generated_subgroup(z4, ()).order == 1


def test_subgroup_group_is_monotone_and_multiplicative(d4):
    for P in all_subgroups(d4):
        sub, to_sub, els = subgroup_group(P)
        assert list(els) == sorted(els)
        for i, a in enumerate(els):
            assert to_sub[a] == i
            for j, b in enumerate(els):
                assert els[sub.mul(i, j)] == d4.mul(a, b)


def test_conjugate_subgroup_membership(s3):
    P = generated_subgroup(s3, (next(g for g in s3.elements if s3.order_of(g) == 2),))
    for g in s3.elements:
        Q = conjugate_subgroup(s3, g, P)
        assert set(Q.elements) == {s3.conj(g, x) for x in P.elements}


def test_centralizer_and_normalizer(s3, v4):
    t = next(g for g in s3.elements if s3.order_of(g) == 2)
    r = next(g for g in s3.elements if s3.order_of(g) == 3)
    assert centralizer(s3, t).order == 2
    assert centralizer(v4, 1).order == 4
    a3 = generated_subgroup(s3, (r,))
    assert normalizer(s3, a3).order == 6
    assert normalizer(s3, generated_subgroup(s3, (t,))).order == 2


def test_subgroup_class_representatives(d4):
    reps = subgroup_class_representatives(d4)
    assert len(reps) == 8
    assert all(
        P == min((conjugate_subgroup(d4, g, P) for g in d4.elements), key=lambda s: s.elements)
        for P in reps
    )


def test_double_cosets_partition(s3, d4):
    for G in (s3, d4):
        subs = all_subgroups(G)
        P, Q = subs[1], subs[-2]
        cosets = double_cosets(G, P, Q)
        seen = [g for c in cosets for g in c]
        assert sorted(seen) == list(G.elements)
        assert all(c[0] == min(c) for c in cosets)


def test_right_transversal_and_coset_map(s3):
    for Q in all_subgroups(s3):
        ts = right_transversal(s3, Q)
        assert len(ts) * Q.order == s3.order
        rep = coset_representative_map(s3, Q)
        members = set(Q.elements)
        for g in s3.elements:
            assert s3.mul(g, s3.inv(rep[g])) in members


def test_commuting_pair_classes(v4, s3):
    cls_v4 = commuting_pair_classes(v4)
    assert len(cls_v4) == 16  # abelian: conjugation fixes every pair
    cls_s3 = commuting_pair_classes(s3)
    assert len(cls_s3) == 8
    assert cls_s3[0].representative == (0, 0)
    for c in cls_s3:
        a, b = c.representative
        assert s3.commutes(a, b)
        assert all(s3.commutes(x, y) for x, y in c.orbit)
        assert c.representative == min(c.orbit)


def test_full_and_trivial_subgroups(q8):
    assert full_subgroup(q8).order == 8
    assert trivial_subgroup(q8).elements == (0,)


def test_subgroup_rejects_unclosed_elements(s3):
    from twochar.groups import Subgroup

    with pytest.raises(ValueError):
        Subgroup(s3, (0, 1, 2))
    with pytest.raises(ValueError):
        Subgroup(s3, (1, 0))



def test_equality_compares_tables_not_names_or_objects():
    # built twice, under different names: equal tables compare and hash equal
    first, second = cyclic(4), from_cayley_table([[(i + j) % 4 for j in range(4)] for i in range(4)], name="C4")
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first == first
    # the same order with another table, and a different order, are unequal
    assert cyclic(4) != klein_four()
    assert cyclic(4) != cyclic(2)
    assert symmetric_3() != cyclic(6)
    # a relabeled subgroup equals the standalone group with the same table
    assert subgroup_group(full_subgroup(quaternion_8()))[0] == quaternion_8()
    assert cyclic(4) != "Z4"
