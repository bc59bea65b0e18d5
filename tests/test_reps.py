"""Monomial 2-representations: canonical forms, sums, products, transport."""

import random

import pytest

from conftest import cyclic, dihedral_4, klein_four, quaternion_8, symmetric_3
from twochar.cochains import (
    Cochain,
    conjugate_pullback,
    differential,
    random_cochain,
)
from twochar.errors import AmbientMismatch, NotACocycle, NotASubgroup
from twochar.groups import (
    all_subgroups,
    conjugate_subgroup,
    full_subgroup,
    generated_subgroup,
    subgroup_group,
)
from twochar.reps import (
    PermCocycleRep,
    canonical_orbit,
    contragradient,
    degree,
    direct_sum,
    from_perm_cocycle,
    induce,
    linear_classes,
    mackey_restrict,
    random_rep2,
    regular_rep2,
    rep2,
    tensor,
    to_perm_cocycle,
    trivial_decoration,
    trivial_rep2,
    zero_rep2,
)

GROUPS = [klein_four(), cyclic(4), symmetric_3(), dihedral_4(), quaternion_8()]


def test_basis_orbit_counts():
    from twochar.burnside import basis

    for G, count in zip(GROUPS, (6, 3, 4, 11, 6)):
        assert len(basis(G)) == count


def test_canonical_orbit_is_conjugation_invariant():
    rng = random.Random(0)
    for G in GROUPS:
        for P in all_subgroups(G):
            for mu in linear_classes(P).representatives:
                base = canonical_orbit(G, P, mu)
                for g in G.elements:
                    Q = conjugate_subgroup(G, g, P)
                    moved = conjugate_pullback(mu, G.inv(g), Q)
                    assert canonical_orbit(G, Q, moved) == base
                noise = differential(random_cochain(mu.module, 1, rng))
                assert canonical_orbit(G, P, mu + noise) == base


def test_rep2_sorts_and_merges(s3):
    P = generated_subgroup(s3, (1,))
    mu = trivial_decoration(P)
    r1 = rep2(s3, [(full_subgroup(s3), trivial_decoration(full_subgroup(s3))), (P, mu)])
    r2 = rep2(s3, [(P, mu), (full_subgroup(s3), trivial_decoration(full_subgroup(s3)))])
    assert r1 == r2
    assert degree(r1) == 1 + s3.order // P.order


def test_degree_arithmetic(d4):
    rng = random.Random(1)
    for _ in range(10):
        r = random_rep2(d4, rng)
        s = random_rep2(d4, rng)
        assert degree(direct_sum(r, s)) == degree(r) + degree(s)
        assert degree(tensor(r, s)) == degree(r) * degree(s)
    assert degree(zero_rep2(d4)) == 0
    assert degree(trivial_rep2(d4)) == 1
    assert degree(regular_rep2(d4)) == d4.order


def test_ambient_mismatch(s3, d4):
    with pytest.raises(AmbientMismatch):
        direct_sum(trivial_rep2(s3), trivial_rep2(d4))
    with pytest.raises(AmbientMismatch):
        tensor(trivial_rep2(s3), trivial_rep2(d4))


def test_tensor_unit_and_commutativity(v4, s3):
    rng = random.Random(2)
    for G in (v4, s3):
        one = trivial_rep2(G)
        for _ in range(8):
            r = random_rep2(G, rng)
            assert tensor(one, r) == r
            assert tensor(r, one) == r
            s = random_rep2(G, rng)
            assert tensor(r, s) == tensor(s, r)


def test_tensor_of_linear_classes_adds(v4):
    P = full_subgroup(v4)
    classes = linear_classes(P)
    reps = classes.representatives
    for i, mu in enumerate(reps):
        for j, nu in enumerate(reps):
            left = tensor(rep2(v4, [(P, mu)]), rep2(v4, [(P, nu)]))
            expect = rep2(v4, [(P, reps[classes.add(i, j)])])
            assert left == expect


def test_contragradient_involution_and_inverse(v4, d4):
    rng = random.Random(3)
    for G in (v4, d4):
        for _ in range(10):
            r = random_rep2(G, rng)
            assert contragradient(contragradient(r)) == r
        # for a one-orbit full-subgroup rep the product with its dual is trivial
        P = full_subgroup(G)
        for mu in linear_classes(P).representatives:
            r = rep2(G, [(P, mu)])
            assert tensor(r, contragradient(r)) == trivial_rep2(G)


def test_induce_from_subgroup(s3):
    a3 = next(P for P in all_subgroups(s3) if P.order == 3)
    sub_grp, _, _ = subgroup_group(a3)
    inner = trivial_rep2(sub_grp)
    up = induce(inner, s3)
    assert degree(up) == 2
    assert up == rep2(s3, [(a3, trivial_decoration(a3))])
    assert induce(up, s3) == up  # already living in the parent


def test_induce_rejects_unrelated_group(s3, d4):
    with pytest.raises(NotASubgroup):
        induce(trivial_rep2(d4), s3)


def test_mackey_restriction(s3):
    a3 = next(P for P in all_subgroups(s3) if P.order == 3)
    down = mackey_restrict(regular_rep2(s3), a3)
    assert degree(down) == s3.order
    assert down.group.order == 3
    # restricting to the full subgroup changes nothing but the labels
    full = full_subgroup(s3)
    same = mackey_restrict(trivial_rep2(s3), full)
    assert degree(same) == 1
    with pytest.raises(NotASubgroup):
        mackey_restrict(trivial_rep2(s3), generated_subgroup(dihedral_4(), (1,)))


def test_mackey_degree_bookkeeping(d4):
    rng = random.Random(4)
    for P in all_subgroups(d4):
        for _ in range(4):
            r = random_rep2(d4, rng)
            assert degree(mackey_restrict(r, P)) == degree(r)


def test_perm_cocycle_roundtrip():
    rng = random.Random(5)
    for G in GROUPS:
        for _ in range(12):
            r = random_rep2(G, rng)
            p = to_perm_cocycle(r)
            assert p.size == degree(r)
            assert from_perm_cocycle(p) == r


def test_perm_cocycle_rejects_non_cocycle(s3):
    p = to_perm_cocycle(trivial_rep2(s3))
    assert p.theta.level > 1
    bad = p.theta.values.copy()
    bad[1, 2, 0] = (bad[1, 2, 0] + 1) % p.theta.level
    with pytest.raises(NotACocycle):
        PermCocycleRep(s3, p.point_action, Cochain(p.theta.module, 2, bad))


def test_roundtrip_ignores_cohomologous_twist(s3):
    r = regular_rep2(s3)
    p = to_perm_cocycle(r)
    shift = differential(random_cochain(p.theta.module, 1, random.Random(6)))
    twisted = PermCocycleRep(s3, p.point_action, p.theta + shift)
    assert from_perm_cocycle(twisted) == r


def test_random_rep2_is_deterministic(d4):
    a = random_rep2(d4, random.Random(7))
    b = random_rep2(d4, random.Random(7))
    assert a == b
