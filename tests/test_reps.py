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
from twochar.errors import AmbientMismatch, NotACocycle
from twochar.groups import (
    all_subgroups,
    conjugate_subgroup,
    full_subgroup,
    generated_subgroup,
    trivial_subgroup,
)
from twochar.reps import (
    Orbit,
    PermCocycleRep,
    Rep2,
    canonical_orbit,
    degree,
    direct_sum,
    from_perm_cocycle,
    linear_classes,
    random_rep2,
    rep2,
    tensor,
    to_perm_cocycle,
    trivial_decoration,
    trivial_rep2,
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
    assert degree(Rep2(d4, ())) == 0
    assert degree(trivial_rep2(d4)) == 1
    assert degree(Rep2(d4, (Orbit(trivial_subgroup(d4), 0),))) == d4.order


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
        PermCocycleRep(Cochain(p.theta.module, 2, bad))


def test_perm_cocycle_form_is_its_cocycle_alone(d4):
    rng = random.Random(30)
    for _ in range(6):
        r = random_rep2(d4, rng)
        p = to_perm_cocycle(r)
        module = p.theta.module
        assert p.group is module.group is d4
        assert p.point_action is module.action
        assert p.size == module.size == degree(r)
        assert PermCocycleRep(p.theta).point_action is p.point_action


def test_perm_cocycle_form_refuses_a_wrong_degree_and_a_non_cocycle(d4):
    P = next(P for P in all_subgroups(d4) if P.order == 2)
    p = to_perm_cocycle(rep2(d4, [(P, trivial_decoration(P))]))
    module = p.theta.module
    assert (p.size, p.theta.level) == (4, 2)
    with pytest.raises(ValueError, match="degree-2"):
        PermCocycleRep(Cochain(module, 1, [[0] * p.size] * d4.order))
    bad = p.theta.values.copy()
    bad[2, 3, 1] = (bad[2, 3, 1] + 1) % p.theta.level
    with pytest.raises(NotACocycle):
        PermCocycleRep(Cochain(module, 2, bad))


def test_roundtrip_ignores_cohomologous_twist(s3):
    r = Rep2(s3, (Orbit(trivial_subgroup(s3), 0),))
    p = to_perm_cocycle(r)
    shift = differential(random_cochain(p.theta.module, 1, random.Random(6)))
    twisted = PermCocycleRep(p.theta + shift)
    assert from_perm_cocycle(twisted) == r


def test_random_rep2_is_deterministic(d4):
    a = random_rep2(d4, random.Random(7))
    b = random_rep2(d4, random.Random(7))
    assert a == b
