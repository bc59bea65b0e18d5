"""Crossed modules: validation witnesses, 2-morphisms, triple orbits."""

import random

import pytest

from conftest import cyclic, symmetric_3
from twochar.crossed import (
    CrossedModule,
    TwoMorphism,
    horizontal_compose,
    load_crossed,
    pi1,
    pi1_projection,
    pi2,
    restrict,
    triple_classes,
    triples,
    vertical_compose,
)
from twochar.errors import (
    EquivarianceFailure,
    NotAHomomorphism,
    NotAnAction,
    NotComposable,
    PeifferFailure,
    TooLarge,
)
from twochar.groups import subgroup_class_representatives


def _k1():
    return load_crossed("crossed_z2_z4")


def _k2():
    return load_crossed("crossed_inner_s3")


def test_bundled_modules_validate():
    k1, k2 = _k1(), _k2()
    assert (k1.H.order, k1.G.order) == (2, 4)
    assert (k2.H.order, k2.G.order) == (6, 6)


def test_inner_module_from_scratch(s3):
    action = [[s3.conj(g, h) for h in s3.elements] for g in s3.elements]
    K = CrossedModule(s3, s3, list(s3.elements), action)
    assert pi1(K).order == 1
    assert pi2(K).order == 1


def test_rejects_non_homomorphism_boundary():
    z2, z4 = cyclic(2), cyclic(4)
    action = [[0, 1]] * 4
    with pytest.raises(NotAHomomorphism) as exc:
        CrossedModule(z2, z4, [0, 1], action)  # 1 ↦ 1 is not a map Z2 → Z4
    assert exc.value.witness == (1, 1)


def test_rejects_non_action():
    z2, z4 = cyclic(2), cyclic(4)
    with pytest.raises(NotAnAction):
        CrossedModule(z2, z4, [0, 2], [[0, 1], [0, 0], [0, 1], [0, 1]])


def test_rejects_equivariance_failure():
    # swap action on H = Z2 over G = Z4 with boundary h ↦ 2·h:
    # equivariance needs ∂(g·h) = g∂(h)g⁻¹ = ∂(h); the swap breaks it... but
    # ∂(swap(1)) = ∂(1), so instead poison the boundary target group.
    z4 = cyclic(4)
    s3 = symmetric_3()
    # boundary Z4 → S3 sending 1 to a transposition is not a homomorphism,
    # so build the equivariance failure on S3 acting trivially on Z3 with a
    # nontrivial boundary: ∂(g·h) = ∂(h) but g∂(h)g⁻¹ moves.
    z3 = cyclic(3)
    r = next(g for g in s3.elements if s3.order_of(g) == 3)
    boundary = [0, r, s3.mul(r, r)]
    trivial_action = [[0, 1, 2]] * 6
    with pytest.raises(EquivarianceFailure):
        CrossedModule(z3, s3, boundary, trivial_action)


def test_rejects_peiffer_failure():
    # H = Z4 with trivial boundary and sign action of G = Z2:
    # Peiffer needs ^{∂h}h' = h h' h⁻¹ = h' (H abelian); trivial boundary
    # makes the left side h' as well, so poison with a nontrivial boundary.
    z4, z2 = cyclic(4), cyclic(2)
    sign = [[0, 1, 2, 3], [0, 3, 2, 1]]
    with pytest.raises(PeifferFailure) as exc:
        CrossedModule(z4, z2, [0, 1, 0, 1], sign)
    assert exc.value.witness is not None


def test_pi_groups():
    k1, k2 = _k1(), _k2()
    assert pi1(k1).order == 2
    assert pi2(k1).order == 1
    assert pi1(k2).order == 1
    assert pi2(k2).order == 1
    # central kernel example: trivial boundary makes pi2 everything
    z2, z4 = cyclic(2), cyclic(4)
    K = CrossedModule(z2, z4, [0, 0], [[0, 1]] * 4)
    assert pi2(K).order == 2
    assert pi1(K).order == 4


def test_pi1_projection_is_homomorphism():
    K = _k1()
    q, proj = pi1(K), pi1_projection(K)
    G = K.G
    for a in G.elements:
        for b in G.elements:
            assert proj[G.mul(a, b)] == q.mul(proj[a], proj[b])


def test_restrict_to_subquotient():
    K = _k1()
    q = pi1(K)
    for P in subgroup_class_representatives(q):
        sub = restrict(K, P)
        assert pi1(sub).order == P.order
        assert pi2(sub).order == pi2(K).order


def test_two_morphism_targets():
    K = _k1()
    f = TwoMorphism(K, source=1, label=1)
    assert f.target == K.G.mul(K.boundary[1], 1)


def test_vertical_composition_label():
    K = _k2()
    H, G = K.H, K.G
    rng = random.Random(4)
    for _ in range(30):
        g = rng.randrange(G.order)
        h1, h2 = rng.randrange(H.order), rng.randrange(H.order)
        e = TwoMorphism(K, g, h1)
        f = TwoMorphism(K, e.target, h2)
        c = vertical_compose(f, e)
        assert c.source == g
        assert c.label == H.mul(f.label, e.label)
        assert c.target == f.target


def test_vertical_composition_rejects_mismatch():
    K = _k2()
    e = TwoMorphism(K, 0, 1)
    f = TwoMorphism(K, 3, 0)
    if f.source == e.target:
        pytest.skip("accidentally composable")
    with pytest.raises(NotComposable):
        vertical_compose(f, e)


def test_horizontal_composition_label():
    K = _k2()
    H, G = K.H, K.G
    rng = random.Random(5)
    for _ in range(30):
        f = TwoMorphism(K, rng.randrange(G.order), rng.randrange(H.order))
        f1 = TwoMorphism(K, rng.randrange(G.order), rng.randrange(H.order))
        c = horizontal_compose(f, f1)
        assert c.source == G.mul(f.source, f1.source)
        assert c.label == H.mul(f.label, K.act(f.source, f1.label))
        assert c.target == G.mul(f.target, f1.target)


def test_interchange_samples():
    rng = random.Random(6)
    for K in (_k1(), _k2()):
        G, H = K.G, K.H
        for _ in range(100):
            g1, g2 = rng.randrange(G.order), rng.randrange(G.order)
            h1, h2, h3, h4 = (rng.randrange(H.order) for _ in range(4))
            e1 = TwoMorphism(K, g1, h1)
            f1 = TwoMorphism(K, e1.target, h2)
            e2 = TwoMorphism(K, g2, h3)
            f2 = TwoMorphism(K, e2.target, h4)
            lhs = horizontal_compose(vertical_compose(f1, e1), vertical_compose(f2, e2))
            rhs = vertical_compose(horizontal_compose(f1, f2), horizontal_compose(e1, e2))
            assert lhs == rhs


def test_triple_counts():
    assert len(triples(_k1())) == 16
    assert len(triples(_k2())) == 36


def test_triples_satisfy_defining_relation():
    for K in (_k1(), _k2()):
        G = K.G
        for a, b, h in triples(K):
            assert G.mul(K.boundary[h], G.mul(a, b)) == G.mul(b, a)


def test_triple_classes_partition_and_invariance():
    for K, expect in ((_k1(), 16), (_k2(), 11)):
        classes = triple_classes(K)
        assert len(classes) == expect
        flat = sorted(t for c in classes for t in c)
        assert flat == sorted(triples(K))
        G = K.G
        for c in classes:
            members = set(c)
            for a, b, h in c:
                for g in G.elements:
                    moved = (G.conj(g, a), G.conj(g, b), K.act(g, h))
                    assert moved in members


def test_triples_bound():
    with pytest.raises(TooLarge):
        triples(_k2(), bound=10)
