"""Crossed modules: validation witnesses, 2-morphisms, triple orbits."""

import random
from collections import Counter
from itertools import product

import pytest

from conftest import cyclic, symmetric_3
from twochar import crossed, verify
from twochar.cochains import GModule
from twochar.crossed import (
    CrossedModule,
    TwoMorphism,
    _pi1_data,
    horizontal_compose,
    load_crossed,
    pi1,
    pi2,
    triple_classes,
    triples,
    vertical_compose,
)
from twochar.errors import (
    EquivarianceFailure,
    InternalFault,
    NotAHomomorphism,
    NotAnAction,
    NotComposable,
    PeifferFailure,
    TooLarge,
    TwoCharError,
)


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


@pytest.mark.parametrize(
    "action, witness",
    [
        ([[1, 0], [0, 1], [0, 1], [0, 1]], (0,)),         # identity row moves a point
        ([[0, 1], [0, 0], [0, 1], [0, 1]], (1,)),         # row 1 is not a permutation
        ([[0, 1], [1, 0], [0, 1], [0, 1]], (1, 2, 0)),    # 1·(2·0) = 1 ≠ 0 = 3·0
    ],
    ids=["identity", "permutation", "left-action"],
)
def test_modules_and_crossed_modules_refuse_the_same_tables(action, witness):
    z2, z4 = cyclic(2), cyclic(4)
    with pytest.raises(NotAnAction) as as_module:
        GModule.permutation(z4, action, 2)
    with pytest.raises(NotAnAction) as as_crossed:
        CrossedModule(z2, z4, [0, 2], action)
    assert as_module.value.witness == as_crossed.value.witness == witness


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
    q, proj = pi1(K), _pi1_data(K)[1]
    G = K.G
    for a in G.elements:
        for b in G.elements:
            assert proj[G.mul(a, b)] == q.mul(proj[a], proj[b])


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


def test_triples_bound(monkeypatch):
    monkeypatch.setattr(crossed, "DEFAULT_TRIPLE_BOUND", 10)
    with pytest.raises(TooLarge):
        triples(_k2())


# ---------------------------------------------------------------------------
# The interchange check of ``verify.crossed``, against a per-tuple loop


def _reference_interchange(K, name):
    """The law checked one tuple at a time, in C order, by the compose
    functions ``verify`` calls: the witness of the first failure (None if
    none) and the number of tuples compared."""
    G, H = K.G, K.H
    checks = 0
    for g1, g2, h1, h2, h3, h4 in product(G.elements, G.elements, H.elements, H.elements, H.elements, H.elements):
        e1 = verify.TwoMorphism(K, g1, h1)
        f1 = verify.TwoMorphism(K, e1.target, h2)
        e2 = verify.TwoMorphism(K, g2, h3)
        f2 = verify.TwoMorphism(K, e2.target, h4)
        lhs = verify.horizontal_compose(verify.vertical_compose(f1, e1), verify.vertical_compose(f2, e2))
        rhs = verify.vertical_compose(verify.horizontal_compose(f1, f2), verify.horizontal_compose(e1, e2))
        checks += 1
        if lhs != rhs:
            return f"interchange fails in {name} at ({g1},{g2},{h1},{h2},{h3},{h4})", checks
    return None, checks


def _suite_outcome():
    """``verify.crossed()`` as (last line, checks), or its escaping error as
    (type, message, witness)."""
    try:
        result = verify.crossed()
    except TwoCharError as exc:
        return type(exc), str(exc), exc.witness
    return result.lines[-1], result.checks


def _reference_outcome():
    """The same from the per-tuple loop over both bundled modules (None for
    the line when the law holds throughout)."""
    checks = 0
    try:
        for name in ("crossed_z2_z4", "crossed_inner_s3"):
            witness, n = _reference_interchange(load_crossed(name), name)
            checks += n
            if witness is not None:
                return f"witness: {witness}", checks
    except TwoCharError as exc:
        return type(exc), str(exc), exc.witness
    return None, checks


def _planted_at(name, f_code, e_code, compose, plant):
    """``compose``, except on the module ``name`` at the pair of codes
    (source·|H| + label), where ``plant(f, e)`` answers instead."""
    K = load_crossed(name)
    nh = K.H.order

    def planted(f, e):
        if f.K == K and (f.source * nh + f.label, e.source * nh + e.label) == (f_code, e_code):
            return plant(f, e)
        return compose(f, e)

    return planted


def _label_moved(f, e):
    out = horizontal_compose(f, e)
    return TwoMorphism(f.K, out.source, f.K.H.mul(out.label, 1))


# The first failure of each lies in a different block of the grid; (0, 0)
# makes a vertical composite undefined, so the loop raises NotComposable.
@pytest.mark.parametrize("name, f_code, e_code, expected", [
    ("crossed_z2_z4", 7, 6, ("witness: interchange fails in crossed_z2_z4 at (1,1,1,1,1,0)", 95)),
    ("crossed_z2_z4", 3, 5, None),
    ("crossed_inner_s3", 20, 30, None),
    ("crossed_inner_s3", 35, 34, ("witness: interchange fails in crossed_inner_s3 at (0,0,5,5,5,4)", 256 + 1295)),
    ("crossed_inner_s3", 0, 0, None),
])
def test_wrong_horizontal_composite_is_found_as_the_per_tuple_loop_finds_it(monkeypatch, name, f_code, e_code, expected):
    monkeypatch.setattr(verify, "horizontal_compose", _planted_at(name, f_code, e_code, horizontal_compose, _label_moved))
    reference = _reference_outcome()
    assert reference[0] is not None
    assert expected in (None, reference)
    assert _suite_outcome() == reference


@pytest.mark.parametrize("name, f_code, e_code", [("crossed_z2_z4", 1, 5), ("crossed_inner_s3", 31, 14)])
def test_vertical_compose_refusing_a_composable_pair_escapes_as_in_the_loop(monkeypatch, name, f_code, e_code):
    K = load_crossed(name)
    nh = K.H.order
    f, e = TwoMorphism(K, *divmod(f_code, nh)), TwoMorphism(K, *divmod(e_code, nh))
    assert f.source == e.target  # composable

    def refuse(f, e):
        raise NotComposable(f"planted refusal of {f_code} after {e_code}", witness=(f_code, e_code))

    monkeypatch.setattr(verify, "vertical_compose", _planted_at(name, f_code, e_code, vertical_compose, refuse))
    expected = (NotComposable, f"planted refusal of {f_code} after {e_code}", (f_code, e_code))
    assert _reference_outcome() == expected
    assert _suite_outcome() == expected


def test_vertical_compose_refusing_every_pair_escapes_at_the_first_tuple(monkeypatch):
    def refuse(f, e):
        raise NotComposable("planted refusal", witness=(f.source, e.source))

    monkeypatch.setattr(verify, "vertical_compose", refuse)
    expected = (NotComposable, "planted refusal", (0, 0))
    assert _reference_outcome() == expected
    assert _suite_outcome() == expected


def test_a_failure_the_scalar_replay_does_not_confirm_is_an_internal_fault(monkeypatch):
    monkeypatch.setattr(verify, "first_interchange_failure", lambda K: (3, (0, 0, 0, 0, 0, 1)))
    with pytest.raises(InternalFault) as info:
        verify.crossed()
    assert info.value.witness == (0, 0, 0, 0, 0, 1)


def test_each_composition_is_computed_at_most_once_per_module(monkeypatch):
    calls = Counter()

    def counted(kind, compose):
        def run(f, e):
            calls[kind, f.K.G.order, f.K.H.order] += 1
            return compose(f, e)

        return run

    monkeypatch.setattr(verify, "vertical_compose", counted("vertical", vertical_compose))
    monkeypatch.setattr(verify, "horizontal_compose", counted("horizontal", horizontal_compose))
    result = verify.crossed()
    assert result.ok and result.checks == 4**2 * 2**4 + 6**2 * 6**4
    for K in (_k1(), _k2()):
        for kind in ("vertical", "horizontal"):
            assert 0 < calls[kind, K.G.order, K.H.order] <= (K.G.order * K.H.order) ** 2
