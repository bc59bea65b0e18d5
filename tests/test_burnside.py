"""Decorated Burnside rings: basis, products, marks, mark matrices."""

import json
import random

import pytest

from conftest import cyclic, dihedral_4, klein_four, quaternion_8, symmetric_3
from twochar import burnside
from twochar.burnside import (
    add,
    basis,
    basis_element,
    determinant,
    element_to_json,
    from_rep2,
    identity_element,
    mark,
    mark_matrix,
    mul,
    pretty_element,
    scale,
    zero_element,
)
from twochar.cyclo import CycloRat, RootOfUnity, root_to_cyclo
from twochar.errors import AlphaNotHomomorphism, GroupMismatch
from twochar.cochains import conjugate_pullback
from twochar.groups import from_permutation_generators, full_subgroup, trivial_subgroup
from twochar.reps import Orbit, linear_classes, random_rep2, tensor

GROUPS = [klein_four(), cyclic(4), symmetric_3(), dihedral_4(), quaternion_8()]


def test_basis_counts():
    for G, count in zip(GROUPS, (6, 3, 4, 11, 6)):
        assert len(basis(G)) == count


def test_zero_and_add(s3):
    z = zero_element(s3)
    e = identity_element(s3)
    assert add(z, e) == e
    assert add(e, scale(-1, e)) == z
    assert not z.coefficients


def test_scale_accepts_only_exact_scalars(v4):
    e = identity_element(v4)
    assert scale(2, e) == add(e, e)
    assert scale(CycloRat.from_int(1, 2), scale(2, e)) == e
    for bad in (0.5, 2.0, True, "2", None):
        with pytest.raises(TypeError):
            scale(bad, e)


def test_group_mismatch(s3, d4):
    with pytest.raises(GroupMismatch):
        add(identity_element(s3), identity_element(d4))
    with pytest.raises(GroupMismatch):
        mul(identity_element(s3), identity_element(d4))


def test_identity_and_point_laws():
    for G in GROUPS:
        e = identity_element(G)
        pt = basis_element(G, Orbit(trivial_subgroup(G), 0))
        assert mul(pt, pt) == scale(G.order, pt)
        for pair in basis(G):
            u = basis_element(G, pair)
            assert mul(e, u) == u == mul(u, e)


def test_commutativity_exhaustive(v4, s3):
    for G in (v4, s3):
        pairs = basis(G)
        for a in pairs:
            for b in pairs:
                assert mul(basis_element(G, a), basis_element(G, b)) == mul(
                    basis_element(G, b), basis_element(G, a)
                )


def test_associativity_sampled(d4):
    rng = random.Random(0)
    pairs = basis(d4)
    for _ in range(40):
        a, b, c = (basis_element(d4, pairs[rng.randrange(len(pairs))]) for _ in range(3))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_distributivity(s3):
    pairs = basis(s3)
    for a in pairs:
        for b in pairs:
            for c in pairs:
                ea, eb, ec = (basis_element(s3, x) for x in (a, b, c))
                assert mul(ea, add(eb, ec)) == add(mul(ea, eb), mul(ea, ec))


def test_from_rep2_is_multiplicative():
    rng = random.Random(1)
    for G in (klein_four(), symmetric_3()):
        for _ in range(15):
            r = random_rep2(G, rng)
            s = random_rep2(G, rng)
            assert from_rep2(tensor(r, s)) == mul(from_rep2(r), from_rep2(s))


def test_mark_of_trivial_character_counts_fixed_cosets(s3):
    # with the trivial character the mark at the trivial subgroup is the index
    full = full_subgroup(s3)
    triv = trivial_subgroup(s3)
    for pair in basis(s3):
        u = basis_element(s3, pair)
        value = mark(triv, [RootOfUnity(1, 0)] * len(linear_classes(triv)), u)
        assert value == CycloRat.from_int(s3.order // pair.subgroup.order)
        top = mark(full, [RootOfUnity(1, 0)] * len(linear_classes(full)), u)
        expect = 1 if pair.subgroup.order == s3.order else 0
        assert top == CycloRat.from_int(expect)


def test_mark_rejects_non_homomorphism(v4):
    P = full_subgroup(v4)
    u = identity_element(v4)
    n = len(linear_classes(P))
    bad = [CycloRat.from_int(2)] * n  # 2 is not a root of unity times itself
    with pytest.raises(AlphaNotHomomorphism):
        mark(P, bad, u)


def _averaged_mark(P, alpha, u):
    """The mark as an average: over every g ∈ G with g·P·g⁻¹ ⊆ Q, α at the
    class of Θ pulled back along g, weighted 1/|Q|."""
    G = P.parent
    total = CycloRat.zero()
    for pair, coeff in u.coefficients.items():
        Q = pair.subgroup
        acc = CycloRat.zero()
        for g in G.elements:
            if all(G.conj(g, p) in Q for p in P.elements):
                idx = linear_classes(P).index_of(conjugate_pullback(pair.cocycle, g, P))
                acc = acc + root_to_cyclo(alpha[idx])
        total = total + coeff * CycloRat(acc.num, acc.den * Q.order)
    return total


Z4xZ2 = from_permutation_generators(6, [(1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4)], name="Z4xZ2")


@pytest.mark.parametrize(
    "G", [klein_four(), symmetric_3(), dihedral_4(), quaternion_8(), Z4xZ2], ids=lambda G: G.name
)
def test_fixed_coset_sum_equals_the_averaged_mark(G):
    labels, cols, rows = mark_matrix(G)
    for (P, ci), row in zip(labels, rows):
        alpha = burnside._character_table(P)[ci]
        for pair, value in zip(cols, row):
            expect = _averaged_mark(P, alpha, basis_element(G, pair))
            assert value == expect and str(value) == str(expect) and value.level == expect.level


def test_mark_rejects_root_of_unity_alpha_breaking_the_law(v4):
    P = full_subgroup(v4)
    sc = linear_classes(P)
    assert len(sc) == 2 and sc.add(1, 1) == 0       # H²(V4; ℂ^×) = ℤ/2, class 0 the identity
    with pytest.raises(AlphaNotHomomorphism) as info:
        mark(P, [RootOfUnity(1, 0), RootOfUnity(4, 1)], identity_element(v4))
    assert info.value.witness == (1, 1)


def test_mark_rejects_alpha_that_is_not_a_sequence_of_roots(v4):
    P = full_subgroup(v4)
    u = identity_element(v4)
    for bad in (lambda i: RootOfUnity(1, 0), [1, 1], (RootOfUnity(1, 0),), [RootOfUnity(1, 0)] * 3):
        with pytest.raises(AlphaNotHomomorphism):
            mark(P, bad, u)


@pytest.mark.parametrize("levels", [(1, 4), (4, 1)])
def test_mark_keeps_the_level_of_its_own_alpha(v4, levels):
    # roots of unity at levels 1 and 4 compare and hash equal; the law-check
    # cache must not hand one caller's α to the other
    burnside._check_alpha.cache_clear()
    for P in (full_subgroup(v4), trivial_subgroup(v4)):
        for level in levels:
            alpha = (RootOfUnity(level, 0),) * len(linear_classes(P))
            value = mark(P, alpha, identity_element(v4))
            assert value == CycloRat.one() and value.level == level


def test_law_check_runs_once_per_mark_matrix_row(d4):
    # one check per (P, α) row, then no per-entry cache lookup that hashes α
    burnside._check_alpha.cache_clear()
    labels, cols, rows = mark_matrix(d4)
    assert burnside._check_alpha.cache_info().misses == len(rows)
    assert burnside._check_alpha.cache_info().hits == 0


def test_mark_checks_alpha_on_every_call(v4):
    # the law check of a bad α is never cached, so each call raises again
    P = full_subgroup(v4)
    bad = (RootOfUnity(1, 0), RootOfUnity(4, 1))
    for _ in range(2):
        with pytest.raises(AlphaNotHomomorphism):
            mark(P, bad, identity_element(v4))
    mark_matrix(v4)
    with pytest.raises(AlphaNotHomomorphism):
        mark(P, bad, identity_element(v4))


def test_mark_is_multiplicative(s3):
    from twochar.burnside import _character_table

    rng = random.Random(2)
    pairs = basis(s3)
    labels, cols, rows = mark_matrix(s3)
    for (P, ci) in labels:
        chars = _character_table(P)
        alpha = chars[ci]
        for _ in range(10):
            a = basis_element(s3, pairs[rng.randrange(len(pairs))])
            b = basis_element(s3, pairs[rng.randrange(len(pairs))])
            assert mark(P, alpha, mul(a, b)) == mark(P, alpha, a) * mark(P, alpha, b)
            assert mark(P, alpha, add(a, b)) == mark(P, alpha, a) + mark(P, alpha, b)


def test_mark_matrix_shapes_and_determinants():
    expected = {
        "V4": "-64",
        "Z4": "8",
        "S3": "12",
        "D4": "-32768",
        "Q8": "256",
    }
    for G in GROUPS:
        labels, cols, rows = mark_matrix(G)
        assert len(cols) == len(basis(G))
        assert len(labels) == len(rows) == len(cols)
        det = determinant(rows)
        assert not det.is_zero()
        assert str(det) == expected[G.name]


def test_s3_mark_matrix_values(s3):
    _, _, rows = mark_matrix(s3)
    got = [[str(v) for v in row] for row in rows]
    assert got == [
        ["6", "3", "2", "1"],
        ["0", "1", "0", "1"],
        ["0", "0", "2", "1"],
        ["0", "0", "0", "1"],
    ]


def test_determinant_on_known_matrices():
    two = CycloRat.from_int(2)
    zeta = CycloRat.from_cyclo(root_to_cyclo(RootOfUnity(4, 1)))
    rows = [[two, zeta], [zeta, two]]
    # 4 - zeta4^2 = 5
    assert determinant(rows) == CycloRat.from_int(5)
    assert determinant([[CycloRat.zero()]]).is_zero()


def test_element_json_and_pretty(s3):
    u = from_rep2(random_rep2(s3, random.Random(3)))
    doc = element_to_json(u)
    text = json.dumps(doc)
    assert "coefficients" in doc or isinstance(doc, (list, dict))
    assert isinstance(pretty_element(u), str)
    assert pretty_element(zero_element(s3)) == "0"
