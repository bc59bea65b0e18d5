"""Decorated Burnside rings: basis, products, marks, mark matrices."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cyclic, dihedral_4, klein_four, quaternion_8, symmetric_3
from twochar import burnside
from twochar.burnside import (
    add,
    basis,
    basis_element,
    determinant,
    from_rep2,
    identity_element,
    mark,
    mark_matrix,
    mul,
    pretty_element,
    scale,
)
from twochar.cyclo import CycloInt, CycloRat, RootOfUnity, root_to_cyclo
from twochar.errors import AlphaNotHomomorphism, GroupMismatch
from twochar.cochains import conjugate_pullback
from twochar.groups import from_permutation_generators, full_subgroup, group_from_json, trivial_subgroup
from twochar.reps import Orbit, Rep2, linear_classes, random_rep2, tensor

GROUPS = [klein_four(), cyclic(4), symmetric_3(), dihedral_4(), quaternion_8()]


def test_basis_counts():
    for G, count in zip(GROUPS, (6, 3, 4, 11, 6)):
        assert len(basis(G)) == count


def test_zero_and_add(s3):
    z = burnside.BurnsideElement(s3, {})
    e = identity_element(s3)
    assert add(z, e) == e
    assert add(e, scale(-1, e)) == z
    assert not z.coefficients


_REFUSES_NON_INT = """
from twochar.burnside import BurnsideElement, identity_element, scale
from twochar.cyclo import CycloInt, CycloRat
from twochar.groups import from_cayley_table
v4 = from_cayley_table([[i ^ j for j in range(4)] for i in range(4)], name="V4")
e = identity_element(v4)
pair = next(iter(e.coefficients))
for bad in (CycloRat(CycloInt.one(), 2), CycloInt.one(), 0.5, 2.0, True, "2", None):
    for build in (lambda: scale(bad, e), lambda: BurnsideElement(v4, {pair: bad})):
        try:
            build()
            print("accepted")
        except TypeError:
            print("TypeError")
"""


def test_scale_and_the_constructor_refuse_coefficients_that_are_not_ints(v4):
    e = identity_element(v4)
    assert scale(2, e) == add(e, e)
    zero = burnside.BurnsideElement(v4, {})
    assert scale(0, e) == zero == burnside.BurnsideElement(v4, {next(iter(e.coefficients)): 0})
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for flags in ((), ("-O",)):
        out = subprocess.run(
            [sys.executable, *flags, "-c", _REFUSES_NON_INT], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["TypeError"] * 14


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
        assert value == CycloInt.from_int(s3.order // pair.subgroup.order)
        top = mark(full, [RootOfUnity(1, 0)] * len(linear_classes(full)), u)
        expect = 1 if pair.subgroup.order == s3.order else 0
        assert top == CycloInt.from_int(expect)


def test_mark_rejects_non_homomorphism(v4):
    P = full_subgroup(v4)
    u = identity_element(v4)
    n = len(linear_classes(P))
    bad = [CycloInt.from_int(2)] * n  # 2 is not a root of unity times itself
    with pytest.raises(AlphaNotHomomorphism):
        mark(P, bad, u)


def _averaged_mark(P, alpha, u):
    """The mark as an average: over every g ∈ G with g·P·g⁻¹ ⊆ Q, α at the
    class of Θ pulled back along g, weighted 1/|Q|.  Each fixed coset Q·g
    gives |Q| equal terms, so every coordinate of the sum is a multiple of
    |Q|."""
    G = P.parent
    total = CycloInt.zero()
    for pair, coeff in u.coefficients.items():
        Q = pair.subgroup
        acc = CycloInt.zero()
        for g in G.elements:
            if all(G.conj(g, p) in Q.elements for p in P.elements):
                idx = linear_classes(P).index_of(conjugate_pullback(pair.cocycle, g, P))
                acc = acc + root_to_cyclo(alpha[idx])
        assert all(c % Q.order == 0 for c in acc.coeffs)
        total = total + coeff * CycloInt(acc.level, [c // Q.order for c in acc.coeffs])
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
            assert value == CycloInt.one() and value.level == level


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
    two = CycloInt.from_int(2)
    zeta = root_to_cyclo(RootOfUnity(4, 1))
    rows = [[two, zeta], [zeta, two]]
    # 4 - zeta4^2 = 5
    assert determinant(rows) == CycloInt.from_int(5)
    assert determinant([[CycloInt.zero()]]).is_zero()


def test_element_json_and_pretty(s3):
    u = from_rep2(random_rep2(s3, random.Random(3)))
    assert isinstance(pretty_element(u), str)
    assert pretty_element(burnside.BurnsideElement(s3, {})) == "0"


S4 = from_permutation_generators(4, [(1, 2, 3, 0), (1, 0, 2, 3)], name="S4")
Z2_3 = group_from_json({"name": "Z2^3", "cayley": [[i ^ j for j in range(8)] for i in range(8)]})
Z3SQ_C2 = group_from_json(json.loads((Path(__file__).resolve().parent / "data" / "z3sq_c2.json").read_text()))


@pytest.mark.parametrize("G", [dihedral_4(), Z2_3, S4, Z3SQ_C2], ids=lambda G: G.name)
def test_pair_products_equal_the_orbit_tensor_and_commute(G):
    pairs = basis(G)
    for a in pairs:
        for b in pairs:
            ab = mul(basis_element(G, a), basis_element(G, b))
            assert ab == from_rep2(tensor(Rep2(G, (a,)), Rep2(G, (b,))))
            assert ab == mul(basis_element(G, b), basis_element(G, a))


@pytest.mark.parametrize("G", [dihedral_4(), Z3SQ_C2], ids=lambda G: G.name)
def test_pair_products_are_mark_multiplicative(G):
    # the marks do not read the double cosets, and the table of marks is
    # invertible, so they pin every product
    labels, cols, rows = mark_matrix(G)
    where = {pair: k for k, pair in enumerate(cols)}
    for a in cols:
        for b in cols:
            ab = mul(basis_element(G, a), basis_element(G, b))
            for row in rows:
                value = sum((c * row[where[p]] for p, c in ab.coefficients.items()), CycloInt.zero())
                assert value == row[where[a]] * row[where[b]]


def _bilinear_reference(u, v):
    out = burnside.BurnsideElement(u.group, {})
    for a, ca in u.coefficients.items():
        for b, cb in v.coefficients.items():
            prod = from_rep2(tensor(Rep2(u.group, (a,)), Rep2(u.group, (b,))))
            out = add(out, scale(ca * cb, prod))
    return out


def test_mul_of_integer_combinations_equals_the_bilinear_reference(d4):
    rng = random.Random(4)
    pairs = basis(d4)
    cancelled = 0
    for _ in range(30):
        terms = [{rng.choice(pairs): rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(3)} for _ in range(2)]
        u, v = (burnside.BurnsideElement(d4, t) for t in terms)
        got, want = mul(u, v), _bilinear_reference(u, v)
        assert got == want
        assert pretty_element(got) == pretty_element(want)
        # pairs that some basis product reaches but whose terms sum to zero
        reached = {p for a in u.coefficients for b in v.coefficients for p, _ in burnside._pair_product(d4, a, b)}
        cancelled += len(reached - got.coefficients.keys())
    assert cancelled > 0
    # (8·e − pt)·(pt + e): 8·pt − 8·pt cancels, leaving 8·e − pt
    e, pt = Orbit(full_subgroup(d4), 0), Orbit(trivial_subgroup(d4), 0)
    u = burnside.BurnsideElement(d4, {e: 8, pt: -1})
    v = burnside.BurnsideElement(d4, {pt: 1, e: 1})
    got = mul(u, v)
    assert got == _bilinear_reference(u, v) == u
    assert mul(u, burnside.BurnsideElement(d4, {})) == burnside.BurnsideElement(d4, {})


def _cofactor_det(m):
    """The determinant over ℤ[ζ] by expansion along the first row: no division."""
    if not m:
        return CycloInt.one()
    total = CycloInt.zero()
    for j, x in enumerate(m[0]):
        if not x.is_zero():
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            term = x * _cofactor_det(minor)
            total = total + (term if j % 2 == 0 else -term)
    return total


def _eliminated(m) -> str:
    """``repr`` of the numerator of one elimination over the whole matrix,
    whose denominator must be 1."""
    det = burnside._eliminate([[CycloRat(x) for x in row] for row in m])
    assert det.den == 1
    return repr(det.num)


def _matrix(values):
    def entry(v):
        if isinstance(v, tuple):            # (level, exponent): a root of unity
            return root_to_cyclo(RootOfUnity(*v))
        return CycloInt.from_int(v)

    return [[entry(v) for v in row] for row in values]


def test_determinant_of_block_triangular_matrix_equals_the_cofactor_reference():
    # blocks [0, 2), [2, 5), [5, 6); the middle block needs a row swap (its
    # first row is zero in its first column), and the entries above the
    # blocks are arbitrary
    m = _matrix([
        [2, (4, 1), 7, -1, 3, 5],
        [1, 3, (3, 1), 0, 2, (8, 3)],
        [0, 0, 0, 4, (3, 2), 1],
        [0, 0, 5, 1, 1, -2],
        [0, 0, 2, (4, 1), 6, 9],
        [0, 0, 0, 0, 0, (8, 1)],
    ])
    want = _cofactor_det(m)
    assert determinant(m) == want
    assert repr(determinant(m)) == _eliminated(m)
    assert determinant(m) == _cofactor_det([r[:2] for r in m[:2]]) * _cofactor_det(
        [r[2:5] for r in m[2:5]]
    ) * m[5][5]


def test_determinant_without_a_block_split_equals_the_cofactor_reference():
    # nonzero entries in the first column of every row: no split
    m = _matrix([
        [0, 1, 2, (4, 1)],
        [3, (3, 1), 0, 1],
        [1, 0, 5, 2],
        [(8, 3), 2, 1, 0],
    ])
    assert determinant(m) == _cofactor_det(m)
    # a zero row inside a block gives zero
    m[2] = [CycloInt.zero()] * 4
    assert determinant(m).is_zero() and _cofactor_det(m).is_zero()


@pytest.mark.parametrize("G", GROUPS + [S4, Z3SQ_C2], ids=lambda G: G.name)
def test_block_determinant_prints_as_the_full_elimination(G):
    rows = mark_matrix(G)[2]
    det = determinant(rows)
    assert all(isinstance(v, CycloInt) for row in rows for v in row) and isinstance(det, CycloInt)
    assert repr(det) == _eliminated(rows)
