"""Characters on commuting pairs: monomial models, the twisted-regular oracle, tables."""

import json
import random
from pathlib import Path

import numpy as np
import pytest

from conftest import cyclic, dihedral_4, klein_four, quaternion_8, symmetric_3
from twochar import characters
from twochar.characters import (
    CharTable,
    _fixed_point_column,
    _gk_mark,
    _monomial_inverse,
    _monomial_product,
    _monomial_ratio,
    _transversal_column,
    _transversal_hits,
    char_table,
    char_table_to_csv,
    char_table_to_json,
    gk_as_mark,
    gk_linear,
    gk_osorno,
    gk_rep,
    oracle_twisted_regular,
    twisted_regular,
)
from twochar.burnside import _character_table, _pair_mark, basis, basis_element, from_rep2, mark_matrix
from twochar.cochains import Cochain, differential, schur_classes
from twochar.cyclo import CycloInt, RootOfUnity, raise_cyclo_level, root_to_cyclo
from twochar.errors import (
    FormulasDisagree,
    InternalFault,
    NotAMultiple,
    NotCommuting,
    NotNormalized,
    NotScalarMultiple,
)
from twochar.groups import (
    commuting_pair_classes,
    from_cayley_table,
    from_permutation_generators,
    load_group,
    trivial_subgroup,
)
from twochar.reps import Orbit, Rep2, direct_sum, random_rep2, tensor, to_perm_cocycle, trivial_rep2

GROUPS = [klein_four(), cyclic(4), dihedral_4(), quaternion_8()]
# abelian, with values that are not real (powers of ζ3) and no normalizer
# pairing a value with its conjugate, so a sign slip in an exponent shows
Z3SQ = from_permutation_generators(6, [(1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 5, 3)], name="Z3^2")
Z2CUBE = from_cayley_table([[i ^ j for j in range(8)] for i in range(8)], name="Z2^3")


# ---------------------------------------------------------------------------
# monomial matrices


def test_monomial_matrix_algebra():
    # (perm, exponents) at level 4: entry (perm[j], j) is ζ_4^exponents[j]
    a = ((1, 2, 0), (1, 0, 3))
    b = ((2, 0, 1), (2, 1, 0))
    e = ((0, 1, 2), (0, 0, 0))
    assert _monomial_product(a, e, 4) == a == _monomial_product(e, a, 4)
    assert _monomial_product(a, _monomial_inverse(a, 4), 4) == e
    assert _monomial_product(_monomial_inverse(a, 4), a, 4) == e
    assert _monomial_product(_monomial_product(a, b, 4), a, 4) == _monomial_product(a, _monomial_product(b, a, 4), 4)


def test_scalar_ratio():
    a = ((1, 0), (1, 2))
    scaled = (a[0], tuple((3 + k) % 4 for k in a[1]))
    assert _monomial_ratio(scaled, a, 4) == 3
    assert _monomial_ratio(a, scaled, 4) == 1
    b = ((0, 1), (0, 0))
    with pytest.raises(NotScalarMultiple):
        _monomial_ratio(a, b, 4)
    c = ((1, 0), (0, 2))
    with pytest.raises(NotScalarMultiple) as err:
        _monomial_ratio(a, c, 4)  # column ratios are ζ and 1, not constant
    assert err.value.witness == 1


# ---------------------------------------------------------------------------
# the pair character of a decorated cocycle


def test_gk_linear_requires_commuting_and_normalized(s3):
    mu = schur_classes(s3).representatives[0]
    a = next(g for g in s3.elements if s3.order_of(g) == 2)
    b = next(g for g in s3.elements if s3.order_of(g) == 3)
    with pytest.raises(NotCommuting):
        gk_linear(mu, a, b)
    from twochar.cochains import Cochain

    bad_values = mu.values.copy()
    bad_values[0, 1, 0] = 1
    with pytest.raises(NotNormalized):
        gk_linear(Cochain(mu.module, 2, bad_values), 0, 0)


def test_gk_linear_trivial_class_is_one():
    for G in GROUPS:
        mu = schur_classes(G).representatives[0]
        for a in G.elements:
            for b in G.elements:
                if G.commutes(a, b):
                    assert gk_linear(mu, a, b) == RootOfUnity(1, 0)


@pytest.mark.parametrize(
    "G",
    [symmetric_3(), dihedral_4(), quaternion_8(), Z2CUBE, Z3SQ],
    ids=lambda G: G.name,
)
def test_gk_linear_is_constant_on_each_class(G):
    # for commuting a, b a coboundary adds dπ(b, a⁻¹) − dπ(a⁻¹, b) =
    # π(a⁻¹b) − π(ba⁻¹) = 0: the mark route reads α at one representative
    rng = np.random.default_rng(30)
    pairs = [(a, b) for a in G.elements for b in G.elements if G.commutes(a, b)]
    moved = 0
    for mu in schur_classes(G).representatives:
        for _ in range(4):
            pi = rng.integers(0, mu.level, size=(G.order, 1))
            pi[0] = 0  # normalized, so μ + dπ still vanishes on the identity
            shifted = mu + differential(Cochain(mu.module, 1, pi))
            moved += shifted != mu
            for a, b in pairs:
                assert gk_linear(shifted, a, b) == gk_linear(mu, a, b), (mu, pi.ravel().tolist(), a, b)
    assert moved == 4 * len(schur_classes(G))


def test_oracle_agreement_all_small_groups():
    # Z3² has Schur multiplier ℤ/3: its values are not real, so a sign slip
    # (λ for λ⁻¹) in the oracle fails here, where every value of the
    # order-4 and order-8 groups is ±1
    checked = 0
    for G in GROUPS + [Z3SQ]:
        for mu in schur_classes(G).representatives:
            for a in G.elements:
                for b in G.elements:
                    if G.commutes(a, b):
                        assert gk_linear(mu, a, b) == oracle_twisted_regular(mu, a, b)
                        checked += 1
    assert checked == 411


def test_klein_pinned_value():
    v4 = klein_four()
    classes = schur_classes(v4)
    mu = classes.representatives[1]
    val = gk_linear(mu, 1, 2)
    assert root_to_cyclo(val) == CycloInt.from_int(-1)
    assert root_to_cyclo(gk_linear(mu, 2, 1)) == CycloInt.from_int(-1)


def test_twisted_regular_model_reproduces_cocycle(v4):
    mu = schur_classes(v4).representatives[1]
    rho = twisted_regular(mu)
    assert len(rho) == v4.order


# ---------------------------------------------------------------------------
# three formulas, one value


def test_three_formulas_agree_on_random_reps():
    rng = random.Random(0)
    for G in (klein_four(), symmetric_3()):
        pair_classes = commuting_pair_classes(G)
        for _ in range(6):
            r = random_rep2(G, rng)
            p = to_perm_cocycle(r)
            for cls in pair_classes:
                a, b = cls.representative
                v = gk_rep(r, a, b)
                assert v == gk_osorno(p, a, b)
                assert v == gk_as_mark(a, b, from_rep2(r))


@pytest.mark.parametrize("name", ["z1", "z2", "z3", "z4", "z5", "z6", "z7", "z8", "v4", "s3", "d4", "q8"])
def test_mark_and_character_coefficients_are_python_ints(name):
    # never a numpy scalar, so no value can wrap around at 2^63
    G = load_group(name)
    pairs = [cls.representative for cls in commuting_pair_classes(G)]
    for pair in basis(G):
        r = Rep2(G, (pair,))
        p = to_perm_cocycle(r)
        u = basis_element(G, pair)
        for a, b in pairs:
            for v in (gk_as_mark(a, b, u), gk_rep(r, a, b), gk_osorno(p, a, b)):
                assert all(type(c) is int for c in v.coeffs), (a, b, v)
    for row in mark_matrix(G)[2]:
        assert all(type(c) is int for v in row for c in v.coeffs)


def test_character_laws(v4):
    rng = random.Random(1)
    pair_classes = commuting_pair_classes(v4)
    for _ in range(6):
        r = random_rep2(v4, rng)
        s = random_rep2(v4, rng)
        for cls in pair_classes:
            a, b = cls.representative
            assert gk_rep(direct_sum(r, s), a, b) == gk_rep(r, a, b) + gk_rep(s, a, b)
            assert gk_rep(tensor(r, s), a, b) == gk_rep(r, a, b) * gk_rep(s, a, b)
            for x, y in cls.orbit:
                assert gk_rep(r, x, y) == gk_rep(r, a, b)


def test_character_of_trivial_and_regular(s3):
    for a, b in (c.representative for c in commuting_pair_classes(s3)):
        assert gk_rep(trivial_rep2(s3), a, b) == CycloInt.from_int(1)
        expect = s3.order if (a, b) == (0, 0) else 0
        assert gk_rep(Rep2(s3, (Orbit(trivial_subgroup(s3), 0),)), a, b) == CycloInt.from_int(expect)


def test_gk_rep_rejects_non_commuting(s3):
    a = next(g for g in s3.elements if s3.order_of(g) == 2)
    b = next(g for g in s3.elements if s3.order_of(g) == 3)
    with pytest.raises(NotCommuting):
        gk_rep(trivial_rep2(s3), a, b)
    with pytest.raises(NotCommuting):
        gk_as_mark(a, b, from_rep2(trivial_rep2(s3)))


# ---------------------------------------------------------------------------
# tables


def test_char_table_klein(v4):
    table = char_table(v4, verify=True)
    assert len(table.pairs) == 16
    assert len(table.columns) == 6
    col = table.columns.index(
        next(c for c in table.columns if c.subgroup.order == 4 and c.schur_index == 0)
    )
    for row in table.entries:
        assert row[col] == CycloInt.from_int(1)


def test_char_table_symmetric(s3):
    table = char_table(s3, verify=True)
    assert len(table.pairs) == 8
    assert len(table.columns) == 4
    assert table.pairs[0] == (0, 0)
    reg = table.columns.index(next(c for c in table.columns if c.subgroup.order == 1))
    column = [row[reg] for row in table.entries]
    assert column[0] == CycloInt.from_int(6)
    assert all(v == CycloInt.zero() for v in column[1:])


def _plant_one_at_first_cell(monkeypatch, route: str):
    """Add 1 to row 0 of the first column in the array route ``route``:
    the cell (0, 0) of the table."""
    original = getattr(characters, route)

    def planted(*args):
        out = original(*args)
        pair = next(x for x in args if isinstance(x, Orbit))
        out[0, 0] += pair is basis(pair.subgroup.parent)[0]
        return out

    monkeypatch.setattr(characters, route, planted)


def _planted_disagreement(G, monkeypatch, route: str, scalar: str):
    """The witness of the table check with the same +1 at cell (0, 0) in
    the array route and in its scalar formula, which replays that cell."""
    _plant_one_at_first_cell(monkeypatch, route)
    formula = getattr(characters, scalar)
    monkeypatch.setattr(characters, scalar, lambda *args: formula(*args) + CycloInt.one())
    with pytest.raises(FormulasDisagree) as exc:
        char_table(G, verify=True)
    assert str(exc.value) == "character formulas disagree at pair (0,0), column 0"
    a, b, column, v, v1, v2 = exc.value.witness
    assert (a, b, column) == (0, 0, 0)
    return v, v1, v2


def test_char_table_disagreement_carries_witness(v4, monkeypatch):
    v, v1, v2 = _planted_disagreement(v4, monkeypatch, "_transversal_column", "gk_rep")
    assert v == v2 and v1 == v + CycloInt.one()


def test_char_table_fixed_point_disagreement_carries_witness(v4, monkeypatch):
    v, v1, v2 = _planted_disagreement(v4, monkeypatch, "_fixed_point_column", "gk_osorno")
    assert v == v1 and v2 == v + CycloInt.one()


@pytest.mark.parametrize("route", ["_transversal_column", "_fixed_point_column"])
def test_char_table_array_fault_alone_is_an_internal_fault(v4, monkeypatch, route):
    # the scalar formulas agree at the replayed cell, so the arrays are at fault
    _plant_one_at_first_cell(monkeypatch, route)
    with pytest.raises(InternalFault) as exc:
        char_table(v4, verify=True)
    assert not isinstance(exc.value, FormulasDisagree)
    assert str(exc.value) == "the array routes disagree at pair (0,0), column 0, where the scalar formulas agree"
    assert exc.value.witness == (0, 0, 0)


def test_first_disagreement_is_taken_in_row_major_order(monkeypatch):
    # faults at (row 1, column 5) and (row 2, column 0): row 1 comes first,
    # although its column is checked later
    G = quaternion_8()
    original = characters._transversal_column
    cols = basis(G)

    def planted(hits, pair, count, n):
        out = original(hits, pair, count, n)
        out[1, 0] += pair is cols[5]
        out[2, 0] += pair is cols[0]
        return out

    monkeypatch.setattr(characters, "_transversal_column", planted)
    table = char_table(G, verify=False)
    with pytest.raises(InternalFault) as exc:
        characters.verify_char_table(table)
    assert exc.value.witness == (*table.pairs[1], 5)


def test_table_check_refuses_non_commuting_pairs_and_foreign_levels(s3, v4):
    table = char_table(s3, verify=False)
    a = next(g for g in s3.elements if s3.order_of(g) == 2)
    b = next(g for g in s3.elements if s3.order_of(g) == 3)
    bad_pair = CharTable(s3, ((a, b),) + table.pairs[1:], table.columns, table.entries)
    with pytest.raises(NotCommuting):
        characters.verify_char_table(bad_pair)
    # an entry at level 3, which does not divide |V4| = 4, the comparison level
    table = char_table(v4, verify=False)
    row = (CycloInt.one(3),) + table.entries[0][1:]
    with pytest.raises(NotAMultiple):
        characters.verify_char_table(CharTable(v4, table.pairs, table.columns, (row,) + table.entries[1:]))


def test_char_table_csv_deterministic(s3):
    t1 = char_table_to_csv(char_table(s3, verify=False))
    t2 = char_table_to_csv(char_table(s3, verify=False))
    assert t1 == t2
    assert t1.startswith("pair,")
    numeric = char_table_to_csv(char_table(s3, verify=False), numeric=True)
    assert "6.000" in numeric or "6.0" in numeric or "6+0" in numeric or "6" in numeric


def test_char_table_json(v4):
    doc = char_table_to_json(char_table(v4, verify=False))
    text = json.dumps(doc)
    assert "V4" in text


# ---------------------------------------------------------------------------
# the array routes against the scalar formulas, cell by cell

A4 = from_permutation_generators(4, [(1, 2, 0, 3), (1, 0, 3, 2)], name="A4")
Z3SQ_C2 = load_group(str(Path(__file__).resolve().parent / "data" / "z3sq_c2.json"))


@pytest.mark.parametrize(
    "G", [symmetric_3(), dihedral_4(), quaternion_8(), A4, Z3SQ_C2, Z3SQ], ids=lambda G: G.name
)
def test_array_routes_match_the_scalar_formulas_at_every_cell(G):
    table = char_table(G, verify=False)
    n = G.order
    A = np.array([a for a, _ in table.pairs])
    B = np.array([b for _, b in table.pairs])

    def coords(v):
        return list(raise_cyclo_level(v, n).coeffs)

    marks = [_gk_mark(G, a, b) for a, b in table.pairs]
    for j, pair in enumerate(table.columns):
        r = Rep2(G, (pair,))
        p = to_perm_cocycle(r)
        transversal = _transversal_column(_transversal_hits(G, A, B, pair.subgroup), pair, len(A), n)
        fixed = _fixed_point_column(G, A, B, pair, n)
        for i, (a, b) in enumerate(table.pairs):
            # the entry keeps the level sum_roots gives it, not only its value
            assert repr(table.entries[i][j]) == repr(_pair_mark(*marks[i], pair))
            assert transversal[i].tolist() == coords(gk_rep(r, a, b))
            assert fixed[i].tolist() == coords(gk_osorno(p, a, b))
    labels, _, rows = mark_matrix(G)
    for (P, ci), row in zip(labels, rows):
        alpha = _character_table(P)[ci]
        assert [repr(v) for v in row] == [repr(_pair_mark(P, alpha, pair)) for pair in table.columns]
