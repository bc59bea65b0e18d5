"""Acceptance suite: one test per shipped guarantee, exact arithmetic only.

Each test prints nothing on success; run with ``pytest -v`` to get one
pass/fail line per criterion.
"""

import itertools
import random
import time

import pytest

from conftest import cyclic, dihedral_4, klein_four, quaternion_8, symmetric_3
from twochar.burnside import add as b_add
from twochar.burnside import basis, determinant, from_rep2, mark_matrix, mul
from twochar.characters import (
    char_table,
    char_table_to_csv,
    gk_as_mark,
    gk_linear,
    gk_osorno,
    gk_rep,
)
from twochar.cochains import schur_classes
from twochar.crossed import crossed_from_json, load_crossed
from twochar.cyclo import CycloInt, root_to_cyclo
from twochar.errors import TwoCharError
from twochar.groups import commuting_pair_classes, load_json
from twochar.reps import (
    degree,
    direct_sum,
    from_perm_cocycle,
    random_rep2,
    tensor,
    to_perm_cocycle,
)
from twochar.verify import crossed, oracle, ring_laws, shapiro


def test_criterion_1_transfer_identities_on_random_cochains():
    # S3 ⊇ Z3, S3 ⊇ Z2, D4 ⊇ Z4 and Z4 ⊇ Z2, each on the trivial module at
    # level 6 and the translation module at level 4, in degrees 1 and 2:
    # 16 configurations × 200 random cochains × 4 identities
    start = time.perf_counter()
    result = shapiro(seed=2026, iters=200)
    assert result.ok, result.lines
    assert result.checks == 16 * 200 * 4
    assert time.perf_counter() - start < 10.0


def test_criterion_2_schur_class_counts_match_literature():
    start = time.perf_counter()
    for n in range(1, 9):
        assert len(schur_classes(cyclic(n))) == 1
    assert len(schur_classes(klein_four())) == 2
    assert len(schur_classes(symmetric_3())) == 1
    assert len(schur_classes(dihedral_4())) == 2
    assert len(schur_classes(quaternion_8())) == 1
    assert time.perf_counter() - start < 30.0


def test_criterion_3_formula_matches_twisted_regular_oracle():
    # every Schur class of V4, Z4, D4 and Q8 on every commuting pair
    result = oracle()
    assert result.ok, result.lines
    assert result.checks == 168
    v4 = klein_four()
    bimod = schur_classes(v4).representatives[1]
    assert root_to_cyclo(gk_linear(bimod, 2, 1)) == CycloInt.from_int(-1)


def test_criterion_4_three_character_formulas_agree():
    rng = random.Random(11)
    for G in (klein_four(), cyclic(4), symmetric_3(), dihedral_4()):
        classes = commuting_pair_classes(G)
        for _ in range(50):
            r = random_rep2(G, rng)
            p = to_perm_cocycle(r)
            u = from_rep2(r)
            for cls in classes:
                a, b = cls.representative
                v = gk_rep(r, a, b)
                assert v == gk_osorno(p, a, b)
                assert v == gk_as_mark(a, b, u)


def test_criterion_5_class_map_and_characters_respect_ring_ops():
    rng = random.Random(23)
    for G in (klein_four(), cyclic(4), symmetric_3(), dihedral_4()):
        classes = commuting_pair_classes(G)
        for _ in range(25):
            r = random_rep2(G, rng)
            s = random_rep2(G, rng)
            assert from_rep2(tensor(r, s)) == mul(from_rep2(r), from_rep2(s))
            assert from_rep2(direct_sum(r, s)) == b_add(from_rep2(r), from_rep2(s))
            for cls in classes:
                a, b = cls.representative
                assert gk_rep(tensor(r, s), a, b) == gk_rep(r, a, b) * gk_rep(s, a, b)
                assert gk_rep(direct_sum(r, s), a, b) == gk_rep(r, a, b) + gk_rep(s, a, b)
                for x, y in cls.orbit:
                    assert gk_rep(r, x, y) == gk_rep(r, a, b)


def test_criterion_6_burnside_basis_marks_and_ring_laws():
    assert len(basis(klein_four())) == 6
    assert len(basis(symmetric_3())) == 4
    checks = 0
    for G in (klein_four(), cyclic(4), symmetric_3(), dihedral_4(), quaternion_8()):
        _, _, rows = mark_matrix(G)
        assert not determinant(rows).is_zero()
        n = len(basis(G))
        witness, k = ring_laws(G, itertools.product(range(n), repeat=3))
        assert witness is None, witness
        checks += k
    # exhaustive: 1 + 2n + n² + n³ comparisons for a basis of size n = 6, 3, 4, 11, 6
    assert checks == 2137


def test_criterion_7_crossed_module_validation_and_interchange():
    for name in ("crossed_z2_z4", "crossed_inner_s3"):
        K = load_crossed(name)
        assert K.G.order * K.H.order <= 64

    # poisoned inputs are rejected with witnesses
    doc = load_json("crossed_inner_s3")
    doc["action"][1][0] = (doc["action"][1][0] + 1) % 6
    with pytest.raises(TwoCharError) as exc:
        crossed_from_json(doc)
    assert exc.value.witness is not None
    doc = load_json("crossed_z2_z4")
    doc["boundary"] = [0, 1]
    with pytest.raises(TwoCharError) as exc:
        crossed_from_json(doc)
    assert exc.value.witness is not None

    result = crossed()
    assert result.ok, result.lines
    assert result.lines == (
        "crossed_z2_z4: valid, pi1 order 2, pi2 order 1, triples 16",
        "crossed_inner_s3: valid, pi1 order 1, pi2 order 1, triples 36",
    )
    # the interchange law on all |G|²|H|⁴ tuples: 4²·2⁴ + 6²·6⁴
    assert result.checks == 256 + 46656


def test_criterion_8_classification_roundtrip_preserves_canonical_form():
    rng = random.Random(47)
    for G in (symmetric_3(), dihedral_4()):
        for _ in range(50):
            r = random_rep2(G, rng)
            p = to_perm_cocycle(r)
            assert p.size == degree(r)
            assert from_perm_cocycle(p) == r


def test_criterion_9_character_tables_and_determinism():
    v4 = klein_four()
    table = char_table(v4, verify=False)
    assert len(table.pairs) == 16 and len(table.columns) == 6
    triv_col = next(
        i
        for i, c in enumerate(table.columns)
        if c.subgroup.order == v4.order and c.schur_index == 0
    )
    assert all(row[triv_col] == CycloInt.from_int(1) for row in table.entries)

    s3 = symmetric_3()
    table = char_table(s3, verify=False)
    assert len(table.pairs) == 8 and len(table.columns) == 4
    reg_col = next(i for i, c in enumerate(table.columns) if c.subgroup.order == 1)
    column = [row[reg_col] for row in table.entries]
    assert column[0] == CycloInt.from_int(s3.order)
    assert all(v.is_zero() for v in column[1:])

    for G in (v4, s3):
        first = char_table_to_csv(char_table(G, verify=False)).encode()
        second = char_table_to_csv(char_table(G, verify=False)).encode()
        assert first == second
