"""The law check on a mark's α tests only the pairs (i, e_k), e_k a
generator class; it must still refuse every α that is not a character."""

from itertools import product

import pytest

from conftest import cyclic
from twochar import burnside
from twochar.burnside import identity_element, mark
from twochar.cyclo import CycloInt, RootOfUnity
from twochar.errors import AlphaNotHomomorphism
from twochar.groups import from_cayley_table, full_subgroup
from twochar.reps import linear_classes

Z2_3 = from_cayley_table([[i ^ j for j in range(8)] for i in range(8)], name="Z2^3")


def _obeys_law(sc, alpha):
    return all(alpha[sc.add(i, j)] == alpha[i] * alpha[j] for i, j in product(range(len(sc)), repeat=2))


def test_alpha_right_on_generators_but_wrong_on_a_composite_class_is_refused():
    P = full_subgroup(Z2_3)
    sc = linear_classes(P)                      # H²(Z2³; ℂ^×) = (ℤ/2)³
    assert sc.orders == (2, 2, 2)
    alpha = list(burnside._character_table(P)[5])
    composite = sc.index_of_coords((1, 1, 0))
    alpha[composite] = RootOfUnity(2, alpha[composite].exponent + 1)
    burnside._check_alpha.cache_clear()
    with pytest.raises(AlphaNotHomomorphism) as info:
        mark(P, alpha, identity_element(Z2_3))
    i, j = info.value.witness
    assert sum(sc.coordinates[j]) == 1          # j is a generator class
    assert alpha[sc.add(i, j)] != alpha[i] * alpha[j]


def test_generator_check_agrees_with_every_pair_on_all_sign_characters():
    P = full_subgroup(Z2_3)
    sc = linear_classes(P)
    refused = 0
    for signs in product((0, 1), repeat=len(sc)):
        alpha = tuple(RootOfUnity(2, s) for s in signs)
        burnside._check_alpha.cache_clear()
        try:
            burnside._check_alpha(P, alpha)
            passed = True
        except AlphaNotHomomorphism:
            passed, refused = False, refused + 1
        assert passed == _obeys_law(sc, alpha), signs
    assert refused == 2 ** len(sc) - len(burnside._character_table(P))


def test_trivial_class_group_still_needs_alpha_of_zero_to_be_one():
    P = full_subgroup(cyclic(4))
    assert len(linear_classes(P)) == 1
    burnside._check_alpha.cache_clear()
    with pytest.raises(AlphaNotHomomorphism) as info:
        mark(P, (RootOfUnity(2, 1),), identity_element(P.parent))
    assert info.value.witness == (0, 0)
    assert mark(P, (RootOfUnity(1, 0),), identity_element(P.parent)) == CycloInt.one()
