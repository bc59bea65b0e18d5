"""Exact cyclotomic arithmetic: roots of unity, integer and rational combos."""

import cmath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twochar.cyclo import (
    CycloInt,
    CycloRat,
    RootOfUnity,
    cyclo_from_json,
    cyclo_to_json,
    cyclotomic_polynomial,
    euler_phi,
    pretty_cyclo,
    raise_cyclo_level,
    raise_root_level,
    rat_from_json,
    rat_to_json,
    root_from_json,
    root_to_cyclo,
    root_to_json,
)


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_of_unity_group_law():
    z = RootOfUnity(8, 1)
    assert z**8 == RootOfUnity(1, 0)
    assert z * z.inverse() == RootOfUnity(8, 0)
    assert (z**3) * (z**7) == z**2


def test_root_cross_level_equality():
    assert RootOfUnity(2, 1) == RootOfUnity(4, 2)
    assert RootOfUnity(3, 1) == RootOfUnity(6, 2)
    assert RootOfUnity(3, 1) != RootOfUnity(6, 1)
    assert raise_root_level(RootOfUnity(2, 1), 6).exponent == 3


def test_equal_roots_hash_equal_across_levels():
    half_turn = [RootOfUnity(4, 2), RootOfUnity(2, 1), RootOfUnity(8, 4), RootOfUnity(6, -3)]
    for a in half_turn:
        for b in half_turn:
            assert a == b and hash(a) == hash(b)
    assert len(set(half_turn)) == 1
    assert RootOfUnity(1, 0) == RootOfUnity(5, 5) and hash(RootOfUnity(1, 0)) == hash(RootOfUnity(5, 5))
    others = [RootOfUnity(4, 1), RootOfUnity(4, 3), RootOfUnity(8, 2), RootOfUnity(8, 1), RootOfUnity(2, 0)]
    assert all(r != h for r in others for h in half_turn)
    assert len(set(half_turn + others)) == 5


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 12), i=st.integers(0, 23), j=st.integers(0, 23))
def test_root_product_matches_complex(n, i, j):
    a, b = RootOfUnity(n, i % n), RootOfUnity(n, j % n)
    prod = a * b
    assert cmath.isclose(prod.to_complex(), a.to_complex() * b.to_complex(), abs_tol=1e-9)


def test_primitive_root_sum_vanishes():
    for n in (2, 3, 4, 6, 8):
        total = CycloInt.zero(n)
        for k in range(n):
            total = total + root_to_cyclo(RootOfUnity(n, k))
        assert total.is_zero()


def test_cyclo_int_known_identities():
    z4 = root_to_cyclo(RootOfUnity(4, 1))
    assert z4 * z4 == CycloInt.from_int(-1)
    z3 = root_to_cyclo(RootOfUnity(3, 1))
    assert z3 * z3 * z3 == CycloInt.from_int(1)
    assert z3 + z3 * z3 == CycloInt.from_int(-1)


def _random_cyclo(draw, level):
    deg = euler_phi(level)
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=deg, max_size=deg))
    return CycloInt(level, tuple(coeffs))


@settings(max_examples=60, deadline=None)
@given(level=st.sampled_from([1, 2, 3, 4, 6, 8, 12]), data=st.data())
def test_cyclo_ring_laws(level, data):
    x = _random_cyclo(data.draw, level)
    y = _random_cyclo(data.draw, level)
    z = _random_cyclo(data.draw, level)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x - x == CycloInt.zero(level)
    # float cross-check of the exact product
    assert cmath.isclose((x * y).to_complex(), x.to_complex() * y.to_complex(), abs_tol=1e-6)


def test_cross_level_cyclo_equality():
    two_at_1 = CycloInt.from_int(2, 1)
    two_at_6 = CycloInt.from_int(2, 6)
    assert two_at_1 == two_at_6
    assert raise_cyclo_level(two_at_1, 12) == two_at_6


@settings(max_examples=40, deadline=None)
@given(level=st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12, 15, 16]), den=st.integers(1, 12), data=st.data())
def test_rat_inverse(level, den, data):
    x = _random_cyclo(data.draw, level)
    if x.is_zero():
        return
    r = CycloRat(x, den)
    assert r * r.inverse() == CycloRat.one()
    assert r / r == CycloRat.one()
    assert r.inverse().level == level


def test_rat_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        CycloRat.zero().inverse()


def test_rat_mixed_arithmetic():
    half = CycloRat.from_int(1, 2)
    assert half + half == CycloRat.one()
    assert 2 * half == CycloRat.one()
    assert CycloRat.one() - 1 == CycloRat.zero()


def test_pretty_forms():
    assert pretty_cyclo(CycloInt.from_int(3)) == "3"
    text = pretty_cyclo(root_to_cyclo(RootOfUnity(8, 3)))
    assert "ζ" in text and "8" in text


def test_json_roundtrips():
    r = RootOfUnity(12, 5)
    assert root_from_json(root_to_json(r)) == r
    x = root_to_cyclo(r) + CycloInt.from_int(2)
    assert cyclo_from_json(cyclo_to_json(x)) == x
    q = CycloRat.from_cyclo(x) / 3
    assert rat_from_json(rat_to_json(q)) == q
