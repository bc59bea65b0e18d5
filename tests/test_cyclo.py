"""Exact cyclotomic arithmetic: roots of unity, ℤ[ζ], and the ℚ(ζ) of the
determinant's elimination."""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twochar.cyclo import (
    CycloInt,
    CycloRat,
    RootOfUnity,
    _galois_conjugate,
    _reduce_mod_cyclotomic,
    cyclotomic_polynomial,
    pretty_cyclo,
    raise_cyclo_level,
    root_to_cyclo,
    sum_roots,
)


def _phi(n):
    """φ(n), read off as deg Φ_n."""
    return len(cyclotomic_polynomial(n)) - 1


def test_euler_phi():
    assert [_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_of_unity_group_law():
    assert RootOfUnity(8, 1) * RootOfUnity(8, 7) == RootOfUnity(8, 0)
    assert RootOfUnity(8, 3) * RootOfUnity(8, 7) == RootOfUnity(8, 2)


def test_root_cross_level_equality():
    assert RootOfUnity(2, 1) == RootOfUnity(4, 2)
    assert RootOfUnity(3, 1) == RootOfUnity(6, 2)
    assert RootOfUnity(3, 1) != RootOfUnity(6, 1)


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
    deg = _phi(level)
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
    assert x + (-x) == CycloInt.zero(level)
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
    one = r * r.inverse()
    assert one.den == 1 and one.num == CycloInt.one()
    assert r.inverse().num.level == level


def test_rat_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        CycloRat.zero().inverse()


def test_rat_mixed_arithmetic():
    half = CycloRat(CycloInt.one(), 2)
    whole = half + half
    assert whole.den == 1 and _as_tuple(whole.num) == (1, (1,))
    zero = CycloRat.one() - CycloRat.one()
    assert zero.is_zero() and zero.den == 1


def test_pretty_forms():
    assert pretty_cyclo(CycloInt.from_int(3)) == "3"
    text = pretty_cyclo(root_to_cyclo(RootOfUnity(8, 3)))
    assert "ζ" in text and "8" in text


# ---------------------------------------------------------------------------
# The table-driven kernel against the polynomial-division kernel it replaced.
# The reference works on plain (level, coeffs) and (level, coeffs, den) tuples
# and divides by Φ_L at every step; results are compared as exact tuples, not
# by cross-level ==, since the printed output shows the level.

LEVELS = range(1, 65)


def _old_divmod(num, den):
    rem = list(num)
    d = len(den) - 1
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            for j, dj in enumerate(den):
                rem[i - d + j] -= c * dj
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(rem)


def _old_reduce(coeffs, L):
    rem = _old_divmod(tuple(coeffs), cyclotomic_polynomial(L))
    return tuple(rem) + (0,) * (_phi(L) - len(rem))


def _old_raise(x, L):
    level, coeffs = x
    step = L // level
    out = [0] * (_phi(level) * step)
    for k, c in enumerate(coeffs):
        out[k * step] = c
    return (L, _old_reduce(out, L))


def _old_root(L, e):
    return (L, _old_reduce([0] * e + [1], L))


def _old_conjugate(x, k):
    L, coeffs = x
    out = [0] * L
    for i, c in enumerate(coeffs):
        out[i * k % L] += c
    return (L, _old_reduce(out, L))


def _old_unify(x, y):
    L = math.lcm(x[0], y[0])
    return _old_raise(x, L), _old_raise(y, L)


def _old_add(x, y):
    (L, a), (_, b) = _old_unify(x, y)
    return (L, tuple(p + q for p, q in zip(a, b)))


def _old_mul(x, y):
    (L, a), (_, b) = _old_unify(x, y)
    prod = [0] * (len(a) + len(b) - 1)
    for i, p in enumerate(a):
        for j, q in enumerate(b):
            prod[i + j] += p * q
    return (L, _old_reduce(prod, L))


def _old_rat(num, den=1):
    if den < 0:
        num, den = (num[0], tuple(-c for c in num[1])), -den
    g = math.gcd(math.gcd(*num[1]), den)
    if g > 1:
        num, den = (num[0], tuple(c // g for c in num[1])), den // g
    return num[0], num[1], den


def _scaled(x, n):
    return (x[0], tuple(c * n for c in x[1]))


def _old_rat_add(x, y):
    return _old_rat(_old_add(_scaled(x[:2], y[2]), _scaled(y[:2], x[2])), x[2] * y[2])


def _old_rat_mul(x, y):
    return _old_rat(_old_mul(x[:2], y[:2]), x[2] * y[2])


def _old_rat_eq(x, y):
    diff = _old_add(_scaled(x[:2], y[2]), _scaled(y[:2], -x[2]))
    return not any(diff[1])


def _old_rat_inverse(x):
    L = x[0]
    conj = (L, (1,) + (0,) * (_phi(L) - 1))
    for k in range(2, L):
        if math.gcd(k, L) == 1:
            conj = _old_mul(conj, _old_conjugate(x[:2], k))
    return _old_rat(_scaled(conj, x[2]), _old_mul(x[:2], conj)[1][0])


def _as_tuple(x):
    if isinstance(x, CycloRat):
        return (x.num.level, x.num.coeffs, x.den)
    return (x.level, x.coeffs)


def _draw(rng, level, size=None, bound=3):
    n = _phi(level) if size is None else size
    return tuple(rng.randint(-bound, bound) for _ in range(n))


@pytest.mark.parametrize("L", LEVELS)
def test_reduce_and_roots_match_polynomial_division(L):
    rng = random.Random(L)
    for size in (0, 1, _phi(L), L, 2 * L + 3):
        coeffs = _draw(rng, L, size)
        assert _reduce_mod_cyclotomic(coeffs, L) == _old_reduce(coeffs, L)
    for e in range(L):
        got = root_to_cyclo(RootOfUnity(L, e))
        assert _as_tuple(got) == _old_root(L, e)
        assert all(type(c) is int for c in got.coeffs)


@pytest.mark.parametrize("L", LEVELS)
def test_raise_and_conjugate_match_polynomial_division(L):
    rng = random.Random(100 + L)
    for l in range(1, L + 1):
        if L % l == 0:
            x = _draw(rng, l)
            assert _as_tuple(raise_cyclo_level(CycloInt(l, x), L)) == _old_raise((l, x), L)
    x = _draw(rng, L)
    for k in range(L):
        assert _as_tuple(_galois_conjugate(CycloInt(L, x), k)) == _old_conjugate((L, x), k)


@pytest.mark.parametrize("L", LEVELS)
def test_rational_arithmetic_matches_polynomial_division(L):
    rng = random.Random(200 + L)
    sub = rng.choice([l for l in range(1, L + 1) if L % l == 0])
    for x_level, y_level in ((L, L), (L, sub), (sub, L), (1, L)):
        x = _old_rat((x_level, _draw(rng, x_level)), rng.choice([1, 1, 2, 3, -4, 6]))
        y = _old_rat((y_level, _draw(rng, y_level)), rng.choice([1, 1, 2, 5, -6]))
        X, Y = CycloRat(CycloInt(*x[:2]), x[2]), CycloRat(CycloInt(*y[:2]), y[2])
        assert _as_tuple(X) == x and _as_tuple(Y) == y
        assert _as_tuple(X + Y) == _old_rat_add(x, y)
        assert _as_tuple(X - Y) == _old_rat_add(x, _old_rat(_scaled(y[:2], -1), y[2]))
        assert _as_tuple(-X) == _old_rat(_scaled(x[:2], -1), x[2])
        assert _as_tuple(X * Y) == _old_rat_mul(x, y)
        raised = _old_rat(_old_raise(x[:2], L), x[2])  # x again, at level L
        assert _old_rat_eq(x, raised) and _as_tuple(X + CycloRat(CycloInt.zero(L))) == raised
        if any(y[1]):
            assert _as_tuple(Y.inverse()) == _old_rat_inverse(y)


def _old_sum(roots):
    acc = (1, (0,))
    for r in roots:
        acc = _old_add(acc, _old_root(r.level, r.exponent))
    return acc


def test_sum_roots_matches_the_add_one_root_loop():
    rng = random.Random(7)
    assert _as_tuple(sum_roots([])) == _old_sum([]) == (1, (0,))
    for L in (1, 2, 3, 4, 8, 12, 15, 16):
        roots = [RootOfUnity(L, rng.randrange(L)) for _ in range(rng.randint(1, 40))]
        assert _as_tuple(sum_roots(roots)) == _old_sum(roots)
    for levels in ((1, 2), (2, 3), (4, 6, 9), (1, 1, 8), (5, 7), (16, 2, 4)):
        roots = [RootOfUnity(level, rng.randrange(level)) for level in levels for _ in range(5)]
        rng.shuffle(roots)
        got = sum_roots(iter(roots))
        assert _as_tuple(got) == _old_sum(roots)
        assert all(type(c) is int for c in got.coeffs)
