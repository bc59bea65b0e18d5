"""Cochains and low-degree cohomology: differentials, class sets, transport."""

import hashlib
import json
import os
import random
import subprocess
import sys
from math import gcd, lcm, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cyclic, dihedral_4, klein_four, quaternion_8, symmetric_3
from twochar import cochains, groups
from twochar.cochains import (
    Cochain,
    GModule,
    cohomologous_over_Cx,
    conjugate_pullback,
    differential,
    h2,
    is_coboundary,
    is_cocycle,
    raise_level,
    random_cochain,
    random_cocycle,
    reduce_mod,
    schur_classes,
)
from twochar.errors import NotACocycle, NotAnAction, TooLarge, WrongWitness
from twochar.groups import (
    all_subgroups,
    conjugate_subgroup,
    from_cayley_table,
    from_permutation_generators,
    generated_subgroup,
    load_group,
    subgroup_group,
)
from twochar.reps import linear_classes
from twochar.shapiro import shapiro_context
from twochar.snf import MOD_LEVELS, hermite_mod, hermite_reduce, smith_normal_form

GROUPS = [cyclic(3), cyclic(4), klein_four(), symmetric_3(), dihedral_4(), quaternion_8()]


def _brute_differential(c: Cochain) -> Cochain:
    """Independent route: evaluate the alternating-sum formula pointwise."""
    G, M, n = c.group, c.module, c.degree
    shape = (G.order,) * (n + 1) + (M.size,)
    out = np.zeros(shape, dtype=np.int64)
    from itertools import product

    for gs in product(G.elements, repeat=n + 1):
        total = np.zeros(M.size, dtype=np.int64)
        # g acts on functions by (g·w)(x) = w(g⁻¹·x)
        total += c.values[gs[1:]][M.action[G.inv(gs[0])]]
        for i in range(1, n + 1):
            merged = gs[: i - 1] + (G.mul(gs[i - 1], gs[i]),) + gs[i + 1 :]
            total += (-1) ** i * c.values[merged]
        total += (-1) ** (n + 1) * c.values[gs[:n]]
        out[gs] = total % M.level
    return Cochain(M, n + 1, out)


@settings(max_examples=30, deadline=None)
@given(gi=st.integers(0, len(GROUPS) - 1), degree=st.integers(0, 2), seed=st.integers(0, 10**6))
def test_differential_matches_brute_force(gi, degree, seed):
    G = GROUPS[gi]
    if G.order > 6:
        return  # brute force over G^3 only for small groups
    module = GModule.trivial(G, 4)
    c = random_cochain(module, degree, random.Random(seed))
    assert differential(c) == _brute_differential(c)


@settings(max_examples=40, deadline=None)
@given(gi=st.integers(0, len(GROUPS) - 1), degree=st.integers(0, 2), seed=st.integers(0, 10**6))
def test_differential_squares_to_zero(gi, degree, seed):
    G = GROUPS[gi]
    module = GModule.trivial(G, 6)
    c = random_cochain(module, degree, random.Random(seed))
    dd = differential(differential(c))
    assert not dd.values.any()


_INT64_EDGES = (0, 1, -1, 2**31 - 1, -(2**31) + 1, 2**62, -(2**62), 2**62 - 1, -(2**62) + 1)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.one_of(st.integers(-(2**62), 2**62), st.sampled_from(_INT64_EDGES)), max_size=40),
    L=st.sampled_from((1, 2, 6, 2**31 - 1)),
)
def test_reduce_mod_equals_the_remainder(values, L):
    drawn = np.array(values, dtype=np.int64)
    # the drawn values, and a tiling of them long enough for the floor-division route
    tiled = np.resize(drawn, 2 * cochains._DIRECT_REMAINDER if len(drawn) else 0)
    for a in (drawn, tiled):
        expect = a % L
        got = reduce_mod(a.copy(), L)
        assert got.dtype == np.int64 and got.tobytes() == expect.tobytes()


def _reduced_like_the_constructor(c: Cochain):
    """``c`` holds values in [0, L), byte-equal to the cochain that the
    reducing constructor builds from the same values."""
    assert c.values.dtype == np.int64 and c.values.flags.c_contiguous and not c.values.flags.writeable
    assert c.values.min(initial=0) >= 0 and c.values.max(initial=0) < c.level
    ref = Cochain(c.module, c.degree, c.values)
    assert ref == c and ref.values.tobytes() == c.values.tobytes()


@pytest.mark.parametrize("G", [symmetric_3(), dihedral_4()], ids=lambda G: G.name)
def test_unreduced_constructors_return_reduced_values(G):
    rng = random.Random(7)
    for module in (GModule.trivial(G, 6), GModule.permutation(G, G.table, 4)):
        for degree in (0, 1, 2):
            a, b = random_cochain(module, degree, rng), random_cochain(module, degree, rng)
            L = module.level
            for got, raw in ((a + b, a.values + b.values), (a - b, a.values - b.values)):
                _reduced_like_the_constructor(got)
                assert got.values.tobytes() == (raw % L).tobytes()
            up = raise_level(a, 3 * L)
            _reduced_like_the_constructor(up)
            assert up.values.tobytes() == (a.values * 3).tobytes()
            for P in all_subgroups(G):
                for g in G.elements:
                    pulled = conjugate_pullback(a, g, conjugate_subgroup(G, G.inv(g), P))
                    _reduced_like_the_constructor(pulled)


@pytest.mark.parametrize("name", ("D8", "Z2^3"))
def test_add_matches_index_of_coords_on_every_pair(name):
    G = _numbering_free_groups()[name]
    sets = [schur_classes(G)] + [h2(G, GModule.trivial(G, L)) for L in (2, 4, 6, G.order)]
    sets += [linear_classes(P) for P in all_subgroups(G)]
    pairs = 0
    for cs in sets:
        for i, ci in enumerate(cs.coordinates):
            for j, cj in enumerate(cs.coordinates):
                assert cs.add(i, j) == cs.index_of_coords(x + y for x, y in zip(ci, cj)), (cs, i, j)
                pairs += 1
    assert pairs == {"D8": 300, "Z2^3": 16548}[name]


def test_index_of_coords_refuses_a_wrong_number_of_coordinates():
    cs = schur_classes(_numbering_free_groups()["Z2^3"])
    assert cs.orders == (2, 2, 2)
    assert cs.index_of_coords(iter((1, 0, 3))) == cs.index_of_coords((1, 0, 1))
    for coords in ((1, 0, 1, 1), (1, 0)):
        with pytest.raises(ValueError, match=f"{len(coords)} coordinates given for 3 orders"):
            cs.index_of_coords(coords)
        with pytest.raises(ValueError):
            cs.index_of_coords(c for c in coords)


def test_module_action_shapes(s3):
    perm = s3.table  # left translation
    module = GModule.permutation(s3, perm, 4)
    assert module.size == 6
    c = random_cochain(module, 2, random.Random(0))
    assert c.values.shape == (6, 6, 6)
    assert is_cocycle(differential(random_cochain(module, 1, random.Random(1))))


def test_each_distinct_module_action_is_checked_once(s3):
    groups.check_left_action.cache_clear()
    module = GModule.permutation(s3, s3.table, 4)
    assert GModule.permutation(s3, s3.table, 8).at_level(4) == module
    GModule.trivial(s3, 6).at_level(12)
    assert groups.check_left_action.cache_info().misses == 2
    # a failed check is not cached: a bad action is refused on every build
    bad = s3.table.copy()
    bad[1, :2] = 0
    for n in range(2):
        with pytest.raises(NotAnAction, match="element 1 does not act by a permutation") as exc:
            GModule.permutation(s3, bad, 4)
        assert exc.value.witness == (1,)
        assert groups.check_left_action.cache_info().misses == 3 + n


def test_coboundaries_are_cocycles(v4):
    module = GModule.trivial(v4, 8)
    for seed in range(5):
        pi = random_cochain(module, 1, random.Random(seed))
        c = differential(pi)
        assert is_cocycle(c)
        witness = is_coboundary(c)
        assert witness is not None
        assert differential(witness) == c


def test_is_coboundary_rejects_non_cocycle(v4):
    module = GModule.trivial(v4, 4)
    values = np.zeros((4, 4, 1), dtype=np.int64)
    values[1, 2, 0] = 1  # normalized but dc != 0
    c = Cochain(module, 2, values)
    if is_cocycle(c):
        pytest.skip("unexpectedly a cocycle")
    with pytest.raises(NotACocycle):
        is_coboundary(c)


def test_klein_bimodular_cocycle():
    # beta((i1,j1),(i2,j2)) = j1 * i2 * L/2 on V4 = {a^i b^j}, element 2i+j.
    v4 = klein_four()
    L = 4
    module = GModule.trivial(v4, L)
    values = np.zeros((4, 4, 1), dtype=np.int64)
    for e1 in range(4):
        for e2 in range(4):
            values[e1, e2, 0] = (e1 & 1) * (e2 >> 1) * (L // 2)
    beta = Cochain(module, 2, values)
    assert is_cocycle(beta)
    assert is_coboundary(beta) is None
    classes = schur_classes(v4)
    assert classes.index_of(beta) != 0


def test_h2_values_on_trivial_modules():
    # literature values via universal coefficients:
    # Ext(H1, Z/L) + Hom(H2, Z/L) with H1(V4)=(Z/2)^2, H2(V4)=Z/2,
    # H1(Z4)=Z/4, H2(Z4)=0, H1(S3)=Z/2, H2(S3)=0
    assert len(h2(klein_four(), GModule.trivial(klein_four(), 2))) == 8
    assert len(h2(cyclic(4), GModule.trivial(cyclic(4), 4))) == 4
    s3_classes = h2(symmetric_3(), GModule.trivial(symmetric_3(), 6))
    assert len(s3_classes) == 2
    assert s3_classes.invariant_factors == (2,)


def test_schur_class_counts():
    for G, count in ((cyclic(3), 1), (cyclic(4), 1), (klein_four(), 2), (symmetric_3(), 1)):
        assert len(schur_classes(G)) == count


def test_class_set_group_structure(v4):
    classes = schur_classes(v4)
    assert classes.invariant_factors == (2,)
    assert classes.index_of(classes.representatives[0]) == 0
    assert classes.add(1, 1) == 0


def test_index_of_ignores_coboundaries(s3, v4):
    for G in (s3, v4):
        classes = schur_classes(G)
        module = classes.representatives[0].module
        for i, rep in enumerate(classes.representatives):
            noise = differential(random_cochain(module, 1, random.Random(i)))
            assert classes.index_of(rep + noise) == i


def test_cohomologous_over_scalars(v4, s3):
    classes = schur_classes(v4)
    if len(classes) > 1:
        assert not cohomologous_over_Cx(classes.representatives[0], classes.representatives[1])
    for G in (v4, s3):
        cs = schur_classes(G)
        rep = cs.representatives[-1]
        shifted = rep + differential(random_cochain(rep.module, 1, random.Random(3)))
        assert cohomologous_over_Cx(rep, shifted)
        # same class expressed at a doubled level
        assert cohomologous_over_Cx(rep, raise_level(rep, rep.level * 2))


def test_restrict_and_pullback(d4):
    classes = schur_classes(d4)
    mu = classes.representatives[-1]
    for P in all_subgroups(d4):
        sub = conjugate_pullback(mu, 0, P)
        assert is_cocycle(sub)
        assert sub.group.order == P.order
    P = generated_subgroup(d4, (1,))
    for g in d4.elements:
        from twochar.groups import conjugate_subgroup

        Q = conjugate_subgroup(d4, g, P)
        moved = conjugate_pullback(conjugate_pullback(mu, 0, Q), g, P)
        assert is_cocycle(moved)
        assert moved.group.order == P.order


def test_pullback_composes(d4):
    # pulling back along g after k equals pulling back along k·g
    classes = schur_classes(d4)
    mu = conjugate_pullback(classes.representatives[-1], 0, generated_subgroup(d4, (1,)))
    P = mu.group.origin
    from twochar.groups import conjugate_subgroup

    for g in d4.elements:
        for k in d4.elements:
            m = d4.mul(k, g)
            inner = conjugate_pullback(mu, k, conjugate_subgroup(d4, d4.inv(k), P))
            twice = conjugate_pullback(inner, g, conjugate_subgroup(d4, d4.inv(m), P))
            once = conjugate_pullback(mu, m, conjugate_subgroup(d4, d4.inv(m), P))
            assert twice == once


def test_normalize_cocycle(s3):
    mu = random_cocycle(GModule.trivial(s3, 6), random.Random(2))
    nm = cochains._normalize(mu)
    assert is_cocycle(nm)
    assert not nm.values[0].any()
    assert not nm.values[:, 0].any()
    assert cohomologous_over_Cx(mu, nm)


@pytest.mark.parametrize("name", ["S3/C2", "D4/C2", "A4/C3"])
def test_normalize_subtracts_the_coboundary_of_the_constant(name):
    """The closed form k(g⁻¹x) equals d of the constant 1-cochain k = c(1,1),
    and a non-cocycle is refused with the first nonzero identity slice of
    c − dk in C order as witness."""
    module = COSET_MODULES[name]()
    rng = random.Random(11)
    for c in [random_cocycle(module, rng) for _ in range(3)] + [random_cochain(module, 2, rng) for _ in range(3)]:
        const = np.broadcast_to(c.values[0, 0], (c.group.order, module.size))
        expect = (c - differential(Cochain(module, 1, const))).values
        slices = expect.copy()
        slices[1:, 1:] = 0
        if not slices.any():
            assert np.array_equal(cochains._normalize(c).values, expect)
            continue
        with pytest.raises(NotACocycle) as info:
            cochains._normalize(c)
        assert info.value.witness == tuple(int(v) for v in np.argwhere(slices)[0])


def test_random_cocycle_is_cocycle():
    for G in GROUPS[:4]:
        for seed in range(3):
            c = random_cocycle(GModule.trivial(G, 4), random.Random(seed))
            assert is_cocycle(c)


def _count_reductions(monkeypatch):
    """Record the shape of every matrix ``cochains`` hands to the SNF, with
    the machine cache emptied so that nothing is reused."""
    shapes = []
    real = cochains.smith_normal_form

    def counting(A, *args, **kwargs):
        shapes.append((len(A), len(A[0]) if len(A) else 0))
        return real(A, *args, **kwargs)

    monkeypatch.setattr(cochains, "smith_normal_form", counting)
    cochains._machine_for.cache_clear()
    return shapes


def test_schur_classes_reduces_d2_once(monkeypatch):
    A4 = from_permutation_generators(4, [(1, 2, 0, 3), (0, 2, 3, 1)], name="A4")
    shapes = _count_reductions(monkeypatch)
    assert schur_classes(A4).invariant_factors == (2,)
    assert shapes.count((2 * 11**2, 11**2)) == 1


def test_is_coboundary_never_reduces_d2(monkeypatch, d4):
    module = GModule.trivial(d4, 8)
    c = differential(random_cochain(module, 1, random.Random(3)))
    shapes = _count_reductions(monkeypatch)
    assert is_coboundary(c) is not None
    assert shapes == [(7**2, 7)]


def test_one_machine_serves_every_level(monkeypatch):
    A4 = from_permutation_generators(4, [(1, 2, 0, 3), (0, 2, 3, 1)], name="A4")
    d1, d2 = (11**2, 11), (2 * 11**2, 11**2)
    shapes = _count_reductions(monkeypatch)
    schur_classes(A4)
    assert shapes.count(d1) == shapes.count(d2) == 1
    seen = len(shapes)
    h2(A4, GModule.trivial(A4, 6))
    c = random_cocycle(GModule.trivial(A4, 6), random.Random(1))
    assert cohomologous_over_Cx(c, raise_level(c, 12 * 12))
    assert d1 not in shapes[seen:] and d2 not in shapes[seen:]
    seen = len(shapes)
    assert h2(A4, GModule.trivial(A4, 4)).invariant_factors == (2,)
    assert h2(A4, GModule.trivial(A4, 24)).invariant_factors == (6,)
    assert len(shapes) == seen                         # no SNF per level
    assert cochains._machine_for.cache_info().misses == 1


def test_schur_classes_of_z2_to_the_fourth():
    # the multiplier (Z/2)^6 has 64 classes; enumerating subgroups of it hung
    gens = [tuple(i ^ 1 if i // 2 == k else i for i in range(8)) for k in range(4)]
    classes = schur_classes(from_permutation_generators(8, gens, name="Z2^4"))
    assert classes.invariant_factors == (2,) * 6
    assert len(classes) == 64
    assert classes.add(5, 5) == 0


# ---------------------------------------------------------------------------
# The level-L² route, kept as an independent oracle for the ℂ^× engine


def _dies_over_Cx(c: Cochain) -> bool:
    """A ℂ^×-valued witness for a level-L cocycle can be scaled into the
    L²-th roots of unity, so c dies over ℂ^× iff it is a coboundary once
    rewritten at level L²."""
    return is_coboundary(raise_level(c, c.level**2)) is not None


def _same_over_Cx(c1: Cochain, c2: Cochain) -> bool:
    M = lcm(c1.level, c2.level)
    return _dies_over_Cx(raise_level(c1, M) - raise_level(c2, M))


def _cx_zero(c: Cochain) -> bool:
    return not any(cochains._cx_coords(c))


def test_cx_coordinates_vanish_exactly_on_level_squared_coboundaries(v4, d4, s3):
    outcomes = set()
    for G in (v4, d4, s3):
        for rep in h2(G, GModule.trivial(G, G.order)).representatives:
            zero = _cx_zero(rep)
            assert zero == _dies_over_Cx(rep)
            outcomes.add(zero)
    assert outcomes == {True, False}


@pytest.mark.parametrize("name", ["v4", "d4", "s3"])
def test_cohomologous_over_Cx_matches_oracle_on_random_pairs(name, request):
    G = request.getfixturevalue(name)
    n = G.order
    rng = random.Random(n)
    for L1, L2 in ((n, n), (n, 2 * n), (2 * n, 2 * n)):
        for _ in range(4):
            c1 = random_cocycle(GModule.trivial(G, L1), rng)
            c2 = random_cocycle(GModule.trivial(G, L2), rng)
            assert cohomologous_over_Cx(c1, c2) == _same_over_Cx(c1, c2)


def test_cohomologous_over_Cx_matches_oracle_on_coinduced_module(d4):
    # D4 acting on the two cosets of a Klein four-subgroup: by Shapiro,
    # H²(D4; ℂ^×[D4/V4]) ≅ H²(V4; ℂ^×) = Z/2
    V = next(P for P in all_subgroups(d4) if P.order == 4 and all(d4.order_of(g) <= 2 for g in P.elements))
    module = shapiro_context(d4, V, GModule.trivial(subgroup_group(V)[0], 8)).coinduced
    assert module.size == 2
    assert cochains._machine(module).cx_factors == (2,)
    rng = random.Random(4)
    outcomes = []
    for _ in range(12):
        c1, c2 = random_cocycle(module, rng), random_cocycle(module, rng)
        same = cohomologous_over_Cx(c1, c2)
        assert same == _same_over_Cx(c1, c2)
        outcomes.append(same)
    assert set(outcomes) == {True, False}


# ---------------------------------------------------------------------------
# Bounds of the ℂ^× coordinates, enforced before the int64 work


def test_cx_coordinates_enforce_bounds(monkeypatch, v4):
    machine = cochains._machine(GModule.trivial(v4, 4))
    flat = np.zeros(machine.m2, dtype=np.int64)
    flat[1] = 1                                       # c(1, 2) = 1, zero elsewhere
    assert not is_cocycle(cochains._embed_norm(GModule.trivial(v4, 4), 2, flat))
    with pytest.raises(NotACocycle):
        machine.cx_coords(flat, 4)
    shapes = _count_reductions(monkeypatch)
    zero = Cochain(GModule.trivial(v4, 2**30), 2, np.zeros((4, 4, 1), dtype=np.int64))
    with pytest.raises(TooLarge):                     # 2^60 · 9 ≥ 2^62
        cohomologous_over_Cx(zero, zero)
    with pytest.raises(TooLarge):
        h2(v4, zero.module)
    assert (18, 9) not in shapes                      # refused before d₂ was reduced


def test_cx_coordinate_bounds_survive_optimize_flag():
    code = (
        "import numpy as np\n"
        "from twochar import cochains\n"
        "from twochar.cochains import Cochain, GModule, cohomologous_over_Cx\n"
        "from twochar.errors import NotACocycle, NotAnAction, TooLarge, WrongWitness\n"
        "from twochar.groups import from_cayley_table\n"
        "v4 = from_cayley_table([[i ^ j for j in range(4)] for i in range(4)], name='V4')\n"
        "machine = cochains._machine(GModule.trivial(v4, 4))\n"
        "flat = np.zeros(machine.m2, dtype=np.int64)\n"
        "flat[1] = 1\n"
        "zero = Cochain(GModule.trivial(v4, 2**30), 2, np.zeros((4, 4, 1), dtype=np.int64))\n"
        "for call in (lambda: machine.cx_coords(flat, 4), lambda: cohomologous_over_Cx(zero, zero)):\n"
        "    try:\n"
        "        call()\n"
        "    except (NotACocycle, TooLarge) as exc:\n"
        "        print(type(exc).__name__)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["NotACocycle", "TooLarge"]


# ---------------------------------------------------------------------------
# Level-free H² and canonical representatives


def _dihedral(n: int):
    return from_permutation_generators(
        n, [tuple((i + 1) % n for i in range(n)), tuple((-i) % n for i in range(n))], name=f"D{n}"
    )


def _a4():
    return from_permutation_generators(4, [(1, 2, 0, 3), (0, 2, 3, 1)], name="A4")


BUNDLED = "z1 z2 z3 z4 z5 z6 z7 z8 v4 s3 d4 q8".split()


def _numbering_free_groups():
    groups = {name: load_group(name, 64) for name in BUNDLED}
    groups["Z2^3"] = from_cayley_table([[i ^ j for j in range(8)] for i in range(8)], name="Z2^3")
    groups["Z4xZ2"] = from_permutation_generators(6, [(1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4)], name="Z4xZ2")
    groups["A4"] = _a4()
    groups["D6"] = _dihedral(6)
    groups["D8"] = _dihedral(8)
    return groups


# Computed with the per-level image-lattice SNF that the level-free
# presentation replaced: (Schur factors, Schur classes, {level: h2 factors})
# at the levels |G|, 2|G|, 6 and 5.
NUMBERING_FREE = {
    "z1": ((), 1, {1: (), 2: (), 6: (), 5: ()}),
    "z2": ((), 1, {2: (2,), 4: (2,), 6: (2,), 5: ()}),
    "z3": ((), 1, {3: (3,), 6: (3,), 5: ()}),
    "z4": ((), 1, {4: (4,), 8: (4,), 6: (2,), 5: ()}),
    "z5": ((), 1, {5: (5,), 10: (5,), 6: ()}),
    "z6": ((), 1, {6: (6,), 12: (6,), 5: ()}),
    "z7": ((), 1, {7: (7,), 14: (7,), 6: (), 5: ()}),
    "z8": ((), 1, {8: (8,), 16: (8,), 6: (2,), 5: ()}),
    "v4": ((2,), 2, {4: (2, 2, 2), 8: (2, 2, 2), 6: (2, 2, 2), 5: ()}),
    "s3": ((), 1, {6: (2,), 12: (2,), 5: ()}),
    "d4": ((2,), 2, {8: (2, 2, 2), 16: (2, 2, 2), 6: (2, 2, 2), 5: ()}),
    "q8": ((), 1, {8: (2, 2), 16: (2, 2), 6: (2, 2), 5: ()}),
    "Z2^3": ((2, 2, 2), 8, {8: (2,) * 6, 16: (2,) * 6, 6: (2,) * 6, 5: ()}),
    "Z4xZ2": ((2,), 2, {8: (2, 2, 4), 16: (2, 2, 4), 6: (2, 2, 2), 5: ()}),
    "A4": ((2,), 2, {12: (6,), 24: (6,), 6: (6,), 5: ()}),
    "D6": ((2,), 2, {12: (2, 2, 2), 24: (2, 2, 2), 6: (2, 2, 2), 5: ()}),
    "D8": ((2,), 2, {16: (2, 2, 2), 32: (2, 2, 2), 6: (2, 2, 2), 5: ()}),
}


def test_invariant_factors_match_the_per_level_presentation():
    for name, G in _numbering_free_groups().items():
        schur, count, levels = NUMBERING_FREE[name]
        sc = schur_classes(G)
        assert (sc.invariant_factors, len(sc)) == (schur, count), name
        for L, factors in levels.items():
            classes = h2(G, GModule.trivial(G, L))
            assert classes.invariant_factors == factors, (name, L)
            assert len(classes) == prod(factors)


def _primes(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


def _chain(cyclic_orders) -> tuple[int, ...]:
    """Invariant factors f > 1 (ascending divisibility) of ⊕ ℤ/n over the
    given orders, from their elementary divisors."""
    powers = {}
    for n in cyclic_orders:
        for p in _primes(n):
            k = 0
            while n % p == 0:
                n, k = n // p, k + 1
            powers.setdefault(p, []).append(p**k)
    width = max(map(len, powers.values()), default=0)
    columns = [sorted(v, reverse=True) + [1] * (width - len(v)) for v in powers.values()]
    return tuple(sorted(prod(col[i] for col in columns) for i in range(width)))


def _abelianization(G) -> tuple[int, ...]:
    """Invariant factors of A = G/[G, G] from the group table alone.  A has
    r_k = log_p |A[p^k]|/|A[p^(k−1)]| cyclic p-factors of order at least
    p^k, and |A[d]| is the number of g with g^d in [G, G] over |[G, G]|."""
    commutators = {G.mul(G.mul(a, b), G.mul(G.inv(a), G.inv(b))) for a in G.elements for b in G.elements}
    N = set(generated_subgroup(G, sorted(commutators)).elements)

    def torsion(d: int) -> int:
        powers = list(G.elements)
        for _ in range(d - 1):
            powers = [G.mul(x, g) for x, g in zip(powers, G.elements)]
        return sum(x in N for x in powers) // len(N)

    elementary = []
    for p in _primes(G.order // len(N)):
        ranks, below = [], 1                       # ranks[k − 1] = r_k
        while (size := torsion(p ** (len(ranks) + 1))) > below:
            ratio, r = size // below, 0
            while ratio > 1:
                ratio, r = ratio // p, r + 1
            ranks.append(r)
            below = size
        ranks.append(0)
        elementary += [p**k for k in range(1, len(ranks)) for _ in range(ranks[k - 1] - ranks[k])]
    return _chain(elementary)


@pytest.mark.parametrize("L", [2, 3, 4, 6, 12, None])
def test_h2_at_a_level_is_the_universal_coefficient_sum(L):
    """H²(G; ℤ/L) ≅ Hom(M(G), ℤ/L) ⊕ Ext(G^ab, ℤ/L) (Brown, III.1); None
    stands for the least prime that does not divide |G|."""
    for name, G in _numbering_free_groups().items():
        level = L or next(p for p in range(2, G.order + 2) if G.order % p and _primes(p) == [p])
        schur = schur_classes(G).invariant_factors
        expect = _chain([gcd(m, level) for m in schur] + [gcd(a, level) for a in _abelianization(G)])
        assert h2(G, GModule.trivial(G, level)).invariant_factors == expect, (name, level)


@pytest.mark.parametrize("name", ["S3", "D4", "A4"])
def test_h2_with_coset_coefficients_is_h2_of_the_stabilizer(name):
    """Shapiro's lemma: H²(G; ℤ/L[G/Q]) ≅ H²(Q; ℤ/L)."""
    G = {"S3": symmetric_3, "D4": dihedral_4, "A4": _a4}[name]()
    for Q in all_subgroups(G):
        if (G.order - 1) ** 2 * (G.order // Q.order) > 500:
            continue                               # keep d₂ small: A4 mod C2 and 1 are skipped
        qgrp = subgroup_group(Q)[0]
        for L in (2, 4, 6):
            cosets = shapiro_context(G, Q, GModule.trivial(qgrp, L)).coinduced
            expect = h2(qgrp, GModule.trivial(qgrp, L)).invariant_factors
            assert h2(G, cosets).invariant_factors == expect, (Q.elements, L)


# Representative 1 of ``h2 v4`` and ``h2 d4`` as the per-level presentation
# printed it, before representatives were reduced
OLD_REPRESENTATIVE_1 = {
    "v4": [0, 0, 0, 0, 0, 2, 0, 2, 0, 2, 0, 2, 0, 0, 0, 0],
    "d4": [
        0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 7, 6, 0, 4, 5, 5, 0, 6, 4, 6, 2, 6, 2, 6, 0, 6, 2, 6, 0, 6, 0, 4,
        0, 3, 5, 4, 0, 4, 3, 5, 0, 5, 3, 2, 0, 2, 7, 5, 0, 5, 1, 0, 6, 0, 7, 5, 0, 2, 2, 0, 0, 2, 0, 2,
    ],
}


@pytest.mark.parametrize("name", ["v4", "d4"])
def test_old_representatives_lie_in_the_new_classes(name):
    G = load_group(name, 64)
    sc = schur_classes(G)
    old = Cochain(sc.module, 2, np.array(OLD_REPRESENTATIVE_1[name]).reshape(G.order, G.order, 1))
    assert cohomologous_over_Cx(old, sc.representatives[1])
    assert not cohomologous_over_Cx(old, sc.representatives[0])
    assert sc.index_of(old) == 1


def _random_unimodular(n: int, rng) -> np.ndarray:
    U = np.eye(n, dtype=object)
    for _ in range(4 * n):
        i, j = rng.sample(range(n), 2)
        U[i] += rng.randint(-3, 3) * U[j]
        U[[i, j]] = U[[j, i]]
    return U


def _lattices(G):
    """(L, rows of K, rows of K_L) for trivial coefficients at level L = |G|:
    K = ker d₂ + Lℤ^{m₂} for ℂ^× classes, K_L = im d₁ + Lℤ^{m₂}."""
    L = G.order
    machine = cochains._machine(GModule.trivial(G, L))
    r = len(machine._diag2)
    return L, machine.snf2._mod("V", L)[:, r:].T, machine.D1.T


@pytest.mark.parametrize("name", ["v4", "d4", "s3", "a4"])
def test_hermite_form_does_not_depend_on_the_generators(name, request):
    G = _a4() if name == "a4" else request.getfixturevalue(name)
    L, K, K_L = _lattices(G)
    rng = random.Random(G.order)
    for gens in (K, K_L):
        mixed = (_random_unimodular(len(gens), rng) @ gens.astype(object)) % L
        assert np.array_equal(hermite_mod(mixed.astype(np.int64), L), hermite_mod(gens, L))


@pytest.mark.parametrize("name", ["v4", "d4", "s3", "a4"])
def test_representatives_are_canonical(name, request):
    G = _a4() if name == "a4" else request.getfixturevalue(name)
    L, K, K_L = _lattices(G)
    rng = random.Random(L)
    for classes, lattice in ((h2(G, GModule.trivial(G, L)), K_L), (schur_classes(G), K)):
        H = hermite_mod(lattice, L)
        flats = [_ix_norm_flat(rep).tolist() for rep in classes.representatives]
        assert not any(flats[0])
        assert flats == sorted(flats) and len({tuple(f) for f in flats}) == len(flats)
        for i, rep in enumerate(classes.representatives):
            pi = random_cochain(rep.module, 1, rng).values.copy()
            pi[0] = 0                                  # dπ is normalized
            moved = rep + differential(Cochain(rep.module, 1, pi))
            lifted = _ix_norm_flat(moved).copy()
            lifted[rng.randrange(len(lifted))] += L
            assert hermite_reduce(H, lifted, L).tolist() == flats[i]
            assert classes.index_of(moved) == i


def test_query_path_skips_the_degree_3_cocycle_test(monkeypatch, v4):
    classes, sc = h2(v4, GModule.trivial(v4, 4)), schur_classes(v4)
    c = random_cocycle(GModule.trivial(v4, 4), random.Random(5))
    calls = []
    real = cochains.is_cocycle
    monkeypatch.setattr(cochains, "is_cocycle", lambda x: calls.append(x) or real(x))
    classes.index_of(c)
    sc.index_of(c)
    cohomologous_over_Cx(c, c)
    is_coboundary(c)
    assert calls == []


def test_query_path_rejects_non_cocycles(v4):
    classes, sc = h2(v4, GModule.trivial(v4, 4)), schur_classes(v4)
    values = np.zeros((4, 4, 1), dtype=np.int64)
    values[0, 1, 0] = 1                        # c(1, g) ≠ c(1, 1)
    with pytest.raises(NotACocycle) as info:
        sc.index_of(Cochain(GModule.trivial(v4, 4), 2, values))
    assert info.value.witness == (0, 1, 0)
    values[0, 1, 0], values[1, 2, 0] = 0, 1    # normalized, but dc ≠ 0
    c = Cochain(GModule.trivial(v4, 4), 2, values)
    # the witness is the first nonzero row of dc with g₁ in S, in C order
    S = cochains._generating_set(v4)
    s, h, k, x = (int(v) for v in np.argwhere(differential(c).values[list(S)])[0])
    assert (S[s], h, k, x) == (1, 1, 2, 0)
    for index_of in (classes.index_of, sc.index_of, lambda c: cohomologous_over_Cx(c, c)):
        with pytest.raises(NotACocycle) as info:
            index_of(c)
        assert info.value.witness == (S[s], h, k, x)


# ---------------------------------------------------------------------------
# Generator-row d₂: the rows whose first argument is a generator


def _coset_module(G, order: int) -> GModule:
    """G acting on the cosets of its first subgroup of the given order."""
    P = next(P for P in all_subgroups(G) if P.order == order)
    return shapiro_context(G, P, GModule.trivial(subgroup_group(P)[0], G.order)).coinduced


COSET_MODULES = {
    "S3/C2": lambda: _coset_module(symmetric_3(), 2),
    "D4/C2": lambda: _coset_module(dihedral_4(), 2),
    "A4/C3": lambda: _coset_module(_a4(), 3),
}


@pytest.mark.parametrize("name", BUNDLED + list(COSET_MODULES))
def test_generator_rows_span_the_rows_of_d2(name):
    if name in COSET_MODULES:
        module = COSET_MODULES[name]()
    else:
        G = load_group(name)
        module = GModule.trivial(G, G.order)
    G = module.group
    machine = cochains._machine(module)
    assert generated_subgroup(G, machine.gens).order == G.order
    full = cochains._normalized_boundary(module, 2)
    diag = [d for d in smith_normal_form(full, want_u=False, want_v=False).diag if d]
    assert diag == [d for d in machine.snf2.diag if d]
    r = len(diag)
    V = np.array(machine.snf2.V, dtype=np.int64).reshape(machine.m2, machine.m2)
    # y is an integer combination of the kept rows D′ = U′⁻¹·S·V⁻¹ iff yV
    # is zero past r and divisible by d_i before it
    Y = full @ V
    assert not Y[:, r:].any()
    assert not (Y[:, :r] % np.array(diag, dtype=np.int64)).any()


# ---------------------------------------------------------------------------
# The cocycle guard on the rows whose first argument is 1 or a generator


def _guard_modules():
    G = symmetric_3()
    return [GModule.trivial(G, 6)] + [make() for make in COSET_MODULES.values()]


@pytest.mark.parametrize("module", _guard_modules(), ids=["S3"] + list(COSET_MODULES))
def test_restricted_faces_are_the_rows_of_the_differential(module):
    G, rng = module.group, random.Random(module.size)
    for degree in (0, 1, 2):
        c = random_cochain(module, degree, rng)
        full = differential(c).values
        for k in range(1, G.order + 1):
            rows = rng.sample(G.elements, k)
            part = cochains._face_sum(c, rows)
            assert part.tobytes() == np.ascontiguousarray(full[rows]).tobytes(), (degree, rows)


@pytest.mark.parametrize("module", [GModule.trivial(symmetric_3(), 6), COSET_MODULES["D4/C2"]()], ids=["S3", "D4/C2"])
def test_guard_refuses_every_single_entry_fault_the_differential_sees(module):
    c = random_cocycle(module, random.Random(7))
    assert is_cocycle(c)
    refused = 0
    for pos in np.ndindex(c.values.shape):
        values = c.values.copy()
        values[pos] += 1
        bad = Cochain(module, 2, values)
        assert is_cocycle(bad) == differential(bad).is_zero(), pos
        refused += not is_cocycle(bad)
    assert refused == c.values.size


@pytest.mark.parametrize("module", [GModule.trivial(symmetric_3(), 6), COSET_MODULES["D4/C2"]()], ids=["S3", "D4/C2"])
def test_is_coboundary_refuses_exactly_the_faults_is_cocycle_refuses(module):
    c = random_cocycle(module, random.Random(7))
    S = list(cochains._generating_set(module.group))
    for pos in np.ndindex(c.values.shape):
        values = c.values.copy()
        values[pos] += 1
        bad = Cochain(module, 2, values)
        try:
            witness = is_coboundary(bad)
        except NotACocycle as exc:
            assert not is_cocycle(bad), pos
            if 0 in pos[:2]:            # an identity slice survives normalizing
                with pytest.raises(NotACocycle) as info:
                    cochains._normalize(bad)
                assert exc.witness == info.value.witness, pos
            else:                       # the first nonzero generator row of dc
                s, h, k, x = (int(v) for v in np.argwhere(differential(bad).values[S])[0])
                assert exc.witness == (S[s], h, k, x), pos
            continue
        assert is_cocycle(bad), pos
        assert witness is None or differential(witness) == bad


def test_is_coboundary_refusal_survives_optimize_flag():
    code = (
        "import numpy as np\n"
        "from twochar.cochains import Cochain, GModule, is_coboundary\n"
        "from twochar.errors import NotACocycle\n"
        "from twochar.groups import load_group\n"
        "module = GModule.trivial(load_group('v4'), 4)\n"
        "for pos in ((0, 1, 0), (1, 2, 0)):\n"
        "    values = np.zeros((4, 4, 1), dtype=np.int64)\n"
        "    values[pos] = 1\n"
        "    try:\n"
        "        is_coboundary(Cochain(module, 2, values))\n"
        "    except NotACocycle as exc:\n"
        "        print(type(exc).__name__, *exc.witness)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["NotACocycle 0 1 0", "NotACocycle 1 1 2 0"]


def test_guard_passes_a_cocycle_that_is_not_normalized(d4):
    module = GModule.trivial(d4, 8)
    mu = h2(d4, module).representatives[-1]
    pi = random_cochain(module, 1, random.Random(2)).values.copy()
    pi[0] = 3
    c = mu + differential(Cochain(module, 1, pi))
    assert c.values[0].any() and c.values[:, 0].any()
    assert is_cocycle(c)


# ---------------------------------------------------------------------------
# The class read against the dense route it replaced: w = V₂⁻¹x mod L from a
# dense copy of V₂⁻¹, the cocycle test read as L | d_i·w_i for i < r


class _DenseRead:
    """The dense route at level L: every row of V₂⁻¹ and U_B, mod L."""

    def __init__(self, machine, L: int):
        self.machine, self.L = machine, L
        self.Vinv = (np.array(machine.snf2.Vinv, dtype=object).reshape(machine.m2, machine.m2) % L).astype(np.int64)
        rows = machine.m2 - len(machine._diag2)
        self.U = (np.array(machine.snfB.U, dtype=object).reshape(rows, rows) % L).astype(np.int64)

    def w(self, flat):
        """V₂⁻¹x mod L, or None if L ∤ d_i·w_i for some i < r."""
        L, d = self.L, self.machine._diag2
        w = self.Vinv @ (np.asarray(flat, dtype=np.int64) % L) % L
        return None if (d * w[: len(d)] % L).any() else w

    def cx(self, flat):
        w, d = self.w(flat), self.machine._diag2
        return None if w is None else tuple(int(v) for v in (d * w[: len(d)])[d > 1] // self.L % d[d > 1])

    def level(self, flat):
        w, d, L = self.w(flat), self.machine._diag2, self.L
        if w is None:
            return None
        ks, orders, _ = self.machine.level_classes(L)
        y = np.concatenate([w[: len(d)] * np.gcd(d, L) // L, self.U @ w[len(d):] % L])[list(ks)]
        return tuple(int(v) for v in y % orders)


def _sparse_read(read, flat, L):
    """The coordinates ``read`` gives, or None if it refuses with NotACocycle."""
    try:
        return read(flat, L)
    except NotACocycle:
        return None


READ_MODULES = BUNDLED + ["A4", "D6", "D8"] + list(COSET_MODULES)


def _read_module(name: str) -> GModule:
    if name in COSET_MODULES:
        return COSET_MODULES[name]()
    G = _numbering_free_groups()[name]
    return GModule.trivial(G, G.order)


@pytest.mark.parametrize("name", READ_MODULES)
def test_class_read_matches_the_dense_route(name):
    base = _read_module(name)
    G, rng = base.group, random.Random(name)
    for L in (G.order, 2, 6, 12):
        module = base.at_level(L)
        machine, classes = cochains._machine(module), h2(G, module)
        dense = _DenseRead(machine, L)
        for _ in range(3):
            c = random_cocycle(module, rng)
            flat = _ix_norm_flat(cochains._normalize(c))
            cx, level = machine.cx_coords(flat, L), machine.level_coords(flat, L)
            assert (cx, level) == (dense.cx(flat), dense.level(flat)), L
            assert classes.coordinates[classes.index_of(c)] == level
            assert cochains._cx_coords(c) == cx
            noise = np.array([rng.randrange(L) for _ in range(machine.m2)], dtype=np.int64)
            assert _sparse_read(machine.cx_coords, noise, L) == dense.cx(noise)
            assert _sparse_read(machine.level_coords, noise, L) == dense.level(noise)


@pytest.mark.parametrize("name", READ_MODULES)
def test_class_read_refuses_exactly_the_faults_the_dense_route_refuses(name):
    module = _read_module(name)
    L = module.level
    machine, S = cochains._machine(module), cochains._generating_set(module.group)
    dense = _DenseRead(machine, L)
    flat = _ix_norm_flat(cochains._normalize(random_cocycle(module, random.Random(name))))
    refused = 0
    for i in range(machine.m2):
        bad = flat.copy()
        bad[i] = (bad[i] + 1) % L
        for read, ref in ((machine.cx_coords, dense.cx), (machine.level_coords, dense.level)):
            assert _sparse_read(read, bad, L) == ref(bad), i
        if dense.w(bad) is None:
            refused += 1
            with pytest.raises(NotACocycle) as info:
                machine.cx_coords(bad, L)
            d = differential(cochains._embed_norm(module, 2, bad)).values[list(S)]
            s, h, k, x = (int(v) for v in np.argwhere(d)[0])
            assert info.value.witness == (S[s], h, k, x)
    # a fault at x_i is refused exactly when column i of d₂ is nonzero mod L
    D = cochains._normalized_boundary(module, 2, S)
    assert refused == int((D % L).any(axis=0).sum())


@pytest.mark.parametrize("module", _guard_modules(), ids=["S3"] + list(COSET_MODULES))
def test_gathered_normalization_matches_normalize(module):
    machine, rng, L = cochains._machine(module), random.Random(9), module.level
    for c in [random_cocycle(module, rng) for _ in range(3)] + [random_cochain(module, 2, rng) for _ in range(3)]:
        try:
            expect = _ix_norm_flat(cochains._normalize(c))
        except NotACocycle as exc:
            with pytest.raises(NotACocycle) as info:
                machine.normalized_flat(c)
            assert info.value.witness == exc.witness
            continue
        got = machine.normalized_flat(c)
        assert got.min() > -L and got.max() < L
        assert np.array_equal(got % L, expect)


def test_class_readers_are_built_on_the_first_read_and_kept_for_a_few_levels(d4):
    module = GModule.trivial(d4, 8)
    machine = cochains._machine(module)
    machine._level_readers.clear()               # the machine is shared with other tests
    machine._cx_readers.clear()
    classes, sc = h2(d4, module), schur_classes(d4)
    assert machine._level_readers == machine._cx_readers == {}
    c = classes.representatives[-1]
    classes.index_of(c)
    assert 8 in machine._level_readers and 8 not in machine._cx_readers
    sc.index_of(c)
    assert 8 in machine._cx_readers
    for L in range(2, 3 * MOD_LEVELS):
        cochains._cx_coords(raise_level(c, 8 * L))
    assert len(machine._cx_readers) == MOD_LEVELS


def test_dihedral_group_of_order_32_is_in_bounds():
    assert schur_classes(_dihedral(16)).invariant_factors == (2,)


def _z2_to_the_sixth():
    return from_cayley_table([[i ^ j for j in range(64)] for i in range(64)], name="Z2^6")


def test_order_64_is_refused_before_any_matrix_is_built(monkeypatch):
    shapes = _count_reductions(monkeypatch)
    built = []
    real = cochains._normalized_boundary
    monkeypatch.setattr(cochains, "_normalized_boundary", lambda *a: built.append(a) or real(*a))
    for G in (_z2_to_the_sixth(), cyclic(64)):
        with pytest.raises(TooLarge):
            schur_classes(G)
    assert shapes == [] and built == []


def test_order_64_is_exit_3_under_optimize_flag(tmp_path):
    path = tmp_path / "z2_6.json"
    path.write_text(json.dumps({"name": "Z2^6", "cayley": [[i ^ j for j in range(64)] for i in range(64)]}))
    code = f"from twochar.cli import main\nraise SystemExit(main(['h2', {str(path)!r}]))\n"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 3, out.stderr
    assert "bound exceeded" in out.stderr


# ---------------------------------------------------------------------------
# Typed guard on the coboundary witness


def _off_by_one(real):
    def wrong(snf, b, L):
        sol = real(snf, b, L)
        return None if sol is None else [(sol[0] + 1) % L] + list(sol[1:])
    return wrong


def test_wrong_coboundary_witness_is_a_typed_error(monkeypatch, d4):
    c = differential(random_cochain(GModule.trivial(d4, 8), 1, random.Random(3)))
    monkeypatch.setattr(cochains, "solve_mod", _off_by_one(cochains.solve_mod))
    with pytest.raises(WrongWitness) as info:
        is_coboundary(c)
    g, h, x = info.value.witness
    assert 1 in (g, h) and x == 0                      # π(1) is the value that moved


def test_wrong_coboundary_witness_survives_optimize_flag():
    code = (
        "import random\n"
        "from twochar import cochains\n"
        "from twochar.cochains import GModule, differential, is_coboundary, random_cochain\n"
        "from twochar.errors import WrongWitness\n"
        "from twochar.groups import load_group\n"
        "real = cochains.solve_mod\n"
        "def wrong(snf, b, L):\n"
        "    sol = real(snf, b, L)\n"
        "    return [(sol[0] + 1) % L] + list(sol[1:])\n"
        "cochains.solve_mod = wrong\n"
        "d4 = load_group('d4')\n"
        "c = differential(random_cochain(GModule.trivial(d4, 8), 1, random.Random(3)))\n"
        "try:\n"
        "    is_coboundary(c)\n"
        "except WrongWitness as exc:\n"
        "    print(type(exc).__name__, len(exc.witness))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["WrongWitness", "3"]


# ---------------------------------------------------------------------------
# Bounded cache of int64 transform copies


def test_transform_copies_are_kept_for_a_few_levels(d4):
    sc = schur_classes(d4)
    levels = [8 * k for k in range(1, 21)]
    answers = [[sc.index_of(raise_level(rep, L)) for rep in sc.representatives] for L in levels]
    assert answers == [list(range(len(sc)))] * 20
    cache = cochains._machine(sc.module).snf2._mod_cache
    assert len(cache) <= MOD_LEVELS
    assert all(list(copies) == ["V"] for copies in cache.values())    # no dense V⁻¹
    assert [sc.index_of(raise_level(rep, 8)) for rep in sc.representatives] == answers[0]


def test_solve_readers_are_kept_for_a_few_levels(d4):
    c = differential(random_cochain(GModule.trivial(d4, 8), 1, random.Random(3)))
    for k in range(1, 21):
        moved = raise_level(c, 8 * k)
        assert differential(is_coboundary(moved)) == moved
    cache = cochains._machine(c.module).snf1._mod_cache
    assert len(cache) <= MOD_LEVELS
    assert all(list(copies) == ["solve"] for copies in cache.values())    # no dense U


# ---------------------------------------------------------------------------
# The degree-2 path without repeated work: level classes kept per level, one
# flat index for normalized coordinates, trusted constructions, and one
# Schur class set per group


CORPUS = ("Z2^3", "Z4xZ2", "A4", "D6", "D8")

# sha256 over the two SNFs the H² machine of the trivial module computes:
# the generator-row d₂ (diag, V, V⁻¹) and B (diag, U, U⁻¹)
MACHINE_DIGESTS = {
    "D8": (
        "dff77e586eaaa8183c9fd7b5556f9f866ce690216b8e831c465d357974cc47b7",
        "57e80c4e05219bb0d57e4a3686dbc7a74566772dd80dd05e279a66135e4d6cab",
    ),
    "Z2^3": (
        "7ccaea9be51cc18d77667d21432c8d5e4fa8dc040f14de7522dd9f4a24270f2d",
        "6bf1b6b47caab700bb39f36fb8b9afe89cb4ad7b88018794b6c670cd0cd48bf3",
    ),
    "Z4xZ2": (
        "3703f5314f1474b5a70e0adc88ad5893585eea7250f99651e80140b1b1531438",
        "5676b30f82f864698ddebdcfac1ed4028fa559d26df5006dc8fc380547848ee6",
    ),
    "A4": (
        "9e6d4e7026e430685a37ccf1fb084d112fcc1c027935293174c8f499eb82a7c9",
        "04896cc50b066a211193109091230a84d3d165fa1254728c54c82c907083334d",
    ),
    "D6": (
        "9ef90470c182fe9a222dc23712059e1cde6029de19b5becd68dd20266dcc236c",
        "03025235d8d5a21e22d1417d0f03e3c4ab06eb55d0ff85586c55099d14ee3042",
    ),
}


def _sha(*parts) -> str:
    return hashlib.sha256(json.dumps(parts, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("name", CORPUS)
def test_machine_transforms_match_pinned_digests(name):
    G = _numbering_free_groups()[name]
    machine = cochains._machine(GModule.trivial(G, G.order))
    d2, B = machine.snf2, machine.snfB
    assert (_sha(d2.diag, d2.V, d2.Vinv), _sha(B.diag, B.U, B.Uinv)) == MACHINE_DIGESTS[name]


def _uncached_level_classes(machine, L):
    """``level_classes`` recomputed from scratch, with the full tail product."""
    d, e, r = machine._diag2, machine.snfB.diag, len(machine._diag2)
    orders = [gcd(int(v), L) for v in d] + [gcd(v, L) for v in e] + [L] * (machine.m2 - r - len(e))
    ks = [k for k, o in enumerate(orders) if o > 1]
    V = machine.snf2._mod("V", L)
    tail = V[:, r:] @ machine.snfB._mod("Uinv", L) % L
    gens = [V[:, k] * (L // orders[k]) % L if k < r else tail[:, k - r] for k in ks]
    return ks, [orders[k] for k in ks], np.array(gens, dtype=np.int64).reshape(len(ks), machine.m2)


@pytest.mark.parametrize("name", CORPUS)
def test_level_classes_are_kept_per_level(name):
    G = _numbering_free_groups()[name]
    machine = cochains._machine(GModule.trivial(G, G.order))
    coprime = next(p for p in (5, 7, 11) if G.order % p)
    for L in (G.order, 2 * G.order, coprime):
        got = machine.level_classes(L)
        ks, orders, gens = got
        ref_ks, ref_orders, ref_gens = _uncached_level_classes(machine, L)
        assert (list(ks), list(orders)) == (ref_ks, ref_orders)
        assert gens.dtype == np.int64 and np.array_equal(gens, ref_gens)
        assert not gens.flags.writeable
        assert machine.level_classes(L) is got
    assert machine.level_classes(coprime)[0] == ()
    for L in range(2, 3 * MOD_LEVELS):
        machine.level_classes(L)
    assert len(machine._classes) == MOD_LEVELS


def _ix_norm_flat(c: Cochain) -> np.ndarray:
    n = c.degree
    return (c.values[np.ix_(*([range(1, c.group.order)] * n))] if n else c.values).reshape(-1)


def _ix_embed_norm(module: GModule, degree: int, flat) -> Cochain:
    m, X = module.group.order, module.size
    out = np.zeros((m,) * degree + (X,), dtype=np.int64)
    if degree:
        out[np.ix_(*([range(1, m)] * degree))] = np.asarray(flat).reshape((m - 1,) * degree + (X,))
    else:
        out[:] = np.asarray(flat).reshape(X)
    return Cochain(module, degree, out)


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_normalized_coordinates_match_the_index_grid(degree, d4):
    rng = random.Random(degree)
    for module in (GModule.trivial(d4, 8), GModule.permutation(d4, d4.table, 6), COSET_MODULES["D4/C2"]()):
        c = random_cochain(module, degree, rng)
        flat = [rng.randrange(module.level) for _ in range((d4.order - 1) ** degree * module.size)]
        embedded = cochains._embed_norm(module, degree, flat)
        assert embedded == _ix_embed_norm(module, degree, flat)
        assert _ix_norm_flat(embedded).tolist() == flat


def _reference_random_cocycle(module: GModule, rng) -> Cochain:
    """``random_cocycle`` as one embed and one addition per class generator."""
    _, _, gens = cochains._machine(module).level_classes(module.level)
    out = differential(random_cochain(module, 1, rng))
    for gen in gens:
        k = rng.randrange(module.level)
        out = out + _ix_embed_norm(module, 2, (k * gen) % module.level)
    return out


@pytest.mark.parametrize("name", CORPUS)
def test_random_cocycle_continues_the_reference_stream(name):
    G = _numbering_free_groups()[name]
    for L in (G.order, 2 * G.order):
        module = GModule.trivial(G, L)
        for seed in range(3):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert random_cocycle(module, rng) == _reference_random_cocycle(module, ref)
            assert rng.getstate() == ref.getstate()


def _assert_as_public(c: Cochain):
    """Values equal to those the public constructor gives, and its invariants."""
    assert c == Cochain(c.module, c.degree, c.values)
    assert c.values.dtype == np.int64 and c.values.flags.c_contiguous and not c.values.flags.writeable


def test_trusted_constructions_equal_the_public_constructor(d4):
    from twochar.shapiro import homotopy_varpi, phi, psi

    rng = random.Random(14)
    for module in (GModule.trivial(d4, 8), GModule.permutation(d4, d4.table, 6)):
        for degree in (0, 1, 2):
            c = random_cochain(module, degree, rng)
            _assert_as_public(c)
            _assert_as_public(differential(c))
            flat = [rng.randrange(module.level) for _ in range((d4.order - 1) ** degree * module.size)]
            _assert_as_public(cochains._embed_norm(module, degree, flat))
    for P in all_subgroups(d4):
        ctx = shapiro_context(d4, P, GModule.trivial(subgroup_group(P)[0], 6))
        for degree in (0, 1, 2):
            theta = random_cochain(ctx.coinduced, degree, rng)
            _assert_as_public(psi(ctx, random_cochain(ctx.M, degree, rng)))
            _assert_as_public(phi(ctx, theta))
            if degree:
                _assert_as_public(homotopy_varpi(ctx, theta))


def test_public_constructor_still_reduces_and_checks_the_shape(v4):
    module = GModule.trivial(v4, 4)
    assert Cochain(module, 1, [[-1], [5], [4], [7]]).values.reshape(-1).tolist() == [3, 1, 0, 3]
    with pytest.raises(ValueError):
        Cochain(module, 2, np.zeros((4, 4), dtype=np.int64))


def test_schur_classes_are_built_once_per_group(d4):
    from twochar.groups import full_subgroup

    sc = schur_classes(d4)
    assert schur_classes(d4) is sc
    for rep in sc.representatives:
        assert not rep.values.flags.writeable
        with pytest.raises(ValueError):
            rep.values[1, 1, 0] = 1
    # equal tables share a machine, but the representatives carry their own group
    twin = from_cayley_table(d4.table.tolist(), name="twin")
    relabeled = subgroup_group(full_subgroup(d4))[0]
    assert twin == d4 == relabeled
    for H in (twin, relabeled):
        own = schur_classes(H)
        assert own is not sc and schur_classes(H) is own
        assert own.representatives == sc.representatives
        assert all(rep.group is H for rep in own.representatives)
