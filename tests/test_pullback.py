"""Decoration classes moved as Schur coordinates: ``reps.pullback_map``.

The map is checked class by class against the cochain route it replaces
(conjugate_pullback + index_of), and ``tensor`` against a cochain-level
reference: the decorated double-coset sum as it was computed before class
coordinates, with its own normalizer minimum over cochains.
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import dihedral_4, quaternion_8, symmetric_3
from twochar import cochains, reps
from twochar.burnside import basis
from twochar.cochains import Cochain, GModule, conjugate_pullback, raise_level, random_cochain
from twochar.errors import NotContained
from twochar.groups import (
    Subgroup,
    all_subgroups,
    double_cosets,
    from_permutation_generators,
    group_from_json,
    normalizer,
    subgroup_group,
)
from twochar.reps import Orbit, Rep2, _class_reps, _orbit_key, linear_classes, pullback_map, tensor

Z4xZ2 = group_from_json({"name": "Z4xZ2", "degree": 6, "generators": [[1, 2, 3, 0, 4, 5], [0, 1, 2, 3, 5, 4]]})
Z2_3 = group_from_json({"name": "Z2^3", "cayley": [[i ^ j for j in range(8)] for i in range(8)]})
# the swap of Z3²⋊C2 inverts H²(Z3²; ℂ^×) = ℤ/3, so conjugation moves a class
Z3SQ_C2 = group_from_json(json.loads((Path(__file__).resolve().parent / "data" / "z3sq_c2.json").read_text()))
# S4 is the smallest group here where a double coset's conjugator x⁻¹c and
# its mirror c·x⁻¹ send a stabilizer to different subgroups
S4 = from_permutation_generators(4, [(1, 2, 3, 0), (1, 0, 2, 3)], name="S4")
GROUPS = [symmetric_3(), dihedral_4(), quaternion_8(), Z4xZ2, Z2_3, Z3SQ_C2, S4]


def _conjugators(G, A, B):
    """Every g with g·B·g⁻¹ ⊆ A."""
    members = frozenset(A.elements)
    return [g for g in G.elements if all(G.conj(g, b) in members for b in B.elements)]


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.name)
def test_pullback_map_matches_the_cochain_pullback_on_every_class(G):
    checked = 0
    for A in all_subgroups(G):
        sa = linear_classes(A)
        for B in all_subgroups(G):
            sb = linear_classes(B)
            for g in _conjugators(G, A, B):
                expect = tuple(sb.index_of(conjugate_pullback(rep, g, B)) for rep in sa.representatives)
                assert pullback_map(A, g, B) == expect, (A, g, B)
                checked += len(expect)
    assert checked > 0


def test_pullback_map_refuses_a_conjugator_that_leaves_the_target():
    G = symmetric_3()
    A, B = [P for P in all_subgroups(G) if P.order == 2][:2]
    assert len(linear_classes(A)) == 1  # no class to pull back as a cochain
    with pytest.raises(NotContained) as info:
        pullback_map(A, 0, B)
    assert info.value.witness == B.elements[1]


def _ix_pullback(c, x, P):
    """``conjugate_pullback`` as it was: the index rebuilt by a loop, one
    ``np.ix_`` gather."""
    Q = cochains._ambient(c)
    _, q_to_sub, _ = subgroup_group(Q)
    p_grp, _, p_els = subgroup_group(P)
    mapped = np.array([int(q_to_sub[Q.parent.conj(x, p)]) for p in p_els], dtype=np.int64)
    vals = c.values[np.ix_(*([mapped] * c.degree))] if c.degree else c.values
    return Cochain(GModule(p_grp, c.level, c.module.action[mapped]), c.degree, vals)


@pytest.mark.parametrize("G", GROUPS[:3], ids=lambda G: G.name)
def test_conjugate_pullback_matches_the_ix_gather(G):
    rng = random.Random(G.order)
    for Q in all_subgroups(G):
        grp = subgroup_group(Q)[0]
        for degree in (0, 1, 2):
            c = random_cochain(GModule.trivial(grp, 6), degree, rng)
            for x in G.elements:
                for P in all_subgroups(G):
                    if all(G.conj(x, p) in Q.elements for p in P.elements):
                        got = conjugate_pullback(c, x, P)
                        assert got == _ix_pullback(c, x, P) and not got.values.flags.writeable


def test_conjugate_pullback_caches_its_index_but_not_a_refusal():
    G = symmetric_3()
    A, B = [P for P in all_subgroups(G) if P.order == 2][:2]
    mu = linear_classes(A).representatives[0]
    conjugate_pullback(mu, 0, A)
    before = cochains._pullback_index.cache_info()
    conjugate_pullback(mu, 0, A)
    assert cochains._pullback_index.cache_info().hits == before.hits + 1
    for _ in range(2):
        with pytest.raises(NotContained) as info:
            conjugate_pullback(mu, 0, B)
        assert info.value.witness == B.elements[1]
    assert cochains._pullback_index.cache_info().currsize == before.currsize


def _reference_normalizer_min(P0):
    sc = linear_classes(P0)
    best = list(range(len(sc)))
    for n in normalizer(P0.parent, P0).elements:
        for i, rep in enumerate(sc.representatives):
            best[i] = min(best[i], sc.index_of(conjugate_pullback(rep, n, P0)))
    return best


def _reference_tensor(r, s):
    """Restrict, pull back and add the decorations as cochains at a common
    level, then canonicalize each term through cochains."""
    G = r.group
    orbits = []
    for o1 in r.orbits:
        P, mu = o1.subgroup, o1.cocycle
        for o2 in s.orbits:
            Q, nu = o2.subgroup, o2.cocycle
            M = math.lcm(mu.level, nu.level)
            mu_M, nu_M = raise_level(mu, M), raise_level(nu, M)
            for coset in double_cosets(G, P, Q):
                x = coset[0]
                conj_Q = {G.conj(x, q) for q in Q.elements}
                J = Subgroup(G, tuple(sorted(set(P.elements) & conj_Q)))
                t = conjugate_pullback(mu_M, 0, J) + conjugate_pullback(nu_M, G.inv(x), J)
                P0, c = _class_reps(G)[J]
                i = linear_classes(P0).index_of(conjugate_pullback(t, c, P0))
                orbits.append(Orbit(P0, _reference_normalizer_min(P0)[i]))
    return Rep2(G, tuple(sorted(orbits, key=_orbit_key)))


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.name)
def test_tensor_matches_the_cochain_reference_on_every_pair_of_basis_pairs(G):
    pairs = basis(G)
    for a in pairs:
        for b in pairs:
            r, s = Rep2(G, (a,)), Rep2(G, (b,))
            assert tensor(r, s) == _reference_tensor(r, s), (a, b)


def test_warm_tensor_builds_no_cochain(monkeypatch):
    G = dihedral_4()
    pairs = basis(G)
    products = {(a, b): tensor(Rep2(G, (a,)), Rep2(G, (b,))) for a in pairs for b in pairs}

    def refuse(*args, **kwargs):
        raise AssertionError("conjugate_pullback ran on warm maps")

    monkeypatch.setattr(cochains, "conjugate_pullback", refuse)
    monkeypatch.setattr(reps, "conjugate_pullback", refuse)
    for (a, b), product in products.items():
        assert tensor(Rep2(G, (a,)), Rep2(G, (b,))) == product


_MISSES = (
    "import json, sys\n"
    "from twochar import burnside, reps\n"
    "from twochar.characters import char_table, char_table_to_json\n"
    "from twochar.groups import group_from_json\n"
    "def centralizes(G, g, B):\n"
    "    return all(G.commutes(g, b) for b in B.elements)\n"
    "if sys.argv[1] == 'keyed-on-g':\n"
    "    reps.pullback_map = burnside.pullback_map = reps._pullback_map\n"
    "if sys.argv[1] == 'keyed-on-coset':\n"
    "    def by_coset(A, g, B):\n"
    "        return reps._pullback_map(A, min(A.parent.mul(a, g) for a in A.elements), B)\n"
    "    reps.pullback_map = burnside.pullback_map = by_coset\n"
    "if sys.argv[1] == 'centralizer-else-g':\n"
    "    def by_g(A, g, B):\n"
    "        return reps._pullback_map(A, 0 if centralizes(A.parent, g, B) else g, B)\n"
    "    reps.pullback_map = burnside.pullback_map = by_g\n"
    "G = group_from_json(json.loads(sys.argv[2]))\n"
    "table = char_table_to_json(char_table(G, verify=True))\n"
    "print(json.dumps([reps._pullback_map.cache_info().misses, table]))\n"
)


def _cold_misses(doc: dict, keys) -> dict:
    """Per cache key: the misses of ``_pullback_map`` over a cold
    char_table(verify=True) of the group ``doc`` in a fresh process, and the
    table it prints.  ``library`` runs ``pullback_map`` as it is; the others
    replace it with a wrapper keyed as named."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    runs = {}
    for key in keys:
        out = subprocess.run(
            [sys.executable, "-c", _MISSES, key, json.dumps(doc)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        runs[key] = json.loads(out.stdout)
    return runs


def test_pullback_map_is_cached_per_coset_with_the_same_char_table():
    """Keyed on the least element of A·g, a cold char_table(Z2³) computes
    fewer maps than keyed on g itself, and keyed on the identity coset where
    g centralizes B (every g, as Z2³ is abelian) fewer still; all three
    print the same table."""
    doc = {"name": "Z2^3", "cayley": [[i ^ j for j in range(8)] for i in range(8)]}
    runs = _cold_misses(doc, ("library", "keyed-on-coset", "keyed-on-g"))
    (misses, table), (coset_misses, coset_table), (g_misses, g_table) = runs.values()
    assert table == coset_table == g_table
    assert misses < coset_misses < g_misses
    assert (misses, coset_misses) == (66, 150)


@pytest.mark.parametrize(
    "doc, pinned",
    [
        pytest.param({"name": "D4", "degree": 4, "generators": [[1, 2, 3, 0], [0, 3, 2, 1]]}, (31, 46, 58), id="D4"),
        pytest.param({"name": "S4", "degree": 4, "generators": [[1, 2, 3, 0], [1, 0, 2, 3]]}, (67, 146, 147), id="S4"),
    ],
)
def test_pullback_map_reduces_the_coset_and_the_centralizer_on_a_nonabelian_group(doc, pinned):
    """Where some conjugators do not centralize B, the library computes fewer
    maps than either reduction alone: the identity coset for centralizing g
    with g itself otherwise, or the least element of A·g without the
    centralizer check; all three print the same table."""
    runs = _cold_misses(doc, ("library", "centralizer-else-g", "keyed-on-coset"))
    (misses, table), (g_misses, g_table), (coset_misses, coset_table) = runs.values()
    assert table == g_table == coset_table
    assert misses < min(g_misses, coset_misses)
    assert (misses, g_misses, coset_misses) == pinned
