"""One orbit engine, ``groups.orbit_partition``, and decorations moved only
by ``reps.pullback_map``.

Each listing up to conjugacy is compared with the loop it replaced, copied
here as a reference: subgroup classes, commuting pairs, double cosets,
transversals, the commuting triples of a crossed module and its π₁ cosets.
``canonical_orbit``, the least conjugators and the normalizer minima are
compared with the cochain route (``conjugate_pullback`` + ``index_of``) on
every subgroup.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import dihedral_4, quaternion_8, symmetric_3
from twochar.cochains import conjugate_pullback
from twochar.crossed import _pi1_data, load_crossed, triple_classes, triples
from twochar.groups import (
    Subgroup,
    all_subgroups,
    commuting_pair_classes,
    conjugate_subgroup,
    double_cosets,
    from_permutation_generators,
    group_from_json,
    normalizer,
    orbit_partition,
    right_transversal,
    subgroup_conjugacy_classes,
)
from twochar.reps import Orbit, _class_reps, _normalizer_min, canonical_orbit, linear_classes

S4 = from_permutation_generators(4, [(1, 2, 3, 0), (1, 0, 2, 3)], name="S4")
Z3SQ_C2 = group_from_json(json.loads((Path(__file__).resolve().parent / "data" / "z3sq_c2.json").read_text()))
GROUPS = [symmetric_3(), dihedral_4(), quaternion_8(), S4, Z3SQ_C2]
CROSSED = ["crossed_z2_z4", "crossed_inner_s3"]


# ---------------------------------------------------------------------------
# The loops the engine replaced


def _ref_subgroup_conjugacy_classes(G):
    remaining = {s.elements for s in all_subgroups(G)}
    classes = []
    for sub in all_subgroups(G):
        if sub.elements not in remaining:
            continue
        orbit = set()
        for g in G.elements:
            orbit.add(conjugate_subgroup(G, g, sub).elements)
        remaining -= orbit
        classes.append(tuple(Subgroup(G, els) for els in sorted(orbit)))
    classes.sort(key=lambda c: (c[0].order, c[0].elements))
    return tuple(classes)


def _ref_commuting_pair_classes(G):
    pairs = [(a, b) for a in G.elements for b in G.elements if G.commutes(a, b)]
    seen = set()
    classes = []
    for pair in pairs:
        if pair in seen:
            continue
        orbit = sorted({(G.conj(g, pair[0]), G.conj(g, pair[1])) for g in G.elements})
        seen.update(orbit)
        classes.append((orbit[0], tuple(orbit)))
    classes.sort(key=lambda c: c[0])
    return tuple(classes)


def _ref_double_cosets(G, P, Q):
    t = G._rows
    seen = set()
    out = []
    for g in G.elements:
        if g in seen:
            continue
        coset = sorted({t[t[p][g]][q] for p in P.elements for q in Q.elements})
        seen.update(coset)
        out.append(tuple(coset))
    return tuple(out)


def _ref_right_transversal(G, Q):
    t = G._rows
    seen = set()
    out = []
    for g in G.elements:
        if g in seen:
            continue
        out.append(g)
        seen.update(t[q][g] for q in Q.elements)
    return tuple(out)


def _ref_triple_classes(K):
    G = K.G
    seen = set()
    classes = []
    for tr in triples(K):
        if tr in seen:
            continue
        a, b, h = tr
        orbit = sorted({(G.conj(g, a), G.conj(g, b), K.act(g, h)) for g in G.elements})
        seen.update(orbit)
        classes.append(tuple(orbit))
    return tuple(classes)


def _ref_pi1_cosets(K):
    """(coset representatives, the π₁ index of every element of G)."""
    G = K.G
    image = sorted({int(v) for v in K.boundary})
    rep_of = np.full(G.order, -1, dtype=np.int64)
    out = []
    for g in G.elements:
        if rep_of[g] >= 0:
            continue
        coset = sorted(G.mul(x, g) for x in image)
        out.append(coset[0])
        for y in coset:
            rep_of[y] = coset[0]
    idx_of_rep = {r: i for i, r in enumerate(out)}
    return tuple(out), [idx_of_rep[int(rep_of[g])] for g in G.elements]


# ---------------------------------------------------------------------------
# Listings up to conjugacy


def test_orbit_partition_lists_sorted_orbits_by_least_member():
    # ℤ/12 under x ↦ 5x: orbits {0}, {1,5}, {2,10}, {3}, {4,8}, {6}, {7,11}, {9}
    orbits = orbit_partition(range(12), lambda x: (x, 5 * x % 12))
    assert orbits == ((0,), (1, 5), (2, 10), (3,), (4, 8), (6,), (7, 11), (9,))
    assert orbit_partition((), lambda x: (x,)) == ()


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.name)
def test_group_listings_match_the_reference_loops(G):
    assert subgroup_conjugacy_classes(G) == _ref_subgroup_conjugacy_classes(G)
    assert tuple((c.representative, c.orbit) for c in commuting_pair_classes(G)) == _ref_commuting_pair_classes(G)
    subs = all_subgroups(G)
    for P in subs:
        assert right_transversal(G, P) == _ref_right_transversal(G, P)
        for Q in subs:
            assert double_cosets(G, P, Q) == _ref_double_cosets(G, P, Q)


@pytest.mark.parametrize("name", CROSSED)
def test_crossed_listings_match_the_reference_loops(name):
    K = load_crossed(name)
    assert triple_classes(K) == _ref_triple_classes(K)
    _, proj, coset_reps = _pi1_data(K)
    expect_reps, expect_proj = _ref_pi1_cosets(K)
    assert coset_reps == expect_reps
    assert proj.tolist() == expect_proj


# ---------------------------------------------------------------------------
# Decorations moved by pullback_map, against the cochain route


def _ref_class_reps(G):
    out = {}
    for cls in subgroup_conjugacy_classes(G):
        for P in cls:
            out[P] = (cls[0], next(g for g in G.elements if conjugate_subgroup(G, g, cls[0]) == P))
    return out


def _ref_normalizer_min(P0):
    sc = linear_classes(P0)
    best = list(range(len(sc)))
    for n in normalizer(P0.parent, P0).elements:
        for i, rep in enumerate(sc.representatives):
            best[i] = min(best[i], sc.index_of(conjugate_pullback(rep, n, P0)))
    return best


def _ref_canonical_orbit(G, P, mu):
    P0, c = _ref_class_reps(G)[P]
    return Orbit(P0, _ref_normalizer_min(P0)[linear_classes(P0).index_of(conjugate_pullback(mu, c, P0))])


DECORATED = [S4, Z3SQ_C2]
# its Sylow subgroups Z3² are not normal, so the least conjugator moves the
# classes of H²(Z3²; ℂ^×) = ℤ/3; on S4 and Z3²⋊C2 it moves none.  Its own d₂
# is over the size bound, so only its proper subgroups are decorated.
A4xZ3 = from_permutation_generators(
    7, [(1, 2, 0, 3, 4, 5, 6), (0, 2, 3, 1, 4, 5, 6), (0, 1, 2, 3, 5, 6, 4)], name="A4xZ3"
)


@pytest.mark.parametrize("G", DECORATED, ids=lambda G: G.name)
def test_class_reps_and_normalizer_minima_match_the_reference(G):
    assert _class_reps(G) == _ref_class_reps(G)
    for P in all_subgroups(G):
        assert list(_normalizer_min(P)) == _ref_normalizer_min(P)


def _decorated_subgroups(G):
    return all_subgroups(G)[:-1] if G is A4xZ3 else all_subgroups(G)


@pytest.mark.parametrize("G", DECORATED + [A4xZ3], ids=lambda G: G.name)
def test_canonical_orbit_matches_the_cochain_route_on_every_subgroup(G):
    for P in _decorated_subgroups(G):
        for mu in linear_classes(P).representatives:
            assert canonical_orbit(G, P, mu) == _ref_canonical_orbit(G, P, mu), P


