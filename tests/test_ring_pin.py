"""Golden pin of the decorated Burnside ring on integer combinations.

Seeded ℤ-combinations u, v of basis pairs, with negative coefficients and
terms that cancel, on V4, S3, D4, Q8 and Z4×Z2.  One sha256 digest covers
the printed product u·v, the mark of u and of u·v at every row of the table
of marks, and the mark-homomorphism route of the 2-character of u at every
commuting pair, so a change of coefficient type or product path behind them
cannot rewrite an answer unnoticed.
"""

import hashlib
import random

from conftest import dihedral_4, klein_four, quaternion_8, symmetric_3
from twochar import burnside
from twochar.burnside import add, basis, basis_element, identity_element, mark, mark_matrix, mul, pretty_element, scale
from twochar.characters import gk_as_mark
from twochar.groups import from_permutation_generators, trivial_subgroup
from twochar.reps import Orbit

Z4xZ2 = from_permutation_generators(6, [(1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4)], name="Z4xZ2")
GROUPS = [klein_four(), symmetric_3(), dihedral_4(), quaternion_8(), Z4xZ2]

PIN = "c2ba06d923e83df163c254750154f7b5b09a1666f41afaf880592042486b0a02"


def _combination(G, rng, terms):
    """Σ c·pair over ``terms`` random pairs, c in ±1..±3, plus one pair added
    with c and then with −c, so that its coefficient cancels."""
    pairs = basis(G)
    u = burnside.BurnsideElement(G, {})
    for _ in range(terms):
        u = add(u, scale(rng.choice((-3, -2, -1, 1, 2, 3)), basis_element(G, rng.choice(pairs))))
    c, x = rng.randrange(1, 4), basis_element(G, rng.choice(pairs))
    return add(add(u, scale(c, x)), scale(-c, x))


def _operands(G, rng):
    """Two random pairs of combinations, and one whose product cancels:
    (|G|·e − pt)·pt = |G|·pt − |G|·pt = 0, pt the free point."""
    pt = basis_element(G, Orbit(trivial_subgroup(G), 0))
    out = [(_combination(G, rng, 4), _combination(G, rng, 3)) for _ in range(2)]
    out.append((add(scale(G.order, identity_element(G)), scale(-1, pt)), add(pt, _combination(G, rng, 2))))
    return out


def _lines(G):
    rng = random.Random(G.name)
    labels, _, _ = mark_matrix(G)
    commuting = [(a, b) for a in G.elements for b in G.elements if G.commutes(a, b)]
    for u, v in _operands(G, rng):
        uv = mul(u, v)
        yield f"{G.name} {pretty_element(u)} * {pretty_element(v)} = {pretty_element(uv)}"
        for P, ci in labels:
            alpha = burnside._character_table(P)[ci]
            yield f"mark {P.elements} chi{ci}: {mark(P, alpha, u)} ; {mark(P, alpha, uv)}"
        for a, b in commuting:
            yield f"gk_as_mark {a} {b}: {gk_as_mark(a, b, u)!r}"


def test_integer_combinations_keep_their_products_and_marks():
    h = hashlib.sha256()
    for G in GROUPS:
        for line in _lines(G):
            h.update(line.encode() + b"\n")
    assert h.hexdigest() == PIN
