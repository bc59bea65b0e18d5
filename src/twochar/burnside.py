"""The Burnside-style ring of decorated G-sets.

Elements are integer combinations of canonical basis pairs — one pair per
conjugation orbit of (subgroup P, linear class over P); the basis pair is
exactly a canonical :class:`~twochar.reps.Orbit`.  Multiplication is
the bilinear extension of the orbit tensor product (a double-coset sum).  The
double-coset data of a subgroup pair (P, Q) are built once
(``reps._double_coset_table``), so the product of two basis pairs is one
class addition per double coset, kept as integer multiplicities, and a
product of elements sums ca·cb·n into one coefficient dict.

Mark homomorphisms evaluate an element against (P, α), α a tuple of roots of
unity (a character of the linear classes of P): a basis pair ⟨Θ, Q⟩ maps to
the sum of α over the cosets Q·g fixed by P, at Θ pulled back along g — a
ring homomorphism to ℤ[ζ].  The pulled-back classes are read from
:func:`~twochar.reps.pullback_map`, so no cochain is built per coset: the
maps of the cosets that P fixes are found once per subgroup pair (P, Q)
(``_fixed_coset_maps``), and each decoration over Q indexes them at its own
class.  The
table of marks and the character table share one mark engine
(``_mark_rows``): for each row subgroup P, one count matrix C[column, class
of P] of the pulled-back classes, times the one-hot matrix of each row's α
exponents, is the exponent histogram of every mark in the row, folded once;
a column where P fixes no coset is 0 without a sum.  ``mark`` and
``_pair_mark`` sum one basis pair at a time, for single queries.  The
mark at (P, α) equals the mark at (P, α∘n*) for n in the normalizer of P, so
the rows of the table of marks are the pairs (P, α) up to G-conjugacy: one
least α per normalizer orbit.  The table is then square; its entries and its
nonzero determinant lie in ℤ[ζ].  Rows and columns are sorted by subgroup
class, and the mark at (P, α) on ⟨Θ, Q⟩ is 0 unless P is conjugate into Q,
so the table is block upper triangular: its exact determinant is the product
of the diagonal blocks', each found by Gaussian elimination over ℚ(ζ),
dividing by each pivot through its exact inverse
(:meth:`~twochar.cyclo.CycloRat.inverse`).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product
from math import lcm

import numpy as np

from .cyclo import CycloInt, CycloRat, RootOfUnity, _powers_array, sum_roots
from .errors import AlphaNotHomomorphism, GroupMismatch, InternalFault
from .groups import (
    FiniteGroup,
    Subgroup,
    full_subgroup,
    orbit_partition,
    right_transversal,
    subgroup_class_representatives,
)
from .reps import Orbit, Rep2, _normalizer_maps, _normalizer_min, _orbit_key, _orbit_product, linear_classes, pullback_map


@lru_cache(maxsize=None)
def basis(G: FiniteGroup) -> tuple[Orbit, ...]:
    """Canonical basis pairs: one per conjugation orbit of (subgroup,
    linear class).

    G is one of its own basis subgroups, and its d₂ has the most columns,
    (|G| − 1)², so the classes of G come first: a group over the d₂ bound is
    refused (:class:`~twochar.errors.TooLarge`) before the subgroup lattice
    is built."""
    linear_classes(full_subgroup(G))
    out = []
    for P0 in subgroup_class_representatives(G):
        for i in sorted(set(_normalizer_min(P0))):
            out.append(Orbit(P0, i))
    return tuple(sorted(out, key=_orbit_key))


class BurnsideElement:
    """Finite ℤ-combination of basis pairs, zero coefficients dropped; a
    coefficient that is not an ``int`` (``bool`` included) raises ``TypeError``."""

    __slots__ = ("group", "coefficients")

    def __init__(self, group: FiniteGroup, coefficients: dict):
        for coeff in coefficients.values():
            if type(coeff) is not int:
                raise TypeError(f"coefficient must be an int, not {type(coeff).__name__}")
        self.group = group
        self.coefficients = {pair: coeff for pair, coeff in coefficients.items() if coeff}

    def __eq__(self, other) -> bool:
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        return self.group == other.group and self.coefficients == other.coefficients

    def __repr__(self) -> str:
        return f"BurnsideElement({pretty_element(self)})"


def basis_element(G: FiniteGroup, pair: Orbit) -> BurnsideElement:
    return BurnsideElement(G, {pair: 1})


def identity_element(G: FiniteGroup) -> BurnsideElement:
    """⟨trivial class, G⟩ — the ring identity."""
    return basis_element(G, Orbit(full_subgroup(G), 0))


def add(u: BurnsideElement, v: BurnsideElement) -> BurnsideElement:
    if u.group != v.group:
        raise GroupMismatch("elements live over different groups")
    coeffs = dict(u.coefficients)
    for pair, c in v.coefficients.items():
        coeffs[pair] = coeffs.get(pair, 0) + c
    return BurnsideElement(u.group, coeffs)


def scale(a: int, u: BurnsideElement) -> BurnsideElement:
    """a·u for an ``int`` a; any other scalar, ``bool`` included, raises ``TypeError``."""
    if type(a) is not int:
        raise TypeError(f"scalar must be an int, not {type(a).__name__}")
    return BurnsideElement(u.group, {p: a * c for p, c in u.coefficients.items()})


def from_rep2(r: Rep2) -> BurnsideElement:
    return BurnsideElement(r.group, Counter(r.orbits))


@lru_cache(maxsize=None)
def _pair_product(G: FiniteGroup, a: Orbit, b: Orbit) -> tuple[tuple[Orbit, int], ...]:
    """The product of two basis pairs as (pair, multiplicity) terms, sorted:
    one class addition per double coset of the pair's subgroups
    (``reps._orbit_product``).  The ring is commutative, so (b, a) is served
    from (a, b)."""
    if _orbit_key(b) < _orbit_key(a):
        return _pair_product(G, b, a)
    counts: dict = {}
    for o in _orbit_product(a, b):
        counts[o] = counts.get(o, 0) + 1
    return tuple(sorted(counts.items(), key=lambda t: _orbit_key(t[0])))


def mul(u: BurnsideElement, v: BurnsideElement) -> BurnsideElement:
    """Σ ca·cb·n over the terms n·p of each basis product a·b, summed as
    ``int``s into one coefficient dict (zero sums are dropped)."""
    if u.group != v.group:
        raise GroupMismatch("elements live over different groups")
    G = u.group
    counts: dict = {}
    for a, ca in u.coefficients.items():
        for b, cb in v.coefficients.items():
            for p, n in _pair_product(G, a, b):
                counts[p] = counts.get(p, 0) + ca * cb * n
    return BurnsideElement(G, counts)


# ---------------------------------------------------------------------------
# Mark homomorphisms


@lru_cache(maxsize=None)
def _fixed_coset_maps(P: Subgroup, Q: Subgroup) -> tuple[tuple[int, ...], ...]:
    """For each coset Q·g with g·P·g⁻¹ ⊆ Q, in transversal order: the
    pullback map along conjugation by g from the linear classes of Q to
    those of P (the same for all of Q·g, since inner automorphisms act
    trivially on H²).  Every decoration over Q reads the same maps."""
    G = P.parent
    q_members = frozenset(Q.elements)
    return tuple(
        pullback_map(Q, g, P)
        for g in right_transversal(G, Q)
        if all(G.conj(g, p) in q_members for p in P.elements)
    )


@lru_cache(maxsize=None)
def _check_alpha(P: Subgroup, alpha: tuple[RootOfUnity, ...]) -> None:
    """Raise :class:`AlphaNotHomomorphism` unless α respects the class group
    law.  Cached on success only: it returns nothing a caller could reuse.

    Only the pairs (i, e_k) are tested, e_k the class with coordinates the
    k-th unit vector: i = 0 gives α(0) = 1, and induction on the coordinates
    gives the law on every pair.  A trivial class group tests (0, 0)."""
    sc = linear_classes(P)
    for i in range(len(sc)):
        for j in sc.generator_classes or (0,):
            if alpha[sc.add(i, j)] != alpha[i] * alpha[j]:
                raise AlphaNotHomomorphism(f"α breaks the class group law at ({i}, {j})", witness=(i, j))


def mark(P: Subgroup, alpha, u: BurnsideElement) -> CycloInt:
    """The mark homomorphism for (P, α) on u, in ℤ[ζ], α a sequence of roots
    of unity, one per linear class of P: a basis pair ⟨Θ, Q⟩ maps to the sum
    of α over the cosets of Q that P fixes, at the pulled-back classes of Θ."""
    if P.parent != u.group:
        raise GroupMismatch("P is not a subgroup of the element's group")
    roots = isinstance(alpha, (tuple, list)) and all(isinstance(v, RootOfUnity) for v in alpha)
    if not roots or len(alpha) != len(linear_classes(P)):
        raise AlphaNotHomomorphism("α must be one root of unity per linear class")
    _check_alpha(P, tuple(alpha))
    return sum((coeff * _pair_mark(P, alpha, pair) for pair, coeff in u.coefficients.items()), CycloInt.zero())


def _pair_mark(P: Subgroup, alpha, pair: Orbit) -> CycloInt:
    """The mark at (P, α) of one basis pair, with no check on α: α summed
    over the classes the pair's decoration pulls back to, one per fixed
    coset (:func:`_fixed_coset_maps`).  The tables take their marks from
    :func:`_mark_rows`, a row at a time."""
    return sum_roots(alpha[m[pair.schur_index]] for m in _fixed_coset_maps(P, pair.subgroup))


def _mark_counts(P: Subgroup, cols: tuple[Orbit, ...]) -> np.ndarray:
    """C[j, c]: the number of cosets of ``cols[j].subgroup`` fixed by P at
    which the decoration of ``cols[j]`` pulls back to class c of P, read
    from :func:`_fixed_coset_maps` at the decoration's class."""
    k = len(linear_classes(P))
    hits = [j * k + m[pair.schur_index] for j, pair in enumerate(cols) for m in _fixed_coset_maps(P, pair.subgroup)]
    return np.bincount(hits, minlength=len(cols) * k).reshape(len(cols), k)


def _mark_rows(cols: tuple[Orbit, ...], rows) -> list[tuple[CycloInt, ...]]:
    """The marks at each (P, α) of ``rows`` on every basis pair of ``cols``,
    with no check on α (callers check each row's α once).

    The count matrix C of P (:func:`_mark_counts`, built once per subgroup)
    times the one-hot matrix of α's exponents at the lcm L of their levels
    is the exponent histogram of every mark in the row, folded at L by one
    product with ``_powers_array(L)``.  The roots of every caller's α share
    one level, so a mark has the level :func:`~twochar.cyclo.sum_roots`
    gives it: L, or 1 for the empty sum, 0, where P fixes no coset.  A
    repeated (P, α) shares its row, and equal values share one object."""
    zero = CycloInt.zero()
    counts: dict = {}
    made: dict = {}
    done: dict = {}
    for P, alpha in rows:
        if (P, alpha) in done:
            continue
        C = counts.get(P)
        if C is None:
            C = counts[P] = _mark_counts(P, cols)
        L = lcm(*(r.level for r in alpha))
        onehot = np.zeros((len(alpha), L), dtype=np.int64)
        onehot[np.arange(len(alpha)), [r.exponent * (L // r.level) for r in alpha]] = 1
        coords = (C @ onehot @ _powers_array(L)).tolist()
        row = []
        for fixed, c in zip(C.any(axis=1).tolist(), coords):
            if not fixed:
                row.append(zero)
                continue
            key = (L, tuple(c))
            v = made.get(key)
            if v is None:
                v = made[key] = CycloInt._make(L, key[1])
            row.append(v)
        done[P, alpha] = tuple(row)
    return [done[P, alpha] for P, alpha in rows]


@lru_cache(maxsize=None)
def _character_table(P: Subgroup):
    """All characters of the linear-class group ⊕ ℤ/f of P, as tuples of
    roots of unity indexed by class.  The character with digits (e_k) sends
    the class (c_k) to exp(2πi·Σ e_k·c_k/f_k); the characters are sorted
    by their exponents at level lcm(f), so the order does not depend on the
    coordinates chosen for the classes."""
    sc = linear_classes(P)
    factors = sc.orders                    # the invariant factors, for Schur classes
    N = factors[-1] if factors else 1      # lcm of a divisor chain

    def exponent(digits, coords) -> int:
        return sum(e * c * (N // f) for e, c, f in zip(digits, coords, factors)) % N

    rows = sorted(
        tuple(exponent(digits, coords) for coords in sc.coordinates)
        for digits in product(*(range(f) for f in factors))
    )
    return tuple(tuple(RootOfUnity(N, t) for t in row) for row in rows)


@lru_cache(maxsize=None)
def _row_characters(P0: Subgroup) -> tuple[int, ...]:
    """Indices into ``_character_table(P0)`` of the least character in each
    orbit of the normalizer N of P0, acting by α ↦ α∘``pullback_map(P0, n,
    P0)`` (``reps._normalizer_maps``).  The mark is constant on these orbits
    (the fixed cosets Q·g and Q·g·n correspond), and N has as many orbits on the characters as on the
    classes (Brauer's permutation lemma), so one row per orbit makes the
    table of marks square."""
    chars = _character_table(P0)
    index = {char: ci for ci, char in enumerate(chars)}
    maps = _normalizer_maps(P0)
    orbits = orbit_partition(range(len(chars)), lambda ci: (index[tuple(chars[ci][j] for j in pi)] for pi in maps))
    return tuple(orbit[0] for orbit in orbits)


def mark_matrix(G: FiniteGroup):
    """Rows: (class-representative subgroup P, character α of its linear
    classes), one α per orbit of the normalizer of P; columns: basis pairs;
    entries: the marks, in ℤ[ζ]."""
    cols = basis(G)
    rows = []
    labels = []
    for P0 in subgroup_class_representatives(G):
        chars = _character_table(P0)
        for ci in _row_characters(P0):
            _check_alpha(P0, chars[ci])
            rows.append((P0, chars[ci]))
            labels.append((P0, ci))
    return labels, cols, [list(row) for row in _mark_rows(cols, rows)]


def determinant(rows: list[list[CycloInt]]) -> CycloInt:
    """Exact determinant of a square matrix over ℤ[ζ], block by block.

    The matrix splits at k when every entry in rows k.. and columns ..k-1 is
    zero; a table of marks splits at each change of subgroup class, since the
    mark at (P, α) on ⟨Θ, Q⟩ is 0 unless P is conjugate into Q.  The
    determinant is then the product of the diagonal blocks' determinants,
    found at the finest split, each by Gaussian elimination over ℚ(ζ).  The
    product lies in ℤ[ζ]: a denominator left over raises
    :class:`~twochar.errors.InternalFault` with that denominator as witness."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    # low[k]: the least first-nonzero column over rows k.. (n for zero rows)
    low = [n] * (n + 1)
    for i in range(n - 1, -1, -1):
        first = next((j for j, x in enumerate(rows[i]) if not x.is_zero()), n)
        low[i] = min(low[i + 1], first)
    cuts = [k for k in range(1, n) if low[k] >= k] + [n]
    det = CycloRat.one()
    start = 0
    for end in cuts:
        block = _eliminate([[CycloRat(x) for x in r[start:end]] for r in rows[start:end]])
        if block.is_zero():
            return block.num
        det = det * block
        start = end
    if det.den != 1:
        raise InternalFault(f"the determinant over ℤ[ζ] came out with denominator {det.den}", witness=det.den)
    return det.num


def _eliminate(a: list[list[CycloRat]]) -> CycloRat:
    """Exact determinant of a square matrix by Gaussian elimination, dividing
    by each pivot through its exact inverse; the rows are overwritten."""
    n = len(a)
    det = CycloRat.one()
    for k in range(n):
        pivot = next((i for i in range(k, n) if not a[i][k].is_zero()), None)
        if pivot is None:
            return CycloRat.zero()
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det = det * a[k][k]
        inv = a[k][k].inverse()
        for i in range(k + 1, n):
            if a[i][k].is_zero():
                continue
            factor = a[i][k] * inv
            a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
    return det


# ---------------------------------------------------------------------------
# Printing


def pair_label(pair: Orbit) -> str:
    """``<i|{g,…}>``: a basis pair's class index and subgroup elements, as the
    CSV and text reports print it."""
    return f"<{pair.schur_index}|{{{','.join(map(str, pair.subgroup.elements))}}}>"


def pair_json(pair: Orbit) -> dict:
    """A basis pair in the JSON reports: its subgroup's elements and class index."""
    return {"subgroup": list(pair.subgroup.elements), "class": pair.schur_index}


def pretty_element(u: BurnsideElement) -> str:
    if not u.coefficients:
        return "0"
    parts = []
    for pair in sorted(u.coefficients, key=_orbit_key):
        c = u.coefficients[pair]
        sub = ",".join(str(g) for g in pair.subgroup.elements)
        parts.append(f"({c})·⟨{pair.schur_index}|{{{sub}}}⟩")
    return " + ".join(parts)
