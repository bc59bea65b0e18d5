"""Finite groups as dense Cayley tables, with the subgroup/coset machinery
used everywhere else in the package.

Conventions, fixed once and relied on for byte-deterministic output:

* elements are ``0 .. order-1`` and the identity is always index ``0``
  (``from_cayley_table`` relabels if needed);
* ``table[a][b]`` is the product ``a * b``;
* every representative (subgroup classes, double cosets, transversals,
  commuting pairs) is the lexicographically least member of its orbit, and
  orbit listings are sorted.  :func:`orbit_partition` is the one
  engine for this rule, for every listing up to conjugacy in the package.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import ClosureTooLarge, NotAGroup, NotAnAction, NotAPermutation, TooLarge

DEFAULT_MAX_ORDER = 64


class FiniteGroup:
    """Immutable dense-table finite group; hashable, equal iff tables equal.

    ``origin`` records provenance when the group was built by relabeling a
    subgroup of some parent (see :func:`subgroup_group`); it does not affect
    equality or hashing.
    """

    __slots__ = ("name", "order", "table", "inverse", "origin", "_hash", "_rows", "_inv")

    def __init__(self, table: np.ndarray, name: str, inverse: np.ndarray):
        self.table = table
        self.name = name
        self.inverse = inverse
        self.order = int(table.shape[0])
        self.origin = None
        self._hash = hash(table.tobytes())
        table.setflags(write=False)
        inverse.setflags(write=False)
        # Python-list copies for the scalar lookups below: indexing a list is
        # several times cheaper than a numpy scalar lookup plus ``int``
        self._rows = table.tolist()
        self._inv = inverse.tolist()

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return self._hash

    @property
    def elements(self) -> range:
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        return self._rows[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        rows = self._rows
        return rows[rows[g][x]][self._inv[g]]

    def commutes(self, a: int, b: int) -> bool:
        rows = self._rows
        return rows[a][b] == rows[b][a]

    def order_of(self, g: int) -> int:
        rows, out, n = self._rows, g, 1
        while out != 0:
            out = rows[out][g]
            n += 1
        return n


def _validate_table(table: np.ndarray) -> int:
    """Check group axioms on a raw table; return the identity's input label."""
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise NotAGroup(f"table must be square, got shape {table.shape}")
    n = table.shape[0]
    if n == 0:
        raise NotAGroup("empty table")
    if table.min() < 0 or table.max() >= n:
        bad = tuple(int(v) for v in np.argwhere((table < 0) | (table >= n))[0])
        raise NotAGroup(f"entry out of range at {bad}", witness=bad)
    identity = None
    rng = np.arange(n)
    for e in range(n):
        if np.array_equal(table[e], rng) and np.array_equal(table[:, e], rng):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no two-sided identity element")
    for a in range(n):
        row = np.flatnonzero(table[a] == identity)
        if not any(table[b, a] == identity for b in row):
            raise NotAGroup(f"element {a} has no two-sided inverse", witness=(a,))
    left = table[table, :]            # left[a,b,c] = (a*b)*c
    right = table[:, table]           # right[a,b,c] = a*(b*c)
    if not np.array_equal(left, right):
        a, b, c = (int(v) for v in np.argwhere(left != right)[0])
        raise NotAGroup(f"associativity fails at ({a}, {b}, {c})", witness=(a, b, c))
    return identity


def _finish(table: np.ndarray, name: str) -> FiniteGroup:
    n = table.shape[0]
    inverse = np.empty(n, dtype=np.int64)
    for a in range(n):
        inverse[a] = int(np.flatnonzero(table[a] == 0)[0])
    return FiniteGroup(table, name, inverse)


def from_cayley_table(table, name: str = "G") -> FiniteGroup:
    """Validate a Cayley table and build the group, identity relabeled to 0.

    Raises :class:`NotAGroup` with a witness (the violating triple for an
    associativity failure) when the table is not a group.
    """
    arr = np.array(table, dtype=np.int64)
    e = _validate_table(arr)
    if e != 0:
        sigma = np.arange(arr.shape[0])
        sigma[0], sigma[e] = e, 0          # involution swapping 0 and e
        arr = sigma[arr[np.ix_(sigma, sigma)]]
    return _finish(arr, name)


def from_permutation_generators(
    degree: int, generators, name: str = "G", max_order: int = DEFAULT_MAX_ORDER
) -> FiniteGroup:
    """Close a generating set of permutations of ``range(degree)`` and build
    the Cayley table of the generated group.

    Permutations compose as functions: ``(p * q)(x) = p(q(x))``.  Element 0 is
    the identity; the rest follow breadth-first discovery order, which makes
    the labeling deterministic for a fixed generator list; no generators give
    the trivial group at any degree.  The closure stops at the first element
    past ``max_order`` with :class:`ClosureTooLarge`, whose witness is
    ``max_order + 1``, the count reached.
    """
    gens = []
    for i, g in enumerate(generators):
        row = tuple(int(v) for v in g)
        if sorted(row) != list(range(degree)):
            raise NotAPermutation(f"generator {i} is not a permutation of range({degree})", witness=row)
        gens.append(row)
    if not gens:
        return _finish(np.zeros((1, 1), dtype=np.int64), name)
    ident = tuple(range(degree))
    elems = [ident]
    index = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[x]] for x in range(degree))    # p∘g
                if q not in index:
                    if len(elems) >= max_order:
                        raise ClosureTooLarge(f"closure exceeded {max_order} elements", witness=len(elems) + 1)
                    index[q] = len(elems)
                    elems.append(q)
                    nxt.append(q)
        frontier = nxt
    n = len(elems)
    table = np.empty((n, n), dtype=np.int64)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            table[i, j] = index[tuple(p[q[x]] for x in range(degree))]
    return _finish(table, name)


# ---------------------------------------------------------------------------
# Actions and orbits


@lru_cache(maxsize=None)
def check_left_action(group: FiniteGroup, X: int, data: bytes) -> None:
    """Raise :class:`NotAnAction` unless the |G|×X int64 table in ``data``,
    row g holding g·x at column x, is a left action of the group by
    permutations of range(X).  The witness is (0,) for an identity row that
    is not the identity, (g,) for a row that is not a permutation, and
    (g, h, x) where (gh)·x ≠ g·(h·x).

    Cached on success, keyed on the group's table and the action's bytes:
    every distinct action is checked once, and the many modules that
    ``conjugate_pullback`` and ``GModule.at_level`` rebuild are not checked
    again.  Only the check is cached: each caller keeps its own group, whose
    ``origin`` can differ between equal tables."""
    action = np.frombuffer(data, dtype=np.int64).reshape(group.order, X)
    rng = np.arange(X)
    if not np.array_equal(action[0], rng):
        raise NotAnAction("identity must act as the identity permutation", witness=(0,))
    for g in group.elements:
        if not np.array_equal(np.sort(action[g]), rng):
            raise NotAnAction(f"element {g} does not act by a permutation", witness=(g,))
    composed = action[:, action]          # composed[g, h, x] = g·(h·x)
    expected = action[group.table]        # expected[g, h, x] = (gh)·x
    if not np.array_equal(composed, expected):
        g, h, x = (int(v) for v in np.argwhere(composed != expected)[0])
        raise NotAnAction(f"not a left action at (g={g}, h={h}, x={x})", witness=(g, h, x))


def orbit_partition(items, orbit_of) -> tuple[tuple, ...]:
    """The orbits on ``items``, each a sorted tuple, listed by least member.

    ``items`` lists every point in ascending order (or any order that meets
    each orbit at its least member first); ``orbit_of(x)`` yields x's orbit,
    repeats allowed.  Each orbit is built once, from its least member."""
    seen = set()
    out = []
    for x in items:
        if x not in seen:
            orbit = tuple(sorted(set(orbit_of(x))))
            seen.update(orbit)
            out.append(orbit)
    return tuple(out)


# ---------------------------------------------------------------------------
# Subgroups


@dataclass(frozen=True)
class Subgroup:
    """A validated subgroup, stored as its sorted element tuple."""

    parent: FiniteGroup
    elements: tuple[int, ...]

    def __post_init__(self):
        els = self.elements
        if tuple(sorted(set(els))) != els:
            raise ValueError(f"subgroup elements must be sorted and distinct: {els}")
        if not els or els[0] != 0:
            raise ValueError("subgroup must contain the identity 0")
        member = set(els)
        t, inv = self.parent._rows, self.parent._inv
        for a in els:
            if inv[a] not in member:
                raise ValueError(f"subgroup not closed under inverse at {a}")
            for b in els:
                if t[a][b] not in member:
                    raise ValueError(f"subgroup not closed under product at ({a}, {b})")
        # the dataclass hash of the fields, computed once: subgroups key many
        # caches; kept off the fields, so ``repr`` and ``==`` do not see it
        object.__setattr__(self, "_hash", hash((self.parent, els)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return self.parent.order // len(self.elements)

    def __repr__(self) -> str:
        return f"Subgroup({self.parent.name}, {self.elements})"


@lru_cache(maxsize=None)
def subgroup_group(sub: Subgroup):
    """Relabel a subgroup as a standalone group.

    Returns ``(group, to_sub, to_parent)`` where ``to_parent[i]`` is the parent
    index of subgroup element ``i`` and ``to_sub`` maps parent indices back
    (-1 for non-members).  The identity stays at index 0.
    """
    els = sub.elements
    k = len(els)
    to_sub = np.full(sub.parent.order, -1, dtype=np.int64)
    for i, g in enumerate(els):
        to_sub[g] = i
    table = to_sub[sub.parent.table[np.ix_(els, els)]]
    grp = _finish(table.copy(), f"{sub.parent.name}[{','.join(map(str, els))}]")
    grp.origin = sub
    to_sub.setflags(write=False)
    return grp, to_sub, els


def full_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, tuple(range(G.order)))


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, (0,))


def generated_subgroup(G: FiniteGroup, gens) -> Subgroup:
    """Subgroup generated by ``gens`` (closure under product and inverse)."""
    t = G._rows
    closed = {0} | {G.inv(g) for g in gens} | {int(g) for g in gens}
    frontier = list(closed)
    while frontier:
        x = frontier.pop()
        for y in tuple(closed):
            for z in (t[x][y], t[y][x]):
                if z not in closed:
                    closed.add(z)
                    frontier.append(z)
    return Subgroup(G, tuple(sorted(closed)))


def conjugate_subgroup(G: FiniteGroup, g: int, sub: Subgroup) -> Subgroup:
    return Subgroup(G, tuple(sorted(G.conj(g, x) for x in sub.elements)))


@lru_cache(maxsize=None)
def all_subgroups(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """All subgroups, sorted by (order, element tuple)."""
    found = {(0,)}
    frontier = [(0,)]
    while frontier:
        base = frontier.pop()
        for g in range(1, G.order):
            if g in base:
                continue
            ext = generated_subgroup(G, base + (g,)).elements
            if ext not in found:
                found.add(ext)
                frontier.append(ext)
    subs = [Subgroup(G, els) for els in found]
    subs.sort(key=lambda s: (s.order, s.elements))
    return tuple(subs)


@lru_cache(maxsize=None)
def subgroup_conjugacy_classes(G: FiniteGroup) -> tuple[tuple[Subgroup, ...], ...]:
    """Conjugacy classes of subgroups; each class sorted, classes ordered by
    (order, representative elements) with the representative = least member."""
    # by (order, elements): conjugates share an order, so each class is met
    # at its least member first
    subs = {s.elements: s for s in all_subgroups(G)}
    classes = orbit_partition(subs, lambda els: (tuple(sorted(G.conj(g, x) for x in els)) for g in G.elements))
    return tuple(tuple(subs[els] for els in c) for c in classes)


def subgroup_class_representatives(G: FiniteGroup) -> tuple[Subgroup, ...]:
    return tuple(c[0] for c in subgroup_conjugacy_classes(G))


@lru_cache(maxsize=None)
def centralizer(G: FiniteGroup, a: int) -> Subgroup:
    return Subgroup(G, tuple(g for g in G.elements if G.commutes(g, a)))


@lru_cache(maxsize=None)
def normalizer(G: FiniteGroup, sub: Subgroup) -> Subgroup:
    els = []
    for g in G.elements:
        if conjugate_subgroup(G, g, sub).elements == sub.elements:
            els.append(g)
    return Subgroup(G, tuple(els))


def double_cosets(G: FiniteGroup, P: Subgroup, Q: Subgroup) -> tuple[tuple[int, ...], ...]:
    """P\\x/Q double cosets as sorted element tuples; representative = least
    member = first entry, and the list is ordered by representative."""
    t = G._rows
    return orbit_partition(G.elements, lambda g: (t[t[p][g]][q] for p in P.elements for q in Q.elements))


@lru_cache(maxsize=None)
def right_transversal(G: FiniteGroup, Q: Subgroup) -> tuple[int, ...]:
    """Lex-least representatives for the right cosets Q·g, identity first."""
    t = G._rows
    return tuple(c[0] for c in orbit_partition(G.elements, lambda g: (t[q][g] for q in Q.elements)))


@lru_cache(maxsize=None)
def coset_representative_map(G: FiniteGroup, Q: Subgroup) -> np.ndarray:
    """Array mapping each g to the transversal representative of Q·g."""
    t = G._rows
    rep = np.full(G.order, -1, dtype=np.int64)
    for r in right_transversal(G, Q):
        for q in Q.elements:
            rep[t[q][r]] = r
    rep.setflags(write=False)
    return rep


@dataclass(frozen=True)
class CommutingPairClass:
    """Simultaneous-conjugation class of a commuting pair, with the least
    pair as representative and the full sorted orbit."""

    representative: tuple[int, int]
    orbit: tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)
def commuting_pair_classes(G: FiniteGroup) -> tuple[CommutingPairClass, ...]:
    pairs = [(a, b) for a in G.elements for b in G.elements if G.commutes(a, b)]
    classes = orbit_partition(pairs, lambda p: ((G.conj(g, p[0]), G.conj(g, p[1])) for g in G.elements))
    return tuple(CommutingPairClass(c[0], c) for c in classes)


# ---------------------------------------------------------------------------
# Serialization


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def require_object(doc, error) -> None:
    """Refuse a document that is not a JSON object with ``error``, whose
    witness is the document's type."""
    if not isinstance(doc, dict):
        kind = type(doc).__name__
        raise error(f"document must be a JSON object, not {kind}", witness=kind)


def require_key(doc: dict, key: str, error):
    """``doc[key]``; a document that is not a JSON object
    (:func:`require_object`) or a missing key is refused with ``error``,
    whose witness is the type or the key."""
    require_object(doc, error)
    if key not in doc:
        raise error(f"missing key {key!r}", witness=key)
    return doc[key]


def require_ints(doc: dict, key: str, error, what: str, shape: tuple, below: int | None = None):
    """``doc[key]``, nested lists of integers with one length per level in
    ``shape`` (None: any length), unchanged.  Refused with ``error``, instead
    of being cast by ``np.array`` (which overflows past int64 and fails on
    ragged rows) or ``int``: a missing key, or a value that is not a list of
    its length (witness: ``key``); a row that is not a list of its length
    (witness: the row's position); an entry that is a float, a string, a
    bool or a list, or, given ``below``, one outside ``range(below)``
    (witness: the entry's position)."""

    def walk(v, at):
        if len(at) < len(shape):
            n = shape[len(at)]
            if not isinstance(v, list) or n is not None and len(v) != n:
                length = "" if n is None else f" of length {n}"
                where = f"row {at}" if at else repr(key)
                raise error(f"{what} {where} must be a list{length}", witness=at or key)
            for i, x in enumerate(v):
                walk(x, (*at, i))
        elif not _is_int(v):
            raise error(f"{what} entry at {at} is not an integer: {v!r}", witness=at)
        elif below is not None and not 0 <= v < below:
            raise error(f"{what} entry at {at} is outside range({below}): {v}", witness=at)

    walk(require_key(doc, key, error), ())
    return doc[key]


def group_from_json(doc: dict, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Accepts either the Cayley form or a permutation-generator form
    ``{"name", "degree", "generators"}``.  More than ``max_order`` elements
    is refused before the group is built: by the table's row count
    (:class:`TooLarge`) or by stopping the closure (:class:`ClosureTooLarge`).
    The table must be square and the generators lists of ``degree`` entries,
    all JSON integers (:func:`require_ints`), table entries below the row
    count, the degree a non-negative integer and a declared ``order`` the
    row count, as an integer.  A document that is not a JSON object, or has
    neither form, is refused with :class:`NotAGroup`."""
    require_object(doc, NotAGroup)
    name = doc.get("name", "G")
    if "cayley" in doc:
        if not isinstance(doc["cayley"], list):
            raise NotAGroup("Cayley table 'cayley' must be a list", witness="cayley")
        n = len(doc["cayley"])
        if n > max_order:
            raise TooLarge(f"group order {n} exceeds the bound {max_order}")
        order = doc.get("order", n)
        if not _is_int(order) or order != n:
            raise NotAGroup(f"declared order {order!r} must be the integer {n}, the table size", witness=order)
        return from_cayley_table(require_ints(doc, "cayley", NotAGroup, "Cayley table", (n, n), below=n), name=name)
    if "generators" in doc:
        degree = require_key(doc, "degree", NotAPermutation)
        if not _is_int(degree) or degree < 0:
            raise NotAPermutation(f"degree must be a non-negative integer, got {degree!r}", witness=degree)
        gens = require_ints(doc, "generators", NotAPermutation, "generator", (None, degree))
        return from_permutation_generators(degree, gens, name=name, max_order=max_order)
    raise NotAGroup("group document needs either 'cayley' or 'generators'", witness=("cayley", "generators"))


def load_json(source: str, kind: str = "group"):
    """The JSON document at path ``source``, or else the bundled one named
    ``source`` (``v4``, ``crossed_z2_z4``, …)."""
    if os.path.exists(source):
        with open(source) as f:
            return json.load(f)
    path = resources.files("twochar").joinpath("data").joinpath(source + ".json")
    if not path.is_file():
        raise FileNotFoundError(f"no such file or bundled {kind}: {source}")
    return json.loads(path.read_text())


def load_group(source: str, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    return group_from_json(load_json(source), max_order)
