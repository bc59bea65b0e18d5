"""2-representations of a finite group in classified form.

A 2-representation is stored as a decorated G-set: a multiset of orbits, each
an (up-to-conjugacy) subgroup P ≤ G decorated with a cocycle class over P
(one of :func:`linear_classes`).  This classified form is a complete
equivalence invariant, so every constructor canonicalizes:

* the cocycle is identified with its class index over its own subgroup;
* the subgroup is replaced by its conjugacy-class representative via a fixed
  least conjugator, and the class index moves along the conjugation;
* the index is minimized over the residual normalizer action;
* the orbit list is sorted.

Pullback along conjugation is a homomorphism of class groups, so
:func:`pullback_map` pulls back only the generator classes as cochains and
reads every other image off its Schur coordinates.  It is the one way a
decoration moves between subgroups: canonicalization, the normalizer action
and the tensor product all work on class indices, and a cochain is indexed
only where a caller hands one in.

Constructions: direct sum, tensor product (double-coset decomposition with
pulled-back class addition), and the round trip between decorated sets and
permutation-valued 2-cocycles via the Shapiro transfer maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cochains import (
    Cochain,
    CohomologyClassSet,
    GModule,
    conjugate_pullback,
    differential,
    is_cocycle,
    random_cochain,
    schur_classes,
    raise_level,
)
from .errors import AmbientMismatch, NotACocycle, NotContained
from .groups import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    conjugate_subgroup,
    double_cosets,
    full_subgroup,
    normalizer,
    orbit_partition,
    subgroup_conjugacy_classes,
    subgroup_group,
)
from .shapiro import psi, shapiro_context


@lru_cache(maxsize=None)
def linear_classes(P: Subgroup) -> CohomologyClassSet:
    """Cocycle classes over ℂ^× decorating an orbit with stabilizer P,
    presented at level |P| over the relabeled subgroup."""
    grp, _, _ = subgroup_group(P)
    return schur_classes(grp)


def trivial_decoration(P: Subgroup) -> Cochain:
    """The trivially decorated cocycle over P (class index 0)."""
    return linear_classes(P).representatives[0]


# ---------------------------------------------------------------------------
# Canonical form


@lru_cache(maxsize=None)
def _class_reps(G: FiniteGroup) -> dict:
    """For every subgroup P ≤ G: (class representative P₀, least conjugator c
    with c·P₀·c⁻¹ = P), found in one ascending sweep over G per class."""
    out = {}
    for cls in subgroup_conjugacy_classes(G):
        rep = cls[0]
        todo = {P.elements: P for P in cls}
        for g in G.elements:
            P = todo.pop(tuple(sorted(G.conj(g, x) for x in rep.elements)), None)
            if P is not None:
                out[P] = (rep, g)
                if not todo:
                    break
    return out


def pullback_map(A: Subgroup, g: int, B: Subgroup) -> tuple[int, ...]:
    """For subgroups A, B with g·B·g⁻¹ ⊆ A: the index in linear_classes(B) of
    the pullback along conjugation by g of each class of linear_classes(A).

    Pullback is a homomorphism of the class groups, so only the generator
    classes (coordinates e_k) are pulled back as cochains; the image of the
    class with coordinates c is Σ c_k·img_k, read off mod the orders of B.
    Raises :class:`NotContained` with the violating element of B unless
    g·B·g⁻¹ ⊆ A, also where H²(A) is trivial and no cochain is pulled back.

    The map depends on the coset A·g alone: conjugation by a ∈ A is inner on
    A, so it fixes every class of H²(A), and a·g·b·g⁻¹·a⁻¹ lies in A exactly
    when g·b·g⁻¹ does.  So g is replaced by the least element of A·g before
    the cached lookup, and the witness is the same b.  When g centralizes B
    the map is the restriction, as for the identity coset A itself, whose
    least element is 0; the witness is again the same b."""
    G = A.parent
    if all(G.commutes(g, b) for b in B.elements):
        return _pullback_map(A, 0, B)
    return _pullback_map(A, min(G.mul(a, g) for a in A.elements), B)


@lru_cache(maxsize=None)
def _pullback_map(A: Subgroup, g: int, B: Subgroup) -> tuple[int, ...]:
    """``pullback_map`` for the least element g of its coset A·g, or for
    g = 0 where the conjugator centralizes B."""
    G, members = A.parent, frozenset(A.elements)
    outside = [b for b in B.elements if G.conj(g, b) not in members]
    if outside:
        raise NotContained(f"{g}·{outside[0]}·{g}⁻¹ is outside the target subgroup", witness=outside[0])
    sa, sb = linear_classes(A), linear_classes(B)
    m = len(sb.orders)
    imgs = []  # imgs[k]: the coordinates over B of the pullback of e_k
    for e_k in sa.generator_classes:
        imgs.append(sb.coordinates[sb.index_of(conjugate_pullback(sa.representatives[e_k], g, B))])
    return tuple(
        sb.index_of_coords(sum(c * img[t] for c, img in zip(coords, imgs)) for t in range(m))
        for coords in sa.coordinates
    )


@lru_cache(maxsize=None)
def _normalizer_maps(P0: Subgroup) -> tuple[tuple[int, ...], ...]:
    """The distinct maps ``pullback_map(P0, n, P0)``, n in the normalizer of
    P0, in order of first n: at most one per coset P0·n, since the map
    depends on the coset alone.  The normalizer acts on the classes of P0,
    and on their characters, through these maps."""
    return tuple(dict.fromkeys(pullback_map(P0, n, P0) for n in normalizer(P0.parent, P0).elements))


@lru_cache(maxsize=None)
def _normalizer_min(P0: Subgroup) -> tuple[int, ...]:
    """Map each class index of linear_classes(P0) to the least index in its
    orbit under pullback along the normalizer of P0."""
    # the normalizer is a group, so the images of i under its pullbacks are
    # the whole orbit of i
    best = [0] * len(linear_classes(P0))
    for orbit in orbit_partition(range(len(best)), lambda i: (pi[i] for pi in _normalizer_maps(P0))):
        for i in orbit:
            best[i] = orbit[0]
    return tuple(best)


@dataclass(frozen=True)
class Orbit:
    """One canonical orbit: class-representative subgroup plus the canonical
    (normalizer-minimal) index into its linear classes."""

    subgroup: Subgroup
    schur_index: int

    def __post_init__(self):
        # the dataclass hash of the fields, computed once, as for Subgroup
        object.__setattr__(self, "_hash", hash((self.subgroup, self.schur_index)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def cocycle(self) -> Cochain:
        return linear_classes(self.subgroup).representatives[self.schur_index]


def _orbit_key(o: Orbit):
    return (o.subgroup.order, o.subgroup.elements, o.schur_index)


def _canonical(G: FiniteGroup, P: Subgroup, i: int) -> Orbit:
    """The canonical orbit of P ≤ G decorated by class i of linear_classes(P):
    the class moves to the class representative P₀ along the least conjugator
    and is minimized over the normalizer of P₀."""
    P0, c = _class_reps(G)[P]
    return Orbit(P0, _normalizer_min(P0)[pullback_map(P, c, P0)[i]])


def canonical_orbit(G: FiniteGroup, P: Subgroup, mu: Cochain) -> Orbit:
    """Canonicalize one decorated orbit (P ≤ G, cocycle over P)."""
    return _canonical(G, P, linear_classes(P).index_of(mu))


class Rep2:
    """A 2-representation in canonical decorated-set form."""

    __slots__ = ("group", "orbits", "_hash")

    def __init__(self, group: FiniteGroup, orbits: tuple[Orbit, ...]):
        self.group = group
        self.orbits = orbits
        self._hash = hash((group, orbits))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Rep2):
            return NotImplemented
        return self.group == other.group and self.orbits == other.orbits

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = ", ".join(
            f"⟨{o.schur_index}, {list(o.subgroup.elements)}⟩" for o in self.orbits
        )
        return f"Rep2({self.group.name}: {parts or '0'})"


def rep2(G: FiniteGroup, terms) -> Rep2:
    """Build a canonical Rep2 from (subgroup, cocycle-over-subgroup) terms."""
    orbits = sorted((canonical_orbit(G, P, mu) for P, mu in terms), key=_orbit_key)
    return Rep2(G, tuple(orbits))


def trivial_rep2(G: FiniteGroup) -> Rep2:
    """The monoidal unit: one orbit with full stabilizer, trivial decoration."""
    P = full_subgroup(G)
    return rep2(G, [(P, trivial_decoration(P))])


def degree(r: Rep2) -> int:
    return sum(o.subgroup.index for o in r.orbits)


# ---------------------------------------------------------------------------
# Ring constructions


def direct_sum(r: Rep2, s: Rep2) -> Rep2:
    if r.group != s.group:
        raise AmbientMismatch("summands live over different groups")
    return Rep2(r.group, tuple(sorted(r.orbits + s.orbits, key=_orbit_key)))


@lru_cache(maxsize=None)
def _double_coset_table(P: Subgroup, Q: Subgroup) -> tuple:
    """The double-coset decomposition of the orbits with stabilizers P and Q,
    one entry per P\\x/Q double coset in ``double_cosets`` order.

    For the double coset PxQ, x its least element, the stabilizer of the
    point x·Q of G/Q under P is J = P ∩ xQx⁻¹ = c·P₀·c⁻¹, P₀ its class
    representative.  Restriction to J followed by conjugation onto P₀ is the
    one conjugation by c (for P) or by x⁻¹c (for Q).  Each entry is
    (P₀, ``linear_classes(P₀)``, ``_normalizer_min(P₀)``, the pullback map
    from P onto P₀, the pullback map from Q onto P₀): the data depend on P
    and Q alone, so each pair is decomposed once."""
    G = P.parent
    reps = _class_reps(G)
    out = []
    for coset in double_cosets(G, P, Q):
        x = coset[0]
        xQx = {G.conj(x, q) for q in Q.elements}
        P0, c = reps[Subgroup(G, tuple(p for p in P.elements if p in xQx))]
        maps = (pullback_map(P, c, P0), pullback_map(Q, G.mul(G.inv(x), c), P0))
        out.append((P0, linear_classes(P0), _normalizer_min(P0), *maps))
    return tuple(out)


def _orbit_product(o1: Orbit, o2: Orbit):
    """The canonical orbits of the tensor product of two orbits, one per
    double coset: the ℂ^× class of a sum is the sum of the classes at any
    level, so the decoration is the sum of the two pulled-back classes,
    minimized over the normalizer of P₀; no cochain is built."""
    i, j = o1.schur_index, o2.schur_index
    for P0, sc, nmin, pa, qa in _double_coset_table(o1.subgroup, o2.subgroup):
        yield Orbit(P0, nmin[sc.add(pa[i], qa[j])])


def tensor(r: Rep2, s: Rep2) -> Rep2:
    """Orbit-pairwise double-coset decomposition (``_orbit_product``)."""
    if r.group != s.group:
        raise AmbientMismatch("factors live over different groups")
    orbits = [o for o1 in r.orbits for o2 in s.orbits for o in _orbit_product(o1, o2)]
    return Rep2(r.group, tuple(sorted(orbits, key=_orbit_key)))


# ---------------------------------------------------------------------------
# Permutation-cocycle form


class PermCocycleRep:
    """A finite G-set together with a degree-2 cocycle valued in the
    permutation module on the set: the cocycle θ alone, whose module carries
    the group, the point action and the set."""

    __slots__ = ("theta",)

    def __init__(self, theta: Cochain):
        if theta.degree != 2:
            raise ValueError("theta must be a degree-2 cochain over a permutation module")
        if not is_cocycle(theta):
            raise NotACocycle("theta is not a 2-cocycle for the permutation action")
        self.theta = theta

    @property
    def group(self) -> FiniteGroup:
        return self.theta.group

    @property
    def point_action(self) -> np.ndarray:
        return self.theta.module.action

    @property
    def size(self) -> int:
        return self.theta.module.size

    def __repr__(self) -> str:
        return f"PermCocycleRep({self.group.name}, |X|={self.size}, Z/{self.theta.level})"


def to_perm_cocycle(r: Rep2) -> PermCocycleRep:
    """Disjoint union of coset spaces, with the transferred cocycle on each
    block."""
    G = r.group
    m = G.order
    level = math.lcm(1, *(o.cocycle.level for o in r.orbits))
    blocks_act = []
    blocks_val = []
    total = 0
    for o in r.orbits:
        Q = o.subgroup
        qgrp, _, _ = subgroup_group(Q)
        ctx = shapiro_context(G, Q, GModule.trivial(qgrp, level))
        theta = psi(ctx, raise_level(o.cocycle, level))
        blocks_act.append(ctx.coinduced.action + total)
        blocks_val.append(theta.values)
        total += ctx.nT
    if blocks_act:
        action = np.concatenate(blocks_act, axis=1)
        values = np.concatenate(blocks_val, axis=2)
    else:
        action = np.zeros((m, 0), dtype=np.int64)
        values = np.zeros((m, m, 0), dtype=np.int64)
    # ψ values are already reduced mod the level
    return PermCocycleRep(Cochain._make(GModule.permutation(G, action, level), 2, values))


def from_perm_cocycle(p: PermCocycleRep) -> Rep2:
    """Recover the canonical decorated set: one orbit per G-orbit of the set,
    decorated by the cocycle's values at the least point of the orbit."""
    G = p.group
    act = p.point_action
    terms = []
    for orbit in orbit_partition(range(p.size), lambda x: (int(act[g, x]) for g in G.elements)):
        x0 = orbit[0]
        P = Subgroup(G, tuple(g for g in G.elements if act[g, x0] == x0))
        grp, _, els = subgroup_group(P)
        vals = p.theta.values[np.ix_(els, els, [x0])]
        terms.append((P, Cochain(GModule.trivial(grp, p.theta.level), 2, vals)))
    return rep2(G, terms)


# ---------------------------------------------------------------------------
# Random generation (for property runs)


def random_rep2(G: FiniteGroup, rng) -> Rep2:
    """Random canonical Rep2 of 0 to 3 orbits: random subgroups, random
    decoration classes, noised by coboundaries and conjugation before
    canonicalization."""
    subs = all_subgroups(G)
    terms = []
    for _ in range(rng.randrange(4)):
        P = subs[rng.randrange(len(subs))]
        sc = linear_classes(P)
        mu = sc.representatives[rng.randrange(len(sc))]
        noise = differential(random_cochain(mu.module, 1, rng))
        mu = mu + noise
        g = rng.randrange(G.order)
        P2 = conjugate_subgroup(G, g, P)
        terms.append((P2, conjugate_pullback(mu, G.inv(g), P2)))
    return rep2(G, terms)
