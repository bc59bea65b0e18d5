"""Crossed modules (H → G with a compatible G-action on H) and the strict
2-group they present.

Validation checks, with witnesses: the boundary is a homomorphism, the action
table defines a left action by automorphisms, the boundary is equivariant
(∂(ᵍh) = g·∂h·g⁻¹), and the Peiffer identity holds (^(∂h)h' = h·h'·h⁻¹).

2-morphisms g₁ ⇒ g₂ are labeled by h ∈ H with g₂ = ∂h·g₁; vertical and
horizontal composition follow the 2-group structure.  The commuting-triple
set is the elements (a, b, h) with ∂h·a·b = b·a, carrying the conjugation
action g·(a,b,h) = (gag⁻¹, gbg⁻¹, ᵍh).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    EquivarianceFailure,
    NotAGroup,
    NotAHomomorphism,
    NotAnAction,
    NotCentral,
    NotComposable,
    NotNormal,
    PeifferFailure,
    TooLarge,
)
from .groups import (
    DEFAULT_MAX_ORDER,
    FiniteGroup,
    Subgroup,
    check_left_action,
    from_cayley_table,
    group_from_json,
    load_json,
    orbit_partition,
    require_ints,
    require_key,
)


class CrossedModule:
    """Validated crossed module: boundary[h] = ∂h, action[g][h] = ᵍh."""

    __slots__ = ("H", "G", "boundary", "action", "_hash", "_boundary", "_action")

    def __init__(self, H: FiniteGroup, G: FiniteGroup, boundary, action):
        boundary = np.ascontiguousarray(boundary, dtype=np.int64)
        action = np.ascontiguousarray(action, dtype=np.int64)
        if boundary.shape != (H.order,):
            raise ValueError("boundary must assign one G-element per H-element")
        if action.shape != (G.order, H.order):
            raise ValueError("action must be a |G| × |H| table")
        _validate(H, G, boundary, action)
        boundary.setflags(write=False)
        action.setflags(write=False)
        self.H, self.G = H, G
        self.boundary = boundary
        self.action = action
        self._hash = hash((H, G, boundary.tobytes(), action.tobytes()))
        # list copies for the scalar lookups of ``act`` and ``TwoMorphism``
        self._boundary = boundary.tolist()
        self._action = action.tolist()

    def act(self, g: int, h: int) -> int:
        return self._action[g][h]

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, CrossedModule):
            return NotImplemented
        return (
            self.H == other.H
            and self.G == other.G
            and np.array_equal(self.boundary, other.boundary)
            and np.array_equal(self.action, other.action)
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"CrossedModule({self.H.name} → {self.G.name})"


def _validate(H: FiniteGroup, G: FiniteGroup, boundary: np.ndarray, action: np.ndarray):
    if boundary.min() < 0 or boundary.max() >= G.order:
        raise ValueError("boundary values out of range")
    for h1 in H.elements:
        for h2 in H.elements:
            lhs = G.mul(int(boundary[h1]), int(boundary[h2]))
            rhs = int(boundary[H.mul(h1, h2)])
            if lhs != rhs:
                raise NotAHomomorphism(
                    f"∂({h1})·∂({h2}) ≠ ∂({h1}·{h2})", witness=(h1, h2)
                )
    check_left_action(G, H.order, action.tobytes())
    for g in G.elements:
        for h1 in H.elements:
            for h2 in H.elements:
                if action[g, H.mul(h1, h2)] != H.mul(int(action[g, h1]), int(action[g, h2])):
                    raise NotAnAction(
                        f"{g} does not act by an automorphism at ({h1},{h2})",
                        witness=(g, h1, h2),
                    )
    for g in G.elements:
        for h in H.elements:
            if int(boundary[action[g, h]]) != G.conj(g, int(boundary[h])):
                raise EquivarianceFailure(
                    f"∂(^{g}{h}) ≠ {g}·∂{h}·{g}⁻¹", witness=(g, h)
                )
    for h1 in H.elements:
        for h2 in H.elements:
            if int(action[boundary[h1], h2]) != H.conj(h1, h2):
                raise PeifferFailure(
                    f"^(∂{h1}){h2} ≠ {h1}·{h2}·{h1}⁻¹", witness=(h1, h2)
                )


# ---------------------------------------------------------------------------
# π₁ and π₂


@lru_cache(maxsize=None)
def _pi1_data(K: CrossedModule):
    G = K.G
    image = sorted({int(v) for v in K.boundary})
    # normal by equivariance; checked all the same
    member = frozenset(image)
    for g in G.elements:
        for x in image:
            if G.conj(g, x) not in member:
                raise NotNormal(f"{g}·{x}·{g}⁻¹ is outside the boundary image", witness=(g, x))
    cosets = orbit_partition(G.elements, lambda g: (G.mul(x, g) for x in image))
    reps = tuple(c[0] for c in cosets)
    coset_of = {y: i for i, c in enumerate(cosets) for y in c}
    table = [[coset_of[G.mul(a, b)] for b in reps] for a in reps]
    quotient = from_cayley_table(table, name=f"{G.name}/∂")
    proj = np.array([coset_of[g] for g in G.elements], dtype=np.int64)
    proj.setflags(write=False)
    return quotient, proj, reps


def pi1(K: CrossedModule) -> FiniteGroup:
    """Cokernel of the boundary: G modulo the (normal) image of ∂."""
    return _pi1_data(K)[0]


def pi2(K: CrossedModule) -> Subgroup:
    """Kernel of the boundary as a subgroup of H (central, hence abelian)."""
    els = tuple(h for h in K.H.elements if K.boundary[h] == 0)
    sub = Subgroup(K.H, els)
    for h in els:
        for x in K.H.elements:
            if not K.H.commutes(h, x):
                raise NotCentral(f"kernel element {h} does not commute with {x}", witness=(h, x))
    return sub


# ---------------------------------------------------------------------------
# 2-morphisms


@dataclass(frozen=True)
class TwoMorphism:
    """2-morphism source ⇒ target labeled by ``label`` ∈ H, with
    target = ∂(label)·source."""

    K: CrossedModule
    source: int
    label: int

    @property
    def target(self) -> int:
        return self.K.G.mul(self.K._boundary[self.label], self.source)


def vertical_compose(f: TwoMorphism, e: TwoMorphism) -> TwoMorphism:
    """Compose e: g₁ ⇒ g₂ then f: g₂ ⇒ g₃; label f.label·e.label."""
    if f.K != e.K:
        raise NotComposable("2-morphisms over different crossed modules")
    if f.source != e.target:
        raise NotComposable(
            f"source {f.source} of the second 2-morphism ≠ target {e.target} of the first"
        )
    return TwoMorphism(f.K, e.source, f.K.H.mul(f.label, e.label))


def horizontal_compose(f: TwoMorphism, f1: TwoMorphism) -> TwoMorphism:
    """Compose along 1-morphism multiplication: sources multiply, label
    f.label · ^(f.source)f₁.label."""
    if f.K != f1.K:
        raise NotComposable("2-morphisms over different crossed modules")
    K = f.K
    label = K.H.mul(f.label, K.act(f.source, f1.label))
    return TwoMorphism(K, K.G.mul(f.source, f1.source), label)


# ---------------------------------------------------------------------------
# Commuting triples


DEFAULT_TRIPLE_BOUND = 4096


def triples(K: CrossedModule) -> tuple[tuple[int, int, int], ...]:
    """All (a, b, h) with ∂h·a·b = b·a, in lexicographic order; at most
    DEFAULT_TRIPLE_BOUND candidates (a, b, h), else :class:`TooLarge`."""
    G, H = K.G, K.H
    total = G.order * G.order * H.order
    if total > DEFAULT_TRIPLE_BOUND:
        raise TooLarge(f"{total} candidate triples exceed the bound {DEFAULT_TRIPLE_BOUND}")
    out = []
    for a in G.elements:
        for b in G.elements:
            ab, ba = G.mul(a, b), G.mul(b, a)
            for h in H.elements:
                if G.mul(int(K.boundary[h]), ab) == ba:
                    out.append((a, b, h))
    return tuple(out)


def triple_classes(K: CrossedModule) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Conjugation orbits on the commuting triples, each orbit sorted, listed
    by least representative."""
    G = K.G
    return orbit_partition(
        triples(K), lambda t: ((G.conj(g, t[0]), G.conj(g, t[1]), K.act(g, t[2])) for g in G.elements)
    )


# ---------------------------------------------------------------------------
# Serialization


def crossed_from_json(doc: dict, max_order: int = DEFAULT_MAX_ORDER) -> CrossedModule:
    H = group_from_json(require_key(doc, "H", NotAGroup), max_order)
    G = group_from_json(require_key(doc, "G", NotAGroup), max_order)
    return CrossedModule(
        H,
        G,
        require_ints(doc, "boundary", NotAHomomorphism, "boundary", (H.order,), below=G.order),
        require_ints(doc, "action", NotAnAction, "action", (G.order, H.order), below=H.order),
    )


def load_crossed(source: str, max_order: int = DEFAULT_MAX_ORDER) -> CrossedModule:
    return crossed_from_json(load_json(source, "crossed module"), max_order)
