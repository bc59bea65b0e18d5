"""Characters of 2-representations on commuting pairs.

Three independent routes compute the same value:

* ``gk_linear`` — the closed cocycle formula μ(b,a⁻¹)·μ(a⁻¹,b)⁻¹ for a
  single linear decoration;
* ``gk_rep`` / ``gk_osorno`` — transversal and fixed-point sums over a
  decorated set, respectively its permutation-cocycle form;
* ``gk_as_mark`` — evaluation of a mark homomorphism against the subgroup
  generated by the pair.

Two matrix oracles ground the conventions: the twisted regular representation
(monomial matrices over the cocycle-twisted group algebra) recovers
``gk_linear`` by explicit conjugation, and its crossed-module extension
attaches a 2-morphism label h to the conjugation, reducing to the plain
oracle at h = 1.  The oracle's measured projective factor ν is checked equal
to the twist μ entry by entry, apart from the cohomology engine it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .burnside import BurnsideElement, _check_alpha, _pair_mark, basis, mark, pair_json, pair_label
from .cochains import Cochain, differential, is_cocycle
from .crossed import CrossedModule
from .cyclo import CycloInt, RootOfUnity, raise_root_level, sum_roots
from .errors import (
    AlphaIllDefined,
    FormulasDisagree,
    NotACocycle,
    NotCommuting,
    NotNormalized,
    NotScalarMultiple,
    TripleNotInG,
    TwistMismatch,
)
from .groups import (
    FiniteGroup,
    commuting_pair_classes,
    generated_subgroup,
    right_transversal,
    subgroup_group,
)
from .reps import PermCocycleRep, Rep2, linear_classes, to_perm_cocycle


class MonomialMatrix:
    """Square matrix with exactly one root-of-unity entry per row and column:
    entry (perm[j], j) is weights[j]."""

    __slots__ = ("perm", "weights")

    def __init__(self, perm, weights):
        perm = tuple(int(p) for p in perm)
        weights = tuple(weights)
        if sorted(perm) != list(range(len(perm))) or len(weights) != len(perm):
            raise ValueError("permutation and weights must have matching valid shape")
        self.perm = perm
        self.weights = weights

    @property
    def dimension(self) -> int:
        return len(self.perm)

    def __mul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        if not isinstance(other, MonomialMatrix):
            return NotImplemented
        perm = tuple(self.perm[p] for p in other.perm)
        weights = tuple(
            self.weights[p] * w for p, w in zip(other.perm, other.weights)
        )
        return MonomialMatrix(perm, weights)

    def inverse(self) -> "MonomialMatrix":
        d = self.dimension
        perm = [0] * d
        weights: list = [None] * d
        for j, p in enumerate(self.perm):
            perm[p] = j
            weights[p] = self.weights[j].inverse()
        return MonomialMatrix(perm, weights)

    def scale(self, root: RootOfUnity) -> "MonomialMatrix":
        return MonomialMatrix(self.perm, tuple(root * w for w in self.weights))

    def scalar_ratio(self, other: "MonomialMatrix") -> RootOfUnity:
        """The constant λ with self = λ·other; :class:`NotScalarMultiple` if
        the supports differ or the ratio is not constant."""
        if self.perm != other.perm:
            raise NotScalarMultiple("matrices have different supports")
        ratio = self.weights[0] * other.weights[0].inverse()
        for j in range(1, self.dimension):
            if self.weights[j] * other.weights[j].inverse() != ratio:
                raise NotScalarMultiple(
                    f"ratio is not constant at column {j}", witness=j
                )
        return ratio

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialMatrix):
            return NotImplemented
        return self.perm == other.perm and self.weights == other.weights

    def __repr__(self) -> str:
        return f"MonomialMatrix(dim={self.dimension})"


# ---------------------------------------------------------------------------
# The closed formula


def _require_normalized(mu: Cochain):
    if mu.degree != 2:
        raise ValueError("expected a degree-2 cocycle")
    if mu.values[0].any() or mu.values[:, 0].any():
        raise NotNormalized("cocycle does not vanish on identity arguments")


def gk_linear(mu: Cochain, a: int, b: int) -> RootOfUnity:
    """Character of one linear decoration at a commuting pair:
    exponent μ(b, a⁻¹) − μ(a⁻¹, b)."""
    _require_normalized(mu)
    if not mu.group.commutes(a, b):
        raise NotCommuting(f"{a} and {b} do not commute", witness=(a, b))
    return _gk_linear(mu, a, b)


def _gk_linear(mu: Cochain, a: int, b: int) -> RootOfUnity:
    """``gk_linear`` for a normalized μ and a commuting pair, unchecked."""
    ainv = mu.group.inv(a)
    e = (mu.val(b, ainv) - mu.val(ainv, b)) % mu.level
    return RootOfUnity(mu.level, e)


# ---------------------------------------------------------------------------
# Twisted regular representation oracle


@lru_cache(maxsize=None)
def twisted_regular(mu: Cochain):
    """Left multiplication in the μ-twisted group algebra, as monomial
    matrices on the group basis, together with the measured projective
    factor ν: ρ(gh) = ζ^ν(g,h)·ρ(g)·ρ(h).  By the cocycle identity ν = μ
    exactly; it is checked entry by entry, and the first (g, h) where they
    differ raises :class:`TwistMismatch` with witness (g, h)."""
    _require_normalized(mu)
    if not mu.module.is_trivial:
        raise ValueError("the twisting cocycle must take scalar values")
    if not is_cocycle(mu):
        raise NotACocycle("the twisting cochain is not a 2-cocycle")
    G = mu.group
    L = mu.level
    rho = []
    for g in G.elements:
        perm = tuple(G.mul(g, h) for h in G.elements)
        weights = tuple(
            RootOfUnity(L, (-mu.val(g, h)) % L) for h in G.elements
        )
        rho.append(MonomialMatrix(perm, weights))
    rho = tuple(rho)
    nu_values = np.zeros((G.order, G.order, 1), dtype=np.int64)
    for g in G.elements:
        for h in G.elements:
            lam = rho[G.mul(g, h)].scalar_ratio(rho[g] * rho[h])
            nu_values[g, h, 0] = raise_root_level(lam, L).exponent
    bad = np.argwhere(nu_values != mu.values)
    if len(bad):
        g, h = (int(v) for v in bad[0][:2])
        raise TwistMismatch(f"measured projective factor differs from the twist at ({g}, {h})", witness=(g, h))
    return rho, Cochain(mu.module, 2, nu_values)


def oracle_twisted_regular(mu: Cochain, a: int, b: int) -> RootOfUnity:
    """Scalar λ with ρ(a⁻¹)·ρ(b)·ρ(a⁻¹)⁻¹ = λ·ρ(b) in the μ-twisted
    regular representation."""
    G = mu.group
    if not G.commutes(a, b):
        raise NotCommuting(f"{a} and {b} do not commute", witness=(a, b))
    rho, _ = twisted_regular(mu)
    ainv = G.inv(a)
    M = rho[ainv] * rho[b] * rho[ainv].inverse()
    return M.scalar_ratio(rho[b])


# ---------------------------------------------------------------------------
# Crossed-module oracle


class CrossedLinearData:
    """Matrix data for a 2-representation of a crossed module that is scalar
    on the kernel: ρ on G, ω₂ on H, and the projective cocycle ω₃, subject to

    * ρ(g₁g₂) = ω₃(g₁,g₂)·ρ(g₁)·ρ(g₂);
    * ω₂(xy) = ω₃(∂x,∂y)·ω₂(x)·ω₂(y);
    * conjugation by ω₂(x) = conjugation by ρ(∂x) on the image algebra.
    """

    __slots__ = ("K", "rho", "omega2", "omega3")

    def __init__(self, K: CrossedModule, rho, omega2, omega3: Cochain):
        G, H = K.G, K.H
        rho = tuple(rho)
        omega2 = tuple(omega2)
        if len(rho) != G.order or len(omega2) != H.order:
            raise ValueError("need one matrix per group element")
        if omega3.group != G or omega3.degree != 2:
            raise ValueError("omega3 must be a degree-2 cochain over G")
        L = omega3.level
        for g1 in G.elements:
            for g2 in G.elements:
                lam = rho[G.mul(g1, g2)].scalar_ratio(rho[g1] * rho[g2])
                if lam != RootOfUnity(L, omega3.val(g1, g2) % L):
                    raise ValueError(f"projective law fails at ({g1}, {g2})")
        for x in H.elements:
            for y in H.elements:
                dx, dy = int(K.boundary[x]), int(K.boundary[y])
                lam = omega2[H.mul(x, y)].scalar_ratio(omega2[x] * omega2[y])
                if lam != RootOfUnity(L, omega3.val(dx, dy) % L):
                    raise ValueError(f"label law fails at ({x}, {y})")
        for x in H.elements:
            dx = int(K.boundary[x])
            w, winv = omega2[x], omega2[x].inverse()
            r, rinv = rho[dx], rho[dx].inverse()
            for g in G.elements:
                if w * rho[g] * winv != r * rho[g] * rinv:
                    raise ValueError(f"boundary compatibility fails at (x={x}, g={g})")
        self.K = K
        self.rho = rho
        self.omega2 = omega2
        self.omega3 = omega3


def inflation_data(K: CrossedModule, mu: Cochain, tau=None) -> CrossedLinearData:
    """Standard data family: ρ = μ-twisted regular representation of G,
    ω₃ = μ, ω₂ = ρ∘∂ optionally scaled by a character τ of H."""
    if mu.group != K.G:
        raise ValueError("the cocycle must live over the base group of K")
    rho, _ = twisted_regular(mu)
    omega2 = []
    for x in K.H.elements:
        w = rho[int(K.boundary[x])]
        if tau is not None:
            w = w.scale(tau[x])
        omega2.append(w)
    return CrossedLinearData(K, rho, omega2, mu)


def oracle_crossed_linear(data: CrossedLinearData, a: int, b: int, h: int) -> RootOfUnity:
    """Scalar of the conjugation-plus-label operator at a triple (a, b, h)
    with ∂h·a·b = b·a.  At h = 1 this is exactly
    :func:`oracle_twisted_regular`."""
    K = data.K
    G = K.G
    dh = int(K.boundary[h])
    if G.mul(dh, G.mul(a, b)) != G.mul(b, a):
        raise TripleNotInG(f"∂({h})·{a}·{b} ≠ {b}·{a}", witness=(a, b, h))
    rho = data.rho
    ainv = G.inv(a)
    aba = G.conj(a, b)
    conj = rho[ainv] * rho[b] * rho[ainv].inverse()
    S = conj.scalar_ratio(rho[G.conj(ainv, b)])
    L = data.omega3.level
    w3 = RootOfUnity(L, data.omega3.val(dh, aba) % L)
    M = (data.omega2[h] * rho[aba]).scale(w3 * S)
    return M.scalar_ratio(rho[b])


# ---------------------------------------------------------------------------
# Character sums over decorated sets


def gk_rep(r: Rep2, a: int, b: int) -> CycloInt:
    """Transversal sum: over each orbit, the linear values at the conjugated
    pair, summed over transversal points carrying both elements into the
    stabilizer."""
    G = r.group
    if not G.commutes(a, b):
        raise NotCommuting(f"{a} and {b} do not commute", witness=(a, b))
    roots = []
    for o in r.orbits:
        P = o.subgroup
        mu = None
        _, to_sub, _ = subgroup_group(P)
        for t in right_transversal(G, P):
            at, bt = G.conj(t, a), G.conj(t, b)
            if to_sub[at] >= 0 and to_sub[bt] >= 0:
                if mu is None:              # checked once, at its first use
                    mu = o.cocycle
                    _require_normalized(mu)
                # conjugates of a commuting pair commute
                roots.append(_gk_linear(mu, int(to_sub[at]), int(to_sub[bt])))
    return sum_roots(roots)


def gk_osorno(p: PermCocycleRep, a: int, b: int) -> CycloInt:
    """Fixed-point sum over the permutation-cocycle form: common fixed points
    x contribute θ^x(b, a⁻¹) − θ^x(a⁻¹, b)."""
    G = p.group
    if not G.commutes(a, b):
        raise NotCommuting(f"{a} and {b} do not commute", witness=(a, b))
    act = p.point_action
    vals = p.theta.values
    L = p.theta.level
    ainv = G.inv(a)
    # Python ints from here on: .tolist() of the int64 rows
    plus, minus = vals[b, ainv].tolist(), vals[ainv, b].tolist()
    return sum_roots(
        RootOfUnity(L, (plus[x] - minus[x]) % L)
        for x, (xa, xb) in enumerate(zip(act[a].tolist(), act[b].tolist()))
        if xa == x == xb
    )


def _gk_mark(G: FiniteGroup, a: int, b: int):
    """The mark pair (P, α) of the pair (a, b): P = ⟨a, b⟩, α the character
    sending each decoration class over P to its gk_linear value at (a, b)."""
    if not G.commutes(a, b):
        raise NotCommuting(f"{a} and {b} do not commute", witness=(a, b))
    P = generated_subgroup(G, (a, b))
    _, to_sub, _ = subgroup_group(P)
    a_s, b_s = int(to_sub[a]), int(to_sub[b])
    alpha = []
    for i, rep in enumerate(linear_classes(P).representatives):
        root = gk_linear(rep, a_s, b_s)
        # well-definedness on the class: a coboundary shift must not move it
        probe = Cochain(rep.module, 1, (np.arange(rep.group.order) % rep.level)[:, None])
        shifted = rep + differential(probe)
        if gk_linear(shifted, a_s, b_s) != root:
            raise AlphaIllDefined(f"class {i} gives inconsistent values", witness=i)
        alpha.append(root)
    return P, tuple(alpha)


def gk_as_mark(a: int, b: int, u: BurnsideElement) -> CycloInt:
    """Mark-homomorphism route: the mark of u at (P, α) = ``_gk_mark(a, b)``."""
    return mark(*_gk_mark(u.group, a, b), u)


# ---------------------------------------------------------------------------
# Character tables


@dataclass(frozen=True)
class CharTable:
    group: FiniteGroup
    pairs: tuple[tuple[int, int], ...]
    columns: tuple
    entries: tuple[tuple[CycloInt, ...], ...]


def char_table(G: FiniteGroup, verify: bool = True) -> CharTable:
    """Rows: commuting-pair classes; columns: basis pairs; entries: exact
    cyclotomic character values.  With ``verify`` the table is checked by
    :func:`verify_char_table`."""
    pairs = tuple(cls.representative for cls in commuting_pair_classes(G))
    cols = basis(G)
    rows = [_gk_mark(G, a, b) for a, b in pairs]  # one α per row, checked once
    for P, alpha in rows:
        _check_alpha(P, alpha)
    entries = tuple(tuple(_pair_mark(P, alpha, c) for c in cols) for P, alpha in rows)
    table = CharTable(G, pairs, cols, entries)
    if verify:
        verify_char_table(table)
    return table


def verify_char_table(t: CharTable) -> None:
    """Re-derive every entry through the transversal and fixed-point
    formulas, row by row; raises :class:`FormulasDisagree` at the first entry
    where the three values differ, with the witness (a, b, column, mark
    value, transversal value, fixed-point value)."""
    reps = [Rep2(t.group, (pair,)) for pair in t.columns]
    perms = [to_perm_cocycle(r) for r in reps]
    for (a, b), row in zip(t.pairs, t.entries):
        for j, v in enumerate(row):
            v1 = gk_rep(reps[j], a, b)
            v2 = gk_osorno(perms[j], a, b)
            if not v == v1 == v2:
                raise FormulasDisagree(
                    f"character formulas disagree at pair ({a},{b}), column {j}",
                    witness=(a, b, j, v, v1, v2),
                )


def char_table_to_csv(t: CharTable, numeric: bool = False) -> str:
    def fmt(v: CycloInt) -> str:
        if numeric:
            z = v.to_complex()
            return f"{z.real:.6f}{z.imag:+.6f}j"
        return str(v)

    lines = [",".join(["pair"] + [pair_label(c) for c in t.columns])]
    for (a, b), row in zip(t.pairs, t.entries):
        lines.append(",".join([f"({a};{b})"] + [fmt(v) for v in row]))
    return "\n".join(lines) + "\n"


def char_table_to_json(t: CharTable) -> dict:
    from .cyclo import cyclo_to_json

    return {
        "group": t.group.name,
        "pairs": [[a, b] for a, b in t.pairs],
        "columns": [pair_json(c) for c in t.columns],
        "entries": [[cyclo_to_json(v) for v in row] for row in t.entries],
    }
