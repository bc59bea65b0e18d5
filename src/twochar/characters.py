"""Characters of 2-representations on commuting pairs.

Three independent routes compute the same value:

* ``gk_linear`` — the closed cocycle formula μ(b,a⁻¹)·μ(a⁻¹,b)⁻¹ for a
  single linear decoration;
* ``gk_rep`` / ``gk_osorno`` — transversal and fixed-point sums over a
  decorated set, respectively its permutation-cocycle form;
* ``gk_as_mark`` — evaluation of a mark homomorphism against the subgroup
  generated by the pair.

One matrix oracle grounds the conventions: the twisted regular
representation (monomial matrices over the cocycle-twisted group algebra)
recovers ``gk_linear`` by explicit conjugation.  Its measured projective
factor ν is checked equal to the twist μ entry by entry, apart from the
cohomology engine it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .burnside import BurnsideElement, _check_alpha, _pair_mark, basis, mark, pair_json, pair_label
from .cochains import Cochain, differential, is_cocycle
from .cyclo import CycloInt, RootOfUnity, raise_root_level, sum_roots
from .errors import (
    AlphaIllDefined,
    FormulasDisagree,
    NotACocycle,
    NotCommuting,
    NotNormalized,
    NotScalarMultiple,
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
    """Left multiplication ρ in the μ-twisted group algebra, as monomial
    matrices on the group basis.  Its measured projective factor ν, with
    ρ(gh) = ζ^ν(g,h)·ρ(g)·ρ(h), equals μ by the cocycle identity; it is
    checked entry by entry, and the first (g, h) where they differ raises
    :class:`TwistMismatch` with witness (g, h)."""
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
    return rho


def oracle_twisted_regular(mu: Cochain, a: int, b: int) -> RootOfUnity:
    """Scalar λ with ρ(a⁻¹)·ρ(b)·ρ(a⁻¹)⁻¹ = λ·ρ(b) in the μ-twisted
    regular representation."""
    G = mu.group
    if not G.commutes(a, b):
        raise NotCommuting(f"{a} and {b} do not commute", witness=(a, b))
    rho = twisted_regular(mu)
    ainv = G.inv(a)
    M = rho[ainv] * rho[b] * rho[ainv].inverse()
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
