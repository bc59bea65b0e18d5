"""Characters of 2-representations on commuting pairs.

Three independent routes compute the same value:

* ``gk_linear`` — the closed cocycle formula μ(b,a⁻¹)·μ(a⁻¹,b)⁻¹ for a
  single linear decoration;
* ``gk_rep`` / ``gk_osorno`` — transversal and fixed-point sums over a
  decorated set, respectively its permutation-cocycle form;
* ``gk_as_mark`` — evaluation of a mark homomorphism against the subgroup
  generated by the pair, whose weight α is the closed formula read at each
  class representative (it is constant on classes, so nothing is probed).

The character table takes the mark, transversal and fixed-point routes a
whole column of rows at a time, as integer exponent histograms.  Its
entries are the marks: one count matrix per row subgroup times the one-hot
exponents of each row's α (``burnside._mark_rows``).  :func:`verify_char_table`
re-derives each column by the transversal and fixed-point sums, gathered
from the group table and the decoration's values, and compares the three
as coordinates at level |G|.  The scalar functions above answer single
queries and replay the one cell where the columns disagree, so a
disagreement is reported with the scalar values as its witness.

One matrix oracle grounds the conventions: the twisted regular
representation over the cocycle-twisted group algebra recovers
``gk_linear`` by explicit conjugation.  Its matrices are monomial, each kept
as a (permutation, exponents) pair of int tuples at μ's level, so a product,
an inverse or a scalar ratio is exponent arithmetic mod that level.  Its
measured projective factor ν is checked equal to the twist μ entry by
entry, apart from the cohomology engine it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .burnside import BurnsideElement, _check_alpha, _mark_rows, basis, mark, pair_json, pair_label
from .cochains import Cochain, is_cocycle
from .cyclo import CycloInt, RootOfUnity, _powers_array, sum_roots
from .errors import (
    FormulasDisagree,
    InternalFault,
    NotACocycle,
    NotAMultiple,
    NotCommuting,
    NotNormalized,
    NotScalarMultiple,
    TwistMismatch,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    commuting_pair_classes,
    generated_subgroup,
    right_transversal,
    subgroup_group,
)
from .reps import Orbit, PermCocycleRep, Rep2, linear_classes, to_perm_cocycle


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
#
# A monomial matrix at level L is a pair (perm, exponents) of int tuples:
# entry (perm[j], j) is ζ_L^exponents[j], every other entry is 0.


def _monomial_product(x, y, L: int):
    """The product x·y of two monomial matrices at level L."""
    (p, e), (q, f) = x, y
    return tuple(p[i] for i in q), tuple((e[i] + k) % L for i, k in zip(q, f))


def _monomial_inverse(x, L: int):
    """The inverse of a monomial matrix at level L."""
    p, e = x
    perm, exponents = [0] * len(p), [0] * len(p)
    for j, i in enumerate(p):
        perm[i], exponents[i] = j, -e[j] % L
    return tuple(perm), tuple(exponents)


def _monomial_ratio(x, y, L: int) -> int:
    """The exponent k with x = ζ_L^k·y; :class:`NotScalarMultiple` if the
    supports differ or the ratio is not constant."""
    if x[0] != y[0]:
        raise NotScalarMultiple("matrices have different supports")
    (_, e), (_, f) = x, y
    k = (e[0] - f[0]) % L
    for j in range(1, len(e)):
        if (e[j] - f[j]) % L != k:
            raise NotScalarMultiple(f"ratio is not constant at column {j}", witness=j)
    return k


@lru_cache(maxsize=None)
def twisted_regular(mu: Cochain):
    """Left multiplication ρ in the μ-twisted group algebra, as monomial
    matrices on the group basis at μ's level.  Its measured projective
    factor ν, with ρ(gh) = ζ^ν(g,h)·ρ(g)·ρ(h), equals μ by the cocycle
    identity; it is checked entry by entry, and the first (g, h) in
    row-major order where they differ raises :class:`TwistMismatch` with
    witness (g, h)."""
    _require_normalized(mu)
    if not mu.module.is_trivial:
        raise ValueError("the twisting cocycle must take scalar values")
    if not is_cocycle(mu):
        raise NotACocycle("the twisting cochain is not a 2-cocycle")
    G = mu.group
    L = mu.level
    rho = tuple(
        (tuple(G.mul(g, h) for h in G.elements), tuple(-mu.val(g, h) % L for h in G.elements))
        for g in G.elements
    )
    for g in G.elements:
        for h in G.elements:
            if _monomial_ratio(rho[G.mul(g, h)], _monomial_product(rho[g], rho[h], L), L) != mu.val(g, h):
                raise TwistMismatch(f"measured projective factor differs from the twist at ({g}, {h})", witness=(g, h))
    return rho


def oracle_twisted_regular(mu: Cochain, a: int, b: int) -> RootOfUnity:
    """Scalar λ with ρ(a⁻¹)·ρ(b)·ρ(a⁻¹)⁻¹ = λ·ρ(b) in the μ-twisted
    regular representation."""
    G = mu.group
    if not G.commutes(a, b):
        raise NotCommuting(f"{a} and {b} do not commute", witness=(a, b))
    rho = twisted_regular(mu)
    L = mu.level
    ainv = G.inv(a)
    M = _monomial_product(_monomial_product(rho[ainv], rho[b], L), _monomial_inverse(rho[ainv], L), L)
    return RootOfUnity(L, _monomial_ratio(M, rho[b], L))


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
    sending each decoration class over P to its gk_linear value at (a, b).

    The value is one per class: for commuting a, b a coboundary dπ adds
    dπ(b, a⁻¹) − dπ(a⁻¹, b) = π(a⁻¹b) − π(ba⁻¹) = 0, so α reads the
    formula at each class representative."""
    if not G.commutes(a, b):
        raise NotCommuting(f"{a} and {b} do not commute", witness=(a, b))
    P, a_s, b_s = _pair_subgroup(G, a, b)
    # class representatives are normalized, and a_s, b_s commute
    return P, tuple(_gk_linear(rep, a_s, b_s) for rep in linear_classes(P).representatives)


@lru_cache(maxsize=None)
def _pair_subgroup(G: FiniteGroup, a: int, b: int) -> tuple[Subgroup, int, int]:
    """P = ⟨a, b⟩ and the labels of a and b in P relabeled as a group."""
    P = generated_subgroup(G, (a, b))
    _, to_sub, _ = subgroup_group(P)
    return P, int(to_sub[a]), int(to_sub[b])


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
    cyclotomic character values, the marks at each row's (P, α)
    (``burnside._mark_rows``).  With ``verify`` the table is checked by
    :func:`verify_char_table`."""
    pairs = tuple(cls.representative for cls in commuting_pair_classes(G))
    cols = basis(G)
    rows = [_gk_mark(G, a, b) for a, b in pairs]  # one α per row, checked once
    for P, alpha in rows:
        _check_alpha(P, alpha)
    table = CharTable(G, pairs, cols, tuple(_mark_rows(cols, rows)))
    if verify:
        verify_char_table(table)
    return table


def verify_char_table(t: CharTable) -> None:
    """Re-derive every entry through the transversal and fixed-point
    formulas, one column at a time, as exponent histograms of all rows.

    The three routes share only the group tables and the decorations.  Each
    is folded to coordinates at level |G|, where every entry lies (its level
    divides |G|), and the embedding is injective, so equal coordinates are
    equal values.  The first cell in row-major order where they differ is
    replayed through the scalar :func:`gk_rep` and :func:`gk_osorno`:
    :class:`FormulasDisagree` with the witness (a, b, column, mark value,
    transversal value, fixed-point value) if the values differ there, else
    :class:`~twochar.errors.InternalFault` with the witness (a, b, column)."""
    G, n = t.group, t.group.order
    A = np.array([a for a, _ in t.pairs], dtype=np.int64)
    B = np.array([b for _, b in t.pairs], dtype=np.int64)
    apart = np.flatnonzero(G.table[A, B] != G.table[B, A])
    if len(apart):
        a, b = t.pairs[apart[0]]
        raise NotCommuting(f"{a} and {b} do not commute", witness=(a, b))
    first = None  # (row, column) of the first disagreement in row-major order
    Q = hits = None
    for j, pair in enumerate(t.columns):
        if pair.subgroup != Q:
            Q, hits = pair.subgroup, _transversal_hits(G, A, B, pair.subgroup)
        marks = _mark_column([row[j] for row in t.entries], n)
        differ = (marks != _transversal_column(hits, pair, len(A), n)).any(axis=1)
        differ |= (marks != _fixed_point_column(G, A, B, pair, n)).any(axis=1)
        i = np.flatnonzero(differ)
        if len(i) and (first is None or i[0] < first[0]):
            first = (int(i[0]), j)
    if first is not None:
        _replay(t, *first)


def _fold_histograms(rows: np.ndarray, exponents: np.ndarray, count: int, n: int) -> np.ndarray:
    """Coordinates at level n of ``count`` sums of roots of unity: ζ_n to
    each exponent, added into the sum of its row."""
    hist = np.bincount(rows * n + exponents, minlength=count * n).reshape(count, n)
    return hist @ _powers_array(n)


def _mark_column(values: list[CycloInt], n: int) -> np.ndarray:
    """Coordinates at level n of one column of table entries: an entry at
    level l is Σ c_k·ζ_l^k = Σ c_k·ζ_n^(k·n/l); :class:`NotAMultiple`
    unless l divides n."""
    W = _powers_array(n)
    at_level: dict = {}
    for i, v in enumerate(values):
        at_level.setdefault(v.level, []).append(i)
    out = np.zeros((len(values), W.shape[1]), dtype=np.int64)
    for level, at in at_level.items():
        if n % level:
            raise NotAMultiple(f"{n} is not a multiple of level {level}")
        coeffs = np.array([values[i].coeffs for i in at], dtype=np.int64).reshape(len(at), -1)
        out[at] = coeffs @ W[np.arange(coeffs.shape[1]) * (n // level)]
    return out


def _transversal_hits(G: FiniteGroup, A: np.ndarray, B: np.ndarray, Q: Subgroup):
    """For every right transversal point t of Q and row (a, b) with t·a·t⁻¹
    and t·b·t⁻¹ both in Q: the row, and the two conjugates as elements of
    the relabeled Q — one gather on the group table for all of them."""
    T = np.array(right_transversal(G, Q), dtype=np.int64)[:, None]
    tinv = G.inverse[T]
    _, to_sub, _ = subgroup_group(Q)
    a_t = to_sub[G.table[G.table[T, A], tinv]]
    b_t = to_sub[G.table[G.table[T, B], tinv]]
    points, rows = np.nonzero((a_t >= 0) & (b_t >= 0))
    return rows, a_t[points, rows], b_t[points, rows]


def _transversal_column(hits, pair: Orbit, count: int, n: int) -> np.ndarray:
    """:func:`gk_rep` of the one-orbit representation of ``pair`` at every
    row, as coordinates at level n: the exponents μ(b, a⁻¹) − μ(a⁻¹, b) at
    the conjugated pairs of :func:`_transversal_hits`, summed per row."""
    rows, a_s, b_s = hits
    mu = pair.cocycle
    if len(rows):
        _require_normalized(mu)
    vals = mu.values[:, :, 0]
    ainv = mu.group.inverse[a_s]
    exponents = (vals[b_s, ainv] - vals[ainv, b_s]) % mu.level
    return _fold_histograms(rows, exponents * (n // mu.level), count, n)


def _fixed_point_column(G: FiniteGroup, A: np.ndarray, B: np.ndarray, pair: Orbit, n: int) -> np.ndarray:
    """:func:`gk_osorno` of the permutation-cocycle form of ``pair`` at every
    row, as coordinates at level n: the exponents θ^x(b, a⁻¹) − θ^x(a⁻¹, b)
    at the points x that both a and b fix, summed per row."""
    p = to_perm_cocycle(Rep2(G, (pair,)))
    act, vals, L = p.point_action, p.theta.values, p.theta.level
    points = np.arange(act.shape[1])
    rows, x = np.nonzero((act[A] == points) & (act[B] == points))
    a_inv, b = G.inverse[A][rows], B[rows]
    exponents = (vals[b, a_inv, x] - vals[a_inv, b, x]) % L
    return _fold_histograms(rows, exponents * (n // L), len(A), n)


def _replay(t: CharTable, i: int, j: int):
    """Raise for the cell (i, j) where the array routes disagree, after
    recomputing it through the scalar formulas."""
    (a, b), pair, v = t.pairs[i], t.columns[j], t.entries[i][j]
    r = Rep2(t.group, (pair,))
    v1, v2 = gk_rep(r, a, b), gk_osorno(to_perm_cocycle(r), a, b)
    if not v == v1 == v2:
        raise FormulasDisagree(
            f"character formulas disagree at pair ({a},{b}), column {j}",
            witness=(a, b, j, v, v1, v2),
        )
    raise InternalFault(
        f"the array routes disagree at pair ({a},{b}), column {j}, where the scalar formulas agree",
        witness=(a, b, j),
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
