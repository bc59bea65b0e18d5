"""Invariant suites: the identities behind twochar's answers, checked on
seeded inputs.

* ``shapiro`` — the coset-transfer identities (φ∘ψ = 1, ψ and φ are chain
  maps, ψ∘φ − 1 = dϖ + ϖd) on random cochains;
* ``oracle`` — the closed 2-character formula against the twisted-regular
  oracle on every Schur class and commuting pair;
* ``burnside`` — the ring laws of the decorated Burnside ring and nonzero
  mark determinants;
* ``crossed`` — validation, π₁/π₂, triple counts and the exhaustive
  interchange law of the bundled crossed modules.

Each suite is a function of ``(seed, iters, poison, max_order)``.  With
``poison`` it corrupts one value chosen by the seed, so that the failure
shows up as a witness line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .burnside import basis, basis_element, determinant, identity_element, mark_matrix, mul, scale
from .characters import gk_linear, oracle_twisted_regular
from .cochains import Cochain, GModule, _draws, differential, direct_sum, schur_classes
from .crossed import TwoMorphism, crossed_from_json, horizontal_compose, load_crossed, pi1, pi2, triples
from .crossed import vertical_compose
from .errors import InternalFault, NotComposable, TwoCharError
from .groups import DEFAULT_MAX_ORDER, FiniteGroup, all_subgroups, load_group, load_json, subgroup_group
from .groups import trivial_subgroup
from .reps import Orbit
from .shapiro import ShapiroContext, homotopy_varpi, phi, psi


@dataclass(frozen=True)
class SuiteResult:
    """``lines`` is the report, ending in the witness of the first failed
    identity if any; ``checks`` counts the identities compared."""

    ok: bool
    lines: tuple[str, ...]
    checks: int


def _fail(lines, witness: str, checks: int) -> SuiteResult:
    return SuiteResult(False, (*lines, f"witness: {witness}"), checks)


# Cells of one stacked degree-(n+1) cochain over the coinduced module: the
# bound on a stack's size, and so on the memory of its arrays and indices.
STACK_CELLS = 2**14

_SHAPIRO_WITNESSES = (
    "transfer round trip failed for {G}, subgroup {Q}, {kind} module, degree {n}",
    "push/differential mismatch ({G}, {kind}, degree {n})",
    "pull/differential mismatch ({G}, {kind}, degree {n})",
    "homotopy identity failed ({G}, {kind}, degree {n})",
)


def stacked_draw(rng, ctx: ShapiroContext, degree: int, copies: int) -> tuple[Cochain, Cochain]:
    """μ over ``ctx.M`` and c over ``ctx.coinduced`` (both sums of
    ``copies`` copies) whose copy b is the b-th pair of the alternating draws
    ``random_cochain(M)``, ``random_cochain(coinduced)`` of the unstacked
    module: μ and c share the level, so the pairs are one stream."""
    B, L = copies, ctx.M.level
    q, m = ctx.qgrp.order, ctx.G.order
    Y, X = ctx.Y // B, ctx.X // B
    r = q**degree * Y
    rows = _draws(rng, L, B * (r + m**degree * X)).reshape(B, -1)

    def stack(cells, module, n_el, size):
        vals = cells.reshape(B, -1, size).transpose(1, 2, 0).reshape((n_el,) * degree + (size * B,))
        return Cochain._make(module, degree, vals)

    return stack(rows[:, :r], ctx.M, q, Y), stack(rows[:, r:], ctx.coinduced, m, X)


def first_failure(mask: np.ndarray) -> tuple[int, int] | None:
    """(copy, identity) of the first True of an (identities, copies) mask in
    copy-major order, the order the unstacked loop checks them in."""
    hits = np.argwhere(mask.T)
    return (int(hits[0, 0]), int(hits[0, 1])) if len(hits) else None


def _differs(a: Cochain, b: Cochain, copies: int) -> np.ndarray:
    return (a.values != b.values).reshape(-1, copies).any(axis=0)


def shapiro(seed=0, iters=200, poison=False, max_order=DEFAULT_MAX_ORDER) -> SuiteResult:
    """Each configuration draws its ``iters`` cochain pairs in stacks of B:
    one cochain over M^⊕B, whose coinduced module is the B-fold sum of M's,
    carries B pairs through the four identities at once."""
    rng = random.Random(seed)
    corpus = []
    for gname, picker in (
        ("s3", lambda G: next(P for P in all_subgroups(G) if P.order == 3)),
        ("s3", lambda G: next(P for P in all_subgroups(G) if P.order == 2)),
        ("d4", lambda G: next(P for P in all_subgroups(G) if P.order == 4 and max(G.order_of(g) for g in P.elements) == 4)),
        ("z4", lambda G: next(P for P in all_subgroups(G) if P.order == 2)),
    ):
        G = load_group(gname, max_order)
        corpus.append((G, picker(G)))
    checked = 0
    configs = 0
    poison_at = rng.randrange(len(corpus) * 4) if poison else -1
    for G, Q in corpus:
        qgrp, _, _ = subgroup_group(Q)
        translation = qgrp.table  # left translation of Q on itself
        for kind, module in (
            ("trivial", GModule.trivial(qgrp, 6)),
            ("permutation", GModule.permutation(qgrp, translation, 4)),
        ):
            X = G.order // Q.order * module.size
            for degree in (1, 2):
                cfg_index = configs
                configs += 1
                contexts = {}
                done = 0
                while done < iters:
                    B = min(iters - done, max(1, STACK_CELLS // (G.order ** (degree + 1) * X)))
                    if B not in contexts:
                        contexts[B] = ShapiroContext(G, Q, direct_sum(module, B))
                    ctx = contexts[B]
                    mu, c = stacked_draw(rng, ctx, degree, B)
                    down = psi(ctx, mu)
                    if cfg_index == poison_at:
                        bad = down.values.copy()
                        bad.flat[:B] = (bad.flat[:B] + 1) % module.level  # entry 0 of every copy
                        down = Cochain(down.module, down.degree, bad)
                    dc, pc = differential(c), phi(ctx, c)
                    mask = np.stack((
                        _differs(phi(ctx, down), mu, B),
                        _differs(differential(down), psi(ctx, differential(mu)), B),
                        _differs(differential(pc), phi(ctx, dc), B),
                        _differs(psi(ctx, pc) - c, differential(homotopy_varpi(ctx, c)) + homotopy_varpi(ctx, dc), B),
                    ))
                    hit = first_failure(mask)
                    if hit is not None:
                        b, i = hit
                        witness = _SHAPIRO_WITNESSES[i].format(G=G.name, Q=list(Q.elements), kind=kind, n=degree)
                        return _fail((), witness, checked + 4 * b)
                    checked += 4 * B
                    done += B
    lines = ("max degree: 2", f"configurations: {configs}", f"cochain checks: {checked}")
    return SuiteResult(True, lines, checked)


def oracle(seed=0, iters=200, poison=False, max_order=DEFAULT_MAX_ORDER) -> SuiteResult:
    """``iters`` is unused: every pair is compared."""
    rng = random.Random(seed)
    names = ("v4", "z4", "d4", "q8")
    poison_target = rng.randrange(len(names)) if poison else -1
    compared = 0
    for gi, name in enumerate(names):
        G = load_group(name, max_order)
        sc = schur_classes(G)
        for ci, mu in enumerate(sc.representatives):
            probe = mu
            flip = None
            if gi == poison_target and ci == len(sc.representatives) - 1:
                pairs = [
                    (a, b)
                    for a in G.elements
                    for b in G.elements
                    if a != 0 and b != 0 and G.commutes(a, b)
                ]
                a0, b0 = pairs[rng.randrange(len(pairs))]
                bad = mu.values.copy()
                pos = (b0, G.inv(a0), 0)
                bad[pos] = (bad[pos] + 1) % mu.level
                probe = Cochain(mu.module, 2, bad)
                flip = (a0, b0)
            for a in G.elements:
                for b in G.elements:
                    if not G.commutes(a, b):
                        continue
                    compared += 1
                    if gk_linear(probe, a, b) != oracle_twisted_regular(mu, a, b):
                        return _fail(
                            (),
                            f"formula/oracle mismatch at {G.name}, class {ci}, pair ({a},{b})"
                            + (f" [injected flip near pair {flip}]" if flip else ""),
                            compared,
                        )
    return SuiteResult(True, (f"groups: {', '.join(names)}", f"pairs compared: {compared}"), compared)


def ring_laws(G: FiniteGroup, index_triples, poison_at=-1) -> tuple[str | None, int]:
    """Check the ring laws of the decorated Burnside ring on its basis: the
    free point squares to |G| times itself, the identity is neutral, every
    two basis elements commute, and the basis-index ``index_triples``
    associate.  Return the first failure's witness text (None if all hold)
    and the number of comparisons made.  ``poison_at`` bumps one coefficient
    of the product in the commutativity comparison of that index."""
    els = [basis_element(G, p) for p in basis(G)]
    e = identity_element(G)
    pt = basis_element(G, Orbit(trivial_subgroup(G), 0))
    checks = 1
    if mul(pt, pt) != scale(G.order, pt):
        return f"free-point square law fails for {G.name}", checks
    for i, a in enumerate(els):
        checks += 2
        if mul(e, a) != a or mul(a, e) != a:
            return f"identity law fails at {G.name} pair {i}", checks
        for j, b in enumerate(els):
            left = mul(a, b)
            if i * len(els) + j == poison_at:
                some = next(iter(left.coefficients))
                bumped = dict(left.coefficients)
                bumped[some] = bumped[some] + 1
                left = type(left)(G, bumped)
            checks += 1
            if left != mul(b, a):
                return f"commutativity fails at {G.name} pairs ({i},{j})", checks
    for i, j, k in index_triples:
        checks += 1
        if mul(mul(els[i], els[j]), els[k]) != mul(els[i], mul(els[j], els[k])):
            return f"associativity fails at {G.name} triple ({i},{j},{k})", checks
    return None, checks


def burnside(seed=0, iters=200, poison=False, max_order=DEFAULT_MAX_ORDER) -> SuiteResult:
    rng = random.Random(seed)
    law_groups = ("v4", "s3", "d4")
    det_groups = ("v4", "z4", "s3", "d4", "q8")
    poison_pick = rng.randrange(100) if poison else -1
    checks = 0
    for name in law_groups:
        G = load_group(name, max_order)
        n = len(basis(G))
        sampled = ((rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(iters))
        witness, k = ring_laws(G, sampled, poison_pick)
        checks += k
        if witness is not None:
            return _fail((), witness, checks)
        poison_pick -= n * n
    dets = []
    for name in det_groups:
        G = load_group(name, max_order)
        det = determinant(mark_matrix(G)[2])
        if det.is_zero():
            return _fail((), f"singular mark matrix for {G.name}", checks)
        dets.append(f"{G.name}: {det}")
    lines = (f"law groups: {', '.join(law_groups)}", f"mark determinants: {'; '.join(dets)}")
    return SuiteResult(True, lines, checks)


def interchange_tables(K) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Code the 2-morphism of K with source s and label l as s·|H| + l.
    Return ``tgt``, the target of each code, and ``hc`` and ``vc``, the codes
    of ``horizontal_compose(f, e)`` and ``vertical_compose(f, e)`` for every
    pair of codes (−1 where the latter raises :class:`NotComposable`), each
    computed once by the library's own functions."""
    nh = K.H.order
    ms = [TwoMorphism(K, s, l) for s in K.G.elements for l in K.H.elements]

    def code(m: TwoMorphism) -> int:
        return m.source * nh + m.label

    def vertical(f, e) -> int:
        try:
            return code(vertical_compose(f, e))
        except NotComposable:
            return -1

    tgt = np.array([m.target for m in ms], dtype=np.int64)
    hc = np.array([[code(horizontal_compose(f, e)) for e in ms] for f in ms], dtype=np.int64)
    vc = np.array([[vertical(f, e) for e in ms] for f in ms], dtype=np.int64)
    return tgt, hc, vc


def first_interchange_failure(K) -> tuple[int, tuple[int, ...]] | None:
    """The C-order index and the tuple (g₁, g₂, h₁, h₂, h₃, h₄) of the first
    tuple on which the interchange law
    (f₁∘e₁) * (f₂∘e₂) = (f₁ * f₂)∘(e₁ * e₂), with e₁ = (g₁, h₁), f₁ = (tgt e₁, h₂),
    e₂ = (g₂, h₃) and f₂ = (tgt e₂, h₄), fails or meets a composite that is
    not defined; None if it holds on all |G|²|H|⁴ tuples.  Every tuple is
    compared by gathers from :func:`interchange_tables`."""
    tgt, hc, vc = interchange_tables(K)
    ng, nh = K.G.order, K.H.order
    g1, g2, h1, h2, h3, h4 = np.ix_(*(np.arange(n) for n in (ng, ng, nh, nh, nh, nh)))
    e1, e2 = g1 * nh + h1, g2 * nh + h3
    f1, f2 = tgt[e1] * nh + h2, tgt[e2] * nh + h4
    up, down = vc[f1, e1], vc[f2, e2]
    rhs = vc[hc[f1, f2], hc[e1, e2]]
    # an undefined side fails: up or down is −1, or rhs is −1, which no
    # horizontal code equals
    hits = np.flatnonzero((up < 0) | (down < 0) | (hc[up, down] != rhs))
    if not len(hits):
        return None
    index = int(hits[0])
    return index, tuple(int(v) for v in np.unravel_index(index, rhs.shape))


def _interchange_holds(K, g1, g2, h1, h2, h3, h4) -> bool:
    """The interchange law on one tuple, by the scalar compose functions."""
    e1 = TwoMorphism(K, g1, h1)
    f1 = TwoMorphism(K, e1.target, h2)
    e2 = TwoMorphism(K, g2, h3)
    f2 = TwoMorphism(K, e2.target, h4)
    lhs = horizontal_compose(vertical_compose(f1, e1), vertical_compose(f2, e2))
    rhs = vertical_compose(horizontal_compose(f1, f2), horizontal_compose(e1, e2))
    return lhs == rhs


def crossed(seed=0, iters=200, poison=False, max_order=DEFAULT_MAX_ORDER) -> SuiteResult:
    """``iters`` is unused: the interchange law is checked on every tuple
    of modules with |G|·|H| ≤ 64 (:func:`first_interchange_failure`).  A
    failing tuple is replayed through the scalar compose functions, so an
    exception they raise there escapes as it would in a per-tuple loop."""
    rng = random.Random(seed)
    expectations = (("crossed_z2_z4", 2, 1, 16), ("crossed_inner_s3", 1, 1, 36))
    poison_target = rng.randrange(len(expectations)) if poison else -1
    lines = []
    checks = 0
    for ki, (name, p1, p2, nt) in enumerate(expectations):
        K = load_crossed(name, max_order)
        if ki == poison_target:
            doc = load_json(name, "crossed module")
            g = 1 + rng.randrange(len(doc["action"]) - 1)
            x = rng.randrange(len(doc["action"][0]))
            doc["action"][g][x] = (doc["action"][g][x] + 1) % len(doc["action"][0])
            try:
                K = crossed_from_json(doc, max_order)
            except TwoCharError as exc:
                return _fail(lines, f"{name} rejected: {type(exc).__name__} at {exc.witness} [injected]", checks)
        if pi1(K).order != p1 or pi2(K).order != p2:
            return _fail(lines, f"{name} has unexpected fundamental groups", checks)
        if len(triples(K)) != nt:
            return _fail(lines, f"{name} has {len(triples(K))} triples, expected {nt}", checks)
        if K.G.order * K.H.order <= 64:
            at = first_interchange_failure(K)
            if at is None:
                checks += K.G.order**2 * K.H.order**4
            else:
                index, tup = at
                if _interchange_holds(K, *tup):
                    raise InternalFault(f"the compose functions satisfy the law in {name} at {tup}", witness=tup)
                witness = f"interchange fails in {name} at ({','.join(map(str, tup))})"
                return _fail(lines, witness, checks + index + 1)
        lines.append(f"{name}: valid, pi1 order {p1}, pi2 order {p2}, triples {nt}")
    return SuiteResult(True, tuple(lines), checks)


SUITES = {"shapiro": shapiro, "oracle": oracle, "burnside": burnside, "crossed": crossed}
