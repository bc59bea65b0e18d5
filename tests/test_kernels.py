"""The cochain, transfer and group kernels against reference copies of the
numpy-call formulations they replaced: ``np.take``/``np.moveaxis`` for the
differential, the per-row loop for the normalized boundary matrices,
per-call index arithmetic for ψ, φ and ϖ, the per-point loop for the
coinduced action, and numpy scalar lookups for the group operations.
Values must agree byte for byte.  On a direct sum M^⊕B every kernel must
give the stack of its per-copy results."""

from itertools import product

import numpy as np
import pytest

from twochar.cochains import Cochain, GModule, _generating_set, _normalized_boundary, differential, direct_sum
from twochar.crossed import TwoMorphism, load_crossed
from twochar.groups import all_subgroups, load_group, subgroup_group
from twochar.shapiro import ShapiroContext, homotopy_varpi, phi, psi, shapiro_context

BUNDLED = ("z1", "z2", "z3", "z4", "z5", "z6", "z7", "z8", "v4", "s3", "d4", "q8")
GROUPS = [load_group(name) for name in BUNDLED]


def _modules(G):
    """A trivial and a permutation module (left translation) over G."""
    return [GModule.trivial(G, 6), GModule.permutation(G, G.table, 4)]


def _random_values(module, degree, seed):
    m, X, L = module.group.order, module.size, module.level
    return np.random.default_rng(seed).integers(0, L, size=(m,) * degree + (X,))


def _same(new: Cochain, ref: Cochain):
    assert new.module == ref.module and new.degree == ref.degree
    assert new.values.dtype == ref.values.dtype and new.values.shape == ref.values.shape
    assert new.values.tobytes() == ref.values.tobytes()


# ---------------------------------------------------------------------------
# Reference kernels


def _ref_differential(c):
    G, module, n = c.group, c.module, c.degree
    v = c.values
    first = np.moveaxis(np.take(v, module.inverse_action, axis=-1), -2, 0)
    out = first.astype(np.int64)
    sign = -1
    for k in range(1, n + 1):
        out = out + sign * np.take(v, G.table, axis=k - 1)
        sign = -sign
    out = out + sign * np.expand_dims(v, axis=n)
    return Cochain(module, n + 1, out)


def _ref_normalized_boundary(module, degree, first=None):
    G = module.group
    m, X = G.order, module.size
    nz = range(1, m)
    first = nz if first is None else first
    rows = len(first) * (m - 1) ** degree * X
    cols = (m - 1) ** degree * X
    D = np.zeros((rows, cols), dtype=np.int64)
    inv_act = module.inverse_action

    def col_index(gs: tuple[int, ...], x: int) -> int:
        idx = 0
        for g in gs:
            idx = idx * (m - 1) + (g - 1)
        return idx * X + x

    r = 0
    for gs in product(first, *[nz] * degree):
        for x in range(X):
            D[r, col_index(gs[1:], int(inv_act[gs[0], x]))] += 1
            sign = -1
            for k in range(1, degree + 1):
                merged = G.mul(gs[k - 1], gs[k])
                if merged != 0:
                    D[r, col_index(gs[:k - 1] + (merged,) + gs[k + 1:], x)] += sign
                sign = -sign
            D[r, col_index(gs[:-1], x)] += sign
            r += 1
    return D


def _ref_coinduced_action(ctx):
    G, qgrp, Y = ctx.G, ctx.qgrp, ctx.Y
    act = np.empty((G.order, ctx.X), dtype=np.int64)
    for g in range(G.order):
        for ti, t in enumerate(ctx.transversal):
            x = G.mul(t, G.inv(g))
            row = ctx.M.action[qgrp.inv(int(ctx.hq_of[x]))]
            for y in range(Y):
                act[g, ti * Y + y] = int(ctx.spos_of[x]) * Y + row[y]
    return act


def _ref_chain_tables(ctx, n):
    G = ctx.G
    m = G.order
    Spar = [np.array(ctx.transversal, dtype=np.int64).reshape(ctx.nT, *([1] * n))]
    Hq, Hpar = [], []
    for k in range(1, n + 1):
        g_axis = np.arange(m).reshape(*([1] * k), m, *([1] * (n - k)))
        x = G.table[Spar[-1], g_axis]
        Hq.append(ctx.hq_of[x])
        Hpar.append(ctx.hpar_of[x])
        Spar.append(ctx.spar_of[x])
    return Hq, Hpar, Spar


def _ref_psi(ctx, mu):
    n = mu.degree
    q, Y, m = ctx.qgrp.order, ctx.Y, ctx.G.order
    Hq, _, _ = _ref_chain_tables(ctx, n)
    idx = np.zeros((ctx.nT,) + (m,) * n, dtype=np.int64)
    for h in Hq:
        idx = idx * q + h
    idx = idx[..., None] * Y + np.arange(Y)
    vals = np.moveaxis(mu.values.reshape(-1)[idx], 0, n)
    return Cochain(ctx.coinduced, n, vals.reshape((m,) * n + (ctx.X,)))


def _ref_phi(ctx, theta):
    n = theta.degree
    els = np.array(ctx.Q.elements, dtype=np.int64)
    vals = theta.values[np.ix_(*([els] * n))][..., 0 : ctx.Y] if n else theta.values[0 : ctx.Y]
    return Cochain(ctx.M, n, vals)


def _ref_varpi(ctx, theta):
    n = theta.degree
    m, Y = ctx.G.order, ctx.Y
    _, Hpar, Spar = _ref_chain_tables(ctx, n - 1)
    theta_flat = theta.values.reshape(-1)
    shape = (ctx.nT,) + (m,) * (n - 1)
    out = np.zeros(shape + (Y,), dtype=np.int64)
    sign = -1
    for j in range(n):
        idx = np.zeros(shape, dtype=np.int64)
        for h in Hpar[:j]:
            idx = idx * m + h
        idx = idx * m + np.broadcast_to(Spar[j], shape)
        for k in range(j + 1, n):
            g_axis = np.arange(m).reshape(*([1] * k), m, *([1] * (n - 1 - k)))
            idx = idx * m + g_axis
        idx = idx[..., None] * ctx.X + np.arange(Y)
        out = out + sign * theta_flat[idx]
        sign = -sign
    out = np.moveaxis(out, 0, n - 1)
    return Cochain(ctx.coinduced, n - 1, out.reshape((m,) * (n - 1) + (ctx.X,)))


# ---------------------------------------------------------------------------
# Contexts: every subgroup of every bundled group, and the four pairs of
# ``verify shapiro`` (Z3 and Z2 in S3, the rotations in D4, Z2 in Z4)


def _shapiro_pairs():
    s3, d4, z4 = load_group("s3"), load_group("d4"), load_group("z4")
    return [
        (s3, next(P for P in all_subgroups(s3) if P.order == 3)),
        (s3, next(P for P in all_subgroups(s3) if P.order == 2)),
        (d4, next(P for P in all_subgroups(d4) if P.order == 4 and max(d4.order_of(g) for g in P.elements) == 4)),
        (z4, next(P for P in all_subgroups(z4) if P.order == 2)),
    ]


def _contexts(pairs):
    out = []
    for G, Q in pairs:
        qgrp, _, _ = subgroup_group(Q)
        out += [shapiro_context(G, Q, module) for module in _modules(qgrp)]
    return out


ALL_PAIRS = [(G, Q) for G in GROUPS for Q in all_subgroups(G)]
SHAPIRO_CONTEXTS = _contexts(_shapiro_pairs())


@pytest.mark.parametrize("G", GROUPS, ids=BUNDLED)
def test_differential_matches_the_reference_on_trivial_and_permutation_modules(G):
    for module in _modules(G):
        for degree in (0, 1, 2):
            c = Cochain(module, degree, _random_values(module, degree, G.order + degree))
            _same(differential(c), _ref_differential(c))


@pytest.mark.parametrize("ctx", SHAPIRO_CONTEXTS, ids=lambda ctx: f"{ctx.G.name}{list(ctx.Q.elements)}/{ctx.M.size}")
def test_differential_matches_the_reference_on_the_coinduced_modules(ctx):
    for degree in (0, 1, 2):
        c = Cochain(ctx.coinduced, degree, _random_values(ctx.coinduced, degree, degree))
        _same(differential(c), _ref_differential(c))


@pytest.mark.parametrize("G", GROUPS, ids=BUNDLED)
def test_normalized_boundary_matches_the_per_row_loop(G):
    for module in _modules(G):
        for degree in (1, 2):
            for first in (None, _generating_set(G)):
                new, ref = _normalized_boundary(module, degree, first), _ref_normalized_boundary(module, degree, first)
                assert new.dtype == ref.dtype and new.shape == ref.shape, (module, degree, first)
                assert new.tobytes() == ref.tobytes(), (module, degree, first)


@pytest.mark.parametrize("G", GROUPS, ids=BUNDLED)
def test_transfer_kernels_match_the_reference_on_every_subgroup(G):
    for ctx in _contexts((G, Q) for Q in all_subgroups(G)) + [c for c in SHAPIRO_CONTEXTS if c.G == G]:
        for degree in (0, 1, 2):
            mu = Cochain(ctx.M, degree, _random_values(ctx.M, degree, degree))
            _same(psi(ctx, mu), _ref_psi(ctx, mu))
            theta = Cochain(ctx.coinduced, degree, _random_values(ctx.coinduced, degree, 10 + degree))
            _same(phi(ctx, theta), _ref_phi(ctx, theta))
        for degree in (1, 2, 3):
            theta = Cochain(ctx.coinduced, degree, _random_values(ctx.coinduced, degree, 20 + degree))
            _same(homotopy_varpi(ctx, theta), _ref_varpi(ctx, theta))


@pytest.mark.parametrize("G", GROUPS, ids=BUNDLED)
def test_coinduced_action_matches_the_per_point_loop(G):
    for ctx in _contexts((G, Q) for Q in all_subgroups(G)) + [c for c in SHAPIRO_CONTEXTS if c.G == G]:
        act, ref = ctx.coinduced.action, _ref_coinduced_action(ctx)
        assert act.dtype == ref.dtype and act.shape == ref.shape and act.tobytes() == ref.tobytes()


def _stack(copies):
    """One cochain over M^⊕B from B cochains over M: copy b at ``[..., b::B]``."""
    B, first = len(copies), copies[0]
    vals = np.stack([c.values for c in copies], axis=-1).reshape(first.values.shape[:-1] + (-1,))
    return Cochain(direct_sum(first.module, B), first.degree, vals)


def _same_stacked(new: Cochain, parts: list):
    """``new``, over a direct sum, is the stack of ``parts``."""
    B = len(parts)
    assert new.module.size == B * parts[0].module.size and new.degree == parts[0].degree
    for b, part in enumerate(parts):
        assert np.ascontiguousarray(new.values[..., b::B]).tobytes() == part.values.tobytes(), b


@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("ctx", SHAPIRO_CONTEXTS, ids=lambda ctx: f"{ctx.G.name}{list(ctx.Q.elements)}/{ctx.M.size}")
def test_kernels_on_a_direct_sum_are_the_stack_of_the_copies(ctx, B):
    stacked = ShapiroContext(ctx.G, ctx.Q, direct_sum(ctx.M, B))
    assert stacked.coinduced == direct_sum(ctx.coinduced, B)
    for degree in (0, 1, 2, 3):
        mus = [Cochain(ctx.M, degree, _random_values(ctx.M, degree, 30 + 4 * degree + b)) for b in range(B)]
        thetas = [Cochain(ctx.coinduced, degree, _random_values(ctx.coinduced, degree, 60 + 4 * degree + b)) for b in range(B)]
        mu, theta = _stack(mus), _stack(thetas)
        assert mu.module == stacked.M and theta.module == stacked.coinduced
        _same_stacked(psi(stacked, mu), [psi(ctx, x) for x in mus])
        _same_stacked(phi(stacked, theta), [phi(ctx, x) for x in thetas])
        _same_stacked(differential(mu), [differential(x) for x in mus])
        _same_stacked(differential(theta), [differential(x) for x in thetas])
        if degree:
            _same_stacked(homotopy_varpi(stacked, theta), [homotopy_varpi(ctx, x) for x in thetas])


# ---------------------------------------------------------------------------
# Scalar group and crossed-module lookups


@pytest.mark.parametrize("G", GROUPS, ids=BUNDLED)
def test_group_operations_match_the_numpy_table(G):
    t, inv = G.table, G.inverse
    for a in G.elements:
        assert G.inv(a) == int(inv[a])
        for b in G.elements:
            assert G.mul(a, b) == int(t[a, b])
            assert G.conj(a, b) == int(t[t[a, b], inv[a]])
            commutes = G.commutes(a, b)
            assert type(commutes) is bool and commutes == bool(t[a, b] == t[b, a])
        n, x = 1, a
        while x != 0:
            x, n = int(t[x, a]), n + 1
        assert G.order_of(a) == n


@pytest.mark.parametrize("name", ["crossed_z2_z4", "crossed_inner_s3"])
def test_crossed_lookups_match_the_numpy_tables(name):
    K = load_crossed(name)
    for g in K.G.elements:
        for h in K.H.elements:
            assert K.act(g, h) == int(K.action[g, h])
            assert TwoMorphism(K, g, h).target == int(K.G.table[K.boundary[h], g])
