"""Coset transfer maps: round trips, chain-map identities, homotopy."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cyclic, dihedral_4, symmetric_3
from twochar.cochains import GModule, differential, random_cochain
from twochar.groups import all_subgroups, subgroup_group
from twochar.shapiro import homotopy_varpi, phi, psi, shapiro_context


def _pairs():
    s3 = symmetric_3()
    d4 = dihedral_4()
    z4 = cyclic(4)
    a3 = next(P for P in all_subgroups(s3) if P.order == 3)
    c2 = next(P for P in all_subgroups(s3) if P.order == 2)
    r4 = next(
        P for P in all_subgroups(d4) if P.order == 4 and max(d4.order_of(g) for g in P.elements) == 4
    )
    h2 = next(P for P in all_subgroups(z4) if P.order == 2)
    return [(s3, a3), (s3, c2), (d4, r4), (z4, h2)]


PAIRS = _pairs()


def _modules(Q):
    qgrp, _, _ = subgroup_group(Q)
    return [GModule.trivial(qgrp, 6), GModule.permutation(qgrp, qgrp.table, 4)]


def test_coinduced_module_shape():
    for G, Q in PAIRS:
        for module in _modules(Q):
            ctx = shapiro_context(G, Q, module)
            assert ctx.coinduced.group == G
            assert ctx.coinduced.level == module.level
            assert ctx.coinduced.size == (G.order // Q.order) * module.size


@settings(max_examples=40, deadline=None)
@given(
    pi=st.integers(0, len(PAIRS) - 1),
    mi=st.integers(0, 1),
    degree=st.integers(1, 2),
    seed=st.integers(0, 10**6),
)
def test_transfer_identities(pi, mi, degree, seed):
    G, Q = PAIRS[pi]
    module = _modules(Q)[mi]
    ctx = shapiro_context(G, Q, module)
    rng = random.Random(seed)

    mu = random_cochain(module, degree, rng)
    down = psi(ctx, mu)
    assert phi(ctx, down) == mu
    assert differential(down) == psi(ctx, differential(mu))

    c = random_cochain(ctx.coinduced, degree, rng)
    assert differential(phi(ctx, c)) == phi(ctx, differential(c))
    lhs = psi(ctx, phi(ctx, c)) - c
    rhs = differential(homotopy_varpi(ctx, c)) + homotopy_varpi(ctx, differential(c))
    assert lhs == rhs


def test_transfer_degree_zero():
    G, Q = PAIRS[0]
    module = _modules(Q)[0]
    ctx = shapiro_context(G, Q, module)
    mu = random_cochain(module, 0, random.Random(5))
    assert phi(ctx, psi(ctx, mu)) == mu


def test_full_subgroup_transfer_is_identity_like():
    s3 = symmetric_3()
    full = next(P for P in all_subgroups(s3) if P.order == 6)
    module = GModule.trivial(subgroup_group(full)[0], 4)
    ctx = shapiro_context(s3, full, module)
    mu = random_cochain(module, 2, random.Random(1))
    down = psi(ctx, mu)
    assert down.values.shape == mu.values.shape
    assert phi(ctx, down) == mu
