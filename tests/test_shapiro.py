"""Coset transfer maps: round trips, chain-map identities, homotopy."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cyclic, dihedral_4, symmetric_3
from twochar import verify
from twochar.cochains import Cochain, GModule, differential, direct_sum, random_cochain
from twochar.groups import all_subgroups, subgroup_group
from twochar.shapiro import homotopy_varpi, phi, psi, shapiro_context
from twochar.verify import first_failure


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


# ---------------------------------------------------------------------------
# ``verify shapiro`` checks its cochain pairs in stacks of B copies


def test_the_first_failure_is_the_first_in_iteration_order():
    mask = np.zeros((4, 9), dtype=bool)
    assert first_failure(mask) is None
    mask[3, 4] = mask[1, 6] = True
    assert first_failure(mask) == (4, 3)
    mask[2, 4] = mask[0, 5] = True
    assert first_failure(mask) == (4, 2)
    mask[1, 0] = True
    assert first_failure(mask) == (0, 1)


@pytest.mark.parametrize("seed", [0, 2, 5])
def test_a_failure_mid_stack_reports_as_the_unstacked_loop_does(monkeypatch, seed):
    """ϖ is broken on every copy whose θ is 0 at point 0 of its last three
    argument tuples; with these seeds that first happens mid-stack, twice
    past the first configuration.  The report, the witness and the check
    count must not depend on the stack size: B = 1 everywhere (a one-cell
    bound) is the unstacked loop."""
    copies = {}

    def recording_sum(module, B):
        out = direct_sum(module, B)
        copies[id(out)] = B
        return out

    def broken_varpi(ctx, theta):
        out = homotopy_varpi(ctx, theta)
        B = copies[id(ctx.M)]
        flat = theta.values.reshape(-1, theta.values.shape[-1])
        hit = (flat[-1, :B] == 0) & (flat[-2, :B] == 0) & (flat[-3, :B] == 0)
        vals = out.values.copy()
        vals.flat[:B] += hit
        return Cochain(out.module, out.degree, vals)

    monkeypatch.setattr(verify, "direct_sum", recording_sum)
    monkeypatch.setattr(verify, "homotopy_varpi", broken_varpi)
    stacked = verify.shapiro(seed=seed, iters=40)
    monkeypatch.setattr(verify, "STACK_CELLS", 1)
    assert verify.shapiro(seed=seed, iters=40) == stacked
    assert not stacked.ok and stacked.lines[-1].startswith("witness: homotopy identity failed")


def test_the_suite_calls_the_differential_once_per_stack_not_per_pair(monkeypatch):
    """Five differentials per stack; 16 configurations × 200 pairs one at a
    time would make 19,200."""
    calls = []

    def counting(c):
        calls.append(c.degree)
        return differential(c)

    monkeypatch.setattr(verify, "differential", counting)
    assert verify.shapiro(iters=200).ok
    assert len(calls) <= 5 * 16 * 50  # at the shipped bound every stack holds ≥ 4 pairs
    calls.clear()
    monkeypatch.setattr(verify, "STACK_CELLS", 2**20)  # one stack per configuration
    assert verify.shapiro(iters=200).ok
    assert len(calls) == 5 * 16
