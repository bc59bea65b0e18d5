"""``random_cochain`` draws its entries in bulk but must give exactly the
values, and leave the generator in exactly the state, of one
``rng.randrange(L)`` per entry.  ``verify shapiro`` draws B cochain pairs at
once (``verify.stacked_draw``); its copies must be exactly the cochains of
B alternating ``random_cochain`` calls.  The suite's report prints counts
only, so these tests are what pin the cochains it checks."""

import random

import numpy as np
import pytest

from twochar.cochains import GModule, direct_sum, random_cochain
from twochar.errors import TooLarge
from twochar.groups import all_subgroups, load_group, subgroup_group
from twochar.shapiro import ShapiroContext, shapiro_context
from twochar.verify import stacked_draw

D4 = load_group("d4")
LEVELS = [*range(1, 65), 97, 2**20, 2**32 - 1]
MODULES = {"trivial": lambda L: GModule.trivial(D4, L), "permutation": lambda L: GModule.permutation(D4, D4.table, L)}


@pytest.mark.parametrize("kind", sorted(MODULES))
@pytest.mark.parametrize("seed", [0, 1, 2024])
def test_random_cochain_is_the_randrange_stream(kind, seed):
    for L in LEVELS:
        module = MODULES[kind](L)
        for degree in (0, 1, 2):
            shape = (D4.order,) * degree + (module.size,)
            rng, ref = random.Random(f"{seed}:{L}:{degree}"), random.Random(f"{seed}:{L}:{degree}")
            c = random_cochain(module, degree, rng)
            expect = np.array([ref.randrange(L) for _ in range(int(np.prod(shape)))], dtype=np.int64)
            assert np.array_equal(c.values, expect.reshape(shape)), (L, degree)
            assert rng.getstate() == ref.getstate(), (L, degree)


def test_consecutive_draws_continue_the_stream():
    module = MODULES["permutation"](6)
    rng, ref = random.Random(5), random.Random(5)
    for degree in (2, 0, 1, 2):
        n = D4.order ** (degree + 1)
        c = random_cochain(module, degree, rng)
        assert c.values.reshape(-1).tolist() == [ref.randrange(6) for _ in range(n)]
    assert rng.random() == ref.random()


@pytest.mark.parametrize("L", [2**32, 2**32 + 1, 2**40])
def test_a_level_past_32_bits_is_refused_before_any_draw(L):
    rng = random.Random(3)
    state = rng.getstate()
    with pytest.raises(TooLarge):
        random_cochain(GModule.trivial(D4, L), 1, rng)
    assert rng.getstate() == state


@pytest.mark.parametrize("B", [1, 3, 17])
@pytest.mark.parametrize("kind", sorted(MODULES))
def test_a_stacked_draw_is_the_alternating_draws(kind, B):
    S3 = load_group("s3")
    Q = next(P for P in all_subgroups(S3) if P.order == 2)
    qgrp = subgroup_group(Q)[0]
    module = GModule.trivial(qgrp, 6) if kind == "trivial" else GModule.permutation(qgrp, qgrp.table, 6)
    ctx = shapiro_context(S3, Q, module)
    stacked = ShapiroContext(S3, Q, direct_sum(module, B))
    for degree in (1, 2):
        rng, ref = random.Random(f"{kind}:{B}:{degree}"), random.Random(f"{kind}:{B}:{degree}")
        mu, c = stacked_draw(rng, stacked, degree, B)
        assert mu.module == stacked.M and c.module == stacked.coinduced and mu.degree == c.degree == degree
        for b in range(B):
            assert np.array_equal(mu.values[..., b::B], random_cochain(ctx.M, degree, ref).values), b
            assert np.array_equal(c.values[..., b::B], random_cochain(ctx.coinduced, degree, ref).values), b
        assert rng.getstate() == ref.getstate()
