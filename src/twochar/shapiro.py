"""Explicit chain-level transfer between subgroup cochains and group cochains
valued in the coinduced module.

For Q ≤ G with right transversal T (identity first), every x ∈ G factors
uniquely as x = h·s with h ∈ Q and s ∈ T.  The coinduced module of a
Q-module M is functions F on T with values in M, G acting by
(g·F)(t) = h·F(t') where t·g = h·t'.

``psi`` maps a Q-cochain to a G-cochain (ψμ(g₁,…,gₙ)(t) = μ(h₁,…,hₙ) with
hₖ from the left-to-right factorization starting at t), ``phi`` evaluates a
G-cochain at the identity coset, and ``homotopy_varpi`` is an explicit
degree-lowering operator with ψ∘φ − id = d∘ϖ + ϖ∘d.  Both composites are
chain maps and φ∘ψ = id on the nose; the test-suite checks all four
identities on random cochains.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .cochains import Cochain, GModule, reduce_mod
from .errors import DegreeZero
from .groups import (
    FiniteGroup,
    Subgroup,
    coset_representative_map,
    right_transversal,
    subgroup_group,
)


class ShapiroContext:
    """Precomputed tables for one (G, Q, M) triple, and the flat gather
    indices of ψ, φ and ϖ, built per degree on first use."""

    def __init__(self, G: FiniteGroup, Q: Subgroup, M: GModule):
        if Q.parent != G:
            raise ValueError("Q must be a subgroup of G")
        qgrp, to_sub, _ = subgroup_group(Q)
        if M.group != qgrp:
            raise ValueError("module must live over the relabeled subgroup")
        self.G, self.Q, self.M = G, Q, M
        self.qgrp = qgrp
        self.transversal = right_transversal(G, Q)
        self.nT = len(self.transversal)
        rep = coset_representative_map(G, Q)
        m = G.order
        tpos = np.full(m, -1, dtype=np.int64)
        for i, t in enumerate(self.transversal):
            tpos[t] = i
        # for every x: x = h·s with s = rep[x]; store h both ways
        hpar = G.table[np.arange(m), G.inverse[rep]]
        self.hpar_of = hpar
        self.hq_of = to_sub[hpar]
        self.spar_of = rep
        self.spos_of = tpos[rep]
        Y = M.size
        self.Y = Y
        self.X = self.nT * Y
        # g·(t, y) = (t', h⁻¹·y) where t·g⁻¹ = h·t': axes (g, t, y)
        x = G.table[np.array(self.transversal, dtype=np.int64), G.inverse[:, None]]
        act = self.spos_of[x][..., None] * Y + M.action[qgrp.inverse[self.hq_of[x]]]
        self.coinduced = GModule.permutation(G, act.reshape(m, self.X), M.level)
        self._indices: dict[tuple, np.ndarray] = {}

    def _chain_tables(self, n: int):
        """Arrays over (T, g₁, …, gₙ): subgroup parts (both labelings) and
        running representatives of the prefix factorizations."""
        G = self.G
        m = G.order
        Spar = [np.array(self.transversal, dtype=np.int64).reshape(self.nT, *([1] * n))]
        Hq, Hpar = [], []
        for k in range(1, n + 1):
            g_axis = np.arange(m).reshape(*([1] * k), m, *([1] * (n - k)))
            x = G.table[Spar[-1], g_axis]          # s_{k−1}·g_k, broadcast
            Hq.append(self.hq_of[x])
            Hpar.append(self.hpar_of[x])
            Spar.append(self.spar_of[x])
        return Hq, Hpar, Spar

    def _to_cochain_shape(self, idx: np.ndarray) -> np.ndarray:
        """Base positions over (T, g₁..gₙ), plus the module slot y < Y, laid
        out as a cochain over the coinduced module: axes (g₁..gₙ, T·Y + y)."""
        n = idx.ndim - 1
        idx = np.moveaxis(idx[..., None] + np.arange(self.Y), 0, n)
        return np.ascontiguousarray(idx).reshape((self.G.order,) * n + (self.X,))

    def gather_index(self, kind: str, n: int) -> np.ndarray:
        """Flat index into a cochain's values for ``psi``, ``phi`` or
        ``homotopy_varpi`` in degree n, built once per kind and degree."""
        key = (kind, n)
        if key not in self._indices:
            build = {"psi": self._psi_index, "phi": self._phi_index, "varpi": self._varpi_index}[kind]
            idx = build(n)
            idx.setflags(write=False)
            self._indices[key] = idx
        return self._indices[key]

    def _psi_index(self, n: int) -> np.ndarray:
        """ψμ(g₁..gₙ)(t, y) = μ(h₁..hₙ)(y): positions in μ's values."""
        q, m = self.qgrp.order, self.G.order
        idx = np.zeros((self.nT,) + (m,) * n, dtype=np.int64)
        for h in self._chain_tables(n)[0]:
            idx = idx * q + h
        return self._to_cochain_shape(idx * self.Y)

    def _phi_index(self, n: int) -> np.ndarray:
        """φθ(q₁..qₙ)(y) = θ(q₁..qₙ)(identity coset, y): positions in θ's values."""
        els = np.array(self.Q.elements, dtype=np.int64)
        idx = np.zeros((), dtype=np.int64)
        for _ in range(n):
            idx = idx[..., None] * self.G.order + els
        return idx[..., None] * self.X + np.arange(self.Y)

    def _varpi_index(self, n: int) -> np.ndarray:
        """The n terms of ϖθ in degree n (j = 0..n−1, stacked on a leading
        axis): positions in θ's values of θ(h₁..h_j, s_j, g_{j+1}..g_{n−1})(y)
        at the identity coset."""
        m = self.G.order
        _, Hpar, Spar = self._chain_tables(n - 1)
        shape = (self.nT,) + (m,) * (n - 1)
        terms = []
        for j in range(n):
            idx = np.zeros(shape, dtype=np.int64)
            for h in Hpar[:j]:
                idx = idx * m + h
            idx = idx * m + Spar[j]
            for k in range(j + 1, n):
                idx = idx * m + np.arange(m).reshape(*([1] * k), m, *([1] * (n - 1 - k)))
            terms.append(self._to_cochain_shape(idx * self.X))
        return np.stack(terms)


@lru_cache(maxsize=None)
def shapiro_context(G: FiniteGroup, Q: Subgroup, M: GModule) -> ShapiroContext:
    return ShapiroContext(G, Q, M)


def psi(ctx: ShapiroContext, mu: Cochain) -> Cochain:
    """Q-cochain → G-cochain: ψμ(g₁,…,gₙ)(t,y) = μ(h₁,…,hₙ)(y)."""
    if mu.module != ctx.M:
        raise ValueError("cochain is not over the context's subgroup module")
    n = mu.degree
    return Cochain._make(ctx.coinduced, n, mu.values.reshape(-1)[ctx.gather_index("psi", n)])


def phi(ctx: ShapiroContext, theta: Cochain) -> Cochain:
    """G-cochain → Q-cochain: evaluate at subgroup tuples, identity coset."""
    if theta.module != ctx.coinduced:
        raise ValueError("cochain is not over the context's coinduced module")
    n = theta.degree
    return Cochain._make(ctx.M, n, theta.values.reshape(-1)[ctx.gather_index("phi", n)])


def homotopy_varpi(ctx: ShapiroContext, theta: Cochain) -> Cochain:
    """Degree-lowering homotopy:

    ϖθ(g₁,…,g_{n−1})(t,y) = Σ_{j=0}^{n−1} (−1)^{j+1}
        θ(h₁,…,h_j, s_j, g_{j+1},…,g_{n−1})(identity coset, y),

    with h, s from the prefix factorization of (g₁,…,g_{n−1}) starting at t.
    Raises :class:`DegreeZero` in degree 0.
    """
    if theta.module != ctx.coinduced:
        raise ValueError("cochain is not over the context's coinduced module")
    n = theta.degree
    if n == 0:
        raise DegreeZero("the homotopy lowers degree; degree 0 has no target")
    terms = theta.values.reshape(-1)[ctx.gather_index("varpi", n)]
    out = terms[1::2].sum(axis=0) - terms[0::2].sum(axis=0)
    return Cochain._make(ctx.coinduced, n - 1, reduce_mod(out, theta.level))
