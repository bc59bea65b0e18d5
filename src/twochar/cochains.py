"""Group cochains on the bar complex with root-of-unity coefficients.

Cocycle values are written additively: a cochain of level L stores exponents
in Z/L, denoting the root of unity ζ_L^value.  Coefficient modules are either
trivial (one point) or permutation modules: functions on a finite G-set X,
with (g·f)(x) = f(g⁻¹·x).

Degree-2 cohomology is computed on the normalized subcomplex (cochains that
vanish whenever an argument is the identity): any 2-cocycle differs from a
normalized one by the coboundary of a constant, so no classes are lost, and
the boundary matrices shrink from |G|^n·|X| to (|G|−1)^n·|X| rows.  The
integer boundary matrices do not depend on the level, so machines are cached
per group and action, and one machine serves every level L through
``at_level(L)``.  A machine reduces d₁ when it is built and d₂ lazily, at most
once, on first use: coboundary tests need d₁ alone.

ℂ^× classes are read off the same integer SNF of d₂.  The Bockstein of
0 → ℤ → ℂ → ℂ^× → 0 gives H²(G; ℂ^×[X]) ≅ H³(G; ℤ[X]), the torsion of
coker(d₂), which is ⊕ ℤ/d_i over the diagonal entries d_i > 1.  A normalized
level-L cocycle x with w = V⁻¹x mod L has the coordinates (d_i·w_i/L mod d_i)
there, at any level.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain, product
from math import gcd

import numpy as np

from .errors import NotACocycle, NotAMultiple, NotContained, TooLarge
from .groups import FiniteGroup, Subgroup, full_subgroup, subgroup_group
from .snf import smith_normal_form, solve_mod


class GModule:
    """Coefficient module: Z/L-valued functions on a finite G-set."""

    __slots__ = ("group", "level", "size", "action", "_hash")

    def __init__(self, group: FiniteGroup, level: int, action: np.ndarray):
        if level < 1:
            raise ValueError("level must be positive")
        action = np.ascontiguousarray(action, dtype=np.int64)
        if action.shape[0] != group.order or action.ndim != 2:
            raise ValueError("action must have one row per group element")
        X = action.shape[1]
        rng = np.arange(X)
        if not np.array_equal(action[0], rng):
            raise ValueError("identity must act as the identity permutation")
        for g in group.elements:
            if not np.array_equal(np.sort(action[g]), rng):
                raise ValueError(f"element {g} does not act by a permutation")
        # left action: (gh)·x = g·(h·x)
        composed = action[:, action]          # composed[g, h, x] = g·(h·x)
        expected = action[group.table]        # expected[g, h, x] = (gh)·x
        if not np.array_equal(composed, expected):
            g, h, x = (int(v) for v in np.argwhere(composed != expected)[0])
            raise ValueError(f"not a left action at (g={g}, h={h}, x={x})")
        action.setflags(write=False)
        self.group = group
        self.level = level
        self.size = X
        self.action = action
        self._hash = hash((group, level, action.tobytes()))

    @staticmethod
    def trivial(group: FiniteGroup, level: int) -> "GModule":
        return GModule(group, level, np.zeros((group.order, 1), dtype=np.int64))

    @staticmethod
    def permutation(group: FiniteGroup, action, level: int) -> "GModule":
        return GModule(group, level, np.asarray(action, dtype=np.int64))

    @property
    def is_trivial(self) -> bool:
        return self.size == 1

    def at_level(self, level: int) -> "GModule":
        return GModule(self.group, level, self.action)

    @property
    def inverse_action(self) -> np.ndarray:
        return self.action[self.group.inverse]

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, GModule):
            return NotImplemented
        return (
            self.level == other.level
            and self.group == other.group
            and np.array_equal(self.action, other.action)
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        kind = "trivial" if self.is_trivial else f"perm[{self.size}]"
        return f"GModule({self.group.name}, Z/{self.level}, {kind})"


class Cochain:
    """Dense cochain: values indexed by a degree-n tuple of group elements
    and a point of the module's G-set, exponents mod the level."""

    __slots__ = ("module", "degree", "values", "_hash")

    def __init__(self, module: GModule, degree: int, values):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        m, X, L = module.group.order, module.size, module.level
        arr = np.ascontiguousarray(values, dtype=np.int64) % L
        if arr.shape != (m,) * degree + (X,):
            raise ValueError(f"values must have shape {(m,) * degree + (X,)}, got {arr.shape}")
        arr.setflags(write=False)
        self.module = module
        self.degree = degree
        self.values = arr
        self._hash = hash((module, degree, arr.tobytes()))

    @staticmethod
    def zero(module: GModule, degree: int) -> "Cochain":
        m, X = module.group.order, module.size
        return Cochain(module, degree, np.zeros((m,) * degree + (X,), dtype=np.int64))

    @property
    def group(self) -> FiniteGroup:
        return self.module.group

    @property
    def level(self) -> int:
        return self.module.level

    def value(self, *gs) -> np.ndarray:
        return self.values[tuple(gs)]

    def val(self, *gs, x: int = 0) -> int:
        return int(self.values[tuple(gs) + (x,)])

    def is_zero(self) -> bool:
        return not self.values.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cochain):
            return NotImplemented
        return (
            self.module == other.module
            and self.degree == other.degree
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self) -> int:
        return self._hash

    def __add__(self, other: "Cochain") -> "Cochain":
        self._check_compatible(other)
        return Cochain(self.module, self.degree, self.values + other.values)

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._check_compatible(other)
        return Cochain(self.module, self.degree, self.values - other.values)

    def __neg__(self) -> "Cochain":
        return Cochain(self.module, self.degree, -self.values)

    def __mul__(self, k: int) -> "Cochain":
        if not isinstance(k, int):
            return NotImplemented
        return Cochain(self.module, self.degree, self.values * k)

    __rmul__ = __mul__

    def _check_compatible(self, other: "Cochain"):
        if self.module != other.module or self.degree != other.degree:
            raise ValueError("cochains must share module and degree")

    def __repr__(self) -> str:
        return f"Cochain(deg={self.degree}, {self.module!r})"


def raise_level(c: Cochain, level: int) -> Cochain:
    """Rewrite at a coarser level: ζ_L^v = ζ_{L'}^{v·L'/L}.  Raises
    :class:`NotAMultiple` unless the old level divides the new one."""
    if level % c.level:
        raise NotAMultiple(f"{level} is not a multiple of level {c.level}")
    return Cochain(c.module.at_level(level), c.degree, c.values * (level // c.level))


def differential(c: Cochain) -> Cochain:
    """Bar-complex differential:

    (dc)(g₁,…,g_{n+1}) = g₁·c(g₂,…,g_{n+1})
                         + Σ_k (−1)^k c(…, g_k·g_{k+1}, …)
                         + (−1)^{n+1} c(g₁,…,g_n).
    """
    G, module, n = c.group, c.module, c.degree
    v = c.values
    # first term: act on the module point, new g₁ axis in front
    first = np.moveaxis(np.take(v, module.inverse_action, axis=-1), -2, 0)
    out = first.astype(np.int64)
    sign = -1
    for k in range(1, n + 1):
        # merge arguments k and k+1 through the multiplication table
        term = np.take(v, G.table, axis=k - 1)
        out = out + sign * term
        sign = -sign
    out = out + sign * np.expand_dims(v, axis=n)
    return Cochain(module, n + 1, out)


def is_cocycle(c: Cochain) -> bool:
    return differential(c).is_zero()


def normalize_cocycle(c: Cochain) -> Cochain:
    """Cohomologous cocycle vanishing on identity arguments (degrees 1–2).

    Subtracts the coboundary of the constant function g ↦ c(1,1); every
    2-cocycle satisfies c(1,g) = c(1,1) and c(g,1) = g·c(1,1), so this single
    shift kills all identity slices at once.
    """
    if not is_cocycle(c):
        raise NotACocycle("normalize_cocycle requires a cocycle")
    if c.degree == 1:
        return c  # 1-cocycles always vanish at the identity
    if c.degree != 2:
        raise ValueError("normalize_cocycle is defined for degrees 1 and 2")
    G, module = c.group, c.module
    const = np.broadcast_to(c.values[0, 0], (G.order, module.size))
    out = c - differential(Cochain(module, 1, const))
    assert not out.values[0].any() and not out.values[:, 0].any()
    return out


# ---------------------------------------------------------------------------
# Restriction and conjugation pullback


def _ambient(c: Cochain) -> Subgroup:
    origin = c.group.origin
    return origin if origin is not None else full_subgroup(c.group)


def conjugate_pullback(c: Cochain, x: int, P: Subgroup) -> Cochain:
    """Pull back along conjugation: result(p₁,…,p_n) = c(xp₁x⁻¹, …, xp_nx⁻¹).

    ``c`` lives over a group Q (possibly a relabeled subgroup of some parent);
    ``P`` is a subgroup of the same parent, ``x`` a parent element with
    x·P·x⁻¹ ⊆ Q (otherwise :class:`NotContained` with the violating element).
    The result lives over P relabeled as a standalone group.
    """
    Q = _ambient(c)
    parent = Q.parent
    if P.parent != parent:
        raise NotContained("subgroup belongs to a different parent group")
    _, q_to_sub, _ = subgroup_group(Q)
    p_grp, _, p_els = subgroup_group(P)
    mapped = []
    for p in p_els:
        q = parent.conj(x, p)
        qi = int(q_to_sub[q])
        if qi < 0:
            raise NotContained(f"x·{p}·x⁻¹ = {q} is outside the target subgroup", witness=p)
        mapped.append(qi)
    mapped = np.array(mapped, dtype=np.int64)
    n = c.degree
    vals = c.values[np.ix_(*([mapped] * n))] if n else c.values
    new_mod = GModule(p_grp, c.level, c.module.action[mapped])
    return Cochain(new_mod, n, vals)


def restrict(c: Cochain, P: Subgroup) -> Cochain:
    """Restriction to a subgroup (conjugation pullback along x = identity)."""
    return conjugate_pullback(c, 0, P)


# ---------------------------------------------------------------------------
# Normalized-subcomplex coordinates


def _norm_flat(c: Cochain) -> np.ndarray:
    """Flatten the non-identity block of a normalized cochain (C order)."""
    n = c.degree
    block = c.values[np.ix_(*([range(1, c.group.order)] * n))] if n else c.values
    return block.reshape(-1)


def _embed_norm(module: GModule, degree: int, flat) -> Cochain:
    m, X = module.group.order, module.size
    out = np.zeros((m,) * degree + (X,), dtype=np.int64)
    if degree:
        block = np.asarray(flat, dtype=np.int64).reshape((m - 1,) * degree + (X,))
        out[np.ix_(*([range(1, m)] * degree))] = block
    else:
        out[:] = np.asarray(flat, dtype=np.int64).reshape(X)
    return Cochain(module, degree, out)


def _normalized_boundary(module: GModule, degree: int) -> np.ndarray:
    """Integer matrix of d: C^degree → C^(degree+1) on the normalized
    subcomplex (independent of the level)."""
    G = module.group
    m, X = G.order, module.size
    nz = range(1, m)
    rows = (m - 1) ** (degree + 1) * X
    cols = (m - 1) ** degree * X
    D = np.zeros((rows, cols), dtype=np.int64)
    inv_act = module.inverse_action

    def col_index(gs: tuple[int, ...], x: int) -> int:
        idx = 0
        for g in gs:
            idx = idx * (m - 1) + (g - 1)
        return idx * X + x

    r = 0
    for gs in product(nz, repeat=degree + 1):
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


class _H2Machine:
    """Level-independent data for degree-2 cohomology of one module shape."""

    def __init__(self, module: GModule):
        self.module = module
        m, X = module.group.order, module.size
        self.m1 = (m - 1) * X
        self.m2 = (m - 1) ** 2 * X
        self.D1 = _normalized_boundary(module, 1)
        self.snf1 = smith_normal_form(self.D1, want_u=True, want_v=True)
        self._levels: dict[int, _H2Level] = {}

    @cached_property
    def snf2(self):
        """SNF of d₂ with V and V⁻¹, reduced on first use."""
        D2 = _normalized_boundary(self.module, 2)
        return smith_normal_form(D2, want_u=False, want_v=True, want_vinv=True)

    @cached_property
    def _diag2(self) -> np.ndarray:
        return np.array(self.snf2.diag, dtype=np.int64)

    @cached_property
    def cx_factors(self) -> tuple[int, ...]:
        """Invariant factors of H²(G; ℂ^×[X]) ≅ H³(G; ℤ[X]): the diagonal
        entries d_i > 1 of d₂, in ascending divisibility."""
        return tuple(d for d in self.snf2.diag if d > 1)

    def cx_coords(self, flat, L: int) -> tuple[int, ...]:
        """Coordinates in ``cx_factors`` of the ℂ^× class of a normalized
        level-L cocycle x (flat vector): (d_i·w_i/L mod d_i) with
        w = V⁻¹x mod L.  Raises :class:`NotACocycle` unless L divides every
        d_i·w_i, which is the cocycle condition d₂x ≡ 0 (mod L)."""
        if L * L * max(self.m2, 1) >= 2**62:
            raise TooLarge(
                f"level {L} with {self.m2} cochain coordinates exceeds the int64 bound L²·m₂ < 2^62"
            )
        diag = self._diag2
        w = (self.snf2._mod("Vinv", L) @ (np.asarray(flat, dtype=np.int64) % L)) % L
        dw = diag * w[: len(diag)]
        bad = np.flatnonzero(dw % L)
        if len(bad):
            raise NotACocycle(
                f"level {L} does not divide d·w in SNF coordinate {bad[0]}", witness=int(bad[0])
            )
        cx = diag > 1
        return tuple(int(v) for v in dw[cx] // L % diag[cx])

    def at_level(self, L: int) -> "_H2Level":
        if L not in self._levels:
            self._levels[L] = _H2Level(self, L)
        return self._levels[L]


def _check_int64_transform(mat: list[list[int]], what: str):
    """Raise :class:`TooLarge` unless every entry of an SNF transform is below
    2^20, the bound that keeps the int64 products of ``_H2Level`` exact."""
    top = max(map(abs, chain.from_iterable(mat)), default=0)
    if top >= 2**20:
        raise TooLarge(f"{what} has an entry of {top.bit_length()} bits; the int64 path allows 20")


class _H2Level:
    """H² = (kernel of d₂ mod L) / (image of d₁ mod L), presented by Smith
    normal form of the image lattice in kernel-lattice coordinates."""

    def __init__(self, machine: _H2Machine, L: int):
        self.machine = machine
        self.L = L
        m2 = machine.m2
        snf2 = machine.snf2
        _check_int64_transform(snf2.Vinv, "V⁻¹ of d₂")
        diag2 = snf2.diag
        d = [diag2[j] if j < len(diag2) else 0 for j in range(m2)]
        self.g = [gcd(dj, L) for dj in d]
        self.step = [L // gj for gj in self.g]
        Vinv = np.array(snf2.Vinv, dtype=np.int64)
        self._vinv2 = Vinv
        self._v2 = np.array(snf2.V, dtype=np.int64)
        # image lattice in kernel coordinates: columns M_K⁻¹·d₁ and M_K⁻¹·L·e_j
        Y = Vinv @ machine.D1
        W = np.zeros((m2, machine.m1 + m2), dtype=object)
        for i in range(m2):
            s = self.step[i]
            for j in range(machine.m1):
                q, r = divmod(int(Y[i, j]), s)
                assert r == 0, "coboundary outside the kernel lattice"
                W[i, j] = q
            for j in range(m2):
                W[i, machine.m1 + j] = self.g[i] * int(Vinv[i, j])
        self.snfW = smith_normal_form(
            [[int(v) for v in row] for row in W],
            want_u=True, want_v=False, want_uinv=True,
        )
        assert all(s > 0 for s in self.snfW.diag), "quotient must be finite"
        self.factor_cols = [i for i, s in enumerate(self.snfW.diag) if s > 1]
        self.factors = tuple(self.snfW.diag[i] for i in self.factor_cols)
        _check_int64_transform(self.snfW.U, "U of the image lattice")
        _check_int64_transform(self.snfW.Uinv, "U⁻¹ of the image lattice")
        # generator of the i-th cyclic factor: kernel vector M_K·(U_W⁻¹ e_i)
        Uinv = np.array(self.snfW.Uinv, dtype=np.int64)
        step_arr = np.array(self.step, dtype=np.int64)
        self.gens = [
            ((self._v2 % L) @ ((step_arr * Uinv[:, i]) % L)) % L for i in self.factor_cols
        ]
        self._uw = np.array(self.snfW.U, dtype=np.int64)

    def coords(self, flat: np.ndarray) -> tuple[int, ...]:
        """Class coordinates of a normalized cocycle (flat mod-L vector)."""
        w = self._vinv2 @ np.asarray(flat, dtype=np.int64)
        x = np.empty(self.machine.m2, dtype=np.int64)
        for i in range(self.machine.m2):
            q, r = divmod(int(w[i]), self.step[i])
            if r:
                raise NotACocycle("vector is not in the cocycle lattice")
            x[i] = q
        out = []
        for i, s in zip(self.factor_cols, self.factors):
            row = self._uw[i] % s
            out.append(int((row @ (x % s)) % s))
        return tuple(out)

    def rep_flat(self, coords: tuple[int, ...]) -> np.ndarray:
        out = np.zeros(self.machine.m2, dtype=np.int64)
        for ci, gen in zip(coords, self.gens):
            out = (out + ci * gen) % self.L
        return out


@lru_cache(maxsize=None)
def _machine_for(group: FiniteGroup, action: bytes) -> _H2Machine:
    """One machine per group and action (the level is not part of the key)."""
    table = np.frombuffer(action, dtype=np.int64).reshape(group.order, -1)
    return _H2Machine(GModule(group, 1, table))


def _machine(module: GModule, bound: int) -> _H2Machine:
    m, X = module.group.order, module.size
    rows3 = (m - 1) ** 3 * X
    if rows3 > bound:
        raise TooLarge(
            f"degree-3 boundary matrix would have {rows3} rows (bound {bound})"
        )
    return _machine_for(module.group, module.action.tobytes())


DEFAULT_H2_BOUND = 20000


def is_coboundary(c: Cochain, bound: int = DEFAULT_H2_BOUND):
    """A 1-cochain π with dπ = c, or None if no witness exists mod the level.
    Raises :class:`NotACocycle` when c is not a 2-cocycle."""
    if c.degree != 2:
        raise ValueError("is_coboundary expects a degree-2 cochain")
    if not is_cocycle(c):
        raise NotACocycle("not a 2-cocycle; differential is nonzero")
    machine = _machine(c.module, bound)
    cn = normalize_cocycle(c)
    sol = solve_mod(machine.snf1, _norm_flat(cn), c.level)
    if sol is None:
        return None
    pi = _embed_norm(c.module, 1, sol)
    # un-normalize: shift by the constant c(1,1), so dπ = c exactly
    const = np.broadcast_to(c.values[0, 0], (c.group.order, c.module.size))
    witness = pi + Cochain(c.module, 1, const)
    assert differential(witness) == c
    return witness


class CohomologyClassSet:
    """Finite abelian group ⊕ ℤ/f of cohomology classes with chosen
    representative cocycles.  Class i has the coordinates ``coordinates[i]``
    in the cyclic factors ``invariant_factors`` (ascending divisibility);
    class 0 is the zero class.  ``coords_fn`` maps a cocycle to the
    coordinates of its class."""

    def __init__(self, module, representatives, invariant_factors, coordinates, coords_fn):
        self.module = module
        self.representatives = tuple(representatives)
        self.invariant_factors = tuple(invariant_factors)
        self.coordinates = tuple(coordinates)
        self._coords_fn = coords_fn
        self._index = {c: i for i, c in enumerate(self.coordinates)}

    def __len__(self) -> int:
        return len(self.representatives)

    def index_of(self, c: Cochain) -> int:
        """Index of the class of the given cocycle."""
        return self._index[self._coords_fn(c)]

    def add(self, i: int, j: int) -> int:
        a, b = self.coordinates[i], self.coordinates[j]
        return self._index[tuple((x + y) % f for x, y, f in zip(a, b, self.invariant_factors))]

    def neg(self, i: int) -> int:
        return self._index[tuple((-x) % f for x, f in zip(self.coordinates[i], self.invariant_factors))]

    def __repr__(self) -> str:
        shape = " ⊕ ".join(f"Z/{d}" for d in self.invariant_factors) or "trivial"
        return f"CohomologyClassSet({len(self)} classes, {shape})"


def h2(G: FiniteGroup, module: GModule, bound: int = DEFAULT_H2_BOUND) -> CohomologyClassSet:
    """Degree-2 cohomology of G with coefficients in the module, as a finite
    abelian group with explicit representative cocycles."""
    if module.group != G:
        raise ValueError("module is not over the given group")
    machine = _machine(module, bound)
    lvl = machine.at_level(module.level)
    factors = lvl.factors
    n_classes = 1
    for s in factors:
        n_classes *= s
    if n_classes > 4096:
        raise TooLarge(f"{n_classes} cohomology classes exceed the enumeration cap")
    all_coords = list(product(*(range(s) for s in factors)))
    reps = [_embed_norm(module, 2, lvl.rep_flat(c)) for c in all_coords]

    def coords_fn(c: Cochain) -> tuple[int, ...]:
        if c.module != module:
            raise ValueError("cochain is not over this module")
        return lvl.coords(_norm_flat(normalize_cocycle(c)))

    return CohomologyClassSet(module, reps, factors, all_coords, coords_fn)


def _cx_coords(c: Cochain, bound: int) -> tuple[int, ...]:
    """Coordinates of the ℂ^× class of a 2-cocycle, at any level."""
    if c.degree != 2:
        raise ValueError("expected a degree-2 cocycle")
    return _machine(c.module, bound).cx_coords(_norm_flat(normalize_cocycle(c)), c.level)


def cohomologous_over_Cx(c1: Cochain, c2: Cochain, bound: int = DEFAULT_H2_BOUND) -> bool:
    """Whether two 2-cocycles become cohomologous with ℂ^× coefficients.

    The levels may differ: each cocycle's ℂ^× class is read off the integer
    SNF of d₂ (see the module docstring), and the two coordinate tuples are
    compared.
    """
    if c1.group != c2.group or c1.module.size != c2.module.size:
        raise ValueError("cochains must live over the same group and G-set")
    if not np.array_equal(c1.module.action, c2.module.action):
        raise ValueError("cochains must share the module action")
    return _cx_coords(c1, bound) == _cx_coords(c2, bound)


def schur_classes(G: FiniteGroup, bound: int = DEFAULT_H2_BOUND) -> CohomologyClassSet:
    """ℂ^×-cohomology classes of G (the Schur multiplier H²(G; ℂ^×)),
    presented at level |G|.

    Every ℂ^× class comes from a class of H²(G; ℤ/|G|), because the
    multiplier's exponent divides |G|.  Its representative is the first
    level-|G| class in coordinate order that maps onto it.  ``index_of``
    accepts a trivial-module cocycle over G at any level.
    """
    L = G.order
    module = GModule.trivial(G, L)
    machine = _machine(module, bound)
    lvl = machine.at_level(L)
    # ℂ^× coordinates → first level-|G| coordinates that map onto them; the
    # insertion order of the dict fixes the class indices
    chosen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for coords in product(*(range(s) for s in lvl.factors)):
        chosen.setdefault(machine.cx_coords(lvl.rep_flat(coords), L), coords)
    reps = [_embed_norm(module, 2, lvl.rep_flat(c)) for c in chosen.values()]

    def coords_fn(c: Cochain) -> tuple[int, ...]:
        if c.group != G or not c.module.is_trivial:
            raise ValueError("expected a trivial-module cocycle over this group")
        return _cx_coords(c, bound)

    return CohomologyClassSet(module, reps, machine.cx_factors, chosen, coords_fn)


# ---------------------------------------------------------------------------
# Random cochains/cocycles (deterministic given an RNG)


def random_cochain(module: GModule, degree: int, rng) -> Cochain:
    m, X, L = module.group.order, module.size, module.level
    shape = (m,) * degree + (X,)
    flat = [rng.randrange(L) for _ in range(int(np.prod(shape, dtype=np.int64)))]
    return Cochain(module, degree, np.array(flat, dtype=np.int64).reshape(shape))


def random_cocycle(module: GModule, rng, bound: int = DEFAULT_H2_BOUND) -> Cochain:
    """Uniform-ish random 2-cocycle: random coboundary plus a random class."""
    machine = _machine(module, bound)
    lvl = machine.at_level(module.level)
    pi = random_cochain(module, 1, rng)
    out = differential(pi)
    for gen in lvl.gens:
        k = rng.randrange(module.level)
        out = out + _embed_norm(module, 2, (k * gen) % module.level)
    return out


# ---------------------------------------------------------------------------
# Serialization


def module_to_json(module: GModule):
    if module.is_trivial:
        return "trivial"
    return {"set": module.size, "action": [[int(v) for v in row] for row in module.action]}


def cochain_to_json(c: Cochain) -> dict:
    from .groups import group_to_json

    return {
        "group": group_to_json(c.group),
        "level": c.level,
        "module": module_to_json(c.module),
        "degree": c.degree,
        "values": [int(v) for v in c.values.reshape(-1)],
    }


def cochain_from_json(doc: dict) -> Cochain:
    from .groups import group_from_json

    G = group_from_json(doc["group"])
    L = int(doc["level"])
    mod_doc = doc["module"]
    if mod_doc == "trivial":
        module = GModule.trivial(G, L)
    else:
        module = GModule.permutation(G, mod_doc["action"], L)
    degree = int(doc["degree"])
    shape = (G.order,) * degree + (module.size,)
    return Cochain(module, degree, np.array(doc["values"], dtype=np.int64).reshape(shape))
