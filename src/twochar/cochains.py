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
per group and action, and one machine serves every level with no SNF per
level.  It reduces d₁ when it is built, and d₂ and B lazily, at most once:
coboundary tests need d₁ alone.

d₂ reads only the rows with g₁ in a generating set S of G, ``is_cocycle``
those and g₁ = 1.  Evaluating d₃d₂ = 0 at (a, b, h, k) gives

    row(ab, h, k; x) = row(b, h, k; a⁻¹x) + row(a, bh, k; x)
                       − row(a, b, hk; x) + row(a, b, h; x),

and likewise in every degree, so by induction on the word length of g₁ in S
every row is an integer combination of those rows (Brown, *Cohomology of
Groups*, III.1).  Normalized rows with an identity argument vanish, so d₂
has |S|·(m−1)²·X rows, not (m−1)³·X, with the full d₂'s nonzero SNF diagonal,
ker_ℤ d₂ and test d₂x ≡ 0 (mod L); only V₂ differs, and no printed answer
depends on it.  S is greedy: the least element outside the subgroup so far.

Let d₂ have the SNF diagonal d_1 | … | d_r (r = rank d₂) and column
transform V₂; as d₂d₁ = 0, only B = (V₂⁻¹d₁)[r:] is nonzero, with the
diagonal (e_j) (0 past rank B) and row transform U_B.  By the universal
coefficient sequence, H²(G; ℤ/L[X]) ≅ ⊕ ℤ/gcd(d_i, L) ⊕ ⊕ ℤ/gcd(e_j, L): a
normalized level-L cocycle x with w = V₂⁻¹x mod L has the coordinates
w_i·gcd(d_i, L)/L and U_B·w[r:], and the generators are (L/gcd(d_i, L))·V₂e_i
and V₂[:, r:]·U_B⁻¹e_j.  The Bockstein of 0 → ℤ → ℂ → ℂ^× → 0 gives
H²(G; ℂ^×[X]) ≅ H³(G; ℤ[X]) = ⊕ ℤ/d_i over the d_i > 1, where x has the
coordinates (d_i·w_i/L mod d_i), at any level.

A read tests d₂x ≡ 0 (mod L) on the sparse generator rows of d₂ (at most
four faces each), and then takes only the rows of V₂⁻¹ that its coordinates
use (the d_i > 1, or the kept i < r) and the kept rows of U_B·V₂⁻¹[r:],
reduced mod L once per level; no dense copy of V₂⁻¹ is made.  The test is
exact: with U′ the SNF row transform, the generator-row d₂ equals
U′⁻¹·S·V₂⁻¹, and U′ is unimodular over ℤ, so invertible mod L; hence
d₂x ≡ 0 (mod L) exactly when L | d_i·w_i for every i < r, which is the
condition under which the coordinates above are defined.  ``is_coboundary``
reads through the same test, then solves d₁π ≡ x (mod L); the faces need
no SNF.  The test is the whole cocycle test: a cochain whose identity
slices survive normalizing is refused there, and on a normalized x the
generator rows decide every row of dx, by the induction above.

Representatives are canonical: reduced by the Hermite normal form of
K_L = im d₁ + Lℤ^{m₂} (level-L classes) or of K = ker_ℤ d₂ + Lℤ^{m₂} (ℂ^×
classes), so no SNF choice moves them, and classes are sorted by them.  Two
bounds are checked before any work: the reduced d₂ at most D2_MAX_ROWS rows
and D2_MAX_COLS columns (per group and action), and L²·m₂ < 2^62 for int64
products at level L.

Cochain arrays of 512 entries or more are reduced mod L as a − (a // L)·L,
not with ``%``: numpy divides an int64 array by a scalar with a multiply and
a shift per entry, but ``%`` costs a hardware division per entry, several
times slower on the stacks of up to 16,384 cells that ``differential`` and
the Shapiro homotopy reduce.  Smaller arrays, most of the reductions of a
character table or a cohomology query, take one ``%`` in place.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product
from math import gcd, prod

import numpy as np

from .errors import NotACocycle, NotAMultiple, NotContained, TooLarge, WrongWitness
from .groups import FiniteGroup, Subgroup, check_left_action, full_subgroup, generated_subgroup, subgroup_group
from .snf import hermite_mod, hermite_reduce, recent_level, smith_normal_form, solve_mod


# Below this many entries one ``%`` in place (one ufunc call) is cheaper than
# the three calls of the floor-division route; the two cost the same between
# 384 and 1024 entries.
_DIRECT_REMAINDER = 512


def reduce_mod(a: np.ndarray, L: int) -> np.ndarray:
    """Reduce a fresh int64 array mod L in place and return it: the same
    values as ``a % L``, in [0, L), exact while a − L does not overflow."""
    if a.size < _DIRECT_REMAINDER:
        return np.remainder(a, L, out=a)
    q = a // L
    q *= L
    a -= q
    return a


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
        data = action.tobytes()
        check_left_action(group, X, data)
        action.setflags(write=False)
        self.group = group
        self.level = level
        self.size = X
        self.action = action
        self._hash = hash((group, level, data))

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


def direct_sum(module: GModule, copies: int) -> GModule:
    """M^⊕B for B = ``copies``: copy b of the point y is the point y·B + b.
    B cochains over M are one cochain over the sum, whose values hold copy b
    at ``[..., b::B]``; the differential acts on each copy on its own."""
    action = module.action[:, :, None] * copies + np.arange(copies)
    return GModule(module.group, module.level, action.reshape(module.group.order, -1))


class Cochain:
    """Dense cochain: values indexed by a degree-n tuple of group elements
    and a point of the module's G-set, exponents mod the level."""

    __slots__ = ("module", "degree", "values", "_hash")

    def __init__(self, module: GModule, degree: int, values):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        m, X, L = module.group.order, module.size, module.level
        arr = reduce_mod(np.array(values, dtype=np.int64, order="C"), L)
        if arr.shape != (m,) * degree + (X,):
            raise ValueError(f"values must have shape {(m,) * degree + (X,)}, got {arr.shape}")
        arr.setflags(write=False)
        self.module = module
        self.degree = degree
        self.values = arr
        self._hash = None

    @classmethod
    def _make(cls, module: GModule, degree: int, arr: np.ndarray) -> "Cochain":
        """A cochain on ``arr`` itself, for an int64 array that the caller
        has already given the right shape and reduced mod the level: no copy,
        no reduction and no shape check.  ``arr`` is made read-only, so it is
        either fresh or already another cochain's read-only values."""
        arr.setflags(write=False)
        c = object.__new__(cls)
        c.module, c.degree, c.values, c._hash = module, degree, arr, None
        return c

    @property
    def group(self) -> FiniteGroup:
        return self.module.group

    @property
    def level(self) -> int:
        return self.module.level

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
        # computed on first use: most cochains are compared, never hashed
        if self._hash is None:
            self._hash = hash((self.module, self.degree, self.values.tobytes()))
        return self._hash

    def __add__(self, other: "Cochain") -> "Cochain":
        self._check_compatible(other)
        return Cochain._make(self.module, self.degree, reduce_mod(self.values + other.values, self.level))

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._check_compatible(other)
        return Cochain._make(self.module, self.degree, reduce_mod(self.values - other.values, self.level))

    def _check_compatible(self, other: "Cochain"):
        if self.module != other.module or self.degree != other.degree:
            raise ValueError("cochains must share module and degree")

    def __repr__(self) -> str:
        return f"Cochain(deg={self.degree}, {self.module!r})"


def raise_level(c: Cochain, level: int) -> Cochain:
    """Rewrite at a coarser level: ζ_L^v = ζ_{L'}^{v·L'/L}.  Raises
    :class:`NotAMultiple` unless the old level divides the new one.  The
    values need no reduction: v < L gives v·L'/L < L'."""
    if level % c.level:
        raise NotAMultiple(f"{level} is not a multiple of level {c.level}")
    return Cochain._make(c.module.at_level(level), c.degree, c.values * (level // c.level))


def _faces(v: np.ndarray, G: FiniteGroup, inverse_action: np.ndarray, rows=slice(None)):
    """The n + 2 faces of the bar differential of the (m,)*n + (X,) array v,
    each a gather of v broadcasting to (rows,) + (m,)*n + (X,), on the rows
    whose g₁ is in ``rows`` (a slice or a list); face i has the sign (−1)^i in

        (dv)(g₁,…,g_{n+1}) = g₁·v(g₂,…,g_{n+1}) + Σ_k (−1)^k v(…, g_k·g_{k+1}, …)
                             + (−1)^{n+1} v(g₁,…,g_n)."""
    n = v.ndim - 1
    head = v[rows] if n else v       # v with its first argument restricted
    # act on the module point, then move the new g₁ axis in front
    yield v[..., inverse_action[rows]].transpose((n, *range(n), n + 1))
    for k in range(1, n + 1):
        # merge arguments k and k+1 through the multiplication table
        yield head[(slice(None),) * (k - 1) + (G.table,)] if k > 1 else v[G.table[rows]]
    yield head[(slice(None),) * n + (None,)]


def _face_sum(c: Cochain, rows=slice(None)) -> np.ndarray:
    """Sum of c's faces mod the level; ``out ± face`` costs less than a sign multiply."""
    faces = _faces(c.values, c.group, c.module.inverse_action, rows)
    out = next(faces)
    for i, face in enumerate(faces, 1):
        out = out - face if i % 2 else out + face
    return reduce_mod(out, c.level)


def differential(c: Cochain) -> Cochain:
    """Bar-complex differential (see :func:`_faces`)."""
    return Cochain._make(c.module, c.degree + 1, _face_sum(c))


def is_cocycle(c: Cochain) -> bool:
    """Whether dc = 0, on the rows with g₁ in S ∪ {1} (module docstring)."""
    return not _face_sum(c, [0, *_generating_set(c.group)]).any()


def _normalize(c: Cochain) -> Cochain:
    """Cohomologous 2-cocycle vanishing on identity arguments.

    Subtracts the coboundary of the constant function g ↦ k = c(1,1), which
    is (g, h) ↦ g·k, so (g, h, x) ↦ k(g⁻¹x); every 2-cocycle satisfies
    c(1,g) = k and c(g,1) = g·k, so this single shift kills all identity
    slices at once.  No degree-3 test is made: an identity slice that stays
    nonzero raises :class:`NotACocycle` with the first such (g, h, x) in C
    order as witness.  Normalized cochains form a subcomplex, so callers
    test d₂ alone."""
    if c.degree != 2:
        raise ValueError("expected a degree-2 cocycle")
    k = c.values[0, 0]
    out = reduce_mod(c.values - k[c.module.inverse_action][:, None, :], c.level)
    if out[0].any() or out[:, 0].any():
        out[1:, 1:] = 0
        g, h, x = (int(v) for v in np.argwhere(out)[0])
        raise NotACocycle(f"not a 2-cocycle: nonzero at ({g}, {h}, x={x}) after normalizing", witness=(g, h, x))
    return Cochain._make(c.module, 2, out)


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
    The result lives over P relabeled as a standalone group; its values are
    gathered from reduced ones, so they are not reduced again.
    """
    Q = _ambient(c)
    if P.parent != Q.parent:
        raise NotContained("subgroup belongs to a different parent group")
    p_grp, mapped = _pullback_index(Q, x, P)
    vals = c.values
    for axis in range(c.degree):
        vals = vals.take(mapped, axis=axis)
    new_mod = GModule(p_grp, c.level, c.module.action.take(mapped, axis=0))
    return Cochain._make(new_mod, c.degree, vals)


@lru_cache(maxsize=None)
def _pullback_index(Q: Subgroup, x: int, P: Subgroup) -> tuple[FiniteGroup, np.ndarray]:
    """P relabeled as a group, and the label in Q of x·p·x⁻¹ for each of its
    elements p (read-only).  Raises :class:`NotContained` with the first p
    whose conjugate is outside Q; a refusal is not cached."""
    parent = Q.parent
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
    mapped.setflags(write=False)
    return p_grp, mapped


# ---------------------------------------------------------------------------
# Normalized-subcomplex coordinates


@lru_cache(maxsize=None)
def _norm_index(m: int, degree: int, X: int) -> np.ndarray:
    """C-order flat positions, in an (m,)*degree + (X,) array, of the block
    whose arguments are all non-identity, in the block's own C order."""
    idx = np.arange(m**degree * X).reshape((m,) * degree + (X,))[(slice(1, None),) * degree].reshape(-1)
    idx.setflags(write=False)
    return idx


def _embed_norm(module: GModule, degree: int, flat) -> Cochain:
    """The normalized cochain with the non-identity block ``flat`` (C order),
    whose values are already reduced mod the level."""
    m, X = module.group.order, module.size
    out = np.zeros(m**degree * X, dtype=np.int64)
    out[_norm_index(m, degree, X)] = flat
    return Cochain._make(module, degree, out.reshape((m,) * degree + (X,)))


def _boundary_faces(module: GModule, degree: int, first=None) -> np.ndarray:
    """The n + 2 faces (see :func:`_faces`) of d: C^degree → C^(degree+1) on
    the normalized subcomplex, as an array of column indices of shape
    (n + 2, rows): entry (i, row) is the column that face i reads in that
    row, or ``cols`` = (m−1)^degree·X, one past the last column, where an
    argument is the identity.  The rows are those whose first argument lies
    in ``first`` (default: every non-identity element) and whose other
    arguments are not the identity, in C order."""
    G, X = module.group, module.size
    m, cols = G.order, (G.order - 1) ** degree * X
    index = np.full((m,) * degree + (X,), cols, dtype=np.int64)
    index[(slice(1, None),) * degree] = np.arange(cols).reshape((m - 1,) * degree + (X,))
    rows = list(range(1, m) if first is None else first)
    shape, block = (len(rows),) + index.shape, (slice(None),) + (slice(1, None),) * degree
    faces = _faces(index, G, module.inverse_action, rows)
    return np.stack([np.broadcast_to(face, shape)[block].reshape(-1) for face in faces])


def _normalized_boundary(module: GModule, degree: int, first=None) -> np.ndarray:
    """Integer matrix of d: C^degree → C^(degree+1) on the normalized
    subcomplex (independent of the level), on the rows of
    :func:`_boundary_faces`: the signed faces scattered, skipping identity
    arguments.  Within one face each row meets one column, so each face's
    scatter is exact."""
    faces = _boundary_faces(module, degree, first)
    cols = (module.group.order - 1) ** degree * module.size
    D = np.zeros((faces.shape[1], cols), dtype=np.int64)
    row = np.arange(len(D))
    for i, col in enumerate(faces):
        hit = col < cols
        D[row[hit], col[hit]] += -1 if i % 2 else 1
    return D


@lru_cache(maxsize=None)
def _generating_set(G: FiniteGroup) -> tuple[int, ...]:
    """Greedy generators: the smallest element outside the subgroup generated
    so far, until it is G."""
    gens, inside = [], {0}
    while len(inside) < G.order:
        gens.append(next(g for g in G.elements if g not in inside))
        inside = set(generated_subgroup(G, gens).elements)
    return tuple(gens)


class _H2Machine:
    """Level-independent data for degree-2 cohomology of one module shape."""

    def __init__(self, module: GModule):
        self.module = module
        m, X = module.group.order, module.size
        self.m2 = (m - 1) ** 2 * X
        self.gens = _generating_set(module.group)
        rows = len(self.gens) * self.m2
        if rows > D2_MAX_ROWS or self.m2 > D2_MAX_COLS:
            raise TooLarge(
                f"d₂ on the generator rows would be {rows}×{self.m2} (bound {D2_MAX_ROWS}×{D2_MAX_COLS})"
            )
        self.D1 = _normalized_boundary(module, 1)
        self.snf1 = smith_normal_form(self.D1, want_u=True, want_v=True)
        self._classes: dict = {}      # level → level_classes(level), see there
        self._cx_readers: dict = {}   # level → the rows that ``cx_coords`` reads, see ``_read``
        self._level_readers: dict = {}    # level → the rows that ``level_coords`` reads
        self._schur: dict = {}        # (origin, name) → schur_classes of a group with this table

    @cached_property
    def snf2(self):
        """SNF of d₂ on the rows whose first argument is a generator (see the
        module docstring), with V and V⁻¹, reduced on first use."""
        D2 = _normalized_boundary(self.module, 2, self.gens)
        return smith_normal_form(D2, want_u=False, want_v=True, want_vinv=True)

    @cached_property
    def _diag2(self) -> np.ndarray:
        """d_1 … d_r, the nonzero diagonal entries of d₂."""
        return np.array([d for d in self.snf2.diag if d], dtype=np.int64)

    @cached_property
    def snfB(self):
        """SNF of B = (V₂⁻¹·d₁)[r:] with U_B and U_B⁻¹, in exact integers."""
        r = len(self._diag2)
        Vinv = np.array(self.snf2.Vinv[r:], dtype=object).reshape(self.m2 - r, self.m2)
        return smith_normal_form(Vinv @ self.D1, want_u=True, want_v=False, want_uinv=True)

    @cached_property
    def cx_factors(self) -> tuple[int, ...]:
        """Invariant factors of H²(G; ℂ^×[X]) ≅ H³(G; ℤ[X]): the diagonal
        entries d_i > 1 of d₂, in ascending divisibility."""
        return tuple(int(d) for d in self._diag2 if d > 1)

    def _check_level(self, L: int):
        if L * L * max(self.m2, 1) >= 2**62:
            raise TooLarge(f"level {L} with {self.m2} cochain coordinates exceeds the int64 bound L²·m₂ < 2^62")

    @cached_property
    def _gather(self) -> tuple[np.ndarray, int]:
        """Flat positions (p, q), shape (2, n), with v[p] − v[q] the values of
        ``_normalize`` at p before reduction (q the position of (1, 1, g⁻¹x)):
        first the identity slices, then the non-identity block, each in C
        order; and the number of identity-slice positions."""
        m, X = self.module.group.order, self.module.size
        pos = np.arange(m * m * X).reshape(m, m, X)
        ref = np.broadcast_to(self.module.inverse_action[:, None, :], pos.shape)
        ident = np.zeros(pos.shape, dtype=bool)
        ident[0] = ident[:, 0] = True
        pq = np.stack([np.concatenate([a[ident], a[1:, 1:].reshape(-1)]) for a in (pos, ref)])
        return pq, int(ident.sum())

    def normalized_flat(self, c: Cochain) -> np.ndarray:
        """The non-identity block of ``_normalize(c)`` in C order, unreduced
        (entries in (−L, L)), for a degree-2 cochain over this machine's
        module.  Only a cochain whose identity slices survive the shift goes
        through ``_normalize``, which raises :class:`NotACocycle` with its
        (g, h, x) witness."""
        if c.degree != 2:
            raise ValueError("expected a degree-2 cocycle")
        pq, n = self._gather
        v = c.values.reshape(-1).take(pq)
        y = v[0] - v[1]
        if y[:n].any():
            _normalize(c)
        return y[n:]

    @cached_property
    def _d2_faces(self) -> np.ndarray:
        """The faces of the generator-row d₂ as column indices (see
        :func:`_boundary_faces`), the positive ones at [0] and the negative
        ones at [1]."""
        return _boundary_faces(self.module, 2, self.gens)[[0, 2, 1, 3]].reshape(2, 2, -1)

    def cocycle_mod(self, flat, L: int) -> np.ndarray:
        """The normalized level-L cocycle x = ``flat`` mod L, for ``flat``
        from ``normalized_flat``.  Raises :class:`NotACocycle` unless
        d₂x ≡ 0 (mod L) on the generator rows, with the first failing row
        (s, h, k, x) in C order as witness; this decides whether the cochain
        is a cocycle (module docstring)."""
        self._check_level(L)
        x = np.empty(self.m2 + 1, dtype=np.int64)
        np.remainder(flat, L, out=x[: self.m2])
        x[self.m2] = 0                  # the column that identity arguments read
        signed = x.take(self._d2_faces).sum(axis=1)
        dx = (signed[0] - signed[1]) % L
        if dx.any():
            m, X = self.module.group.order, self.module.size
            i, h, k, p = np.unravel_index(np.flatnonzero(dx)[0], (len(self.gens), m - 1, m - 1, X))
            witness = (self.gens[i], int(h) + 1, int(k) + 1, int(p))
            raise NotACocycle(f"d₂ of the normalized cochain is nonzero mod {L} at {witness}", witness=witness)
        return x[: self.m2]

    def _read(self, flat, L: int, readers: dict, build) -> tuple[int, ...]:
        """Coordinates (R·x mod L)·a // b mod o of x = ``cocycle_mod(flat,
        L)``, for the reader (R, a, b, o) kept for L in ``readers`` (made by
        ``build()`` on first use)."""
        x = self.cocycle_mod(flat, L)
        R, a, b, o = recent_level(readers, L, build)
        return tuple(((R @ x) % L * a // b % o).tolist())

    def _rows_mod(self, rows: list[dict[int, int]], L: int) -> np.ndarray:
        """Sparse integer rows (column → value) as a dense int64 array mod L."""
        R = np.zeros((len(rows), self.m2), dtype=np.int64)
        for i, row in enumerate(rows):
            R[i, list(row)] = [v % L for v in row.values()]
        return R

    def cx_coords(self, flat, L: int) -> tuple[int, ...]:
        """Coordinates in ``cx_factors`` of the ℂ^× class of a normalized
        level-L cocycle: (d_i·w_i/L mod d_i) over the d_i > 1, w = V₂⁻¹x."""
        return self._read(flat, L, self._cx_readers, lambda: self._cx_reader(L))

    def _cx_reader(self, L: int):
        """The reader of ``cx_coords`` at level L: the rows i of V₂⁻¹ with
        d_i > 1, then (·d_i) // L mod d_i."""
        d = self._diag2
        keep = np.flatnonzero(d > 1)
        rows = self._rows_mod([self.snf2.sparse["Vinv"][i] for i in keep], L)
        return rows, d[keep], L, d[keep]

    def level_classes(self, L: int) -> tuple[tuple[int, ...], tuple[int, ...], np.ndarray]:
        """The indices k, orders and generators (rows, read-only) of the
        cyclic factors of H²(G; ℤ/L[X]) of order > 1; k < r indexes d_k,
        k ≥ r e_{k−r}.  Kept for the ``MOD_LEVELS`` most recently used
        levels, like the transform copies they are read from."""
        self._check_level(L)
        return recent_level(self._classes, L, lambda: self._level_classes(L))

    def _level_classes(self, L: int):
        d, e, r = self._diag2, self.snfB.diag, len(self._diag2)
        orders = [gcd(int(v), L) for v in d] + [gcd(v, L) for v in e] + [L] * (self.m2 - r - len(e))
        ks = tuple(k for k, o in enumerate(orders) if o > 1)
        V = self.snf2._mod("V", L)
        gens = np.empty((len(ks), self.m2), dtype=np.int64)
        head = [k for k in ks if k < r]
        gens[: len(head)] = (V[:, head] * [L // orders[k] for k in head] % L).T
        # only the tail columns of U_B⁻¹ that name a kept factor
        tail = [k - r for k in ks[len(head):]]
        gens[len(head):] = (V[:, r:] @ self.snfB._mod("Uinv", L)[:, tail] % L).T
        gens.setflags(write=False)
        return ks, tuple(orders[k] for k in ks), gens

    def level_coords(self, flat, L: int) -> tuple[int, ...]:
        """Coordinates in the ``level_classes(L)`` factors of a normalized
        level-L cocycle's class: w_k·gcd(d_k, L)/L for k < r and
        (U_B·w[r:])_{k−r} past r, w = V₂⁻¹x, each mod its order."""
        return self._read(flat, L, self._level_readers, lambda: self._level_reader(L))

    def _level_reader(self, L: int):
        """The reader of ``level_coords`` at level L: the rows k < r of V₂⁻¹
        kept by ``level_classes``, each then divided by L/gcd(d_k, L), and
        the kept rows k − r of U_B·V₂⁻¹[r:]; all mod their orders."""
        ks, orders, _ = self.level_classes(L)
        r, Vinv, U = len(self._diag2), self.snf2.sparse["Vinv"], self.snfB.sparse["U"]
        rows = []
        for k in ks:
            if k < r:
                rows.append(Vinv[k])
                continue
            row: dict[int, int] = {}          # (U_B·V₂⁻¹[r:])_{k−r}, exact
            for t, u in U[k - r].items():
                for j, v in Vinv[r + t].items():
                    row[j] = row.get(j, 0) + u * v
            rows.append(row)
        o = np.array(orders, dtype=np.int64)
        b = np.array([L // q if k < r else 1 for k, q in zip(ks, orders)], dtype=np.int64)
        return self._rows_mod(rows, L), 1, b, o


@lru_cache(maxsize=None)
def _machine_for(group: FiniteGroup, action: bytes) -> _H2Machine:
    """One machine per group and action (the level is not part of the key)."""
    table = np.frombuffer(action, dtype=np.int64).reshape(group.order, -1)
    return _H2Machine(GModule(group, 1, table))


def _machine(module: GModule) -> _H2Machine:
    return _machine_for(module.group, module.action.tobytes())


# Bounds on the generator-row d₂ (|S|·m₂ rows, m₂ = (m−1)²·X columns),
# checked before any matrix is built; the columns are bounded too because the
# int64 copy of V₂ that each level's generators read is dense m₂×m₂.  Every
# group of order 64 has m₂ = 3969 and is refused.  The worst case within them
# is Z2⁵ (5 generators, 4805×961): a cold ``schur_classes`` takes 4.3 s at
# 113 MB peak RSS, against 0.67 s at 63 MB for D16 (order 32, 1922×961) and
# 0.32 s at 42 MB for S4 (1058×529), medians of 7 runs each, taken back to
# back on a 2-core Xeon under Python 3.11.
D2_MAX_ROWS = 5000
D2_MAX_COLS = 1024


def is_coboundary(c: Cochain):
    """A 1-cochain π with dπ = c, or None if no witness exists mod the level.
    Raises :class:`NotACocycle` when c is not a 2-cocycle, with the witness
    of the class reads: the first (g, h, x) where an identity slice survives
    normalizing, else the first nonzero generator row (s, h, k, x) of dc.
    Raises :class:`WrongWitness` with the first (g, h, x) where dπ ≠ c if
    the solver returned a wrong π."""
    if c.degree != 2:
        raise ValueError("is_coboundary expects a degree-2 cochain")
    machine = _machine(c.module)
    sol = solve_mod(machine.snf1, machine.cocycle_mod(machine.normalized_flat(c), c.level), c.level)
    if sol is None:
        return None
    pi = _embed_norm(c.module, 1, sol)
    # un-normalize: shift by the constant c(1,1), so dπ = c exactly
    const = np.broadcast_to(c.values[0, 0], (c.group.order, c.module.size))
    witness = pi + Cochain(c.module, 1, const)
    wrong = np.argwhere(differential(witness).values != c.values)
    if len(wrong):
        g, h, x = (int(v) for v in wrong[0])
        raise WrongWitness(f"dπ ≠ c at ({g}, {h}, x={x}) for the solved π", witness=(g, h, x))
    return witness


class CohomologyClassSet:
    """Finite abelian group ⊕ ℤ/o of the classes Σ c_k·gens[k], c_k < orders[k],
    isomorphic to ⊕ ℤ/f over ``invariant_factors`` (ascending divisibility).
    Class c has the coordinates c; its representative is reduced modulo the
    rows of ``lattice`` plus Lℤ^{m₂}, and classes are sorted by it, so class
    0 is zero.  ``generator_classes[k]`` is the index of the class with
    coordinates e_k.  ``coords_fn`` maps a cocycle to the coordinates of its
    class."""

    def __init__(self, module, lattice, gens, orders, invariant_factors, coords_fn):
        L, n = module.level, len(orders)
        combos = np.array(list(product(*map(range, orders))), dtype=np.int64).reshape(prod(orders), n)
        reps = hermite_reduce(hermite_mod(lattice, L), combos @ gens, L)
        order = sorted(range(len(reps)), key=lambda i: reps[i].tolist())
        self.module = module
        self.representatives = tuple(_embed_norm(module, 2, reps[i]) for i in order)
        self.orders = tuple(orders)
        self.invariant_factors = tuple(invariant_factors)
        self.coordinates = tuple(tuple(map(int, combos[i])) for i in order)
        self._coords_fn = coords_fn
        self._index = {c: i for i, c in enumerate(self.coordinates)}
        self.generator_classes = tuple(self.index_of_coords(int(t == k) for t in range(n)) for k in range(n))

    def __len__(self) -> int:
        return len(self.representatives)

    def index_of(self, c: Cochain) -> int:
        """Index of the class of the given cocycle."""
        return self._index[self._coords_fn(c)]

    def index_of_coords(self, coords) -> int:
        """Index of the class with the given coordinates, taken mod the orders;
        ValueError unless there is one coordinate per order."""
        coords = tuple(coords)
        if len(coords) != len(self.orders):
            raise ValueError(f"{len(coords)} coordinates given for {len(self.orders)} orders")
        return self._index[tuple(int(c) % o for c, o in zip(coords, self.orders))]

    def add(self, i: int, j: int) -> int:
        """Index of the sum of classes i and j."""
        ci, cj = self.coordinates[i], self.coordinates[j]
        return self._index[tuple((x + y) % o for x, y, o in zip(ci, cj, self.orders))]

    def __repr__(self) -> str:
        shape = " ⊕ ".join(f"Z/{d}" for d in self.invariant_factors) or "trivial"
        return f"CohomologyClassSet({len(self)} classes, {shape})"


@lru_cache(maxsize=None)
def _invariant_factors(orders: tuple[int, ...]) -> tuple[int, ...]:
    """Invariant factors f > 1 of ⊕_k ℤ/o_k: the orders themselves for a
    divisor chain, else the SNF of diag(o).  Cached, since few order tuples
    occur."""
    if all(b % a == 0 for a, b in zip(orders, orders[1:])):
        return orders
    return tuple(f for f in smith_normal_form(np.diag(orders), want_u=False, want_v=False).diag if f > 1)


def h2(G: FiniteGroup, module: GModule) -> CohomologyClassSet:
    """Degree-2 cohomology of G with coefficients in the module, as a finite
    abelian group with canonical representative cocycles."""
    if module.group != G:
        raise ValueError("module is not over the given group")
    machine = _machine(module)
    L = module.level
    _, orders, gens = machine.level_classes(L)
    if prod(orders) > 4096:
        raise TooLarge(f"{prod(orders)} cohomology classes exceed the enumeration cap")

    def coords_fn(c: Cochain) -> tuple[int, ...]:
        if c.module != module:
            raise ValueError("cochain is not over this module")
        return machine.level_coords(machine.normalized_flat(c), L)

    return CohomologyClassSet(module, machine.D1.T, gens, orders, _invariant_factors(tuple(orders)), coords_fn)


def _cx_coords(c: Cochain) -> tuple[int, ...]:
    """Coordinates of the ℂ^× class of a 2-cocycle, at any level."""
    machine = _machine(c.module)
    return machine.cx_coords(machine.normalized_flat(c), c.level)


def cohomologous_over_Cx(c1: Cochain, c2: Cochain) -> bool:
    """Whether two 2-cocycles become cohomologous with ℂ^× coefficients.

    The levels may differ: each cocycle's ℂ^× class is read off the integer
    SNF of d₂ (see the module docstring), and the two coordinate tuples are
    compared.
    """
    if c1.group != c2.group or c1.module.size != c2.module.size:
        raise ValueError("cochains must live over the same group and G-set")
    if not np.array_equal(c1.module.action, c2.module.action):
        raise ValueError("cochains must share the module action")
    return _cx_coords(c1) == _cx_coords(c2)


def schur_classes(G: FiniteGroup) -> CohomologyClassSet:
    """ℂ^×-cohomology classes of G (the Schur multiplier H²(G; ℂ^×)) at
    level |G|: the class with coordinates c in ``cx_factors`` is
    Σ c_i·(|G|/d_i)·V₂e_i (|G| annihilates H³(G; ℤ), so d_i | |G|).
    ``index_of`` accepts a trivial-module cocycle over G at any level.

    Built once and kept on the machine.  Groups with equal tables share a
    machine but may differ in ``origin`` and name, which the representatives
    carry, so those two are part of the key."""
    module = GModule.trivial(G, G.order)
    machine = _machine(module)
    key = (G.origin, G.name)
    if key not in machine._schur:
        machine._schur[key] = _schur_classes(G, module, machine)
    return machine._schur[key]


def _schur_classes(G: FiniteGroup, module: GModule, machine: _H2Machine) -> CohomologyClassSet:
    L = G.order
    machine._check_level(L)
    d, r, V = machine._diag2, len(machine._diag2), machine.snf2._mod("V", L)
    gens = (V[:, :r][:, d > 1] * (L // d[d > 1])).T % L

    def coords_fn(c: Cochain) -> tuple[int, ...]:
        if c.group != G or not c.module.is_trivial:
            raise ValueError("expected a trivial-module cocycle over this group")
        return _cx_coords(c)

    factors = machine.cx_factors
    return CohomologyClassSet(module, V[:, r:].T, gens, factors, factors, coords_fn)


# ---------------------------------------------------------------------------
# Random cochains/cocycles (deterministic given an RNG)


# Below this many missing entries one ``randrange`` per entry is cheaper than
# a bulk round of numpy calls.
_LOOP_DRAWS = 16


def random_cochain(module: GModule, degree: int, rng) -> Cochain:
    """Uniform cochain drawn from ``rng`` (a ``random.Random``): the entries,
    in C order, and the generator's final state are exactly those of
    ``[rng.randrange(L) for _ in range(n)]`` (see :func:`_draws`)."""
    shape = (module.group.order,) * degree + (module.size,)
    return Cochain._make(module, degree, _draws(rng, module.level, prod(shape)).reshape(shape))


def _draws(rng, L: int, r: int) -> np.ndarray:
    """``[rng.randrange(L) for _ in range(r)]`` as an int64 array, leaving
    ``rng`` in the same state.

    ``randrange(L)`` draws 32-bit words w and keeps the first w >> (32 − k)
    below L, with k = L.bit_length(); ``getrandbits(32·r)`` returns the next
    r such words, least significant first.  Each round draws one word per
    missing entry, which the loop would draw too, and keeps the accepted
    ones; the last few entries, where a round costs more than the loop, are
    drawn by ``randrange`` itself.  Levels need k ≤ 32: a level of 2³² or
    more raises :class:`TooLarge` before any draw."""
    k = L.bit_length()
    if k > 32:
        raise TooLarge(f"level {L} exceeds the random-draw bound 2^32 − 1")
    parts = []
    while r > _LOOP_DRAWS:
        words = np.frombuffer(rng.getrandbits(32 * r).to_bytes(4 * r, "little"), dtype="<u4") >> (32 - k)
        parts.append(words[words < L])
        r -= len(parts[-1])
    parts.append(np.array([rng.randrange(L) for _ in range(r)], dtype=np.int64))
    return np.concatenate(parts)


def random_cocycle(module: GModule, rng) -> Cochain:
    """Uniform-ish random 2-cocycle: random coboundary plus a random class
    Σ k·gen, one k = ``rng.randrange(L)`` per class generator, in order."""
    L = module.level
    _, _, gens = _machine(module).level_classes(L)
    pi = random_cochain(module, 1, rng)
    coeffs = np.array([rng.randrange(L) for _ in range(len(gens))], dtype=np.int64)
    return differential(pi) + _embed_norm(module, 2, coeffs @ gens % L)
