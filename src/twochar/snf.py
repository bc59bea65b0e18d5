"""Smith normal form over the integers, with unimodular transforms.

``smith_normal_form(A)`` returns ``U·A·V = S`` with ``S`` diagonal, entries
nonnegative, and each diagonal entry dividing the next.  Inverses of the
transforms can be tracked alongside (columns/rows updated by the inverse
elementary operations), which is what the cohomology solvers need to move
between cocycle coordinates and class coordinates exactly.

All arithmetic is plain Python integers, so nothing overflows.  S is kept
as dense rows.  The transforms are kept as sparse rows, each a dict from
column to nonzero value: U and V⁻¹ by their rows, V and U⁻¹ by the rows of
their transposes, since a column operation on a matrix is a row operation
on its transpose.  An elementary operation iterates only the nonzeros of
its source row, and entries that cancel are dropped.  The transforms stay
sparse (on the generator-row d₂ of D8, V ends 10% and V⁻¹ 3% nonzero);
``SNFResult`` builds dense lists or int64 copies from them on demand.

The matrices the cohomology code reduces are sparse too (a bar-complex
boundary row has at most four nonzeros), so a row operation on S touches
only the nonzero entries of its source row, and a column operation only the
rows that are nonzero in its source column.  Each sweep lists once the rows
below t that are nonzero in column t, or the nonzero columns of row t: a
row operation changes only rows i and t, and a column operation only
column j, so the entries still to visit keep their values.  The
divisor-chain scan is skipped for a pivot of ±1, which divides everything.
Once step t is reached, the rows and columns before t hold only their
pivots, so column swaps and sweeps start at row t.  A row whose block
S[t:, t:] is zero when the pivot search reaches it is then zero as a whole;
it is marked dead and skipped by the pivot search, column swaps, the column
sweep and the divisor-chain scan.  A zero row stays zero: row operations
only touch rows that are nonzero in the pivot column, and column operations
add zeros to it; a row swap moves the mark with the row.  None of these
shortcuts changes which operations run or in what order, so the diagonal
and the transforms are the same as those of the plain dense elimination.

``solve_mod`` solves A·x ≡ b (mod L) as x = V·y with t = U·b: t_i must be
divisible by g_i = gcd(d_i, L) (by L, so zero, past the rank r), and then
y_i = (t_i/g_i)·(d_i/g_i)⁻¹ mod L/g_i for i < r and y_i = 0 past r.  It reads
U from its sparse rows, as column indices, values mod L and row starts, so
t is one gather, one product and one ``np.add.reduceat``; only the r rank
rows are divided, and only the first r columns of V are kept.  This reader
is built once per level and kept with the transform copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

import numpy as np

from .errors import TooLarge

# transforms kept as the rows of their transposes
_TRANSPOSED = ("V", "Uinv")


@dataclass
class SNFResult:
    """``U·A·V = S`` for an m×n matrix A (``rows`` × ``cols``), S with the
    diagonal ``diag``.  ``sparse[which]`` holds the transform ``which``
    ("U", "V", "Uinv" or "Vinv") as sparse rows of itself (U, V⁻¹) or of its
    transpose (V, U⁻¹), or None if it was not asked for.  The attributes
    ``U``, ``V``, ``Uinv`` and ``Vinv`` read it as dense lists of rows, built
    on first read."""

    rows: int
    cols: int
    diag: list[int]
    sparse: dict[str, list[dict[int, int]] | None]

    _mod_cache: dict = field(default_factory=dict)
    _dense: dict = field(default_factory=dict)

    U = property(lambda self: self._dense_rows("U"))
    V = property(lambda self: self._dense_rows("V"))
    Uinv = property(lambda self: self._dense_rows("Uinv"))
    Vinv = property(lambda self: self._dense_rows("Vinv"))

    def _entries(self, which: str) -> tuple[list[int], list[int], list[int]]:
        """Row indices, column indices and values of the nonzero entries of
        transform ``which``."""
        rows = self.sparse[which]
        i = [r for r, row in enumerate(rows) for _ in row]
        j = [c for row in rows for c in row]
        v = [x for row in rows for x in row.values()]
        return (j, i, v) if which in _TRANSPOSED else (i, j, v)

    def _size(self, which: str) -> int:
        return self.rows if which.startswith("U") else self.cols

    def _dense_rows(self, which: str) -> list[list[int]] | None:
        if self.sparse[which] is None:
            return None
        if which not in self._dense:
            size = self._size(which)
            out = [[0] * size for _ in range(size)]
            for i, j, v in zip(*self._entries(which)):
                out[i][j] = v
            self._dense[which] = out
        return self._dense[which]

    def _mod(self, which: str, L: int) -> np.ndarray:
        """Transform ``which`` reduced mod L as int64, built from its
        nonzeros.  Products with it stay exact because its callers refuse
        levels with L² times the transform size ≥ 2^62."""
        def build():
            i, j, v = self._entries(which)
            arr = np.zeros((self._size(which),) * 2, dtype=np.int64)
            arr[i, j] = [x % L for x in v]
            return arr
        return self._at_level(which, L, build)

    def _at_level(self, key: str, L: int, build):
        """The level-L copy ``key``, made by ``build()`` on a miss.  Copies
        are kept for the ``MOD_LEVELS`` most recently used levels only."""
        copies = recent_level(self._mod_cache, L, dict)    # {key: copy}
        if key not in copies:
            copies[key] = build()
        return copies[key]

    def _solver(self, L: int):
        """What ``solve_mod`` reads at level L (module docstring): U's
        nonzeros mod L as column indices, values and row starts; g_i =
        gcd(d_i, L) for every row (L past the rank r); for i < r the moduli
        L/g_i and the inverses of d_i/g_i mod them; and the first r columns
        of V mod L, as rows."""
        U, VT = self.sparse["U"], self.sparse["V"]
        # U is invertible, so no row is empty, as np.add.reduceat needs
        cols = np.array([c for row in U for c in row], dtype=np.int64)
        vals = np.array([v % L for row in U for v in row.values()], dtype=np.int64)
        starts = np.cumsum([0] + [len(row) for row in U[:-1]], dtype=np.int64)
        d = [v for v in self.diag if v]
        gd = [gcd(v, L) for v in d]
        red = [L // q for q in gd]
        inv = [pow(v // q, -1, p) for v, q, p in zip(d, gd, red)]
        g = np.array(gd + [L] * (self.rows - len(d)), dtype=np.int64)
        Vr = np.zeros((len(d), self.cols), dtype=np.int64)
        for i, col in enumerate(VT[: len(d)]):
            Vr[i, list(col)] = [v % L for v in col.values()]
        return cols, vals, starts, g, np.array(red, dtype=np.int64), np.array(inv, dtype=np.int64), Vr


# levels whose int64 transform copies an SNFResult keeps
MOD_LEVELS = 4


def recent_level(cache: dict, L: int, build):
    """``cache[L]``, made by ``build()`` on a miss.  The dict holds levels
    least recently used first, and keeps the ``MOD_LEVELS`` most recent."""
    value = cache.pop(L) if L in cache else build()
    cache[L] = value
    if len(cache) > MOD_LEVELS:
        del cache[next(iter(cache))]
    return value


def _nonzero(row: list[int]) -> list[int]:
    return [k for k, v in enumerate(row) if v]


def _sub(dst: list[int], src: list[int], q: int, nz: list[int]):
    # dst ← dst − q·src on dense rows, where nz holds the nonzero positions of src
    for k in nz:
        dst[k] -= q * src[k]


def _sub_sparse(dst: dict[int, int], src: dict[int, int], q: int):
    # dst ← dst − q·src on sparse rows; q ≠ 0, so an entry that cancels was in dst
    for k, v in src.items():
        x = dst.get(k, 0) - q * v
        if x:
            dst[k] = x
        else:
            del dst[k]


def _pivot(S: list[list[int]], t: int, m: int, n: int, dead: set[int]):
    """Row-major first entry of least absolute value in the block S[t:, t:].
    Rows of the block found zero are added to ``dead``."""
    best, piv = 0, None
    for i in range(t, m):
        if i in dead:
            continue
        row = S[i]
        if not any(row[t:]):
            dead.add(i)
            continue
        for j in range(t, n):
            v = row[j]
            if v and (piv is None or abs(v) < best):
                best, piv = abs(v), (i, j)
                if best == 1:
                    return piv
    return piv


def smith_normal_form(
    A,
    want_u: bool = True,
    want_v: bool = True,
    want_uinv: bool = False,
    want_vinv: bool = False,
) -> SNFResult:
    if isinstance(A, np.ndarray):     # Python ints, exact for int64 and object arrays
        S = A.tolist()
    else:
        S = [list(map(int, row)) for row in A]
    m = len(S)
    n = len(S[0]) if m else 0
    U = [{i: 1} for i in range(m)] if want_u else None
    Vinv = [{i: 1} for i in range(n)] if want_vinv else None
    # column operations on V and U⁻¹ are row operations on their transposes
    VT = [{i: 1} for i in range(n)] if want_v else None
    UinvT = [{i: 1} for i in range(m)] if want_uinv else None
    dead: set[int] = set()      # rows known to be zero (module docstring)

    def row_sub(i: int, j: int, q: int, nz_s=None):
        # S_i ← S_i − q·S_j; nz_s holds the nonzero positions of S_j, if known
        _sub(S[i], S[j], q, _nonzero(S[j]) if nz_s is None else nz_s)
        if U is not None:
            _sub_sparse(U[i], U[j], q)
        if UinvT is not None:    # U⁻¹: col_j ← col_j + q·col_i
            _sub_sparse(UinvT[j], UinvT[i], -q)

    def swap_rows(i: int, j: int):
        S[i], S[j] = S[j], S[i]
        if (i in dead) != (j in dead):
            dead.symmetric_difference_update((i, j))
        if U is not None:
            U[i], U[j] = U[j], U[i]
        if UinvT is not None:
            UinvT[i], UinvT[j] = UinvT[j], UinvT[i]

    def negate_row(i: int):
        S[i] = [-v for v in S[i]]
        if U is not None:
            U[i] = {k: -v for k, v in U[i].items()}
        if UinvT is not None:
            UinvT[i] = {k: -v for k, v in UinvT[i].items()}

    def col_sub(j: int, i: int, q: int, rows: list[int]):
        # col_j ← col_j − q·col_i; rows holds the nonzero rows of col_i
        for r in rows:
            Sr = S[r]
            Sr[j] -= q * Sr[i]
        if VT is not None:
            _sub_sparse(VT[j], VT[i], q)
        if Vinv is not None:     # V⁻¹: row_i ← row_i + q·row_j
            _sub_sparse(Vinv[i], Vinv[j], -q)

    def swap_cols(i: int, j: int):
        # rows before t are zero past their pivots, and dead rows are zero
        if i == j:
            return
        for k in range(t, m):
            if k not in dead:
                r = S[k]
                r[i], r[j] = r[j], r[i]
        if VT is not None:
            VT[i], VT[j] = VT[j], VT[i]
        if Vinv is not None:
            Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    t = 0
    R = min(m, n)
    while t < R:
        piv = _pivot(S, t, m, n, dead)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            again = False
            nz_s = _nonzero(S[t])
            for i in [i for i in range(t + 1, m) if i not in dead and S[i][t]]:
                q = S[i][t] // S[t][t]
                if q:
                    row_sub(i, t, q, nz_s)
                if S[i][t]:
                    swap_rows(i, t)
                    again = True
                    nz_s = _nonzero(S[t])
            if again:
                continue
            # the sweep above left S[t][t] alone in column t
            rows = [t]
            for j in [j for j, v in enumerate(S[t]) if v and j != t]:
                q = S[t][j] // S[t][t]
                if q:
                    col_sub(j, t, q, rows)
                if S[t][j]:
                    swap_cols(j, t)
                    again = True
                    rows = [r for r in range(t, m) if r not in dead and S[r][t]]
            if again:
                continue
            # pivot must divide the remaining block for the divisor chain;
            # ±1 divides everything
            p = S[t][t]
            if p == 1 or p == -1:
                break
            viol = next(
                (i for i in range(t + 1, m) if i not in dead and any(v % p for v in S[i][t + 1:])), None
            )
            if viol is None:
                break
            row_sub(t, viol, -1)
        if S[t][t] < 0:
            negate_row(t)
        t += 1

    diag = [S[i][i] for i in range(R)]
    return SNFResult(m, n, diag, {"U": U, "V": VT, "Uinv": UinvT, "Vinv": Vinv})


def solve_mod(snf: SNFResult, b, L: int):
    """One solution of ``A·x ≡ b (mod L)`` from a precomputed SNF of A (with
    U and V), or None when the congruence has no solution.  ``b`` must have
    one entry per row of A."""
    m, n = snf.rows, snf.cols
    if L * L * max(m, n, 1) >= 2**62:
        raise TooLarge(f"level {L} with a {m}×{n} matrix exceeds the int64 bound L²·max(m, n) < 2^62")
    bv = np.asarray(b, dtype=np.int64)
    if bv.shape != (m,):
        raise ValueError(f"b has {bv.size} entries for a matrix with {m} rows")
    bv = bv % L
    if n == 0:
        return [] if not bv.any() else None
    if m == 0:
        return [0] * n
    cols, vals, starts, g, red, inv, Vr = snf._at_level("solve", L, lambda: snf._solver(L))
    t = np.add.reduceat(vals * bv[cols], starts) % L      # U·b mod L
    if (t % g).any():
        return None
    r = len(red)
    y = t[:r] // g[:r] * inv % red
    return (y @ Vr % L).tolist()


def hermite_mod(gens, L: int) -> np.ndarray:
    """Hermite normal form, computed mod L (Domich–Kannan–Trotter), of the
    lattice spanned by the rows of ``gens`` and Lℤⁿ: the unique upper
    triangular basis H with H[k, k] | L and 0 ≤ H[j, k] < H[k, k] for j < k,
    so a vector reduced by it depends only on its coset.  Euclid steps clear
    column k into a pivot that starts as L·e_k, and (L/H[k, k])·pivot joins
    the rows left.  Entries stay below L, and products below L²."""
    A = np.asarray(gens, dtype=np.int64) % L
    H = np.zeros((A.shape[1],) * 2, dtype=np.int64)
    for k in range(len(H)):
        H[k, k] = L
        for i in np.flatnonzero(A[:, k]):
            piv, a = H[k].copy(), A[i].copy()
            while a[k]:
                piv, a = a, (piv - piv[k] // a[k] * a) % L
            H[k], A[i] = piv, a
        if H[k, k] < L:     # else H[k] = L·e_k, and nothing above it needs reducing
            A = np.vstack([A[A.any(axis=1)], (L // H[k, k]) * H[k] % L])
            q = H[:k, k] // H[k, k]
            H[:k, k:] = (H[:k, k:] - np.outer(q, H[k, k:])) % L
    return H


def hermite_reduce(H: np.ndarray, x, L: int) -> np.ndarray:
    """The unique vector of x + lattice (x a vector, or one per row) with
    0 ≤ x_k < H[k, k] in every coordinate, for H from ``hermite_mod``."""
    x = np.asarray(x, dtype=np.int64) % L
    for k in np.flatnonzero(np.diag(H) < L):    # x_k < L already where H[k, k] = L
        q = x[..., k] // H[k, k]
        x[..., k:] = (x[..., k:] - q[..., None] * H[k, k:]) % L
    return x
