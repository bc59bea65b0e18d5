"""Smith normal form: unimodular transforms, divisibility, sympy cross-check."""

import hashlib
import json
import os
import subprocess
import sys
from math import gcd
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from conftest import symmetric_3
from twochar.cochains import GModule, _normalized_boundary
from twochar.errors import TooLarge
from twochar.groups import from_permutation_generators, generated_subgroup
from twochar.snf import smith_normal_form, solve_mod


def _as_np(rows):
    return np.array(rows, dtype=object)


def _check_decomposition(A):
    A = [list(map(int, row)) for row in A]
    m, n = len(A), len(A[0]) if A else 0
    res = smith_normal_form(A, want_u=True, want_v=True, want_uinv=True, want_vinv=True)
    U, V = _as_np(res.U), _as_np(res.V)
    S = U @ _as_np(A) @ V
    for i in range(m):
        for j in range(n):
            expect = res.diag[i] if i == j and i < len(res.diag) else 0
            assert S[i][j] == expect
    assert abs(round(float(sympy.Matrix(res.U).det()))) == 1
    assert abs(round(float(sympy.Matrix(res.V).det()))) == 1
    assert (_as_np(res.U) @ _as_np(res.Uinv) == np.eye(m, dtype=object)).all()
    assert (_as_np(res.V) @ _as_np(res.Vinv) == np.eye(n, dtype=object)).all()
    for i in range(len(res.diag) - 1):
        if res.diag[i + 1]:
            assert res.diag[i + 1] % max(res.diag[i], 1) == 0 or res.diag[i] == 0
    return res


def _sympy_divisors(A):
    m = sympy.Matrix(A)
    if m.rows == 0 or m.cols == 0:
        return []
    d = sympy_snf(m)
    return [abs(int(d[i, i])) for i in range(min(d.rows, d.cols))]


def test_known_matrices():
    res = _check_decomposition([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert res.diag == [2, 2, 156]
    res = _check_decomposition([[1, 0], [0, 1]])
    assert res.diag == [1, 1]
    res = _check_decomposition([[0, 0], [0, 0]])
    assert res.diag == [0, 0]
    # 2 does not divide 3: the divisor-chain fix-up turns diag(2, 3) into (1, 6)
    res = _check_decomposition([[2, 0], [0, 3], [0, 0]])
    assert res.diag == [1, 6]


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(1, 5),
    n=st.integers(1, 5),
    data=st.data(),
)
def test_matches_sympy_oracle(m, n, data):
    A = [
        [data.draw(st.integers(-9, 9)) for _ in range(n)]
        for _ in range(m)
    ]
    res = _check_decomposition(A)
    mine = [d for d in res.diag if d]
    theirs = [d for d in _sympy_divisors(A) if d]
    assert mine == theirs


def test_large_entries_stay_exact():
    A = [[10**12, 10**9 + 7], [10**6, 3]]
    res = _check_decomposition(A)
    assert [d for d in res.diag if d] == [d for d in _sympy_divisors(A) if d]


def test_solve_mod_roundtrip():
    A = [[2, 0, 1], [0, 4, 2], [2, 4, 3]]
    L = 8
    res = smith_normal_form(A, want_u=True, want_v=True)
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = rng.integers(0, L, size=3)
        b = (np.array(A) @ x) % L
        sol = solve_mod(res, b, L)
        assert sol is not None
        assert ((np.array(A) @ np.array(sol)) % L == b).all()


def test_solve_mod_detects_inconsistency():
    A = [[2, 0], [0, 2]]
    res = smith_normal_form(A)
    assert solve_mod(res, [1, 0], 4) is None
    assert solve_mod(res, [2, 2], 4) is not None


# ---------------------------------------------------------------------------
# Transform pins: the kernel must make the same elementary operations


def _coset_action(G, H):
    """Left action of G on the cosets xH, the coset of H first."""
    where, reps = {}, []
    for g in G.elements:
        if g not in where:
            for h in H.elements:
                where[G.mul(g, h)] = len(reps)
            reps.append(g)
    return [[where[G.mul(g, x)] for x in reps] for g in G.elements]


def _digest(*parts):
    doc = json.dumps(parts, separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()


def _image_lattice(D1, d2, L):
    """The image lattice W in the coordinates of the level-L cocycles, as a
    per-level H² presentation would reduce it: row i holds (V₂⁻¹d₁)[i]
    divided by L/gcd(d_i, L), then gcd(d_i, L)·V₂⁻¹[i].  It is a dense
    matrix with entries beyond ±1, which the boundary matrices lack."""
    m2 = len(d2.Vinv)
    d = [d2.diag[i] if i < len(d2.diag) else 0 for i in range(m2)]
    g = [gcd(di, L) for di in d]
    Y = np.array(d2.Vinv, dtype=object) @ D1
    return [
        [int(v) // (L // g[i]) for v in Y[i]] + [g[i] * int(v) for v in d2.Vinv[i]]
        for i in range(m2)
    ]


def _transform_digests():
    """sha256 over (diag, U, V, Uinv, Vinv) for three SNFs on each module:
    d₁ with U and V, d₂ with V and V⁻¹, and the image lattice W with U and
    U⁻¹ at level |G|."""
    S3 = symmetric_3()
    modules = {
        "A4": GModule.trivial(from_permutation_generators(4, [(1, 2, 0, 3), (0, 2, 3, 1)]), 12),
        "D6": GModule.trivial(
            from_permutation_generators(6, [(1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)]), 12
        ),
        "S3/Z2": GModule.permutation(S3, _coset_action(S3, generated_subgroup(S3, [1])), 6),
    }
    out = {}
    for name, module in modules.items():
        D1 = _normalized_boundary(module, 1)
        d1 = smith_normal_form(D1, want_u=True, want_v=True)
        d2 = smith_normal_form(
            _normalized_boundary(module, 2), want_u=False, want_v=True, want_vinv=True
        )
        W = smith_normal_form(
            _image_lattice(D1, d2, module.level), want_u=True, want_v=False, want_uinv=True
        )
        for label, res in (("d1", d1), ("d2", d2), ("W", W)):
            out[f"{name} {label}"] = _digest(res.diag, res.U, res.V, res.Uinv, res.Vinv)
    return out


TRANSFORM_DIGESTS = {
    "A4 d1": "64d82008d19aa9e22fb65ae3525ec2b13b24362406b7fcbc89df8adde0c7ece1",
    "A4 d2": "ff7f4db5faf56983fdc2dd23941c868c15c3c35f5d4c19e279a637cb0856348a",
    "A4 W": "eadaaeada439512ba7602c25389b9730f2be488d661b4ada16b15109517f32b3",
    "D6 d1": "f7f8fe56100c3fc3a3ff72aab9570a25f425eac28df9a98abd0feea68ad2750d",
    "D6 d2": "48fd209687efe6df6173e1fd518ab2dabe559b9bb97e6b40cfc81163a0114e83",
    "D6 W": "d56f36bd73f867aba11d98527095ffa610dcfcb323f98981443ec0c6c65df2cb",
    "S3/Z2 d1": "0bba1d2bcf904631351426ee451da0bb7a7040a8b8e58c0dd094c15755690fc4",
    "S3/Z2 d2": "36b52d884dee979d6ab2f1712f2768a41bab17313d1e02fec13e6208136deca6",
    "S3/Z2 W": "e6690aa70d23f4dbd7b13268c7da08b257f58b1a40a4586409befa6679c26001",
}


def test_transforms_match_pinned_digests():
    assert _transform_digests() == TRANSFORM_DIGESTS


# ---------------------------------------------------------------------------
# Boundary-like sparse matrices: 0/±1 entries, at most four per row; rows
# scaled by 2 or 3 give pivots > 1 and exercise the divisor-chain fix-up


@st.composite
def _boundary_like(draw):
    m, n = draw(st.integers(1, 20)), draw(st.integers(1, 10))
    rows = []
    for _ in range(m):
        row = [0] * n
        for j in draw(st.lists(st.integers(0, n - 1), max_size=4, unique=True)):
            row[j] = draw(st.sampled_from((1, -1)))
        scale = draw(st.sampled_from((1, 1, 1, 2, 3)))
        rows.append([scale * v for v in row])
    return rows


@settings(max_examples=120, deadline=None)
@given(A=_boundary_like())
def test_boundary_like_matches_sympy_oracle(A):
    res = _check_decomposition(A)
    assert [d for d in res.diag if d] == [d for d in _sympy_divisors(A) if d]
    assert (res.diag, res.U, res.V, res.Uinv, res.Vinv) == _reference_snf(A)


# ---------------------------------------------------------------------------
# int64 bound of solve_mod


def test_solve_mod_rejects_levels_past_int64():
    res = smith_normal_form([[1, 0], [0, 1]])
    with pytest.raises(TooLarge):
        solve_mod(res, [0, 0], 2**31)        # 2^62 · 2 ≥ 2^62
    assert solve_mod(res, [1, 1], 2**30 - 1) == [1, 1]


def test_solve_mod_bound_survives_optimize_flag():
    code = (
        "from twochar.errors import TooLarge\n"
        "from twochar.snf import smith_normal_form, solve_mod\n"
        "try:\n"
        "    solve_mod(smith_normal_form([[1]]), [0], 2**31)\n"
        "except TooLarge:\n"
        "    print('TooLarge')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "TooLarge"


# ---------------------------------------------------------------------------
# Dead rows: the kernel skips rows it has found zero.  The reference below is
# the plain dense elimination with the same operations in the same order,
# touching every row and every entry.


def _reference_snf(A):
    S = [list(map(int, row)) for row in A]
    m, n = len(S), len(S[0])
    U, UinvT = [[int(i == j) for j in range(m)] for i in range(m)], [[int(i == j) for j in range(m)] for i in range(m)]
    VT, Vinv = [[int(i == j) for j in range(n)] for i in range(n)], [[int(i == j) for j in range(n)] for i in range(n)]

    def axpy(dst, src, q):
        for k in range(len(dst)):
            dst[k] -= q * src[k]

    def row_sub(i, j, q):
        axpy(S[i], S[j], q)
        axpy(U[i], U[j], q)
        axpy(UinvT[j], UinvT[i], -q)

    def swap_rows(i, j):
        for M in (S, U, UinvT):
            M[i], M[j] = M[j], M[i]

    def col_sub(j, i, q):
        for r in S:
            r[j] -= q * r[i]
        axpy(VT[j], VT[i], q)
        axpy(Vinv[i], Vinv[j], -q)

    def swap_cols(i, j):
        for r in S:
            r[i], r[j] = r[j], r[i]
        for M in (VT, Vinv):
            M[i], M[j] = M[j], M[i]

    for t in range(min(m, n)):
        cells = [(abs(S[i][j]), i, j) for i in range(t, m) for j in range(t, n) if S[i][j]]
        if not cells:
            break
        _, pi, pj = min(cells)             # row-major first of least absolute value
        swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        while True:
            again = False
            for i in range(m):
                if i != t and S[i][t]:
                    q = S[i][t] // S[t][t]
                    if q:
                        row_sub(i, t, q)
                    if S[i][t]:
                        swap_rows(i, t)
                        again = True
            if again:
                continue
            for j in range(n):
                if j != t and S[t][j]:
                    q = S[t][j] // S[t][t]
                    if q:
                        col_sub(j, t, q)
                    if S[t][j]:
                        swap_cols(j, t)
                        again = True
            if again:
                continue
            p = S[t][t]
            viol = next((i for i in range(t + 1, m) if any(v % p for v in S[i][t + 1:])), None)
            if viol is None:
                break
            row_sub(t, viol, -1)
        if S[t][t] < 0:
            S[t], U[t], UinvT[t] = ([-v for v in M[t]] for M in (S, U, UinvT))
    diag = [S[i][i] for i in range(min(m, n))]
    return diag, U, [list(c) for c in zip(*VT)], [list(c) for c in zip(*UinvT)], Vinv


def _rows_that_die(seed: int) -> list[list[int]]:
    """Sparse rows, zero rows, and integer combinations of earlier rows,
    which become zero partway through the elimination; shuffled."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    rows = []
    for _ in range(int(rng.integers(2, 14))):
        row = [0] * n
        for j in rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)), replace=False):
            row[j] = int(rng.choice([1, -1, 2, -2, 3]))
        rows.append(row)
    for _ in range(int(rng.integers(1, 4))):
        rows.append([0] * n)
    for _ in range(int(rng.integers(2, 10))):
        picks = rng.choice(len(rows), size=min(3, len(rows)), replace=False)
        coeffs = rng.integers(-3, 4, size=len(picks))
        rows.append([int(sum(int(c) * rows[p][j] for c, p in zip(coeffs, picks))) for j in range(n)])
    return [rows[i] for i in rng.permutation(len(rows))]


@pytest.mark.parametrize("seed", range(60))
def test_dead_rows_leave_every_transform_unchanged(seed):
    A = _rows_that_die(seed)
    res = smith_normal_form(A, want_u=True, want_v=True, want_uinv=True, want_vinv=True)
    assert sum(1 for d in res.diag if d) < len(A)           # some rows die
    assert (res.diag, res.U, res.V, res.Uinv, res.Vinv) == _reference_snf(A)


def test_object_array_past_int64_stays_exact():
    # B = (V₂⁻¹·d₁)[r:] reaches the kernel as an object array of Python ints
    A = np.array([[2**64 + 2, 6, 0], [4, 2**63 + 3, 10], [0, 8, -(2**65)]], dtype=object)
    res = smith_normal_form(A, want_u=True, want_v=True, want_uinv=True, want_vinv=True)
    assert (res.diag, res.U, res.V, res.Uinv, res.Vinv) == _reference_snf(A.tolist())
    assert all(type(v) is int for row in res.U + res.V for v in row)
    assert res.diag == _sympy_divisors(A.tolist())
