"""Exact cyclotomic arithmetic.

Every mark, character value and determinant of a table of marks is an
algebraic integer, so two value types carry them, both exact:

* :class:`RootOfUnity` — the point exp(2πi·k/L), stored as (level, exponent);
* :class:`CycloInt` — an element of ℤ[ζ_L], stored as integer coordinates in
  the power basis 1, ζ, …, ζ^(φ(L)−1) modulo the L-th cyclotomic polynomial
  (φ(L) = deg Φ_L).

All arithmetic is on Python integers and runs through one table per level:
``_powers(L)`` holds the coordinates of ζ_L^k for k = 0 … L−1, built once
from Φ_L.  Since ζ^L = 1, any integer combination of powers of ζ reduces by
folding the exponent k onto row k mod L, so a root of unity is a table row,
and raising the level, a Galois conjugate and a product are each one fold.
A sum of roots of unity (every mark and character value) is one exponent
histogram at the lcm of their levels, folded once (:func:`sum_roots`); the
tables of marks and characters fold a whole matrix of histograms at once,
as one product with the int64 copy of the table (``_powers_array``).

ℚ(ζ_L) occurs only inside the Gaussian elimination of
:func:`~twochar.burnside.determinant`, as :class:`CycloRat`: a CycloInt over
a positive integer, kept reduced.  A nonzero x ∈ ℚ(ζ_L) is inverted by its
Galois norm: x⁻¹ = ∏_{σ≠1} σ(x) / N(x), where σ runs over ζ ↦ ζ^k with k
prime to L and the norm N(x) = ∏_σ σ(x) is a nonzero rational number.

Equality of roots of unity and of ℤ[ζ] values means equality of the complex
numbers denoted, so values at different levels compare correctly
(ζ₄² == −1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from .errors import InexactDivision, NotAMultiple, NotMonic


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


def _poly_divmod(num: tuple[int, ...], den: tuple[int, ...]):
    """Division with remainder by a monic integer polynomial."""
    if den[-1] != 1:
        raise NotMonic(f"divisor {den} is not monic", witness=den)
    rem = list(num)
    d = len(den) - 1
    quo = [0] * max(len(rem) - d, 0)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            quo[i - d] = c
            for j, dj in enumerate(den):
                rem[i - d + j] -= c * dj
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(quo), tuple(rem)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(L: int) -> tuple[int, ...]:
    """Coefficients (constant first, monic last) of the L-th cyclotomic
    polynomial, computed by exact division of x^L − 1.

    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    if L < 1:
        raise ValueError("level must be positive")
    if L == 1:
        return (-1, 1)
    num = tuple([-1] + [0] * (L - 1) + [1])           # x^L − 1
    den = (1,)
    for d in range(1, L):
        if L % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    quo, rem = _poly_divmod(num, den)
    if rem:
        raise InexactDivision(f"x^{L} − 1 leaves the remainder {rem}", witness=(L, rem))
    return quo


@lru_cache(maxsize=None)
def _powers(L: int) -> tuple[tuple[int, ...], ...]:
    """Power-basis coordinates of ζ_L^k for k = 0 … L−1: unit vectors below
    φ(L), then each row is ζ times the one before, with ζ^φ(L) rewritten as
    −Σ Φ_L[i]·ζ^i (Φ_L is monic)."""
    phi_poly = cyclotomic_polynomial(L)
    d = len(phi_poly) - 1
    rows = [tuple(int(i == k) for i in range(d)) for k in range(d)]
    while len(rows) < L:
        prev = rows[-1]
        top = prev[-1]
        rows.append(tuple(s - top * c for s, c in zip((0,) + prev[:-1], phi_poly)))
    return tuple(rows)


@lru_cache(maxsize=None)
def _powers_array(L: int) -> np.ndarray:
    """``_powers(L)`` as a read-only int64 matrix, L × φ(L): a matrix whose
    rows are exponent histograms at level L, times this one, is the matrix
    of their power-basis coordinates."""
    out = np.array(_powers(L), dtype=np.int64)
    out.setflags(write=False)
    return out


def _fold(hist: list[int], L: int) -> tuple[int, ...]:
    """Σ_k hist[k]·ζ_L^k in power-basis coordinates, for a list of L
    integers indexed by exponent."""
    rows = _powers(L)
    d = len(rows[0])
    out = hist[:d]
    for k in range(d, L):
        c = hist[k]
        if c:
            out = [o + c * r for o, r in zip(out, rows[k])]
    return tuple(out)


def _reduce_mod_cyclotomic(coeffs, L: int) -> tuple[int, ...]:
    """Power-basis coordinates of Σ_i coeffs[i]·ζ_L^i, i.e. the remainder of
    the polynomial modulo Φ_L, padded to φ(L) entries."""
    hist = [0] * L
    for i, c in enumerate(coeffs):
        if c:
            hist[i % L] += c
    return _fold(hist, L)


@dataclass(frozen=True)
class RootOfUnity:
    """The complex number exp(2πi·exponent/level)."""

    level: int
    exponent: int

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be positive")
        object.__setattr__(self, "exponent", self.exponent % self.level)

    def __eq__(self, other) -> bool:
        if isinstance(other, RootOfUnity):
            return self.exponent * other.level == other.exponent * self.level
        if isinstance(other, (int, CycloInt)):
            return root_to_cyclo(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        g = gcd(self.exponent, self.level)
        return hash((self.exponent // g, self.level // g))

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        if not isinstance(other, RootOfUnity):
            return NotImplemented
        L = self.level * other.level // gcd(self.level, other.level)
        return RootOfUnity(L, self.exponent * (L // self.level) + other.exponent * (L // other.level))

    def to_complex(self) -> complex:
        from cmath import exp, pi

        return exp(2j * pi * self.exponent / self.level)


class CycloInt:
    """Element of Z[ζ_L] in power-basis coordinates modulo Φ_L.  Arithmetic
    takes CycloInt operands (+, unary −, ×) and int scalars (× only)."""

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs):
        if level < 1:
            raise ValueError("level must be positive")
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != len(cyclotomic_polynomial(level)) - 1:
            coeffs = _reduce_mod_cyclotomic(coeffs, level)
        self.level = level
        self.coeffs = coeffs

    @classmethod
    def _make(cls, level: int, coeffs: tuple[int, ...]) -> "CycloInt":
        """Wrap coordinates that are already reduced: a tuple of φ(level)
        Python ints."""
        x = object.__new__(cls)
        x.level = level
        x.coeffs = coeffs
        return x

    @staticmethod
    def from_int(n: int, level: int = 1) -> "CycloInt":
        if level < 1:
            raise ValueError("level must be positive")
        # n, then φ(level) − 1 zeros; φ(level) = deg Φ_level
        return CycloInt._make(level, (int(n),) + (0,) * (len(cyclotomic_polynomial(level)) - 2))

    @staticmethod
    def zero(level: int = 1) -> "CycloInt":
        return CycloInt.from_int(0, level)

    @staticmethod
    def one(level: int = 1) -> "CycloInt":
        return CycloInt.from_int(1, level)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __repr__(self) -> str:
        return f"CycloInt({self.level}, {self.coeffs})"

    def __str__(self) -> str:
        return pretty_cyclo(self)

    def _unify(self, other: "CycloInt"):
        if self.level == other.level:
            return self, other
        L = self.level * other.level // gcd(self.level, other.level)
        return raise_cyclo_level(self, L), raise_cyclo_level(other, L)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = CycloInt.from_int(other)
        elif isinstance(other, RootOfUnity):
            other = root_to_cyclo(other)
        if not isinstance(other, CycloInt):
            return NotImplemented
        a, b = self._unify(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # cross-level equality makes a stable hash impractical

    def __add__(self, other):
        if not isinstance(other, CycloInt):
            return NotImplemented
        a, b = self._unify(other)
        return CycloInt._make(a.level, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    def __neg__(self):
        return CycloInt._make(self.level, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloInt._make(self.level, tuple(c * other for c in self.coeffs))
        if not isinstance(other, CycloInt):
            return NotImplemented
        a, b = self._unify(other)
        return CycloInt._make(a.level, _reduce_mod_cyclotomic(_poly_mul(a.coeffs, b.coeffs), a.level))

    __rmul__ = __mul__

    def to_complex(self) -> complex:
        z = RootOfUnity(self.level, 1).to_complex()
        return sum(c * z**k for k, c in enumerate(self.coeffs))


def raise_cyclo_level(x: CycloInt, L: int) -> CycloInt:
    """Embed Z[ζ_l] into Z[ζ_L] via ζ_l ↦ ζ_L^(L/l)."""
    if L % x.level:
        raise NotAMultiple(f"{L} is not a multiple of level {x.level}")
    if L == x.level:
        return x
    step = L // x.level
    hist = [0] * L
    for k, c in enumerate(x.coeffs):
        hist[k * step] = c
    return CycloInt._make(L, _fold(hist, L))


def root_to_cyclo(r: RootOfUnity) -> CycloInt:
    """Exact power-basis coordinates of a root of unity.

    >>> root_to_cyclo(RootOfUnity(4, 2)) == -1
    True
    """
    return CycloInt._make(r.level, _powers(r.level)[r.exponent])


def sum_roots(roots) -> CycloInt:
    """Σ roots as one element of Z[ζ_L], L the lcm of their levels (1 for no
    roots): one histogram of exponents at level L, folded once.

    >>> sum_roots([RootOfUnity(2, 1), RootOfUnity(4, 1), RootOfUnity(4, 1)])
    CycloInt(4, (-1, 2))
    """
    roots = list(roots)
    L = lcm(*{r.level for r in roots})
    hist = [0] * L
    for r in roots:
        hist[r.exponent * (L // r.level)] += 1
    return CycloInt._make(L, _fold(hist, L))


def _galois_conjugate(x: CycloInt, k: int) -> CycloInt:
    """The image of x under the automorphism ζ ↦ ζ^k of Q(ζ_L)."""
    L = x.level
    hist = [0] * L
    for i, c in enumerate(x.coeffs):
        hist[i * k % L] += c
    return CycloInt._make(L, _fold(hist, L))


def _content(coeffs: tuple[int, ...]) -> int:
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    return g


class CycloRat:
    """An element of ℚ(ζ): a CycloInt numerator over a positive integer
    denominator, kept reduced.  It is the field that the Gaussian elimination
    in :func:`~twochar.burnside.determinant` needs, so it carries that
    elimination's operations alone, on CycloRat operands."""

    __slots__ = ("num", "den")

    def __init__(self, num: CycloInt, den: int = 1):
        if den != 1:
            if den == 0:
                raise ZeroDivisionError("denominator must be nonzero")
            if den < 0:
                num, den = -num, -den
            g = gcd(_content(num.coeffs), den)
            if g > 1:
                num = CycloInt._make(num.level, tuple(c // g for c in num.coeffs))
                den //= g
        self.num = num
        self.den = den

    @staticmethod
    def zero() -> "CycloRat":
        return CycloRat(CycloInt.zero())

    @staticmethod
    def one() -> "CycloRat":
        return CycloRat(CycloInt.one())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "CycloRat") -> "CycloRat":
        if self.den == other.den == 1:
            return CycloRat(self.num + other.num)
        return CycloRat(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "CycloRat":
        return CycloRat(-self.num, self.den)

    def __sub__(self, other: "CycloRat") -> "CycloRat":
        return self + (-other)

    def __mul__(self, other: "CycloRat") -> "CycloRat":
        return CycloRat(self.num * other.num, self.den * other.den)

    def inverse(self) -> "CycloRat":
        """Exact field inverse by the Galois norm: x⁻¹ = ∏_{σ≠1} σ(x) / N(x),
        σ running over ζ ↦ ζ^k with k prime to the level."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        L = self.num.level
        conj = CycloInt.one(L)
        for k in range(2, L):
            if gcd(k, L) == 1:
                conj = conj * _galois_conjugate(self.num, k)
        return CycloRat(conj * self.den, (self.num * conj).coeffs[0])


# ---------------------------------------------------------------------------
# Pretty-printing and serialization


def pretty_cyclo(x: CycloInt) -> str:
    """Human-readable ζ-combination, e.g. ``1 - 2·ζ8^3``."""
    sym = f"ζ{x.level}"
    terms = []
    for k, c in enumerate(x.coeffs):
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            power = sym if k == 1 else f"{sym}^{k}"
            body = power if abs(c) == 1 else f"{abs(c)}·{power}"
        terms.append((c < 0, body))
    if not terms:
        return "0"
    out = ("-" if terms[0][0] else "") + terms[0][1]
    for neg, body in terms[1:]:
        out += (" - " if neg else " + ") + body
    return out


def cyclo_to_json(x: CycloInt) -> dict:
    return {"level": x.level, "coeffs": list(x.coeffs)}
