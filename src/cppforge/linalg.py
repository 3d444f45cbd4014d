"""Exact d x d matrix algebra over a finite field.

A ``Mat`` is one read-only (d, d) int64 index array, ``Mat.a``.  Sums,
products, ``apply`` and ``eval_poly_at_matrix`` are array expressions over
``FieldCtx.vmul``, ``FieldCtx.vsum`` and ``gf.add_digits``.  Determinant and
inverse share one forward elimination, ``_eliminate``, with leftmost-nonzero
pivoting (fixed only for determinism), and the characteristic polynomial a
reduction to Hessenberg form with the same rule, then the recurrence on its
leading blocks (Cohen, A Course in Computational Algebraic Number Theory,
GTM 138, Alg. 2.2.9), in every characteristic; these three run on scalars.
The tests keep the scalar loops, Faddeev-LeVerrier and a Laplace expansion
of det(tI - M) as oracles.  Companion matrices come one at a time (a
``Mat``) or as an (H, k, k) index array for H polynomials.
"""

from __future__ import annotations

from random import Random
from typing import Sequence

import numpy as np

from .errors import CtxMismatch, DimMismatch, NotMonic, Singular
from .gf import FieldCtx, add_digits, parse_field_spec
from .poly import Poly


def _indices(ctx: FieldCtx, x) -> np.ndarray:
    """x as a new int64 array of indices of ctx, or ValueError / DimMismatch."""
    try:
        a = np.array(x, dtype=np.int64)
    except OverflowError:
        a = None
    except ValueError as ex:  # ragged rows
        raise DimMismatch(f"not a rectangular integer array: {ex}") from None
    if a is None or a.size and a.view(np.uint64).max() >= ctx.q:  # negatives wrap above q
        raise ValueError(f"entry index out of range for {ctx.spec()}")
    return a


def _product(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of (n, n) index arrays: (i, j) is the field sum of a[i, k] b[k, j]."""
    return ctx.vsum(ctx.vmul(a[:, :, None], b[None]), axis=1)


class Mat:
    """A d x d matrix over a field: one read-only (d, d) int64 index array."""

    __slots__ = ("ctx", "n", "a")

    def __init__(self, ctx: FieldCtx, rows):
        a = _indices(ctx, rows)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimMismatch("matrix must be square")
        a.flags.writeable = False
        self.ctx = ctx
        self.n = a.shape[0]
        self.a = a

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "Mat":
        return cls(ctx, np.eye(n, dtype=np.int64))

    @classmethod
    def zero(cls, ctx: FieldCtx, n: int) -> "Mat":
        return cls(ctx, np.zeros((n, n), dtype=np.int64))

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.a.tolist()))

    def _check(self, other: "Mat") -> None:
        if self.ctx.key != other.ctx.key:
            raise CtxMismatch("matrices over different fields")
        if self.n != other.n:
            raise DimMismatch(f"{self.n} vs {other.n}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Mat) and self.ctx.key == other.ctx.key
                and np.array_equal(self.a, other.a))

    def __hash__(self) -> int:
        return hash((self.ctx.key, self.a.tobytes()))

    def __repr__(self) -> str:
        return f"Mat({self.ctx.spec()}, {self.a.tolist()})"

    def __add__(self, other: "Mat") -> "Mat":
        self._check(other)
        return Mat(self.ctx, add_digits(self.ctx.p, self.ctx.m, self.a, other.a))

    def __sub__(self, other: "Mat") -> "Mat":
        return self + other.scale(other.ctx.p - 1)  # -1 has index p - 1 in every field

    def __mul__(self, other: "Mat") -> "Mat":
        self._check(other)
        return Mat(self.ctx, _product(self.ctx, self.a, other.a))

    def scale(self, c: int) -> "Mat":
        return Mat(self.ctx, self.ctx.vmul(self.a, _indices(self.ctx, c)))

    def apply(self, vec: Sequence) -> tuple[int, ...]:
        """Matrix-vector product on index vectors."""
        v = _indices(self.ctx, vec)
        if v.shape != (self.n,):
            raise DimMismatch(f"vector shape {v.shape} vs dimension {self.n}")
        return tuple(self.ctx.vsum(self.ctx.vmul(self.a, v), axis=1).tolist())

    def det(self) -> int:
        return _eliminate(self.ctx, self.a.tolist())

    def inv(self) -> "Mat":
        """[M | I] reduced by ``_eliminate``, then back-substituted."""
        ctx, n = self.ctx, self.n
        a = [r + [int(i == j) for j in range(n)] for i, r in enumerate(self.a.tolist())]
        if not _eliminate(ctx, a):
            raise Singular("matrix is singular")
        for col in range(n - 1, 0, -1):
            for row in a[:col]:
                if f := ctx.neg(row[col]):
                    row[n:] = [ctx.add(c, ctx.mul(f, b)) for c, b in zip(row[n:], a[col][n:])]
        return Mat(ctx, [row[n:] for row in a])

    def to_json(self) -> dict:
        return {"d": self.n, "field": self.ctx.spec(), "rows": self.a.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "Mat":
        return cls(parse_field_spec(data["field"]), data["rows"])


def _eliminate(ctx: FieldCtx, a: list) -> int:
    """det of the leading square block of the rows ``a`` (index lists), by
    forward elimination in place: each pivot row is scaled to a unit pivot
    and clears the column below it, at or right of the pivot only."""
    det = 1
    for col in range(len(a)):
        pivot = next((r for r in range(col, len(a)) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = ctx.neg(det)
        det = ctx.mul(det, a[col][col])
        inv_p = ctx.inv(a[col][col])
        top = a[col][col:] = [ctx.mul(inv_p, c) for c in a[col][col:]]
        for row in a[col + 1:]:
            if f := ctx.neg(row[col]):
                row[col:] = [ctx.add(c, ctx.mul(f, b)) for c, b in zip(row[col:], top)]
    return det


# ---------------------------------------------------------------------------
# Characteristic polynomials, companion matrices
# ---------------------------------------------------------------------------

def char_poly(m: Mat) -> Poly:
    """Monic characteristic polynomial det(tI - M), in any characteristic.

    M is brought to upper Hessenberg form H by a similarity transform, then
    the characteristic polynomials p_k of the leading k x k blocks of H
    follow from the recurrence
    p_k = (t - h_kk) p_{k-1} - sum_{i<k} h_ik h_{i+1,i} ... h_{k,k-1} p_{i-1}
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.2.9),
    run on coefficient lists with one ``Poly`` at the end.
    """
    ctx, n = m.ctx, m.n
    add, sub, mul = ctx.add, ctx.sub, ctx.mul
    h = m.a.tolist()
    for c in range(n - 2):
        k = c + 1
        pivot = next((r for r in range(k, n) if h[r][c]), None)
        if pivot is None:
            continue
        if pivot != k:
            h[k], h[pivot] = h[pivot], h[k]
            for row in h:
                row[k], row[pivot] = row[pivot], row[k]
        inv_p = ctx.inv(h[k][c])
        for r in range(k + 1, n):
            u = mul(h[r][c], inv_p)
            if u:
                # row r -= u * row k, then column k += u * column r
                h[r] = [sub(a, mul(u, b)) for a, b in zip(h[r], h[k])]
                for row in h:
                    row[k] = add(row[k], mul(u, row[r]))
    ps = [[1]]  # coefficient lists, low degree first
    for k in range(n):
        c, prev = ctx.neg(h[k][k]), ps[k]
        acc = [mul(c, prev[0])] + [add(a, mul(c, b)) for a, b in zip(prev, prev[1:])] + [1]
        prod = 1
        for i in range(k, 0, -1):
            prod = mul(prod, h[i][i - 1])
            if not prod:  # every longer product has this factor too
                break
            f = ctx.neg(mul(prod, h[i - 1][k]))
            if f:
                for j, b in enumerate(ps[i - 1]):
                    acc[j] = add(acc[j], mul(f, b))
        ps.append(acc)
    return Poly(ctx, ps[n])


def companions(ctx: FieldCtx, coeffs) -> np.ndarray:
    """Stacked companion matrices: entry i is M(h_i) for the monic
    h_i = t^k + sum_j coeffs[i, j] t^j, as an (H, k, k) int64 index array
    with superdiagonal ones and last row the negated coefficients."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    h, k = coeffs.shape
    out = np.zeros((h, k, k), dtype=np.int64)
    out[:, np.arange(k - 1), np.arange(1, k)] = 1
    out[:, k - 1] = ctx.vmul(coeffs, ctx.neg(1))
    return out


def companion(h: Poly) -> Mat:
    """Companion matrix of a monic polynomial (one row of :func:`companions`)."""
    if not h.is_monic:
        raise NotMonic("companion matrix needs a monic polynomial")
    k = h.degree
    if k is None or k < 1:
        raise NotMonic("companion matrix needs degree >= 1")
    return Mat(h.ctx, companions(h.ctx, [h.coeffs[:k]])[0])


def eval_poly_at_matrix(h: Poly, m: Mat) -> Mat:
    """Horner evaluation of h at M, constant term times the identity."""
    if h.ctx.key != m.ctx.key:
        raise CtxMismatch("polynomial and matrix over different fields")
    ctx = m.ctx
    acc = np.zeros_like(m.a)
    diag = np.arange(m.n)
    for c in reversed(h.coeffs):
        acc = _product(ctx, acc, m.a)
        if c:  # acc += c * I
            acc[diag, diag] = add_digits(ctx.p, ctx.m, acc[diag, diag], c)
    return Mat(ctx, acc)


# ---------------------------------------------------------------------------
# Seeded random matrices (verification plumbing)
# ---------------------------------------------------------------------------

def random_matrix(ctx: FieldCtx, n: int, rng: Random) -> Mat:
    return Mat(ctx, [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(n)])


def random_invertible(ctx: FieldCtx, n: int, rng: Random) -> Mat:
    while True:
        m = random_matrix(ctx, n, rng)
        if m.det() != 0:
            return m
