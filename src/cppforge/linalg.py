"""Exact d x d matrix algebra over a finite field.

Determinant and inverse use Gaussian elimination with leftmost-nonzero
pivoting (fields are exact, the pivot rule is fixed only for determinism).
The characteristic polynomial has one path in every characteristic: a
reduction to Hessenberg form with the same pivot rule, followed by the
recurrence on its leading blocks (Cohen, A Course in Computational Algebraic
Number Theory, GTM 138, Alg. 2.2.9).  The tests keep Faddeev-LeVerrier and a
Laplace expansion of det(tI - M) as oracles.  Companion matrices come one at
a time (a ``Mat``) or as an (H, k, k) index array for H polynomials.
"""

from __future__ import annotations

from random import Random
from typing import Sequence

import numpy as np

from .errors import CtxMismatch, DimMismatch, NotMonic, Singular
from .gf import FieldCtx
from .poly import Poly


class Mat:
    __slots__ = ("ctx", "n", "rows")

    def __init__(self, ctx: FieldCtx, rows: Sequence[Sequence]):
        grid = [tuple(int(c) for c in row) for row in rows]
        n = len(grid)
        if any(len(r) != n for r in grid):
            raise DimMismatch("matrix must be square")
        for r in grid:
            for c in r:
                if not 0 <= c < ctx.q:
                    raise ValueError(f"entry index {c} out of range for {ctx.spec()}")
        self.ctx = ctx
        self.n = n
        self.rows = tuple(grid)

    @classmethod
    def _raw(cls, ctx: FieldCtx, rows: tuple) -> "Mat":
        # internal fast path: entries are already validated indices
        m = cls.__new__(cls)
        m.ctx = ctx
        m.n = len(rows)
        m.rows = rows
        return m

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "Mat":
        return cls._raw(ctx, tuple(tuple(1 if i == j else 0 for j in range(n))
                                   for i in range(n)))

    @classmethod
    def zero(cls, ctx: FieldCtx, n: int) -> "Mat":
        return cls._raw(ctx, ((0,) * n,) * n)

    def _check(self, other: "Mat") -> None:
        if self.ctx.key != other.ctx.key:
            raise CtxMismatch("matrices over different fields")
        if self.n != other.n:
            raise DimMismatch(f"{self.n} vs {other.n}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Mat) and self.ctx.key == other.ctx.key
                and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.ctx.key, self.rows))

    def __repr__(self) -> str:
        return f"Mat({self.ctx.spec()}, {[list(r) for r in self.rows]})"

    def __add__(self, other: "Mat") -> "Mat":
        self._check(other)
        add = self.ctx.add
        return Mat._raw(self.ctx, tuple(
            tuple(add(a, b) for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other: "Mat") -> "Mat":
        self._check(other)
        sub = self.ctx.sub
        return Mat._raw(self.ctx, tuple(
            tuple(sub(a, b) for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)))

    def __mul__(self, other: "Mat") -> "Mat":
        self._check(other)
        ctx = self.ctx
        n = self.n
        add, mul = ctx.add, ctx.mul
        cols = list(zip(*other.rows))
        out = []
        for i in range(n):
            row = self.rows[i]
            out_row = []
            for j in range(n):
                col = cols[j]
                acc = 0
                for k in range(n):
                    a = row[k]
                    if a:
                        acc = add(acc, mul(a, col[k]))
                out_row.append(acc)
            out.append(tuple(out_row))
        return Mat._raw(ctx, tuple(out))

    def scale(self, c: int) -> "Mat":
        mul = self.ctx.mul
        return Mat._raw(self.ctx,
                        tuple(tuple(mul(c, a) for a in row) for row in self.rows))

    def apply(self, vec: Sequence) -> tuple[int, ...]:
        """Matrix-vector product on index vectors."""
        v = tuple(int(c) for c in vec)
        if len(v) != self.n:
            raise DimMismatch(f"vector length {len(v)} vs dimension {self.n}")
        ctx = self.ctx
        out = []
        for row in self.rows:
            acc = 0
            for a, x in zip(row, v):
                if a and x:
                    acc = ctx.add(acc, ctx.mul(a, x))
            out.append(acc)
        return tuple(out)

    def det(self) -> int:
        ctx = self.ctx
        n = self.n
        a = [list(r) for r in self.rows]
        det = 1
        for col in range(n):
            pivot = None
            for r in range(col, n):
                if a[r][col]:
                    pivot = r
                    break
            if pivot is None:
                return 0
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                det = ctx.neg(det)
            det = ctx.mul(det, a[col][col])
            inv_p = ctx.inv(a[col][col])
            for r in range(col + 1, n):
                f = a[r][col]
                if f:
                    f = ctx.mul(f, inv_p)
                    for c in range(col, n):
                        a[r][c] = ctx.sub(a[r][c], ctx.mul(f, a[col][c]))
        return det

    def inv(self) -> "Mat":
        ctx = self.ctx
        n = self.n
        a = [list(r) + [1 if i == j else 0 for j in range(n)]
             for i, r in enumerate(self.rows)]
        for col in range(n):
            pivot = None
            for r in range(col, n):
                if a[r][col]:
                    pivot = r
                    break
            if pivot is None:
                raise Singular("matrix is singular")
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
            inv_p = ctx.inv(a[col][col])
            a[col] = [ctx.mul(inv_p, c) for c in a[col]]
            for r in range(n):
                if r != col and a[r][col]:
                    f = a[r][col]
                    a[r] = [ctx.sub(c, ctx.mul(f, pc))
                            for c, pc in zip(a[r], a[col])]
        return Mat(ctx, [row[n:] for row in a])

    def to_json(self) -> dict:
        return {"d": self.n, "field": self.ctx.spec(),
                "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, data: dict) -> "Mat":
        from .gf import parse_field_spec

        return cls(parse_field_spec(data["field"]), data["rows"])


# ---------------------------------------------------------------------------
# Characteristic polynomials, companion matrices
# ---------------------------------------------------------------------------

def char_poly(m: Mat) -> Poly:
    """Monic characteristic polynomial det(tI - M), in any characteristic.

    M is brought to upper Hessenberg form H by a similarity transform, then
    the characteristic polynomials p_k of the leading k x k blocks of H
    follow from the recurrence
    p_k = (t - h_kk) p_{k-1} - sum_{i<k} h_ik h_{i+1,i} ... h_{k,k-1} p_{i-1}
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.2.9).
    """
    ctx = m.ctx
    n = m.n
    add, sub, mul = ctx.add, ctx.sub, ctx.mul
    h = [list(r) for r in m.rows]
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
    ps = [Poly.one(ctx)]
    for k in range(n):
        acc = Poly(ctx, [ctx.neg(h[k][k]), 1]) * ps[k]
        prod = 1
        for i in range(k, 0, -1):
            prod = mul(prod, h[i][i - 1])
            if not prod:  # every longer product has this factor too
                break
            acc = acc + ps[i - 1].scale(ctx.neg(mul(prod, h[i - 1][k])))
        ps.append(acc)
    return ps[n]


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
    rows = companions(h.ctx, [h.coeffs[:k]])[0].tolist()
    return Mat._raw(h.ctx, tuple(map(tuple, rows)))


def eval_poly_at_matrix(h: Poly, m: Mat) -> Mat:
    """Horner evaluation of h at M, constant term times the identity."""
    if h.ctx.key != m.ctx.key:
        raise CtxMismatch("polynomial and matrix over different fields")
    ctx = m.ctx
    acc = Mat.zero(ctx, m.n)
    for c in reversed(h.coeffs):
        acc = acc * m
        if c:  # acc += c * I
            acc = Mat._raw(ctx, tuple(
                row[:i] + (ctx.add(row[i], c),) + row[i + 1:]
                for i, row in enumerate(acc.rows)))
    return acc


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
