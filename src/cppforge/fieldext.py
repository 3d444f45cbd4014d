"""Bases and dual bases of F_{q^d}/F_q, coordinates, and univariate export.

The big field F_{q^d} is realized as the F_p-extension of degree m*d with
the canonical modulus, and the subfield F_q is embedded by sending its
generator to the smallest-index root of its modulus (see
:func:`cppforge.gf.subfield_embedding`).  A basis alpha_1..alpha_d over F_q
determines the dual basis beta_1..beta_d through the trace bilinear form:
Tr(alpha_i * beta_j) is 1 when i = j and 0 otherwise, so the coordinates of
x in the alpha basis are x_j = Tr(x * beta_j).  Elements and coordinates are
plain indices: ``BasisPair.encode`` maps an index of F_{q^d} to d indices of
F_q, ``decode`` maps them back, and both raise ValueError for an index out of
range.

``to_univariate`` interpolates a dense table into the unique polynomial of
degree < q^d over F_{q^d} agreeing with it everywhere.  Big-field indices and
packed F_q^d vectors are both strings of m*d base-p digits, and encode and
decode are F_p-linear, so the lift is ``dec[table[enc]]`` with two
``perm.linear_table`` maps.  Interpolation is plain Lagrange over all q^d
points, specialized to the full domain: the master product is t^N - t whose
derivative is the constant -1, so the interpolant is
-sum_a y_a * (t^N - t)/(t - a), whose coefficient at degree k >= 1 is
-sum_a y_a * a^(N-1-k): N steps of ``FieldCtx.vmul``/``vsum`` on length-N arrays.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .errors import CtxMismatch, DependentBasis, SizeCap, Singular
from .gf import FieldCtx, field_new, subfield_embedding, trace
from .linalg import Mat
from .perm import PermTable, linear_table, space
from .poly import Poly

UNIVARIATE_CAP = 1 << 12


def _index(ctx: FieldCtx, x) -> int:
    """x as an index of ctx; ValueError when it is out of range."""
    x = int(x)
    if not 0 <= x < ctx.q:
        raise ValueError(f"index {x} out of range [0, {ctx.q})")
    return x


class BasisPair:
    """A basis of F_{q^d} over F_q together with its dual basis."""

    __slots__ = ("big", "sub", "d", "alpha", "beta", "_emb")

    def __init__(self, big: FieldCtx, sub: FieldCtx, alpha: Sequence[int],
                 beta: Sequence[int]):
        self.big = big
        self.sub = sub
        self.d = big.m // sub.m
        self.alpha = tuple(alpha)
        self.beta = tuple(beta)
        self._emb = subfield_embedding(big, sub)

    def encode(self, x: int) -> tuple[int, ...]:
        """Coordinates (x_1, ..., x_d) of x in the alpha basis, via the dual."""
        big, sub = self.big, self.sub
        xi = _index(big, x)
        return tuple(trace(big, sub, big.mul(xi, b)) for b in self.beta)

    def decode(self, coords: Sequence[int]) -> int:
        """x = alpha_1 x_1 + ... + alpha_d x_d."""
        big = self.big
        acc = 0
        for a, c in zip(self.alpha, coords, strict=True):
            acc = big.add(acc, big.mul(a, self._emb[_index(self.sub, c)]))
        return acc


def make_basis(big: FieldCtx, sub: FieldCtx, alpha: Optional[Sequence] = None) -> BasisPair:
    """Build a basis/dual-basis pair for F_{q^d} over F_q.

    The default alpha is the polynomial basis 1, g, ..., g^(d-1) where g is
    the canonical generator of the big field (it generates the whole big
    field over F_p, hence has degree exactly d over F_q).  The dual basis is
    obtained by inverting the Gram matrix [Tr(alpha_i alpha_j)] over F_q.
    """
    subfield_embedding(big, sub)  # raises NotASubfieldRelation
    d = big.m // sub.m
    if alpha is None:
        if big.m == 1:
            gen = 1
        else:
            gen = big.p  # the class of the modulus variable
        alpha = [1]
        for _ in range(d - 1):
            alpha.append(big.mul(alpha[-1], gen))
    else:
        alpha = [_index(big, a) for a in alpha]
        if len(alpha) != d:
            raise DependentBasis(f"need {d} basis elements, got {len(alpha)}")
    gram = [[trace(big, sub, big.mul(ai, aj)) for aj in alpha] for ai in alpha]
    try:
        ginv = Mat(sub, gram).inv()
    except Singular:
        raise DependentBasis("candidate basis is F_q-linearly dependent") from None
    # beta_j = sum_i ginv[i][j] * alpha_i: column j of ginv decoded in alpha
    draft = BasisPair(big, sub, alpha, ())
    bp = BasisPair(big, sub, alpha, [draft.decode(col) for col in zip(*ginv.rows)])
    for i in range(d):
        for j in range(d):
            got = trace(big, sub, big.mul(bp.alpha[i], bp.beta[j]))
            if got != (1 if i == j else 0):
                raise RuntimeError("internal error: dual basis property failed")
    return bp


def default_basis(sub: FieldCtx, d: int) -> BasisPair:
    """Polynomial-basis pair for F_{q^d} over the given subfield."""
    big = field_new(sub.p, sub.m * d)
    return make_basis(big, sub)


def check_univariate_cap(n: int) -> None:
    """Raise SizeCap when a table of n = q^d points is too large to interpolate."""
    if n > UNIVARIATE_CAP:
        raise SizeCap(f"q^d = {n} exceeds the univariate cap {UNIVARIATE_CAP}")


def _lift_tables(bp: BasisPair) -> tuple[np.ndarray, np.ndarray]:
    """Tables of x -> packed encode(x) and packed v -> decode(v), on indices."""
    sub, d = bp.sub, bp.d
    sp = space(sub, d)
    units = [sub.p ** k for k in range(sub.m * d)]
    enc = linear_table(sub, d, [sp.pack_point(bp.encode(u)) for u in units])
    dec = linear_table(sub, d, [bp.decode(sp.unpack_point(u)) for u in units])
    return enc, dec


def to_univariate(bp: BasisPair, f: PermTable) -> Poly:
    """The unique polynomial of degree < q^d matching the table everywhere.

    The table acts on packed coordinate vectors; this lifts it through the
    basis pair to a map on the big field and interpolates exactly.
    """
    big, sub, d = bp.big, bp.sub, bp.d
    if f.ctx.key != sub.key or f.d != d:
        raise CtxMismatch("table does not match the basis pair")
    n = big.q
    check_univariate_cap(n)
    sp = space(sub, d)
    enc, dec = _lift_tables(bp)
    y = dec[f.table[enc]]
    # f(t) = -sum_a y_a * (t^N - t)/(t - a); the quotient at a has
    # coefficient a^(N-1-k) at degree k >= 1 and a^(N-1) - 1 at degree 0.
    sums = np.zeros(n, dtype=np.int64)
    r = y
    for e in range(n - 1):
        sums[n - 1 - e] = big.vsum(r)
        r = big.vmul(r, sp.arange)
    coeffs = big.vmul(sums, big.p - 1)  # -1 has index p - 1 in every field
    coeffs[0] = big.sub(big.vsum(y), big.vsum(r))
    return Poly(big, coeffs.tolist())
