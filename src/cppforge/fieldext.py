"""Bases and dual bases of F_{q^d}/F_q, coordinates, and univariate export.

The big field F_{q^d} is realized as the F_p-extension of degree m*d with
the canonical modulus, and the subfield F_q is embedded by sending its
generator to the smallest-index root of its modulus (see
:func:`cppforge.gf.subfield_embedding`).  A basis alpha_1..alpha_d over F_q
determines the dual basis beta_1..beta_d through the trace bilinear form:
Tr(alpha_i * beta_j) is 1 when i = j and 0 otherwise, so the coordinates of
x in the alpha basis are x_j = Tr(x * beta_j).

``to_univariate`` interpolates a dense table into the unique polynomial of
degree < q^d over F_{q^d} agreeing with it everywhere.  Interpolation is
plain Lagrange over all q^d points, specialized to the full domain: the
master product is t^N - t whose derivative is the constant -1, so the
interpolant is -sum_i y_i * (t^N - t)/(t - x_i).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import CtxMismatch, DependentBasis, SizeCap, Singular
from .gf import FElem, FieldCtx, field_new, subfield_embedding, subfield_section, trace
from .linalg import Mat
from .perm import PermTable, space
from .poly import Poly

UNIVARIATE_CAP = 1 << 12


class BasisPair:
    """A basis of F_{q^d} over F_q together with its dual basis."""

    __slots__ = ("big", "sub", "d", "alpha", "beta", "_emb", "_sec", "_enc")

    def __init__(self, big: FieldCtx, sub: FieldCtx, alpha: Sequence[int],
                 beta: Sequence[int]):
        self.big = big
        self.sub = sub
        self.d = big.m // sub.m
        self.alpha = tuple(alpha)
        self.beta = tuple(beta)
        self._emb = subfield_embedding(big, sub)
        self._sec = subfield_section(big, sub)
        self._enc: Optional[list] = None

    def encode(self, x) -> tuple[int, ...]:
        """Coordinates (x_1, ..., x_d) of x in the alpha basis, via the dual."""
        xi = x.idx if isinstance(x, FElem) else int(x)
        if isinstance(x, FElem) and x.ctx.key != self.big.key:
            raise CtxMismatch("encode argument must live in the big field")
        big, sub = self.big, self.sub
        return tuple(trace(big, sub, big.mul(xi, b)).idx for b in self.beta)

    def decode(self, coords: Sequence) -> FElem:
        """x = alpha_1 x_1 + ... + alpha_d x_d."""
        big = self.big
        acc = 0
        for a, c in zip(self.alpha, coords, strict=True):
            ci = c.idx if isinstance(c, FElem) else int(c)
            acc = big.add(acc, big.mul(a, self._emb[ci]))
        return FElem(big, acc)

    def encode_packed(self, xi: int) -> int:
        """Packed vector index of encode(x), cached for whole-field scans."""
        if self._enc is None:
            sp = space(self.sub, self.d)
            self._enc = [sp.pack_point(self.encode(i)) for i in range(self.big.q)]
        return self._enc[xi]


def make_basis(big: FieldCtx, sub: FieldCtx, alpha: Optional[Sequence] = None) -> BasisPair:
    """Build a basis/dual-basis pair for F_{q^d} over F_q.

    The default alpha is the polynomial basis 1, g, ..., g^(d-1) where g is
    the canonical generator of the big field (it generates the whole big
    field over F_p, hence has degree exactly d over F_q).  The dual basis is
    obtained by inverting the Gram matrix [Tr(alpha_i alpha_j)] over F_q.
    """
    emb = subfield_embedding(big, sub)
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
        alpha = [a.idx if isinstance(a, FElem) else int(a) for a in alpha]
        if len(alpha) != d:
            raise DependentBasis(f"need {d} basis elements, got {len(alpha)}")
    gram = [[trace(big, sub, big.mul(ai, aj)).idx for aj in alpha] for ai in alpha]
    try:
        ginv = Mat(sub, gram).inv()
    except Singular:
        raise DependentBasis("candidate basis is F_q-linearly dependent") from None
    beta = []
    for j in range(d):
        acc = 0
        for i in range(d):
            c = ginv.rows[i][j]
            if c:
                acc = big.add(acc, big.mul(emb[c], alpha[i]))
        beta.append(acc)
    bp = BasisPair(big, sub, alpha, beta)
    for i in range(d):
        for j in range(d):
            got = trace(big, sub, big.mul(bp.alpha[i], bp.beta[j])).idx
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
    tbl = f.table.tolist()
    ys = []
    for x in range(n):
        out_packed = tbl[bp.encode_packed(x)]
        ys.append(bp.decode(sp.unpack_point(out_packed)).idx)
    # f(t) = -sum_i y_i * (t^N - t)/(t - a_i); the quotient at a_i has
    # coefficient a_i^(N-1-k) at degree k >= 1 and a_i^(N-1) - 1 at degree 0.
    mul, add, neg = big.mul, big.add, big.neg
    coeffs = [0] * n
    y_total = 0
    for a, y in enumerate(ys):
        if y == 0:
            continue
        y_total = add(y_total, y)
        r = y
        for e in range(n - 1):
            coeffs[n - 1 - e] = add(coeffs[n - 1 - e], neg(r))
            r = mul(r, a)
        coeffs[0] = add(coeffs[0], neg(r))
    coeffs[0] = add(coeffs[0], y_total)
    return Poly(big, coeffs)
