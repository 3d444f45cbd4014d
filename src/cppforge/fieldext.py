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
degree < N = q^d over F_{q^d} agreeing with it everywhere.  Big-field indices
and packed F_q^d vectors are both strings of m*d base-p digits, and decode
is an F_p-linear bijection, one ``perm.linear_table`` map ``dec``.  The lift
conjugates the table by it with ``perm.conjugate_rows``, y(dec[v]) =
dec[table[v]], so no encode table is built.  With M = N - 1
and a primitive element g, the coefficients are one length-M DFT over F_N
of the values at a = g^i: Y_e = sum_i y(g^i) g^(ie), c_0 = y(0),
c_k = -Y_(M-k) for 0 < k < M and c_M = -(Y_0 + y(0)), since the sum of a^j
over F_N^* is -1 when M | j and 0 otherwise.  The DFT is a mixed-radix
Cooley-Tukey (Math. Comp. 19, 1965): decimation in time over the prime
factors f of M, each radix f - 1 Horner steps of one array multiply and one
add of length M.  That is 26 steps at M = 4095 = 3^2*5*7*13, where
evaluating each Y_e directly takes M.  A prime M, such as 127 = 2^7 - 1, is
one radix and still costs O(N^2).
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

from .errors import CtxMismatch, DependentBasis, SizeCap, Singular
from .gf import FieldCtx, add_digits, factor, field_new, subfield_embedding, trace
from .linalg import Mat
from .perm import PermTable, conjugate_rows, linear_table, space
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
    bp = BasisPair(big, sub, alpha, [draft.decode(col) for col in ginv.a.T])
    for i in range(d):
        for j in range(d):
            got = trace(big, sub, big.mul(bp.alpha[i], bp.beta[j]))
            if got != (1 if i == j else 0):
                raise RuntimeError("internal error: dual basis property failed")
    return bp


@functools.cache
def default_basis(sub: FieldCtx, d: int) -> BasisPair:
    """Polynomial-basis pair for F_{q^d} over the given subfield (memoized
    per subfield and d: every call returns the same pair)."""
    return make_basis(field_new(sub.p, sub.m * d), sub)


def check_univariate_cap(n: int) -> None:
    """Raise SizeCap when a table of n = q^d points is too large to interpolate."""
    if n > UNIVARIATE_CAP:
        raise SizeCap(f"q^d = {n} exceeds the univariate cap {UNIVARIATE_CAP}")


def _decode_table(bp: BasisPair) -> np.ndarray:
    """The table of packed v -> decode(v), on indices."""
    sub, d = bp.sub, bp.d
    sp = space(sub, d)
    return linear_table(sub, d, [bp.decode(sp.unpack_point(sub.p ** k))
                                 for k in range(sub.m * d)])


@functools.cache
def _dft_plan(big: FieldCtx) -> tuple[np.ndarray, tuple[int, ...]]:
    """``(pw, radices)``: pw[i] = g^i for a primitive element g of big and
    i < N - 1, read-only, and the prime factors of N - 1, with multiplicity,
    largest first."""
    n = big.q - 1
    radices = factor(n)[::-1]
    # g is primitive iff g^(n/l) != 1 for each prime l | n (g = 1 when n = 1)
    g = next(x for x in range(1, big.q)
             if all(big.pow(x, n // l) != 1 for l in set(radices)))
    pw = np.ones(n, dtype=np.int64)
    s = 1
    while s < n:  # pw[s:2s] = pw[:s] * g^s
        t = min(s, n - s)
        pw[s:s + t] = big.vmul(pw[:t], big.pow(g, s))
        s += t
    pw.flags.writeable = False
    return pw, tuple(radices)


def _dft(big: FieldCtx, y: np.ndarray) -> np.ndarray:
    """Y_e = sum_i y(g^i) g^(ie) for e < M = N - 1, with g of ``_dft_plan``.

    Decimation in time over the prime factors f of M.  A stage holds the B
    interleaved sub-DFTs of length L = M/B (root g^B) as the rows of a B x L
    array; row c is the DFT of x[c::B] for x_i = y(g^i), so the first stage
    is x as an M x 1 array.  A radix f joins rows c + B'r (r < f, B' = B/f)
    into row c of length fL by Horner in r: Y = Y * w + Z_r, with
    w_e = g^(B'e), which is pw[::B'], and Z_r read at e mod L.  That is
    f - 1 steps of one ``vmul`` and one ``add_digits`` on arrays of M
    entries, in every field, prime fields included.
    """
    pw, radices = _dft_plan(big)
    p, m = big.p, big.m
    a = y[pw].reshape(len(pw), 1)
    for f in radices:
        b, ln = a.shape[0] // f, a.shape[1]
        # the step arrays are (b, f, ln) less their length-1 axes, which
        # slow numpy's calls on small arrays
        drop = tuple(axis for axis, size in ((0, b), (2, ln)) if size == 1)
        zs = a.reshape(f, b, 1, ln).squeeze(tuple(axis + 1 for axis in drop))
        w = pw[::b].reshape(1, f, ln).squeeze(drop)
        acc = zs[f - 1]
        for r in range(f - 2, -1, -1):
            acc = add_digits(p, m, big.vmul(acc, w), zs[r])
        a = acc.reshape(b, f * ln)
    return a[0]


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
    dec = _decode_table(bp)
    y = conjugate_rows(f.table.copy(), dec)
    ys = _dft(big, y)
    # c_0 = y(0), c_k = -Y_(N-1-k) for 0 < k < N-1 and c_(N-1) = -(Y_0 + y(0))
    coeffs = np.empty(n, dtype=np.int64)
    coeffs[0] = y[0]
    coeffs[1:] = ys[::-1]
    coeffs[n - 1] = big.add(int(ys[0]), int(y[0]))
    coeffs[1:] = big.vmul(coeffs[1:], big.p - 1)  # -1 has index p - 1 in every field
    return Poly(big, coeffs.tolist())
