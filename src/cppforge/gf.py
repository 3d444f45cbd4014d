"""Arithmetic and enumeration for prime fields F_p and extension fields F_{p^m}.

Elements are canonical integer indices in ``[0, q)``: the index encodes the
coefficient vector of the residue polynomial in base p (the coefficient of
degree k contributes ``digit * p**k``).  Index 0 is the additive identity and
index 1 the multiplicative identity.  All arithmetic is exact.

Prime fields multiply as ``a * b % p``.  An extension field (m >= 2) builds
two tables in its constructor from its smallest-index primitive element g:
``exp[k] = g^k`` for 0 <= k < 2(q-1), and ``log``, its inverse.  Then
``a * b = exp[log a + log b]`` and ``1/a = exp[q-1 - log a]``: the standard
log/antilog technique, also used by the ``galois`` package.  The build needs
no scalar multiply: multiplication by g is an m x m matrix over F_p, and the
digit vectors of g^k double block by block in numpy.  Extension fields with
more than ``TABLE_CAP`` (2^20) elements raise SizeCap.

On int64 index arrays, ``vmul`` is the elementwise ``mul`` (``exp[log a +
log b]`` with a zero mask, on numpy copies of the tables made on first use)
and ``vsum`` the field sum (``sum % p`` in a prime field, an XOR reduce when
p = 2, else each base-p digit summed mod p).

The modulus search, the primitive-element test, the g matrix and the
subfield root search use :class:`cppforge.poly.Poly`, imported locally
because ``poly`` imports this module.

A :class:`FieldCtx` is immutable after construction and every operation here
is a pure function of its inputs, so contexts may be shared freely between
threads.
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional, Sequence

import numpy as np

from .errors import (
    CtxMismatch,
    DegreeMismatch,
    DivisionByZero,
    InvalidSpec,
    NotASubfieldRelation,
    NotPrime,
    ReducibleModulus,
    SizeCap,
)

# Largest dense table, in entries: extension fields above it are refused,
# and perm caps its tables at the same size.
TABLE_CAP = 1 << 20

_CHUNK = 1 << 14  # rows per numpy block of the exp table build


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_divisors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


@functools.lru_cache(maxsize=None)
def _canonical_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over F_p.

    Coefficients are compared low-degree-first as base-p digits, so the
    candidate (c0, c1, ..., c_{m-1}) with the smallest digit string wins.
    The search starts at c0 = 1: for m >= 2 every candidate with c0 = 0 is
    divisible by t.
    """
    from .poly import Poly, is_irreducible

    fp = field_new(p)
    for low in itertools.product(range(1, p), *[range(p)] * (m - 1)):
        cand = low + (1,)
        if is_irreducible(Poly(fp, cand)):
            return cand
    raise RuntimeError(f"internal error: no irreducible of degree {m} over F_{p}")


# ---------------------------------------------------------------------------
# Field contexts and elements
# ---------------------------------------------------------------------------

class FieldCtx:
    """A finite field F_{p^m} with the canonical base-p index encoding.

    Do not call the constructor directly in application code; use
    :func:`field_new`, which caches contexts and picks the canonical modulus.
    """

    __slots__ = ("p", "m", "q", "modulus", "key", "_exp", "_log", "_np_tables",
                 "_embeddings")

    def __init__(self, p: int, m: int, modulus: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if m < 1:
            raise DegreeMismatch(f"extension degree must be >= 1, got {m}")
        self.p = p
        self.m = m
        self.q = p ** m
        if m == 1:
            if modulus is not None:
                raise DegreeMismatch("prime field takes no modulus")
            self.modulus = None
        else:
            if self.q > TABLE_CAP:
                raise SizeCap(f"F_{p}^{m} has {self.q} elements, above the "
                              f"{TABLE_CAP} extension field cap")
            if modulus is None:
                mod = _canonical_modulus(p, m)
            else:
                mod = tuple(int(c) % p for c in _coeffs_of(modulus))
                if len(mod) != m + 1:
                    raise DegreeMismatch(
                        f"modulus degree {len(mod) - 1} != extension degree {m}")
                if mod[-1] != 1:
                    raise ReducibleModulus("modulus must be monic")
                from .poly import Poly, is_irreducible

                if not is_irreducible(Poly(field_new(p), mod)):
                    raise ReducibleModulus(
                        f"modulus {list(mod)} is reducible over F_{p}")
            self.modulus = mod
        self.key = (p, m, self.modulus)
        self._exp, self._log = self._exp_log_tables() if m > 1 else (None, None)
        self._np_tables = None
        self._embeddings: dict = {}

    def _exp_log_tables(self) -> tuple[list, list]:
        """``exp[k] = g^k`` for 0 <= k < 2(q-1) and ``log``, its inverse."""
        from .poly import Poly

        p, m, q = self.p, self.m, self.q
        fp = field_new(p)
        mod, one = Poly(fp, self.modulus), Poly.one(fp)
        n = q - 1
        # g is primitive iff g^(n/l) != 1 for every prime l | n; indices
        # below p are the constants F_p^*, whose orders divide p - 1 < n.
        ls = _prime_divisors(n)
        g = next(x for x in range(p, q)
                 if all(Poly(fp, self.digits(x)).pow_mod(n // l, mod) != one
                        for l in ls))
        # row i holds the digits of u^i * g, so digits(x*g) = digits(x) @ G
        gd = self.digits(g)
        G = np.zeros((m, m), dtype=np.int64)
        for i in range(m):
            row = (Poly(fp, (0,) * i + gd) % mod).coeffs
            G[i, :len(row)] = row
        pw = p ** np.arange(m, dtype=np.int64)
        exp = np.zeros(n, dtype=np.int64)
        exp[0] = 1
        s = 1
        while s < n:  # G is multiplication by g^s: exp[s:2s] = exp[:s] * g^s
            t = min(s, n - s)
            for lo in range(0, t, _CHUNK):
                hi = min(lo + _CHUNK, t)
                exp[s + lo:s + hi] = (exp[lo:hi, None] // pw % p) @ G % p @ pw
            G = G @ G % p
            s += t
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(n)
        powers = exp.tolist()
        return powers + powers, log.tolist()

    # -- basic protocol ----------------------------------------------------

    def __repr__(self) -> str:
        return f"FieldCtx({self.spec()})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldCtx) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def spec(self) -> str:
        """Field spec string: ``p^m`` or ``p^m/c0,c1,...,cm``."""
        if self.m == 1:
            return f"{self.p}^1"
        if self.modulus == _canonical_modulus(self.p, self.m):
            return f"{self.p}^{self.m}"
        return f"{self.p}^{self.m}/" + ",".join(str(c) for c in self.modulus)

    # -- element digit plumbing ---------------------------------------------

    def digits(self, a: int) -> tuple[int, ...]:
        """Base-p digit vector (length m) of element index a."""
        p, ds = self.p, []
        for _ in range(self.m):
            a, c = divmod(a, p)
            ds.append(c)
        return tuple(ds)

    def undigits(self, ds: Sequence[int]) -> int:
        acc = 0
        for c in reversed(ds):
            acc = acc * self.p + c
        return acc

    def from_int(self, c: int) -> int:
        """Image of the rational integer c, i.e. c * 1 in this field."""
        return c % self.p

    # -- arithmetic on indices ----------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.m == 1:
            return (a + b) % p
        if p == 2:
            return a ^ b
        acc, w = 0, 1
        for _ in range(self.m):
            acc += ((a % p + b % p) % p) * w
            a //= p
            b //= p
            w *= p
        return acc

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        # -1 lies in the prime field, where its index is p - 1
        return self.mul(a, self.p - 1)

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[self.q - 1 - self._log[a]]

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        result, acc = 1, a
        while n:
            if n & 1:
                result = self.mul(result, acc)
            acc = self.mul(acc, acc)
            n >>= 1
        return result

    # -- arithmetic on index arrays ---------------------------------------------

    def vmul(self, a, b) -> np.ndarray:
        """Elementwise product of index arrays (either may be a scalar)."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if self.m == 1:
            if self.p > 1 << 31:  # a * b must fit in int64
                raise SizeCap(f"array products need p < 2^31, got p = {self.p}")
            return a * b % self.p
        if self._np_tables is None:
            self._np_tables = np.array(self._exp), np.array(self._log)
        exp, log = self._np_tables
        return np.where((a == 0) | (b == 0), 0, exp[log[a] + log[b]])

    def vsum(self, a) -> int:
        """Field sum of an index array."""
        a = np.asarray(a, dtype=np.int64)
        p = self.p
        if self.m == 1:
            return int(a.sum() % p)
        if p == 2:
            return int(np.bitwise_xor.reduce(a, axis=None))
        acc, w = 0, 1
        for _ in range(self.m):
            a, digit = np.divmod(a, p)
            acc += int(digit.sum() % p) * w
            w *= p
        return acc

    # -- element objects and enumeration -------------------------------------

    def elem(self, idx: int) -> "FElem":
        if not 0 <= idx < self.q:
            raise ValueError(f"index {idx} out of range [0, {self.q})")
        return FElem(self, idx)

    def zero(self) -> "FElem":
        return FElem(self, 0)

    def one(self) -> "FElem":
        return FElem(self, 1)

    def elements(self) -> list["FElem"]:
        """All q elements in canonical index order."""
        return [FElem(self, i) for i in range(self.q)]


def _coeffs_of(modulus) -> Sequence[int]:
    coeffs = getattr(modulus, "coeffs", modulus)
    return list(coeffs)


class FElem:
    """A field element: an owning context plus a canonical index.

    Arithmetic operators accept another element of the same context or a
    plain int, which is interpreted as a canonical index.
    """

    __slots__ = ("ctx", "idx")

    def __init__(self, ctx: FieldCtx, idx: int):
        self.ctx = ctx
        self.idx = idx

    def _coerce(self, other) -> int:
        if isinstance(other, FElem):
            if other.ctx.key != self.ctx.key:
                raise CtxMismatch(f"{self.ctx.spec()} vs {other.ctx.spec()}")
            return other.idx
        if isinstance(other, int):
            if not 0 <= other < self.ctx.q:
                raise ValueError(f"index {other} out of range [0, {self.ctx.q})")
            return other
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return FElem(self.ctx, self.ctx.add(self.idx, o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return FElem(self.ctx, self.ctx.sub(self.idx, o))

    def __rsub__(self, other):
        o = self._coerce(other)
        return FElem(self.ctx, self.ctx.sub(o, self.idx))

    def __mul__(self, other):
        o = self._coerce(other)
        return FElem(self.ctx, self.ctx.mul(self.idx, o))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return FElem(self.ctx, self.ctx.mul(self.idx, self.ctx.inv(o)))

    def __neg__(self):
        return FElem(self.ctx, self.ctx.neg(self.idx))

    def __pow__(self, n: int):
        return FElem(self.ctx, self.ctx.pow(self.idx, n))

    def inv(self) -> "FElem":
        return FElem(self.ctx, self.ctx.inv(self.idx))

    def __eq__(self, other) -> bool:
        if isinstance(other, FElem):
            return self.ctx.key == other.ctx.key and self.idx == other.idx
        if isinstance(other, int):
            return self.idx == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ctx.key, self.idx))

    def __int__(self) -> int:
        return self.idx

    def __repr__(self) -> str:
        return f"F{self.ctx.q}:{self.idx}"


_CTX_CACHE: dict = {}


def field_new(p: int, m: int = 1, modulus=None) -> FieldCtx:
    """Create (or fetch the cached) field F_{p^m}.

    When ``modulus`` is omitted and m > 1 the lexicographically smallest
    monic irreducible of degree m is selected, so the context is fully
    determined by (p, m).
    """
    mod_key = None if modulus is None else tuple(int(c) % p for c in _coeffs_of(modulus))
    cache_key = (p, m, mod_key)
    ctx = _CTX_CACHE.get(cache_key)
    if ctx is None:
        ctx = FieldCtx(p, m, modulus)
        _CTX_CACHE[cache_key] = ctx
        _CTX_CACHE.setdefault((p, m, ctx.modulus), ctx)
    return ctx


def parse_field_spec(spec: str) -> FieldCtx:
    """Parse ``p^m`` or ``p^m/c0,c1,...,cm`` into a context."""
    body, _, modpart = spec.partition("/")
    try:
        if "^" in body:
            p_s, _, m_s = body.partition("^")
            p, m = int(p_s), int(m_s)
        else:
            p, m = int(body), 1
        modulus = None
        if modpart:
            modulus = [int(c) for c in modpart.split(",")]
    except ValueError:
        raise InvalidSpec(f"malformed field spec {spec!r} "
                          "(expected p^m or p^m/c0,c1,...,cm)") from None
    return field_new(p, m, modulus)


def field_from_order(q: int) -> FieldCtx:
    """The canonical field with q elements; q must be a prime power."""
    p = 2
    while p * p <= q:
        if q % p == 0:
            m = 0
            v = q
            while v % p == 0:
                v //= p
                m += 1
            if v != 1:
                raise NotPrime(f"{q} is not a prime power")
            return field_new(p, m)
        p += 1
    return field_new(q, 1)


# ---------------------------------------------------------------------------
# Subfield embedding and the relative trace
# ---------------------------------------------------------------------------

def subfield_embedding(big: FieldCtx, sub: FieldCtx) -> list[int]:
    """Embedding table of sub into big (index -> index).

    The subfield generator is sent to the smallest-index root of the
    subfield modulus inside the big field, which makes the embedding
    deterministic.  Raises NotASubfieldRelation when no embedding exists.
    """
    if big.p != sub.p or big.m % sub.m != 0:
        raise NotASubfieldRelation(
            f"{sub.spec()} is not a subfield of {big.spec()}")
    cached = big._embeddings.get(sub.key)
    if cached is not None:
        return cached[0]
    if sub.m == 1:
        table = list(range(sub.p))
    else:
        from .poly import Poly

        f = Poly(big, sub.modulus)
        root = next((z for z in range(big.q) if f.eval_idx(z) == 0), None)
        if root is None:
            raise RuntimeError("internal error: modulus has no root in big field")
        # x = sum_k c_k u^k maps to sum_k c_k root^k
        powers = [big.pow(root, k) for k in range(sub.m)]
        table = [big.vsum(big.vmul(sub.digits(x), powers)) for x in range(sub.q)]
    back = {b: s for s, b in enumerate(table)}
    big._embeddings[sub.key] = (table, back)
    return table


def trace(big: FieldCtx, sub: FieldCtx, x) -> FElem:
    """Relative trace Tr(x) = x + x^q + ... + x^(q^(d-1)) down to sub.

    The result is returned as an element of ``sub``.
    """
    subfield_embedding(big, sub)
    back = big._embeddings[sub.key][1]
    d = big.m // sub.m
    if isinstance(x, FElem):
        if x.ctx.key != big.key:
            raise CtxMismatch("trace argument must live in the big field")
        xi = x.idx
    else:
        xi = int(x)
    acc = 0
    t = xi
    for _ in range(d):
        acc = big.add(acc, t)
        t = big.pow(t, sub.q)
    if acc not in back:
        raise RuntimeError("internal error: trace left the subfield")
    return FElem(sub, back[acc])
