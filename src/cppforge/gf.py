"""Arithmetic for prime fields F_p and extension fields F_{p^m}.

Elements are canonical integer indices in ``[0, q)``: the index encodes the
coefficient vector of the residue polynomial in base p (the coefficient of
degree k contributes ``digit * p**k``).  Index 0 is the additive identity and
index 1 the multiplicative identity.  There is no element object: every
function here, ``trace`` included, takes and returns plain indices.  All
arithmetic is exact.

Prime fields multiply as ``a * b % p``.  An extension field (m >= 2) builds
two tables in its constructor from its smallest-index primitive element g:
``exp[k] = g^k`` for 0 <= k < 2(q-1), and ``log``, its inverse.  Then
``a * b = exp[log a + log b]``, ``1/a = exp[q-1 - log a]`` and ``a^n =
exp[n log a mod (q-1)]``: the standard log/antilog technique, also used by
the ``galois`` package.  The build needs no scalar multiply: multiplication
by g is an m x m matrix over F_p, and the digit vectors of g^k double block
by block in numpy.  Larger fields than ``TABLE_CAP`` (2^20) raise SizeCap.

Addition in F_{p^m} (m >= 2) and coordinatewise addition of packed F_q^d
vectors are one digitwise adder, ``add_digits``, on scalars and arrays: XOR
when p = 2, else chunks of k base-p digits added through a p^k x p^k lookup
table built once per p (one digit at a time, ``(a + b) % p``, when p^2 is
above the table bound).

Both tables are read-only int64 arrays, held once: ``mul``, ``inv`` and
``pow`` index them through memoryviews, which return Python ints, and
``vmul``, the elementwise ``mul`` on index arrays (``exp[log a + log b]``
with a zero mask), reads the same buffers as arrays.  ``vsum`` is the field
sum, of a whole array or along one axis (``sum % p`` in a prime field, an
XOR reduce when p = 2, else each base-p digit summed mod p).

Integers are factored in one place, ``factor``: trial division below 2^10
that stops once the cofactor is prime by ``is_prime``, a Miller-Rabin test,
then Pollard's rho on a cofactor that is still composite.

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
import math
from typing import Optional, Sequence

import numpy as np

from .errors import (
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

# Entries of one slice of a pass over a whole table: the odd-p array adder
# here, and perm's gathers, scatters and sums, run larger arrays slice by
# slice, so their temporaries stay small next to the table.
SLICE = 1 << 16

_CHUNK = 1 << 14  # rows per numpy block of the exp table build

# Entries of the digit adder's lookup table.  Memory, not speed, sets it: a
# table lives as long as the process, and one of 2^20 entries weighs on the
# peak memory of runs that build only small tables.
_LUT_CAP = 1 << 18


def over_cap(q: int, d: int, cap: int = TABLE_CAP) -> Optional[str]:
    """q^d as text when it exceeds ``cap`` <= TABLE_CAP, else None.  Any d
    >= TABLE_CAP.bit_length() exceeds every cap: "{q}^{d}", not computed."""
    if d >= TABLE_CAP.bit_length():
        return f"{q}^{d}"
    return str(q ** d) if q ** d > cap else None


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 primes, 2 through 41, as bases.

    Exact below 3317044064679887385961981 > 3.3 * 10^24 (Sorenson & Webster,
    Math. Comp. 86, 2017).  Above that bound False is still exact, but True
    means only that n is a strong probable prime to the 13 bases: no such
    composite is known, and none is ruled out.
    """
    if n <= _MR_BASES[-1]:
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # b witnesses that n is composite when b^d != 1 and b^(d 2^i) != -1, i < s
    return not any(pow(b, d, n) != 1 and all(pow(b, d << i, n) != n - 1 for i in range(s))
                   for b in _MR_BASES)


def factor(n: int) -> list[int]:
    """The prime factors of n >= 1, with multiplicity, in ascending order.

    Trial division below 2^10, which stops once the cofactor is prime
    (``is_prime``); a cofactor still composite after it is split by
    Pollard's rho on x -> x^2 + c, for c = 1, 2, ... (Pollard, BIT 15,
    1975), with Brent's cycle search (Brent, BIT 20, 1980): y runs ahead of
    a saved x in doubling stretches, and the differences x - y are
    multiplied together mod n, _RHO_BATCH of them per gcd.  A batch whose
    gcd is n is walked again one step per gcd from its start.
    """
    out, f, prime = [], 2, is_prime(n)
    while not prime and f * f <= n and f < 1 << 10:
        if n % f:
            f += 1
        else:
            n //= f
            out.append(f)
            prime = is_prime(n)
    if prime or f * f > n:  # n is 1 or a prime
        return out + [n] if n > 1 else out
    rest = [n]
    while rest:
        m = rest.pop()
        if is_prime(m):
            out.append(m)
            continue
        c, d = 0, m
        while d == m:  # the cycle closed mod m itself: try the next c
            c += 1
            d = _brent(m, c)
        rest += [d, m // d]
    return sorted(out)


_RHO_BATCH = 100  # differences multiplied per gcd in _brent


def _brent(m: int, c: int) -> int:
    """A divisor d > 1 of the composite m from the rho walk x -> x^2 + c mod
    m, by Brent's cycle search; d = m when the walk closes mod m itself."""
    y, stretch, d = 2, 1, 1
    while d == 1:
        x = y
        for _ in range(stretch):
            y = (y * y + c) % m
        for lo in range(0, stretch, _RHO_BATCH):
            start, prod = y, 1
            for _ in range(min(_RHO_BATCH, stretch - lo)):
                y = (y * y + c) % m
                prod = prod * (x - y) % m
            if (d := math.gcd(prod, m)) != 1:
                break
        stretch *= 2
    if d == m:  # a factor hides in the batch: walk it again, one gcd a step
        y, d = start, 1
        while d == 1:
            y = (y * y + c) % m
            d = math.gcd(x - y, m)
    return d


@functools.cache
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
# Digitwise addition
# ---------------------------------------------------------------------------

@functools.cache
def _digit_lut(p: int) -> tuple[int, Optional[np.ndarray], Optional[memoryview]]:
    """``(k, lut, view)``: the sum table of k-digit base-p strings.

    k is the largest with p^(2k) <= _LUT_CAP, and ``lut[i * p^k + j]`` is the
    digitwise sum mod p of i and j, as uint16 (sums stay below p^k <= 2^9);
    ``view`` reads it as Python ints.  When p^2 > _LUT_CAP, k = 1 and there
    is no table.
    """
    k = 0
    while p ** (2 * k + 2) <= _LUT_CAP:
        k += 1
    if k == 0:
        return 1, None, None
    digit = np.arange(p, dtype=np.uint16)
    one = np.add.outer(digit, digit) % p
    lut = np.zeros((1, 1), dtype=np.uint16)
    for _ in range(k):
        # index i = hi * p + lo: the sum of i and j is sum(hi_i, hi_j) * p + (lo_i + lo_j) % p
        s = lut.shape[0]
        lut = (lut[:, None, :, None] * p + one[None, :, None, :]).reshape(s * p, s * p)
    lut = lut.ravel()
    lut.flags.writeable = False
    return k, lut, memoryview(lut)


def add_digits(p: int, ndigits: int, a, b):
    """Digitwise sum mod p of base-p digit strings of ``ndigits`` digits.

    This is field addition on indices of F_{p^m} (ndigits = m) and
    coordinatewise addition on packed F_q^d vectors (ndigits = m*d).  ``a``
    and ``b`` are ints, whose sum is an int, or index arrays, whose
    (broadcast) sum is an int32 array, so for odd p array sums need
    p^ndigits <= 2^31 (SizeCap otherwise).  For p = 2 the sum is XOR.
    Otherwise the strings are cut into chunks of k digits, and each chunk
    pair is added through the cached p^k x p^k lookup table of
    ``_digit_lut``, or as ``(a + b) % p`` when a chunk is one digit without
    a table.  A sum of more than SLICE entries is made in slices of its last
    axis of about SLICE entries each, as each chunk pass makes temporaries
    of the size of the sum.
    """
    if p == 2:
        return a ^ b
    k, lut, view = _digit_lut(p)
    w = p ** k
    chunks = -(-ndigits // k)
    if not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
        a, b = int(a), int(b)
        acc, scale = 0, 1
        for _ in range(chunks):
            a, ca = divmod(a, w)
            b, cb = divmod(b, w)
            acc += (view[ca * w + cb] if view is not None else (ca + cb) % p) * scale
            scale *= w
        return acc
    if p ** ndigits > 1 << 31:
        raise SizeCap(f"array sums need p^{ndigits} <= 2^31, got p = {p}")
    # the product of the operand sizes bounds the size of the sum, cheaply
    if getattr(a, "size", 1) * getattr(b, "size", 1) <= SLICE:
        return _add_chunks(p, chunks, w, lut, a, b)
    shape = np.broadcast_shapes(np.shape(a), np.shape(b))
    size = math.prod(shape)
    if size <= SLICE:
        return _add_chunks(p, chunks, w, lut, a, b)
    out = np.empty(shape, dtype=np.int32)
    width = max(1, SLICE * shape[-1] // size)
    for lo in range(0, shape[-1], width):
        # an operand whose last axis is broadcast is read whole
        out[..., lo:lo + width] = _add_chunks(p, chunks, w, lut, *(
            x[..., lo:lo + width] if np.shape(x)[-1:] == shape[-1:] else x for x in (a, b)))
    return out


def _add_chunks(p: int, chunks: int, w: int, lut: Optional[np.ndarray], a, b) -> np.ndarray:
    """The odd-p array sum of ``add_digits``, one pass per chunk of digits."""
    out, scale = None, 1
    for i in range(chunks):
        if i < chunks - 1:
            ha, hb = a // w, b // w
            ca, cb = a - ha * w, b - hb * w
            a, b = ha, hb
        else:  # the top chunk is what is left
            ca, cb = a, b
        s = lut.take(ca * w + cb) if lut is not None else (ca + cb) % p
        term = np.multiply(s, scale, dtype=np.int32)
        if out is None:
            out = term
        else:
            out += term
        scale *= w
    return out


# ---------------------------------------------------------------------------
# Field contexts
# ---------------------------------------------------------------------------

class FieldCtx:
    """A finite field F_{p^m} with the canonical base-p index encoding.

    Do not call the constructor directly in application code; use
    :func:`field_new`, which caches contexts and picks the canonical modulus.
    """

    __slots__ = ("p", "m", "q", "modulus", "key", "_exp", "_log")

    def __init__(self, p: int, m: int, modulus: Optional[Sequence[int]] = None):
        mod = _checked(p, m, modulus)
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = mod or (None if m == 1 else _canonical_modulus(p, m))
        self.key = (p, m, self.modulus)
        self._exp, self._log = map(memoryview, self._exp_log_tables()) if m > 1 else (None, None)

    def _exp_log_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``exp[k] = g^k`` for 0 <= k < 2(q-1) and ``log``, its inverse, as
        read-only int64 arrays."""
        from .poly import Poly

        p, m, q = self.p, self.m, self.q
        fp = field_new(p)
        mod, one = Poly(fp, self.modulus), Poly.one(fp)
        n = q - 1
        # g is primitive iff g^(n/l) != 1 for every prime l | n; indices
        # below p are the constants F_p^*, whose orders divide p - 1 < n.
        ls = sorted(set(factor(n)))
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
        exp = np.zeros(2 * n, dtype=np.int64)
        exp[0] = 1
        s = 1
        while s < n:  # G is multiplication by g^s: exp[s:2s] = exp[:s] * g^s
            t = min(s, n - s)
            for lo in range(0, t, _CHUNK):
                hi = min(lo + _CHUNK, t)
                exp[s + lo:s + hi] = (exp[lo:hi, None] // pw % p) @ G % p @ pw
            G = G @ G % p
            s += t
        exp[n:] = exp[:n]
        log = np.zeros(q, dtype=np.int64)
        log[exp[:n]] = np.arange(n)
        exp.flags.writeable = log.flags.writeable = False
        return exp, log

    # -- basic protocol ----------------------------------------------------

    def __repr__(self) -> str:
        return f"FieldCtx({self.spec()})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldCtx) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def spec(self) -> str:
        """Field spec string: ``p^m`` or ``p^m/c0,c1,...,cm``."""
        return field_spec(self.p, self.m, self.modulus)

    # -- element digit plumbing ---------------------------------------------

    def digits(self, a: int) -> tuple[int, ...]:
        """Base-p digit vector (length m) of element index a."""
        p, ds = self.p, []
        for _ in range(self.m):
            a, c = divmod(a, p)
            ds.append(c)
        return tuple(ds)

    def from_int(self, c: int) -> int:
        """Image of the rational integer c, i.e. c * 1 in this field."""
        return c % self.p

    # -- arithmetic on indices ----------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        return add_digits(self.p, self.m, a, b)

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
        if self.m == 1:
            return pow(a, n, self.p)
        if a == 0:
            return int(n == 0)
        return self._exp[self._log[a] * n % (self.q - 1)]

    # -- arithmetic on index arrays ---------------------------------------------

    def vmul(self, a, b) -> np.ndarray:
        """Elementwise product of index arrays (either may be a scalar)."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if self.m == 1:
            if self.p > 1 << 31:  # a * b must fit in int64
                raise SizeCap(f"array products need p < 2^31, got p = {self.p}")
            return a * b % self.p
        exp, log = np.asarray(self._exp), np.asarray(self._log)
        return np.where((a == 0) | (b == 0), 0, exp[log[a] + log[b]])

    def vsum(self, a, axis=None):
        """Field sum of an index array: an int, or with ``axis`` the array
        of sums along that axis."""
        a = np.asarray(a, dtype=np.int64)
        p = self.p
        if self.m == 1:
            out = a.sum(axis) % p
        elif p == 2:
            out = np.bitwise_xor.reduce(a, axis=axis)
        else:
            out, w = 0, 1
            for _ in range(self.m):
                a, digit = np.divmod(a, p)
                out = out + digit.sum(axis) % p * w
                w *= p
        return int(out) if axis is None else out


def _checked(p: int, m: int, modulus) -> Optional[tuple[int, ...]]:
    """The modulus given for F_{p^m} read mod p, or None; raises unless it names a field."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if m < 1:
        raise DegreeMismatch(f"extension degree must be >= 1, got {m}")
    if m > 1 and (over := over_cap(p, m)):
        raise SizeCap(f"F_{p}^{m} has {over} elements, above the "
                      f"{TABLE_CAP} extension field cap")
    if modulus is None:
        return None
    if m == 1:
        raise DegreeMismatch("prime field takes no modulus")
    mod = tuple(int(c) % p for c in getattr(modulus, "coeffs", modulus))
    if len(mod) != m + 1:
        raise DegreeMismatch(f"modulus degree {len(mod) - 1} != extension degree {m}")
    if mod[-1] != 1:
        raise ReducibleModulus("modulus must be monic")
    from .poly import Poly, is_irreducible

    if not is_irreducible(Poly(field_new(p), mod)):
        raise ReducibleModulus(f"modulus {list(mod)} is reducible over F_{p}")
    return mod


_field = functools.cache(FieldCtx)


def field_new(p: int, m: int = 1, modulus=None) -> FieldCtx:
    """Create (or fetch the cached) field F_{p^m}.

    When ``modulus`` is omitted and m > 1 the lexicographically smallest
    monic irreducible of degree m is selected, so the context is fully
    determined by (p, m).  Contexts are cached per (p, m, modulus as
    given): naming the canonical modulus gives a context equal to the
    default one, not the same object.
    """
    return _field(p, m, None if modulus is None else
                  tuple(int(c) % p for c in getattr(modulus, "coeffs", modulus)))


@functools.cache
def field_args(field) -> tuple[int, int, Optional[tuple[int, ...]]]:
    """(p, m, modulus or None) of the field named by a spec ``p^m`` or
    ``p^m/c0,c1,...,cm`` (digits read mod p; ``p^m/`` is ``p^m``), or else
    by its order q, checked as ``field_new`` checks them but not built, once
    per process for each spec or q."""
    if not isinstance(field, str):
        q = int(field)
        ps = factor(q) if q > 1 else [q]
        if ps[0] != ps[-1]:
            raise NotPrime(f"{q} is not a prime power")
        return ps[0], len(ps), _checked(ps[0], len(ps), None)
    body, _, modpart = field.partition("/")
    try:
        p_s, caret, m_s = body.partition("^")
        p, m = int(p_s), int(m_s) if caret else 1
        modulus = [int(c) for c in modpart.split(",")] if modpart else None
    except ValueError:
        raise InvalidSpec(f"malformed field spec {field!r} "
                          "(expected p^m or p^m/c0,c1,...,cm)") from None
    return p, m, _checked(p, m, modulus)


def field_spec(p: int, m: int, modulus: Optional[Sequence[int]]) -> str:
    """The spec string of F_{p^m} with this modulus (None: the canonical one)."""
    if m == 1:
        return f"{p}^1"
    if modulus is None or tuple(modulus) == _canonical_modulus(p, m):
        return f"{p}^{m}"
    return f"{p}^{m}/" + ",".join(str(c) for c in modulus)


def parse_field_spec(spec: str) -> FieldCtx:
    """Parse ``p^m`` or ``p^m/c0,c1,...,cm`` into a context."""
    return field_new(*field_args(spec))


def field_from_order(q: int) -> FieldCtx:
    """The canonical field with q elements; q must be a prime power."""
    return field_new(*field_args(q))


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
    return _embedding(big, sub)[0]


@functools.cache
def _embedding(big: FieldCtx, sub: FieldCtx) -> tuple[list[int], dict]:
    """``(table, back)``: the embedding table of sub into big and its
    inverse on the image; sub must be a subfield of big."""
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
    return table, {b: s for s, b in enumerate(table)}


def trace(big: FieldCtx, sub: FieldCtx, x: int) -> int:
    """Relative trace Tr(x) = x + x^q + ... + x^(q^(d-1)) down to sub.

    x is an index of ``big``; the result is an index of ``sub``.
    """
    subfield_embedding(big, sub)
    back = _embedding(big, sub)[1]
    acc, t = 0, int(x)
    for _ in range(big.m // sub.m):
        acc = big.add(acc, t)
        t = big.pow(t, sub.q)
    if acc not in back:
        raise RuntimeError("internal error: trace left the subfield")
    return back[acc]
