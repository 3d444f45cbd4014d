"""Arithmetic and enumeration for prime fields F_p and extension fields F_{p^m}.

Elements are canonical integer indices in ``[0, q)``: the index encodes the
coefficient vector of the residue polynomial in base p (the coefficient of
degree k contributes ``digit * p**k``).  Index 0 is the additive identity and
index 1 the multiplicative identity.  All arithmetic is exact; extension
multiplication is schoolbook convolution followed by reduction modulo the
field modulus.

A :class:`FieldCtx` is immutable after construction and every operation here
is a pure function of its inputs, so contexts may be shared freely between
threads.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import (
    CtxMismatch,
    DegreeMismatch,
    DivisionByZero,
    InvalidSpec,
    NotASubfieldRelation,
    NotPrime,
    ReducibleModulus,
)

# Full q-row multiplication caches are only kept below this size.
_SCALAR_TABLE_CAP = 1024


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


# ---------------------------------------------------------------------------
# Raw coefficient-list polynomials over F_p (low degree first).  These back
# the modulus machinery and element inversion without depending on the
# higher-level Poly type.
# ---------------------------------------------------------------------------

def _trim(v: list) -> list:
    while v and v[-1] == 0:
        v.pop()
    return v


def _psub(p: int, a: Sequence[int], b: Sequence[int]) -> list:
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _trim(out)


def _pmul(p: int, a: Sequence[int], b: Sequence[int]) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _trim(out)


def _pdivmod(p: int, a: Sequence[int], b: Sequence[int]) -> tuple[list, list]:
    b = _trim(list(b))
    if not b:
        raise DivisionByZero("polynomial division by zero")
    r = list(a)
    _trim(r)
    q = [0] * max(0, len(r) - len(b) + 1)
    inv_lead = pow(b[-1], p - 2, p)
    while len(r) >= len(b):
        shift = len(r) - len(b)
        coef = (r[-1] * inv_lead) % p
        q[shift] = coef
        for i, cb in enumerate(b):
            r[shift + i] = (r[shift + i] - coef * cb) % p
        _trim(r)
        if not r:
            break
    return _trim(q), r


def _pmod(p: int, a: Sequence[int], b: Sequence[int]) -> list:
    return _pdivmod(p, a, b)[1]


def _pgcd(p: int, a: Sequence[int], b: Sequence[int]) -> list:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _pmod(p, a, b)
    if a:
        inv_lead = pow(a[-1], p - 2, p)
        a = [(c * inv_lead) % p for c in a]
    return a


def _ppowmod(p: int, base: Sequence[int], e: int, mod: Sequence[int]) -> list:
    result = [1]
    acc = _pmod(p, base, mod)
    while e:
        if e & 1:
            result = _pmod(p, _pmul(p, result, acc), mod)
        acc = _pmod(p, _pmul(p, acc, acc), mod)
        e >>= 1
    return result


def _monic_fp_irreducible(p: int, coeffs: Sequence[int]) -> bool:
    """Irreducibility of a monic polynomial over F_p.

    Degree <= 4 uses the exhaustive root / quadratic-divisor check; higher
    degrees use the distinct-degree gcd sieve against t^(p^k) - t.
    """
    deg = len(coeffs) - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    if any(_eval_fp(p, coeffs, x) == 0 for x in range(p)):
        return False
    if deg in (2, 3):
        return True
    if deg == 4:
        for c0 in range(p):
            for c1 in range(p):
                if not _pmod(p, coeffs, [c0, c1, 1]):
                    return False
        return True
    t = [0, 1]
    for k in range(1, deg // 2 + 1):
        tq = _ppowmod(p, t, p ** k, coeffs)
        g = _pgcd(p, coeffs, _psub(p, tq, t))
        if len(g) - 1 > 0:
            return False
    return True


def _eval_fp(p: int, coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


import functools


@functools.lru_cache(maxsize=None)
def _canonical_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over F_p.

    Coefficients are compared low-degree-first as base-p digits, so the
    candidate (c0, c1, ..., c_{m-1}) with the smallest digit string wins.
    """
    import itertools

    for low in itertools.product(range(p), repeat=m):
        cand = list(low) + [1]
        if _monic_fp_irreducible(p, cand):
            return tuple(cand)
    raise RuntimeError(f"internal error: no irreducible of degree {m} over F_{p}")


# ---------------------------------------------------------------------------
# Field contexts and elements
# ---------------------------------------------------------------------------

class FieldCtx:
    """A finite field F_{p^m} with the canonical base-p index encoding.

    Do not call the constructor directly in application code; use
    :func:`field_new`, which caches contexts and picks the canonical modulus.
    """

    __slots__ = (
        "p", "m", "q", "modulus", "key", "_digits", "_red", "_mul_rows",
        "_inv_cache", "_embeddings",
    )

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
            if modulus is None:
                mod = _canonical_modulus(p, m)
            else:
                mod = tuple(int(c) % p for c in _coeffs_of(modulus))
                if len(mod) != m + 1:
                    raise DegreeMismatch(
                        f"modulus degree {len(mod) - 1} != extension degree {m}")
                if mod[-1] != 1:
                    raise ReducibleModulus("modulus must be monic")
                if not _monic_fp_irreducible(p, mod):
                    raise ReducibleModulus(
                        f"modulus {list(mod)} is reducible over F_{p}")
            self.modulus = mod
        self.key = (p, m, self.modulus)
        self._digits: Optional[list] = None
        self._red: Optional[list] = None
        self._mul_rows: dict = {}
        self._inv_cache: dict = {}
        self._embeddings: dict = {}

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
        if self._digits is None:
            p, m = self.p, self.m
            table = []
            for i in range(self.q):
                v, ds = i, []
                for _ in range(m):
                    ds.append(v % p)
                    v //= p
                table.append(tuple(ds))
            self._digits = table
        return self._digits[a]

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
        p = self.p
        if self.m == 1:
            return (-a) % p
        if p == 2:
            return a
        acc, w = 0, 1
        for _ in range(self.m):
            acc += ((-(a % p)) % p) * w
            a //= p
            w *= p
        return acc

    def _reduction_rows(self) -> list:
        # _red[k] holds the digit vector of u^(m+k) reduced mod the modulus.
        if self._red is None:
            p, m = self.p, self.m
            rows = [tuple((-c) % p for c in self.modulus[:m])]  # u^m
            for _ in range(m - 2):
                prev = rows[-1]
                over = prev[m - 1]
                cur = [0] + list(prev[: m - 1])  # multiply by u
                if over:
                    red0 = rows[0]
                    cur = [(cur[i] + over * red0[i]) % p for i in range(m)]
                rows.append(tuple(cur))
            self._red = rows
        return self._red

    def _mul_raw(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        da, db = self.digits(a), self.digits(b)
        conv = [0] * (2 * m - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    conv[i + j] = (conv[i + j] + ca * cb) % p
        res = conv[:m]
        if len(res) < m:
            res += [0] * (m - len(res))
        red = self._reduction_rows()
        for k in range(m, 2 * m - 1):
            c = conv[k]
            if c:
                row = red[k - m]
                for i in range(m):
                    res[i] = (res[i] + c * row[i]) % p
        return self.undigits(res)

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return a * b % self.p
        if self.q <= _SCALAR_TABLE_CAP:
            row = self._mul_rows.get(a)
            if row is None:
                row = [self._mul_raw(a, x) for x in range(self.q)]
                self._mul_rows[a] = row
            return row[b]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        got = self._inv_cache.get(a)
        if got is None:
            # extended Euclid on residue polynomials
            p = self.p
            r0, r1 = list(self.modulus), list(self.digits(a))
            _trim(r1)
            s0, s1 = [], [1]
            while r1:
                q, r = _pdivmod(p, r0, r1)
                r0, r1 = r1, r
                s0, s1 = s1, _psub(p, s0, _pmul(p, q, s1))
            # r0 is now a nonzero constant gcd
            c_inv = pow(r0[0], p - 2, p)
            s0 = [(c * c_inv) % p for c in s0]
            s0 += [0] * (self.m - len(s0))
            got = self.undigits(s0[: self.m])
            self._inv_cache[a] = got
        return got

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
        root = None
        for z in range(big.q):
            acc = 0
            for c in reversed(sub.modulus):
                acc = big.add(big.mul(acc, z), c % big.p)
            if acc == 0:
                root = z
                break
        if root is None:
            raise RuntimeError("internal error: modulus has no root in big field")
        powers = [1]
        for _ in range(sub.m - 1):
            powers.append(big.mul(powers[-1], root))
        table = []
        for x in range(sub.q):
            ds = sub.digits(x)
            acc = 0
            for k, c in enumerate(ds):
                term = powers[k]
                s = 0
                for _ in range(c):
                    s = big.add(s, term)
                acc = big.add(acc, s)
            table.append(acc)
    back = {b: s for s, b in enumerate(table)}
    big._embeddings[sub.key] = (table, back)
    return table


def subfield_section(big: FieldCtx, sub: FieldCtx) -> dict[int, int]:
    """Partial inverse of the embedding (big index -> sub index)."""
    subfield_embedding(big, sub)
    return big._embeddings[sub.key][1]


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
