"""Univariate polynomial algebra over a field context.

Polynomials are dense coefficient tuples, low degree first, with no trailing
zeros; the zero polynomial has an empty tuple and its ``degree`` is None (a
distinguished marker rather than a number).  Coefficients are canonical
element indices of the owning :class:`~cppforge.gf.FieldCtx`.

Besides ring arithmetic this module provides cyclotomic polynomials (by
Moebius inversion over ``gf.factor``), deterministic irreducible factorization
(distinct-degree gcd splitting followed by equal-degree trial division),
the enumeration of monic polynomials -- one at a time, or as coefficient
rows with their values at a point -- with the multiplicative orders of t and
t + 1 modulo each of them (one numpy recurrence over all of them at once),
and the text / JSON formats used by the CLI.  The array passes add with
``gf.add_digits`` and multiply with ``FieldCtx.vmul`` in every field, prime
fields included.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable

import numpy as np

from .errors import CharacteristicDividesN, CtxMismatch, DivisionByZero, InvalidSpec, SizeCap
from .gf import TABLE_CAP, FieldCtx, add_digits, factor


class Poly:
    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: Iterable):
        cs = [int(c) for c in coeffs]
        for c in cs:
            if not 0 <= c < ctx.q:
                raise ValueError(f"coefficient index {c} out of range for {ctx.spec()}")
        while cs and cs[-1] == 0:
            cs.pop()
        self.ctx = ctx
        self.coeffs = tuple(cs)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, (1,))

    @classmethod
    def t(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, (0, 1))

    # -- structure -----------------------------------------------------------

    @property
    def degree(self):
        """Degree as an int, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _check(self, other: "Poly") -> None:
        if self.ctx.key != other.ctx.key:
            raise CtxMismatch(f"{self.ctx.spec()} vs {other.ctx.spec()}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.ctx.key == other.ctx.key
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.ctx.key, self.coeffs))

    def __repr__(self) -> str:
        return f"Poly({self.ctx.spec()}: {self.to_text()})"

    def sort_key(self):
        """Deterministic order: by degree, then coefficient digits high-first.

        For monic polynomials of equal degree this is exactly the order of
        the integer value sum(c_k * q^k).
        """
        return (len(self.coeffs), tuple(reversed(self.coeffs)))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = ctx.add(out[i], c)
        return Poly(ctx, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        ctx = self.ctx
        return Poly(ctx, [ctx.neg(c) for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(ctx)
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] = ctx.add(out[i + j], ctx.mul(ca, cb))
        return Poly(ctx, out)

    def scale(self, c: int) -> "Poly":
        ctx = self.ctx
        return Poly(ctx, [ctx.mul(c, x) for x in self.coeffs])

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        ctx = self.ctx
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        r = list(self.coeffs)
        b = other.coeffs
        qlen = max(0, len(r) - len(b) + 1)
        q = [0] * qlen
        inv_lead = ctx.inv(b[-1])
        while len(r) >= len(b) and r:
            shift = len(r) - len(b)
            coef = ctx.mul(r[-1], inv_lead)
            q[shift] = coef
            for i, cb in enumerate(b):
                if cb:
                    r[shift + i] = ctx.sub(r[shift + i], ctx.mul(coef, cb))
            while r and r[-1] == 0:
                r.pop()
        return Poly(ctx, q), Poly(ctx, r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def pow_mod(self, e: int, modulus: "Poly") -> "Poly":
        result = Poly.one(self.ctx) % modulus
        acc = self % modulus
        while e:
            if e & 1:
                result = (result * acc) % modulus
            acc = (acc * acc) % modulus
            e >>= 1
        return result

    def monic(self) -> "Poly":
        if self.is_zero or self.is_monic:
            return self
        return self.scale(self.ctx.inv(self.coeffs[-1]))

    # -- evaluation ----------------------------------------------------------

    def eval_idx(self, x: int) -> int:
        ctx = self.ctx
        acc = 0
        for c in reversed(self.coeffs):
            acc = ctx.add(ctx.mul(acc, x), c)
        return acc

    # -- text and JSON formats ------------------------------------------------

    def to_text(self) -> str:
        """Canonical rendering ``c0+c1*t+c2*t^2`` (zero terms omitted)."""
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{k}")
        return "+".join(parts)

    def to_json(self) -> list[int]:
        return list(self.coeffs)


def parse_poly(text: str, ctx: FieldCtx) -> Poly:
    """Parse polynomial text; accepts either coefficient order and '-' signs.

    Integer literals are canonical element indices except that a leading
    minus maps an index through field negation, so ``t^2-t+1`` works over
    any context.
    """
    s = text.replace(" ", "").replace("**", "^")
    if s in ("0", ""):
        return Poly.zero(ctx)
    s = s.replace("-", "+-")
    if s.startswith("+"):
        s = s[1:]
    coeffs: dict[int, int] = {}
    for term in s.split("+"):
        if not term:
            continue
        neg = term.startswith("-")
        if neg:
            term = term[1:]
        if "t" in term:
            coef_s, _, rest = term.partition("t")
            coef = int(coef_s.rstrip("*")) if coef_s.rstrip("*") else 1
            if rest.startswith("^"):
                deg = int(rest[1:])
            elif rest == "":
                deg = 1
            else:
                raise ValueError(f"cannot parse term {term!r}")
        else:
            coef, deg = int(term), 0
        if not 0 <= coef < ctx.q:
            raise ValueError(f"coefficient index {coef} out of range")
        if neg:
            coef = ctx.neg(coef)
        coeffs[deg] = ctx.add(coeffs.get(deg, 0), coef)
    out = [0] * (max(coeffs) + 1)
    for deg, c in coeffs.items():
        out[deg] = c
    return Poly(ctx, out)


# ---------------------------------------------------------------------------
# GCD, divisibility
# ---------------------------------------------------------------------------

def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor."""
    a._check(b)
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def divides(a: Poly, b: Poly) -> bool:
    """True iff a | b (remainder of b by a is zero)."""
    if a.is_zero:
        raise DivisionByZero("zero polynomial divides nothing")
    return (b % a).is_zero


# ---------------------------------------------------------------------------
# Cyclotomic polynomials
# ---------------------------------------------------------------------------

def cyclotomic(n: int, ctx: FieldCtx) -> Poly:
    """The n-th cyclotomic polynomial Q_n over ctx; requires gcd(n, p) = 1.

    Moebius inversion (Lidl and Niederreiter, Thm 3.27): Q_n(t) = Q_k(t^(n/k))
    for k the radical of n, and Q_k = prod (t^(k/s) - 1)^mu(s) over the
    divisors s of k read off ``gf.factor``, all multiplications first so that
    each division is exact.  Coefficients are integers mod p (prime-field indices).
    An index above the 2^20 table cap raises SizeCap.
    """
    if n < 1:
        raise InvalidSpec(f"cyclotomic index must be positive (got {n})")
    if n % ctx.p == 0:
        raise CharacteristicDividesN(
            f"characteristic {ctx.p} divides cyclotomic index {n}")
    if n > TABLE_CAP:
        raise SizeCap(f"cyclotomic index {n} exceeds the {TABLE_CAP} table cap")
    primes = set(factor(n))
    k = math.prod(primes)
    ups, downs = [k], []  # k/s over the divisors s of k with mu(s) = 1, and -1
    for prime in primes:
        ups, downs = ups + [e // prime for e in downs], downs + [e // prime for e in ups]
    p, cs = ctx.p, [1]
    for e in ups:  # cs * (t^e - 1), one pass
        cs = [(a - b) % p for a, b in zip([0] * e + cs, cs + [0] * e)]
    for e in downs:  # the exact quotient by t^e - 1, one pass: g_i = g_(i-e) - cs_i
        g = [0] * e
        for c in cs[:-e]:
            g.append((g[-e] - c) % p)
        cs = g[e:]
    out = [0] * ((len(cs) - 1) * (n // k) + 1)
    out[::n // k] = cs
    return Poly(ctx, out)


# ---------------------------------------------------------------------------
# Irreducibility and factorization
# ---------------------------------------------------------------------------

def is_irreducible(f: Poly) -> bool:
    """Distinct-degree gcd sieve; correct for arbitrary (not just squarefree) f."""
    deg = f.degree
    if deg is None or deg < 1:
        return False
    if deg == 1:
        return True
    f = f.monic()
    t = Poly.t(f.ctx)
    for k in range(1, deg // 2 + 1):
        tq = t.pow_mod(f.ctx.q ** k, f)
        g = gcd(f, tq - t)
        if g.degree and g.degree > 0:
            return False
    return True


def monic_polys(ctx: FieldCtx, deg: int):
    """All monic polynomials of the given degree in deterministic order.

    The order is by integer value sum(c_k * q^k): coefficient digits compared
    from the highest degree down.  These are the rows of
    :func:`monic_coeffs`, read in blocks of at most 2^14.
    """
    n = ctx.q ** deg
    for lo in range(0, n, 1 << 14):
        for cs in monic_coeffs(ctx, deg, lo, min(n, lo + (1 << 14))).tolist():
            yield Poly(ctx, cs + [1])


def monic_coeffs(ctx: FieldCtx, deg: int, lo: int = 0, hi=None) -> np.ndarray:
    """Coefficient rows c_0..c_(deg-1) of the monic h number lo..hi - 1 of
    :func:`monic_polys` (default: all q^deg), as an int64 index array."""
    q = ctx.q
    hi = q ** deg if hi is None else hi
    # every index is below hi, so powers and a modulus capped at hi give the
    # same digits, in int64 for any q
    pw = np.array([min(q ** k, hi) for k in range(deg)], dtype=np.int64)
    return np.arange(lo, hi, dtype=np.int64)[:, None] // pw % min(q, hi)


def monic_values(ctx: FieldCtx, coeffs: np.ndarray, x: int) -> np.ndarray:
    """h(x) for each monic h = t^deg + sum_k coeffs[:, k] t^k, by Horner."""
    at = np.ones(len(coeffs), dtype=np.int64)
    for k in range(coeffs.shape[1] - 1, -1, -1):
        at = add_digits(ctx.p, ctx.m, ctx.vmul(at, x), coeffs[:, k])
    return at


@functools.cache
def monic_orders(ctx: FieldCtx, deg: int, shift: int) -> np.ndarray:
    """ord(t + shift mod h) for every monic h of degree deg, as an array.

    Entry v belongs to the v-th polynomial of :func:`monic_polys`, whose
    coefficients are the base-q digits of v.  The entry is 0 where
    h(-shift) = 0, as t + shift is then not invertible mod h.  All rows
    at once: the powers of t + shift mod every h, one row of deg
    coefficients per h, multiplied by t + shift in lockstep until each row
    reaches 1.  Results are cached per (field, degree, shift) and read-only.
    """
    if deg < 1:
        raise InvalidSpec(f"orders need degree >= 1 (got {deg})")
    q, p = ctx.q, ctx.p
    n = q ** deg
    if n > TABLE_CAP:
        raise SizeCap(f"{n} monic polynomials exceed the {TABLE_CAP} table cap")
    mul = ctx.vmul
    coeffs = monic_coeffs(ctx, deg)
    neg_h = mul(coeffs, ctx.neg(1))
    sh = ctx.from_int(shift)
    rows = np.nonzero(monic_values(ctx, coeffs, ctx.neg(sh)))[0]
    cur = np.zeros((len(rows), deg), dtype=np.int64)
    if deg == 1:
        cur[:, 0] = add_digits(p, ctx.m, neg_h[rows, 0], sh)  # t = -h_0 mod h
    else:
        cur[:, 0], cur[:, 1] = sh, 1
    neg_h = neg_h[rows]
    one = np.zeros(deg, dtype=np.int64)
    one[0] = 1
    mult = 1
    while mult < deg:
        mult *= p
    bound = (n - 1) * mult + 1
    out = np.zeros(n, dtype=np.int64)
    k = 1
    while True:
        done = (cur == one).all(axis=1)
        if done.any():
            out[rows[done]] = k
            keep = ~done
            rows, cur, neg_h = rows[keep], cur[keep], neg_h[keep]
            if not len(rows):
                break
        # cur := cur * (t + shift) mod h
        nxt = np.zeros_like(cur)
        nxt[:, 1:] = cur[:, :-1]
        if sh:
            nxt = add_digits(p, ctx.m, nxt, mul(cur, sh))
        cur = add_digits(p, ctx.m, nxt, mul(cur[:, -1:], neg_h))
        k += 1
        if k > bound:
            raise RuntimeError("internal error: order search exceeded bound")
    out.flags.writeable = False
    return out


def irreducible_factors(f: Poly) -> list[Poly]:
    """Monic irreducible factors of f with multiplicity.

    Returns a flat list sorted by (degree, coefficient digits high-first);
    the product of the factors times the leading coefficient of f equals f.
    Distinct-degree splitting via gcd(f, t^(q^k) - t), then equal-degree
    splitting by exhaustive trial division over all monic candidates of the
    target degree; fully deterministic.
    """
    if f.is_zero:
        raise DivisionByZero("cannot factor the zero polynomial")
    ctx = f.ctx
    out: list[Poly] = []
    g = f.monic()
    t = Poly.t(ctx)
    k = 1
    while g.degree and g.degree > 0:
        if g.degree < 2 * k:
            out.append(g)
            break
        tq = t.pow_mod(ctx.q ** k, g)
        d = gcd(g, tq - t)
        if d.degree and d.degree > 0:
            if d.degree == k:
                irrs = [d]
            else:
                irrs = [u for u in monic_polys(ctx, k) if divides(u, d)]
            for u in irrs:
                while divides(u, g):
                    g = g // u
                    out.append(u)
        k += 1
    out.sort(key=Poly.sort_key)
    return out
