"""Dense-table maps on F_q^d: bijectivity, composition, cycle structure.

A vector (x_1, ..., x_d) over F_q is packed into the index
``sum(idx(x_i) * q^(i-1))``: x_1 is least significant.  Because element
indices are themselves base-p digit strings, the packed index is exactly the
base-p digit string of all m*d coordinates, which makes coordinatewise field
addition a digitwise base-p operation on packed indices (XOR when p = 2).

Every F_p-linear map on F_q^d -- v -> Mv, an additive outer map, the
reference map of the additivity test -- is tabulated by ``linear_table``
from the images of the m*d digit basis vectors p^k.

Every cycle question (the census, r-regularity, witness cycles) is answered
from one pointer-jumping pass over whole arrays, ``PermTable.cycle_lengths``.

Coordinatewise addition is ``gf.add_digits``, the one digitwise adder.

Tables are stored as immutable numpy int32 arrays of length q^d, hard-capped
at 2^20 entries, so every index fits and gathers move half the bytes of
int64.  The table builders produce int32 directly; ``PermTable`` checks any
other input in int64, where no value can wrap, before it narrows it.  Tables
are immutable after construction; building a table is single-threaded but
independent tables can be built concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NotBijective, SizeCap
from .gf import TABLE_CAP, FieldCtx, add_digits
from .linalg import Mat

_SPACES: dict = {}


class VecSpace:
    """Packed-index plumbing for F_q^d (memoized per context and dimension)."""

    def __init__(self, ctx: FieldCtx, d: int):
        self.ctx = ctx
        self.d = d
        self.n = ctx.q ** d
        if self.n > TABLE_CAP:
            raise SizeCap(f"q^d = {self.n} exceeds the {TABLE_CAP} table cap")
        self._arange = None

    @property
    def arange(self):
        if self._arange is None:
            a = np.arange(self.n, dtype=np.int32)
            a.flags.writeable = False
            self._arange = a
        return self._arange

    def pack_point(self, coords) -> int:
        q = self.ctx.q
        acc = 0
        for c in reversed(list(coords)):
            acc = acc * q + int(c)
        return acc

    def unpack_point(self, idx: int) -> tuple[int, ...]:
        q = self.ctx.q
        out = []
        for _ in range(self.d):
            out.append(idx % q)
            idx //= q
        return tuple(out)

    def vadd(self, a, b):
        """Coordinatewise field addition on packed indices (scalars or arrays)."""
        return add_digits(self.ctx.p, self.ctx.m * self.d, a, b)


def space(ctx: FieldCtx, d: int) -> VecSpace:
    key = (ctx.key, d)
    sp = _SPACES.get(key)
    if sp is None:
        sp = VecSpace(ctx, d)
        _SPACES[key] = sp
    return sp


def linear_table(ctx: FieldCtx, d: int, images) -> np.ndarray:
    """Packed table of the F_p-linear map on F_q^d with p^k -> images[k].

    p^k (k < m*d) is the packed index whose only nonzero base-p digit is
    digit k; images[k] is its packed image.  The table doubles block by
    block: entries [c*p^k, (c+1)*p^k) are entries [0, p^k) plus
    c*images[k], for c = 1..p-1.
    """
    sp = space(ctx, d)
    p = ctx.p
    imgs = np.asarray(images, dtype=np.int64)
    if imgs.shape != (ctx.m * d,):
        raise DimMismatch(f"need {ctx.m * d} digit images, got shape {imgs.shape}")
    pw = p ** np.arange(ctx.m * d)
    digits = imgs[:, None] // pw % p
    # mults[k, c-1] = c * images[k], scaled digit by digit
    mults = (np.arange(1, p)[:, None] * digits[:, None, :] % p * pw).sum(axis=2)
    out = np.empty(sp.n, dtype=np.int32)
    out[0] = 0
    size = 1
    for row in mults.astype(np.int32):
        out[size:p * size] = sp.vadd(out[:size], row[:, None]).ravel()
        size *= p
    return out


@dataclass(frozen=True)
class CycleStructure:
    """Multiset of cycle lengths (>= 2) plus the fixed-point count."""

    fixed_points: int
    cycles: tuple[tuple[int, int], ...]  # sorted (length, count) pairs

    def total(self) -> int:
        return self.fixed_points + sum(l * c for l, c in self.cycles)

    def to_json(self) -> dict:
        return {"fixed": self.fixed_points,
                "cycles": {str(l): c for l, c in self.cycles}}

    @classmethod
    def from_json(cls, data: dict) -> "CycleStructure":
        return cls(data["fixed"],
                   tuple(sorted((int(l), c) for l, c in data["cycles"].items())))


class PermTable:
    """A map F_q^d -> F_q^d as a dense table over packed indices."""

    __slots__ = ("ctx", "d", "table", "bijective")

    def __init__(self, ctx: FieldCtx, d: int, table, bijective=None, *,
                 _in_range=False):  # True: gathered from valid tables, skip the check
        sp = space(ctx, d)
        if isinstance(table, np.ndarray) and table.dtype == np.int32:
            arr = table
        else:  # checked in int64: narrowing first could wrap a bad value into range
            try:
                arr = np.asarray(table, dtype=np.int64)
            except OverflowError:
                raise ValueError("table outputs out of range") from None
        if arr.shape != (sp.n,):
            raise DimMismatch(f"table length {arr.shape} != q^d = {sp.n}")
        if not _in_range and arr.size and (arr.min() < 0 or arr.max() >= sp.n):
            raise ValueError("table outputs out of range")
        arr = arr.astype(np.int32, copy=False)
        if not arr.flags.owndata:
            arr = arr.copy()
        arr.flags.writeable = False
        self.ctx = ctx
        self.d = d
        self.table = arr
        if bijective is None:  # n outputs in range: a bijection hits every point
            hit = np.zeros(sp.n, dtype=bool)
            hit[arr] = True
            bijective = bool(hit.all())
        self.bijective = bijective

    # -- constructors ---------------------------------------------------------

    @classmethod
    def identity(cls, ctx: FieldCtx, d: int) -> "PermTable":
        sp = space(ctx, d)
        return cls(ctx, d, sp.arange, bijective=True)

    @classmethod
    def from_fn(cls, ctx: FieldCtx, d: int, rule) -> "PermTable":
        """Tabulate a coordinate rule (tuple of d indices -> sequence of d)."""
        sp = space(ctx, d)
        return cls(ctx, d, [sp.pack_point(rule(sp.unpack_point(i))) for i in range(sp.n)])

    @classmethod
    def from_matrix(cls, m: Mat) -> "PermTable":
        """Table of v -> Mv.  Bijective exactly when det(M) != 0."""
        ctx = m.ctx
        p, q = ctx.p, ctx.q
        # digit j*m + t of v is the p^t component of coordinate j; its image
        # is column j of M scaled by the field element with index p^t
        images = [sum(ctx.mul(row[j], p ** t) * q ** i for i, row in enumerate(m.rows))
                  for j in range(m.n) for t in range(ctx.m)]
        return cls(ctx, m.n, linear_table(ctx, m.n, images))

    # -- protocol ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, PermTable) and self.ctx.key == other.ctx.key
                and self.d == other.d and bool(np.array_equal(self.table, other.table)))

    def __hash__(self):
        return hash((self.ctx.key, self.d, self.table.tobytes()))

    def __repr__(self) -> str:
        return (f"PermTable({self.ctx.spec()}^{self.d}, n={self.table.size}, "
                f"bijective={self.bijective})")

    @property
    def n(self) -> int:
        return self.table.size

    def _check(self, other: "PermTable") -> None:
        if self.ctx.key != other.ctx.key or self.d != other.d:
            raise DimMismatch("tables over different spaces")

    def __call__(self, idx: int) -> int:
        return int(self.table[idx])

    # -- ops ---------------------------------------------------------------------

    def compose(self, other: "PermTable") -> "PermTable":
        """(self o other)(x) = self(other(x))."""
        self._check(other)
        bij = self.bijective and other.bijective or None
        return PermTable(self.ctx, self.d, self.table[other.table], bijective=bij,
                         _in_range=True)

    def invert(self) -> "PermTable":
        if not self.bijective:
            raise NotBijective("cannot invert a non-bijective table")
        inv = np.empty_like(self.table)
        inv[self.table] = space(self.ctx, self.d).arange
        return PermTable(self.ctx, self.d, inv, bijective=True, _in_range=True)

    def add_pointwise(self, other: "PermTable") -> "PermTable":
        """x -> self(x) + other(x); bijectivity is recomputed eagerly."""
        self._check(other)
        sp = space(self.ctx, self.d)
        return PermTable(self.ctx, self.d, sp.vadd(self.table, other.table))

    def npower(self, n: int) -> "PermTable":
        """n-th composite power; negative n uses the inverse."""
        if n < 0:
            return self.invert().npower(-n)
        result = PermTable.identity(self.ctx, self.d)
        acc = self
        while n:
            if n & 1:
                result = result.compose(acc)
            acc = acc.compose(acc)
            n >>= 1
        return result

    def cycle_lengths(self) -> np.ndarray:
        """The length of the cycle through each point.

        Pointer jumping (Hillis & Steele, CACM 29(12), 1986): after round k,
        low[x] is the least of x, f(x), ..., f^(2^k - 1)(x).  A round that
        changes nothing leaves low constant on each cycle, hence its least
        point; that takes about log2(L) + 1 rounds for a longest cycle L.
        """
        if not self.bijective:
            raise NotBijective("cycle lengths need a bijective table")
        low = space(self.ctx, self.d).arange
        step = self.table
        while True:
            nxt = np.minimum(low, low.take(step))
            if np.array_equal(nxt, low):
                return np.bincount(low, minlength=self.n).take(low)
            low, step = nxt, step.take(step)

    def cycle_structure(self) -> CycleStructure:
        points = np.bincount(self.cycle_lengths())  # points on cycles of each length
        lengths = np.flatnonzero(points[2:]) + 2
        return CycleStructure(int(points[1]), tuple(zip(
            lengths.tolist(), (points[lengths] // lengths).tolist())))

    def find_cycle(self, predicate) -> list[int] | None:
        """The cycle through the least point whose cycle length satisfies
        ``predicate``, listed from that point (the least point of the cycle)."""
        lengths = self.cycle_lengths()
        wanted = [l for l in np.flatnonzero(np.bincount(lengths)).tolist() if predicate(l)]
        if not wanted:
            return None
        orbit = [int(np.argmax(np.isin(lengths, wanted)))]
        while len(orbit) < lengths[orbit[0]]:
            orbit.append(self(orbit[-1]))
        return orbit

    def is_r_regular(self, r: int) -> bool:
        """All non-fixed cycles have length exactly r (fixed points ignored)."""
        return all(l == r for l, _ in self.cycle_structure().cycles)

    def is_cpp(self) -> bool:
        """Both the table and table + identity are bijections."""
        if not self.bijective:
            return False
        return self.add_pointwise(PermTable.identity(self.ctx, self.d)).bijective

    def is_additive(self) -> bool:
        """Additivity f(x+y) = f(x)+f(y) for all x, y.

        Compares the table with the F_p-linear map that agrees with it on the
        digit basis p^k: an additive map is F_p-linear, so it is determined
        by those images (and maps 0 to 0, which the comparison also checks).
        """
        images = self.table[self.ctx.p ** np.arange(self.ctx.m * self.d)]
        return bool(np.array_equal(self.table, linear_table(self.ctx, self.d, images)))

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {"field": self.ctx.spec(), "d": self.d,
                "table": self.table.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "PermTable":
        from .gf import parse_field_spec

        return cls(parse_field_spec(data["field"]), data["d"], data["table"])
