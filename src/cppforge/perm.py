"""Dense-table maps on F_q^d: bijectivity, composition, cycle structure.

A vector (x_1, ..., x_d) over F_q is packed into the index
``sum(idx(x_i) * q^(i-1))``: x_1 is least significant.  Because element
indices are themselves base-p digit strings, the packed index is exactly the
base-p digit string of all m*d coordinates, which makes coordinatewise field
addition a digitwise base-p operation on packed indices (XOR when p = 2).

Every F_p-linear map on F_q^d -- v -> Mv, an additive outer map, the
reference map of the additivity test -- is tabulated by ``linear_table``
from the images of the m*d digit basis vectors p^k.  It builds one table,
or an (H, q^d) stack of them from H rows of images in the same passes;
``matrix_tables`` gives the images of a matrix or of an (H, d, d) stack of
matrices, and ``PermTable.from_matrix`` is its one-matrix case.  Each
table question has one row-wise kernel over a stack, whose one-row case is
the ``PermTable`` method: ``bijective_rows``, ``conjugate_rows`` (tau o f o
tau^-1 by one scatter, with no inverse built, for one tau or one per row)
and ``add_rows`` (sigma + e), so a sweep over many small maps runs as array
passes; ``compose_rows`` composes two stacks row by row.  ``PermTable.npower``
is plain repeated squaring on one table; no check takes powers.

Every cycle question (sigma^r = e, the census, r-regularity, witness cycles)
is answered from one pointer-jumping pass over whole arrays:
``cycle_lengths_rows`` gives the cycle lengths of every row of a stack of
bijections at once, and ``PermTable.cycle_lengths`` is its one-row case,
run once per table and kept on it.  ``CycleStructure.from_lengths`` and
``first_cycle`` read the census and a witness cycle off one row of lengths.

Coordinatewise addition is ``gf.add_digits``, the one digitwise adder.
``add_rows`` runs it in column slices, as its temporaries would otherwise
set the peak memory of a large table.

Tables are stored as immutable numpy int32 arrays of length q^d, hard-capped
at 2^20 entries, so every index fits and gathers move half the bytes of
int64.  ``PermTable`` checks the range of every table, and of any input
but int32 in int64, where no value can wrap, before it narrows it.  Tables
are immutable after construction; building a table is single-threaded but
independent tables can be built concurrently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NotBijective, SizeCap
from .gf import TABLE_CAP, FieldCtx, add_digits, over_cap
from .linalg import Mat

_SLICE = 1 << 16  # the least column-slice width of add_rows


def check_cap(q: int, d: int) -> None:
    """Raise SizeCap when a table of q^d entries would exceed the table cap."""
    if over := over_cap(q, d):
        raise SizeCap(f"q^d = {over} exceeds the {TABLE_CAP} table cap")


class VecSpace:
    """Packed-index plumbing for F_q^d (memoized per context and dimension)."""

    def __init__(self, ctx: FieldCtx, d: int):
        check_cap(ctx.q, d)
        self.ctx = ctx
        self.d = d
        self.n = ctx.q ** d

    @functools.cached_property
    def arange(self):
        a = np.arange(self.n, dtype=np.int32)
        a.flags.writeable = False
        return a

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


space = functools.cache(VecSpace)


def linear_table(ctx: FieldCtx, d: int, images) -> np.ndarray:
    """Packed table of the F_p-linear map on F_q^d with p^k -> images[k].

    p^k (k < m*d) is the packed index whose only nonzero base-p digit is
    digit k; images[k] is its packed image.  The table doubles block by
    block: entries [c*p^k, (c+1)*p^k) are entries [0, p^k) plus
    c*images[k], for c = 1..p-1.  A stack of H image rows, shape
    (H, m*d), gives the (H, q^d) stack of their tables in the same passes.
    """
    sp = space(ctx, d)
    p = ctx.p
    imgs = np.asarray(images, dtype=np.int64)
    if imgs.ndim not in (1, 2) or imgs.shape[-1] != ctx.m * d:
        raise DimMismatch(f"need {ctx.m * d} digit images per row, got shape {imgs.shape}")
    lead = imgs.shape[:-1]
    pw = p ** np.arange(ctx.m * d)
    digits = imgs[..., None] // pw % p
    # mults[..., k, c-1] = c * images[k], scaled digit by digit
    mults = (np.arange(1, p)[:, None] * digits[..., None, :] % p * pw).sum(axis=-1).astype(np.int32)
    out = np.empty(lead + (sp.n,), dtype=np.int32)
    out[..., 0] = 0
    size = 1
    for k in range(ctx.m * d):
        out[..., size:p * size] = sp.vadd(out[..., None, :size], mults[..., k, :, None]).reshape(
            lead + ((p - 1) * size,))
        size *= p
    return out


def matrix_tables(ctx: FieldCtx, mats) -> np.ndarray:
    """Tables of v -> Mv: one (q^d,) int32 table for a d x d index matrix,
    or the (H, q^d) stack for an (H, d, d) stack of them."""
    mats = np.asarray(mats, dtype=np.int64)
    d = mats.shape[-1]
    p, q, m = ctx.p, ctx.q, ctx.m
    # digit j*m + t of v is the p^t component of coordinate j; its image
    # is column j of M scaled by the field element with index p^t
    scaled = ctx.vmul(mats[..., None, :, :], (p ** np.arange(m))[:, None, None])
    images = (scaled * q ** np.arange(d)[:, None]).sum(axis=-2)  # [..., t, j]
    return linear_table(ctx, d, np.swapaxes(images, -1, -2).reshape(mats.shape[:-2] + (d * m,)))


def _flat_rows(tables: np.ndarray) -> np.ndarray:
    """An (H, n) stack with outputs in [0, n) as one flat map on [0, H*n),
    for the one-pass row-wise kernels: row i is offset into its own slice
    [i*n, (i+1)*n).  The offsets are int32 while H*n fits; one row needs none."""
    h, n = tables.shape
    if h == 1:
        return tables.ravel()
    dtype = np.int32 if h * n <= np.iinfo(np.int32).max else np.int64
    return (tables + np.arange(0, h * n, n, dtype=dtype)[:, None]).ravel()


def bijective_rows(tables: np.ndarray) -> np.ndarray:
    """Which rows of an (H, n) stack with outputs in [0, n) are bijections."""
    h, n = tables.shape
    hit = np.zeros(h * n, dtype=bool)
    hit[_flat_rows(tables)] = True
    return hit.reshape(h, n).all(axis=1)


def conjugate_rows(tables: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """tau o f o tau^-1 for each row f of an (H, n) stack (or one table) and
    a bijection tau, or row i by row i of an (H, n) stack of them, in place
    and returned: tau(x) maps to tau(f(x))."""
    if tau.ndim == 1:
        tables[..., tau] = tau.take(tables)
    else:  # one flat scatter, each row offset into its own slice
        tables.put(_flat_rows(tau), tau.take(_flat_rows(tables)))
    return tables


def compose_rows(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """f o g row by row for two (H, n) stacks, by one gather: x -> f(g(x))."""
    return f.reshape(-1)[_flat_rows(g)].reshape(g.shape)


def add_rows(sp: VecSpace, tables: np.ndarray, addend: np.ndarray) -> np.ndarray:
    """x -> f(x) + addend(x) for each row f of an (H, n) stack (or one
    table), in at most q column slices of at least _SLICE entries."""
    out = np.empty_like(tables)
    width = max(_SLICE, sp.n // sp.ctx.q)
    for lo in range(0, sp.n, width):
        out[..., lo:lo + width] = sp.vadd(tables[..., lo:lo + width], addend[..., lo:lo + width])
    return out


def cycle_lengths_rows(tables: np.ndarray) -> np.ndarray:
    """The (H, n) int32 array whose row i holds, for each point, the length
    of its cycle under row i of an (H, n) stack of bijections.

    Pointer jumping (Hillis & Steele, CACM 29(12), 1986) over the stack as
    one flat map, each row offset into its own slice, so no cycle crosses
    rows: after round k, low[x] is the least of x, f(x), ...,
    f^(2^k - 1)(x).  A round that changes nothing leaves low constant on
    each cycle, hence its least point; that takes about log2(L) + 1 rounds
    for a longest cycle L of the stack.
    """
    step = _flat_rows(tables)
    low = np.arange(step.size, dtype=step.dtype)
    np.minimum(low, step, out=low)  # round 1 gathers nothing: low[f(x)] = f(x)
    step = step.take(step)
    while ((nxt := low.take(step)) < low).any():
        np.minimum(low, nxt, out=low)
        del nxt
        step = step.take(step)
    del step, nxt  # freed before the count, which sets the peak
    return np.bincount(low).astype(np.int32).take(low).reshape(tables.shape)


def first_cycle(table: np.ndarray, lengths: np.ndarray, predicate) -> list[int] | None:
    """The cycle of ``table`` through the least point whose cycle length
    (from ``lengths``, the table's cycle lengths) satisfies ``predicate``,
    listed from that point (the least point of the cycle)."""
    wanted = [l for l in np.flatnonzero(np.bincount(lengths)).tolist() if predicate(l)]
    if not wanted:
        return None
    orbit = [int(np.argmax(np.isin(lengths, wanted)))]
    while len(orbit) < lengths[orbit[0]]:
        orbit.append(int(table[orbit[-1]]))
    return orbit


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

    @classmethod
    def from_lengths(cls, lengths: np.ndarray) -> "CycleStructure":
        """The census of a bijection from the cycle length of each point."""
        points = np.bincount(lengths)  # points on cycles of each length
        cycles = np.flatnonzero(points[2:]) + 2
        return cls(int(points[1]), tuple(zip(
            cycles.tolist(), (points[cycles] // cycles).tolist())))


class PermTable:
    """A map F_q^d -> F_q^d as a dense table over packed indices."""

    __slots__ = ("ctx", "d", "table", "_bijective", "_lengths")

    def __init__(self, ctx: FieldCtx, d: int, table):
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
        if arr.size and (arr.min() < 0 or arr.max() >= sp.n):
            raise ValueError("table outputs out of range")
        arr = arr.astype(np.int32, copy=False)
        if not arr.flags.owndata:
            arr = arr.copy()
        arr.flags.writeable = False
        self.ctx = ctx
        self.d = d
        self.table = arr
        self._bijective = None  # bijective, computed on first read
        self._lengths = None  # cycle_lengths, computed on first use

    # -- constructors ---------------------------------------------------------

    @classmethod
    def identity(cls, ctx: FieldCtx, d: int) -> "PermTable":
        return cls(ctx, d, space(ctx, d).arange)

    @classmethod
    def from_matrix(cls, m: Mat) -> "PermTable":
        """Table of v -> Mv.  Bijective exactly when det(M) != 0."""
        return cls(m.ctx, m.n, matrix_tables(m.ctx, m.a))

    # -- protocol ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, PermTable) and self.ctx.key == other.ctx.key
                and self.d == other.d and bool(np.array_equal(self.table, other.table)))

    def __hash__(self):
        return hash((self.ctx.key, self.d, self.table.tobytes()))

    def __repr__(self) -> str:
        return f"PermTable({self.ctx.spec()}^{self.d}, n={self.table.size})"

    @property
    def bijective(self) -> bool:
        """The one-row case of ``bijective_rows``, computed by the first read."""
        if self._bijective is None:
            self._bijective = bool(bijective_rows(self.table[None])[0])
        return self._bijective

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
        return PermTable(self.ctx, self.d, self.table[other.table])

    def invert(self) -> "PermTable":
        if not self.bijective:
            raise NotBijective("cannot invert a non-bijective table")
        inv = np.empty_like(self.table)
        inv[self.table] = space(self.ctx, self.d).arange
        return PermTable(self.ctx, self.d, inv)

    def conjugate(self, tau: "PermTable") -> "PermTable":
        """tau o self o tau^-1 for a bijective tau (``conjugate_rows``)."""
        self._check(tau)
        if not tau.bijective:
            raise NotBijective("cannot conjugate by a non-bijective table")
        return PermTable(self.ctx, self.d, conjugate_rows(self.table.copy(), tau.table))

    def add_pointwise(self, other: "PermTable") -> "PermTable":
        """x -> self(x) + other(x) (``add_rows``)."""
        self._check(other)
        return PermTable(self.ctx, self.d,
                         add_rows(space(self.ctx, self.d), self.table, other.table))

    def npower(self, n: int) -> "PermTable":
        """n-th composite power, by repeated squaring; negative n uses the
        inverse."""
        if n < 0:
            return self.invert().npower(-n)
        out, acc = space(self.ctx, self.d).arange, self.table
        while n:
            if n & 1:
                out = acc.take(out)
            n >>= 1
            if n:
                acc = acc.take(acc)
        return PermTable(self.ctx, self.d, out)

    def cycle_lengths(self) -> np.ndarray:
        """The length of the cycle through each point, as a read-only int32
        array: the one-row case of ``cycle_lengths_rows``, computed by the
        first call and kept on the table."""
        if self._lengths is None:
            if not self.bijective:
                raise NotBijective("cycle lengths need a bijective table")
            self._lengths = cycle_lengths_rows(self.table[None])[0]
            self._lengths.flags.writeable = False
        return self._lengths

    def cycle_structure(self) -> CycleStructure:
        return CycleStructure.from_lengths(self.cycle_lengths())

    def find_cycle(self, predicate) -> list[int] | None:
        """The cycle through the least point whose cycle length satisfies
        ``predicate``, listed from that point (the least point of the cycle)."""
        return first_cycle(self.table, self.cycle_lengths(), predicate)

    def is_r_cycle(self, r: int) -> bool:
        """sigma^r = e: every cycle length divides r."""
        return all(r % l == 0 for l, _ in self.cycle_structure().cycles)

    def is_r_regular(self, r: int) -> bool:
        """All non-fixed cycles have length exactly r (fixed points ignored)."""
        return all(l == r for l, _ in self.cycle_structure().cycles)

    def is_cpp(self) -> bool:
        """Both the table and table + identity are bijections."""
        return self.bijective and self.add_pointwise(
            PermTable.identity(self.ctx, self.d)).bijective

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
