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
``matrix_images`` gives the images of a matrix or of an (H, d, d) stack of
matrices and ``matrix_tables`` their tables (``PermTable.from_matrix`` is
the one-matrix case); conjugated by an additive tau, such a map stays
F_p-linear, so its images follow by a change of basis, with no tau table.
Each table question has one row-wise kernel over a stack, whose one-row
case is the ``PermTable`` method: ``bijective_rows``, ``conjugate_rows``
(tau o f o tau^-1 by one scatter, with no inverse built, for one tau or one
per row) and ``add_rows`` (sigma + e), so a sweep over many small maps runs
as array passes; ``compose_rows`` composes two stacks row by row.
``PermTable.npower`` is plain repeated squaring on one table.

A cycle question with an r (sigma^r = e, r-regularity, and the census and
witness cycles of a table that has them) is answered by the power
criterion: ``power_lengths_rows`` takes sigma^r and sigma^(r/l^j), for each
prime power l^j dividing r, by repeated squaring over a whole stack, and
gives each point's cycle length where it divides r, and 0 where sigma^r
moves the point, for one r or one r per row (sorted once, each run of equal
r on its slice of one flat map); ``PermTable.is_r_cycle`` and
``is_r_regular`` are its one-row cases.  A question without an r (``PermTable.cycle_structure``,
``find_cycle``) reads the full cycle lengths from one pointer-jumping pass,
``cycle_lengths_rows``, whose one-row case ``PermTable.cycle_lengths`` runs
once per table and is kept on it.  ``CycleStructure.from_lengths`` and
``first_cycle`` read the census and a witness cycle off one row of lengths.

Every pass over a whole table runs in slices of ``gf.SLICE`` (2^16)
entries: gathers through ``_gather`` and scatters through ``_scatter``, as
numpy copies int32 indices to intp and a whole-table copy would set the
peak; a pass over at most SLICE entries is one numpy call.  The row-wise
kernels read no cached identity: one that needs it makes it slice by slice.

Coordinatewise addition is ``gf.add_digits``, the one digitwise adder, which
slices its own odd-p passes; ``add_rows`` runs it in column slices of SLICE
points.

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
from .gf import SLICE, TABLE_CAP, FieldCtx, add_digits, factor, over_cap
from .linalg import Mat


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


def matrix_images(ctx: FieldCtx, mats) -> np.ndarray:
    """The ``linear_table`` images of v -> Mv: the (m*d,) packed images of
    the digit basis vectors for a d x d index matrix, or their (H, m*d)
    rows for an (H, d, d) stack of them."""
    mats = np.asarray(mats, dtype=np.int64)
    d = mats.shape[-1]
    p, q, m = ctx.p, ctx.q, ctx.m
    # digit j*m + t of v is the p^t component of coordinate j; its image
    # is column j of M scaled by the field element with index p^t
    scaled = ctx.vmul(mats[..., None, :, :], (p ** np.arange(m))[:, None, None])
    images = (scaled * q ** np.arange(d)[:, None]).sum(axis=-2)  # [..., t, j]
    return np.swapaxes(images, -1, -2).reshape(mats.shape[:-2] + (d * m,))


def matrix_tables(ctx: FieldCtx, mats) -> np.ndarray:
    """Tables of v -> Mv: one (q^d,) int32 table for a d x d index matrix,
    or the (H, q^d) stack for an (H, d, d) stack of them."""
    mats = np.asarray(mats, dtype=np.int64)
    return linear_table(ctx, mats.shape[-1], matrix_images(ctx, mats))


def _flat_rows(tables: np.ndarray) -> np.ndarray:
    """An (H, n) stack with outputs in [0, n) as one flat map on [0, H*n),
    for the one-pass row-wise kernels: row i is offset into its own slice
    [i*n, (i+1)*n).  The offsets are int32 while H*n fits; one row, or one
    table, needs none and is returned as a view."""
    if tables.ndim == 1 or len(tables) == 1:
        return tables.ravel()
    h, n = tables.shape
    dtype = np.int32 if h * n <= np.iinfo(np.int32).max else np.int64
    return (tables + np.arange(0, h * n, n, dtype=dtype)[:, None]).ravel()


def _gather(src: np.ndarray, idx: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """out = src[idx] for flat arrays, in slices of SLICE entries: numpy
    copies int32 indices to intp, and a slice keeps that copy small.  Mode
    "clip" (the indices are in range) writes straight into ``out``, which
    may be ``idx`` itself, as each entry reads only its own index."""
    if out is None:
        out = np.empty(idx.shape, dtype=src.dtype)
    for lo in range(0, idx.size, SLICE):
        src.take(idx[lo:lo + SLICE], out=out[lo:lo + SLICE], mode="clip")
    return out


def _scatter(dst: np.ndarray, idx: np.ndarray, src) -> np.ndarray:
    """dst[idx] = src for flat arrays, or one value ``src``, in slices of
    SLICE entries, as ``_gather``."""
    for lo in range(0, idx.size, SLICE):
        dst.put(idx[lo:lo + SLICE], src if np.ndim(src) == 0 else src[lo:lo + SLICE], mode="clip")
    return dst


def bijective_rows(tables: np.ndarray) -> np.ndarray:
    """Which rows of an (H, n) stack with outputs in [0, n) are bijections."""
    h, n = tables.shape
    return _scatter(np.zeros(h * n, dtype=bool), _flat_rows(tables), True).reshape(h, n).all(axis=1)


def conjugate_rows(tables: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """tau o f o tau^-1 for each row f of a contiguous (H, n) stack (or one
    table) and a bijection tau, or row i by row i of an (H, n) stack of
    them, in place and returned: tau(x) maps to tau(f(x)), by one gather and
    one scatter.  One tau scatters every row through the same columns, in
    column slices of SLICE points; one tau per row scatters the stack as
    one flat map."""
    if tau.ndim == 2:
        _scatter(tables.reshape(-1), _flat_rows(tau), _gather(tau.reshape(-1), _flat_rows(tables)))
        return tables
    img = _gather(tau, tables.reshape(-1)).reshape(tables.shape)
    for lo in range(0, tau.size, SLICE):
        tables[..., tau[lo:lo + SLICE]] = img[..., lo:lo + SLICE]
    return tables


def compose_rows(f: np.ndarray, g: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """f o g row by row for two (H, n) stacks, or two tables, by one gather:
    x -> f(g(x)), written into ``out`` when it is given (a contiguous array
    of g's shape, which may be g itself)."""
    if out is None:
        return _gather(f.reshape(-1), _flat_rows(g)).reshape(g.shape)
    _gather(f.reshape(-1), _flat_rows(g), out.reshape(-1))
    return out


def add_rows(sp: VecSpace, tables: np.ndarray, addend: np.ndarray | None = None) -> np.ndarray:
    """x -> f(x) + addend(x) for each row f of an (H, n) stack (or one
    table), in column slices of SLICE points; the default addend is the
    identity, made one slice at a time."""
    out = np.empty_like(tables)
    for lo in range(0, sp.n, SLICE):
        hi = min(lo + SLICE, sp.n)
        add = np.arange(lo, hi, dtype=np.int32) if addend is None else addend[..., lo:hi]
        out[..., lo:hi] = sp.vadd(tables[..., lo:hi], add)
    return out


def cycle_lengths_rows(tables: np.ndarray) -> np.ndarray:
    """The (H, n) int32 array whose row i holds, for each point, the length
    of its cycle under row i of an (H, n) stack of bijections.

    Pointer jumping (Hillis & Steele, CACM 29(12), 1986) over the stack as
    one flat map, each row offset into its own slice, so no cycle crosses
    rows: after round k, low[x] is the least of a run x, f(x), ... of at
    least 2^k points.  A round that changes nothing leaves low constant on
    each cycle, hence its least point; that takes at most about
    log2(L) + 1 rounds for a longest cycle L of the stack.  Every pass runs
    in slices of SLICE entries, and the count needs no buffer beyond the
    two steps.
    """
    step = _flat_rows(tables)
    low = np.arange(step.size, dtype=step.dtype)
    np.minimum(low, step, out=low)  # round 1 gathers nothing: low[f(x)] = f(x)
    step, spare = _gather(step, step), np.empty_like(step)
    while True:
        # low[x] = min(low[x], low[step[x]]) in place, slice by slice: an
        # entry may read one already lowered this round, which only widens
        # its run of points, and a round that lowers nothing still leaves
        # low constant on each cycle
        fell = False
        for lo in range(0, low.size, SLICE):
            run, nxt = low[lo:lo + SLICE], low.take(step[lo:lo + SLICE])
            fell = fell or bool((nxt < run).any())
            np.minimum(run, nxt, out=run)
        if not fell:
            break
        step, spare = _gather(step, step, spare), step
    # each point's cycle length is the number of points sharing its low,
    # counted into one freed buffer and read into the other
    spare[:] = 0
    np.add.at(spare, low, spare.dtype.type(1))
    return _gather(spare, low, step).astype(np.int32, copy=False).reshape(tables.shape)


def power_lengths_rows(sp: VecSpace, tables: np.ndarray, r, exact: bool = True) -> np.ndarray:
    """The (H, n) int32 array whose row i holds, for each point, the length
    of its cycle under row i of an (H, n) stack of bijections on ``sp``
    where that length divides r, and 0 where sigma^r moves the point.  r >= 1
    is one int, or an ndarray of one r per row.  With ``exact`` false only
    sigma^r is taken, and every point it fixes reads 1.

    The power criterion: a point on a cycle of length L | r is fixed by
    sigma^(r/l^j), l a prime and l^j | r, exactly when l^j divides r/L, so
    L is the product of one l for each such (l, j) whose power moves it.
    The powers come from left-to-right repeated squaring over the stack as
    one flat map (``_flat_rows``): for each prime l <= n, sigma^s with
    s = r/l^e (l^e || r), then its l-th powers up to sigma^r, reading every
    wanted exponent met on the way, so a later prime's chain runs only while
    it still has one to read.  Each power is folded into the lengths as it
    is made, and once one is the identity on every row, so is each multiple.
    One r per row sorts the rows by r once and powers each run of equal r
    on its slice of the one flat map, with one lengths array and one pool of
    work tables.  The chain holds sigma and at most two work tables; the
    lengths are held in the narrowest unsigned dtype for min(r, n) while it
    runs, and widened to int32 once the work tables are freed.
    """
    h, n = tables.shape
    if isinstance(r, np.ndarray):
        order = np.argsort(r, kind="stable")
        rs, tables = r[order], tables[order]
        cuts = [0, *(np.flatnonzero(rs[1:] != rs[:-1]) + 1).tolist(), h]
        runs = [(slice(lo * n, hi * n), int(rs[lo])) for lo, hi in zip(cuts, cuts[1:])]
    else:
        order, runs = None, [(slice(0, h * n), r)]
    if (least := min(r for _, r in runs)) < 1:
        raise ValueError(f"power lengths need r >= 1, got {least}")
    sig = _flat_rows(tables)
    # a length that divides r is at most n; a point that sigma^r moves may
    # wrap on the way, but ends at 0
    lengths = np.ones(sig.size, dtype=np.min_scalar_type(min(max(r for _, r in runs), n)))
    spare: list = []
    for seg, r in runs:
        _power_lengths(sig, lengths, seg, r, n, exact, spare)
    del sig
    spare.clear()
    out = lengths.astype(np.int32).reshape(h, n)
    return out if order is None else out[np.argsort(order)]


def _power_lengths(sig: np.ndarray, lengths: np.ndarray, seg: slice, r: int, n: int,
                   exact: bool, spare: list) -> None:
    """``power_lengths_rows`` for one r, on the entries ``seg`` of the flat
    map ``sig`` of n-point rows and of ``lengths``; ``spare`` pools work
    tables of sig's size, and gets back every one it lends."""
    # a prime l > n divides no length, so a point that sigma^(r/l^j) moves
    # has a length not dividing r, and sigma^r moves it too
    primes = [l for l in factor(r) if l <= n] if exact else []
    # exponent -> its fold.  sigma^(r/l^j), l^e || r, moves a point on a
    # cycle of length L | r exactly when j > e - v_l(L), so the powers that
    # move it fold in l^v_l(L); sigma^r (fold 0) moves exactly the points
    # whose L does not divide r
    folds = {r // l ** j: l for l in set(primes) for j in range(1, primes.count(l) + 1)}
    folds[r] = 0

    def read(power: np.ndarray, e: int) -> None:
        """Fold sigma^e, held in ``power``, into the lengths if e is wanted."""
        if (fold := folds.pop(e, None)) is None:
            return
        any_moved = False
        # slice by slice against the identity of the flat map, which is
        # the flat position itself
        for lo in range(seg.start, seg.stop, SLICE):
            hi = min(lo + SLICE, seg.stop)
            moved = power[lo:hi] != np.arange(lo, hi, dtype=power.dtype)
            np.multiply(lengths[lo:hi], fold, out=lengths[lo:hi], where=moved)
            any_moved = any_moved or bool(moved.any())
        if not any_moved:  # sigma^e = e on every row, and so is each power of it
            for k in [k for k in folds if k % e == 0]:
                del folds[k]

    def power(base: np.ndarray, b: int, k: int) -> np.ndarray:
        """sigma^(b k) from base = sigma^b, by left-to-right squaring that
        reads each power it makes; base goes back to the pool after."""
        acc, e = base, b
        for bit in bin(k)[3:]:
            out = spare.pop() if spare else np.empty_like(sig)
            _gather(acc, acc[seg], out[seg])
            if acc is not base:
                spare.append(acc)
            acc, e = out, 2 * e
            read(acc, e)
            if bit == "1":  # in place: each entry reads only its own index
                _gather(base, acc[seg], acc[seg])
                e += b
                read(acc, e)
        if base is not sig:
            spare.append(base)
        return acc

    def chain(l: int) -> None:
        """sigma^s, s = r/l^e, then its l-th powers up to sigma^r, while one
        of them is still wanted; the last power goes back to the pool."""
        exps = [r // l ** j for j in range(primes.count(l), -1, -1)]
        base, b = sig, 1
        while any(k in folds for k in exps if k > b):
            k = min(k for k in exps if k > b)
            base, b = power(base, b, k // b), k
        if base is not sig:
            spare.append(base)

    read(sig, 1)
    # the chains of the larger s go first, so a later one often finds what it
    # needs read already on the way
    for l in sorted(set(primes), key=lambda l: l ** primes.count(l)):
        chain(l)
    if folds:  # not exact: sigma^r alone (r = 1 was read from sigma itself)
        spare.append(power(sig, 1, r))


def first_cycle(table: np.ndarray, lengths: np.ndarray, wanted: np.ndarray) -> list[int] | None:
    """The cycle of ``table`` through the least point x with wanted[lengths[x]]
    (``wanted`` a boolean lookup over the length values), listed from x, the
    least point of its cycle, and walked until it closes: a length of 0
    (one that ``power_lengths_rows`` leaves unknown) needs no count.  The
    lookup runs in slices of SLICE points and stops at the first hit."""
    for lo in range(0, lengths.size, SLICE):
        if (hit := wanted.take(lengths[lo:lo + SLICE])).any():
            x = lo + int(hit.argmax())
            break
    else:
        return None
    orbit = [x]
    while (y := int(table[orbit[-1]])) != x:
        orbit.append(y)
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
        return PermTable(self.ctx, self.d, _gather(self.table, other.table))

    def invert(self) -> "PermTable":
        if not self.bijective:
            raise NotBijective("cannot invert a non-bijective table")
        inv = _scatter(np.empty_like(self.table), self.table, space(self.ctx, self.d).arange)
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
        if n == 0:
            return PermTable.identity(self.ctx, self.d)
        out, acc = None, self.table
        while n:
            if n & 1:  # in place: each entry reads only its own index
                out = acc.copy() if out is None else _gather(acc, out, out)
            n >>= 1
            if n:
                acc = _gather(acc, acc)
        return PermTable(self.ctx, self.d, out)

    def cycle_lengths(self) -> np.ndarray:
        """The length of the cycle through each point, as a read-only int32
        array: the one-row case of ``cycle_lengths_rows``, computed by the
        first call and kept on the table."""
        if self._lengths is None:
            self._lengths = cycle_lengths_rows(self._bijection()[None])[0]
            self._lengths.flags.writeable = False
        return self._lengths

    def _bijection(self) -> np.ndarray:
        if not self.bijective:
            raise NotBijective("cycle lengths need a bijective table")
        return self.table

    def cycle_structure(self) -> CycleStructure:
        return CycleStructure.from_lengths(self.cycle_lengths())

    def find_cycle(self, predicate) -> list[int] | None:
        """The cycle through the least point whose cycle length satisfies
        ``predicate``, listed from that point (the least point of the cycle)."""
        cs = self.cycle_structure()
        wanted = np.zeros(self.n + 1, dtype=bool)
        wanted[[l for l in [1] * bool(cs.fixed_points) + [l for l, _ in cs.cycles]
                if predicate(l)]] = True
        return first_cycle(self.table, self.cycle_lengths(), wanted)

    def _lengths_dividing(self, r: int, exact: bool) -> np.ndarray:
        return power_lengths_rows(space(self.ctx, self.d), self._bijection()[None], r, exact)[0]

    def is_r_cycle(self, r: int) -> bool:
        """sigma^r = e, for r >= 1: the one-row case of ``power_lengths_rows``."""
        return bool(self._lengths_dividing(r, False).all())

    def is_r_regular(self, r: int) -> bool:
        """Every cycle has length 1 or r, for r >= 1: sigma^r = e, and for each
        prime l | r, sigma^(r/l) fixes only the fixed points of sigma (the
        one-row case of ``power_lengths_rows``)."""
        lengths = self._lengths_dividing(r, True)
        return bool(((lengths == 1) | (lengths == r)).all())

    def is_cpp(self) -> bool:
        """Both the table and table + identity are bijections."""
        return self.bijective and bool(bijective_rows(
            add_rows(space(self.ctx, self.d), self.table[None]))[0])

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
