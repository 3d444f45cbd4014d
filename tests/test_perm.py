import json
from collections import Counter
from random import Random

import numpy as np
import pytest

from cppforge import gf, verify
from cppforge.construct import TauSpec, permutation, random_additive_pp, random_pp, tau_to_table
from cppforge.errors import DimMismatch, NotBijective, SizeCap
from cppforge.linalg import Mat, companion, companions, random_invertible, random_matrix
from cppforge.perm import (
    CycleStructure, PermTable, add_rows, bijective_rows, compose_rows, conjugate_rows,
    cycle_lengths_rows, linear_table, matrix_tables, power_lengths_rows, space,
)
from cppforge.poly import Poly, cyclotomic, monic_coeffs, monic_orders, monic_polys

F2 = gf.field_new(2)
F3 = gf.field_new(3)
F4 = gf.field_new(2, 2)
F5 = gf.field_new(5)
F7 = gf.field_new(7)
F9 = gf.field_new(3, 2)
F25 = gf.field_new(5, 2)


def identity(ctx, d) -> PermTable:
    return PermTable(ctx, d, space(ctx, d).arange)


def conjugated(tau, sig) -> np.ndarray:
    """Oracle: the table of tau o sig o tau^-1 for tables tau (a bijection)
    and sig, by numpy indexing through the inverse of tau."""
    return tau[sig[np.argsort(tau)]]


def powered(table, n) -> np.ndarray:
    """Oracle: the n-th composite power of a table, n >= 0, by repeated
    squaring with numpy indexing."""
    out, acc = np.arange(table.size), table
    while n:
        if n & 1:
            out = acc[out]
        acc, n = acc[acc], n >> 1
    return out


def from_fn(ctx, d, rule) -> PermTable:
    """Oracle: the table of a coordinate rule (tuple of d indices -> sequence
    of d), built one point at a time."""
    sp = space(ctx, d)
    return PermTable(ctx, d, [sp.pack_point(rule(sp.unpack_point(i))) for i in range(sp.n)])


def naive_vadd(ctx, d, a, b):
    """Oracle: coordinatewise addition on packed F_q^d indices, one base-p
    digit per step (XOR when p = 2)."""
    p = ctx.p
    if p == 2:
        return a ^ b
    acc, w = 0, 1
    for _ in range(ctx.m * d):
        a, da = np.divmod(a, p)
        b, db = np.divmod(b, p)
        acc = acc + (da + db) % p * w
        w *= p
    return acc


def _adder_shapes():
    """(field, d) with m*d at the chunk boundaries k, k + 1 and 2k of the
    digit adder, F_3^12 at the table cap, and F_1021^2, whose p^2 is above
    the lookup-table bound."""
    out = [(F3, 12), (gf.field_new(1021), 2)]
    for ctx in (F3, F5, F7, F9, F25):
        k = gf._digit_lut(ctx.p)[0]
        out += [(ctx, nd // ctx.m) for nd in (k, k + 1, 2 * k)
                if nd % ctx.m == 0 and ctx.q ** (nd // ctx.m) <= gf.TABLE_CAP]
    return out


ADDER_SHAPES = _adder_shapes()


def naive_cycle_structure(tbl):
    """Oracle: repeated-application orbit walk on a plain list."""
    n = len(tbl)
    left = set(range(n))
    fixed = 0
    lengths = Counter()
    while left:
        start = min(left)
        x, length = start, 0
        while True:
            left.discard(x)
            x = tbl[x]
            length += 1
            if x == start:
                break
        if length == 1:
            fixed += 1
        else:
            lengths[length] += 1
    return CycleStructure(fixed, tuple(sorted(lengths.items())))


def naive_find_cycle(tbl, predicate):
    """Oracle: scan from index 0 for the first cycle whose length satisfies
    predicate, walking each cycle from the point where the scan meets it."""
    n = len(tbl)
    seen = bytearray(n)
    for start in range(n):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = 1
        x = tbl[start]
        while x != start:
            seen[x] = 1
            orbit.append(x)
            x = tbl[x]
        if predicate(len(orbit)):
            return orbit
    return None


def _oracle_tables():
    """Identities, single n-cycles, seeded random permutations up to 2^12
    points, and sigma_M over F_2 ... F_9 conjugated by a random permutation."""
    rng = Random(14)
    out = [identity(F4, 2), identity(F2, 1)]
    # x -> x + 1 mod n is one n-cycle
    out += [PermTable(ctx, d, np.roll(space(ctx, d).arange, -1))
            for ctx, d in ((F2, 1), (F3, 3), (F2, 10))]
    shapes = [(ctx, d) for ctx, d in ((F2, 4), (F3, 2), (F5, 2), (F4, 2)) for _ in range(25)]
    for ctx, d in shapes + [(F2, d) for d in range(1, 13)]:
        perm = list(range(ctx.q ** d))
        rng.shuffle(perm)
        out.append(PermTable(ctx, d, perm))
    for (p, m), d in (((2, 1), 8), ((3, 1), 5), ((2, 2), 4), ((5, 1), 3),
                      ((7, 1), 3), ((2, 3), 3), ((3, 2), 3)):
        ctx = gf.field_new(p, m)
        sig = PermTable.from_matrix(random_invertible(ctx, d, rng))
        perm = list(range(sig.n))
        rng.shuffle(perm)
        out.append(PermTable(ctx, d, conjugated(np.array(perm), sig.table)))
    return out


def _rank(m: Mat) -> int:
    """Oracle: the rank of m by Gaussian elimination."""
    ctx = m.ctx
    rows = [list(row) for row in m.rows]
    rank = 0
    for col in range(m.n):
        piv = next((i for i in range(rank, m.n) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = ctx.inv(rows[rank][col])
        for i in range(m.n):
            if i != rank and rows[i][col]:
                f = ctx.mul(rows[i][col], inv)
                rows[i] = [ctx.sub(a, ctx.mul(f, b)) for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _mobius(n: int) -> int:
    out, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            out = -out
        k += 1
    return -out if n > 1 else out


def rank_census(m: Mat, r: int) -> dict:
    """Oracle with no table: {k: number of k-cycles} of v -> Mv when M^r = I.

    #{v : M^k v = v} = q^(d - rank(M^k - I)), and Moebius inversion over the
    divisors of k turns those counts into the points on cycles of length k.
    """
    ident = Mat.identity(m.ctx, m.n)
    divisors = [k for k in range(1, r + 1) if r % k == 0]
    powers = {1: m}
    for k in range(2, r + 1):
        powers[k] = powers[k - 1] * m
    assert powers[r] == ident
    fixed = {k: m.ctx.q ** (m.n - _rank(powers[k] - ident)) for k in divisors}
    census = {}
    for k in divisors:
        points = sum(_mobius(k // j) * fixed[j] for j in divisors if k % j == 0)
        if points:
            census[k] = points // k
    return census


def _census(cs: CycleStructure) -> dict:
    return {**({1: cs.fixed_points} if cs.fixed_points else {}), **dict(cs.cycles)}


def test_from_fn_examples():
    e = from_fn(F4, 2, lambda v: v)
    assert e.bijective and e == identity(F4, 2)
    const = from_fn(F4, 2, lambda v: (0, 0))
    assert not const.bijective
    m = Mat(F5, [[2, 1], [1, 1]])
    assert m.det() != 0
    tbl = from_fn(F5, 2, m.apply)
    assert tbl.bijective and tbl == PermTable.from_matrix(m)


def test_bijective_is_derived_never_asserted():
    # a table cannot claim a bijectivity it lacks: no census of a non-bijection
    tbl = PermTable(F2, 2, [0, 0, 1, 2])
    assert tbl.bijective is False
    with pytest.raises(NotBijective):
        tbl.cycle_structure()
    with pytest.raises(TypeError):
        PermTable(F2, 2, [0, 0, 1, 2], bijective=True)
    with pytest.raises(AttributeError):
        tbl.bijective = True


@pytest.mark.parametrize("ctx,d", [(F2, 4), (F3, 3), (F4, 2), (F5, 2)])
def test_conjugate_matches_compose_with_inverse(ctx, d):
    # one table, the one-row case of conjugate_rows.  Oracle: tau o sigma o
    # tau^-1 through the inverse of tau, for bijective and non-bijective sigma
    rng = Random(f"conjugate:{ctx.q}:{d}")
    n = ctx.q ** d
    tau = PermTable(ctx, d, random_pp(n, rng))
    for sig in (PermTable.from_matrix(random_invertible(ctx, d, rng)),
                PermTable(ctx, d, [rng.randrange(n) for _ in range(n)])):
        want = PermTable(ctx, d, conjugated(tau.table, sig.table))
        got = PermTable(ctx, d, conjugate_rows(sig.table.copy(), tau.table))
        assert got == want and got.table.dtype == np.int32
        assert got.bijective == want.bijective == sig.bijective


@pytest.mark.parametrize("ctx,d", [(F2, 4), (F3, 3), (F4, 2), (F5, 2)])
def test_conjugate_rows_match_compose_with_inverse(ctx, d):
    # the stacked kernel, on H > 1 rows and on one row, against compose and
    # invert row by row; it writes the conjugates into the stack it is given
    rng = Random(f"conjugate_rows:{ctx.q}:{d}")
    n = ctx.q ** d
    tau = PermTable(ctx, d, random_pp(n, rng))
    rows = [random_pp(n, rng) for _ in range(3)] + [[rng.randrange(n) for _ in range(n)]]
    stack = np.array(rows, dtype=np.int32)
    for tables in (stack, stack[:1].copy()):
        want = [conjugated(tau.table, row) for row in tables]
        got = conjugate_rows(tables, tau.table)
        assert got is tables and got.dtype == np.int32
        assert [row.tolist() for row in got] == [w.tolist() for w in want]


@pytest.mark.parametrize("h,n", [(1, 1), (1, 25), (2, 2), (3, 7), (7, 25), (5, 4096)])
def test_conjugate_and_compose_rows_per_row(h, n):
    # a stack of taus conjugates (and composes) row i by row i: the same as
    # a loop of one-tau calls, on one-row stacks, on stacks whose height is
    # no power of two, and on a strided view of a wider array, which is
    # written in place
    rng = Random(f"per-row:{h}:{n}")

    def stack(bijective=True):
        return np.array([random_pp(n, rng) if bijective or i % 2
                         else [rng.randrange(n) for _ in range(n)] for i in range(h)],
                        dtype=np.int32)

    tau, tables, g = stack(), stack(bijective=False), stack(bijective=False)
    want = tables.copy()
    for row, t in zip(want, tau):
        conjugate_rows(row, t)
    assert conjugate_rows(tables.copy(), tau).tolist() == want.tolist()
    wide = np.zeros((h, 2 * n), dtype=np.int32)
    view = wide[:, ::2]
    view[...] = tables
    assert conjugate_rows(view, tau) is view
    assert wide[:, ::2].tolist() == want.tolist() and not wide[:, 1::2].any()
    assert compose_rows(tau, g).tolist() == [t[row].tolist() for t, row in zip(tau, g)]


def test_add_pointwise_examples():
    # the pointwise sum of one table and the identity (add_rows on one table)
    sp = space(F2, 2)
    doubled = PermTable(F2, 2, add_rows(sp, sp.arange, sp.arange))
    assert not doubled.bijective and set(doubled.table.tolist()) == {0}
    # sigma_M + e bijective iff det(M + I) != 0, exhaustively over small randoms
    rng = Random(2)
    for ctx, d in ((F2, 2), (F3, 2), (F4, 2), (F5, 2), (F2, 4)):
        ident = Mat.identity(ctx, d)
        sp = space(ctx, d)
        for _ in range(20):
            m = random_matrix(ctx, d, rng)
            got = PermTable(ctx, d, add_rows(sp, PermTable.from_matrix(m).table)).bijective
            assert got == ((m + ident).det() != 0)


@pytest.mark.parametrize("ctx,d", ADDER_SHAPES, ids=lambda x: getattr(x, "q", x))
def test_vadd_matches_digit_loop(ctx, d):
    sp = space(ctx, d)
    rng = np.random.default_rng(ctx.q * 100 + d)
    a = rng.integers(0, sp.n, 3000).astype(np.int32)
    b = rng.integers(0, sp.n, 3000).astype(np.int32)
    a[:2], b[:2] = (0, sp.n - 1), (sp.n - 1, sp.n - 1)
    want = naive_vadd(ctx, d, a.astype(np.int64), b.astype(np.int64))
    got = sp.vadd(a, b)
    assert got.dtype == np.int32 and np.array_equal(got, want)
    # a column broadcast against a row, as linear_table adds
    col = b[:5, None]
    assert np.array_equal(sp.vadd(a, col), naive_vadd(ctx, d, a.astype(np.int64), col))
    for x, y in zip(a[:300].tolist(), b[:300].tolist()):
        s = sp.vadd(x, y)
        assert type(s) is int and s == int(naive_vadd(ctx, d, x, y))
        assert json.loads(json.dumps(s)) == s


@pytest.mark.parametrize("ctx,d", ADDER_SHAPES, ids=lambda x: getattr(x, "q", x))
def test_vadd_group_axioms(ctx, d):
    sp = space(ctx, d)
    rng = np.random.default_rng(ctx.q + d)
    a, b, c = (rng.integers(0, sp.n, 2000).astype(np.int32) for _ in range(3))
    assert np.array_equal(sp.vadd(a, b), sp.vadd(b, a))
    assert np.array_equal(sp.vadd(sp.vadd(a, b), c), sp.vadd(a, sp.vadd(b, c)))
    assert np.array_equal(sp.vadd(a, 0), a)
    acc = a  # p copies of a sum to 0 in characteristic p
    for _ in range(ctx.p - 1):
        acc = sp.vadd(acc, a)
    assert not acc.any()


@pytest.mark.parametrize("ctx,d", ADDER_SHAPES, ids=lambda x: getattr(x, "q", x))
def test_linear_table_matches_mat_apply(ctx, d):
    rng = Random(ctx.q * 10 + d)
    mat = random_matrix(ctx, d, rng)
    tbl = PermTable.from_matrix(mat)
    sp = space(ctx, d)
    for idx in rng.sample(range(sp.n), min(sp.n, 200)):
        assert int(tbl.table[idx]) == sp.pack_point(mat.apply(sp.unpack_point(idx)))


def test_field_add_matches_digit_loop():
    for ctx in (F9, F25, gf.field_new(3, 12)):
        rng = Random(ctx.q)
        for _ in range(500):
            a, b = rng.randrange(ctx.q), rng.randrange(ctx.q)
            s = ctx.add(a, b)
            assert type(s) is int and s == int(naive_vadd(ctx, 1, a, b))


def test_table_constructors_are_read_only_int32():
    for ctx, d in ((F4, 2), (F9, 2)):
        rng = Random(ctx.q)
        sig = PermTable.from_matrix(random_invertible(ctx, d, rng))
        tables = [
            identity(ctx, d), sig, from_fn(ctx, d, lambda v: v[::-1]),
            tau_to_table(TauSpec.coordinate([range(ctx.q)] * d), ctx, d),
            tau_to_table(TauSpec.coordinate([random_pp(ctx.q, rng) for _ in range(d)]), ctx, d),
            tau_to_table(random_additive_pp(ctx, d, rng), ctx, d),
            PermTable.from_json(sig.to_json()),
            PermTable(ctx, d, sig.table.astype(np.int64)),
            PermTable(ctx, d, verify._tau_general(ctx, d, rng)),
        ]
        for t in tables:
            assert t.table.dtype == np.int32 and not t.table.flags.writeable


def test_cycle_structure_examples():
    cs = identity(F4, 2).cycle_structure()
    assert cs.fixed_points == 16 and cs.cycles == ()
    s2 = PermTable.from_matrix(companion(cyclotomic(3, F2)))
    assert s2.cycle_structure().to_json() == {"fixed": 1, "cycles": {"3": 1}}
    s4 = PermTable.from_matrix(companion(cyclotomic(3, F4)))
    assert s4.cycle_structure().to_json() == {"fixed": 1, "cycles": {"3": 5}}
    const = from_fn(F2, 2, lambda v: (0, 0))
    for method in (const.cycle_structure, lambda: const.is_r_regular(2),
                   lambda: const.find_cycle(lambda L: True)):
        with pytest.raises(NotBijective):
            method()


def test_cycle_structure_matches_naive_oracle():
    for t in _oracle_tables():
        cs = t.cycle_structure()
        assert cs == naive_cycle_structure(t.table.tolist())
        assert cs.total() == t.n
        assert cycle_lengths_rows(t.table[None]).dtype == np.int32


def test_find_cycle_matches_scan_oracle():
    predicates = (lambda L: L > 1, lambda L: L % 2 == 0, lambda L: L >= 5,
                  lambda L: L == 1, lambda L: False, lambda L: L > 1 << 20)
    found = 0
    for t in _oracle_tables():
        tbl = t.table.tolist()
        for pred in predicates:
            got = t.find_cycle(pred)
            assert got == naive_find_cycle(tbl, pred)
            found += got is not None
    assert found > 300


def walked_cycle_lengths(tbl):
    """Oracle: the length of each point's cycle, by walking the cycle."""
    out = [0] * len(tbl)
    for start in range(len(tbl)):
        if not out[start]:
            orbit = [start]
            while tbl[orbit[-1]] != start:
                orbit.append(tbl[orbit[-1]])
            for x in orbit:
                out[x] = len(orbit)
    return out


def _cycle_type_rows(n):
    """Bijections of [0, n) of several cycle types, each as a list."""
    rng = Random(11)
    rows = [list(range(n)),                                  # identity
            [(x + 1) % n for x in range(n)],                 # one n-cycle
            [x ^ 1 if x >= 4 and x ^ 1 < n else x for x in range(n)]]  # fixed + 2-cycles
    for _ in range(5):
        perm = list(range(n))
        rng.shuffle(perm)
        rows.append(perm)
    return rows


def test_cycle_lengths_rows_match_per_table_and_walk_oracles():
    for n in (1, 2, 7, 64, 1000):
        rows = _cycle_type_rows(n)
        got = cycle_lengths_rows(np.array(rows, dtype=np.int32))
        assert got.shape == (len(rows), n) and got.dtype == np.int32
        for row, lengths in zip(rows, got):
            assert lengths.tolist() == walked_cycle_lengths(row)
            if n in (2, 64):  # tables on F_2^1 and F_2^6
                tbl = PermTable(F2, n.bit_length() - 1, row)
                assert tbl.cycle_structure() == CycleStructure.from_lengths(lengths)
        # a one-row stack, and each row alone, give the same lengths
        for i, row in enumerate(rows):
            assert np.array_equal(cycle_lengths_rows(np.array([row], dtype=np.int32))[0],
                                  got[i])
    # the identity, one n-cycle and fixed points plus 2-cycles
    n = 64
    id_, cyc, swaps = cycle_lengths_rows(np.array(_cycle_type_rows(n)[:3], dtype=np.int32))
    assert set(id_.tolist()) == {1} and set(cyc.tolist()) == {n}
    assert swaps[:4].tolist() == [1] * 4 and set(swaps[4:].tolist()) == {2}


def test_cycle_lengths_rows_on_seeded_tables_of_a_space():
    # rows of different cycle types in one stack: seeded linear bijections
    # and random permutations of F_3^3
    rng = Random(5)
    tables = [PermTable.from_matrix(random_invertible(F3, 3, rng)) for _ in range(6)]
    tables += [PermTable(F3, 3, random_pp(27, rng)) for _ in range(6)]
    stack = np.array([t.table for t in tables])
    got = cycle_lengths_rows(stack)
    assert len({tuple(sorted(g)) for g in got.tolist()}) > 6
    for t, lengths in zip(tables, got):
        assert np.array_equal(cycle_lengths_rows(t.table[None])[0], lengths)
        assert lengths.tolist() == walked_cycle_lengths(t.table.tolist())
        assert CycleStructure.from_lengths(lengths) == naive_cycle_structure(t.table.tolist())


_POWER_RS = (1, 2, 3, 4, 8, 9, 12, 21, 26, 30, 60, 105, 210, 2520, (1 << 31) - 1,
             1 << 31, 3 << 31, 1 << 40, 2520 << 40, 1000003)


def test_power_lengths_rows_match_the_census():
    # each point's cycle length where it divides r, else 0, against the
    # pointer-jumping census: r = 1, prime powers, two and three primes, r
    # at and past 2^31 and a prime beyond every table; the identity, one
    # n-cycle, fixed points with 2-cycles and seeded permutations of each
    # space, in stacks of one row and of all of them
    rng = Random(23)
    fails = passes = 0
    for ctx, d in ((F2, 1), (F3, 2), (F2, 6), (F5, 3), (F2, 10)):
        sp = space(ctx, d)
        stack = np.array(_cycle_type_rows(sp.n), dtype=np.int32)
        census = cycle_lengths_rows(stack).tolist()

        def want(rs):
            return [[L if r % L == 0 else 0 for L in row] for row, r in zip(census, rs)]

        for r in _POWER_RS:
            got = power_lengths_rows(sp, stack, r)
            assert got.dtype == np.int32 and got.tolist() == want([r] * len(stack)), (sp.n, r)
            assert power_lengths_rows(sp, stack[:1], r).tolist() == want([r])[:1]
            assert (power_lengths_rows(sp, stack, r, exact=False).tolist()
                    == [[int(L > 0) for L in row] for row in got.tolist()])
        # one r per row, rows sharing an r judged together
        rs = [rng.choice(_POWER_RS) for _ in stack]
        got = power_lengths_rows(sp, stack, np.array(rs)).tolist()
        assert got == want(rs), (sp.n, rs)
        fails += sum(0 in row for row in got)
        passes += sum(0 not in row for row in got)
    assert fails > 5 and passes > 5
    # a table of more than 2^16 points, whose gathers run in slices
    sp = space(F2, 17)
    big = permutation(sp.n, rng)[None]
    census = cycle_lengths_rows(big)[0].tolist()
    for r in (12, 21, 2520, 2520 << 40):
        want = [L if r % L == 0 else 0 for L in census]
        assert power_lengths_rows(sp, big, r)[0].tolist() == want, r
    with pytest.raises(ValueError):
        power_lengths_rows(space(F2, 2), np.array([[0, 1, 2, 3]], dtype=np.int32), 0)


def test_power_lengths_rows_per_row_r_match_one_call_per_row():
    # 120 seeded permutations of F_5^2 with 24 distinct r, each r on rows
    # 24 apart, shuffled: r = 1, prime powers, products, 29 and 58 (a prime
    # above n = 25) and r past 2^31.  Each run of equal r is powered on its
    # own slice of one flat map; oracle: one int-r call per row
    rng = Random(33)
    sp = space(F5, 2)
    rs = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 20, 24, 25, 29, 30, 58, 60, 105, 840,
          2520, 2520 << 40]
    rows = [(rs[i % len(rs)], permutation(sp.n, rng)) for i in range(5 * len(rs))]
    rows += [(r, np.arange(sp.n)) for r in (1, 29)]
    rng.shuffle(rows)
    r = np.array([r for r, _ in rows])
    stack = np.array([t for _, t in rows], dtype=np.int32)
    assert len(set(r.tolist())) >= 20
    assert all(np.diff(np.flatnonzero(r == ri)).max() > 1 for ri in rs)  # runs split apart
    for exact in (True, False):
        got = power_lengths_rows(sp, stack, r, exact)
        want = [power_lengths_rows(sp, t[None], int(ri), exact)[0] for ri, t in zip(r, stack)]
        assert got.dtype == np.int32 and np.array_equal(got, np.array(want)), exact
        assert 0 < (got == 0).any(axis=1).sum() < len(rows)


def test_rank_census_matches_table_census(monkeypatch):
    # every sigma_M that the full-profile p3.2 grid builds, as rows of stacks
    built = []
    real_matrix_tables = verify.matrix_tables

    def recording(ctx, mats):
        tables = real_matrix_tables(ctx, mats)
        built.extend((Mat(ctx, m), PermTable(ctx, len(m), t)) for m, t in zip(mats, tables))
        return tables

    monkeypatch.setattr(verify, "matrix_tables", recording)
    checked = 0
    for point in verify.REGISTRY["p3.2"].full:
        built.clear()
        (rep,) = verify.verify_claim("p3.2", grid=[point], profile="full")
        assert rep.verdict == "pass"
        for m, tbl in built:
            assert rank_census(m, point["r"]) == _census(tbl.cycle_structure())
            checked += 1
    assert checked > 20


def test_rank_census_at_the_cap():
    tm1 = Poly(F2, [1, 1])
    for h, r, want in (
            (Poly(F2, [1] + [0] * 20 + [1]) // tm1, 21, {1: 1, 3: 1, 7: 9, 21: 49929}),
            # Q_26 is the product of its four irreducible factors over F_3
            (cyclotomic(26, F3), 26, {1: 1, 26: 20440})):
        m = companion(h)
        assert rank_census(m, r) == want
        assert _census(PermTable.from_matrix(m).cycle_structure()) == want


def test_is_r_regular_examples():
    e = identity(F4, 2)
    assert e.is_r_regular(5) and e.is_r_regular(2)  # vacuous: no non-fixed cycles
    s = PermTable.from_matrix(companion(cyclotomic(3, F2)))
    assert s.is_r_regular(3) and not s.is_r_regular(5)
    # h | Q_9 over F_2 gives a 9-regular instance (composite-r regularity)
    h = cyclotomic(9, F2)
    s9 = PermTable.from_matrix(companion(h))
    assert s9.is_r_regular(9)
    assert s9.cycle_structure().to_json() == {"fixed": 1, "cycles": {"9": 7}}


def test_is_cpp_examples():
    e2 = identity(F2, 2)
    assert not e2.is_cpp()  # x + x is constant in characteristic 2
    s = PermTable.from_matrix(companion(cyclotomic(3, F2)))
    assert s.is_cpp()
    assert not from_fn(F2, 2, lambda v: (0, 0)).is_cpp()


def _is_additive_exhaustive(t: PermTable) -> bool:
    """Oracle: f(x + y) = f(x) + f(y) checked for every pair x, y."""
    sp = space(t.ctx, t.d)
    tbl = t.table
    return all(np.array_equal(tbl[naive_vadd(t.ctx, t.d, sp.arange, y)],
                              naive_vadd(t.ctx, t.d, tbl, int(tbl[y])))
               for y in range(sp.n))


def test_is_additive_examples():
    e = identity(F4, 1)
    assert e.is_additive() and _is_additive_exhaustive(e)
    sq = from_fn(F4, 1, lambda v: (F4.pow(v[0], 2),))
    cube = from_fn(F4, 1, lambda v: (F4.pow(v[0], 3),))
    assert sq.is_additive() and _is_additive_exhaustive(sq)
    assert not cube.is_additive() and not _is_additive_exhaustive(cube)


def test_is_additive_modes_agree():
    rng = Random(3)
    tables = []
    for ctx, d in ((F2, 3), (F3, 2), (F4, 2), (F5, 1)):
        n = ctx.q ** d
        for _ in range(10):
            perm = list(range(n))
            rng.shuffle(perm)
            tables.append(PermTable(ctx, d, perm))
        m = random_matrix(ctx, d, rng)
        tables.append(PermTable.from_matrix(m))
    for t in tables:
        assert t.is_additive() == _is_additive_exhaustive(t)


def test_conjugation_preserves_cycle_structure():
    # 100 seeded trials per field
    for ctx, d, seed in ((F2, 4, 1), (F3, 2, 2), (F4, 2, 3), (F5, 2, 4), (F2, 8, 5)):
        rng = Random(seed)
        n = ctx.q ** d
        for _ in range(100):
            f_t = list(range(n))
            g_t = list(range(n))
            rng.shuffle(f_t)
            rng.shuffle(g_t)
            f = PermTable(ctx, d, f_t)
            conj = PermTable(ctx, d, conjugated(np.array(g_t), f.table))
            assert conj.cycle_structure() == f.cycle_structure()


def test_n_cycle_iff_lengths_divide():
    rng = Random(7)
    e = identity(F3, 2)
    sp = space(F3, 2)
    fs = [e]
    for _ in range(40):
        perm = list(range(9))
        rng.shuffle(perm)
        fs.append(PermTable(F3, 2, perm))
    for f in fs:
        lengths = [l for l, _ in f.cycle_structure().cycles]
        for n in (1, 2, 3, 4, 6, 12, 1 << 40, 2520 << 40):  # 2520 = lcm(1, ..., 9)
            want = all(n % l == 0 for l in lengths)
            assert np.array_equal(powered(f.table, n), e.table) == want
            got = bool(power_lengths_rows(sp, f.table[None], n, exact=False).all())
            assert got == want, (f.table.tolist(), n)
    assert ([bool(power_lengths_rows(sp, f.table[None], 1, exact=False).all()) for f in fs]
            == [f == e for f in fs])
    assert sum(f == e for f in fs) == 1


def test_prime_r_cycle_implies_regular():
    # any non-identity f with f^(r) = e for prime r is r-regular
    rng = Random(10)
    for r, ctx in ((3, F2), (5, F3), (7, F2)):
        h = cyclotomic(r, ctx)
        base = PermTable.from_matrix(companion(h))
        n = base.n
        e = identity(ctx, h.degree)
        for _ in range(10):
            g_t = list(range(n))
            rng.shuffle(g_t)
            f = PermTable(ctx, h.degree, conjugated(np.array(g_t), base.table))
            assert f != e and np.array_equal(powered(f.table, r), e.table)
            assert f.is_r_regular(r)


def test_char2_cpp_has_single_fixed_point():
    for ctx in (F2, F4):
        s = PermTable.from_matrix(companion(cyclotomic(3, ctx)))
        assert s.is_cpp()
        assert s.cycle_structure().fixed_points == 1


def test_size_cap():
    with pytest.raises(SizeCap):
        space(F2, 21)
    with pytest.raises(SizeCap):
        PermTable(F2, 21, [0])


def test_json_round_trip():
    s = PermTable.from_matrix(companion(cyclotomic(3, F4)))
    assert PermTable.from_json(s.to_json()) == s
    cs = s.cycle_structure()
    assert CycleStructure.from_json(cs.to_json()) == cs
    data = s.to_json()
    for bad in (s.n, -1):
        with pytest.raises(ValueError, match="out of range"):
            PermTable.from_json({**data, "table": [bad] + data["table"][1:]})


def test_out_of_range_entries_raise_before_narrowing():
    # 2^32 + 3 and 3 - 2^32 would wrap to 3 in int32; 2^63 and 2^64 overflow int64
    for bad in (2**31, 2**32, 2**32 - 1, 2**32 + 3, 3 - 2**32, 2**63, 2**64,
                -1, -2**32, -2**63 - 1):
        with pytest.raises(ValueError, match="out of range"):
            PermTable.from_json({"field": "2^1", "d": 2, "table": [0, 1, 2, bad]})
    with pytest.raises(ValueError, match="out of range"):
        PermTable(F2, 2, np.array([0, 1, 2, 2**63], dtype=np.uint64))
    with pytest.raises(ValueError, match="out of range"):
        from_fn(F2, 2, lambda v: (v[0], 2**40))


def test_non_integer_entries_raise():
    # a table read back from JSON comes from outside the program: a float,
    # string, bool or missing entry is refused, not truncated, parsed or
    # read as 0 or 1
    for bad in (0.9, 1.0, "1", True, False, None, np.float64(1.0), np.bool_(True)):
        with pytest.raises(ValueError, match="must be integers"):
            PermTable.from_json({"field": "2^1", "d": 2, "table": [0, 1, 2, bad]})
    for table in ([0.9, 1.2], np.array([0.0, 1.0]), np.array([False, True]), ["0", "1"],
                  np.array(["0", "1"]), np.array([0, 1.5], dtype=object)):
        with pytest.raises(ValueError, match="must be integers"):
            PermTable(F2, 1, table)
    # numpy integers in a list, and integer arrays of any width, are integers
    assert PermTable(F2, 1, [np.int64(1), np.uint8(0)]).table.tolist() == [1, 0]
    assert PermTable(F2, 1, np.array([1, 0], dtype=np.uint16)).table.tolist() == [1, 0]


# --- The stacked layer: one table per row of a stack ----------------------

STACK_FIELDS = ("2^1", "3^1", "2^2", "5^1", "3^2", "3^2/2,1,1")


@pytest.mark.parametrize("spec", STACK_FIELDS)
def test_stacked_companion_tables_match_from_matrix(spec):
    ctx = gf.parse_field_spec(spec)
    rng = Random(spec)
    for deg in (1, 2, 3):
        sp = space(ctx, deg)
        stack = matrix_tables(ctx, companions(ctx, monic_coeffs(ctx, deg)))
        assert stack.shape == (sp.n, sp.n) and stack.dtype == np.int32
        for row, h in zip(stack, monic_polys(ctx, deg)):
            assert np.array_equal(row, PermTable.from_matrix(companion(h)).table), (spec, h)
        # and against the point map of M(h), on a sample of rows and points
        for v, h in enumerate(monic_polys(ctx, deg)):
            if v % 7 == 0:
                m = companion(h)
                for x in rng.sample(range(sp.n), min(sp.n, 20)):
                    assert stack[v, x] == sp.pack_point(m.apply(sp.unpack_point(x)))


@pytest.mark.parametrize("spec", STACK_FIELDS)
def test_stacked_linear_tables_match_one_row_builds(spec):
    ctx = gf.parse_field_spec(spec)
    rng = Random(spec)
    for d in (1, 2, 3):
        mats = [random_matrix(ctx, d, rng) for _ in range(6)]
        stack = matrix_tables(ctx, [m.rows for m in mats])
        for row, m in zip(stack, mats):
            assert np.array_equal(row, PermTable.from_matrix(m).table)
        images = [[rng.randrange(ctx.q ** d) for _ in range(ctx.m * d)] for _ in range(5)]
        lin = linear_table(ctx, d, images)
        for row, img in zip(lin, images):
            assert np.array_equal(row, linear_table(ctx, d, img))
        assert matrix_tables(ctx, np.zeros((0, d, d), dtype=np.int64)).shape == (0, ctx.q ** d)
        for bad in (images[0][1:], [images], np.zeros((2, ctx.m * d + 1))):
            with pytest.raises(DimMismatch):
                linear_table(ctx, d, bad)


def test_one_row_builders_own_their_tables():
    # PermTable copies any table that is a view; the builders hand over their own
    m = random_invertible(F3, 4, Random(2))
    assert matrix_tables(F3, m.rows).flags.owndata
    assert linear_table(F3, 4, [3 ** k for k in range(4)]).flags.owndata


def test_bijective_rows_match_permtable():
    # PermTable's bijectivity is bijective_rows on one row, so the oracle is
    # the sorted outputs
    rng = Random(8)
    for ctx, d in ((F2, 3), (F3, 2), (F4, 2), (F5, 2)):
        mats = [random_matrix(ctx, d, rng) for _ in range(40)]
        stack = matrix_tables(ctx, [m.rows for m in mats])
        got = bijective_rows(stack)
        want = [sorted(row.tolist()) == list(range(stack.shape[1])) for row in stack]
        assert got.tolist() == want
        assert [PermTable(ctx, d, row).bijective for row in stack] == want
        assert 0 < sum(want) < len(want), (ctx, d)  # both kinds of row occur
    # rows that miss only their last or only their first point
    edge = np.array([[0, 1, 2, 2], [1, 1, 2, 3], [3, 2, 1, 0]], dtype=np.int32)
    assert bijective_rows(edge).tolist() == [False, False, True]


@pytest.mark.parametrize("spec, deg", [("2^1", 4), ("3^1", 3), ("2^2", 3), ("5^1", 2),
                                       ("3^2", 2)])
def test_npower_matches_compose_chain(spec, deg):
    # sigma^k = e (power_lengths_rows, exact=False) for every bijective
    # companion table against a compose chain, at the small exponents, the
    # powers of two and the order of t mod h, which gives e
    ctx = gf.parse_field_spec(spec)
    sp = space(ctx, deg)
    stack = matrix_tables(ctx, companions(ctx, monic_coeffs(ctx, deg)))
    orders = monic_orders(ctx, deg, 0).tolist()
    exps = [1, 2, 3, 5] + [1 << k for k in range(6)]
    checked = 0
    for v, order in zip(stack, orders):
        if not order:  # h(0) = 0: M(h) is singular, and sigma no bijection
            assert not bijective_rows(v[None])[0]
            continue
        # oracle: chain[k] is sigma composed with itself k times, one
        # composition per step
        chain = [sp.arange]
        for _ in range(max(exps + [order])):
            chain.append(v[chain[-1]])
        for k in exps + [order]:
            got = bool(power_lengths_rows(sp, v[None], k, exact=False).all())
            assert got == np.array_equal(chain[k], sp.arange), (spec, k)
        assert np.array_equal(chain[order], sp.arange)
        checked += 1
    assert checked > 1


@pytest.mark.parametrize("ctx, d, widths", [(F3, 11, [65536, 65536, 46075]),
                                            (F2, 17, [65536, 65536]),
                                            (F5, 2, [25])])
def test_add_rows_match_naive_vadd(monkeypatch, ctx, d, widths):
    # sigma + e in column slices of 2^16 points, the last one ragged,
    # against the digit-loop adder on the whole rows
    sp = space(ctx, d)
    rng = np.random.default_rng(ctx.q + d)
    stack = rng.integers(0, sp.n, size=(2, sp.n), dtype=np.int32)
    slices = []
    real = sp.vadd

    def recording(a, b):
        slices.append(a.shape[-1])
        return real(a, b)

    monkeypatch.setattr(sp, "vadd", recording)
    got = add_rows(sp, stack, sp.arange)
    assert slices == widths and got.dtype == np.int32
    want = naive_vadd(ctx, d, stack.astype(np.int64), sp.arange.astype(np.int64))
    assert np.array_equal(got, want)
    # one table is the one-row case
    assert np.array_equal(add_rows(sp, stack[1]), want[1])


def _cycle_rows(n, length_sets, seed):
    """Oracle stack: row i has a cycle of each length in length_sets[i] on
    shuffled points, every other point fixed; returned with each point's
    cycle length, known by construction."""
    rng = np.random.default_rng(seed)
    tables = np.tile(np.arange(n), (len(length_sets), 1))
    lengths = np.ones_like(tables)
    for row, want, ls in zip(tables, lengths, length_sets):
        points, lo = rng.permutation(n), 0
        for L in ls:
            cyc = points[lo:lo + L]
            row[cyc], want[cyc], lo = np.roll(cyc, -1), L, lo + L
    return tables.astype(np.int32), lengths


@pytest.mark.parametrize("ctx, d, h", [(F2, 17, 1), (F2, 17, 3), (F3, 10, 2), (F2, 14, 4),
                                       (F5, 2, 6)])
def test_sliced_kernels_match_fancy_indexing(ctx, d, h):
    # every whole-stack pass runs in slices of gf.SLICE entries: F_2^17 is two
    # slices a row, F_3^10 two rows end mid-slice, F_2^14 four rows fill one
    # slice exactly and F_5^2 is far below one.  Oracle: numpy fancy indexing
    sp = space(ctx, d)
    n = sp.n
    rng = np.random.default_rng(n + h)
    f = np.stack([rng.permutation(n) for _ in range(h)]).astype(np.int32)
    g = np.stack([rng.permutation(n) for _ in range(h)]).astype(np.int32)
    rows = np.arange(h)[:, None]
    assert np.array_equal(compose_rows(f, g), f[rows, g])
    for tau in (g[0], g):  # one tau, and one per row: tau(x) -> tau(f(x))
        taus = np.broadcast_to(tau, f.shape)
        want = np.empty_like(f)
        want[rows, taus] = taus[rows, f]
        assert np.array_equal(conjugate_rows(f.copy(), tau), want)
    # a repeated output in a row's last slice, at a slice start, or at point 0
    bad = f.copy()
    for i, x in enumerate([n - 1, min(gf.SLICE, n - 1), 0][:h]):
        bad[i, x] = bad[i, (x + 1) % n]
    assert bijective_rows(bad).tolist() == [len(np.unique(row)) == n for row in bad]
    assert bijective_rows(f).all()
    # sigma + e with the identity made slice by slice
    want = naive_vadd(ctx, d, f.astype(np.int64), np.arange(n, dtype=np.int64))
    assert np.array_equal(add_rows(sp, f), want)
    # the cycle kernels, on rows with one cycle across every slice, short
    # cycles, and all but at most two points on 3-cycles
    long = [n - n // 4] + ([21, 7, 2] if n > 200 else [3, 2])
    cyc, lengths = _cycle_rows(n, [long, [3] * (n // 3), [n // 2, n // 4]] * h, n)
    cyc, lengths = cyc[:h], lengths[:h]
    assert np.array_equal(cycle_lengths_rows(cyc), lengths)
    for r in (2, 21, 2520):
        assert np.array_equal(power_lengths_rows(sp, cyc, r), np.where(r % lengths, 0, lengths))
    # one table is the one-row case of compose_rows
    assert np.array_equal(compose_rows(cyc[0], cyc[0]), cyc[0][cyc[0]])


@pytest.mark.parametrize("r, cycles", [
    (255, [[255, 85, 51, 17, 15, 5, 3], [256, 254, 7, 4, 2]]),
    (256, [[256, 128, 2], [255, 257, 3]]),
    (65535, [[65535, 4369, 771, 257, 255, 3], [65536, 65534, 4, 2]]),
    (65536, [[65536, 32768, 16384, 2], [65535, 255, 7, 3]])])
def test_power_lengths_rows_hold_lengths_narrow_at_dtype_edges(r, cycles):
    # the lengths are folded in the narrowest unsigned dtype for min(r, n),
    # here r as F_2^17 has more points than every r (uint8 up to 255, uint16
    # up to 65535, then uint32), and widened to int32: against the lengths
    # known by construction.  Row 0 has cycles dividing r, row 1 cycles that
    # do not, whose points read 0
    sp = space(F2, 17)
    tables, lengths = _cycle_rows(sp.n, cycles, r)
    want = np.where(r % lengths, 0, lengths).astype(np.int32)
    for lo, hi in ((0, 2), (0, 1), (1, 2)):
        got = power_lengths_rows(sp, tables[lo:hi], r)
        assert got.dtype == np.int32 and np.array_equal(got, want[lo:hi]), (lo, hi)
