from collections import Counter
from random import Random

import numpy as np
import pytest

from cppforge import gf
from cppforge.errors import NotBijective, SizeCap
from cppforge.linalg import Mat, companion, random_matrix
from cppforge.perm import CycleStructure, PermTable, space
from cppforge.poly import cyclotomic

F2 = gf.field_new(2)
F3 = gf.field_new(3)
F4 = gf.field_new(2, 2)
F5 = gf.field_new(5)


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


def test_from_fn_examples():
    e = PermTable.from_fn(F4, 2, lambda v: v)
    assert e.bijective and e == PermTable.identity(F4, 2)
    const = PermTable.from_fn(F4, 2, lambda v: (0, 0))
    assert not const.bijective
    m = Mat(F5, [[2, 1], [1, 1]])
    assert m.det() != 0
    tbl = PermTable.from_fn(F5, 2, m.apply)
    assert tbl.bijective and tbl == PermTable.from_matrix(m)


def test_compose_invert_examples():
    s = PermTable.from_matrix(companion(cyclotomic(3, F2)))
    e = PermTable.identity(F2, 2)
    assert s.compose(s.invert()) == e
    assert s.invert().invert() == s
    with pytest.raises(NotBijective):
        PermTable.from_fn(F2, 2, lambda v: (0, 0)).invert()


def test_add_pointwise_examples():
    e = PermTable.identity(F2, 2)
    doubled = e.add_pointwise(e)
    assert not doubled.bijective and set(doubled.table.tolist()) == {0}
    # sigma_M + e bijective iff det(M + I) != 0, exhaustively over small randoms
    rng = Random(2)
    for ctx, d in ((F2, 2), (F3, 2), (F4, 2), (F5, 2), (F2, 4)):
        ident = Mat.identity(ctx, d)
        e_tbl = PermTable.identity(ctx, d)
        for _ in range(20):
            m = random_matrix(ctx, d, rng)
            got = PermTable.from_matrix(m).add_pointwise(e_tbl).bijective
            assert got == ((m + ident).det() != 0)


def test_npower_examples():
    s = PermTable.from_matrix(companion(cyclotomic(3, F2)))
    e = PermTable.identity(F2, 2)
    assert s.npower(0) == e
    assert s.npower(3) == e
    assert s.npower(-1) == s.invert()
    assert s.npower(7) == s  # 7 = 3+3+1
    rng = Random(6)
    perm = list(range(16))
    rng.shuffle(perm)
    f = PermTable(F2, 4, perm)
    for a, b in ((2, 3), (4, 5), (0, 6)):
        assert f.npower(a + b) == f.npower(a).compose(f.npower(b))
    with pytest.raises(NotBijective):
        PermTable.from_fn(F2, 2, lambda v: (0, 0)).npower(-1)


def test_cycle_structure_examples():
    e = PermTable.identity(F4, 2)
    cs = e.cycle_structure()
    assert cs.fixed_points == 16 and cs.cycles == ()
    s2 = PermTable.from_matrix(companion(cyclotomic(3, F2)))
    assert s2.cycle_structure().to_json() == {"fixed": 1, "cycles": {"3": 1}}
    s4 = PermTable.from_matrix(companion(cyclotomic(3, F4)))
    assert s4.cycle_structure().to_json() == {"fixed": 1, "cycles": {"3": 5}}
    with pytest.raises(NotBijective):
        PermTable.from_fn(F2, 2, lambda v: (0, 0)).cycle_structure()


def test_cycle_structure_matches_naive_oracle():
    rng = Random(14)
    for ctx, d in ((F2, 4), (F3, 2), (F5, 2), (F4, 2)):
        n = ctx.q ** d
        for _ in range(25):
            perm = list(range(n))
            rng.shuffle(perm)
            t = PermTable(ctx, d, perm)
            assert t.cycle_structure() == naive_cycle_structure(perm)
            assert t.cycle_structure().total() == n


def test_is_r_regular_examples():
    e = PermTable.identity(F4, 2)
    assert e.is_r_regular(5) and e.is_r_regular(2)  # vacuous: no non-fixed cycles
    s = PermTable.from_matrix(companion(cyclotomic(3, F2)))
    assert s.is_r_regular(3) and not s.is_r_regular(5)
    # h | Q_9 over F_2 gives a 9-regular instance (composite-r regularity)
    h = cyclotomic(9, F2)
    s9 = PermTable.from_matrix(companion(h))
    assert s9.is_r_regular(9)
    assert s9.cycle_structure().to_json() == {"fixed": 1, "cycles": {"9": 7}}


def test_is_cpp_examples():
    e2 = PermTable.identity(F2, 2)
    assert not e2.is_cpp()  # x + x is constant in characteristic 2
    s = PermTable.from_matrix(companion(cyclotomic(3, F2)))
    assert s.is_cpp()
    assert not PermTable.from_fn(F2, 2, lambda v: (0, 0)).is_cpp()


def _is_additive_exhaustive(t: PermTable) -> bool:
    """Oracle: f(x + y) = f(x) + f(y) checked for every pair x, y."""
    sp = space(t.ctx, t.d)
    tbl = t.table
    return all(np.array_equal(tbl[sp.vadd(sp.arange, y)], sp.vadd(tbl, int(tbl[y])))
               for y in range(sp.n))


def test_is_additive_examples():
    e = PermTable.identity(F4, 1)
    assert e.is_additive() and _is_additive_exhaustive(e)
    sq = PermTable.from_fn(F4, 1, lambda v: (F4.pow(v[0], 2),))
    cube = PermTable.from_fn(F4, 1, lambda v: (F4.pow(v[0], 3),))
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
            g = PermTable(ctx, d, g_t)
            conj = g.compose(f.compose(g.invert()))
            assert conj.cycle_structure() == f.cycle_structure()


def test_n_cycle_iff_lengths_divide():
    rng = Random(7)
    e = PermTable.identity(F3, 2)
    for _ in range(40):
        perm = list(range(9))
        rng.shuffle(perm)
        f = PermTable(F3, 2, perm)
        lengths = [l for l, _ in f.cycle_structure().cycles]
        for n in (2, 3, 4, 6, 12):
            assert (f.npower(n) == e) == all(n % l == 0 for l in lengths)


def test_prime_r_cycle_implies_regular():
    # any non-identity f with f^(r) = e for prime r is r-regular
    rng = Random(10)
    for r, ctx in ((3, F2), (5, F3), (7, F2)):
        h = cyclotomic(r, ctx)
        base = PermTable.from_matrix(companion(h))
        n = base.n
        e = PermTable.identity(ctx, h.degree)
        for _ in range(10):
            g_t = list(range(n))
            rng.shuffle(g_t)
            g = PermTable(ctx, h.degree, g_t)
            f = g.compose(base.compose(g.invert()))
            assert f != e and f.npower(r) == e
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
        PermTable.identity(F2, 21)


def test_json_round_trip():
    s = PermTable.from_matrix(companion(cyclotomic(3, F4)))
    assert PermTable.from_json(s.to_json()) == s
    cs = s.cycle_structure()
    assert CycleStructure.from_json(cs.to_json()) == cs
