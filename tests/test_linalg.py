from random import Random

import pytest

from cppforge import gf
from cppforge.errors import DimMismatch, NotMonic, Singular
from cppforge.linalg import (
    Mat, char_poly, companion, eval_poly_at_matrix, random_invertible, random_matrix,
)
from cppforge.perm import PermTable
from cppforge.poly import Poly, cyclotomic, divides, irreducible_factors, parse_poly

F2 = gf.field_new(2)
F3 = gf.field_new(3)
F4 = gf.field_new(2, 2)
F5 = gf.field_new(5)
F7 = gf.field_new(7)
F8 = gf.field_new(2, 3)
F9 = gf.field_new(3, 2)


# --- Oracles: the two char-poly algorithms used before the Hessenberg path --

def _char_poly_faddeev(m: Mat) -> Poly:
    """Faddeev-LeVerrier recursion; needs 1..d invertible, i.e. p > d."""
    ctx = m.ctx
    d = m.n
    ident = Mat.identity(ctx, d)
    coeffs = [0] * (d + 1)
    coeffs[d] = 1
    aux = Mat.zero(ctx, d)
    c = 1
    for k in range(1, d + 1):
        aux = m * (aux + ident.scale(c))
        tr = 0
        for i in range(d):
            tr = ctx.add(tr, aux.rows[i][i])
        # c_k = -tr(M_k) / k
        c = ctx.mul(ctx.neg(tr), ctx.inv(ctx.from_int(k)))
        coeffs[d - k] = c
    return Poly(ctx, coeffs)


def _char_poly_expansion(m: Mat) -> Poly:
    """Laplace expansion of det(tI - M) over F_q[t], memoized on column subsets."""
    ctx = m.ctx
    d = m.n
    neg = ctx.neg
    add = ctx.add
    mul = ctx.mul
    # entries of tI - M as raw low-first coefficient lists
    ent = [[[neg(m.rows[i][j])] if i != j else [neg(m.rows[i][i]), 1]
            for j in range(d)] for i in range(d)]

    def padd(a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return out

    def pmul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] = add(out[i + j], mul(ca, cb))
        return out

    minors = {0: [1]}
    for mask in range(1, 1 << d):
        r = bin(mask).count("1") - 1
        acc = [0]
        pos = 0
        for j in range(d):
            if mask & (1 << j):
                term = pmul(ent[r][j], minors[mask ^ (1 << j)])
                if (r + pos) % 2:
                    term = [neg(c) for c in term]
                acc = padd(acc, term)
                pos += 1
        minors[mask] = acc
    full = minors[(1 << d) - 1]
    return Poly(ctx, full)


def test_det_examples():
    assert Mat.identity(F7, 2).det() == 1
    # [[0,1],[-1,-1]] over F_7: 0*(-1) - 1*(-1) = 1
    assert Mat(F7, [[0, 1], [6, 6]]).det() == 1
    assert Mat(F5, [[1, 2], [2, 4]]).det() == 0


def test_apply_and_inverse():
    m = Mat(F7, [[1, 2], [3, 4]])
    v = (5, 6)
    assert Mat.identity(F7, 2).apply(v) == v
    assert m.inv() * m == Mat.identity(F7, 2)
    got = m.inv().apply(m.apply(v))
    assert got == v
    with pytest.raises(Singular):
        Mat(F5, [[1, 2], [2, 4]]).inv()
    with pytest.raises(DimMismatch):
        m.apply((1, 2, 3))


def test_char_poly_examples():
    h = parse_poly("t^2+t+1", F2)
    assert char_poly(companion(h)) == h
    assert char_poly(Mat.identity(F7, 2)) == parse_poly("t^2-2*t+1", F7)
    # the parametrized family [[0,m],[-1/m,-1]] always has char poly t^2+t+1
    for ctx in (F5, F7, F8, F4):
        for m_idx in range(1, min(ctx.q, 6)):
            m = Mat(ctx, [[0, m_idx], [ctx.neg(ctx.inv(m_idx)), ctx.neg(1)]])
            assert char_poly(m) == cyclotomic(3, ctx)


def test_char_poly_paths_agree():
    rng = Random(3)
    cases = [(F7, d) for d in (2, 3, 4, 5, 6)] + [(F5, d) for d in (2, 3, 4)] + \
            [(F9, 2), (gf.field_new(11), 6)]
    for ctx, d in cases:
        for _ in range(10):
            m = random_matrix(ctx, d, rng)
            assert char_poly(m) == _char_poly_faddeev(m) == _char_poly_expansion(m)


@pytest.mark.parametrize("ctx", [F2, F3, F4, F8, F9], ids=lambda c: c.spec())
def test_char_poly_small_characteristic_vs_expansion(ctx):
    # d runs past p, where Faddeev-LeVerrier would divide by k = p, so the
    # expansion is the oracle here
    rng = Random(f"char-poly:{ctx.spec()}")
    for d in range(1, 8):
        for _ in range(6):
            m = random_matrix(ctx, d, rng)
            assert char_poly(m) == _char_poly_expansion(m), (ctx.spec(), m)


def _pivot_cases(ctx, rng):
    """Matrices that reach each branch of the Hessenberg pivot search."""
    d = 5
    nz = lambda: rng.randrange(1, ctx.q)  # noqa: E731
    swap = [list(r) for r in random_matrix(ctx, d, rng).rows]
    swap[1][0], swap[3][0] = 0, nz()  # zero subdiagonal entry, pivot below
    zero_col = [list(r) for r in random_matrix(ctx, d, rng).rows]
    for r in range(1, d):
        zero_col[r][0] = 0  # nothing to eliminate in column 0
    zero_col[2][1], zero_col[3][1], zero_col[4][1] = 0, 0, nz()
    hess = [[rng.randrange(ctx.q) if r <= c + 1 else 0 for c in range(d)]
            for r in range(d)]
    upper = Mat(ctx, [[rng.randrange(ctx.q) if r < c else 0 for c in range(d)]
                      for r in range(d)])
    s = random_invertible(ctx, d, rng)
    c = nz()
    return [("swap", Mat(ctx, swap), None),
            ("zero column", Mat(ctx, zero_col), None),
            ("hessenberg", Mat(ctx, hess), None),
            ("nilpotent", s * upper * s.inv(), Poly(ctx, (0,) * d + (1,))),  # t^d
            ("scalar", Mat.identity(ctx, d).scale(c),
             Poly(ctx, [ctx.neg(c), 1]) ** d)]


@pytest.mark.parametrize("ctx", [F2, F3, F4, F5, F9], ids=lambda c: c.spec())
def test_char_poly_pivot_branches(ctx):
    rng = Random(f"pivots:{ctx.spec()}")
    for _ in range(4):
        for tag, m, want in _pivot_cases(ctx, rng):
            got = char_poly(m)
            assert got == _char_poly_expansion(m), (tag, m)
            if want is not None:
                assert got == want, (tag, m)


def test_cayley_hamilton_seeded():
    rng = Random(4)
    for ctx in (F2, F3, F4, F5, F8):
        for d in (2, 3, 4):
            for _ in range(15):
                m = random_matrix(ctx, d, rng)
                cp = char_poly(m)
                assert cp.is_monic and cp.degree == d
                assert eval_poly_at_matrix(cp, m) == Mat.zero(ctx, d)


# --- The minimal polynomial: no library code needs it, so it lives here -----

def min_poly(m: Mat) -> Poly:
    """Least-degree monic annihilator of M; divides char_poly(M).

    Found by testing monic divisors of the characteristic polynomial in
    increasing (degree, digits) order; the minimal polynomial shares every
    irreducible factor of the characteristic polynomial, which prunes the
    divisor lattice.
    """
    cp = char_poly(m)
    factors = irreducible_factors(cp)
    distinct: list[Poly] = []
    mult: list[int] = []
    for f in factors:
        if distinct and f == distinct[-1]:
            mult[-1] += 1
        else:
            distinct.append(f)
            mult.append(1)
    candidates = []

    def rec(i: int, cur: Poly):
        if i == len(distinct):
            candidates.append(cur)
            return
        term = distinct[i]
        acc = cur * term
        for _ in range(mult[i]):
            rec(i + 1, acc)
            acc = acc * term
            if acc.degree is not None and acc.degree > cp.degree:
                break

    rec(0, Poly.one(m.ctx))
    candidates.sort(key=Poly.sort_key)
    for cand in candidates:
        if eval_poly_at_matrix(cand, m) == Mat.zero(m.ctx, m.n):
            return cand
    raise RuntimeError("internal error: no annihilating divisor found")


def test_min_poly_examples():
    assert min_poly(Mat.identity(F7, 2)) == parse_poly("t-1", F7)
    assert min_poly(Mat.zero(F7, 3)) == Poly.t(F7)
    # reducible h: companion still has min poly == char poly == h
    h = parse_poly("t-1", F2) * parse_poly("t^2+t+1", F2) * parse_poly("t^3+t+1", F2)
    c = companion(h)
    assert char_poly(c) == h and min_poly(c) == h


def test_min_poly_divides_and_companion_equality():
    rng = Random(9)
    for ctx in (F2, F3, F5):
        for d in (2, 3, 4):
            for _ in range(8):
                m = random_matrix(ctx, d, rng)
                mp, cp = min_poly(m), char_poly(m)
                assert divides(mp, cp)
                assert eval_poly_at_matrix(mp, m) == Mat.zero(ctx, d)
            for h in (cyclotomic(3, ctx) if ctx.p != 3 else cyclotomic(4, ctx),):
                c = companion(h)
                assert min_poly(c) == char_poly(c)
    # strictly smaller min poly for non-cyclic maps
    assert min_poly(Mat.identity(F5, 3)).degree == 1


def test_companion_examples():
    assert companion(parse_poly("t^2+t+1", F7)).rows == ((0, 1), (6, 6))
    assert companion(parse_poly("t^3+t^2+1", F2)).rows == \
        ((0, 1, 0), (0, 0, 1), (1, 0, 1))
    assert companion(parse_poly("t^3+t+1", F2)).rows == \
        ((0, 1, 0), (0, 0, 1), (1, 1, 0))
    assert companion(parse_poly("t-1", F5)).rows == ((1,),)
    with pytest.raises(NotMonic):
        companion(parse_poly("2*t^2+1", F5))
    with pytest.raises(NotMonic):
        companion(Poly.one(F5))


def test_eval_poly_at_matrix_examples():
    m = Mat(F5, [[1, 2], [3, 4]])
    assert eval_poly_at_matrix(Poly.t(F5), m) == m
    assert eval_poly_at_matrix(parse_poly("t-1", F5), Mat.identity(F5, 2)) == \
        Mat.zero(F5, 2)
    assert eval_poly_at_matrix(Poly.zero(F5), m) == Mat.zero(F5, 2)


def test_det_nonzero_iff_bijective_exhaustive_space():
    rng = Random(21)
    for ctx, d in ((F2, 3), (F3, 2), (F4, 2), (F5, 2), (F2, 8), (F8, 2)):
        for _ in range(10):
            m = random_matrix(ctx, d, rng)
            tbl = PermTable.from_matrix(m)
            assert (m.det() != 0) == tbl.bijective
        # force some singular witnesses: repeat a row
        m = random_matrix(ctx, d, rng)
        rows = [list(r) for r in m.rows]
        rows[-1] = rows[0]
        sing = Mat(ctx, rows)
        assert sing.det() == 0 and not PermTable.from_matrix(sing).bijective


def test_char_poly_shift_identity():
    # char_poly(M + I)(t) == char_poly(M)(t - 1)
    rng = Random(8)
    for ctx in (F2, F5, F9):
        for d in (2, 3, 4):
            for _ in range(6):
                m = random_matrix(ctx, d, rng)
                lhs = char_poly(m + Mat.identity(ctx, d))
                tm1 = Poly(ctx, [ctx.neg(1), 1])
                acc = Poly.zero(ctx)
                for c in reversed(char_poly(m).coeffs):
                    acc = acc * tm1 + Poly(ctx, [c])
                assert lhs == acc


def test_conjugation_preserves_char_poly():
    rng = Random(13)
    for ctx in (F2, F5):
        m = random_matrix(ctx, 4, rng)
        s = random_invertible(ctx, 4, rng)
        assert char_poly(s * m * s.inv()) == char_poly(m)


def test_matrix_json_round_trip():
    m = Mat(F9, [[1, 8], [3, 0]])
    assert Mat.from_json(m.to_json()) == m


