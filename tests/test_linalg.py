import functools
import json
from random import Random

import numpy as np
import pytest

from cppforge import gf
from cppforge.errors import CtxMismatch, DimMismatch, NotMonic, Singular, SizeCap
from cppforge.linalg import (
    Mat, char_poly, companion, companions, eval_poly_at_matrix, random_invertible, random_matrix,
)
from cppforge.perm import PermTable
from cppforge.poly import (
    Poly, cyclotomic, divides, irreducible_factors, monic_coeffs, monic_polys, parse_poly,
)

F2 = gf.field_new(2)
F3 = gf.field_new(3)
F4 = gf.field_new(2, 2)
F5 = gf.field_new(5)
F7 = gf.field_new(7)
F8 = gf.field_new(2, 3)
F9 = gf.field_new(3, 2)
ACCEPT_FIELDS = (F2, F3, F4, F5, F7, F8, F9)


# --- Oracles: the scalar loops that the array arithmetic replaced -----------

def _mul_oracle(x: Mat, y: Mat) -> tuple:
    """Triple-loop product, one scalar add and mul per term."""
    ctx, n, a, b = x.ctx, x.n, x.rows, y.rows
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] = ctx.add(out[i][j], ctx.mul(a[i][k], b[k][j]))
    return tuple(map(tuple, out))


def _entrywise_oracle(op, x: Mat, y: Mat) -> tuple:
    return tuple(tuple(op(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(x.rows, y.rows))


def _apply_oracle(m: Mat, v) -> tuple:
    return tuple(functools.reduce(m.ctx.add, map(m.ctx.mul, row, v), 0) for row in m.rows)


def _eval_oracle(h: Poly, m: Mat) -> tuple:
    """Horner on the triple-loop product, c * I added entry by entry."""
    ctx, n = m.ctx, m.n
    acc = Mat.zero(ctx, n)
    for c in reversed(h.coeffs):
        acc = [list(r) for r in _mul_oracle(acc, m)]
        for i in range(n):
            acc[i][i] = ctx.add(acc[i][i], c)
        acc = Mat(ctx, acc)
    return acc.rows


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


@pytest.mark.parametrize("ctx", (F2, F3, F4, F5, F9), ids=lambda c: c.spec())
def test_det_and_inv_seeded(ctx):
    # M inv(M) = I, det(MN) = det M det N, det against the Laplace oracle
    # (det(tI - M) at t = 0 is (-1)^n det M), and singular draws: plain
    # draws, an invertible one, and one whose last row repeats its first
    rng = Random(f"det-inv:{ctx.spec()}")
    for n in (1, 2, 3, 4, 5, 6, 12, 20):
        for _ in range(4 if n <= 6 else 2):
            m, k = random_matrix(ctx, n, rng), random_matrix(ctx, n, rng)
            rows = [list(r) for r in m.rows]
            rows[-1] = [0] * n if n == 1 else rows[0]
            for x in (m, random_invertible(ctx, n, rng), Mat(ctx, rows)):
                det = x.det()
                assert (x * k).det() == ctx.mul(det, k.det())
                if n <= 5:
                    const = _char_poly_expansion(x).coeffs[0]
                    assert det == (const if n % 2 == 0 else ctx.neg(const))
                if det:
                    assert x * x.inv() == x.inv() * x == Mat.identity(ctx, n)
                else:
                    with pytest.raises(Singular):
                        x.inv()
            assert Mat(ctx, rows).det() == 0


def test_det_and_inv_in_a_large_prime_field():
    # no bound on p: det and inv run on scalars (the array product needs
    # p < 2^31, so the check multiplies with the scalar oracle)
    ctx = gf.field_new((1 << 61) - 1)
    m = Mat(ctx, [[3, ctx.q - 1, 1 << 60], [5, 0, 7], [1 << 40, 11, 2]])
    inv = m.inv()
    assert _mul_oracle(m, inv) == _mul_oracle(inv, m) == Mat.identity(ctx, 3).rows
    assert m.det() == ctx.neg(_char_poly_expansion(m).coeffs[0])
    assert ctx.mul(m.det(), inv.det()) == 1


@pytest.mark.parametrize("ctx", ACCEPT_FIELDS, ids=lambda c: c.spec())
def test_array_arithmetic_matches_scalar_oracles(ctx):
    rng = Random(f"mat-arith:{ctx.spec()}")
    for d in range(1, 7):
        mats = [Mat.identity(ctx, d), Mat.zero(ctx, d)]
        mats += [random_matrix(ctx, d, rng) for _ in range(3)]
        for x in mats:
            for y in mats:
                assert (x * y).rows == _mul_oracle(x, y), (x, y)
                assert (x + y).rows == _entrywise_oracle(ctx.add, x, y), (x, y)
                assert (x - y).rows == _entrywise_oracle(ctx.sub, x, y), (x, y)
            c = rng.randrange(ctx.q)
            assert x.scale(c).rows == tuple(tuple(ctx.mul(c, a) for a in r) for r in x.rows)
            v = [rng.randrange(ctx.q) for _ in range(d)]
            assert x.apply(v) == _apply_oracle(x, v), (x, v)
            h = Poly(ctx, [rng.randrange(ctx.q) for _ in range(rng.randrange(d + 3))])
            assert eval_poly_at_matrix(h, x).rows == _eval_oracle(h, x), (h, x)


@pytest.mark.parametrize("rows,err", [
    ([[1, 2], [3]], DimMismatch),          # ragged
    ([[1, 2, 3], [4, 5, 6]], DimMismatch),  # 2 x 3
    ([1, 2], DimMismatch),                 # a vector
    ([[1, 7], [0, 1]], ValueError),        # entry q
    ([[1, -1], [0, 1]], ValueError),       # entry -1
    ([[1 << 70]], ValueError),             # beyond int64
], ids=["ragged", "2x3", "vector", "entry-q", "entry-minus-1", "huge"])
def test_constructor_rejects(rows, err):
    with pytest.raises(err):
        Mat(F7, rows)


def test_matrix_array_is_read_only_and_owned():
    src = np.array([[1, 2], [3, 4]])
    m = Mat(F7, src)
    src[0, 0] = 5
    assert m.rows == ((1, 2), (3, 4))
    assert m.a.dtype == np.int64 and not m.a.flags.writeable
    with pytest.raises(ValueError):
        m.a[0, 0] = 0


@pytest.mark.parametrize("ctx", ACCEPT_FIELDS, ids=lambda c: c.spec())
def test_rows_and_json_hold_python_ints(ctx):
    rows = [[(3 * i + j) % ctx.q for j in range(3)] for i in range(3)]
    m = Mat(ctx, rows)
    assert m.rows == tuple(map(tuple, rows))
    assert all(type(c) is int for r in m.rows for c in r)
    assert all(type(c) is int for r in m.to_json()["rows"] for c in r)
    assert json.loads(json.dumps(m.to_json()))["rows"] == rows
    for arr in (np.array(rows), np.array(rows, dtype=np.int32)):
        assert Mat(ctx, arr) == m and hash(Mat(ctx, arr)) == hash(m)
    other = np.array(rows)
    other[2, 1] = (other[2, 1] + 1) % ctx.q
    assert Mat(ctx, other) != m


def test_arithmetic_rejects_mixed_fields_and_sizes():
    m = Mat(F7, [[1, 2], [3, 4]])
    for other, err in ((Mat(F4, [[1, 2], [3, 1]]), CtxMismatch),
                       (Mat.identity(F7, 3), DimMismatch)):
        for op in (m.__add__, m.__sub__, m.__mul__):
            with pytest.raises(err):
                op(other)


def test_array_arithmetic_needs_p_below_2_31():
    big = gf.field_new(2147483659)  # the least prime above 2^31
    m = Mat(big, [[1, 2], [3, 4]])
    assert m.det() == big.sub(4, 6)  # the scalar elimination has no bound
    for op in (lambda: m + m, lambda: m - m, lambda: m * m, lambda: m.apply([1, 1])):
        with pytest.raises(SizeCap):
            op()


def test_apply_and_scale_reject_out_of_range_entries():
    # each used to answer without an error, answer wrongly or raise a bare IndexError
    for ctx, rows, v in ((F7, [[1, 2], [3, 4]], [8, 1]), (F9, [[1, 2], [3, 1]], [-1, 1]),
                         (F4, [[1, 2], [3, 1]], [5, 1])):
        with pytest.raises(ValueError):
            Mat(ctx, rows).apply(v)
        with pytest.raises(ValueError):
            Mat(ctx, rows).scale(v[0])


@pytest.mark.parametrize("ctx", ACCEPT_FIELDS, ids=lambda c: c.spec())
def test_vsum_axis_matches_scalar_fold(ctx):
    a = np.random.default_rng(ctx.q).integers(0, ctx.q, size=(3, 4, 5))
    fold = lambda s: functools.reduce(ctx.add, s.tolist(), 0)  # noqa: E731
    got = ctx.vsum(a)
    assert type(got) is int and got == fold(a.ravel())
    for axis in (0, 1, 2):
        assert ctx.vsum(a, axis=axis).tolist() == \
            np.apply_along_axis(fold, axis, a).tolist(), axis


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


def _companion_oracle(h: Poly) -> list[list[int]]:
    """Companion matrix entry by entry: superdiagonal ones and last row the
    negated coefficients."""
    k, ctx = h.degree, h.ctx
    rows = [[1 if j == i + 1 else 0 for j in range(k)] for i in range(k)]
    rows[k - 1] = [ctx.neg(c) for c in h.coeffs[:k]]
    return rows


@pytest.mark.parametrize("spec", ("2^1", "3^1", "2^2", "5^1", "3^2", "3^2/2,1,1"))
def test_companions_match_entrywise_oracle(spec):
    ctx = gf.parse_field_spec(spec)
    for deg in (1, 2, 3):
        stack = companions(ctx, monic_coeffs(ctx, deg))
        assert stack.shape == (ctx.q ** deg, deg, deg)
        for m, h in zip(stack, monic_polys(ctx, deg)):
            assert m.tolist() == _companion_oracle(h), (spec, h)
            assert companion(h).rows == tuple(map(tuple, _companion_oracle(h)))
            assert char_poly(companion(h)) == h


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


