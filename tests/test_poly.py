import itertools
import time
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from cppforge import gf
from cppforge.errors import CharacteristicDividesN, DivisionByZero, InvalidSpec, SizeCap
from cppforge.linalg import char_poly, random_matrix
from cppforge.poly import (
    Poly, cyclotomic, divides, gcd, irreducible_factors, is_irreducible,
    monic_coeffs, monic_orders, monic_polys, monic_values, parse_poly,
)

F2 = gf.field_new(2)
F3 = gf.field_new(3)
F4 = gf.field_new(2, 2)
F5 = gf.field_new(5)
F7 = gf.field_new(7)
F8 = gf.field_new(2, 3)


def totient(n):
    return sum(1 for k in range(1, n + 1) if __import__("math").gcd(k, n) == 1)


def trial_division_factors(f):
    """Oracle: peel monic irreducible divisors by brute-force enumeration."""
    ctx = f.ctx
    out = []
    g = f.monic()
    deg = 1
    while g.degree and g.degree > 0:
        hit = False
        for cand in monic_polys(ctx, deg):
            if cand.degree > g.degree:
                break
            if is_irreducible(cand) and divides(cand, g):
                while divides(cand, g):
                    out.append(cand)
                    g = g // cand
                hit = True
                break
        if not hit:
            deg += 1
            if g.degree and deg > g.degree:
                out.append(g)
                break
    out.sort(key=Poly.sort_key)
    return out


def test_mul_example_q7_factorization():
    a = parse_poly("t^3+t^2+1", F2)
    b = parse_poly("t^3+t+1", F2)
    assert a * b == parse_poly("t^6+t^5+t^4+t^3+t^2+t+1", F2)
    assert a * b == cyclotomic(7, F2)


def test_gcd_examples():
    f = parse_poly("2*t^2+4", F5)
    assert gcd(f, Poly.zero(F5)) == f.monic()
    assert gcd(parse_poly("t^2+t+1", F2), parse_poly("t^3+t+1", F2)) == Poly.one(F2)
    # gcd divides both and is monic
    a, b = parse_poly("t^4+t^2+1", F2), parse_poly("t^3+1", F2)
    g = gcd(a, b)
    assert g.is_monic and divides(g, a) and divides(g, b)


def test_eval_examples():
    assert parse_poly("t^2+t+1", F2).eval_idx(0) == 1
    assert parse_poly("t^2+t+1", F7).eval_idx(F7.neg(1)) == 1  # 1 - 1 + 1
    assert Poly.zero(F5).eval_idx(3) == 0


def test_divmod_property_seeded():
    rng = Random(11)
    for ctx in (F2, F3, F4, F5):
        for _ in range(60):
            a = Poly(ctx, [rng.randrange(ctx.q) for _ in range(rng.randrange(1, 8))])
            b = Poly(ctx, [rng.randrange(ctx.q) for _ in range(rng.randrange(1, 5))])
            if b.is_zero:
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero or r.degree < b.degree
    with pytest.raises(DivisionByZero):
        divmod(Poly.one(F2), Poly.zero(F2))


@given(st.lists(st.integers(0, 4), max_size=9), st.lists(st.integers(0, 4), min_size=1, max_size=5))
@settings(max_examples=120, deadline=None)
def test_divmod_property_hypothesis(ac, bc):
    a, b = Poly(F5, ac), Poly(F5, bc)
    if b.is_zero:
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree


def test_cyclotomic_examples():
    assert cyclotomic(3, F2) == parse_poly("t^2+t+1", F2)
    assert cyclotomic(3, F7) == parse_poly("t^2+t+1", F7)
    assert cyclotomic(6, F7) == parse_poly("t^2-t+1", F7)
    assert cyclotomic(6, F5) == parse_poly("t^2-t+1", F5)
    assert cyclotomic(1, F5) == parse_poly("t-1", F5)
    with pytest.raises(CharacteristicDividesN):
        cyclotomic(6, F2)
    with pytest.raises(CharacteristicDividesN):
        cyclotomic(9, F3)


def _t_pow_minus_1(ctx, n):
    """t^n - 1, from its coefficients."""
    return Poly(ctx, [ctx.neg(1)] + [0] * (n - 1) + [1])


@pytest.mark.parametrize("ctx", [F2, F3, F5, F4])
def test_cyclotomic_product_identity_and_degree(ctx):
    for n in range(1, 31):
        if n % ctx.p == 0:
            continue
        prod = Poly.one(ctx)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d, ctx)
        assert prod == _t_pow_minus_1(ctx, n)
        assert cyclotomic(n, ctx).degree == totient(n)


def _peeled_cyclotomic(n, ctx, memo):
    """Oracle: t^n - 1 divided exactly by Q_d for every proper divisor d of
    n, found by testing each d < n, each Q_d peeled the same way."""
    if n not in memo:
        num = _t_pow_minus_1(ctx, n)
        for d in range(1, n):
            if n % d == 0:
                num, rem = divmod(num, _peeled_cyclotomic(d, ctx, memo))
                assert rem.is_zero, (ctx.spec(), n, d)
        memo[n] = num
    return memo[n]


@pytest.mark.parametrize("spec", ["2^1", "3^1", "2^2", "5^1", "7^1", "3^2", "13^1"])
def test_cyclotomic_matches_peeling_oracle(spec):
    ctx = gf.parse_field_spec(spec)
    memo = {}
    for n in range(1, 150):
        if n % ctx.p:
            assert cyclotomic(n, ctx) == _peeled_cyclotomic(n, ctx, memo), (spec, n)


def test_cyclotomic_large_index_vs_sympy():
    # radicals with four and five primes, and a square factor
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    ctx = gf.field_new(13)
    for n in (210, 1155, 2310, 4620):
        want = sympy.Poly(sympy.cyclotomic_poly(n, t), t).all_coeffs()
        assert cyclotomic(n, ctx).coeffs == tuple(int(c) % 13 for c in reversed(want)), n


def test_cyclotomic_large_index_is_fast():
    # 55440 = 2^4 * 3^2 * 5 * 7 * 11 has 120 divisors; Q_55440 has degree 11520
    t0 = time.perf_counter()
    q = cyclotomic(55440, gf.field_new(13))
    assert time.perf_counter() - t0 < 1.0
    assert q.degree == 11520 and q.coeffs[0] == q.coeffs[-1] == 1


def test_cyclotomic_index_capped_at_table_cap():
    # Q_(2^20) = Q_2(t^(2^19)) = t^(2^19) + 1 is the largest index allowed
    big = cyclotomic(1 << 20, F3)
    assert big.degree == 1 << 19 and big.coeffs[0] == big.coeffs[-1] == 1
    assert not any(big.coeffs[1:-1])
    for n in (1048577, 1000000000000000003):
        with pytest.raises(SizeCap):
            cyclotomic(n, F2)


@pytest.mark.parametrize("ctx", [F2, F5])
def test_cyclotomic_divisibility_lemma(ctx):
    # Q_n | (x^n - 1)/(x^d - 1) for every proper divisor d of n
    for n in range(2, 31):
        if n % ctx.p == 0:
            continue
        qn = cyclotomic(n, ctx)
        for d in range(1, n):
            if n % d == 0:
                quot, rem = divmod(_t_pow_minus_1(ctx, n),
                                   _t_pow_minus_1(ctx, d))
                assert rem.is_zero
                assert divides(qn, quot)


def test_divides_examples():
    assert divides(parse_poly("t^2+t+1", F2), _t_pow_minus_1(F2, 3))
    # (t+1)^3 - 1 over F_2 = t^3+t^2+t
    tp1 = parse_poly("t+1", F2)
    tp1_cubed = tp1 * tp1 * tp1 - Poly.one(F2)
    assert divides(parse_poly("t^2+t+1", F2), tp1_cubed)
    # char-2 regression trap: t-1 = t+1 and t^2+1 = (t+1)^2
    assert divides(parse_poly("t-1", F2), parse_poly("t^2+1", F2))
    with pytest.raises(DivisionByZero):
        divides(Poly.zero(F2), Poly.one(F2))


def test_irreducible_factors_examples():
    fs = irreducible_factors(cyclotomic(7, F2))
    assert fs == [parse_poly("t^3+t+1", F2), parse_poly("t^3+t^2+1", F2)]
    assert irreducible_factors(parse_poly("t^2+t+1", F2)) == [parse_poly("t^2+t+1", F2)]
    fs7 = irreducible_factors(parse_poly("t^2-1", F7))
    assert sorted(f.to_text() for f in fs7) == ["1+1*t", "6+1*t"]
    # repeated factor with multiplicity
    assert irreducible_factors(parse_poly("t^2+1", F2)) == [parse_poly("t+1", F2)] * 2


def test_irreducible_factors_reconstruction_seeded():
    rng = Random(5)
    for ctx in (F2, F3, F4, F5, F8):
        for _ in range(25):
            coeffs = [rng.randrange(ctx.q) for _ in range(rng.randrange(2, 8))]
            f = Poly(ctx, coeffs)
            if f.is_zero or f.degree == 0:
                continue
            fs = irreducible_factors(f)
            prod = Poly(ctx, [f.coeffs[-1]])
            for u in fs:
                assert u.is_monic and is_irreducible(u)
                prod = prod * u
            assert prod == f


def test_irreducible_factors_vs_trial_division_exhaustive():
    # every monic polynomial up to the stated desk-scale bounds
    for ctx, max_deg in ((F2, 6), (F3, 4)):
        for deg in range(1, max_deg + 1):
            for f in monic_polys(ctx, deg):
                assert irreducible_factors(f) == trial_division_factors(f)


def test_irreducible_factors_vs_trial_division_sampled():
    rng = Random(17)
    for ctx in (F4, F5, F7, F8):
        for _ in range(12):
            deg = rng.randrange(2, 6)
            f = Poly(ctx, [rng.randrange(ctx.q) for _ in range(deg)] + [1])
            assert irreducible_factors(f) == trial_division_factors(f)


def test_factor_zero_rejected():
    with pytest.raises(DivisionByZero):
        irreducible_factors(Poly.zero(F2))


def test_text_rendering_and_parsing():
    f = parse_poly("t^2-t+1", F7)
    assert f.coeffs == (1, 6, 1)
    assert f.to_text() == "1+6*t+1*t^2"
    assert parse_poly(f.to_text(), F7) == f
    assert parse_poly("1+1*t+1*t^2", F2) == parse_poly("t^2+t+1", F2)
    assert Poly.zero(F5).to_text() == "0"
    assert parse_poly("0", F5) == Poly.zero(F5)
    assert parse_poly("3*t^4", F5).coeffs == (0, 0, 0, 0, 3)


@given(st.lists(st.integers(0, 6), max_size=7))
@settings(max_examples=100, deadline=None)
def test_text_round_trip_hypothesis(coeffs):
    f = Poly(F7, coeffs)
    assert parse_poly(f.to_text(), F7) == f


def test_degree_marker():
    assert Poly.zero(F2).degree is None
    assert Poly.one(F2).degree == 0
    assert parse_poly("t^3", F2).degree == 3


def test_monic_polys_order():
    first = list(itertools.islice(monic_polys(F2, 3), 8))
    texts = [f.to_text() for f in first]
    # integer-value order: t^3, 1+t^3, t+t^3, 1+t+t^3, ...
    assert texts[0] == "1*t^3"
    assert texts.index("1+1*t+1*t^3") < texts.index("1+1*t^2+1*t^3")
    # oracle: base-q digits, c_0 fastest; F_2 of degree 15 crosses a block
    for ctx, deg in ((F2, 0), (F2, 15), (F3, 4), (gf.field_new(2, 2), 3)):
        want = [tuple(reversed(c)) + (1,) for c in itertools.product(range(ctx.q), repeat=deg)]
        assert [h.coeffs for h in monic_polys(ctx, deg)] == want
    # a prime field beyond int64 powers or indices: the first digits only
    for p in ((1 << 61) - 1, (1 << 89) - 1):
        first = itertools.islice(monic_polys(gf.field_new(p), 3), 3)
        assert [h.coeffs for h in first] == [(0, 0, 0, 1), (1, 0, 0, 1), (2, 0, 0, 1)]


# --- Oracle: the per-polynomial order loop that monic_orders replaced ------

def _ord_mod(h, shift):
    """Multiplicative order of (t + shift*1) modulo h, one scalar step at a time.

    The base must be invertible mod h (h(-shift) != 0).
    """
    ctx = h.ctx
    deg = h.degree
    hc = h.coeffs
    add, mul, sub = ctx.add, ctx.mul, ctx.sub
    sh = ctx.from_int(shift)
    g = [0] * deg
    if deg == 1:
        g[0] = add(ctx.neg(hc[0]), sh)  # t = -h0 mod h
    else:
        g[1] = 1
        g[0] = sh
    one = [1] + [0] * (deg - 1)
    mult = 1
    while mult < max(deg, 1):
        mult *= ctx.p
    bound = (ctx.q ** deg - 1) * mult + 1
    k = 1
    cur = list(g)
    while cur != one:
        # cur := cur * (t + shift) mod h
        lead = cur[-1]
        nxt = [0] * deg
        for i in range(deg - 1):
            nxt[i + 1] = cur[i]
        if sh:
            for i in range(deg):
                nxt[i] = add(nxt[i], mul(sh, cur[i]))
        if lead:
            for i in range(deg):
                nxt[i] = sub(nxt[i], mul(lead, hc[i]))
        cur = nxt
        k += 1
        if k > bound:
            raise RuntimeError("internal error: order search exceeded bound")
    return k


@pytest.mark.parametrize("spec, degs", [
    ("2^1", (1, 2, 3, 4)), ("3^1", (1, 2, 3, 4)), ("2^2", (1, 2, 3, 4)),
    ("5^1", (1, 2, 3, 4)), ("7^1", (1, 2)), ("2^3", (1, 2)), ("3^2", (1, 2)),
    ("3^2/2,1,1", (1, 2)),
])
def test_monic_orders_vs_scalar_loop(spec, degs):
    ctx = gf.parse_field_spec(spec)
    for deg in degs:
        for shift in (0, 1):
            got = monic_orders(ctx, deg, shift)
            assert got.shape == (ctx.q ** deg,) and not got.flags.writeable
            root = ctx.neg(ctx.from_int(shift))
            for v, h in enumerate(monic_polys(ctx, deg)):
                if h.eval_idx(root) == 0:
                    assert got[v] == 0, (spec, deg, shift, h)
                else:
                    assert got[v] == _ord_mod(h, shift), (spec, deg, shift, h)


@pytest.mark.parametrize("spec", ("2^1", "3^1", "2^2", "5^1", "3^2", "3^2/2,1,1", "7^1"))
def test_monic_values_match_eval_idx(spec):
    ctx = gf.parse_field_spec(spec)
    for deg in (1, 2, 3):
        hs = list(monic_polys(ctx, deg))
        coeffs = monic_coeffs(ctx, deg)
        assert [list(c) + [1] for c in coeffs.tolist()] == [list(h.coeffs) for h in hs]
        lo, hi = ctx.q // 2, len(hs) - 1
        assert monic_coeffs(ctx, deg, lo, hi).tolist() == coeffs[lo:hi].tolist()
        for x in {0, 1, ctx.neg(1), ctx.q - 1}:
            got = monic_values(ctx, coeffs, x)
            assert got.tolist() == [h.eval_idx(x) for h in hs], (spec, deg, x)


def test_monic_orders_rejects_degree_and_size():
    with pytest.raises(InvalidSpec):
        monic_orders(F2, 0, 0)
    with pytest.raises(SizeCap):
        monic_orders(F2, 21, 0)


# --- sympy as an independent oracle over the prime fields (optional) -------

# The equal-degree step of irreducible_factors tries every monic candidate of
# the factor degree k, so (p, n) pairs where Q_n has several factors of a
# degree k with p^k above this bound are left to the sampled tests above.
_SYMPY_TRIAL_BOUND = 1 << 12


def _sympy_factors(sympy, expr, t, p):
    """Monic factors over F_p as a sorted list of low-first coefficient tuples."""
    _, facs = sympy.Poly(expr, t, modulus=p).factor_list()
    out = []
    for f, mult in facs:
        cs = [int(c) % p for c in reversed(f.all_coeffs())]
        inv = pow(cs[-1], -1, p)
        out += [tuple(c * inv % p for c in cs)] * mult
    return sorted(out)


def _affordable(factors, p) -> bool:
    degs = [len(f) - 1 for f in set(factors)]
    return all(degs.count(k) < 2 or p ** k <= _SYMPY_TRIAL_BOUND for k in degs)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_cyclotomic_and_factors_vs_sympy(p):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    ctx = gf.field_new(p)
    checked = 0
    for n in range(1, 31):
        if n % p == 0:
            with pytest.raises(CharacteristicDividesN):
                cyclotomic(n, ctx)
        else:
            want = sympy.Poly(sympy.cyclotomic_poly(n, t), t).all_coeffs()
            qn = cyclotomic(n, ctx)
            assert qn.coeffs == tuple(int(c) % p for c in reversed(want)), (p, n)
            expect = _sympy_factors(sympy, sympy.cyclotomic_poly(n, t), t, p)
            if _affordable(expect, p):
                got = sorted(f.coeffs for f in irreducible_factors(qn))
                assert got == expect, (p, n)
                checked += 1
        expect = _sympy_factors(sympy, t ** n - 1, t, p)
        if _affordable(expect, p):
            got = sorted(f.coeffs for f in irreducible_factors(
                _t_pow_minus_1(ctx, n)))
            assert got == expect, (p, n, "t^n - 1")
            checked += 1
    assert checked >= 40


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_char_poly_vs_sympy(p):
    sympy = pytest.importorskip("sympy")
    ctx = gf.field_new(p)
    rng = Random(f"sympy-char-poly:{p}")
    for d in range(1, 9):
        for _ in range(5):
            m = random_matrix(ctx, d, rng)
            want = sympy.Matrix(m.rows).charpoly().all_coeffs()
            assert char_poly(m).coeffs == \
                tuple(int(c) % p for c in reversed(want)), (p, m)


def test_cap_field_moduli_irreducible_vs_sympy():
    # for every prime p with p^2 <= TABLE_CAP, the largest field F_p^m
    # under the cap
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    checked = 0
    for p in range(2, 1025):
        if not gf.is_prime(p):
            continue
        m = 2
        while p ** (m + 1) <= gf.TABLE_CAP:
            m += 1
        mod = gf._canonical_modulus(p, m)
        assert len(mod) == m + 1 and mod[-1] == 1
        assert sympy.Poly(list(reversed(mod)), t, modulus=p).is_irreducible, (p, m)
        checked += 1
    assert checked == 172
