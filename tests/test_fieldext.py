import numpy as np
import pytest

from cppforge import gf
from cppforge.errors import CtxMismatch, DependentBasis, SizeCap
from cppforge.fieldext import _decode_table, default_basis, make_basis, to_univariate
from cppforge.linalg import companion
from cppforge.perm import PermTable, space
from cppforge.poly import Poly, cyclotomic

from test_perm import from_fn

F2 = gf.field_new(2)
F3 = gf.field_new(3)
F4 = gf.field_new(2, 2)
F5 = gf.field_new(5)
F7 = gf.field_new(7)
F9 = gf.field_new(3, 2)


def lifted(bp, tbl, x):
    """The table lifted to the big field, at x, through the scalar encode/decode."""
    sp = space(bp.sub, bp.d)
    return bp.decode(sp.unpack_point(int(tbl.table[sp.pack_point(bp.encode(x))])))


def naive_to_univariate(bp, f):
    """The O(N^2) scalar Lagrange loop that ``to_univariate`` replaced."""
    big = bp.big
    n = big.q
    ys = [lifted(bp, f, x) for x in range(n)]
    # f(t) = -sum_i y_i * (t^N - t)/(t - a_i); the quotient at a_i has
    # coefficient a_i^(N-1-k) at degree k >= 1 and a_i^(N-1) - 1 at degree 0.
    mul, add, neg = big.mul, big.add, big.neg
    coeffs = [0] * n
    y_total = 0
    for a, y in enumerate(ys):
        if y == 0:
            continue
        y_total = add(y_total, y)
        r = y
        for e in range(n - 1):
            coeffs[n - 1 - e] = add(coeffs[n - 1 - e], neg(r))
            r = mul(r, a)
        coeffs[0] = add(coeffs[0], neg(r))
    coeffs[0] = add(coeffs[0], y_total)
    return Poly(big, coeffs)


def recurrence_to_univariate(bp, f):
    """The O(N^2) array recurrence that the transform replaced: N steps of
    ``vmul``/``vsum`` on the lifted table, one per coefficient."""
    big = bp.big
    n = big.q
    dec = _decode_table(bp)
    y = np.empty_like(dec)
    y[dec] = dec[f.table]
    a = space(bp.sub, bp.d).arange
    sums = np.zeros(n, dtype=np.int64)
    r = y
    for e in range(n - 1):
        sums[n - 1 - e] = big.vsum(r)
        r = big.vmul(r, a)
    coeffs = big.vmul(sums, big.p - 1)  # -1 has index p - 1 in every field
    coeffs[0] = big.sub(big.vsum(y), big.vsum(r))
    return Poly(big, coeffs.tolist())


def random_tables(sub, d, seed):
    """A seeded random permutation table and a seeded random map."""
    n = sub.q ** d
    rng = np.random.default_rng(seed)
    return (PermTable(sub, d, rng.permutation(n)),
            PermTable(sub, d, rng.integers(0, n, size=n)))

TOWERS = [(2, 1, 1), (2, 1, 2), (2, 2, 2), (3, 1, 3), (5, 1, 2), (2, 3, 2),
          (3, 2, 2), (2, 1, 6), (2, 2, 3)]  # (p, m_sub, d)


def test_basis_d1():
    bp = make_basis(F5, F5)
    assert bp.alpha == (1,) and bp.beta == (1,)
    assert bp.decode(bp.encode(3)) == 3


def test_dual_basis_property_exhaustive():
    for p, ms, d in TOWERS:
        sub = gf.field_new(p, ms)
        big = gf.field_new(p, ms * d)
        bp = make_basis(big, sub)
        for i in range(d):
            for j in range(d):
                tr = gf.trace(big, sub, big.mul(bp.alpha[i], bp.beta[j]))
                assert tr == (1 if i == j else 0)


def test_encode_decode_round_trip_exhaustive():
    for p, ms, d in TOWERS:
        sub = gf.field_new(p, ms)
        big = gf.field_new(p, ms * d)
        bp = make_basis(big, sub)
        for x in range(big.q):
            assert bp.decode(bp.encode(x)) == x


def test_encode_examples():
    bp = make_basis(F4, F2)
    assert bp.encode(0) == (0, 0)
    assert bp.decode((1, 0)) == bp.alpha[0]
    assert bp.decode((0, 1)) == bp.alpha[1]
    # encode is F_q-linear
    for x in range(4):
        for y in range(4):
            ex, ey = bp.encode(x), bp.encode(y)
            exy = bp.encode(F4.add(x, y))
            assert exy == tuple(F2.add(a, b) for a, b in zip(ex, ey))


def test_explicit_alpha_and_dependent_error():
    bp = make_basis(F4, F2, alpha=(2, 1))  # reversed polynomial basis
    assert bp.decode(bp.encode(3)) == 3
    with pytest.raises(DependentBasis):
        make_basis(F4, F2, alpha=(2, 2))
    with pytest.raises(DependentBasis):
        make_basis(F4, F2, alpha=(1,))


def test_to_univariate_identity_and_zero():
    bp = default_basis(F2, 2)
    e = PermTable.identity(F2, 2)
    assert to_univariate(bp, e) == Poly.t(bp.big)
    z = PermTable(F2, 2, [0, 0, 0, 0])
    assert to_univariate(bp, z) == Poly.zero(bp.big)


def test_to_univariate_reproduces_table():
    for sub, d, build in (
        (F2, 2, lambda: PermTable.from_matrix(companion(cyclotomic(3, F2)))),
        (F3, 2, lambda: PermTable.from_matrix(companion(cyclotomic(4, F3)))),
        (F4, 2, lambda: PermTable.from_matrix(companion(cyclotomic(3, F4)))),
        (F5, 2, lambda: from_fn(F5, 2, lambda v: (v[1], F5.mul(2, v[0])))),
    ):
        bp = default_basis(sub, d)
        tbl = build()
        pol = to_univariate(bp, tbl)
        sp = space(sub, d)
        for x in range(bp.big.q):
            want = tbl.table[sp.pack_point(bp.encode(x))]
            got = pol.eval_idx(x)
            assert bp.decode(sp.unpack_point(int(want))) == got


def test_additive_tables_are_linearized():
    # F_q-linear maps interpolate with support only on exponents q^k
    bp = default_basis(F2, 2)
    s = PermTable.from_matrix(companion(cyclotomic(3, F2)))
    pol = to_univariate(bp, s)
    support = {k for k, c in enumerate(pol.coeffs) if c}
    assert support <= {1, 2}  # q-polynomial over F_{2^2}
    # additive but not F_4-linear example over F_4^1: Frobenius
    bp4 = default_basis(F4, 1)
    frob = from_fn(F4, 1, lambda v: (F4.pow(v[0], 2),))
    polf = to_univariate(bp4, frob)
    sup = {k for k, c in enumerate(polf.coeffs) if c}
    assert sup <= {1, 2}  # p-power exponents


def test_to_univariate_mismatch_and_cap():
    bp = default_basis(F2, 2)
    with pytest.raises(CtxMismatch):
        to_univariate(bp, PermTable.identity(F2, 3))
    big_tbl = PermTable.identity(F2, 13)  # 8192 entries: fine as a table
    with pytest.raises(SizeCap):
        to_univariate(default_basis(F2, 13), big_tbl)


def _tower_id(value):
    return value.spec() if isinstance(value, gf.FieldCtx) else f"d{value}"


@pytest.mark.parametrize("sub,d", [(F2, 2), (F2, 5), (F3, 2), (F3, 3), (F4, 2),
                                   (F4, 3), (F5, 2), (F9, 2), (F3, 6), (F5, 1),
                                   (F7, 1)], ids=_tower_id)
def test_to_univariate_matches_naive_oracle(sub, d):
    # sub.m > 1 exercises the embedding; d = 1 over F_p is a prime big field.
    # The naive loop takes about 1 s on 729 points, so F_3^6 gets one table.
    bp = default_basis(sub, d)
    tables = random_tables(sub, d, seed=sub.q ** d + d)
    for tbl in tables[:1] if bp.big.q > 256 else tables:
        assert to_univariate(bp, tbl) == naive_to_univariate(bp, tbl)


@pytest.mark.parametrize("sub,d", [(F2, 1), (F2, 6), (F3, 4), (F4, 3), (F5, 1),
                                   (F5, 3), (F9, 2), (gf.field_new(2, 3), 2)],
                         ids=_tower_id)
def test_lift_tables_match_scalar_encode_decode(sub, d):
    bp = default_basis(sub, d)
    sp = space(sub, d)
    dec = _decode_table(bp)
    for v in range(sp.n):
        assert dec[v] == bp.decode(sp.unpack_point(v))
    for x in range(bp.big.q):
        assert dec[sp.pack_point(bp.encode(x))] == x


# Fields by the shape of M = N - 1, the transform's length: N = 2 (M = 1),
# prime M (F_2^7), two primes (F_2^9, F_2^11), a prime power times a prime
# (F_3^4), a large prime factor (F_3^7, F_4079), mixed radices (F_3, F_5^5,
# F_13^3, F_1019) and both fields at the cap.
@pytest.mark.parametrize("sub,d", [(F2, 1), (F3, 1), (F2, 7), (F2, 9), (F3, 4),
                                   (F2, 11), (F3, 7), (F5, 5),
                                   (gf.field_new(13), 3), (gf.field_new(1019), 1),
                                   (gf.field_new(4079), 1), (F2, 12), (F4, 6)],
                         ids=_tower_id)
def test_to_univariate_matches_recurrence_oracle(sub, d):
    bp = default_basis(sub, d)
    n = bp.big.q
    zero = PermTable(sub, d, np.zeros(n, dtype=np.int64))
    for tbl in (zero, PermTable.identity(sub, d), *random_tables(sub, d, seed=n)):
        assert to_univariate(bp, tbl) == recurrence_to_univariate(bp, tbl)
    assert to_univariate(bp, zero) == Poly.zero(bp.big)
    assert to_univariate(bp, PermTable.identity(sub, d)) == Poly.t(bp.big)


@pytest.mark.parametrize("sub,d", [(F2, 12), (F4, 6)], ids=_tower_id)
def test_to_univariate_at_cap(sub, d, monkeypatch):
    bp = default_basis(sub, d)
    n = bp.big.q
    assert n == 1 << 12
    tbl = random_tables(sub, d, seed=d)[0]
    calls = {"scalar": 0, "vmul": 0}

    def counted(fn, kind):
        def wrapper(*args):
            calls[kind] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(gf.FieldCtx, "mul", counted(gf.FieldCtx.mul, "scalar"))
    monkeypatch.setattr(gf.FieldCtx, "add", counted(gf.FieldCtx.add, "scalar"))
    monkeypatch.setattr(gf.FieldCtx, "vmul", counted(gf.FieldCtx.vmul, "vmul"))
    pol = to_univariate(bp, tbl)
    # a return of the N^2 scalar loop would make ~N^2 calls, not < 2N
    assert calls["scalar"] < 2 * n
    # the transform makes about one vmul per prime factor of N - 1 (their
    # sum is 31 at 4095 = 3^2*5*7*13); the N-step recurrence made N
    assert calls["vmul"] < 64
    monkeypatch.undo()
    assert len(pol.coeffs) <= n
    rng = np.random.default_rng(64)
    for x in rng.integers(0, n, size=64).tolist():
        assert pol.eval_idx(x) == lifted(bp, tbl, x)


def test_out_of_range_indices_raise():
    bp = default_basis(F2, 2)
    for bad in (-1, 4):
        with pytest.raises(ValueError, match="out of range"):
            bp.encode(bad)
    for coords in ((-1, 0), (0, 2)):
        with pytest.raises(ValueError, match="out of range"):
            bp.decode(coords)
    for alpha in ((1, -2), (1, 4)):
        with pytest.raises(ValueError, match="out of range"):
            make_basis(F4, F2, alpha=alpha)
