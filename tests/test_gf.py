import itertools
import random

import numpy as np
import pytest

from cppforge import gf
from cppforge.errors import (
    DegreeMismatch, DivisionByZero, InvalidSpec,
    NotASubfieldRelation, NotPrime, ReducibleModulus, SizeCap,
)

AXIOM_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (5, 2), (7, 2),
                (2, 4), (3, 3), (2, 6)]  # q <= 64


def brute_force_canonical_modulus(p, m):
    """Independent oracle: first irreducible in low-degree-first digit order,
    irreducibility by exhaustive divisor enumeration."""
    def poly_mod(a, b):
        a = a[:]
        while len(a) >= len(b) and any(a):
            while a and a[-1] == 0:
                a.pop()
            if len(a) < len(b):
                break
            shift = len(a) - len(b)
            c = a[-1] * pow(b[-1], p - 2, p) % p
            for i, cb in enumerate(b):
                a[shift + i] = (a[shift + i] - c * cb) % p
        while a and a[-1] == 0:
            a.pop()
        return a

    def divisors_exist(f):
        deg = len(f) - 1
        for ddeg in range(1, deg // 2 + 1):
            for low in itertools.product(range(p), repeat=ddeg):
                if not poly_mod(list(f), list(low) + [1]):
                    return True
        return False

    for low in itertools.product(range(p), repeat=m):
        cand = list(low) + [1]
        if not divisors_exist(cand):
            return tuple(cand)
    raise AssertionError("no irreducible found")


def schoolbook_mul(ctx, a, b):
    """Independent oracle: digit convolution reduced by the monic modulus."""
    p, m = ctx.p, ctx.m
    if m == 1:
        return a * b % p
    da = [a // p ** k % p for k in range(m)]
    db = [b // p ** k % p for k in range(m)]
    conv = [0] * (2 * m - 1)
    for i in range(m):
        for j in range(m):
            conv[i + j] += da[i] * db[j]
    for k in range(2 * m - 2, m - 1, -1):
        c = conv[k] % p
        for i, f in enumerate(ctx.modulus):
            conv[k - m + i] -= c * f
    return sum(conv[k] % p * p ** k for k in range(m))


def test_field_new_examples():
    f2 = gf.field_new(2, 1)
    assert f2.q == 2 and f2.modulus is None
    f4 = gf.field_new(2, 2)
    assert f4.q == 4 and f4.modulus == (1, 1, 1)  # t^2+t+1, the only choice
    f7 = gf.field_new(7, 1)
    assert f7.q == 7


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                 (3, 4), (5, 2), (7, 2), (2, 8)])
def test_canonical_modulus_matches_oracle(p, m):
    assert gf.field_new(p, m).modulus == brute_force_canonical_modulus(p, m)



# Recorded from the full lexicographic search, whose exhaustive-divisor
# oracle above is too slow at these degrees.
@pytest.mark.parametrize("p,m,modulus", [
    (2, 13, (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1)),
    (2, 16, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1)),
    (2, 20, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1)),
    (3, 12, (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1)),
    (5, 8, (1, 0, 0, 0, 0, 1, 1, 0, 1)),
    (7, 7, (1, 0, 0, 0, 0, 0, 6, 1)),
    (31, 4, (1, 0, 0, 1, 1)),
])
def test_canonical_modulus_pinned(p, m, modulus):
    assert gf._canonical_modulus(p, m) == modulus

def test_field_new_errors():
    with pytest.raises(NotPrime):
        gf.field_new(6, 1)
    with pytest.raises(ReducibleModulus):
        gf.field_new(2, 2, [1, 0, 1])  # t^2+1 = (t+1)^2
    with pytest.raises(DegreeMismatch):
        gf.field_new(2, 3, [1, 1, 1])  # degree 2 modulus for m=3
    with pytest.raises(ReducibleModulus):
        gf.field_new(2, 2, [1, 1, 2])  # non-monic after reduction (lead 0)


def test_arithmetic_examples():
    f4 = gf.field_new(2, 2)
    assert f4.mul(2, 2) == 3        # alpha * alpha = alpha + 1
    assert f4.inv(1) == 1
    f7 = gf.field_new(7)
    assert f7.mul(3, 5) == 1        # 15 mod 7
    assert f7.sub(0, 1) == 6
    assert f4.pow(2, 3) == 1        # alpha has order 3
    assert f4.pow(2, -1) == f4.inv(2)
    with pytest.raises(DivisionByZero):
        f4.inv(0)
    assert isinstance(DivisionByZero("x"), ZeroDivisionError)


@pytest.mark.parametrize("p,m", AXIOM_FIELDS)
def test_field_axioms_exhaustive(p, m):
    ctx = gf.field_new(p, m)
    q = ctx.q
    addt = np.array([[ctx.add(a, b) for b in range(q)] for a in range(q)])
    mult = np.array([[ctx.mul(a, b) for b in range(q)] for a in range(q)])
    idx = np.arange(q)
    # commutativity
    assert (addt == addt.T).all() and (mult == mult.T).all()
    # associativity over all triples
    assert (addt[addt[:, :, None], idx[None, None, :]]
            == addt[idx[:, None, None], addt[None, :, :]]).all()
    assert (mult[mult[:, :, None], idx[None, None, :]]
            == mult[idx[:, None, None], mult[None, :, :]]).all()
    # distributivity: a*(b+c) == a*b + a*c for every a over all (b, c)
    for a in range(q):
        assert (mult[a, addt] == addt[mult[a][:, None], mult[a][None, :]]).all()
    # inverses
    for a in range(1, q):
        assert ctx.mul(a, ctx.inv(a)) == 1
    # identities and negation
    assert (addt[0] == idx).all() and (mult[1] == idx).all()
    for a in range(q):
        assert ctx.add(a, ctx.neg(a)) == 0


@pytest.mark.parametrize("p,m", AXIOM_FIELDS)
def test_mul_matches_schoolbook_all_pairs(p, m):
    ctx = gf.field_new(p, m)
    for a in range(ctx.q):
        for b in range(ctx.q):
            assert ctx.mul(a, b) == schoolbook_mul(ctx, a, b)


@pytest.mark.parametrize("p,m", AXIOM_FIELDS + [(4093, 1)])
def test_array_ops_match_scalar_ops(p, m):
    ctx = gf.field_new(p, m)
    rng = random.Random(f"gf-arrays:{p}^{m}")
    a = [rng.randrange(ctx.q) for _ in range(2000)] + [0, 0, 1]
    b = [rng.randrange(ctx.q) for _ in range(2000)] + [0, 1, 0]
    got = ctx.vmul(np.array(a), np.array(b)).tolist()
    assert got == [ctx.mul(x, y) for x, y in zip(a, b)]
    for c in (0, 1, ctx.q - 1):
        assert ctx.vmul(np.array(a), c).tolist() == [ctx.mul(x, c) for x in a]
    for length in (0, 1, 2, 7, len(a)):
        want = 0
        for x in a[:length]:
            want = ctx.add(want, x)
        assert ctx.vsum(np.array(a[:length], dtype=np.int64)) == want


def test_array_product_refuses_int64_overflow():
    big_prime = gf.field_new(2 ** 31 + 11)
    with pytest.raises(SizeCap):
        big_prime.vmul(np.array([2]), np.array([3]))


@pytest.mark.parametrize("spec", ["2^12", "3^6", "5^4", "3^2/2,1,1"])
def test_mul_matches_schoolbook_sampled(spec):
    ctx = gf.parse_field_spec(spec)
    rng = random.Random(f"gf-oracle:{spec}")
    for _ in range(5000):
        a, b = rng.randrange(ctx.q), rng.randrange(ctx.q)
        assert ctx.mul(a, b) == schoolbook_mul(ctx, a, b)


def test_f9_with_non_primitive_u():
    # modulus t^2 + 1: u = t (index 3) has order 4, so the tables need a
    # primitive element other than u
    ctx = gf.parse_field_spec("3^2")
    assert ctx.modulus == (1, 0, 1)
    assert ctx.pow(3, 4) == 1 and ctx.pow(3, 2) != 1
    assert sorted(ctx.pow(4, k) for k in range(8)) == list(range(1, 9))
    for a in range(1, 9):
        assert schoolbook_mul(ctx, a, ctx.inv(a)) == 1


def test_inv_and_negative_pow_f4096():
    ctx = gf.field_new(2, 12)
    for a in range(1, ctx.q):
        assert schoolbook_mul(ctx, a, ctx.inv(a)) == 1
    rng = random.Random("gf-negative-pow")
    for _ in range(200):
        a, k = rng.randrange(1, ctx.q), rng.randrange(1, 3 * ctx.q)
        power = 1
        for bit in bin(k)[2:]:
            power = schoolbook_mul(ctx, power, power)
            if bit == "1":
                power = schoolbook_mul(ctx, power, a)
        assert ctx.pow(a, k) == power
        assert schoolbook_mul(ctx, ctx.pow(a, -k), power) == 1
    assert ctx.pow(2, -1) == ctx.inv(2)


@pytest.mark.parametrize("p,m", [(2, 1), (7, 1), (2, 2), (2, 3), (3, 2), (5, 2)])
def test_pow_matches_repeated_mul(p, m):
    # every a and every n in [-(q-1), 2q]: a^n by repeated mul of a, and of
    # 1/a for negative n; 0^0 = 1, 0^n = 0 and 0^-n has no value
    ctx = gf.field_new(p, m)
    for a in range(ctx.q):
        up, down = [1], [1]
        for _ in range(2 * ctx.q):
            up.append(ctx.mul(up[-1], a))
            if a:
                down.append(ctx.mul(down[-1], ctx.inv(a)))
        for n in range(2 * ctx.q + 1):
            assert ctx.pow(a, n) == up[n]
        for n in range(1, ctx.q):
            if a:
                assert ctx.pow(a, -n) == down[n]
            else:
                with pytest.raises(DivisionByZero):
                    ctx.pow(a, -n)
    assert ctx.pow(0, 0) == 1 and ctx.pow(0, 1) == ctx.pow(0, 5) == 0


def test_pow_in_a_large_prime_field():
    p = (1 << 61) - 1
    ctx = gf.field_new(p)
    for a in (1, 2, 3, 12345, p - 1):
        assert ctx.pow(a, p - 1) == 1
    assert ctx.pow(2, 61) == 1 and ctx.pow(0, 0) == 1 and ctx.pow(0, p) == 0
    assert ctx.mul(ctx.pow(3, -5), ctx.pow(3, 5)) == 1
    with pytest.raises(DivisionByZero):
        ctx.pow(0, -1)


def test_extension_field_cap():
    with pytest.raises(SizeCap):
        gf.field_new(2, 21)
    with pytest.raises(SizeCap):
        gf.field_new(1031, 2)   # 1031^2 > 2^20
    assert gf.TABLE_CAP == 1 << 20
    assert gf.field_new(1031).q == 1031  # prime fields have no tables


@pytest.mark.parametrize("p,m", AXIOM_FIELDS)
def test_frobenius_is_additive(p, m):
    ctx = gf.field_new(p, m)
    for a in range(ctx.q):
        for b in range(ctx.q):
            assert ctx.pow(ctx.add(a, b), p) == ctx.add(ctx.pow(a, p), ctx.pow(b, p))


def test_trace_examples():
    f4, f2 = gf.field_new(2, 2), gf.field_new(2)
    assert gf.trace(f4, f2, 0) == 0
    assert gf.trace(f4, f2, 2) == 1       # alpha + alpha^2 = 1
    # Tr(1) = d * 1
    f16 = gf.field_new(2, 4)
    assert gf.trace(f16, f4, 1) == 0      # d = 2, char 2
    f27, f3 = gf.field_new(3, 3), gf.field_new(3)
    assert gf.trace(f27, f3, 1) == 0      # 3 * 1 = 0 mod 3
    f25, f5 = gf.field_new(5, 2), gf.field_new(5)
    assert gf.trace(f25, f5, 1) == 2


def test_trace_not_a_subfield():
    with pytest.raises(NotASubfieldRelation):
        gf.trace(gf.field_new(2, 4), gf.field_new(2, 3), 1)
    with pytest.raises(NotASubfieldRelation):
        gf.trace(gf.field_new(2, 2), gf.field_new(3), 1)


TOWERS = [(2, 1, 6), (2, 2, 4), (2, 2, 6), (3, 1, 4), (5, 1, 2), (2, 3, 6),
          (3, 2, 4), (2, 1, 12)]


@pytest.mark.parametrize("p,ms,mb", TOWERS)
def test_trace_linear_and_surjective(p, ms, mb):
    sub, big = gf.field_new(p, ms), gf.field_new(p, mb)
    emb = gf.subfield_embedding(big, sub)
    traces = [gf.trace(big, sub, x) for x in range(big.q)]
    # surjective onto the subfield
    assert set(traces) == set(range(sub.q))
    # scalar pull-out over every (c, x)
    if big.q <= 512:
        xs = range(big.q)
    else:
        xs = range(0, big.q, 7)
    for c in range(sub.q):
        ec = emb[c]
        for x in xs:
            assert gf.trace(big, sub, big.mul(ec, x)) == \
                sub.mul(c, traces[x])
    # additivity against an F_p spanning set
    for k in range(big.m):
        b = p ** k
        tb = traces[b]
        for x in xs:
            assert traces[big.add(x, b)] == sub.add(traces[x], tb)


def test_field_spec_strings():
    assert gf.parse_field_spec("7^1").q == 7
    assert gf.parse_field_spec("7").q == 7
    f4 = gf.parse_field_spec("2^2/1,1,1")
    assert f4.key == gf.field_new(2, 2).key
    assert gf.field_new(3, 2).spec() == "3^2"
    # t^2+1 is the canonical F_9 modulus, so the short form comes back
    assert gf.field_new(3, 2, [1, 0, 1]).spec() == "3^2"
    # a genuinely non-canonical modulus renders explicitly and round-trips
    f9 = gf.field_new(3, 2, [2, 1, 1])  # t^2+t+2, irreducible over F_3
    assert f9.spec() == "3^2/2,1,1"
    assert gf.parse_field_spec(f9.spec()).key == f9.key
    for bad in ("abc", "2^", "2^2/1,x"):
        with pytest.raises(InvalidSpec):
            gf.parse_field_spec(bad)
    assert issubclass(InvalidSpec, ValueError)


def test_field_spec_convention_pinned():
    # the README's field-spec convention: modulus digits are read mod p, and
    # an empty modulus is no modulus.  Refusing either would change outputs
    f9 = gf.parse_field_spec("3^2/4,3,1")
    assert f9.modulus == (1, 0, 1) and f9.spec() == "3^2"
    assert f9.key == gf.parse_field_spec("3^2/1,0,1").key
    assert gf.field_args("3^2/4,3,1") == (3, 2, (1, 0, 1))
    assert gf.parse_field_spec("2^1/") is gf.field_new(2)
    assert gf.field_args("2^1/") == (2, 1, None)
    assert gf.parse_field_spec("2^2/").spec() == "2^2"
    # the checks are those of field_new, made before anything is built
    for spec, err in (("0^2/1,1", NotPrime), ("2^2/1,1", DegreeMismatch),
                      ("2^1/1,1", DegreeMismatch), ("2^21", SizeCap),
                      ("2^2/1,0,1", ReducibleModulus), ("2^", InvalidSpec)):
        with pytest.raises(err):
            gf.field_args(spec)


def test_field_from_order():
    assert gf.field_from_order(8).key == gf.field_new(2, 3).key
    assert gf.field_from_order(49).key == gf.field_new(7, 2).key
    assert gf.field_from_order(2 ** 61 - 1).key == gf.field_new(2 ** 61 - 1).key
    for q, err, msg in ((12, NotPrime, "12 is not a prime power"),
                        (0, NotPrime, "0 is not prime"),
                        (1, NotPrime, "1 is not prime"),
                        (1 << 21, SizeCap, "F_2^21 has 2^21 elements, above the "
                                           "1048576 extension field cap")):
        with pytest.raises(err) as info:
            gf.field_from_order(q)
        assert str(info.value) == msg, q


def _trial_division(n):
    """Oracle: the prime factors of n >= 1, dividing by every f up to sqrt(n)."""
    out, f = [], 2
    while f * f <= n:
        while n % f == 0:
            out.append(f)
            n //= f
        f += 1
    return out + [n] if n > 1 else out


def test_factor_and_is_prime_match_trial_division():
    # 2047 = 23 * 89 is the least strong pseudoprime to base 2
    for n in range(1, 20000):
        want = _trial_division(n)
        assert gf.factor(n) == want, n
        assert gf.is_prime(n) == (want == [n]), n
    assert not any(gf.is_prime(n) for n in (0, -1, -2, -7))


# the least strong pseudoprimes to all of the bases 2..7, 2..19 and 2..31
_STRONG_PSEUDOPRIMES = (3215031751, 341550071728321, 3825123056546413051)


def test_factor_and_is_prime_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2017)
    ns = [rng.randrange(2, 10 ** 12) for _ in range(200)]
    ns += [10 ** 18 + 2, 10 ** 18 + 3, 2 ** 61 - 1, *_STRONG_PSEUDOPRIMES]
    # two or three large prime factors, which Pollard's rho splits
    ns += [1000000007 * 1000000009, (2 ** 31 - 1) ** 2, 1000003 * 1000033 * 1000037,
           (2 ** 31 - 1) * (2 ** 61 - 1)]
    for n in ns:
        want = [p for p, e in sorted(sympy.factorint(n).items()) for _ in range(e)]
        assert gf.factor(n) == want, n
        assert gf.is_prime(n) == bool(sympy.isprime(n)), n
