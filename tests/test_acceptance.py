"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 6 contains one expected-red case: the catalogued claim p4.4.2 is
refuted by brute force (see the registry statement and the p4.4.2 regression
tests); its grid points report FAIL with a concrete witness, so the
corresponding parametrized case below fails honestly rather than being
masked.
"""

import io
import time
from random import Random

import pytest

from cppforge import construct, gf, verify
from cppforge.fieldext import default_basis, to_univariate
from cppforge.linalg import Mat, char_poly, eval_poly_at_matrix, random_matrix
from cppforge.perm import PermTable, space
from cppforge.poly import Poly, cyclotomic

ACCEPT_FIELDS = [gf.field_new(*pm) for pm in
                 ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))]

_c6_elapsed: list[float] = []


def _report(name: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.2f}s){' ' + detail if detail else ''}")


def totient(n: int) -> int:
    import math

    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_criterion_1_cyclotomic_identity():
    t0 = time.perf_counter()
    for ctx in ACCEPT_FIELDS:
        for n in range(1, 31):
            if n % ctx.p == 0:
                continue
            prod = Poly.one(ctx)
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic(d, ctx)
            assert prod == Poly.x_pow_n_minus_1(ctx, n), (ctx.spec(), n)
            assert cyclotomic(n, ctx).degree == totient(n), (ctx.spec(), n)
    elapsed = time.perf_counter() - t0
    _report("criterion-1 cyclotomic-identity", elapsed < 1.0, elapsed)
    assert elapsed < 1.0


def test_criterion_2_cayley_hamilton():
    t0 = time.perf_counter()
    for ctx in ACCEPT_FIELDS:
        for d in range(2, 7):
            rng = Random(f"accept-ch:{ctx.spec()}:{d}")
            zero = Mat.zero(ctx, d)
            for _ in range(200):
                m = random_matrix(ctx, d, rng)
                assert eval_poly_at_matrix(char_poly(m), m) == zero
    elapsed = time.perf_counter() - t0
    _report("criterion-2 cayley-hamilton", elapsed < 5.0, elapsed,
            "7 fields x d in 2..6 x 200 matrices")
    assert elapsed < 5.0


def test_criterion_3_quartet_exhaustive():
    t0 = time.perf_counter()
    grid = [{"field": fs, "deg": d}
            for fs in ("2^1", "3^1", "2^2", "5^1") for d in (2, 3, 4)]
    for part in (1, 2, 3, 4):
        reports = verify.verify_claim(f"thm3.1.{part}", grid=grid,
                                      cap=1 << 12, master_seed=42)
        for rep in reports:
            assert rep.verdict == "pass", (part, rep.params, rep.witness)
    elapsed = time.perf_counter() - t0
    _report("criterion-3 quartet", elapsed < 60.0, elapsed,
            "all monic h, deg 2..4, q in {2,3,4,5}, companion + conjugate")
    assert elapsed < 60.0


def test_criterion_4_regularity_with_census():
    t0 = time.perf_counter()
    for cid in ("p3.2", "p3.5", "p3.8"):
        reports = verify.verify_claim(cid, grid=verify.REGISTRY[cid].full,
                                      cap=1 << 16, master_seed=42)
        passes = 0
        seen_r = set()
        for rep in reports:
            assert rep.verdict != "fail", (cid, rep.params, rep.witness)
            if rep.verdict == "pass":
                passes += 1
                seen_r.add(rep.params["r"])
        assert seen_r >= {4, 6, 8, 9, 10}, cid
    elapsed = time.perf_counter() - t0
    _report("criterion-4 regular-census", True, elapsed)


def test_criterion_5_non_regularity_witnesses():
    t0 = time.perf_counter()
    cases = [("p3.3", {"field": "2^1", "r": 9}),
             ("p3.3", {"field": "2^1", "r": 15}),
             ("p3.3", {"field": "5^1", "r": 9}),
             ("p3.9", {"field": "5^1", "r": 4}),
             ("p3.9", {"field": "2^1", "r": 15})]
    for cid, point in cases:
        (rep,) = verify.verify_claim(cid, grid=[point], cap=1 << 20,
                                     master_seed=42)
        assert rep.verdict == "pass", (cid, point, rep.witness)
        assert rep.witness is not None and "cycle" in rep.witness, (cid, point)
        length = rep.witness["cycle_length"]
        assert 1 < length < point["r"] and point["r"] % length == 0
    elapsed = time.perf_counter() - t0
    _report("criterion-5 short-cycle-witnesses", True, elapsed)


_P4_CLAIMS = sorted(c for c in verify.REGISTRY if c.startswith("p4."))


@pytest.mark.parametrize("cid", _P4_CLAIMS)
def test_criterion_6_section4_sweep(cid):
    t0 = time.perf_counter()
    reports = verify.verify_claim(cid, cap=1 << 20, master_seed=42,
                                  profile="quick")
    elapsed = time.perf_counter() - t0
    _c6_elapsed.append(elapsed)
    passes = sum(r.verdict == "pass" for r in reports)
    fails = [(r.params, r.witness) for r in reports if r.verdict == "fail"]
    _report(f"criterion-6 {cid}", not fails and passes > 0, elapsed)
    assert not fails, (
        f"{cid}: claimed conclusion refuted by brute force at {fails[0][0]}; "
        f"witness {fails[0][1]}")
    assert passes > 0, f"{cid}: no grid point ran"


def test_criterion_6_total_runtime():
    total = sum(_c6_elapsed)
    _report("criterion-6 total-runtime", total < 120.0, total)
    assert total < 120.0


def _sweep_instances():
    """Named-construction instances from the criterion-6 grids (q^d <= 2^12)."""
    out = []
    for cid in _P4_CLAIMS:
        for point in verify.REGISTRY[cid].quick:
            ctx = gf.parse_field_spec(point["field"])
            params = {"field": ctx, "seed": 42}
            if "r" in point:
                params["r"] = point["r"]
            build_id = cid
            if cid.startswith("p4.10"):
                build_id = "p4.10"
            try:
                spec = construct.named_construction(build_id, params)
            except Exception:
                continue  # hypothesis-violating grid point (e.g. p4.1.2 at q=7)
            if ctx.q ** spec.d > (1 << 12):
                continue
            out.append((cid, spec))
    return out


def test_criterion_7_univariate_export():
    t0 = time.perf_counter()
    additive_claims = {"p4.1.1", "p4.1.2", "p4.2.1", "p4.4.1", "p4.6", "p4.7"}
    seen = 0
    biggest = 0
    for cid, spec in _sweep_instances():
        tbl = construct.build(spec)
        bp = default_basis(spec.field, spec.d)
        pol = to_univariate(bp, tbl)
        sp = space(spec.field, spec.d)
        n = bp.big.q
        biggest = max(biggest, n)
        for x in range(n):
            want = bp.decode(sp.unpack_point(
                int(tbl.table[sp.pack_point(bp.encode(x))])))
            assert pol.eval_idx(x) == want, (cid, x)
        if cid in additive_claims:
            p = spec.field.p
            powers = {p ** k for k in range(bp.big.m)} | {0}
            support = {k for k, c in enumerate(pol.coeffs) if c}
            assert support <= powers, (cid, sorted(support))
        seen += 1
    elapsed = time.perf_counter() - t0
    _report("criterion-7 univariate-export", elapsed < 60.0, elapsed,
            f"{seen} instances, largest field {biggest}")
    assert seen >= 30 and elapsed < 60.0


def test_criterion_8_mutation_sensitivity():
    t0 = time.perf_counter()
    spec = construct.named_construction("p4.3", {"q": 2, "seed": 42})
    tbl = construct.build(spec)
    assert tbl.is_cpp() and tbl.is_r_regular(5)
    n = tbl.n
    base = tbl.table.tolist()
    for i in range(n):
        for v in range(n):
            if v == base[i]:
                continue
            mutated = list(base)
            mutated[i] = v
            mt = PermTable(spec.field, spec.d, mutated)
            ok = mt.bijective and mt.is_cpp() and mt.is_r_regular(5)
            assert not ok, f"mutation ({i} -> {v}) went undetected"
    elapsed = time.perf_counter() - t0
    _report("criterion-8 mutation-sensitivity", True, elapsed,
            f"{n * (n - 1)} mutants")


def test_criterion_9_deterministic_streams():
    import contextlib

    from cppforge.cli import main

    t0 = time.perf_counter()
    argv = ["verify", "all", "--profile", "quick", "--seed", "42",
            "--format", "json"]
    streams = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(argv)
        streams.append(buf.getvalue())
    ok = streams[0] == streams[1] and len(streams[0]) > 0
    elapsed = time.perf_counter() - t0
    _report("criterion-9 determinism", ok, elapsed,
            f"{len(streams[0])} bytes per stream")
    assert ok
