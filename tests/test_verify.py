import hashlib
import io
import json
import time
import tracemalloc
from dataclasses import replace
from random import Random

import numpy as np
import pytest

import cppforge
from cppforge import construct, fieldext, gf, linalg, perm, poly, verify
from cppforge.errors import InvalidSpec, UnknownClaim
from cppforge.linalg import Mat
from cppforge.gf import field_new, parse_field_spec
from cppforge.perm import PermTable
from cppforge.poly import Poly, cyclotomic, gcd, irreducible_factors

EXPECTED_CLAIMS = {
    "thm3.1.1", "thm3.1.2", "thm3.1.3", "thm3.1.4",
    "thm3.2.1", "thm3.2.2", "thm3.2.3", "thm3.2.4",
    "thm3.3.1", "thm3.3.2",
    "p3.1", "p3.2", "p3.3", "p3.4", "p3.5", "p3.6", "p3.7", "p3.8", "p3.9",
    "p4.1.1", "p4.1.2", "p4.1.3", "p4.1.3m", "p4.1.4",
    "p4.2.1", "p4.2.2", "p4.2.3",
    "p4.3",
    "p4.4.1", "p4.4.2", "p4.4.3",
    "p4.5",
    "p4.6", "p4.7",
    "p4.8.1", "p4.8.2", "p4.9.1", "p4.9.2",
    "p4.10.1", "p4.10.2", "p4.10.3",
}

# the single catalogued claim that brute force refutes (see the registry
# statement for p4.4.2)
KNOWN_FALSE = {"p4.4.2"}

# sha256 of the verify_all("quick", master_seed=42) JSON-line stream, and of
# every section-4 quick-grid report line (seed 42) with each built table
# sabotaged by t[0] = t[1] (construct.build then, each row of
# construct.build_rows now).  Both were recorded before the section-4 checks
# became one declarative table; a changed verdict, witness or work count of
# any claim changes them.
QUICK_42_SHA256 = "8580b055bbf9684e8dd6ad1f1b47ec40cb2bd1a668b3c8ac06e5e6762a5be33a"
SABOTAGED_P4_SHA256 = "f6d9a98362b9fb464a26adde63aa9999ca88bdcb0aa24d41370b7ce9826e23e9"

# sha256 of the full-grid report lines (seed 42) of the ten theorem claims,
# 96 points.  Recorded while the orders of parts 2 and 4 came from a scalar
# loop per polynomial, before they became one array per (field, degree,
# shift).
THM_FULL_42_SHA256 = "9c81458b3758d122b400ef5d712e6f54d67734532a07e2a30600588085bf678c"

# sha256 of every theorem and section-3 quick-grid report line (seed 42) under
# each sabotage of test_section3_and_theorem_fail_witnesses_pinned, with the
# number of the 119 points that fail.  Recorded before the theorem and
# section-3 checks joined the claim table.  "square" (from_matrix returns
# sigma_M o sigma_M, which reaches the off-length cycle witnesses) was
# recorded with the pure-Python cycle walks of perm.
SABOTAGED_NON_P4 = {
    "from_matrix": (102, "430c18e7e0f42afb7e30f43329a4e48cf8e65e67376d5bcc024d94104ab97d08"),
    "npower": (90, "ccf2fbb2375a11699502accf8e963ef5162202bd52d3f2588ce8aa5927f8c32a"),
    "companion": (118, "a4789d370d14268d4b58e49046652ef2895c9ca2a7e780a8a054b7e9ee24d6c4"),
    "square": (37, "afe00e0e55dd891a9a9b6b833e34f60b612a8a0ac1c4f46989f601ab88a815b8"),
}

# sha256 of the full-grid report lines (seed 42) of the nine section-3
# claims, 97 points.  Recorded while every instance built and checked its own
# table, before the sweeps stacked the instances of a degree in blocks.
P3_FULL_42_SHA256 = "1e47dcc2361823b54a480102d85e076c75453e61d03888239f31ad17f428b090"

# The number of the 51 section-4 quick-grid points (seed 42) that fail under
# the "square" sabotage (sigma_M o sigma_M in place of sigma_M), and the
# sha256 of all their report lines.  Recorded with the pure-Python cycle
# walks of perm, while construct.build took sigma_M from
# PermTable.from_matrix.
SQUARED_P4 = (12, "1ab1a61d7b5975f5cb0e6c58975b6c70d69ce95977e6895a9fb1d2dfcaef690e")

# sha256 of the full-grid report lines (seed 42) of the 22 section-4
# claims, 52 points.  Recorded while every case built its own PermTable
# through construct.build and was judged by PermTable methods.
P4_FULL_42_SHA256 = "c15c183240f8af3614b3366f7f3f58e4a50aa5255fcbbb1b54611330e81afcc2"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


_REAL_MATRIX_TABLES = verify.matrix_tables


def _square(t):
    """Sabotage: sigma o sigma, still bijective, with off-length cycles."""
    return t[t]


def _rowwise(edit, real):
    """The stacked version of a table sabotage: ``edit`` applied to each row
    of what ``real`` returns."""
    def stacked(*args):
        out = real(*args).copy()
        for i in range(len(out)):
            out[i] = edit(out[i])
        return out
    return stacked


def test_registry_is_complete_with_quick_grids():
    assert set(verify.REGISTRY) == EXPECTED_CLAIMS
    for cid, claim in verify.REGISTRY.items():
        assert claim.quick, f"{cid} has no quick grid"
        assert claim.statement
        assert all(pt in claim.full for pt in claim.quick), cid


def test_traceability_listing():
    rows = verify.claims()
    assert {r["claim"] for r in rows} == EXPECTED_CLAIMS
    assert all(r["quick_points"] >= 1 for r in rows)


def test_verify_claim_p411_grid():
    reports = verify.verify_claim(
        "p4.1.1", grid=[{"field": "2^1"}, {"field": "2^2"}, {"field": "7^1"}])
    assert [r.verdict for r in reports] == ["pass"] * 3


def test_verify_claim_p4103_witness():
    reports = verify.verify_claim("p4.10.3", grid=[{"field": "2^1", "r": 9}])
    (rep,) = reports
    assert rep.verdict == "pass"
    assert rep.witness and rep.witness["cycle_length"] in (3,)
    assert 9 % rep.witness["cycle_length"] == 0


def test_verify_claim_p422_includes_cube_map():
    (rep,) = verify.verify_claim("p4.2.2", grid=[{"field": "5^1"}])
    assert rep.verdict == "pass"  # checker exercises a = x^3 internally


def test_unknown_claim():
    with pytest.raises(UnknownClaim):
        verify.verify_claim("nosuch")
    with pytest.raises(UnknownClaim):
        verify.expand_claim_id("p99")


def test_unknown_profile_is_invalid_spec():
    with pytest.raises(InvalidSpec, match="unknown profile 'ful'"):
        verify.verify_claim("p4.3", profile="ful")
    stream = io.StringIO()
    with pytest.raises(InvalidSpec):
        verify.verify_all(profile="ful", stream=stream)
    assert stream.getvalue() == ""


@pytest.mark.parametrize("cid,point,missing", [
    ("p3.1", {"field": "2^1"}, "r"),
    ("p4.10.1", {"field": "2^1"}, "r"),
    ("thm3.1.1", {"field": "2^1"}, "deg"),
    ("p4.3", {"q": 2}, "field"),
])
def test_grid_point_lacking_a_key_is_invalid_spec(cid, point, missing):
    # the keys the claim's own grid points have, named before the point runs
    with pytest.raises(InvalidSpec, match=f"lacks {missing}$"):
        verify.verify_claim(cid, grid=[point])


def test_expand_claim_id():
    assert verify.expand_claim_id("p4.10") == ["p4.10.1", "p4.10.2", "p4.10.3"]
    assert verify.expand_claim_id("p4.3") == ["p4.3"]


def test_hypothesis_skip_verdict():
    (rep,) = verify.verify_claim("p4.1.1", grid=[{"field": "3^1"}])
    assert rep.verdict == "hypothesis-skipped"
    assert "characteristic" in rep.witness["reason"]
    (rep,) = verify.verify_claim("p4.10.2", grid=[{"field": "2^1", "r": 9}])
    assert rep.verdict == "hypothesis-skipped"


THM_IDS = sorted(c for c in verify.REGISTRY if c.startswith("thm3."))


@pytest.mark.parametrize("cid", THM_IDS)
def test_theorem_point_over_the_squared_cap_is_skipped_at_once(monkeypatch, cid):
    # a theorem point builds q^deg tables of q^deg entries, and the orders of
    # parts 2 and 4 take as long: F_2^8 with deg 2 is 2^32 entries, skipped
    # before any order is computed; F_2^5 (2^20 entries) still runs
    def no_orders(*args):
        raise AssertionError("monic_orders ran")

    monkeypatch.setattr(verify, "monic_orders", no_orders)
    for field in ("2^6", "2^8"):
        t0 = time.perf_counter()
        (rep,) = verify.verify_claim(cid, grid=[{"field": field, "deg": 2}], profile="full")
        assert time.perf_counter() - t0 < 1
        assert rep.verdict == "hypothesis-skipped" and rep.work == 0
        assert rep.witness["reason"].startswith("q^(2 deg) = ")
    monkeypatch.undo()
    (rep,) = verify.verify_claim(cid, grid=[{"field": "2^5", "deg": 2}], profile="full")
    assert rep.verdict == "pass"


def test_section3_point_with_no_instance_under_the_cap_builds_no_field(monkeypatch):
    # a regular sweep's instances have q^deg(h) >= q, a negative sweep's (two
    # factors or more) q^deg(h) >= q^2: a point over the cap there is
    # skipped before field_new, with the line its sweep ends with.  F_2^20
    # took about 1.5 s to build for that line
    def no_field(*args):
        raise AssertionError("field_new ran")

    negative = {"p3.3", "p3.6", "p3.9"}
    points = [(cid, {"field": "2^7" if cid in negative else "2^13",
                     "r": 3 if cid in ("p3.1", "p3.4", "p3.7") else 9})
              for cid in sorted(c for c in verify.REGISTRY if c.startswith("p3."))]
    points.append(("p3.1", {"field": "2^20", "r": 3}))
    skipped = (verify.SKIP, {"reason": "all instances exceed the size cap"}, 0)
    for cid, point in points:
        with monkeypatch.context() as mp:
            mp.setattr(verify, "field_new", no_field)
            (rep,) = verify.verify_claim(cid, grid=[point])
        assert (rep.verdict, rep.witness, rep.work) == skipped, cid
        if point["field"] != "2^20":  # the sweep itself, with no early skip
            row = replace(verify.REGISTRY[cid], least_d=0)
            rng = verify._rng_for(verify.DEFAULT_SEED, cid, point)
            assert verify._run(cid, row, dict(point), rng, 1 << 12) == skipped, cid
    # at q = cap (regular) and q^2 = cap (negative) the points still run
    for cid, field in (("p3.1", "2^12"), ("p3.6", "2^6")):
        (rep,) = verify.verify_claim(cid, grid=[{"field": field, "r": 3 if cid == "p3.1" else 9}])
        assert rep.verdict == verify.PASS and rep.work > 0, cid


def test_reports_replay_bit_for_bit():
    for cid, grid in (("p4.3", None), ("p3.2", [{"field": "3^1", "r": 4}]),
                      ("thm3.2.3", [{"field": "2^2", "deg": 2}])):
        a = verify.verify_claim(cid, grid=grid, master_seed=7)
        b = verify.verify_claim(cid, grid=grid, master_seed=7)
        assert [r.to_json_line() for r in a] == [r.to_json_line() for r in b]


def test_report_json_shape():
    (rep,) = verify.verify_claim("p4.3", grid=[{"field": "2^1"}])
    data = json.loads(rep.to_json_line())
    assert data["schema"] == "cppforge/1"
    assert set(data) == {"schema", "claim", "params", "verdict", "witness", "work"}
    assert "elapsed" not in data
    assert data["work"] > 0


def test_verify_all_quick_outcome():
    buf = io.StringIO()
    summary = verify.verify_all("quick", master_seed=42, stream=buf)
    # every registered claim ran; the only failures are the known-false claim
    failed_claims = {line.split(" ")[0] for line in summary["failed"]}
    assert failed_claims == KNOWN_FALSE
    assert summary["pass"] > 150
    lines = buf.getvalue().splitlines()
    assert len(lines) == summary["points"] + 1  # reports + summary line
    # at least one non-skipped grid point per claim
    by_claim = {}
    for line in lines[:-1]:
        rec = json.loads(line)
        by_claim.setdefault(rec["claim"], []).append(rec["verdict"])
    assert set(by_claim) == EXPECTED_CLAIMS
    for cid, verdicts in by_claim.items():
        assert any(v != "hypothesis-skipped" for v in verdicts), cid


def test_verify_all_stream_determinism():
    a, b = io.StringIO(), io.StringIO()
    verify.verify_all("quick", master_seed=42, stream=a)
    verify.verify_all("quick", master_seed=42, stream=b)
    assert a.getvalue() == b.getvalue()


def test_verify_all_quick_stream_pinned():
    buf = io.StringIO()
    verify.verify_all("quick", master_seed=42, stream=buf)
    assert _sha256(buf.getvalue()) == QUICK_42_SHA256


def test_verify_makes_no_pointer_jumping_pass(monkeypatch):
    # sigma^r = e, regularity, the census and every witness are read from
    # powers of sigma (perm.power_lengths_rows): with the pointer-jumping
    # census made to raise, the quick stream is unchanged and the
    # exploratory sweep still runs
    def no_census(tables):
        raise AssertionError("verify made a pointer-jumping pass")

    monkeypatch.setattr(perm, "cycle_lengths_rows", no_census)
    buf = io.StringIO()
    verify.verify_all("quick", master_seed=42, stream=buf)
    assert _sha256(buf.getvalue()) == QUICK_42_SHA256
    assert len(verify.explore_quadratic(5, "2^2", count=3, seed=1)) == 3


def test_theorem_full_stream_pinned():
    lines = _theorem_full_lines()
    assert len(lines) == 96
    assert _sha256("\n".join(lines)) == THM_FULL_42_SHA256


def _theorem_full_lines():
    return [rep.to_json_line()
            for cid in sorted(c for c in verify.REGISTRY if c.startswith("thm3."))
            for rep in verify.verify_claim(cid, master_seed=42, profile="full")]


def test_theorem_full_stream_pinned_across_block_boundaries(monkeypatch):
    # the sweeps stack the monic h in row blocks of at most _BLOCK table
    # entries; with 2000, each point of more than 44 h has several blocks,
    # the last one ragged, and the stream must not change
    bound = 2000
    monkeypatch.setattr(verify, "_BLOCK", bound)
    ragged = set()
    for cid in ("thm3.1.1", "thm3.2.1"):
        for point in verify.REGISTRY[cid].full:
            count = parse_field_spec(point["field"]).q ** point["deg"]
            rows = max(1, bound // count)
            if count > rows and count % rows:
                ragged.add((point["field"], point["deg"]))
    assert len(ragged) >= 5
    lines = _theorem_full_lines()
    assert len(lines) == 96
    assert _sha256("\n".join(lines)) == THM_FULL_42_SHA256


def _claim_lines(prefix, profile):
    return [rep.to_json_line()
            for cid in sorted(c for c in verify.REGISTRY if c.startswith(prefix))
            for rep in verify.verify_claim(cid, master_seed=42, profile=profile)]


def test_section4_full_stream_pinned():
    lines = _claim_lines("p4.", "full")
    assert len(lines) == 52
    assert _sha256("\n".join(lines)) == P4_FULL_42_SHA256


def test_section3_full_stream_pinned(monkeypatch):
    # each Q_l is factored once per field and process, however many points
    # and claims ask for it
    factored = []

    def counted(f):
        factored.append((f.ctx.key, tuple(f.coeffs)))
        return irreducible_factors(f)

    monkeypatch.setattr(verify, "irreducible_factors", counted)
    verify._factors_of_cyclotomic.cache_clear()
    lines = _claim_lines("p3.", "full")
    assert len(lines) == 97
    assert _sha256("\n".join(lines)) == P3_FULL_42_SHA256
    assert len(factored) == len(set(factored)) == 37


@pytest.mark.parametrize("bound", [1, 1 << 20])
def test_section3_streams_pinned_across_block_bounds(monkeypatch, bound):
    # a bound of 1 makes every instance a block of one; 2^20 puts each
    # degree of a section-3 point, and every case of a section-4 point, in
    # one block.  perm.add_rows slices sigma + e by its own width, whatever
    # the bound
    quick = _claim_lines("p3.", "quick")
    monkeypatch.setattr(verify, "_BLOCK", bound)
    assert _claim_lines("p3.", "quick") == quick
    assert _sha256("\n".join(_claim_lines("p3.", "full"))) == P3_FULL_42_SHA256
    assert _sha256("\n".join(_claim_lines("p4.", "full"))) == P4_FULL_42_SHA256


def test_theorem_sweeps_build_no_table_per_polynomial(monkeypatch):
    # the sweeps build their tables as stacks; the PermTables left are the
    # fixed ones of a point (S and S^-1, or tau1, tau2 and tau1^-1)
    real = PermTable.__init__
    built = []

    def counted(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(PermTable, "__init__", counted)
    for cid in sorted(c for c in verify.REGISTRY if c.startswith("thm3.")):
        built.clear()
        points = verify.REGISTRY[cid].full
        assert all(r.verdict == "pass"
                   for r in verify.verify_claim(cid, master_seed=42, profile="full"))
        polys = sum(parse_field_spec(p["field"]).q ** p["deg"] for p in points)
        assert len(built) <= 3 * len(points) < polys, cid


def test_thm323_builds_m_plus_i_from_the_matrix(monkeypatch):
    # sigma + e = tau1 o sigma_(M+I) o tau1^-1 compares against a table built
    # from the matrix M + I, not one derived from sigma + e
    stacks = []

    def recording(ctx, mats):
        stacks.append(np.array(mats))
        return _REAL_MATRIX_TABLES(ctx, mats)

    monkeypatch.setattr(verify, "matrix_tables", recording)
    for spec in ("3^1", "2^2"):
        ctx = parse_field_spec(spec)
        stacks.clear()
        (rep,) = verify.verify_claim("thm3.2.3", grid=[{"field": spec, "deg": 2}])
        assert rep.verdict == "pass"
        comps, plus_i = stacks  # one block: M(h) for every h, then M + I
        hs = list(poly.monic_polys(ctx, 2))
        assert [m.tolist() for m in comps] == [[list(r) for r in linalg.companion(h).rows]
                                               for h in hs]
        checked = [h for h in hs if h.eval_idx(ctx.neg(1)) != 0]
        assert [m.tolist() for m in plus_i] == [
            [list(r) for r in (linalg.companion(h) + Mat.identity(ctx, 2)).rows]
            for h in checked]

    def shifted(ctx, mats):  # M + I built as M + 2I: the identity must fail
        mats = np.array(mats)
        if len(stacks):
            d = np.arange(mats.shape[1])
            mats[:, d, d] = [[ctx.add(int(x), 1) for x in row] for row in mats[:, d, d]]
        stacks.append(mats)
        return _REAL_MATRIX_TABLES(ctx, mats)

    monkeypatch.setattr(verify, "matrix_tables", shifted)
    stacks.clear()
    (rep,) = verify.verify_claim("thm3.2.3", grid=[{"field": "3^1", "deg": 2}])
    assert rep.verdict == "fail"
    assert rep.witness["kind"] == "conjugation identity failed"


def test_theorem_orders_computed_once_per_field_degree_shift(monkeypatch):
    real = poly.monic_orders
    calls = []

    def requested(ctx, deg, shift):
        calls.append((ctx.key, deg, shift))
        return real(ctx, deg, shift)

    monkeypatch.setattr(verify, "monic_orders", requested)
    real.cache_clear()
    want = set()
    for cid, shift in (("thm3.1.2", 0), ("thm3.1.4", 1), ("thm3.2.2", 0),
                       ("thm3.2.4", 1), ("thm3.3.2", 0)):
        reports = verify.verify_claim(cid, master_seed=42, profile="full")
        assert all(r.verdict == "pass" for r in reports), cid
        want |= {(parse_field_spec(p["field"]).key, p["deg"], shift)
                 for p in verify.REGISTRY[cid].full}
    assert len(want) == 24  # F_2, F_3, F_4, F_5 x deg 2..4 x shift 0, 1
    assert set(calls) == want
    assert real.cache_info().misses == 24  # one miss per key
    # the two moduli of F_9 are two fields with two order arrays
    f9 = [parse_field_spec(spec) for spec in ("3^2", "3^2/2,1,1")]
    for ctx in f9:
        requested(ctx, 2, 0)
    assert real.cache_info().misses == len(set(calls)) == 26
    assert f9[0].key != f9[1].key


def test_memoized_functions_share_until_cleared():
    # each per-process cache is a functools.cache'd function: a repeat call
    # returns the same object, and after cache_clear() a fresh call builds
    # an equal one
    f2, f8 = field_new(2), field_new(2, 3)

    def basis_fields(bp):
        return bp.big, bp.sub, bp.alpha, bp.beta

    for cache, call, same in (
            (gf._field, lambda: field_new(2, 3), lambda a, b: a == b and a.spec() == b.spec()),
            (perm.space, lambda: perm.space(f8, 2), lambda a, b: (a.ctx, a.d) == (b.ctx, b.d)),
            (poly.monic_orders, lambda: poly.monic_orders(f8, 2, 1), np.array_equal),
            (fieldext.default_basis, lambda: fieldext.default_basis(f2, 3),
             lambda a, b: basis_fields(a) == basis_fields(b)),
            (gf._embedding, lambda: gf.subfield_embedding(f8, f2), list.__eq__),
            (verify._factors_of_cyclotomic, lambda: verify._factors_of_cyclotomic(f2, 7),
             list.__eq__)):
        first = call()
        assert call() is first
        cache.cache_clear()
        fresh = call()
        assert fresh is not first and same(fresh, first), cache
    # F_8's canonical modulus, named or implied: equal contexts, one spec,
    # one cache entry per spelling
    f8 = field_new(2, 3)
    named = field_new(2, 3, f8.modulus)
    assert named == f8 and hash(named) == hash(f8) and named.spec() == f8.spec() == "2^3"
    assert named is not f8
    assert field_new(2, 3, list(f8.modulus)) is named
    assert field_new(2, 3, Poly(f2, f8.modulus)) is named
    assert perm.space(named, 2) is perm.space(f8, 2)


def _collide01(t):
    t = t.copy()
    t[0] = t[1]
    return t


def test_section4_fail_witnesses_pinned(monkeypatch):
    monkeypatch.setattr(construct, "build_rows", _rowwise(_collide01, construct.build_rows))
    lines = []
    for cid in sorted(c for c in verify.REGISTRY if c.startswith("p4.")):
        reports = verify.verify_claim(cid, master_seed=42, profile="quick")
        ran = [r for r in reports if r.verdict != "hypothesis-skipped"]
        assert ran, cid
        for rep in ran:
            assert rep.verdict == "fail" and rep.witness["claim"] == cid, rep.to_json()
        lines += [r.to_json_line() for r in reports]
    assert _sha256("\n".join(lines)) == SABOTAGED_P4_SHA256


def _conjugated_by_table(edit):
    """verify._additive_tables built as tau o edit(sigma_M) o tau^-1, with
    ``edit`` applied to each table sigma_M before the tau table conjugates it
    (perm.conjugate_rows): a table sabotage of sigma_M, which the change of
    basis never tabulates, reaches the additive section-3 sweeps this way."""
    def tables(ctx, mats, a, a_inv):
        tau = perm.linear_table(ctx, mats.shape[-1], ctx.p ** np.arange(len(a)) @ a)
        return perm.conjugate_rows(_rowwise(edit, _REAL_MATRIX_TABLES)(ctx, mats), tau)
    return tables


def test_section3_and_theorem_fail_witnesses_pinned(monkeypatch):
    # each sabotage keeps tables bijective, so the checks report witnesses
    # instead of crashing on an inverse.  The theorem sweeps build their
    # tables as stacks, so every sabotage also applies, row by row, to the
    # stacked entry point that verify calls in its place, and a sabotage of
    # sigma_M to the additive section-3 stacks (_conjugated_by_table).  The
    # theorem and section-3 checks read sigma^n = e from the power lengths of
    # a stack, so the npower sabotage applies to is_r_cycle and
    # power_lengths_rows too.
    real_npower, real_is_r_cycle = PermTable.npower, PermTable.is_r_cycle

    def swap12(t):
        t = t.copy()
        t[1], t[2] = t[2], t[1]
        return t

    def swap01_past_one(t, n):
        if n <= 1:
            return t
        t = t.copy()
        t[0], t[1] = t[1], t[0]
        return t

    def npower(self, n):
        tbl = real_npower(self, n)
        return PermTable(tbl.ctx, tbl.d, swap01_past_one(tbl.table, n))

    def is_r_cycle(self, r):  # what npower(r) == e reads under the npower sabotage
        return r <= 1 and real_is_r_cycle(self, r)

    def moved_first(lengths):  # sigma^r moves point 0, as npower(r) != e reads
        lengths = lengths.copy()
        lengths[0] = 0
        return lengths

    def bump(rows, ctx):
        rows = [list(r) for r in rows]
        rows[0][0] = ctx.add(int(rows[0][0]), 1)
        return rows

    def companion(h):
        c = real_companion(h)
        return Mat(c.ctx, bump(c.rows, c.ctx))

    def companions(ctx, coeffs):
        return np.array([bump(m, ctx) for m in real_companions(ctx, coeffs)])

    real_companion, real_companions = linalg.companion, verify.companions
    patches = {
        "from_matrix": [(verify, "matrix_tables", _rowwise(swap12, _REAL_MATRIX_TABLES)),
                        (verify, "_additive_tables", _conjugated_by_table(swap12))],
        "npower": [(PermTable, "npower", npower), (PermTable, "is_r_cycle", is_r_cycle),
                   (verify, "power_lengths_rows",
                    _rowwise(moved_first, verify.power_lengths_rows))],
        "companion": [(mod, "companion", companion) for mod in (linalg, construct, cppforge)]
                     + [(verify, "companions", companions)],
        "square": [(verify, "matrix_tables", _rowwise(_square, _REAL_MATRIX_TABLES)),
                   (verify, "_additive_tables", _conjugated_by_table(_square))],
    }
    cids = sorted(c for c in verify.REGISTRY if not c.startswith("p4."))
    for name, (want_fails, want_sha) in SABOTAGED_NON_P4.items():
        with monkeypatch.context() as mp:
            for target, attr, value in patches[name]:
                mp.setattr(target, attr, value)
            reports = [rep for cid in cids
                       for rep in verify.verify_claim(cid, master_seed=42, profile="quick")]
        assert len(reports) == 119
        assert sum(r.verdict == "fail" for r in reports) == want_fails, name
        assert _sha256("\n".join(r.to_json_line() for r in reports)) == want_sha, name
        if name == "square":
            not_regular = {r.claim for r in reports if r.verdict == "fail"
                           and r.witness.get("kind") == "not regular"}
            assert not_regular == {"p3.2", "p3.5", "p3.8"}


def test_section4_off_length_witnesses_pinned(monkeypatch):
    monkeypatch.setattr(construct, "matrix_tables", _rowwise(_square, _REAL_MATRIX_TABLES))
    reports = [rep for cid in sorted(c for c in verify.REGISTRY if c.startswith("p4."))
               for rep in verify.verify_claim(cid, master_seed=42, profile="quick")]
    assert len(reports) == 51
    want_fails, want_sha = SQUARED_P4
    assert sum(r.verdict == "fail" for r in reports) == want_fails
    assert _sha256("\n".join(r.to_json_line() for r in reports)) == want_sha
    off_length = {r.claim for r in reports if r.verdict == "fail"
                  and r.witness.get("part") == "regular"}
    assert off_length == {"p4.4.1", "p4.4.2"}


@pytest.mark.parametrize("cid, point", [
    ("p3.2", {"field": "3^1", "r": 8}),
    ("p3.3", {"field": "2^1", "r": 15}),
    ("p3.9", {"field": "3^1", "r": 10}),
    ("p4.10.3", {"field": "2^2", "r": 9}),
    ("thm3.1.2", {"field": "3^1", "deg": 3}),
    ("thm3.2.4", {"field": "2^2", "deg": 2}),
    ("p4.2.3", {"field": "5^1"}),
])
def test_one_cycle_pass_per_checked_table(monkeypatch, cid, point):
    # sigma^r = e (sigma^n = e in the theorems), the census, regularity and
    # the witness cycle of a table all read its power lengths; no check
    # takes a composite power through PermTable.npower.  The section-3 and
    # theorem sweeps check a block of tables with one stacked kernel call
    # per kind of matrix, and the section-4 sweep one call per block of
    # construct.build_rows: p4.2.3 over F_5 is one block of 8 cases of 25
    # entries, and p4.10.3 over F_4 (4^8 entries) a block per case
    real = perm.power_lengths_rows
    passes, blocks, built = [], [], []

    def counted(sp, tables, *args):
        passes.append(tables.shape)
        return real(sp, tables, *args)

    def recorded(real_blocks):
        def blocks_of(*args):
            for block in real_blocks(*args):
                blocks.append(block)
                yield block
        return blocks_of

    def no_npower(self, n):
        raise AssertionError("verify took a composite power")

    def build_rows(specs):
        built.append(real_build_rows(specs))
        return built[-1]

    for mod in (perm, verify):
        monkeypatch.setattr(mod, "power_lengths_rows", counted)
    real_build_rows = construct.build_rows
    monkeypatch.setattr(construct, "build_rows", build_rows)
    for name in ("_p3_tables", "_monic_blocks"):
        monkeypatch.setattr(verify, name, recorded(getattr(verify, name)))
    monkeypatch.setattr(PermTable, "npower", no_npower)
    (rep,) = verify.verify_claim(cid, grid=[point], master_seed=42, profile="full")
    assert rep.verdict == "pass", rep.to_json()
    if cid.startswith("thm"):
        # parts 2 and 4 check the live rows of a block, every one of them a
        # bijection, in one pass over every kind: M(h) and S M(h) S^-1 in
        # thm3.1, the conjugate by tau in thm3.2
        n = parse_field_spec(point["field"]).q ** point["deg"]
        kinds = 2 if cid.startswith("thm3.1") else 1
        assert passes == [(kinds * int(live.sum()), n) for _, live, _ in blocks]
        assert any(h > 1 for h, _ in passes)
        return
    if cid.startswith("p3."):
        assert built == [] and passes == [sig.shape for _, sig in blocks]
        assert len(passes) >= 2 and any(h > 1 for h, _ in passes)
    else:
        assert blocks == [] and passes == [sig.shape for sig in built]
        assert passes == ([(1, 4 ** 8)] * 2 if cid == "p4.10.3" else [(8, 25)])
    # each instance checks one table (one row) and counts 2n work for it
    assert rep.work == sum(2 * h * n for h, n in passes)


@pytest.mark.parametrize("cid", ["p4.10.1", "thm3.1.1"])
def test_no_cycle_pass_when_no_row_asks_for_cycles(monkeypatch, cid):
    # p4.10.1 asks for a CPP and thm3.1.1 for a PP: no row of theirs has a
    # cycle stage, so the judge makes no cycle pass, not even an empty one
    calls = []

    def counted(sp, tables, *args):
        calls.append(tables.shape)
        return real(sp, tables, *args)

    real = perm.power_lengths_rows
    monkeypatch.setattr(verify, "power_lengths_rows", counted)
    reports = verify.verify_claim(cid, master_seed=42, profile="full")
    assert {rep.verdict for rep in reports} == {"pass"}
    assert calls == []


def test_steps_reads_one_order_per_row():
    # two tables on 8 points: (0 1 2)(3 4), of order 6, and (0 1 2 3)(4 5),
    # of order 4, judged with one r per row
    sig = np.array([[1, 2, 0, 4, 3, 5, 6, 7], [1, 2, 3, 0, 5, 4, 6, 7]], dtype=np.int32)
    sp = perm.space(field_new(2), 3)

    def judged(orders, shape=verify._NPOWER):
        rows = [(shape, {"h": [i], "n": n}, 10 + i) for i, n in enumerate(orders)]
        return list(verify._steps(sig, np.array(orders), sp, rows))

    npower = {"kind": "npower!=e"}
    assert judged([6, 4]) == [(verify.PASS, None, 10), (verify.PASS, None, 11)]
    # the same table fails with a smaller order, and its witness carries that
    # row's base keys
    assert judged([6, 2]) == [(verify.PASS, None, 10),
                              (verify.FAIL, {"h": [1], "n": 2, **npower}, 11)]
    assert judged([3, 4]) == [(verify.FAIL, {"h": [0], "n": 3, **npower}, 10),
                              (verify.PASS, None, 11)]
    # one r for the block judges as that r on every row
    rows = [(verify._NPOWER, {"h": [i]}, 0) for i in range(2)]
    assert (list(verify._steps(sig, 4, sp, rows))
            == list(verify._steps(sig, np.array([4, 4]), sp, rows)))
    # the regularity witness is the least cycle whose length is neither 1 nor
    # the row's own r: the 3-cycle of row 0 (r = 6), the 2-cycle of row 1 (r = 4)
    regular = verify._Shape(({}, True), None, ({}, False), ({"kind": "not regular"}, True),
                            None, None)
    assert [witness["cycle"] for _, witness, _ in judged([6, 4], regular)] == [[0, 1, 2], [4, 5]]


def test_short_cycle_check_on_a_3_regular_cpp():
    tbl = construct.build(construct.named_construction(
        "p4.1.1", {"field": field_new(2, 2), "seed": 5}))
    assert tbl.is_cpp() and tbl.is_r_regular(3) and tbl.cycle_structure().cycles

    def judged(r):
        ((plus_e, shape),) = verify._short_cycle_check(2, r)
        assert not plus_e
        ((verdict, witness, work),) = verify._steps(
            tbl.table[None], r, perm.space(tbl.ctx, tbl.d), [(shape, {}, 7)])
        assert work == 7
        return verdict, witness

    assert judged(3) == (verify.FAIL, {"part": "unexpectedly regular"})
    # every cycle of length > 1 is a 3-cycle, so the first one a scan from
    # index 0 meets is the cycle through the least moved point
    t = tbl.table.tolist()
    x = min(i for i, y in enumerate(t) if y != i)
    assert judged(9) == (verify.PASS, {"cycle_length": 3, "cycle": [x, t[x], t[t[x]]]})


def _eager_steps(sig, r, sp, rows):
    """Reference judge: the passes in stage order, one bijective_rows pass
    for sigma on every row first, then sigma + e of the bijective rows with
    a CPP stage, then the cycle stages of the rows left."""
    got = {}

    def fail(i, stage, evidence):
        keys, shown = stage
        got[i] = (verify.FAIL, {**keys, **evidence()} if shown else keys)

    good = perm.bijective_rows(sig)
    for i in np.flatnonzero(~good).tolist():
        fail(i, rows[i][0].pp, lambda: verify._collision(sig[i]))
    cpp = good & [shape.cpp is not None for shape, _, _ in rows]
    if cpp.any():
        sige = perm.add_rows(sp, sig)
        cpp &= ~perm.bijective_rows(sige)
        for i in np.flatnonzero(cpp).tolist():
            fail(i, rows[i][0].cpp, lambda: verify._collision(sige[i]))
        good &= ~cpp
    cycled = np.flatnonzero(good & [shape.r_cycle is not None for shape, _, _ in rows]).tolist()
    shapes = [rows[i][0] for i in cycled]
    per_row = isinstance(r, np.ndarray)
    rc = r[cycled, None] if per_row else r
    if cycled:
        lengths = perm.power_lengths_rows(
            sp, sig[cycled], rc[:, 0] if per_row else r,
            any(s.r_cycle[1] or s.regular or s.one_fixed or s.short is not None for s in shapes))
    for j, (i, shape) in enumerate(zip(cycled, shapes)):
        r_j = int(rc[j, 0]) if per_row else r
        wanted = np.ones(sp.n + 1, dtype=bool)
        wanted[[1, r_j] if r_j <= sp.n else 1] = False
        L = lengths[j]
        if not L.all() or shape.regular and not ((L == 1) | (L == r_j)).all():
            fail(i, shape.regular if L.all() else shape.r_cycle,
                 lambda: {"cycle": perm.first_cycle(sig[i], L, wanted)})
        elif shape.one_fixed and (L == 1).sum() != 1:
            fail(i, shape.one_fixed,
                 lambda: {"census": perm.CycleStructure.from_lengths(L).to_json()})
        elif shape.short is not None:
            cyc = perm.first_cycle(sig[i], L, wanted)
            got[i] = ((verify.FAIL, shape.short) if cyc is None
                      else (verify.PASS, {"cycle_length": len(cyc), "cycle": cyc[:16]}))
    for i, (_, base, work) in enumerate(rows):
        verdict, part = got.get(i, (verify.PASS, None))
        yield verdict, None if part is None else {**base, **part}, work


def _judge_stack():
    """Maps of F_3^2 (9 points) mixing every case of the first two stages,
    and one r per row: the 81 linear maps, bijective or not, with or without
    a bijective sigma + e; permutations; maps g - e with g a permutation (a
    bijective sigma + e, sigma mostly not); and random maps."""
    ctx, rng = field_new(3), Random("judge")
    sp = perm.space(ctx, 2)
    mats = np.array([[[a, b], [c, d]] for a in range(3) for b in range(3)
                     for c in range(3) for d in range(3)])
    minus_e = perm.matrix_tables(ctx, [[2, 0], [0, 2]])
    perms = [construct.permutation(9, rng) for _ in range(30)]
    sig = np.concatenate([
        perm.matrix_tables(ctx, mats), perms,
        [sp.vadd(g, minus_e) for g in perms],
        [[rng.randrange(9) for _ in range(9)] for _ in range(10)]]).astype(np.int32)
    r = np.array([rng.choice((1, 2, 3, 4, 6, 8, 12)) for _ in sig])
    return sp, sig, r


def test_steps_match_the_eager_reference():
    sp, sig, r = _judge_stack()
    bij = perm.bijective_rows(sig)
    bij_e = perm.bijective_rows(perm.add_rows(sp, sig))
    lengths = perm.power_lengths_rows(sp, sig[bij], r[bij], False)
    # the stack has every case the reordered passes must keep apart
    assert (~bij & bij_e).sum() >= 10 and (bij & ~bij_e).sum() >= 10
    assert (~bij & ~bij_e).sum() >= 10 and (bij & bij_e).sum() >= 10
    assert 10 <= lengths.all(axis=1).sum() <= bij.sum() - 10
    shapes = [verify._PP, verify._NPOWER,
              verify._p3_shape(6, True, ({"kind": "not regular"}, True),
                               ({"kind": "census mismatch"}, True), None),
              verify._p3_shape(6, False, ({"kind": "not regular"}, True), None, None),
              verify._p3_shape(6, True, None, None, {"kind": "no short-cycle witness found"}),
              *(shape for p in (2, 3)
                for check in (verify._regular_check, verify._SIG_E, verify._CENSUS,
                              verify._cpp_check, verify._short_cycle_check)
                for _, shape in check(p, 6))]
    # a block of one shape, exact or not, then every shape mixed in one block
    blocks = [[shape] * len(sig) for shape in shapes]
    blocks.append([shapes[i % len(shapes)] for i in range(len(sig))])
    verdicts = set()
    for block in blocks:
        rows = [(shape, {"row": i}, i) for i, shape in enumerate(block)]
        for rr in (r, 6):
            got = list(verify._steps(sig, rr, sp, rows))
            assert got == list(_eager_steps(sig, rr, sp, rows))
            verdicts |= {json.dumps(w and sorted(set(w) - {"row"})) for _, w, _ in got}
    assert len(verdicts) >= 8


def test_sigma_r_e_stands_in_for_the_pp_scatter(monkeypatch):
    # sigma^r = e proves sigma bijective: a p3.5 block whose rows all pass
    # it scatters only sigma + e, and a theorem block of part 2 (no CPP
    # stage) scatters nothing.  A PP row still gets its scatter.
    real = perm.bijective_rows
    calls, blocks = [], []

    def counted(tables):
        calls.append(tables.shape)
        return real(tables)

    def recorded(*args):
        for block in real_tables(*args):
            blocks.append(block[1].shape)
            yield block

    real_tables = verify._p3_tables
    monkeypatch.setattr(verify, "bijective_rows", counted)
    monkeypatch.setattr(verify, "_p3_tables", recorded)
    (rep,) = verify.verify_claim("p3.5", grid=[{"field": "3^1", "r": 8}], profile="full")
    assert rep.verdict == verify.PASS and len(blocks) >= 2
    assert calls == blocks
    calls.clear()
    (rep,) = verify.verify_claim("thm3.1.2", grid=[{"field": "3^1", "deg": 2}])
    assert rep.verdict == verify.PASS and calls == []
    (rep,) = verify.verify_claim("thm3.1.1", grid=[{"field": "3^1", "deg": 2}])
    # the 6 h with h(0) != 0, M(h) and its conjugate in one pass
    assert rep.verdict == verify.PASS and calls == [(12, 9)]


@pytest.mark.parametrize("spec", ["2^1", "3^1", "2^2", "5^1", "7^1", "2^3", "3^2"])
def test_additive_tables_match_the_tau_table_conjugation(spec):
    # oracle: sigma_M tabulated and conjugated by the table of the same
    # additive tau, by one gather and one scatter; the basis draw leaves the
    # RNG where the TauSpec draw does, and thm3.2's tau table is that tau.
    # The matrices are any matrices: the identity holds for every linear map
    ctx = parse_field_spec(spec)
    rng = Random(f"additive:{spec}")
    for d in range(1, 5):
        for h in (1, 3):
            mats = np.array([linalg.random_matrix(ctx, d, rng).a for _ in range(h)])
            state = rng.getstate()
            tau = construct.tau_to_table(construct.random_additive_pp(ctx, d, rng), ctx, d).table
            after = rng.getstate()
            rng.setstate(state)
            basis = verify._tau_basis(ctx, d, rng)
            assert rng.getstate() == after
            want = perm.conjugate_rows(perm.matrix_tables(ctx, mats), tau)
            assert np.array_equal(verify._additive_tables(ctx, mats, *basis), want)
            rng.setstate(state)
            assert np.array_equal(verify._tau_additive(ctx, d, rng), tau)
            assert rng.getstate() == after


def test_additive_tables_at_the_cap():
    ctx, rng = field_new(3), Random("additive:cap")
    mats = linalg.random_invertible(ctx, 12, rng).a[None]
    spec = construct.random_additive_pp(ctx, 12, Random(7))
    basis = verify._tau_basis(ctx, 12, Random(7))
    want = perm.conjugate_rows(perm.matrix_tables(ctx, mats),
                               construct.tau_to_table(spec, ctx, 12).table)
    assert np.array_equal(verify._additive_tables(ctx, mats, *basis), want)


def test_additive_sweeps_build_no_tau_table(monkeypatch):
    # p3.4 - p3.6 conjugate by a change of basis: with the tau-table path
    # made to raise, their quick lines are unchanged
    want = _claim_lines("p3.", "quick")

    def no_call(*args):
        raise AssertionError("an additive sweep built or applied a tau table")

    for target, name in ((verify, "conjugate_rows"), (verify, "tau_to_table"),
                         (perm, "conjugate_rows"), (construct, "tau_to_table"),
                         (construct, "tau_array")):
        monkeypatch.setattr(target, name, no_call)
    got = [rep.to_json_line() for cid in ("p3.4", "p3.5", "p3.6")
           for rep in verify.verify_claim(cid, master_seed=42, profile="quick")]
    assert got == [line for line in want if json.loads(line)["claim"] in ("p3.4", "p3.5", "p3.6")]


def _divisor_products(factors):
    """Oracle: all monic products of nonempty subsets of distinct factors."""
    out = []
    for mask in range(1, 1 << len(factors)):
        prod = None
        for i, f in enumerate(factors):
            if mask & (1 << i):
                prod = f if prod is None else prod * f
        out.append(prod)
    return sorted(out, key=Poly.sort_key)


def _section3_candidates_oracle(ctx, r, sweep, cap):
    """The instance polynomials of a section-3 sweep, from the full
    factorization of t^r - 1, then cut to q^deg(h) <= cap."""
    tr1 = Poly(ctx, [ctx.neg(1)] + [0] * (r - 1) + [1])  # t^r - 1
    minus1 = ctx.neg(1)
    if sweep == "negative":
        complement = tr1 // cyclotomic(r, ctx)
        short = {f for l in range(2, r) if r % l == 0
                 for f in irreducible_factors(cyclotomic(l, ctx))}
        hs = [h for h, sub in ((h, irreducible_factors(h))
                               for h in _divisor_products(irreducible_factors(tr1)))
              if len(sub) >= 2 and gcd(h, complement).degree > 0
              and short.intersection(sub) and h.eval_idx(minus1) != 0]
    elif sweep == "composite":
        hs = _divisor_products(irreducible_factors(cyclotomic(r, ctx)))
    else:
        tm1 = Poly(ctx, [minus1, 1])
        hs = [h for h in _divisor_products(irreducible_factors(tr1))
              if h != tm1 and h.eval_idx(minus1) != 0]
    return [h for h in hs if ctx.q ** h.degree <= cap]


def test_section3_candidates_vs_full_factorization(monkeypatch):
    # the sweeps factor only the Q_l whose factors fit under the cap; the
    # instances they build must be those of the full factorization
    seen = []

    def record(hs, kinds, tau_kind, ctx, rng):
        seen.append(list(hs))
        return iter(())

    monkeypatch.setattr(verify, "_p3_tables", record)
    checked = 0
    for ctx in (field_new(2), field_new(3), field_new(2, 2), field_new(5), field_new(7)):
        q = ctx.q
        for r in range(3, 14):
            if r % ctx.p == 0:
                continue
            sweeps = ("prime",) if verify.is_prime(r) else ("composite", "negative")
            for sweep in sweeps:
                for cap in (q ** 3, 1 << 12):
                    seen.clear()
                    if sweep == "negative":
                        gen = verify._p3_negative_sweep("linear", "p3.3", ctx, r, {}, None, cap)
                    else:
                        gen = verify._p3_regular_sweep("linear", sweep == "composite",
                                                       "p3.1", ctx, r, {}, None, cap)
                    assert list(gen) == []
                    assert seen == [_section3_candidates_oracle(ctx, r, sweep, cap)], \
                        (q, r, sweep, cap)
                    checked += bool(seen[0])
    assert checked > 50


def test_mutation_is_detected(monkeypatch):
    real_build_rows = construct.build_rows

    def swap01(t):  # swap two outputs: still bijective
        t = t.copy()
        t[0], t[1] = t[1], t[0]
        return t

    monkeypatch.setattr(construct, "build_rows", _rowwise(swap01, real_build_rows))
    reports = verify.verify_claim("p4.3", grid=[{"field": "2^1"}])
    assert any(r.verdict == "fail" and r.witness for r in reports)

    # break bijectivity outright
    monkeypatch.setattr(construct, "build_rows", _rowwise(_collide01, real_build_rows))
    reports = verify.verify_claim("p4.5", grid=[{"field": "2^1"}])
    assert any(r.verdict == "fail" and r.witness for r in reports)


def test_explore_returns_finding_dicts():
    rows = verify.explore_quadratic(5, "2^2", count=3, seed=1)
    assert len(rows) == 3
    assert all({"cpp", "regular"} <= set(r) for r in rows)
    rows2 = verify.explore_quadratic(5, "2^1", count=3, seed=1)
    assert "note" in rows2[0]  # Q_5 is irreducible over F_2: no proper factor


# the traced peak allowed to each cap point, in MiB, looked up by the test
# so that tightening a budget keeps the test id
_CAP_BUDGETS_MIB = {"p4.10.3": 15, "p3.5": 8.5}


@pytest.mark.parametrize("cid, q, r, d", [("p4.10.3", 2, 21, 20), ("p3.5", 3, 26, 12)])
def test_cap_points_stay_within_a_memory_budget(cid, q, r, d):
    # the two 2^20-sized points of the benchmark: one table is 4 MiB over
    # F_2^20 and 2 MiB over F_3^12, and every whole-table pass runs in
    # slices, so a point peaks at a few tables (13.5 and 7.2 MiB traced: the
    # judge holds sigma, two work tables of the power chain and one byte a
    # point of lengths; int32 lengths went to 16.5 and 10.8 MiB, and a pass
    # that copies int32 indices to intp, or an adder with whole-table
    # temporaries, to 28.3 and 15.6 MiB.  p3.5 read 9.3 MiB while it built
    # a tau table, conjugated by a gather and a scatter, and scattered sigma
    # into a bool array to prove it bijective).  No pass builds the cached
    # identity of the space
    sp = perm.space(field_new(q), d)
    vars(sp).pop("arange", None)
    tracemalloc.start()
    try:
        [rep] = verify.verify_claim(cid, grid=[{"field": f"{q}^1", "r": r}], master_seed=42,
                                    profile="full")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict == verify.PASS and rep.work > 0
    assert peak <= _CAP_BUDGETS_MIB[cid] * 2 ** 20, peak / 2 ** 20
    assert "arange" not in vars(sp)
