import hashlib
import io
import json

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


def test_section3_and_theorem_fail_witnesses_pinned(monkeypatch):
    # each sabotage keeps tables bijective, so the checks report witnesses
    # instead of crashing on an inverse.  The theorem sweeps build their
    # tables as stacks, so every sabotage also applies, row by row, to the
    # stacked entry point that verify calls in its place.  The theorem and
    # section-3 checks read sigma^n = e from the cycle lengths of a stack, so
    # the npower sabotage applies to is_r_cycle and cycle_lengths_rows too.
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

    def longer_than_any_table(lengths):  # a cycle length that divides no r > 1
        lengths = lengths.copy()
        lengths[0] = np.iinfo(lengths.dtype).max
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
        "from_matrix": [(verify, "matrix_tables", _rowwise(swap12, _REAL_MATRIX_TABLES))],
        "npower": [(PermTable, "npower", npower), (PermTable, "is_r_cycle", is_r_cycle),
                   (verify, "cycle_lengths_rows",
                    _rowwise(longer_than_any_table, verify.cycle_lengths_rows))],
        "companion": [(mod, "companion", companion) for mod in (linalg, construct, cppforge)]
                     + [(verify, "companions", companions)],
        "square": [(verify, "matrix_tables", _rowwise(_square, _REAL_MATRIX_TABLES))],
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
    # the witness cycle of a table all read its cycle lengths; no check
    # takes a composite power.  The section-3 and theorem sweeps check a
    # block of tables with one stacked pass per kind of matrix, and the
    # section-4 sweep one pass per block of construct.build_rows: p4.2.3
    # over F_5 is one block of 8 cases of 25 entries, and p4.10.3 over F_4
    # (4^8 entries) a block per case
    real = perm.cycle_lengths_rows
    passes, blocks, built = [], [], []

    def counted(tables):
        passes.append(tables.shape)
        return real(tables)

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
        monkeypatch.setattr(mod, "cycle_lengths_rows", counted)
    real_build_rows = construct.build_rows
    monkeypatch.setattr(construct, "build_rows", build_rows)
    for name in ("_p3_tables", "_monic_blocks"):
        monkeypatch.setattr(verify, name, recorded(getattr(verify, name)))
    monkeypatch.setattr(PermTable, "npower", no_npower)
    (rep,) = verify.verify_claim(cid, grid=[point], master_seed=42, profile="full")
    assert rep.verdict == "pass", rep.to_json()
    if cid.startswith("thm"):
        # parts 2 and 4 check the live rows of a block, every one of them a
        # bijection, in one pass per kind: M(h) and S M(h) S^-1 in thm3.1,
        # the conjugate by tau in thm3.2
        n = parse_field_spec(point["field"]).q ** point["deg"]
        kinds = 2 if cid.startswith("thm3.1") else 1
        assert passes == [(int(live.sum()), n) for _, live, _ in blocks for _ in range(kinds)]
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
