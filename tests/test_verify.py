import hashlib
import io
import json

import pytest

from cppforge import construct, verify
from cppforge.errors import UnknownClaim
from cppforge.perm import PermTable

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
# every section-4 quick-grid report line (seed 42) with construct.build
# sabotaged by t[0] = t[1].  Both were recorded before the section-4 checks
# became one declarative table; a changed verdict, witness or work count of
# any claim changes them.
QUICK_42_SHA256 = "8580b055bbf9684e8dd6ad1f1b47ec40cb2bd1a668b3c8ac06e5e6762a5be33a"
SABOTAGED_P4_SHA256 = "f6d9a98362b9fb464a26adde63aa9999ca88bdcb0aa24d41370b7ce9826e23e9"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


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


def test_section4_fail_witnesses_pinned(monkeypatch):
    real_build = construct.build

    def sabotaged(spec):
        tbl = real_build(spec)
        t = tbl.table.copy()
        t[0] = t[1]
        return PermTable(tbl.ctx, tbl.d, t)

    monkeypatch.setattr(construct, "build", sabotaged)
    lines = []
    for cid in sorted(c for c in verify.REGISTRY if c.startswith("p4.")):
        reports = verify.verify_claim(cid, master_seed=42, profile="quick")
        ran = [r for r in reports if r.verdict != "hypothesis-skipped"]
        assert ran, cid
        for rep in ran:
            assert rep.verdict == "fail" and rep.witness["claim"] == cid, rep.to_json()
        lines += [r.to_json_line() for r in reports]
    assert _sha256("\n".join(lines)) == SABOTAGED_P4_SHA256


def test_mutation_is_detected(monkeypatch):
    real_build = construct.build

    def sabotaged(spec):
        tbl = real_build(spec)
        t = tbl.table.copy()
        t[0], t[1] = t[1], t[0]  # swap two outputs: still bijective
        return PermTable(tbl.ctx, tbl.d, t)

    monkeypatch.setattr(construct, "build", sabotaged)
    reports = verify.verify_claim("p4.3", grid=[{"field": "2^1"}])
    assert any(r.verdict == "fail" and r.witness for r in reports)

    def sabotaged2(spec):
        tbl = real_build(spec)
        t = tbl.table.copy()
        t[0] = t[1]  # break bijectivity outright
        return PermTable(tbl.ctx, tbl.d, t)

    monkeypatch.setattr(construct, "build", sabotaged2)
    reports = verify.verify_claim("p4.5", grid=[{"field": "2^1"}])
    assert any(r.verdict == "fail" and r.witness for r in reports)


def test_explore_returns_finding_dicts():
    rows = verify.explore_quadratic(5, "2^2", count=3, seed=1)
    assert len(rows) == 3
    assert all({"cpp", "regular"} <= set(r) for r in rows)
    rows2 = verify.explore_quadratic(5, "2^1", count=3, seed=1)
    assert "note" in rows2[0]  # Q_5 is irreducible over F_2: no proper factor
