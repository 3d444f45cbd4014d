import json
import os
import subprocess
import sys
import time
from pathlib import Path

import cppforge
from cppforge import gf
from cppforge.cli import main
from cppforge.perm import PermTable
from cppforge.poly import cyclotomic, parse_poly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cyclotomic_text(capsys):
    code, out, _ = run(capsys, "cyclotomic", "6", "7^1")
    assert code == 0
    # an equivalent rendering of t^2 - t + 1 over F_7
    assert parse_poly(out.strip(), gf.field_new(7)) == cyclotomic(7 - 1, gf.field_new(7))
    assert out.strip() == "1+6*t+1*t^2"


def test_cyclotomic_json_round_trips(capsys):
    code, out, _ = run(capsys, "cyclotomic", "3", "--q", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "cppforge/1"
    ctx = gf.parse_field_spec(data["field"])
    assert parse_poly(data["text"], ctx).to_json() == data["coeffs"] == [1, 1, 1]


def test_cyclotomic_char_divides(capsys):
    code, _, err = run(capsys, "cyclotomic", "6", "2^1")
    assert code == 2 and "CharacteristicDividesN" in err


def test_cyclotomic_malformed_input_exit_2(capsys):
    for argv in (("6", "abc"), ("0", "2^1")):
        code, out, err = run(capsys, "cyclotomic", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: InvalidSpec:") and err.count("\n") == 1


def test_construct_cycles_p43(capsys):
    code, out, _ = run(capsys, "construct", "p4.3", "--q", "2",
                       "--emit", "cycles", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {"schema": "cppforge/1", "fixed": 1, "cycles": {"5": 3}}


def test_construct_cycles_p46(capsys):
    code, out, _ = run(capsys, "construct", "p4.6", "--q", "2",
                       "--emit", "cycles", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"schema": "cppforge/1", "fixed": 1,
                               "cycles": {"7": 1}}


def test_construct_table_round_trips(capsys):
    code, out, _ = run(capsys, "construct", "p4.10", "--q", "2", "--r", "5",
                       "--emit", "table", "--format", "json")
    assert code == 0
    data = json.loads(out)
    tbl = PermTable.from_json(data)
    assert tbl.bijective and tbl.is_r_regular(5)


def test_construct_univariate(capsys):
    code, out, _ = run(capsys, "construct", "p4.1.3", "--q", "2", "--m", "1",
                       "--emit", "univariate", "--format", "json")
    assert code == 0
    data = json.loads(out)
    big = gf.parse_field_spec(data["field"])
    assert big.q == 4 and len(data["coeffs"]) <= 4



def test_construct_univariate_over_cap_exit_2_before_building(capsys, monkeypatch):
    from cppforge import construct, fieldext

    def refuse(*args, **kwargs):
        raise AssertionError("built before the univariate cap check")

    monkeypatch.setattr(construct, "build", refuse)
    monkeypatch.setattr(fieldext, "default_basis", refuse)
    code, out, err = run(capsys, "construct", "p4.10", "--q", "2", "--r", "21",
                         "--emit", "univariate")
    assert code == 2 and out == ""
    assert err == "error: SizeCap: q^d = 1048576 exceeds the univariate cap 4096\n"

def test_construct_spec_round_trips(capsys):
    from cppforge.construct import ConstructionSpec, build

    code, out, _ = run(capsys, "construct", "p4.8.1", "--q", "4",
                       "--emit", "spec")
    assert code == 0
    spec = ConstructionSpec.from_json(json.loads(out))
    assert build(spec).is_cpp()


def test_construct_hypothesis_violation_exit_2(capsys):
    code, _, err = run(capsys, "construct", "p4.1.3", "--q", "3")
    assert code == 2
    assert "HypothesisViolated" in err and "p4.1" in err


def test_verify_single_claim_exit_0(capsys):
    code, out, _ = run(capsys, "verify", "p4.3", "--format", "json")
    assert code == 0
    for line in out.strip().splitlines():
        assert json.loads(line)["verdict"] == "pass"


def test_verify_prefix_with_overrides(capsys):
    code, out, _ = run(capsys, "verify", "p4.10", "--r", "9", "--q", "2")
    assert code == 0
    assert "PASS" in out and "witness" in out


def test_verify_cap_above_table_cap_skips(capsys):
    code, out, _ = run(capsys, "verify", "p4.10.2", "--r", "23", "--q", "2",
                       "--cap", "99999999")
    assert code == 0
    assert out.startswith("HYPOTHESIS-SKIPPED") and len(out.splitlines()) == 1


def test_verify_r_on_claim_without_r_exit_2(capsys):
    # p4.3 is fixed at r = 5; p4.1 and p4.8 expand to claims with a fixed r
    for claim, r in (("p4.3", "9"), ("p4.1.1", "45"), ("p4.8", "45")):
        code, out, err = run(capsys, "verify", claim, "--r", r)
        assert code == 2 and out == ""
        assert err.startswith("error: InvalidSpec") and len(err.splitlines()) == 1
    code, out, _ = run(capsys, "verify", "p4.10.3", "--q", "2", "--r", "9",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["params"] == {"field": "2^1", "r": 9}


def test_verify_field_overrides_the_point(capsys):
    code, out, _ = run(capsys, "verify", "p4.3", "--field", "2^2", "--format", "json")
    assert code == 0
    assert [json.loads(l)["params"] for l in out.splitlines()] == [{"field": "2^2"}]
    assert run(capsys, "verify", "p4.3", "--field", "2^2") == \
        run(capsys, "verify", "p4.3", "--q", "4")


def test_ignored_flags_exit_2(capsys):
    for argv in (
            # a malformed --field, and field flags or --r with 'all'
            ("verify", "p4.3", "--field", "nonsense"),
            ("verify", "all", "--field", "2^2"),
            ("verify", "all", "--q", "2"),
            ("verify", "all", "--r", "9"),
            # flags the construction does not read (p4.3 has r = 5)
            ("construct", "p4.3", "--q", "2", "--r", "9"),
            ("construct", "p4.1.3", "--q", "4", "--m", "2", "--r", "11"),
            ("construct", "p4.10", "--q", "2", "--r", "7", "--m", "3"),
            ("construct", "p4.1.1", "--q", "2", "--tau", "free"),
            # the field given twice
            ("cyclotomic", "5", "2^2", "--q", "4"),
            ("cyclotomic", "5", "2^2", "--field", "2^2"),
            ("construct", "p4.3", "--field", "2^1", "--q", "2"),
            ("verify", "p4.3", "--field", "2^1", "--q", "2"),
            ("explore", "--field", "2^2", "--q", "4")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: InvalidSpec:") and err.count("\n") == 1, argv


def test_verify_cap_below_1_exit_2(capsys):
    for cap in ("-1", "0"):
        code, out, err = run(capsys, "verify", "p4.3", "--cap", cap)
        assert code == 2 and out == ""
        assert err.startswith("error: InvalidSpec:") and err.count("\n") == 1


def test_extension_field_above_cap_exit_2(capsys):
    for argv in (("cyclotomic", "5", "2^21"), ("verify", "p4.3", "--q", "2097152")):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: SizeCap:") and err.count("\n") == 1


def test_verify_section3_large_r_finishes_fast(capsys):
    # no p3.1 (r = 10007), p3.2 (r = 1001) or p3.3 (r = 17 * 5882353)
    # instance fits under the quick cap; the one p3.3 instance at r = 1001
    # that does is h = Q_7 (degree 6)
    for claim, r, want in (("p3.1", "10007", "HYPOTHESIS-SKIPPED"),
                           ("p3.2", "1001", "HYPOTHESIS-SKIPPED"),
                           ("p3.3", "100000001", "HYPOTHESIS-SKIPPED"),
                           ("p3.3", "1001", "PASS")):
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "verify", claim, "--q", "2", "--r", r)
        assert time.perf_counter() - t0 < 1.0, claim
        assert code == 0 and len(out.splitlines()) == 1
        assert out.startswith(want), out
        if want != "PASS":
            assert "all instances exceed the size cap" in out


def test_extension_field_at_cap_works(capsys):
    code, out, _ = run(capsys, "cyclotomic", "5", "2^20")
    assert code == 0 and out.strip() == "1+1*t+1*t^2+1*t^3+1*t^4"
    ctx = gf.field_new(2, 20)
    assert ctx.q == 1 << 20
    for a in (1, 2, 12345, (1 << 20) - 1):
        assert ctx.mul(a, ctx.inv(a)) == 1


def test_verify_unknown_claim_exit_2(capsys):
    code, _, err = run(capsys, "verify", "nosuch")
    assert code == 2 and "UnknownClaim" in err


def test_verify_known_false_claim_exit_1(capsys):
    code, out, _ = run(capsys, "verify", "p4.4.2", "--format", "json")
    assert code == 1
    assert any(json.loads(l)["verdict"] == "fail" for l in out.strip().splitlines())


def test_verify_output_byte_identical(capsys):
    _, out1, _ = run(capsys, "verify", "p3.2", "--seed", "42", "--format", "json")
    _, out2, _ = run(capsys, "verify", "p3.2", "--seed", "42", "--format", "json")
    assert out1 == out2


def test_claims_listing(capsys):
    code, out, _ = run(capsys, "claims")
    assert code == 0
    assert "p4.10.3" in out and "thm3.1.1" in out


def test_explore(capsys):
    code, out, _ = run(capsys, "explore", "--r", "5", "--q", "4", "--count", "2")
    assert code == 0
    rows = [json.loads(l) for l in out.strip().splitlines()]
    assert len(rows) == 2 and all(r["schema"] == "cppforge/1" for r in rows)


def test_explore_r_below_1_exit_2(capsys):
    for r in ("0", "-2", "-3"):
        code, out, err = run(capsys, "explore", "--r", r)
        assert code == 2 and out == ""
        assert err.startswith("error: InvalidSpec:") and err.count("\n") == 1


def test_explore_negative_count_exit_2(capsys):
    code, out, err = run(capsys, "explore", "--count", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error: InvalidSpec:") and err.count("\n") == 1
    assert run(capsys, "explore", "--count", "0")[:2] == (0, "")


def test_usage_error_exit_2(capsys):
    assert run(capsys, "construct")[0] == 2
    assert run(capsys, "nonsense-command")[0] == 2


def test_runtime_needs_numpy_only():
    # the test extra (sympy, hypothesis, pytest) made unimportable in a fresh process
    script = """
import json, sys
for name in ("sympy", "hypothesis", "pytest"):
    sys.modules[name] = None
from cppforge.cli import main
codes = [main(argv) for argv in (
    ["verify", "p4.3"],
    ["construct", "p4.1.3", "--q", "4", "--m", "2", "--emit", "univariate"],
    ["explore", "--r", "5", "--q", "4", "--count", "2"],
)]
print(json.dumps(codes))
"""
    src = str(Path(cppforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout.strip().splitlines()[-1]) == [0, 0, 0]
