import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cppforge
from cppforge import cli, gf
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
    # an index above the 2^20 table cap is refused before t^n - 1 is built
    for argv, kind in ((("6", "abc"), "InvalidSpec"), (("0", "2^1"), "InvalidSpec"),
                       (("1000000000000000003", "2^1"), "SizeCap"),
                       (("1048577", "2^1"), "SizeCap")):
        code, out, err = run(capsys, "cyclotomic", *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {kind}:") and err.count("\n") == 1


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


def test_verify_r_below_1_exit_2(capsys):
    for argv in (("p3.9", "--q", "5", "--r", "0"), ("p3.9", "--q", "5", "--r", "-3"),
                 ("p4.10", "--q", "2", "--r", "-7")):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: InvalidSpec:") and err.count("\n") == 1, argv
    for r in ("1", "2"):
        code, out, _ = run(capsys, "verify", "p3.9", "--q", "5", "--r", r)
        assert code == 0 and out.startswith("HYPOTHESIS-SKIPPED"), r


def test_extension_field_above_cap_exit_2(capsys):
    # a construction whose q^d is past every cap is refused before its h,
    # M and characteristic polynomial are built; a field named by a huge
    # exponent is refused before p^m is computed
    for argv in (("cyclotomic", "5", "2^21"), ("verify", "p4.3", "--q", "2097152"),
                 ("cyclotomic", "3", "2^100000"), ("cyclotomic", "3", "2^10000000000"),
                 ("verify", "p4.3", "--field", "3^100000000000"),
                 *(("construct", "p4.10", "--q", "2", "--r", r, "--emit", "cycles")
                   for r in ("2001", "20001", "16000001"))):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: SizeCap:") and err.count("\n") == 1


def test_over_cap_points_refused_before_the_field_is_built(capsys, monkeypatch):
    # q^d is checked once p and m are read and checked, before gf._field
    # searches for a modulus and builds the exp/log tables: F_2^20 is never
    # built for a construction or grid point it cannot serve, and each
    # output, malformed specs included, is what it was when the field was
    # built first
    real = gf._field

    def refuse_m20(p, m, modulus):
        assert m != 20, "built F_2^20"
        return real(p, m, modulus)

    monkeypatch.setattr(gf, "_field", refuse_m20)
    cap4 = "q^d = 1208925819614629174706176 exceeds"  # (2^20)^4
    reducible = "2^20/1,1" + ",0" * 18 + ",1"  # t^20 + t + 1 = (t^2 + t + 1)(...)
    canonical = "2^20/1" + ",0" * 16 + ",1,0,0,1"
    for argv, code, out, err in (
            (("construct", "p4.3", "--q", "1048576"), 2, "",
             f"error: SizeCap: {cap4} the 1048576 table cap\n"),
            (("construct", "p4.3", "--field", "2^20", "--emit", "cycles"), 2, "",
             f"error: SizeCap: {cap4} the 1048576 table cap\n"),
            (("construct", "p4.10", "--q", "1048576", "--r", "3", "--tau", "free"), 2, "",
             "error: SizeCap: q^d = 1099511627776 exceeds the 1048576 table cap\n"),
            (("verify", "p4.3", "--q", "1048576"), 0,
             f'HYPOTHESIS-SKIPPED   p4.3 {{"field": "2^20"}} '
             f'witness={{"reason": "{cap4} cap 4096"}}\n', ""),
            (("verify", "p4.3", "--field", canonical, "--format", "json"), 0,
             '{"claim":"p4.3","params":{"field":"2^20"},"schema":"cppforge/1",'
             f'"verdict":"hypothesis-skipped","witness":{{"reason":"{cap4} cap 4096"}},'
             '"work":0}\n', ""),
            (("verify", "p4.1.3", "--q", "1048576", "--profile", "full"), 0,
             'HYPOTHESIS-SKIPPED   p4.1.3 {"field": "2^20"} witness={"reason": '
             '"q^d = 1099511627776 exceeds cap 1048576"}\n', ""),
            (("construct", "p4.3", "--field", "2^20/1,1"), 2, "",
             "error: DegreeMismatch: modulus degree 1 != extension degree 20\n"),
            (("verify", "p4.3", "--field", reducible), 2, "",
             f"error: ReducibleModulus: modulus {[1, 1] + [0] * 18 + [1]} is reducible "
             "over F_2\n"),
            (("construct", "p4.3", "--q", "1048576", "--m", "2"), 2, "",
             "error: InvalidSpec: p4.3 does not take m (only p4.1.3, p4.1.3m, p4.2.3, "
             "p4.4.3 do)\n"),
            (("construct", "p4.1.1", "--q", "1048576", "--m", "2"), 2, "",
             "error: InvalidSpec: p4.1.1 does not take m (only p4.1.3, p4.1.3m, p4.2.3, "
             "p4.4.3 do)\n"),
            (("construct", "p4.2.1", "--q", "1048576"), 2, "",
             "error: HypothesisViolated: p4.2.1 requires characteristic not dividing r "
             "(got p=2, r=4)\n"),
            (("verify", "p4.3", "--q", "1048576", "--field", "2^20"), 2, "",
             "error: InvalidSpec: give the field once: a positional spec, --field or --q\n")):
        assert run(capsys, *argv) == (code, out, err), argv


def test_verify_section3_large_r_finishes_fast(capsys):
    # no p3.1 (r = 10007), p3.2 (r = 1001) or p3.3 (r = 17 * 5882353)
    # instance fits under the quick cap; the one p3.3 instance at r = 1001
    # that does is h = Q_7 (degree 6).  The p4.10 rows have d = r - 1, too
    # large for q^d to be written out.  r = 10^18 + 3 is prime and
    # 10^18 + 1 = 101 * 9901 * 999999000001: is_prime and factor decide
    # them without a walk up to sqrt(r), and Pollard's rho splits
    # 1000000007 * 1000000009
    big, big_composite = "1000000000000000003", "1000000000000000001"
    two_primes = "1000000016000000063"
    for claim, q, r, want in (
            ("p3.1", "2", "10007", "all instances exceed the size cap"),
            ("p3.2", "2", "1001", "all instances exceed the size cap"),
            ("p3.3", "2", "100000001", "all instances exceed the size cap"),
            ("p3.3", "2", "1001", None),
            ("p4.10.1", "2", "14291", "q^d = 2^14290 exceeds cap 4096"),
            ("p4.10.3", "2", "20001", "q^d = 2^20000 exceeds cap 4096"),
            ("p3.1", "2", big, "all instances exceed the size cap"),
            ("p3.2", "2", big, f"r = {big} is not composite"),
            ("p3.3", "2", big_composite, "all instances exceed the size cap"),
            ("p3.9", "3", big_composite, "all instances exceed the size cap"),
            ("p3.3", "2", two_primes, "all instances exceed the size cap")):
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "verify", claim, "--q", q, "--r", r)
        assert time.perf_counter() - t0 < 1.0, claim
        assert code == 0 and len(out.splitlines()) == 1
        assert out.startswith("PASS" if want is None else "HYPOTHESIS-SKIPPED"), out
        if want is not None:
            assert want in out


def test_two_large_prime_factors_finish_fast(capsys):
    # q = 1000000007 * 1000000009 is no prime power, and Q_r for that r has
    # factors far past the cap: gf.factor settles both without trial
    # division up to 10^9
    two_primes = "1000000016000000063"
    for argv, want in ((("cyclotomic", "3", "--q", two_primes),
                        f"error: NotPrime: {two_primes} is not a prime power\n"),
                       (("explore", "--r", two_primes, "--field", "2^1"),
                        "error: SizeCap: the factors of Q_")):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0, argv
        assert code == 2 and out == "" and err.startswith(want), err


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


# sha256 of stdout under --format text and --format json; each command
# exits 0.  These pin the text forms of construct --emit table|cycles,
# claims and explore too, which no other test pins byte for byte.
STDOUT_SHA256 = {
    "cyclotomic 6 7^1": (
        "8cc283fb59f0a902ae1f84abc76df063d5a5de14d71e62a77c6e41dba6376c18",
        "1a47defd4eac872dacd9bdb16e5ed362002ec4d1b5b063341229306b8578a53d"),
    "construct p4.3 --q 2 --emit table": (
        "0859cd012e650ef202183cca6652f9212e4d1f6ff4d8d45b396b2127f77fa8b0",
        "7d8daac60af3337355eb4f0af764253ce78bdce26e6eeb47741b0b612766f1ec"),
    "construct p4.3 --q 2 --emit cycles": (
        "d44590928ea05405688757a617d626c22eb636c993cb9c89f16de7efa2cc7167",
        "9518ab92d91f4ebd54fcdccb6eb8f905fb1127b592717ba7be6e6c3b4c75b30a"),
    "construct p4.3 --q 2 --emit univariate": (
        "8213bae6cb74f38cf38c8893c373785817799e8f9903dd32bcc88a41d5fe19d0",
        "607738b38cebb294a6d4c0604075bcfa488486bca44bcab38e59da04bdca26b6"),
    "construct p4.3 --q 2 --emit spec": (
        "f4ef555ab6fcc5c69138798274b340be0cd1f9e15faf94d0d30f93d849638632",
        "f4ef555ab6fcc5c69138798274b340be0cd1f9e15faf94d0d30f93d849638632"),
    "verify p4.10 --r 9 --q 2": (
        "ad8a46dd0a5d79a7157018e8a7bab9703c667da766165ded541dcf558627c9e0",
        "5cc5065f9a5a10c01c303d05da3f44f3e08be1459e579ff873e81712bb265ff5"),
    "explore --r 5 --q 4 --count 2": (
        "579285f0b26a9b3f0889a640743da2f019b6968f437ed39f9280c42274ccdfe5",
        "579285f0b26a9b3f0889a640743da2f019b6968f437ed39f9280c42274ccdfe5"),
    "claims": (
        "45c40d113e8f7dc0a65b188d0840aa4b1e5d8e28f7f4a0037c56beb2799813fa",
        "2fc3eb3dd31f3b7f068ab07d0f8b1d8705dd6ba41c7f11c409ce91d82a781086"),
}


@pytest.mark.parametrize("command", sorted(STDOUT_SHA256))
@pytest.mark.parametrize("fmt", ("text", "json"))
def test_stdout_bytes_pinned(capsys, command, fmt):
    code, out, _ = run(capsys, *command.split(), "--format", fmt)
    assert code == 0
    want = STDOUT_SHA256[command][fmt == "json"]
    assert hashlib.sha256(out.encode()).hexdigest() == want, (command, fmt)


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


def test_explore_factor_degree_over_the_cap_exit_2(capsys):
    # the factors of Q_47 over F_2 have degree 23, those of Q_1009 degree
    # 504: none is factored nor tabulated, and ord_r(q) is found without a
    # walk over the r residues
    for r, k in (("47", 23), ("1009", 504), ("1000000007", 500000003)):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "explore", "--r", r, "--field", "2^1", "--count", "1")
        assert time.perf_counter() - t0 < 1.0, r
        assert code == 2 and out == "", r
        assert err.startswith("error: SizeCap:") and err.count("\n") == 1, r
        assert f"degree {k}" in err


def test_explore_note_without_a_proper_degree_factor(capsys):
    # 2 is a primitive root mod 101, so Q_101 is irreducible over F_2; for
    # the prime r = 10^18 + 3, ord_r(2) = r - 1 is found from the factors
    # 2 * 3 * 17 * 131 * 1427 * 52445056723 of r - 1, not a walk up to sqrt(r)
    for r in ("101", "1000000000000000003"):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "explore", "--r", r, "--field", "2^1")
        assert time.perf_counter() - t0 < 1.0, r
        assert code == 0 and err == ""
        (row,) = [json.loads(line) for line in out.splitlines()]
        assert row["note"] == f"Q_{r} has no proper-degree factor over this field"


def test_usage_error_exit_2(capsys):
    assert run(capsys, "construct")[0] == 2
    assert run(capsys, "nonsense-command")[0] == 2


def test_main_reuses_one_parser_without_leaking_state(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    construct = ("construct", "p4.1.3", "--q", "4", "--m", "2", "--emit", "univariate")
    # p3.9's first quick point has r = 9, so --r 4 changes the point
    seq = (("construct",), ("--help",),
           ("verify", "p3.9", "--q", "5", "--r", "4"), ("verify", "p3.9", "--q", "5"),
           construct + ("--format", "text"), construct + ("--format", "json"))
    shared = [run(capsys, *argv) for argv in seq]
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0, 0]
    assert '"r": 4' in shared[2][1] and '"r": 9' in shared[3][1]
    # the same calls, each through a parser built for it alone
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert [run(capsys, *argv) for argv in seq] == shared


def _run_fresh(script: str) -> str:
    """The last stdout line of ``script`` run in a fresh interpreter."""
    src = str(Path(cppforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip().splitlines()[-1]


def test_general_tau_does_not_import_numpy_random():
    # numpy.random alone adds about 6 MB of resident memory; the bulk
    # permutation reads the words of Random instead.  numpy 1.x loads
    # numpy.random with numpy itself, so the check is that cppforge adds
    # no import of it beyond what `import numpy` did
    script = """
import json, sys
import numpy
before = "numpy.random" in sys.modules
from cppforge import construct
from cppforge.cli import main
sizes, draw = [], construct.permutation
construct.permutation = lambda n, rng: sizes.append(n) or draw(n, rng)
code = main(["verify", "p3.9", "--q", "5", "--r", "9", "--profile", "full"])
print(json.dumps([code, max(sizes), ("numpy.random" in sys.modules) == before]))
"""
    assert json.loads(_run_fresh(script)) == [0, 5 ** 8, True]


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
    assert json.loads(_run_fresh(script)) == [0, 0, 0]


def test_cyclotomic_large_index_subprocess():
    # 55440 has 120 divisors; Q_55440 over F_13 has degree 11520
    t0 = time.perf_counter()
    out = _run_fresh("from cppforge.cli import main\n"
                     "raise SystemExit(main(['cyclotomic', '55440', '13^1']))")
    assert time.perf_counter() - t0 < 10.0
    assert parse_poly(out, gf.field_new(13)) == cyclotomic(55440, gf.field_new(13))
