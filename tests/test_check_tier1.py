"""The CI gate ``.github/check_tier1.py``: it passes the Tier-1 job only when
the junit report's failures are exactly the known p4.4.2 refutation."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "check_tier1.py"
_spec = importlib.util.spec_from_file_location("check_tier1", SCRIPT)
check_tier1 = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_tier1)

P442 = ("tests.test_acceptance", "test_criterion_6_section4_sweep[p4.4.2]")
P442_ID = "tests/test_acceptance.py::test_criterion_6_section4_sweep[p4.4.2]"
PASSING = ("tests.test_cli", "test_claims_listing")


def _junit(tmp_path, cases):
    """A junit report of (classname, name, outcome) cases; returns its path."""
    rows = []
    for cls, name, outcome in cases:
        body = {"pass": "", "failure": "<failure message='x'>x</failure>",
                "error": "<error message='x'>x</error>"}[outcome]
        rows.append(f'<testcase classname="{cls}" name="{name}" time="0.1">{body}</testcase>')
    path = tmp_path / "tier1.xml"
    path.write_text('<?xml version="1.0" encoding="utf-8"?><testsuites>'
                    f'<testsuite name="pytest" tests="{len(rows)}">{"".join(rows)}'
                    '</testsuite></testsuites>')
    return str(path)


def _check(tmp_path, capsys, cases):
    code = check_tier1.main(_junit(tmp_path, cases))
    return code, capsys.readouterr().out


def test_only_the_known_refutation_passes(tmp_path, capsys):
    assert check_tier1.EXPECTED == {P442_ID}
    code, out = _check(tmp_path, capsys, [PASSING + ("pass",), P442 + ("failure",)])
    assert code == 0 and out == "2 cases, 1 failed\n"


@pytest.mark.parametrize("outcome", ["failure", "error"])
def test_an_extra_failure_fails(tmp_path, capsys, outcome):
    code, out = _check(tmp_path, capsys, [PASSING + (outcome,), P442 + ("failure",)])
    assert code == 1
    assert "unexpected failure: tests/test_cli.py::test_claims_listing\n" in out


def test_the_refutation_passing_fails(tmp_path, capsys):
    code, out = _check(tmp_path, capsys, [PASSING + ("pass",), P442 + ("pass",)])
    assert code == 1
    assert f"expected failure did not fail: {P442_ID}\n" in out


def test_a_collection_error_fails(tmp_path, capsys):
    code, out = _check(tmp_path, capsys, [("", "tests.test_cli", "error"),
                                          P442 + ("failure",)])
    assert code == 1
    assert "unexpected failure: collection error: tests.test_cli\n" in out


def test_a_report_without_cases_fails(tmp_path, capsys):
    code, out = _check(tmp_path, capsys, [])
    assert code == 1 and out.startswith("0 cases, 0 failed\n")
