"""Pass only when the Tier-1 failures are exactly the known refutation.

Usage: python .github/check_tier1.py tier1.xml

Reads the pytest junit XML and exits 0 when the set of failed or errored
test ids equals EXPECTED, 1 otherwise.  The p4.4.2 case stays a real
failure in the pytest run: it is neither deselected nor marked xfail.
"""

import sys
import xml.etree.ElementTree as ET

EXPECTED = {"tests/test_acceptance.py::test_criterion_6_section4_sweep[p4.4.2]"}


def _test_id(tc) -> str:
    """pytest node id of a junit testcase; a module that failed to collect
    has an empty classname and its dotted path as the name."""
    cls, name = tc.get("classname") or "", tc.get("name")
    return f"{cls.replace('.', '/')}.py::{name}" if cls else f"collection error: {name}"


def main(path: str) -> int:
    cases = list(ET.parse(path).iter("testcase"))
    failed = {_test_id(tc) for tc in cases
              if tc.find("failure") is not None or tc.find("error") is not None}
    print(f"{len(cases)} cases, {len(failed)} failed")
    for tid in sorted(failed - EXPECTED):
        print(f"unexpected failure: {tid}")
    for tid in sorted(EXPECTED - failed):
        print(f"expected failure did not fail: {tid}")
    return 0 if cases and failed == EXPECTED else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
