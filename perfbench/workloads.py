"""Workload definitions and output checks for the cppforge benchmark.

A workload is a fixed, ordered list of CLI invocations ("ops") that one
fresh interpreter runs through ``cppforge.cli.main``.  The op order is part
of the definition: ``gf`` keeps per-field multiply rows for the life of a
process, so an op that runs after another on the same field pays less.

The benchmark seed selects the cppforge master seed passed as ``--seed``.
Outputs are checked against references recorded at a fixed commit, so only
recorded cppforge seeds can be run; any other benchmark seed maps onto the
pool below.
"""

from __future__ import annotations

import hashlib
import json

# cppforge seeds with recorded reference outputs.  POOL serves arbitrary
# benchmark seeds; HELD_OUT is only run when asked for by value, so a later
# change can be checked on a seed it was not tuned on.
POOL = (42, 7, 101, 2023, 31337, 9001, 65537, 4242)
HELD_OUT = 1729
RECORDED = POOL + (HELD_OUT,)


def cppforge_seed(bench_seed: int) -> int:
    """The recorded cppforge seed that a benchmark seed runs with."""
    if bench_seed in RECORDED:
        return bench_seed
    return POOL[bench_seed % len(POOL)]


def _verify(claim: str, q: int, r: int | None = None) -> list[str]:
    return (["verify", claim, "--q", str(q)] + (["--r", str(r)] if r else [])
            + ["--profile", "full", "--format", "json"])


def _univariate(cid: str, q: int, r: int | None = None) -> list[str]:
    return (["construct", cid, "--q", str(q)] + (["--r", str(r)] if r else [])
            + ["--emit", "univariate", "--format", "json"])


# All 41 claims on their full grids (245 points) in one invocation: the
# command users run most, spread over thousands of tiny tables.
VERIFY_FULL = [["verify", "all", "--profile", "full", "--format", "json"]]

# Single grid points whose tables have q^d in [2^19, 2^20]: the dense table
# layers (`perm`, `construct`) at the cap, with almost no `gf` work because
# the fields are prime.  Two points keep one process near ten seconds.
CAP_TABLES = [
    # F_2^20: companion from_matrix, coordinate tau, npower, find_cycle witness
    _verify("p4.10.3", 2, 21),
    # F_3^12: dense from_matrix, additive tau and is_additive, odd-p digit adder, census
    _verify("p3.5", 3, 26),
]

# The 50 section-4 quick-grid instances with q^d <= 2^12 (acceptance
# criterion 7), in registry order; p4.10.x points build the p4.10 family.
# Nearly all the work is `gf` scalar arithmetic and `fieldext`
# interpolation on tables of at most 729 points.
UNIVARIATE = [_univariate(c, q, r) for c, q, r in (
    ("p4.1.1", 2, None), ("p4.1.1", 4, None), ("p4.1.1", 7, None),
    ("p4.1.2", 2, None), ("p4.1.2", 4, None),
    ("p4.1.3", 2, None), ("p4.1.3", 4, None), ("p4.1.3", 7, None),
    ("p4.1.3m", 2, None), ("p4.1.3m", 4, None), ("p4.1.3m", 7, None),
    ("p4.1.4", 2, None), ("p4.1.4", 4, None), ("p4.1.4", 7, None),
    ("p4.10", 2, 3), ("p4.10", 2, 5), ("p4.10", 2, 9), ("p4.10", 4, 5),
    ("p4.10", 2, 3), ("p4.10", 2, 5), ("p4.10", 4, 5),
    ("p4.10", 2, 9),
    ("p4.2.1", 3, None), ("p4.2.1", 5, None),
    ("p4.2.2", 3, None), ("p4.2.2", 5, None),
    ("p4.2.3", 3, None), ("p4.2.3", 5, None),
    ("p4.3", 2, None), ("p4.3", 3, None),
    ("p4.4.1", 5, None), ("p4.4.1", 7, None),
    ("p4.4.2", 5, None), ("p4.4.2", 7, None),
    ("p4.4.3", 5, None), ("p4.4.3", 7, None),
    ("p4.5", 2, None), ("p4.5", 3, None),
    ("p4.6", 2, None), ("p4.6", 4, None),
    ("p4.7", 2, None), ("p4.7", 4, None),
    ("p4.8.1", 2, None), ("p4.8.1", 4, None),
    ("p4.8.2", 2, None), ("p4.8.2", 4, None),
    ("p4.9.1", 2, None), ("p4.9.1", 4, None),
    ("p4.9.2", 2, None), ("p4.9.2", 4, None),
)]

WORKLOADS = {
    "verify-full": VERIFY_FULL,
    "cap-tables": CAP_TABLES,
    "univariate": UNIVARIATE,
}


def ops(workload: str, seed: int) -> list[list[str]]:
    """The argv of every op of a workload, with the cppforge seed appended."""
    return [argv + ["--seed", str(seed)] for argv in WORKLOADS[workload]]


def is_verify(argv: list[str]) -> bool:
    return argv[0] == "verify"


def coeff_digest(output: str) -> str:
    """Digest of a univariate export: its field and coefficient list."""
    data = json.loads(output)
    canon = json.dumps({"field": data["field"], "coeffs": data["coeffs"]},
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def reference_of(argv: list[str], rc: int, output: str) -> dict:
    """The reference entry recorded for one op's result."""
    if is_verify(argv):
        points = report_counts(argv, output)[0]
        return {"rc": rc, "points": points, "lines": output.splitlines()}
    return {"rc": rc, "digest": coeff_digest(output)}


def check(argv: list[str], result: dict, ref: dict) -> tuple[int, int, str]:
    """(ops attempted, ops failed, first problem) for one op's result.

    A verify invocation counts one op per grid point: each report line must
    equal the reference byte for byte.  A raise or a different exit code
    fails every point of the invocation.
    """
    attempted = ref["points"] if is_verify(argv) else 1
    if result["exc"] is not None:
        return attempted, attempted, f"raised {result['exc']}"
    if result["rc"] != ref["rc"]:
        return attempted, attempted, f"exit code {result['rc']} != {ref['rc']}"
    if not is_verify(argv):
        try:
            same = coeff_digest(result["out"]) == ref["digest"]
        except (ValueError, KeyError, TypeError) as ex:
            return 1, 1, f"unreadable output: {ex}"
        return 1, int(not same), "" if same else "coefficient digest differs"
    got = result["out"].splitlines()
    want = ref["lines"]
    bad = [i for i in range(attempted) if i >= len(got) or got[i] != want[i]]
    failed = len(bad)
    if got[attempted:] != want[attempted:]:
        failed = max(failed, 1)  # summary line or trailing output differs
    problem = ""
    if bad:
        problem = f"line {bad[0]} differs: {got[bad[0]] if bad[0] < len(got) else '<missing>'}"
    elif failed:
        problem = "summary line differs"
    return attempted, failed, problem


def report_counts(argv: list[str], output: str) -> tuple[int, int, int]:
    """(points, skipped, work) summed over the report lines of a verify op."""
    points = skipped = work = 0
    if not is_verify(argv):
        return 0, 0, 0
    for line in output.splitlines():
        try:
            rep = json.loads(line)
        except ValueError:
            continue
        if "verdict" in rep:
            points += 1
            skipped += rep["verdict"] == "hypothesis-skipped"
            work += rep["work"]
    return points, skipped, work
