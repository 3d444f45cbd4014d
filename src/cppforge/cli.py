"""Command-line front door.

Subcommands: ``cyclotomic`` (compute Q_n over a field), ``construct``
(materialize a named construction and emit its table, cycle structure, or
univariate form), ``verify`` (run registered claims), ``explore`` (the
no-claim research sweep) and ``claims`` (the traceability listing).

Exit codes: 0 all checks passed, 1 at least one claim verification failed,
2 usage error / malformed spec / unknown claim / hypothesis violation /
size cap.  All JSON output is tagged ``schema: cppforge/1`` and identical
invocations with identical seeds produce byte-identical output (the default
seed is 42).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import construct, fieldext, verify
from .errors import CppforgeError, InvalidSpec
from .gf import field_from_order, parse_field_spec
from .poly import cyclotomic

SCHEMA = verify.SCHEMA


def _field_arg(args) -> object:
    if getattr(args, "field", None):
        return parse_field_spec(args.field)
    if getattr(args, "q", None):
        return field_from_order(args.q)
    raise InvalidSpec("need --field p^m or --q prime-power")


def cmd_cyclotomic(args) -> int:
    ctx = _field_arg(args)
    q = cyclotomic(args.n, ctx)
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, "n": args.n, "field": ctx.spec(),
                          "coeffs": q.to_json(), "text": q.to_text()},
                         sort_keys=True, separators=(",", ":")))
    else:
        print(q.to_text())
    return 0


def cmd_construct(args) -> int:
    ctx = _field_arg(args)
    params: dict = {"field": ctx, "seed": args.seed}
    if args.r is not None:
        params["r"] = args.r
    if args.m is not None:
        params["m"] = args.m
    if args.tau is not None:
        params["tau"] = args.tau
    spec = construct.named_construction(args.claim, params)
    table = construct.build(spec)
    if args.emit == "spec":
        print(json.dumps(spec.to_json(), sort_keys=True, separators=(",", ":")))
    elif args.emit == "table":
        out = table.to_json()
        if args.format == "json":
            print(json.dumps({"schema": SCHEMA, **out}, sort_keys=True,
                             separators=(",", ":")))
        else:
            print(out)
    elif args.emit == "cycles":
        cs = table.cycle_structure().to_json()
        if args.format == "json":
            print(json.dumps({"schema": SCHEMA, **cs}, sort_keys=True,
                             separators=(",", ":")))
        else:
            print(cs)
    elif args.emit == "univariate":
        bp = fieldext.default_basis(ctx, spec.d)
        pol = fieldext.to_univariate(bp, table)
        if args.format == "json":
            print(json.dumps({"schema": SCHEMA, "field": bp.big.spec(),
                              "coeffs": pol.to_json()},
                             sort_keys=True, separators=(",", ":")))
        else:
            print(pol.to_text())
    return 0


def cmd_verify(args) -> int:
    cap = args.cap
    if cap is not None and cap < 1:
        raise InvalidSpec(f"--cap must be >= 1, got {cap}")
    if args.claim == "all":
        summary = verify.verify_all(profile=args.profile, master_seed=args.seed,
                                    stream=sys.stdout if args.format == "json" else None,
                                    cap=cap)
        if args.format != "json":
            print(f"points={summary['points']} pass={summary['pass']} "
                  f"fail={summary['fail']} skipped={summary['skipped']}")
            for f in summary["failed"]:
                print(f"FAIL {f}")
        return 1 if summary["fail"] else 0
    ids = verify.expand_claim_id(args.claim)
    fixed_r = [cid for cid in ids if "r" not in verify.REGISTRY[cid].quick[0]]
    if args.r is not None and fixed_r:
        raise InvalidSpec(f"--r does not apply to {', '.join(fixed_r)} (r is fixed)")
    failures = 0
    for cid in ids:
        grid = None
        if args.q is not None or args.r is not None:
            base = dict(verify.REGISTRY[cid].quick[0])
            if args.q is not None:
                base["field"] = field_from_order(args.q).spec()
            if args.r is not None:
                base["r"] = args.r
            grid = [base]
        for rep in verify.verify_claim(cid, grid=grid, master_seed=args.seed,
                                       profile=args.profile, cap=cap):
            if args.format == "json":
                print(rep.to_json_line())
            else:
                print(f"{rep.verdict.upper():20s} {rep.claim} "
                      f"{json.dumps(rep.params, sort_keys=True)}"
                      + (f" witness={json.dumps(rep.witness, sort_keys=True)}"
                         if rep.witness else ""))
            failures += rep.verdict == verify.FAIL
    return 1 if failures else 0


def cmd_explore(args) -> int:
    if args.field:
        field = args.field
    elif args.q:
        field = field_from_order(args.q).spec()
    else:
        field = "2^2"
    findings = verify.explore_quadratic(args.r, field=field,
                                        count=args.count, seed=args.seed)
    for f in findings:
        print(json.dumps({"schema": SCHEMA, **f}, sort_keys=True,
                         separators=(",", ":")))
    return 0


def cmd_claims(args) -> int:
    for row in verify.claims():
        if args.format == "json":
            print(json.dumps({"schema": SCHEMA, **row}, sort_keys=True,
                             separators=(",", ":")))
        else:
            print(f"{row['claim']:10s} [{row['quick_points']}/{row['full_points']} pts] "
                  f"{row['statement']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cppforge",
        description="regular (complete) permutation polynomial constructions "
                    "over extension fields, with brute-force verification")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_common(p, field=True):
        if field:
            p.add_argument("--field", help="field spec p^m or p^m/c0,c1,...,cm")
            p.add_argument("--q", type=int, help="field order (prime power)")
        p.add_argument("--seed", type=int, default=42,
                       help="master seed (default 42)")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("cyclotomic", help="compute the n-th cyclotomic polynomial")
    p.add_argument("n", type=int)
    p.add_argument("field_pos", nargs="?", help="field spec (positional)")
    add_common(p)
    p.set_defaults(fn=cmd_cyclotomic)

    p = sub.add_parser("construct", help="build a named construction")
    p.add_argument("claim", help="construction id, e.g. p4.3 or p4.10")
    p.add_argument("--r", type=int, help="target cycle length (p4.10)")
    p.add_argument("--m", type=int, help="matrix parameter index in F_q^*")
    p.add_argument("--tau", choices=("inverse", "free"),
                   help="sandwich tau mode (p4.8/p4.9/p4.10)")
    p.add_argument("--emit", choices=("table", "cycles", "univariate", "spec"),
                   default="cycles")
    add_common(p)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("verify", help="verify a claim (or 'all')")
    p.add_argument("claim", help="claim id, prefix (p4.10), or 'all'")
    p.add_argument("--profile", choices=("quick", "full"), default="quick")
    p.add_argument("--cap", type=int, help="override the table size cap")
    p.add_argument("--r", type=int,
                   help="override r on the first grid point (claims whose grid has r)")
    add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("explore", help="research-gap sweep (no claims)")
    p.add_argument("--r", type=int, default=5)
    p.add_argument("--count", type=int, default=8)
    add_common(p)
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("claims", help="list registered claims (traceability)")
    add_common(p, field=False)
    p.set_defaults(fn=cmd_claims)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as ex:
        return 2 if ex.code not in (0, None) else 0
    if getattr(args, "field_pos", None) and not args.field:
        args.field = args.field_pos
    try:
        return args.fn(args)
    except CppforgeError as ex:
        print(f"error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
