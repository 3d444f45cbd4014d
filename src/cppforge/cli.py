"""Command-line front door.

Subcommands: ``cyclotomic`` (compute Q_n over a field), ``construct``
(materialize a named construction and emit its table, cycle structure, or
univariate form), ``verify`` (run registered claims), ``explore`` (the
no-claim research sweep) and ``claims`` (the traceability listing).

Exit codes: 0 all checks passed, 1 at least one claim verification failed,
2 usage error / malformed spec / unknown claim / hypothesis violation /
size cap.  Every record goes through one writer, ``_emit``: tagged
``schema: cppforge/1`` in the canonical encoding of ``verify.canonical_json``
under ``--format json`` (and always for ``explore`` and ``construct --emit
spec``), else its text form.  Identical invocations with identical seeds
produce byte-identical output (the default seed is 42).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import construct, fieldext, verify
from .errors import CppforgeError, InvalidSpec
from .gf import field_args, field_spec, parse_field_spec
from .perm import check_cap
from .poly import cyclotomic

SCHEMA = verify.SCHEMA


def _field_arg(args, required=True):
    """The spec of the positional spec, --field or --q (at most one), checked, not built."""
    given = [v for v in (getattr(args, "field_pos", None), args.field, args.q)
             if v is not None]
    if len(given) > 1:
        raise InvalidSpec("give the field once: a positional spec, --field or --q")
    if given:
        return field_spec(*field_args(given[0]))
    if required:
        raise InvalidSpec("need --field p^m or --q prime-power")
    return None


def _emit(args, record: dict, text=None) -> None:
    """Print one record: tagged canonical JSON under --format json or when
    the record has no text form, else its text."""
    if args.format == "json" or text is None:
        print(verify.canonical_json({"schema": SCHEMA, **record}))
    else:
        print(text)


def cmd_cyclotomic(args) -> int:
    ctx = parse_field_spec(_field_arg(args))
    q = cyclotomic(args.n, ctx)
    text = q.to_text()
    _emit(args, {"n": args.n, "field": ctx.spec(), "coeffs": q.to_json(), "text": text}, text)
    return 0


def cmd_construct(args) -> int:
    params: dict = {"field": _field_arg(args), "seed": args.seed}
    for key in ("r", "m", "tau"):  # named_construction rejects those it does not read
        if getattr(args, key) is not None:
            params[key] = getattr(args, key)
    q, d = construct.table_dims(args.claim, params)  # refused before the field is built
    if args.emit == "univariate":
        fieldext.check_univariate_cap(q ** d)
    check_cap(q, d)
    spec = construct.named_construction(args.claim, params)
    table = construct.build(spec)
    if args.emit == "spec":
        _emit(args, spec.to_json())
    elif args.emit == "univariate":
        bp = fieldext.default_basis(spec.field, spec.d)
        pol = fieldext.to_univariate(bp, table)
        _emit(args, {"field": bp.big.spec(), "coeffs": pol.to_json()}, pol.to_text())
    else:
        out = table.to_json() if args.emit == "table" else table.cycle_structure().to_json()
        _emit(args, out, str(out))  # the text form of table and cycles is the dict repr
    return 0


def cmd_verify(args) -> int:
    cap = args.cap
    if cap is not None and cap < 1:
        raise InvalidSpec(f"--cap must be >= 1, got {cap}")
    if args.r is not None and args.r < 1:
        raise InvalidSpec(f"--r must be >= 1, got {args.r}")
    field = _field_arg(args, required=False)
    if args.claim == "all":
        if field is not None or args.r is not None:
            raise InvalidSpec("--field, --q and --r apply to one claim, not to 'all'")
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
        if field is not None or args.r is not None:
            base = dict(verify.REGISTRY[cid].quick[0])
            if field is not None:
                base["field"] = field
            if args.r is not None:
                base["r"] = args.r
            grid = [base]
        for rep in verify.verify_claim(cid, grid=grid, master_seed=args.seed,
                                       profile=args.profile, cap=cap):
            _emit(args, rep.to_json(),
                  f"{rep.verdict.upper():20s} {rep.claim} "
                  f"{json.dumps(rep.params, sort_keys=True)}"
                  + (f" witness={json.dumps(rep.witness, sort_keys=True)}"
                     if rep.witness else ""))
            failures += rep.verdict == verify.FAIL
    return 1 if failures else 0


def cmd_explore(args) -> int:
    findings = verify.explore_quadratic(args.r, field=_field_arg(args, required=False) or "2^2",
                                        count=args.count, seed=args.seed)
    for f in findings:
        _emit(args, f)
    return 0


def cmd_claims(args) -> int:
    for row in verify.claims():
        _emit(args, row, f"{row['claim']:10s} [{row['quick_points']}/{row['full_points']} pts] "
                         f"{row['statement']}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared by every ``main``."""
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
    p.add_argument("--profile", choices=verify.PROFILES, default="quick")
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
    try:
        return args.fn(args)
    except CppforgeError as ex:
        print(f"error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
