"""One workload process: runs every op of a workload in this interpreter.

Started by ``perfbench/run.py`` with ``src`` on PYTHONPATH, one fresh
process per measurement.  Set-up ends once ``cppforge`` is imported and the
CLI parser is built; the instant is taken on the monotonic clock, which is
shared by every process on the machine, so the parent can subtract its
spawn time.  Prints one JSON object on stdout.

    python3 perfbench/child.py --workload cap-tables --seed 42 [--trace FILE]
    python3 perfbench/child.py --setup-only
"""

import sys
import time

from cppforge import cli

cli.build_parser()
T_READY = time.monotonic()

import argparse  # noqa: E402  (imports after the set-up instant on purpose)
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import workloads  # noqa: E402


def run_ops(argvs, tracer=None) -> tuple[list, float]:
    """Run each op through ``cli.main``; returns (results, wall seconds)."""
    results = []
    t0 = time.perf_counter()
    for i, argv in enumerate(argvs):
        if tracer is not None:
            tracer.op = i
        buf = io.StringIO()
        rc, exc = None, None
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except Exception as ex:  # a raising op is a failed op, not a crash
            exc = f"{type(ex).__name__}: {ex}"
        results.append({"rc": rc, "out": buf.getvalue(), "exc": exc})
    return results, time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--trace", help="write spans to this .npz file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    import numpy

    out = {"t_ready": T_READY, "numpy": numpy.__version__, "cppforge_file": cli.__file__}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        results, wall = run_ops(workloads.ops(args.workload, args.seed), tracer)
        out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["wall_s"] = wall
        out["results"] = results
        if tracer is not None:
            out["trace"] = tracer.summary()
            tracer.dump(args.trace)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
