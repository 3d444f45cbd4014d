"""cppforge benchmark: cold-process CLI workloads with per-layer tracing.

Run from the root of a cppforge checkout:

    python3 perfbench/run.py --workload verify-full --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload univariate --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --self-test      # count stability, coverage, metric names
    python3 perfbench/run.py --record         # re-record reference outputs

Every measurement is one fresh interpreter (``perfbench/child.py``) that
imports ``cppforge`` from ``src/`` and runs the workload's ops through
``cppforge.cli.main``; workload processes run one at a time.  Outputs are
checked against ``perfbench/reference.json`` after the timed region.

``--trace 0`` repeats the workload process for ``--seconds`` seconds (at
least three times) and reports the end-to-end metrics: median ``wall_s``,
median ``setup_s`` over every process started (extra set-up-only processes
included), median ``peak_rss_mb`` and ``ok_rate``.  ``--trace 1`` alternates
untraced and traced processes for ``--seconds`` seconds and reports the
per-layer metrics of the traced ones.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
lines before it start with ``#`` and are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

OUT_DIR = ".perfbench_out"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 8      # set-up-only processes per timed run, besides the workload ones
MIN_REPS = 3          # workload processes per timed run, whatever --seconds says
RUN_LIMIT_S = 165.0   # never start a process that cannot end before this

LAYERS = ("gf", "poly", "linalg", "perm", "fieldext", "construct", "verify", "cli")
PERM_FUNCS = ("from_matrix", "compose", "npower", "invert", "add_pointwise",
              "cycle_structure", "find_cycle", "is_cpp", "is_additive")
CONSTRUCT_FUNCS = ("tau_to_table", "build", "named_construction",
                   "matrix_with_char_poly", "random_additive_pp")
# metric prefix -> span name, and which of .calls / .self_ms it reports
NAMED_SPANS = (
    *((f"perm.{f}", f"perm.PermTable.{f}", ("calls", "self_ms")) for f in PERM_FUNCS),
    *((f"construct.{f}", f"construct.{f}", ("calls", "self_ms")) for f in CONSTRUCT_FUNCS),
    ("gf.trace", "gf.trace", ("calls",)),
    ("gf.field_new", "gf.field_new", ("calls",)),
    ("poly.irreducible_factors", "poly.irreducible_factors", ("calls", "self_ms")),
    ("poly.cyclotomic", "poly.cyclotomic", ("calls", "self_ms")),
    ("poly.divmod", "poly.Poly.__divmod__", ("calls",)),
    ("linalg.char_poly", "linalg.char_poly", ("self_ms",)),
    ("linalg.random_invertible", "linalg.random_invertible", ("self_ms",)),
    ("fieldext.make_basis", "fieldext.make_basis", ("self_ms",)),
    ("fieldext.to_univariate", "fieldext.to_univariate", ("self_ms",)),
)
# counts that must repeat exactly between two traced runs of one seed
STABLE_COUNTS = ("verify.points", "verify.skipped", "verify.work", "perm.tables",
                 "perm.entries", "gf.scalar_calls")

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_rate", "ratio", "higher"),
)


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    specs = []
    for layer in LAYERS:
        specs += [(f"{layer}.self_s", "s", "lower"), (f"{layer}.calls", "count", "lower")]
    specs += [("perm.tables", "count", "lower"), ("perm.entries", "count", "lower"),
              ("perm.ns_per_entry", "ns", "lower"), ("gf.scalar_calls", "count", "lower")]
    for prefix, _, kinds in NAMED_SPANS:
        for kind in kinds:
            specs.append((f"{prefix}.{kind}", "count" if kind == "calls" else "ms", "lower"))
    specs += [("verify.points", "count", "higher"), ("verify.skipped", "count", "lower"),
              ("verify.work", "count", "lower"), ("verify.useful_ratio", "ratio", "higher"),
              ("trace.overhead_s", "s", "lower"), ("trace.coverage", "ratio", "higher")]
    return specs


class Failure(Exception):
    """The benchmark cannot produce a result (not a failed op)."""


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

class Runner:
    """Starts workload processes one at a time within a run's time limit."""

    def __init__(self, root: Path):
        self.root = root
        self.started = time.monotonic()
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.env["PYTHONHASHSEED"] = "0"
        self.proc: subprocess.Popen | None = None
        self.numpy = None

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def child(self, *args: str) -> dict:
        """Run one child process; returns its JSON plus spawn-relative times."""
        timeout = RUN_LIMIT_S + 10.0 - self.elapsed()
        if timeout <= 0:
            raise Failure("out of time before starting a process")
        cmd = [sys.executable, str(HERE / "child.py"), *args]
        t_spawn = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                     text=True)
        try:
            out, err = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.stop()
            raise Failure(f"workload process exceeded {timeout:.0f} s")
        t_end = time.monotonic()
        code, self.proc = self.proc.returncode, None
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            raise Failure(f"workload process exited {code}: {err.strip()[-2000:]}")
        res = json.loads(lines[-1])
        if not Path(res["cppforge_file"]).resolve().is_relative_to(self.root / "src"):
            raise Failure(f"imported cppforge from {res['cppforge_file']}, not src/")
        self.numpy = res["numpy"]
        res["setup_s"] = res["t_ready"] - t_spawn
        res["process_s"] = t_end - t_spawn
        return res

    def stop(self) -> None:
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc = None


def prepare(root: Path) -> None:
    """Compile bytecode once, so set-up time never includes compiling."""
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(root / "src" / "cppforge"), str(HERE)],
                   cwd=root, check=True, stdout=subprocess.DEVNULL)


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

def load_reference() -> dict:
    data = json.loads(REFERENCE.read_text())
    pool = data["lines"]
    for per_workload in data["seeds"].values():
        for refs in per_workload.values():
            for ref in refs:
                if "lines" in ref:
                    ref["lines"] = [pool[i] for i in ref["lines"]]
    return data


class Checker:
    """Counts attempted and failed ops against the recorded references."""

    def __init__(self, workload: str, seed: int, reference: dict):
        self.argvs = workloads.ops(workload, seed)
        self.refs = reference["seeds"][str(seed)][workload]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def total(self) -> int:
        return sum(r["points"] if workloads.is_verify(a) else 1
                   for a, r in zip(self.argvs, self.refs))

    def check(self, res: dict) -> None:
        for argv, result, ref in zip(self.argvs, res["results"], self.refs):
            attempted, failed, problem = workloads.check(argv, result, ref)
            self.attempted += attempted
            self.failed += failed
            if problem and len(self.problems) < 5:
                self.problems.append(f"{' '.join(argv)}: {problem}")

    def crashed(self) -> None:
        """A process that died counts every op of the workload as failed."""
        self.attempted += self.total()
        self.failed += self.total()


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def timed_run(runner: Runner, checker: Checker, workload: str, seed: int,
              seconds: float) -> tuple[dict, dict]:
    deadline = time.monotonic() + seconds
    setups = [runner.child("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    reps = []
    while True:
        res = runner.child("--workload", workload, "--seed", str(seed))
        checker.check(res)
        setups.append(res["setup_s"])
        reps.append(res)
        est = statistics.median(r["process_s"] for r in reps)
        now = time.monotonic()
        if runner.elapsed() + est > RUN_LIMIT_S:
            break
        if len(reps) >= MIN_REPS and now + est > deadline:
            break
    walls = [r["wall_s"] for r in reps]
    rss = [r["rss_kb"] / 1024.0 for r in reps]
    ok = 1.0 - checker.failed / checker.attempted
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        "ok_rate": ok,
    }
    detail = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss,
              "error_rate": 1.0 - ok}
    return metrics, detail


def layer_metrics(traced: dict, argvs: list[list[str]]) -> dict:
    """Per-layer metrics of one traced process."""
    tr = traced["trace"]
    names = tr["names"]
    m: dict[str, float] = {}
    for layer in LAYERS:
        rows = [v for k, v in names.items() if k.split(".", 1)[0] == layer]
        m[f"{layer}.self_s"] = sum(v[1] for v in rows)
        m[f"{layer}.calls"] = sum(v[0] for v in rows)
    m["perm.tables"] = names.get("perm.PermTable.__init__", [0, 0.0])[0]
    m["perm.entries"] = tr["entries"]
    m["perm.ns_per_entry"] = (m["perm.self_s"] * 1e9 / tr["entries"]
                              if tr["entries"] else 0.0)
    m["gf.scalar_calls"] = tr["scalar_calls"]
    for prefix, span, kinds in NAMED_SPANS:
        calls, self_s = names.get(span, [0, 0.0])
        if "calls" in kinds:
            m[f"{prefix}.calls"] = calls
        if "self_ms" in kinds:
            m[f"{prefix}.self_ms"] = self_s * 1e3
    points = skipped = work = 0
    for argv, result in zip(argvs, traced["results"]):
        p, s, w = workloads.report_counts(argv, result["out"])
        points, skipped, work = points + p, skipped + s, work + w
    m["verify.points"] = points
    m["verify.skipped"] = skipped
    m["verify.work"] = work
    # no verify points means nothing was wasted
    m["verify.useful_ratio"] = (points - skipped) / points if points else 1.0
    m["trace.coverage"] = tr["covered_s"] / traced["wall_s"]
    return m


def count_keys(m: dict) -> list[str]:
    return [k for k in m if k in STABLE_COUNTS or k.endswith(".calls")]


def traced_run(runner: Runner, checker: Checker, workload: str, seed: int,
               seconds: float, out_dir: Path) -> tuple[dict, dict]:
    deadline = time.monotonic() + seconds
    plain, traced = [], []
    while True:
        t0 = time.monotonic()
        res = runner.child("--workload", workload, "--seed", str(seed))
        checker.check(res)
        plain.append(res)
        spans = out_dir / f"spans-{workload}-seed{seed}-{len(traced)}.npz"
        res = runner.child("--workload", workload, "--seed", str(seed),
                           "--trace", str(spans))
        checker.check(res)
        traced.append(res)
        est = time.monotonic() - t0
        if runner.elapsed() + est > RUN_LIMIT_S or time.monotonic() + est > deadline:
            break
    per = [layer_metrics(t, checker.argvs) for t in traced]
    counts = count_keys(per[0])
    unstable = [k for k in counts if any(p[k] != per[0][k] for p in per)]
    metrics = {k: per[0][k] if k in counts else statistics.median(p[k] for p in per)
               for k in per[0]}
    metrics["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                   - statistics.median(p["wall_s"] for p in plain))
    detail = {"traced_wall_s": [t["wall_s"] for t in traced],
              "plain_wall_s": [p["wall_s"] for p in plain],
              "spans": [t["trace"]["spans"] for t in traced],
              "unstable_counts": unstable,
              "span_names": traced[0]["trace"]["names"]}
    return metrics, detail


def environment(runner: Runner) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": runner.numpy,
            "nproc": os.cpu_count(), "cpu": cpu}


def with_units(metrics: dict, specs) -> dict:
    return {name: {"value": metrics[name], "unit": unit} for name, unit, _ in specs}


def measure(args, root: Path) -> int:
    reference = load_reference()
    seed = workloads.cppforge_seed(args.seed)
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    prepare(root)
    runner = Runner(root)
    checker = Checker(args.workload, seed, reference)
    try:
        if args.trace:
            metrics, detail = traced_run(runner, checker, args.workload, seed,
                                         args.seconds, out_dir)
            specs = per_layer_specs()
        else:
            metrics, detail = timed_run(runner, checker, args.workload, seed,
                                        args.seconds)
            specs = END_TO_END
    except Failure as ex:
        checker.crashed()
        print(f"# error: {ex}")
        print(json.dumps({"correct": False, "attempted": checker.attempted,
                          "failed": checker.failed, "metrics": {}}))
        return 0
    finally:
        runner.stop()
    env = environment(runner)
    unstable = detail.get("unstable_counts", [])
    correct = checker.failed == 0 and not unstable
    summary = {"workload": args.workload, "bench_seed": args.seed, "cppforge_seed": seed,
              "trace": args.trace, "env": env, "metrics": metrics, "detail": detail,
              "attempted": checker.attempted, "failed": checker.failed,
              "problems": checker.problems}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True))
    print(f"# perfbench {args.workload} seed={args.seed} (cppforge --seed {seed}) "
          f"trace={args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for name, unit, _ in specs:
        print(f"# {name} = {metrics[name]:.6g} {unit}")
    if not args.trace:
        print(f"# error_rate = {detail['error_rate']:.6g} "
              f"({checker.failed} of {checker.attempted} ops failed)")
        print(f"# samples: {len(detail['wall_s'])} workload processes, "
              f"{len(detail['setup_s'])} set-ups")
    for problem in checker.problems:
        print(f"# FAILED {problem}")
    if unstable:
        print(f"# UNSTABLE counts between traced runs: {', '.join(unstable)}")
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": with_units(metrics, specs)}))
    return 0


# ---------------------------------------------------------------------------
# Maintenance modes
# ---------------------------------------------------------------------------

def record(root: Path) -> int:
    """Re-record reference outputs for every recorded seed and workload."""
    prepare(root)
    index: dict[str, int] = {}
    seeds: dict = {}
    for seed in workloads.RECORDED:
        seeds[str(seed)] = {}
        for workload in workloads.WORKLOADS:
            runner = Runner(root)
            try:
                res = runner.child("--workload", workload, "--seed", str(seed))
            finally:
                runner.stop()
            refs = []
            for argv, result in zip(workloads.ops(workload, seed), res["results"]):
                if result["exc"] is not None or result["rc"] not in (0, 1):
                    raise Failure(f"{' '.join(argv)}: {result['exc'] or result['rc']}")
                ref = workloads.reference_of(argv, result["rc"], result["out"])
                if "lines" in ref:
                    ref["lines"] = [index.setdefault(ln, len(index)) for ln in ref["lines"]]
                refs.append(ref)
            seeds[str(seed)][workload] = refs
            print(f"# recorded {workload} seed {seed} ({res['wall_s']:.2f} s)", flush=True)
    pool = sorted(index, key=index.get)
    REFERENCE.write_text(json.dumps({"lines": pool, "seeds": seeds}) + "\n")
    return 0


def self_test(root: Path, names: list[str]) -> int:
    """Two traced runs per workload with one seed must agree on every count."""
    bench = json.loads((root / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in bench["per_layer"]}
    produced = {name for name, _, _ in per_layer_specs()}
    ok = declared == produced and {m["name"] for m in bench["end_to_end"]} == {
        n for n, _, _ in END_TO_END}
    if not ok:
        print(f"BENCHMARK.json metric names differ from run.py: "
              f"{sorted(declared ^ produced)}")
    reference = load_reference()
    prepare(root)
    (root / OUT_DIR).mkdir(exist_ok=True)
    for workload in names:
        runner = Runner(root)
        checker = Checker(workload, 42, reference)
        try:
            runs = []
            for k in range(2):
                res = runner.child("--workload", workload, "--seed", "42",
                                   "--trace", str(root / OUT_DIR / f"selftest-{k}.npz"))
                checker.check(res)
                runs.append(layer_metrics(res, checker.argvs))
        finally:
            runner.stop()
        unstable = [k for k in count_keys(runs[0]) if runs[0][k] != runs[1][k]]
        coverage = min(r["trace.coverage"] for r in runs)
        good = not unstable and checker.failed == 0 and coverage >= 0.95
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {workload}: coverage {coverage:.4f}, "
              f"{len(count_keys(runs[0]))} counts, unstable {unstable or 'none'}, "
              f"{checker.failed} of {checker.attempted} ops failed")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "cppforge" / "cli.py").is_file():
        print(f"error: no cppforge source under {root / 'src'}; "
              "run from the root of a cppforge checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.record:
            return record(root)
        if args.self_test:
            return self_test(root, [args.workload] if args.workload
                             else list(workloads.WORKLOADS))
        if args.workload is None:
            ap.error("--workload is required")
        return measure(args, root)
    except Failure as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
