"""Claim-level verification harness.

Every theorem and proposition the library implements has a registered claim
id (``thm3.1.2``, ``p4.4.3``, ...).  A claim is checked on a grid of small
parameter points; each point is verified by brute force (dense tables,
exhaustive scans) and yields one :class:`VerificationReport`.  Negative
claims pass only by exhibiting a concrete witness (a short cycle), never by
absence of evidence.  Hypothesis-violating or size-capped grid points get
the verdict ``hypothesis-skipped`` rather than being dropped.

``REGISTRY`` is the claim table: one :class:`Claim` row per claim, run by one
runner, ``_run``.  To add a claim, add one row: its statement, quick and full
grids, the sweep, and where they apply the table dimension d of the whole
point (checked against the size cap before anything is built), a fixed r
and a guard that names a violated hypothesis.  The sweep is a generator
that builds and checks one instance per step, draws from the point's RNG in
sweep order, and yields (verdict, witness, work), work being the table
entries built since the previous step.  The runner stops at the
first FAIL; otherwise the point passes with the last step's witness, or is
skipped when no instance fits under the cap.  The section-4 rows use
``_p4`` and ``_p4_sweep``: name the construction the claim builds when it
is not the claim id, and list its cases with their checks; r and d come
from the construction's ``construct.CATALOG`` row.

Reports are replayable: the verdict and witness are pure functions of
(claim id, parameters, master seed).  The JSON-line stream therefore emits a
deterministic ``work`` counter (table entries built) instead of wall-clock
time, which lives only on the in-memory report.
"""

from __future__ import annotations

import json
import time
from math import isqrt
from dataclasses import dataclass
from functools import partial
from itertools import permutations
from random import Random
from typing import Callable, Optional

import numpy as np

from . import construct
from .construct import TauSpec, matrix_with_char_poly, random_additive_pp, tau_to_table
from .errors import HypothesisViolated, InvalidSpec, UnknownClaim
from .gf import FieldCtx, is_prime, parse_field_spec
from .linalg import Mat, companion, random_invertible
from .perm import TABLE_CAP, PermTable
from .poly import Poly, cyclotomic, irreducible_factors, monic_polys

SCHEMA = "cppforge/1"
QUICK_CAP = 1 << 12
FULL_CAP = 1 << 20
DEFAULT_SEED = 42

PASS = "pass"
FAIL = "fail"
SKIP = "hypothesis-skipped"


@dataclass
class VerificationReport:
    claim: str
    params: dict
    verdict: str
    witness: Optional[dict]
    work: int
    elapsed: float = 0.0  # wall seconds; intentionally absent from JSON

    def to_json(self) -> dict:
        return {"schema": SCHEMA, "claim": self.claim, "params": self.params,
                "verdict": self.verdict, "witness": self.witness, "work": self.work}

    def to_json_line(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


def _canon(params: dict) -> str:
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def _rng_for(master_seed, claim: str, params: dict) -> Random:
    return Random(f"cppforge:{master_seed}:{claim}:{_canon(params)}")


def _collision(table: np.ndarray) -> dict:
    """Smallest pair of inputs mapping to the same output."""
    order = np.argsort(table, kind="stable")
    vals = table[order]
    dup = np.nonzero(vals[1:] == vals[:-1])[0]
    i = int(dup[0])
    x1, x2 = int(order[i]), int(order[i + 1])
    return {"kind": "collision", "x1": min(x1, x2), "x2": max(x1, x2),
            "y": int(vals[i])}


def _ord_mod(h: Poly, shift: int) -> int:
    """Multiplicative order of (t + shift*1) modulo h.

    shift = 0 gives ord(t), shift = 1 gives ord(t+1); the base must be
    invertible mod h (h(-shift) != 0), which callers ensure.
    """
    ctx = h.ctx
    deg = h.degree
    hc = h.coeffs
    add, mul, sub = ctx.add, ctx.mul, ctx.sub
    sh = ctx.from_int(shift)
    g = [0] * deg
    if deg == 1:
        g[0] = add(ctx.neg(hc[0]), sh)  # t = -h0 mod h
    else:
        g[1] = 1
        g[0] = sh
    one = [1] + [0] * (deg - 1)
    mult = 1
    while mult < max(deg, 1):
        mult *= ctx.p
    bound = (ctx.q ** deg - 1) * mult + 1
    k = 1
    cur = list(g)
    while cur != one:
        # cur := cur * (t + shift) mod h
        lead = cur[-1]
        nxt = [0] * deg
        for i in range(deg - 1):
            nxt[i + 1] = cur[i]
        if sh:
            for i in range(deg):
                nxt[i] = add(nxt[i], mul(sh, cur[i]))
        if lead:
            for i in range(deg):
                nxt[i] = sub(nxt[i], mul(lead, hc[i]))
        cur = nxt
        k += 1
        if k > bound:
            raise RuntimeError("internal error: order search exceeded bound")
    return k


def _tau_general(ctx: FieldCtx, d: int, rng: Random) -> PermTable:
    tbl = list(range(ctx.q ** d))
    rng.shuffle(tbl)
    return PermTable(ctx, d, np.array(tbl, dtype=np.int32), bijective=True)


def _tau_additive(ctx: FieldCtx, d: int, rng: Random) -> PermTable:
    return tau_to_table(random_additive_pp(ctx, d, rng), ctx, d)


def _conjugated(sig: PermTable, tau: PermTable) -> PermTable:
    return tau.compose(sig.compose(tau.invert()))


_MODES = ("companion", "conjugate")


def _off_length_cycle(tbl: PermTable, r: int):
    return tbl.find_cycle(lambda L: L > 1 and L != r)


# ---------------------------------------------------------------------------
# Theorem sweeps: the invertible-linear-map quartet and its tau versions
# ---------------------------------------------------------------------------

def _thm31_sweep(part: int, cid, ctx, r, params, rng, cap):
    """Theorem 3.1, part ``part``, for M(h) and S M(h) S^-1 over every monic h."""
    deg = params["deg"]
    e = PermTable.identity(ctx, deg)
    s_tbl = PermTable.from_matrix(random_invertible(ctx, deg, rng))
    s_inv = s_tbl.invert()
    for h in monic_polys(ctx, deg):
        h0 = h.coeffs[0]
        hm1 = h.eval_idx(ctx.neg(1))
        base = PermTable.from_matrix(companion(h))
        for kind, sig in (("companion", base),
                          ("conjugate", s_tbl.compose(base.compose(s_inv)))):
            work, bad = sig.n, None
            if part == 1:
                if h0 != 0 and not sig.bijective:
                    bad = _collision(sig.table)
            elif part == 2:
                if h0 != 0:
                    n0 = _ord_mod(h, 0)
                    work += sig.n
                    if sig.npower(n0) != e:
                        bad = {"n": n0, "kind": "npower!=e"}
            elif part == 3:
                sige = sig.add_pointwise(e)
                work += sige.n
                if hm1 != 0 and not sige.bijective:
                    bad = _collision(sige.table)
            elif hm1 != 0:  # part 4
                sige = sig.add_pointwise(e)
                m0 = _ord_mod(h, 1)
                work += 2 * sige.n
                if sige.npower(m0) != e:
                    bad = {"m": m0, "kind": "npower!=e"}
            wit = {"h": h.to_json(), "matrix": kind}
            yield (FAIL, {**wit, **bad}, work) if bad else (PASS, None, work)


def _thm32_sweep(part: int, draw_tau, cid, ctx, r, params, rng, cap):
    """Theorem 3.2 with additive taus; with ``_tau_general``, Theorem 3.3 (parts 1, 2)."""
    deg = params["deg"]
    n = ctx.q ** deg
    e = PermTable.identity(ctx, deg)
    t1 = draw_tau(ctx, deg, rng)
    t2i = draw_tau(ctx, deg, rng)
    t1_inv = t1.invert()
    work = 2 * n  # the two taus, counted with the first instance
    for h in monic_polys(ctx, deg):
        h0 = h.coeffs[0]
        hm1 = h.eval_idx(ctx.neg(1))
        sig_m = PermTable.from_matrix(companion(h))
        work += n
        bad = None
        if part == 1:
            sig = t1.compose(sig_m.compose(t2i))
            if h0 != 0 and not sig.bijective:
                bad = _collision(sig.table)
        else:
            sig = t1.compose(sig_m.compose(t1_inv))
            if part == 2:
                if h0 != 0:
                    n0 = _ord_mod(h, 0)
                    if sig.npower(n0) != e:
                        bad = {"n": n0, "kind": "npower!=e"}
            elif hm1 != 0:  # parts 3 and 4, on sigma + e
                sige = sig.add_pointwise(e)
                if part == 4:
                    m0 = _ord_mod(h, 1)
                    if sige.npower(m0) != e:
                        bad = {"m": m0, "kind": "npower!=e"}
                elif not sige.bijective:
                    bad = _collision(sige.table)
                else:
                    mpi = companion(h) + Mat.identity(ctx, deg)
                    lhs = t1.compose(PermTable.from_matrix(mpi).compose(t1_inv))
                    work += n
                    if sige != lhs:
                        bad = {"kind": "conjugation identity failed"}
        yield (FAIL, {"h": h.to_json(), **bad}, work) if bad else (PASS, None, work)
        work = 0


# ---------------------------------------------------------------------------
# Section-3 sweeps
# ---------------------------------------------------------------------------

def _cyclotomic_factors(ctx: FieldCtx, ls, cap: int) -> list[tuple[int, Poly]]:
    """(l, f) for every irreducible factor f of Q_l, l in ls, with q^deg(f) <= cap.

    Every factor of Q_l has degree ord_l(q) (Lidl & Niederreiter, Thm 2.47),
    so Q_l is factored only when q^k = 1 (mod l) for some k with q^k <= cap:
    a point whose instances all exceed the size cap factors nothing.
    """
    ks = [k for k in range(1, cap.bit_length()) if ctx.q ** k <= cap]
    return [(l, f) for l in ls if any(pow(ctx.q, k, l) == 1 % l for k in ks)
            for f in irreducible_factors(cyclotomic(l, ctx))]


def _products(factors: list[Poly], cap: int) -> list[tuple[Poly, tuple]]:
    """(h, S) for every nonempty set S of the distinct factors (each with
    q^deg <= cap) whose product h has q^deg(h) <= cap, sorted by h."""
    out: list = []
    for f in factors:
        out += [(f, (f,))] + [(h * f, s + (f,)) for h, s in out
                              if f.ctx.q ** (h.degree + f.degree) <= cap]
    return sorted(out, key=lambda hs: hs[0].sort_key())


def _p3_tables(hs, kinds, tau_kind: str, ctx: FieldCtx, rng: Random):
    """(h, kind, sigma) per instance: sigma_M for M of each kind with P_M = h,
    conjugated (unless tau_kind is linear) by one tau per dimension, drawn on
    its first use."""
    taus: dict = {}
    for h in hs:
        d = h.degree
        for kind in kinds:
            sig = PermTable.from_matrix(matrix_with_char_poly(h, kind, rng))
            if tau_kind != "linear":
                if d not in taus:
                    draw = _tau_additive if tau_kind == "additive" else _tau_general
                    taus[d] = draw(ctx, d, rng)
                sig = _conjugated(sig, taus[d])
            yield h, kind, sig


def _r_cycle_failure(sig: PermTable, r: int, wit: dict, cpp: bool):
    """Witness of the first check to fail of PP, CPP (when ``cpp``) and
    sigma^r = e; None when all hold."""
    e = PermTable.identity(sig.ctx, sig.d)
    if not sig.bijective:
        return {**wit, **_collision(sig.table)}
    if cpp and not sig.is_cpp():
        return {**wit, "part": "cpp", **_collision(sig.add_pointwise(e).table)}
    if sig.npower(r) != e:
        return {**wit, "kind": f"npower({r}) != e"}
    return None


def _p3_regular_sweep(tau_kind: str, composite: bool, cid, ctx, r, params, rng, cap):
    """Props on r-regularity: prime-r divisors of t^r - 1, or h | Q_r."""
    factors = _cyclotomic_factors(ctx, (r,) if composite else (1, r), cap)
    hs = [h for h, _ in _products([f for _, f in factors], cap)]
    if not composite:
        tm1 = Poly(ctx, [ctx.neg(1), 1])
        # h != t-1 per the hypothesis; h(-1) != 0 restricts the p = 2
        # divisors containing t-1 (see the claim statement)
        hs = [h for h in hs if h != tm1 and h.eval_idx(ctx.neg(1)) != 0]
    for h, kind, sig in _p3_tables(hs, _MODES, tau_kind, ctx, rng):
        wit = {"h": h.to_json(), "matrix": kind, "d": h.degree}
        bad = _r_cycle_failure(sig, r, wit, tau_kind != "general")
        if bad is None:
            cs = sig.cycle_structure()
            if not all(l == r for l, _ in cs.cycles):
                bad = {**wit, "kind": "not regular", "cycle": _off_length_cycle(sig, r)}
            elif composite and (cs.fixed_points != 1
                                or cs.cycles != ((r, (sig.n - 1) // r),)):
                bad = {**wit, "kind": "census mismatch", "census": cs.to_json()}
        yield (FAIL, bad, 2 * sig.n) if bad else (PASS, None, 2 * sig.n)


def _p3_negative_sweep(tau_kind: str, cid, ctx, r, params, rng, cap):
    """Props 3.3/3.6/3.9: r-cycle but not r-regular, witnessed by a short cycle."""
    cpp = tau_kind != "general"
    divisors = {l for k in range(1, isqrt(r) + 1) if r % k == 0 for l in (k, r // k)}
    # h has two or more factors, so each has q^deg <= cap / q
    factors = _cyclotomic_factors(ctx, divisors, cap // ctx.q)
    short = {f for l, f in factors if 1 < l < r}
    # reducible, with a factor from some Q_l, 1 < l < r (hence sharing one
    # with (t^r - 1)/Q_r)
    hs = [h for h, s in _products([f for _, f in factors], cap)
          if len(s) >= 2 and short.intersection(s)
          and not (cpp and h.eval_idx(ctx.neg(1)) == 0)]
    # the minimal-polynomial argument needs M(h)
    for h, _, sig in _p3_tables(hs, ("companion",), tau_kind, ctx, rng):
        wit = {"h": h.to_json(), "d": h.degree}
        bad = _r_cycle_failure(sig, r, wit, cpp)
        if bad is None:
            cyc = sig.find_cycle(lambda L: 1 < L < r and r % L == 0)
            if cyc is None:
                bad = {**wit, "kind": "no short-cycle witness found"}
        yield ((FAIL, bad, 2 * sig.n) if bad else
               (PASS, {**wit, "cycle_length": len(cyc), "cycle": cyc[:16]}, 2 * sig.n))


def _not_composite(ctx: FieldCtx, r: int) -> Optional[str]:
    return None if not is_prime(r) and r >= 4 else f"r = {r} is not composite"


def _p3_guard(composite: bool, ctx: FieldCtx, r: int) -> Optional[str]:
    if r % ctx.p == 0:
        return f"gcd(r, p) != 1 (r={r}, p={ctx.p})"
    if composite:
        return _not_composite(ctx, r)
    return None if is_prime(r) and r % 2 == 1 else f"r = {r} is not an odd prime"


# ---------------------------------------------------------------------------
# Section-4 sweep: named constructions
# ---------------------------------------------------------------------------
#
# A check takes (table, r, base witness) and returns (PASS, witness or None)
# or (FAIL, witness).

_WIT_KEYS = ("m", "seed", "r", "tau")


def _regular_cpp(tbl: PermTable, r: int, wit: dict, sig_e=False, census=False):
    """PP, CPP and r-regular, with a single fixed point when p = 2.

    ``sig_e``: when p = 2, sigma + e must be an r-regular CPP with a single
    fixed point too.  ``census``: exactly 1 fixed point + (n - 1)/r r-cycles.
    """
    if not tbl.bijective:
        return FAIL, {**wit, "part": "pp", **_collision(tbl.table)}
    sige = tbl.add_pointwise(PermTable.identity(tbl.ctx, tbl.d))
    if not sige.bijective:
        return FAIL, {**wit, "part": "cpp", **_collision(sige.table)}
    p2 = tbl.ctx.p == 2
    cs = tbl.cycle_structure()
    if any(l != r for l, _ in cs.cycles):
        return FAIL, {**wit, "part": "regular", "cycle": _off_length_cycle(tbl, r)}
    if p2 and cs.fixed_points != 1:
        return FAIL, {**wit, "part": "fixed-points", "census": cs.to_json()}
    if sig_e and p2:
        cs_e = sige.cycle_structure()
        if any(l != r for l, _ in cs_e.cycles):
            return FAIL, {**wit, "part": "sigma+e regular",
                          "cycle": _off_length_cycle(sige, r)}
        if not sige.is_cpp():
            return FAIL, {**wit, "part": "sigma+e cpp"}
        if cs_e.fixed_points != 1:
            return FAIL, {**wit, "part": "sigma+e fixed-points"}
    if census and (cs.fixed_points != 1 or cs.cycles != ((r, (tbl.n - 1) // r),)):
        return FAIL, {**wit, "kind": "census mismatch", "census": cs.to_json()}
    return PASS, None


def _cpp(tbl: PermTable, r: int, wit: dict):
    if tbl.is_cpp():
        return PASS, None
    bad = tbl.add_pointwise(PermTable.identity(tbl.ctx, tbl.d)) if tbl.bijective else tbl
    return FAIL, {**wit, **_collision(bad.table)}


def _sig_e_regular_cpp(tbl: PermTable, r: int, wit: dict):
    return _regular_cpp(tbl.add_pointwise(PermTable.identity(tbl.ctx, tbl.d)), r, wit)


def _short_cycle(tbl: PermTable, r: int, wit: dict):
    """CPP and an r-cycle, but not r-regular: exhibits a cycle of length l | r."""
    if not tbl.is_cpp():
        return FAIL, {**wit, "part": "cpp"}
    if tbl.npower(r) != PermTable.identity(tbl.ctx, tbl.d):
        return FAIL, {**wit, "part": f"npower({r}) != e"}
    cyc = tbl.find_cycle(lambda L: 1 < L < r and r % L == 0)
    if cyc is None:
        part = "unexpectedly regular" if tbl.is_r_regular(r) else "no short-cycle witness"
        return FAIL, {**wit, "part": part}
    return PASS, {**wit, "cycle_length": len(cyc), "cycle": cyc[:16]}


# Instance cases: (ctx, r, seeds, rng) -> [(case tag, extra params, check)].

def _by_seed(check, tag=None, with_r=False, **fixed):
    return lambda ctx, r, seeds, rng: [
        (tag, {"seed": s, **fixed, **({"r": r} if with_r else {})}, check) for s in seeds]


def _by_mode(check):
    return lambda ctx, r, seeds, rng: [(None, {"seed": s, "matrix_mode": mode}, check)
                                       for mode in _MODES for s in seeds]


def _by_m(check):
    return lambda ctx, r, seeds, rng: [(None, {"seed": s, "m": m}, check)
                                       for m in range(1, ctx.q) for s in seeds]


def _odd_a_cases(ctx, r, seeds, rng):
    """p4.2.2: the seeded odd a, then a = x^3 when it permutes F_q."""
    out = _by_seed(_regular_cpp)(ctx, r, seeds, rng)
    cube = tuple(ctx.pow(x, 3) for x in range(ctx.q))
    if sorted(cube) == list(range(ctx.q)):
        out.append(("a=x^3", {"a": cube}, _regular_cpp))
    return out


def _any_a1_cases(ctx, r, seeds, rng):
    """p4.4.2, checked as stated: every a_1 when q <= 5, else 60 seeded draws."""
    if ctx.q <= 5:
        return [("exhaustive", {"a1": a}, _regular_cpp) for a in permutations(range(ctx.q))]
    return [("sampled", {"seed": rng.randrange(1 << 30)}, _regular_cpp)
            for _ in range(60)]


def _sandwich_cases(ctx, r, seeds, rng):
    """p4.8/p4.9: a free sandwich is a CPP; a_2 = a_1^{-1} makes it r-regular."""
    return [case for s in seeds
            for case in (("free", {"seed": s, "tau": "free"}, _cpp),
                         ("inverse", {"seed": s, "tau": "inverse"}, _regular_cpp))]


def _p4_sweep(build_id: str, cases, show_a1: bool, cid, ctx, r, params, rng, cap):
    """Build and check each case of ``cases`` with ``named_construction``."""
    seeds = [rng.randrange(1 << 30) for _ in range(2)]
    for tag, extra, check in cases(ctx, r, seeds, rng):
        spec = construct.named_construction(build_id, {**params, "field": ctx, **extra})
        tbl = construct.build(spec)
        wit = {"claim": cid, **({"case": tag} if tag else {}),
               **{k: extra[k] for k in _WIT_KEYS if k in extra}}
        if show_a1:
            wit["a1"] = [int(x) for x in spec.tau1.perms[0]]
        verdict, wit = check(tbl, r, wit)
        yield verdict, wit, 2 * tbl.n


# ---------------------------------------------------------------------------
# The claim table and its runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    """One row of the claim table (see the module docstring)."""
    statement: str
    quick: tuple
    full: tuple
    sweep: Callable                   # (cid, ctx, r, params, rng, cap) -> steps
    d: Optional[Callable] = None      # (params, r) -> table dimension of the point
    r: Optional[int] = None           # None: r comes from the grid point
    guard: Optional[Callable] = None  # (ctx, r) -> skip reason or None


def _run(cid: str, row: Claim, params: dict, rng: Random, cap: int):
    """(verdict, witness, work) of one grid point: the first FAIL, else PASS
    with the last step's witness."""
    ctx = parse_field_spec(params["field"])
    r = row.r or params.get("r")
    if row.d:
        n = ctx.q ** row.d(params, r)
        if n > cap:
            return SKIP, {"reason": f"q^d = {n} exceeds cap {cap}"}, 0
    reason = row.guard(ctx, r) if row.guard else None
    if reason:
        return SKIP, {"reason": reason}, 0
    work, verdict, witness = 0, None, None
    try:
        for verdict, witness, w in row.sweep(cid, ctx, r, params, rng, cap):
            work += w
            if verdict == FAIL:
                return FAIL, witness, work
    except HypothesisViolated as ex:
        return SKIP, {"reason": str(ex)}, work
    if verdict is None:
        return SKIP, {"reason": "all instances exceed the size cap"}, work
    return PASS, witness, work


def _f(spec: str, **kw) -> dict:
    return {"field": spec, **kw}


def _fields(*specs) -> tuple:
    return tuple(_f(s) for s in specs)


_THM_FIELDS = ("2^1", "3^1", "2^2", "5^1")


def _thm_grid(degs) -> tuple:
    return tuple(_f(fs, deg=d) for fs in _THM_FIELDS for d in degs)


def _deg(params: dict, r) -> int:
    return params["deg"]


def _p4(statement: str, grid: tuple, cases, build: Optional[str] = None,
        guard=None, full=None, show_a1=False) -> Callable[[str], Claim]:
    """A section-4 row as a function of its claim id: it builds the
    construction ``build`` (default: the claim id), whose row gives r and d."""
    def row(cid: str) -> Claim:
        con = construct.CATALOG[build or cid]
        return Claim(statement, grid, full or grid,
                     partial(_p4_sweep, build or cid, cases, show_a1),
                     d=lambda params, r: con.dim(r), r=con.r, guard=guard)
    return row


_P31_QUICK = (_f("2^1", r=3), _f("2^2", r=3), _f("5^1", r=3), _f("7^1", r=3),
              _f("2^1", r=5), _f("3^1", r=5), _f("2^2", r=5), _f("3^2", r=5),
              _f("2^1", r=7), _f("2^2", r=7))
_P32_QUICK = (_f("3^1", r=4), _f("5^1", r=4), _f("7^1", r=4), _f("3^2", r=4),
              _f("5^1", r=6), _f("7^1", r=6),
              _f("3^1", r=8), _f("5^1", r=8), _f("7^1", r=8), _f("3^2", r=8),
              _f("2^1", r=9), _f("2^2", r=9), _f("5^1", r=9), _f("7^1", r=9),
              _f("2^3", r=9),
              _f("3^1", r=10), _f("7^1", r=10), _f("3^2", r=10))
_P33_QUICK = (_f("2^1", r=9), _f("3^1", r=10), _f("2^1", r=15), _f("5^1", r=9))
_P3_PRIME_QUICK = (_f("2^1", r=3), _f("2^2", r=3), _f("7^1", r=3),
                   _f("2^1", r=5), _f("3^1", r=5))
_P3_COMPOSITE_QUICK = (_f("3^1", r=4), _f("5^1", r=4), _f("5^1", r=6), _f("3^1", r=8),
                       _f("2^1", r=9), _f("2^2", r=9), _f("3^1", r=10))
_ODD_PRIME = partial(_p3_guard, False)
_COMPOSITE = partial(_p3_guard, True)

_Q247 = _fields("2^1", "2^2", "7^1")
_Q35 = _fields("3^1", "5^1")
_Q23 = _fields("2^1", "3^1")
_Q57 = _fields("5^1", "7^1")
_Q24 = _fields("2^1", "2^2")
_SIG_E = partial(_regular_cpp, sig_e=True)
_CENSUS = partial(_regular_cpp, census=True)

# The section-4 rows, made into claims once REGISTRY gives them their ids
_SECTION4 = {
    "p4.1.1": _p4("r=3 family, additive a_1, a_2: 3-regular CPP over F_{q^2}",
                  _Q247, _by_mode(_regular_cpp)),
    "p4.1.2": _p4("r=3 family, additive a_i and p=2: sigma + e is also a "
                  "3-regular CPP", _Q247, _by_mode(_sig_e_regular_cpp),
                  guard=lambda ctx, r: None if ctx.p == 2 else "requires characteristic 2"),
    "p4.1.3": _p4("r=3, a_2=e, M=[[0,m],[-1/m,-1]]: 3-regular CPP for any PP a_1 "
                  "(and sigma+e too when p=2)",
                  _Q247, _by_m(_SIG_E)),
    "p4.1.3m": _p4("mirror of p4.1.3 (a_1=e, a_2 arbitrary); empirical check only",
                   _Q247, _by_m(_regular_cpp)),
    "p4.1.4": _p4("r=3, a_2=e, M=[[-1,1],[-1,0]]: 3-regular CPP for any PP a_1",
                  _Q247, _by_seed(_regular_cpp)),
    "p4.2.1": _p4("r=4 family (p odd), additive a_1, a_2: 4-regular CPP",
                  _Q35, _by_mode(_regular_cpp)),
    "p4.2.2": _p4("r=4, a_1=a_2=a odd (a(-x)=-a(x)), M=M(Q_4): 4-regular CPP",
                  _Q35, _odd_a_cases),
    "p4.2.3": _p4("r=4, a_2=e, M=[[-1,m],[-2/m,1]]: 4-regular CPP for any PP a_1",
                  _Q35, _by_m(_regular_cpp)),
    "p4.3": _p4("r=5, M=M(Q_5), tau touches only x_1: 5-regular CPP over F_{q^4}",
                _Q23, _by_seed(_CENSUS)),
    "p4.4.1": _p4("r=6 family (p > 3), additive a_1, a_2: 6-regular CPP",
                  _Q57, _by_mode(_regular_cpp)),
    "p4.4.2": _p4("r=6, a_2=e, M=M(Q_6): claimed 6-regular CPP for any PP a_1 "
                  "(KNOWN FALSE: the sigma+e identity drops a 2*x_2 term; "
                  "checker reports the refuting a_1)",
                  _Q57, _any_a1_cases, show_a1=True),
    "p4.4.3": _p4("r=6, a_2=e, M=[[-1,m],[-3/m,2]]: 6-regular CPP for any PP a_1",
                  _Q57, _by_m(_regular_cpp)),
    "p4.5": _p4("r=7, M=M(Q_7), tau touches only x_1: 7-regular CPP over F_{q^6}",
                _Q23, _by_seed(_CENSUS)),
    "p4.6": _p4("p=2, h=t^3+t^2+1, additive tau: sigma and sigma+e are both "
                "7-regular CPPs over F_{q^3}",
                _Q24, _by_mode(_SIG_E)),
    "p4.7": _p4("p=2, h=t^3+t+1, additive tau: sigma and sigma+e are both "
                "7-regular CPPs over F_{q^3}",
                _Q24, _by_mode(_SIG_E)),
    **{cid: _p4(f"p=2, M={mat}, middle-coordinate sandwich: CPP always; "
                "7-regular CPP when a_1 o a_2 = e",
                _Q24, _sandwich_cases)
       for cid, mat in (("p4.8.1", "M(t^3+t^2+1)"), ("p4.8.2", "[[0,1,1],[1,0,0],[1,0,1]]"),
                        ("p4.9.1", "M(t^3+t+1)"), ("p4.9.2", "[[1,1,1],[1,0,0],[1,0,1]]"))},
    "p4.10.1": _p4("odd r, quotient h, first-coordinate sandwich: CPP for any "
                   "PPs a_1, a_2",
                   (_f("2^1", r=3), _f("2^1", r=5), _f("2^1", r=9), _f("2^2", r=5)),
                   _by_seed(_cpp, "free", with_r=True, tau="free"), build="p4.10"),
    "p4.10.2": _p4("odd prime r, a_1 o a_2 = e: r-regular CPP over F_{q^(r-1)}",
                   (_f("2^1", r=3), _f("2^1", r=5), _f("2^2", r=5)),
                   _by_seed(_regular_cpp, with_r=True, tau="inverse"), build="p4.10",
                   guard=lambda ctx, r: None if is_prime(r) else f"r = {r} is not prime"),
    "p4.10.3": _p4("odd composite r, a_1 o a_2 = e: CPP and r-cycle but NOT "
                   "r-regular (short cycle exhibited)",
                   (_f("2^1", r=9),), _by_seed(_short_cycle), build="p4.10",
                   guard=_not_composite, full=(_f("2^1", r=9), _f("2^2", r=9))),
}

REGISTRY: dict[str, Claim] = {
    **{f"thm3.1.{part}": Claim(stmt, _thm_grid((2, 3)), _thm_grid((2, 3, 4)),
                               partial(_thm31_sweep, part), d=_deg)
       for part, stmt in enumerate((
           "h(0) != 0 implies v -> Mv is a permutation (P_M = h)",
           "h | t^n - 1 implies the n-th composite power of v -> Mv is the identity",
           "h(-1) != 0 implies v -> Mv + v is a permutation",
           "h | (t+1)^m - 1 implies the m-th composite power of v -> Mv + v is the identity",
       ), start=1)},
    **{f"thm3.2.{part}": Claim(stmt, _thm_grid((2,)), _thm_grid((2, 3)),
                               partial(_thm32_sweep, part, _tau_additive), d=_deg)
       for part, stmt in enumerate((
           "additive tau1, tau2: h(0) != 0 implies tau1 o sigma_M o tau2 is a permutation",
           "additive conjugation keeps the n-cycle property of sigma_M",
           "additive tau1: sigma + e = tau1 o (sigma_M + e) o tau1^{-1} and is a "
           "permutation when h(-1) != 0",
           "additive conjugation keeps the m-cycle property of sigma_M + e",
       ), start=1)},
    **{f"thm3.3.{part}": Claim(stmt, _thm_grid((2,)), _thm_grid((2, 3)),
                               partial(_thm32_sweep, part, _tau_general), d=_deg)
       for part, stmt in enumerate((
           "any PPs tau1, tau2: h(0) != 0 implies tau1 o sigma_M o tau2 is a permutation",
           "conjugation by any PP keeps the n-cycle property of sigma_M",
       ), start=1)},
    "p3.1": Claim("odd prime r, h | t^r - 1 with h != t-1 and h(-1) != 0: "
                  "sigma_M is an r-regular CPP",
                  _P31_QUICK, _P31_QUICK, partial(_p3_regular_sweep, "linear", False),
                  guard=_ODD_PRIME),
    "p3.2": Claim("composite r, h | Q_r: sigma_M is an r-regular CPP with census "
                  "1 fixed point + (q^d - 1)/r cycles of length r",
                  _P32_QUICK, _P32_QUICK, partial(_p3_regular_sweep, "linear", True),
                  guard=_COMPOSITE),
    "p3.3": Claim("composite r, reducible h | t^r - 1 sharing a factor with some "
                  "Q_l (1 < l < r), h(-1) != 0, M = M(h): sigma_M is an r-cycle "
                  "CPP but not r-regular (short cycle exhibited)",
                  _P33_QUICK, _P33_QUICK, partial(_p3_negative_sweep, "linear"),
                  guard=_COMPOSITE),
    "p3.4": Claim("p3.1 conjugated by any additive PP",
                  _P3_PRIME_QUICK, _P31_QUICK, partial(_p3_regular_sweep, "additive", False),
                  guard=_ODD_PRIME),
    "p3.5": Claim("p3.2 conjugated by any additive PP (same census)",
                  _P3_COMPOSITE_QUICK, _P32_QUICK, partial(_p3_regular_sweep, "additive", True),
                  guard=_COMPOSITE),
    "p3.6": Claim("p3.3 conjugated by any additive PP",
                  (_f("2^1", r=9), _f("3^1", r=10), _f("5^1", r=9)), _P33_QUICK,
                  partial(_p3_negative_sweep, "additive"), guard=_COMPOSITE),
    "p3.7": Claim("odd prime r: conjugating sigma_M by any PP gives an r-regular PP",
                  _P3_PRIME_QUICK, _P31_QUICK, partial(_p3_regular_sweep, "general", False),
                  guard=_ODD_PRIME),
    "p3.8": Claim("composite r, h | Q_r: conjugation by any PP gives an r-regular "
                  "PP (same census)",
                  _P3_COMPOSITE_QUICK, _P32_QUICK, partial(_p3_regular_sweep, "general", True),
                  guard=_COMPOSITE),
    "p3.9": Claim("composite r, reducible h | t^r - 1 sharing a factor with some "
                  "Q_l (1 < l < r), M = M(h): conjugation by any PP is an r-cycle "
                  "PP but not r-regular (no h(-1) condition needed for the PP case)",
                  (_f("2^1", r=9), _f("5^1", r=4), _f("3^1", r=10), _f("2^1", r=15)),
                  (_f("2^1", r=9), _f("5^1", r=4), _f("3^1", r=10), _f("2^1", r=15),
                   _f("5^1", r=9)),
                  partial(_p3_negative_sweep, "general"), guard=_COMPOSITE),
    **{cid: row(cid) for cid, row in _SECTION4.items()},
}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def claims() -> list[dict]:
    """Traceability listing: every registered claim with its grids."""
    return [{"claim": cid, "statement": c.statement,
             "quick_points": len(c.quick), "full_points": len(c.full)}
            for cid, c in sorted(REGISTRY.items())]


def expand_claim_id(claim_id: str) -> list[str]:
    """Exact id, or prefix expansion like 'p4.10' -> p4.10.1/2/3."""
    if claim_id in REGISTRY:
        return [claim_id]
    matches = sorted(c for c in REGISTRY if c.startswith(claim_id + "."))
    if not matches:
        raise UnknownClaim(f"unknown claim id {claim_id!r}")
    return matches


def verify_claim(claim_id: str, grid=None, master_seed=DEFAULT_SEED,
                 cap: Optional[int] = None, profile: str = "quick"
                 ) -> list[VerificationReport]:
    """Run one claim over a grid; deterministic under a fixed master seed."""
    if claim_id not in REGISTRY:
        raise UnknownClaim(f"unknown claim id {claim_id!r}")
    c = REGISTRY[claim_id]
    if cap is None:
        cap = QUICK_CAP if profile == "quick" else FULL_CAP
    cap = min(cap, TABLE_CAP)  # larger points are skipped, never built
    if grid is None:
        grid = c.quick if profile == "quick" else c.full
    reports = []
    for point in grid:
        rng = _rng_for(master_seed, claim_id, point)
        t0 = time.perf_counter()
        verdict, witness, work = _run(claim_id, c, dict(point), rng, cap)
        reports.append(VerificationReport(
            claim_id, dict(point), verdict, witness, work,
            elapsed=time.perf_counter() - t0))
    return reports


def verify_all(profile: str = "quick", master_seed=DEFAULT_SEED, stream=None,
               cap: Optional[int] = None) -> dict:
    """Run every registered claim; returns the summary dict.

    When ``stream`` is given, one canonical JSON line is written per report
    followed by a summary line; the stream is byte-deterministic for a fixed
    (profile, master_seed).
    """
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    failed: list[str] = []
    total = 0
    for cid in sorted(REGISTRY):
        for rep in verify_claim(cid, master_seed=master_seed, profile=profile,
                                cap=cap):
            total += 1
            if rep.verdict == PASS:
                counts["pass"] += 1
            elif rep.verdict == FAIL:
                counts["fail"] += 1
                failed.append(f"{rep.claim} {_canon(rep.params)}")
            else:
                counts["skipped"] += 1
            if stream is not None:
                stream.write(rep.to_json_line() + "\n")
    summary = {"schema": SCHEMA, "profile": profile, "seed": master_seed,
               "points": total, **counts, "failed": failed}
    if stream is not None:
        stream.write(json.dumps(summary, sort_keys=True,
                                separators=(",", ":")) + "\n")
    return summary


# ---------------------------------------------------------------------------
# Exploratory sweep (research-gap territory; reports findings, claims nothing)
# ---------------------------------------------------------------------------

def explore_quadratic(r: int, field: str, count: int = 8,
                      seed=DEFAULT_SEED) -> list[dict]:
    """Sample conjugates tau o sigma_M o tau^{-1} for proper-degree h | Q_r.

    Covers the open territory: arbitrary M with P_M = h (not just the
    companion) and coordinatewise non-additive tau.  Returns finding dicts;
    nothing here is asserted.
    """
    if r < 1 or count < 0:
        raise InvalidSpec(f"explore needs r >= 1 and count >= 0 "
                          f"(got r={r}, count={count})")
    ctx = parse_field_spec(field)
    if r % ctx.p == 0:
        return [{"r": r, "field": field, "note": "characteristic divides r"}]
    factors = irreducible_factors(cyclotomic(r, ctx))
    small = [f for f in factors if f.degree < r - 1]
    if not small:
        return [{"r": r, "field": field,
                 "note": f"Q_{r} has no proper-degree factor over this field"}]
    h = small[0]
    d = h.degree
    rng = Random(f"cppforge:explore:{seed}:{r}:{field}")
    out = []
    for i in range(count):
        m = matrix_with_char_poly(h, "conjugate", rng)
        perms = [construct.random_pp(ctx.q, rng)] + \
                [tuple(range(ctx.q)) for _ in range(d - 1)]
        tau = tau_to_table(TauSpec.coordinate(perms), ctx, d)
        sig = _conjugated(PermTable.from_matrix(m), tau)
        out.append({"r": r, "field": field, "h": h.to_json(), "draw": i,
                    "cpp": sig.is_cpp(), "regular": sig.is_r_regular(r)})
    return out
