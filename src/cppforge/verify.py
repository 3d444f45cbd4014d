"""Claim-level verification harness.

Every theorem and proposition the library implements has a registered claim
id (``thm3.1.2``, ``p4.4.3``, ...).  A claim is checked on a grid of small
parameter points; each point is verified by brute force (dense tables,
exhaustive scans) and yields one :class:`VerificationReport`.  Negative
claims pass only by exhibiting a concrete witness (a short cycle), never by
absence of evidence.  Hypothesis-violating or size-capped grid points get
the verdict ``hypothesis-skipped`` rather than being dropped.

The section-4 claims are one table, ``_P4_TABLE``.  To add one, give its
construction to ``construct.named_construction`` and add one ``_P4Claim``
row: statement, quick grid (full grid only where it differs), d and r
(``None`` where r comes from the grid point and d = r - 1), an optional
hypothesis guard and the instance sweep, a list of (case tag, extra
construction params, check) triples.  The checks are ``_regular_cpp``
(optionally also sigma + e when p = 2, or the census), ``_cpp``,
``_sig_e_regular_cpp`` and ``_short_cycle``; the one runner, ``_check_p4``,
does the size cap, seeds, guard, builds, work count and witnesses.

Reports are replayable: the verdict and witness are pure functions of
(claim id, parameters, master seed).  The JSON-line stream therefore emits a
deterministic ``work`` counter (table entries built) instead of wall-clock
time, which lives only on the in-memory report.
"""

from __future__ import annotations

import json
import time
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
from .poly import Poly, cyclotomic, gcd as poly_gcd, irreducible_factors, monic_polys

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


def _ctx_of(params: dict) -> FieldCtx:
    return parse_field_spec(params["field"])


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


def _divisor_products(factors: list[Poly]) -> list[Poly]:
    """All monic products of nonempty subsets of distinct squarefree factors."""
    out: list[Poly] = []
    n = len(factors)
    for mask in range(1, 1 << n):
        prod = None
        for i in range(n):
            if mask & (1 << i):
                prod = factors[i] if prod is None else prod * factors[i]
        out.append(prod)
    out.sort(key=Poly.sort_key)
    return out


def _tau_general(ctx: FieldCtx, d: int, rng: Random) -> PermTable:
    tbl = list(range(ctx.q ** d))
    rng.shuffle(tbl)
    return PermTable(ctx, d, tbl, bijective=True)


def _tau_additive(ctx: FieldCtx, d: int, rng: Random) -> PermTable:
    return tau_to_table(random_additive_pp(ctx, d, rng), ctx, d)


def _conjugated(sig: PermTable, tau: PermTable) -> PermTable:
    return tau.compose(sig.compose(tau.invert()))


# ---------------------------------------------------------------------------
# Theorem checkers (the invertible-linear-map quartet and its tau versions)
# ---------------------------------------------------------------------------

def _check_thm31(part: int):
    def run(params: dict, rng: Random, cap: int):
        ctx = _ctx_of(params)
        deg = params["deg"]
        n = ctx.q ** deg
        if n > cap:
            return SKIP, {"reason": f"q^d = {n} exceeds cap {cap}"}, 0
        e = PermTable.identity(ctx, deg)
        s_mat = random_invertible(ctx, deg, rng)
        s_tbl = PermTable.from_matrix(s_mat)
        s_inv = s_tbl.invert()
        work = 0
        for h in monic_polys(ctx, deg):
            h0 = h.coeffs[0]
            hm1 = h.eval_idx(ctx.neg(1))
            base = PermTable.from_matrix(companion(h))
            for kind, sig in (("companion", base),
                              ("conjugate", s_tbl.compose(base.compose(s_inv)))):
                work += sig.n
                wit = {"h": h.to_json(), "matrix": kind}
                if part == 1:
                    if h0 != 0 and not sig.bijective:
                        return FAIL, {**wit, **_collision(sig.table)}, work
                elif part == 2:
                    if h0 != 0:
                        n0 = _ord_mod(h, 0)
                        work += sig.n
                        if sig.npower(n0) != e:
                            return FAIL, {**wit, "n": n0, "kind": "npower!=e"}, work
                elif part == 3:
                    sige = sig.add_pointwise(e)
                    work += sige.n
                    if hm1 != 0 and not sige.bijective:
                        return FAIL, {**wit, **_collision(sige.table)}, work
                elif part == 4:
                    if hm1 != 0:
                        sige = sig.add_pointwise(e)
                        m0 = _ord_mod(h, 1)
                        work += 2 * sige.n
                        if sige.npower(m0) != e:
                            return FAIL, {**wit, "m": m0, "kind": "npower!=e"}, work
        return PASS, None, work

    return run


def _check_thm32(part: int, draw_tau=_tau_additive):
    """Theorem 3.2 with additive taus; with ``_tau_general``, Theorem 3.3 (parts 1, 2)."""

    def run(params: dict, rng: Random, cap: int):
        ctx = _ctx_of(params)
        deg = params["deg"]
        n = ctx.q ** deg
        if n > cap:
            return SKIP, {"reason": f"q^d = {n} exceeds cap {cap}"}, 0
        e = PermTable.identity(ctx, deg)
        t1 = draw_tau(ctx, deg, rng)
        t2i = draw_tau(ctx, deg, rng)
        t1_inv = t1.invert()
        work = 2 * n
        for h in monic_polys(ctx, deg):
            h0 = h.coeffs[0]
            hm1 = h.eval_idx(ctx.neg(1))
            sig_m = PermTable.from_matrix(companion(h))
            work += n
            wit = {"h": h.to_json()}
            if part == 1:
                sig = t1.compose(sig_m.compose(t2i))
                if h0 != 0 and not sig.bijective:
                    return FAIL, {**wit, **_collision(sig.table)}, work
                continue
            sig = t1.compose(sig_m.compose(t1_inv))
            if part == 2:
                if h0 != 0:
                    n0 = _ord_mod(h, 0)
                    if sig.npower(n0) != e:
                        return FAIL, {**wit, "n": n0, "kind": "npower!=e"}, work
            elif part == 3:
                if hm1 != 0:
                    sige = sig.add_pointwise(e)
                    if not sige.bijective:
                        return FAIL, {**wit, **_collision(sige.table)}, work
                    mpi = companion(h) + Mat.identity(ctx, deg)
                    lhs = t1.compose(PermTable.from_matrix(mpi).compose(t1_inv))
                    work += n
                    if sige != lhs:
                        return FAIL, {**wit, "kind": "conjugation identity failed"}, work
            elif part == 4:
                if hm1 != 0:
                    sige = sig.add_pointwise(e)
                    m0 = _ord_mod(h, 1)
                    if sige.npower(m0) != e:
                        return FAIL, {**wit, "m": m0, "kind": "npower!=e"}, work
        return PASS, None, work

    return run


# ---------------------------------------------------------------------------
# Section-3 proposition checkers
# ---------------------------------------------------------------------------

def _wrap_tau(sig: PermTable, ctx: FieldCtx, d: int, tau_kind: str,
              rng: Random, taus: dict) -> PermTable:
    if tau_kind == "linear":
        return sig
    t1 = taus.get(d)
    if t1 is None:
        t1 = (_tau_additive if tau_kind == "additive" else _tau_general)(ctx, d, rng)
        taus[d] = t1
    return _conjugated(sig, t1)


def _check_p3_regular(tau_kind: str, composite: bool):
    """Props on r-regularity: prime-r divisors of t^r - 1, or h | Q_r."""

    def run(params: dict, rng: Random, cap: int):
        ctx = _ctx_of(params)
        r = params["r"]
        if r % ctx.p == 0:
            return SKIP, {"reason": f"gcd(r, p) != 1 (r={r}, p={ctx.p})"}, 0
        if composite and (is_prime(r) or r < 4):
            return SKIP, {"reason": f"r = {r} is not composite"}, 0
        if not composite and not (is_prime(r) and r % 2 == 1):
            return SKIP, {"reason": f"r = {r} is not an odd prime"}, 0
        if composite:
            hs = _divisor_products(irreducible_factors(cyclotomic(r, ctx)))
        else:
            full = _divisor_products(
                irreducible_factors(Poly.x_pow_n_minus_1(ctx, r)))
            tm1 = Poly(ctx, [ctx.neg(1), 1])
            # h != t-1 per the hypothesis; h(-1) != 0 restricts the p = 2
            # divisors containing t-1 (see the claim statement)
            hs = [h for h in full if h != tm1 and h.eval_idx(ctx.neg(1)) != 0]
        e_cache: dict = {}
        taus: dict = {}
        work = 0
        ran = False
        for h in hs:
            d = h.degree
            n = ctx.q ** d
            if n > cap:
                continue
            ran = True
            e = e_cache.get(d)
            if e is None:
                e = PermTable.identity(ctx, d)
                e_cache[d] = e
            for kind in ("companion", "conjugate"):
                m = matrix_with_char_poly(h, kind, rng)
                sig = _wrap_tau(PermTable.from_matrix(m), ctx, d, tau_kind, rng, taus)
                work += 2 * sig.n
                wit = {"h": h.to_json(), "matrix": kind, "d": d}
                if not sig.bijective:
                    return FAIL, {**wit, **_collision(sig.table)}, work
                if tau_kind in ("linear", "additive"):
                    if not sig.is_cpp():
                        sige = sig.add_pointwise(e)
                        return FAIL, {**wit, "part": "cpp", **_collision(sige.table)}, work
                if sig.npower(r) != e:
                    return FAIL, {**wit, "kind": f"npower({r}) != e"}, work
                cs = sig.cycle_structure()
                if not all(l == r for l, _ in cs.cycles):
                    bad = sig.find_cycle(lambda L: L > 1 and L != r)
                    return FAIL, {**wit, "kind": "not regular", "cycle": bad}, work
                if composite:
                    want = ((r, (n - 1) // r),)
                    if cs.fixed_points != 1 or cs.cycles != want:
                        return FAIL, {**wit, "kind": "census mismatch",
                                      "census": cs.to_json()}, work
        if not ran:
            return SKIP, {"reason": "all instances exceed the size cap"}, work
        return PASS, None, work

    return run


def _check_p3_negative(tau_kind: str, cpp_required: bool):
    """Props 3.3/3.6/3.9: r-cycle but not r-regular, witnessed by a short cycle."""

    def run(params: dict, rng: Random, cap: int):
        ctx = _ctx_of(params)
        r = params["r"]
        if r % ctx.p == 0:
            return SKIP, {"reason": f"gcd(r, p) != 1 (r={r}, p={ctx.p})"}, 0
        if is_prime(r) or r < 4:
            return SKIP, {"reason": f"r = {r} is not composite"}, 0
        factors = irreducible_factors(Poly.x_pow_n_minus_1(ctx, r))
        qr = cyclotomic(r, ctx)
        complement = Poly.x_pow_n_minus_1(ctx, r) // qr
        witness_ls = [l for l in range(2, r) if r % l == 0]
        witness_factors = set()
        for l in witness_ls:
            for f in irreducible_factors(cyclotomic(l, ctx)):
                witness_factors.add(f)
        hs = []
        for h in _divisor_products(factors):
            if h.degree < 2:
                continue
            sub = irreducible_factors(h)
            if len(sub) < 2:
                continue  # must be reducible
            if poly_gcd(h, complement).degree == 0:
                continue
            if not any(f in witness_factors for f in sub):
                continue  # needs a factor from Q_l with 1 < l < r
            if cpp_required and h.eval_idx(ctx.neg(1)) == 0:
                continue
            hs.append(h)
        taus: dict = {}
        work = 0
        ran = False
        last_witness = None
        for h in hs:
            d = h.degree
            n = ctx.q ** d
            if n > cap:
                continue
            ran = True
            e = PermTable.identity(ctx, d)
            m = companion(h)  # the minimal-polynomial argument needs M(h)
            sig = _wrap_tau(PermTable.from_matrix(m), ctx, d, tau_kind, rng, taus)
            work += 2 * sig.n
            wit = {"h": h.to_json(), "d": d}
            if not sig.bijective:
                return FAIL, {**wit, **_collision(sig.table)}, work
            if cpp_required and not sig.is_cpp():
                sige = sig.add_pointwise(e)
                return FAIL, {**wit, "part": "cpp", **_collision(sige.table)}, work
            if sig.npower(r) != e:
                return FAIL, {**wit, "kind": f"npower({r}) != e"}, work
            cyc = sig.find_cycle(lambda L: 1 < L < r and r % L == 0)
            if cyc is None:
                return FAIL, {**wit, "kind": "no short-cycle witness found"}, work
            last_witness = {**wit, "cycle_length": len(cyc),
                            "cycle": cyc[:16]}
        if not ran:
            return SKIP, {"reason": "all instances exceed the size cap"}, work
        return PASS, last_witness, work

    return run


# ---------------------------------------------------------------------------
# Section-4 named-construction checkers
# ---------------------------------------------------------------------------
#
# A check takes (table, r, base witness) and returns (PASS, witness or None)
# or (FAIL, witness).

_WIT_KEYS = ("m", "seed", "r", "tau")
_MODES = ("companion", "conjugate")


def _off_length_cycle(tbl: PermTable, r: int):
    return tbl.find_cycle(lambda L: L > 1 and L != r)


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
    if tbl.is_r_regular(r):
        return FAIL, {**wit, "part": "unexpectedly regular"}
    cyc = tbl.find_cycle(lambda L: 1 < L < r and r % L == 0)
    if cyc is None:
        return FAIL, {**wit, "part": "no short-cycle witness"}
    return PASS, {**wit, "cycle_length": len(cyc), "cycle": cyc[:16]}


# Instance sweeps: (ctx, r, seeds, rng) -> [(case tag, extra params, check)].

def _by_seed(check, tag=None, with_r=False, **fixed):
    return lambda ctx, r, seeds, rng: [
        (tag, {"seed": s, **fixed, **({"r": r} if with_r else {})}, check) for s in seeds]


def _by_mode(check):
    return lambda ctx, r, seeds, rng: [(None, {"seed": s, "matrix_mode": mode}, check)
                                       for mode in _MODES for s in seeds]


def _by_m(check):
    return lambda ctx, r, seeds, rng: [(None, {"seed": s, "m": m}, check)
                                       for m in range(1, ctx.q) for s in seeds]


def _odd_a_sweep(ctx, r, seeds, rng):
    """p4.2.2: the seeded odd a, then a = x^3 when it permutes F_q."""
    out = _by_seed(_regular_cpp)(ctx, r, seeds, rng)
    cube = tuple(ctx.pow(x, 3) for x in range(ctx.q))
    if sorted(cube) == list(range(ctx.q)):
        out.append(("a=x^3", {"a": cube}, _regular_cpp))
    return out


def _any_a1_sweep(ctx, r, seeds, rng):
    """p4.4.2, checked as stated: every a_1 when q <= 5, else 60 seeded draws."""
    if ctx.q <= 5:
        return [("exhaustive", {"a1": a}, _regular_cpp) for a in permutations(range(ctx.q))]
    return [("sampled", {"seed": rng.randrange(1 << 30)}, _regular_cpp)
            for _ in range(60)]


def _sandwich_sweep(ctx, r, seeds, rng):
    """p4.8/p4.9: a free sandwich is a CPP; a_2 = a_1^{-1} makes it r-regular."""
    return [case for s in seeds
            for case in (("free", {"seed": s, "tau": "free"}, _cpp),
                         ("inverse", {"seed": s, "tau": "inverse"}, _regular_cpp))]


@dataclass(frozen=True)
class _P4Claim:
    """One row of the section-4 table (see the module docstring)."""
    statement: str
    grid: tuple
    d: Optional[int]                  # None: d = r - 1 (the p4.10 sandwich)
    r: Optional[int]                  # None: r comes from the grid point
    sweep: Callable
    guard: Optional[Callable] = None  # (ctx, r) -> skip reason or None
    full: Optional[tuple] = None      # full-profile grid when it differs
    show_a1: bool = False             # the witness names the drawn a_1


def _check_p4(cid: str, row: _P4Claim):
    build_id = "p4.10" if cid.startswith("p4.10.") else cid

    def run(params: dict, rng: Random, cap: int):
        ctx = _ctx_of(params)
        r = row.r or params["r"]
        n = ctx.q ** (row.d or r - 1)
        if n > cap:
            return SKIP, {"reason": f"q^d = {n} exceeds cap {cap}"}, 0
        seeds = [rng.randrange(1 << 30) for _ in range(2)]
        reason = row.guard(ctx, r) if row.guard else None
        if reason:
            return SKIP, {"reason": reason}, 0
        run_params = {**params, "field": ctx}
        work, last = 0, None
        for tag, extra, check in row.sweep(ctx, r, seeds, rng):
            try:
                spec = construct.named_construction(build_id, {**run_params, **extra})
                tbl = construct.build(spec)
            except HypothesisViolated as ex:
                return SKIP, {"reason": str(ex)}, work
            work += 2 * tbl.n
            wit = {"claim": cid, **({"case": tag} if tag else {}),
                   **{k: extra[k] for k in _WIT_KEYS if k in extra}}
            if row.show_a1:
                wit["a1"] = [int(x) for x in spec.tau1.perms[0]]
            verdict, last = check(tbl, r, wit)
            if verdict == FAIL:
                return FAIL, last, work
        return PASS, last, work

    return run


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    statement: str
    quick: tuple
    full: tuple
    checker: Callable


def _pts(*dicts) -> tuple:
    return tuple(dicts)


def _f(spec: str, **kw) -> dict:
    return {"field": spec, **kw}


_THM_FIELDS = ("2^1", "3^1", "2^2", "5^1")


def _thm_grid(degs) -> tuple:
    return tuple(_f(fs, deg=d) for fs in _THM_FIELDS for d in degs)


REGISTRY: dict[str, Claim] = {}


def _register(cid: str, statement: str, quick, full, checker) -> None:
    REGISTRY[cid] = Claim(statement, tuple(quick), tuple(full), checker)


for _part, _stmt in (
    (1, "h(0) != 0 implies v -> Mv is a permutation (P_M = h)"),
    (2, "h | t^n - 1 implies the n-th composite power of v -> Mv is the identity"),
    (3, "h(-1) != 0 implies v -> Mv + v is a permutation"),
    (4, "h | (t+1)^m - 1 implies the m-th composite power of v -> Mv + v is the identity"),
):
    _register(f"thm3.1.{_part}", _stmt,
              _thm_grid((2, 3)), _thm_grid((2, 3, 4)), _check_thm31(_part))

for _part, _stmt in (
    (1, "additive tau1, tau2: h(0) != 0 implies tau1 o sigma_M o tau2 is a permutation"),
    (2, "additive conjugation keeps the n-cycle property of sigma_M"),
    (3, "additive tau1: sigma + e = tau1 o (sigma_M + e) o tau1^{-1} and is a permutation when h(-1) != 0"),
    (4, "additive conjugation keeps the m-cycle property of sigma_M + e"),
):
    _register(f"thm3.2.{_part}", _stmt,
              _thm_grid((2,)), _thm_grid((2, 3)), _check_thm32(_part))

for _part, _stmt in (
    (1, "any PPs tau1, tau2: h(0) != 0 implies tau1 o sigma_M o tau2 is a permutation"),
    (2, "conjugation by any PP keeps the n-cycle property of sigma_M"),
):
    _register(f"thm3.3.{_part}", _stmt,
              _thm_grid((2,)), _thm_grid((2, 3)), _check_thm32(_part, _tau_general))

_P31_QUICK = _pts(_f("2^1", r=3), _f("2^2", r=3), _f("5^1", r=3), _f("7^1", r=3),
                  _f("2^1", r=5), _f("3^1", r=5), _f("2^2", r=5), _f("3^2", r=5),
                  _f("2^1", r=7), _f("2^2", r=7))
_P32_QUICK = _pts(_f("3^1", r=4), _f("5^1", r=4), _f("7^1", r=4), _f("3^2", r=4),
                  _f("5^1", r=6), _f("7^1", r=6),
                  _f("3^1", r=8), _f("5^1", r=8), _f("7^1", r=8), _f("3^2", r=8),
                  _f("2^1", r=9), _f("2^2", r=9), _f("5^1", r=9), _f("7^1", r=9),
                  _f("2^3", r=9),
                  _f("3^1", r=10), _f("7^1", r=10), _f("3^2", r=10))
_P33_QUICK = _pts(_f("2^1", r=9), _f("3^1", r=10), _f("2^1", r=15), _f("5^1", r=9))

_register("p3.1", "odd prime r, h | t^r - 1 with h != t-1 and h(-1) != 0: "
                  "sigma_M is an r-regular CPP",
          _P31_QUICK, _P31_QUICK, _check_p3_regular("linear", composite=False))
_register("p3.2", "composite r, h | Q_r: sigma_M is an r-regular CPP with census "
                  "1 fixed point + (q^d - 1)/r cycles of length r",
          _P32_QUICK, _P32_QUICK, _check_p3_regular("linear", composite=True))
_register("p3.3", "composite r, reducible h | t^r - 1 sharing a factor with some "
                  "Q_l (1 < l < r), h(-1) != 0, M = M(h): sigma_M is an r-cycle "
                  "CPP but not r-regular (short cycle exhibited)",
          _P33_QUICK, _P33_QUICK, _check_p3_negative("linear", cpp_required=True))
_register("p3.4", "p3.1 conjugated by any additive PP",
          _pts(_f("2^1", r=3), _f("2^2", r=3), _f("7^1", r=3),
               _f("2^1", r=5), _f("3^1", r=5)),
          _P31_QUICK, _check_p3_regular("additive", composite=False))
_register("p3.5", "p3.2 conjugated by any additive PP (same census)",
          _pts(_f("3^1", r=4), _f("5^1", r=4), _f("5^1", r=6), _f("3^1", r=8),
               _f("2^1", r=9), _f("2^2", r=9), _f("3^1", r=10)),
          _P32_QUICK, _check_p3_regular("additive", composite=True))
_register("p3.6", "p3.3 conjugated by any additive PP",
          _pts(_f("2^1", r=9), _f("3^1", r=10), _f("5^1", r=9)),
          _P33_QUICK, _check_p3_negative("additive", cpp_required=True))
_register("p3.7", "odd prime r: conjugating sigma_M by any PP gives an r-regular PP",
          _pts(_f("2^1", r=3), _f("2^2", r=3), _f("7^1", r=3),
               _f("2^1", r=5), _f("3^1", r=5)),
          _P31_QUICK, _check_p3_regular("general", composite=False))
_register("p3.8", "composite r, h | Q_r: conjugation by any PP gives an r-regular "
                  "PP (same census)",
          _pts(_f("3^1", r=4), _f("5^1", r=4), _f("5^1", r=6), _f("3^1", r=8),
               _f("2^1", r=9), _f("2^2", r=9), _f("3^1", r=10)),
          _P32_QUICK, _check_p3_regular("general", composite=True))
_register("p3.9", "composite r, reducible h | t^r - 1 sharing a factor with some "
                  "Q_l (1 < l < r), M = M(h): conjugation by any PP is an r-cycle "
                  "PP but not r-regular (no h(-1) condition needed for the PP case)",
          _pts(_f("2^1", r=9), _f("5^1", r=4), _f("3^1", r=10), _f("2^1", r=15)),
          _pts(_f("2^1", r=9), _f("5^1", r=4), _f("3^1", r=10), _f("2^1", r=15),
               _f("5^1", r=9)),
          _check_p3_negative("general", cpp_required=False))

def _fields(*specs) -> tuple:
    return tuple(_f(s) for s in specs)


_Q247 = _fields("2^1", "2^2", "7^1")
_Q35 = _fields("3^1", "5^1")
_Q23 = _fields("2^1", "3^1")
_Q57 = _fields("5^1", "7^1")
_Q24 = _fields("2^1", "2^2")
_SIG_E = partial(_regular_cpp, sig_e=True)
_CENSUS = partial(_regular_cpp, census=True)

_P4_TABLE: dict[str, _P4Claim] = {
    "p4.1.1": _P4Claim("r=3 family, additive a_1, a_2: 3-regular CPP over F_{q^2}",
                       _Q247, 2, 3, _by_mode(_regular_cpp)),
    "p4.1.2": _P4Claim("r=3 family, additive a_i and p=2: sigma + e is also a "
                       "3-regular CPP", _Q247, 2, 3, _by_mode(_sig_e_regular_cpp),
                       guard=lambda ctx, r: None if ctx.p == 2 else "requires characteristic 2"),
    "p4.1.3": _P4Claim("r=3, a_2=e, M=[[0,m],[-1/m,-1]]: 3-regular CPP for any PP a_1 "
                       "(and sigma+e too when p=2)",
                       _Q247, 2, 3, _by_m(_SIG_E)),
    "p4.1.3m": _P4Claim("mirror of p4.1.3 (a_1=e, a_2 arbitrary); empirical check only",
                        _Q247, 2, 3, _by_m(_regular_cpp)),
    "p4.1.4": _P4Claim("r=3, a_2=e, M=[[-1,1],[-1,0]]: 3-regular CPP for any PP a_1",
                       _Q247, 2, 3, _by_seed(_regular_cpp)),
    "p4.2.1": _P4Claim("r=4 family (p odd), additive a_1, a_2: 4-regular CPP",
                       _Q35, 2, 4, _by_mode(_regular_cpp)),
    "p4.2.2": _P4Claim("r=4, a_1=a_2=a odd (a(-x)=-a(x)), M=M(Q_4): 4-regular CPP",
                       _Q35, 2, 4, _odd_a_sweep),
    "p4.2.3": _P4Claim("r=4, a_2=e, M=[[-1,m],[-2/m,1]]: 4-regular CPP for any PP a_1",
                       _Q35, 2, 4, _by_m(_regular_cpp)),
    "p4.3": _P4Claim("r=5, M=M(Q_5), tau touches only x_1: 5-regular CPP over F_{q^4}",
                     _Q23, 4, 5, _by_seed(_CENSUS)),
    "p4.4.1": _P4Claim("r=6 family (p > 3), additive a_1, a_2: 6-regular CPP",
                       _Q57, 2, 6, _by_mode(_regular_cpp)),
    "p4.4.2": _P4Claim("r=6, a_2=e, M=M(Q_6): claimed 6-regular CPP for any PP a_1 "
                       "(KNOWN FALSE: the sigma+e identity drops a 2*x_2 term; "
                       "checker reports the refuting a_1)",
                       _Q57, 2, 6, _any_a1_sweep, show_a1=True),
    "p4.4.3": _P4Claim("r=6, a_2=e, M=[[-1,m],[-3/m,2]]: 6-regular CPP for any PP a_1",
                       _Q57, 2, 6, _by_m(_regular_cpp)),
    "p4.5": _P4Claim("r=7, M=M(Q_7), tau touches only x_1: 7-regular CPP over F_{q^6}",
                     _Q23, 6, 7, _by_seed(_CENSUS)),
    "p4.6": _P4Claim("p=2, h=t^3+t^2+1, additive tau: sigma and sigma+e are both "
                     "7-regular CPPs over F_{q^3}",
                     _Q24, 3, 7, _by_mode(_SIG_E)),
    "p4.7": _P4Claim("p=2, h=t^3+t+1, additive tau: sigma and sigma+e are both "
                     "7-regular CPPs over F_{q^3}",
                     _Q24, 3, 7, _by_mode(_SIG_E)),
    **{cid: _P4Claim(f"p=2, M={mat}, middle-coordinate sandwich: CPP always; "
                     "7-regular CPP when a_1 o a_2 = e",
                     _Q24, 3, 7, _sandwich_sweep)
       for cid, mat in (("p4.8.1", "M(t^3+t^2+1)"), ("p4.8.2", "[[0,1,1],[1,0,0],[1,0,1]]"),
                        ("p4.9.1", "M(t^3+t+1)"), ("p4.9.2", "[[1,1,1],[1,0,0],[1,0,1]]"))},
    "p4.10.1": _P4Claim("odd r, quotient h, first-coordinate sandwich: CPP for any "
                        "PPs a_1, a_2",
                        (_f("2^1", r=3), _f("2^1", r=5), _f("2^1", r=9), _f("2^2", r=5)),
                        None, None, _by_seed(_cpp, "free", with_r=True, tau="free")),
    "p4.10.2": _P4Claim("odd prime r, a_1 o a_2 = e: r-regular CPP over F_{q^(r-1)}",
                        (_f("2^1", r=3), _f("2^1", r=5), _f("2^2", r=5)), None, None,
                        _by_seed(_regular_cpp, with_r=True, tau="inverse"),
                        guard=lambda ctx, r: None if is_prime(r) else f"r = {r} is not prime"),
    "p4.10.3": _P4Claim("odd composite r, a_1 o a_2 = e: CPP and r-cycle but NOT "
                        "r-regular (short cycle exhibited)",
                        (_f("2^1", r=9),), None, None, _by_seed(_short_cycle),
                        guard=lambda ctx, r: None if not is_prime(r) and r >= 4
                        else f"r = {r} is not composite",
                        full=(_f("2^1", r=9), _f("2^2", r=9))),
}

for _cid, _row in _P4_TABLE.items():
    _register(_cid, _row.statement, _row.grid, _row.full or _row.grid,
              _check_p4(_cid, _row))


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
        try:
            verdict, witness, work = c.checker(dict(point), rng, cap)
        except HypothesisViolated as ex:
            verdict, witness, work = SKIP, {"reason": str(ex)}, 0
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
