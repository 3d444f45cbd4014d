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
point (checked against the size cap before the field is built), a fixed r
and a guard that names a violated hypothesis.  The sweep is a generator
that yields one step (verdict, witness, work) per instance, in the order the
point's RNG drew it, work being the table entries built since the previous
step.  The runner stops at the first FAIL; otherwise the point passes with
the last step's witness, or is skipped when no instance fits under the cap.
The section-4 rows use ``_p4`` and ``_p4_sweep``: name the construction the
claim builds when it is not the claim id, and list its cases with their
checks; r and d come from the construction's ``construct.CATALOG`` row.

Every sweep builds its tables as (H, q^d) int32 stacks, in blocks of at most
``_BLOCK`` entries (or one instance), and checks a block with the row-wise
kernels of ``perm``.  The theorem sweeps stack every monic h of a degree
(``linalg.companions``) and take the orders of parts 2 and 4 from
``poly.monic_orders``, computed from h alone, so they stay independent of
the table under test.  The section-3 sweeps stack the matrices of a degree,
and the section-4 sweep the cases of a point (``construct.build_rows``);
one judge, ``_steps``, checks both, and reads sigma^r = e, regularity, the
census and witness cycles from one cycle-length pass per block.

Reports are replayable: the verdict and witness are pure functions of
(claim id, parameters, master seed).  The JSON-line stream therefore emits a
deterministic ``work`` counter (table entries built) instead of wall-clock
time, which lives only on the in-memory report.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import cache, partial
from itertools import groupby, permutations
from random import Random
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import construct
from .construct import TauSpec, matrix_with_char_poly, random_additive_pp, tau_to_table
from .errors import HypothesisViolated, InvalidSpec, SizeCap, UnknownClaim
from .gf import FieldCtx, add_digits, factor, field_args, field_new, is_prime, parse_field_spec
from .linalg import companions, random_invertible
from .perm import (TABLE_CAP, CycleStructure, PermTable, add_rows, bijective_rows,
                   conjugate_rows, cycle_lengths_rows, first_cycle, matrix_tables, over_cap,
                   space)
from .poly import Poly, cyclotomic, irreducible_factors, monic_coeffs, monic_orders, monic_values

SCHEMA = "cppforge/1"
PROFILES = {"quick": 1 << 12, "full": 1 << 20}  # the instance size cap of each profile
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
        return canonical_json(self.to_json())


def canonical_json(obj) -> str:
    """The one canonical encoding: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _rng_for(master_seed, claim: str, params: dict) -> Random:
    return Random(f"cppforge:{master_seed}:{claim}:{canonical_json(params)}")


def _collision(table: np.ndarray) -> dict:
    """Smallest pair of inputs mapping to the same output."""
    order = np.argsort(table, kind="stable")
    vals = table[order]
    dup = np.nonzero(vals[1:] == vals[:-1])[0]
    i = int(dup[0])
    x1, x2 = int(order[i]), int(order[i + 1])
    return {"kind": "collision", "x1": min(x1, x2), "x2": max(x1, x2),
            "y": int(vals[i])}


def _tau_general(ctx: FieldCtx, d: int, rng: Random) -> np.ndarray:
    return construct.permutation(ctx.q ** d, rng)


def _tau_additive(ctx: FieldCtx, d: int, rng: Random) -> np.ndarray:
    return tau_to_table(random_additive_pp(ctx, d, rng), ctx, d).table


_MODES = ("companion", "conjugate")


# ---------------------------------------------------------------------------
# Theorem sweeps: the invertible-linear-map quartet and its tau versions
#
# Every monic h of the degree is checked, in monic_polys order, in row
# blocks; the steps and their work counts are those of one table per
# (h, kind), and a failing row's witness is read from that row alone.
#
# Parts 2 and 4 check sigma^n = e with n = ord(t mod h), and
# (sigma + e)^m = e with m = ord(t + 1 mod h): a bijective row passes when
# each of its cycle lengths divides n (or m).  Both orders come from
# poly.monic_orders, one array per (field, degree, shift) shared by every
# claim, never from the cycle lengths of the table under test: an order read
# off sigma would make sigma^n = e true by construction.
# ---------------------------------------------------------------------------

_BLOCK = 1 << 16


def _monic_blocks(part: int, ctx: FieldCtx, deg: int):
    """(coefficient rows, live rows, orders or None) of the monic h of degree
    deg, in blocks whose q^deg-entry tables hold at most _BLOCK entries in
    all.  A row is live when the hypothesis of part ``part`` holds: h(0) != 0
    for parts 1 and 2, h(-1) != 0 for parts 3 and 4."""
    count = ctx.q ** deg
    orders = monic_orders(ctx, deg, 0 if part == 2 else 1) if part in (2, 4) else None
    step = max(1, _BLOCK // count)
    for lo in range(0, count, step):
        coeffs = monic_coeffs(ctx, deg, lo, min(count, lo + step))
        live = coeffs[:, 0] if part <= 2 else monic_values(ctx, coeffs, ctx.neg(1))
        yield coeffs, live != 0, None if orders is None else orders[lo:lo + len(coeffs)]


def _row_failures(part: int, sig, live, orders, sp) -> tuple[dict, np.ndarray]:
    """({row: witness part} for the live rows of the stack ``sig`` that fail
    part ``part``, and the checked stack of live rows).  Part 1 needs a
    bijection and part 2 sigma^n = e with n = orders[row]; parts 3 and 4 ask
    the same of sigma + e."""
    rows = np.flatnonzero(live)
    tbl = sig[rows]
    if part >= 3:
        tbl = add_rows(sp, tbl, sp.arange)
    if part % 2:
        bad = np.flatnonzero(~bijective_rows(tbl))
        return {int(rows[i]): _collision(tbl[i]) for i in bad}, tbl
    n = orders[rows]
    good = np.flatnonzero(bijective_rows(tbl))
    ok = np.zeros(len(rows), dtype=bool)
    ok[good] = (n[good, None] % cycle_lengths_rows(tbl[good]) == 0).all(axis=1)
    key = "n" if part == 2 else "m"
    return {int(rows[i]): {key: int(n[i]), "kind": "npower!=e"} for i in np.flatnonzero(~ok)}, tbl


def _thm31_sweep(part: int, cid, ctx, r, params, rng, cap):
    """Theorem 3.1, part ``part``, for M(h) and S M(h) S^-1 over every monic h."""
    deg = params["deg"]
    sp = space(ctx, deg)
    n = sp.n
    s = matrix_tables(ctx, random_invertible(ctx, deg, rng).a[None])[0]
    # entries counted per step besides sigma: sigma^n (part 2), sigma + e
    # (part 3, for every h, as the recorded work counts have it), and
    # sigma + e with its power (part 4)
    extra = (0, n, n, 2 * n)[part - 1]
    for coeffs, live, ords in _monic_blocks(part, ctx, deg):
        base = matrix_tables(ctx, companions(ctx, coeffs))
        fails = [_row_failures(part, sig, live, ords, sp)[0]
                 for sig in (base, conjugate_rows(base.copy(), s))]
        for i, (c, checked) in enumerate(zip(coeffs.tolist(), live.tolist())):
            work = n + (extra if checked or part == 3 else 0)
            for kind, bad in zip(_MODES, fails):
                yield ((FAIL, {"h": c + [1], "matrix": kind, **bad[i]}, work) if i in bad
                       else (PASS, None, work))


def _thm32_sweep(part: int, draw_tau, cid, ctx, r, params, rng, cap):
    """Theorem 3.2 with additive taus; with ``_tau_general``, Theorem 3.3 (parts 1, 2)."""
    deg = params["deg"]
    sp = space(ctx, deg)
    n = sp.n
    t1 = draw_tau(ctx, deg, rng)
    t2i = draw_tau(ctx, deg, rng)
    work = 2 * n  # the two taus, counted with the first instance
    for coeffs, live, ords in _monic_blocks(part, ctx, deg):
        comp = companions(ctx, coeffs)
        sig = matrix_tables(ctx, comp)
        sig = t1[sig[:, t2i]] if part == 1 else conjugate_rows(sig, t1)
        fails, sige = _row_failures(part, sig, live, ords, sp)
        ident = np.zeros(len(coeffs), dtype=bool)  # rows that build M + I
        if part == 3:
            # sigma + e = tau1 o sigma_(M+I) o tau1^-1, on the bijective rows
            ok = np.isin(np.flatnonzero(live), list(fails), invert=True)
            rows = np.flatnonzero(live)[ok]
            ident[rows] = True
            diag = np.arange(deg)
            comp = comp[rows]
            comp[:, diag, diag] = add_digits(ctx.p, ctx.m, comp[:, diag, diag], 1)
            lhs = conjugate_rows(matrix_tables(ctx, comp), t1)
            for i in np.flatnonzero((sige[ok] != lhs).any(axis=1)):
                fails[int(rows[i])] = {"kind": "conjugation identity failed"}
        for i, (c, built) in enumerate(zip(coeffs.tolist(), ident.tolist())):
            work += n * (1 + built)
            bad = fails.get(i)
            yield (FAIL, {"h": c + [1], **bad}, work) if bad else (PASS, None, work)
            work = 0


# ---------------------------------------------------------------------------
# The block judge of the section-3 and section-4 sweeps.  Its checks are
# those of every claim; what a failed stage writes into the witness is the
# claim family's _Shape, passed in as data.
# ---------------------------------------------------------------------------

class _Shape(NamedTuple):
    """Per stage, what a row failing it writes: (keys, evidence shown?), or None: not run."""
    pp: tuple                   # evidence: a collision of sigma
    cpp: Optional[tuple]        # a collision of sigma + e
    r_cycle: Optional[tuple]    # the least cycle of length not 1 or r; None: no cycle stage
    regular: Optional[tuple]    # the same cycle
    one_fixed: Optional[tuple]  # the census
    short: Optional[dict]       # the keys when no short cycle exists; None: none sought


def _steps(sig, r: int, sp, rows):
    """(verdict, witness, work) of each row i of the stack ``sig``, given
    rows[i] = (shape, base witness, work): FAIL at the first stage of the
    shape that fails, of PP, CPP, sigma^r = e (every cycle length divides
    r), r-regularity (every length is 1 or r), one fixed point and a cycle of
    length l | r, 1 < l < r; else PASS, with that cycle when one is sought.
    A block costs one bijective_rows pass for sigma, one add_rows and
    bijective_rows pass for sigma + e, and one cycle_lengths_rows pass."""
    got = {}

    def fail(i, stage, evidence):
        keys, shown = stage
        got[i] = (FAIL, {**keys, **evidence()} if shown else keys)

    good = bijective_rows(sig)
    for i in np.flatnonzero(~good).tolist():
        fail(i, rows[i][0].pp, lambda: _collision(sig[i]))
    cpp = good & [shape.cpp is not None for shape, _, _ in rows]
    if cpp.any():
        sige = add_rows(sp, sig, sp.arange)
        cpp &= ~bijective_rows(sige)
        for i in np.flatnonzero(cpp).tolist():
            fail(i, rows[i][0].cpp, lambda: _collision(sige[i]))
        del sige  # freed before the cycle pass, which sets the peak
        good &= ~cpp
    cycled = np.flatnonzero(good & [shape.r_cycle is not None for shape, _, _ in rows])
    lengths = cycle_lengths_rows(sig if cycled.size == len(sig) else sig[cycled])
    r_cycle = (r % lengths == 0).all(axis=1)
    regular = ((lengths == 1) | (lengths == r)).all(axis=1)
    one_fixed = (lengths == 1).sum(axis=1) == 1
    for j, i in enumerate(cycled.tolist()):
        shape, row, ls = rows[i][0], sig[i], lengths[j]
        if not r_cycle[j] or shape.regular and not regular[j]:
            fail(i, shape.regular if r_cycle[j] else shape.r_cycle,
                 lambda: {"cycle": first_cycle(row, ls, lambda L: L > 1 and L != r)})
        elif shape.one_fixed and not one_fixed[j]:
            fail(i, shape.one_fixed,
                 lambda: {"census": CycleStructure.from_lengths(ls).to_json()})
        elif shape.short is not None:
            cyc = first_cycle(row, ls, lambda L: 1 < L < r and r % L == 0)
            got[i] = ((FAIL, shape.short) if cyc is None
                      else (PASS, {"cycle_length": len(cyc), "cycle": cyc[:16]}))
    for i, (_, base, work) in enumerate(rows):
        verdict, part = got.get(i, (PASS, None))
        yield verdict, None if part is None else {**base, **part}, work


# ---------------------------------------------------------------------------
# Section-3 sweeps
#
# The instances of a point are (h, kind) pairs, h in degree order, each kind
# drawing one matrix with P_M = h from the point's RNG, and the tau of a
# degree drawn right after its first matrix.  _p3_tables draws them in that
# order and builds them in row blocks of one degree, as one int32 stack per
# block, for _steps to judge.
# ---------------------------------------------------------------------------

@cache
def _factors_of_cyclotomic(ctx: FieldCtx, l: int) -> list[Poly]:
    """irreducible_factors(cyclotomic(l, ctx)), computed once per process for
    each field and l."""
    return irreducible_factors(cyclotomic(l, ctx))


def _cyclotomic_factors(ctx: FieldCtx, ls, cap: int) -> list[tuple[int, Poly]]:
    """(l, f) for every irreducible factor f of Q_l, l in ls, with q^deg(f) <= cap.

    Every factor of Q_l has degree ord_l(q) (Lidl & Niederreiter, Thm 2.47),
    so Q_l is factored only when q^k = 1 (mod l) for some k with q^k <= cap:
    a point whose instances all exceed the size cap factors nothing.
    """
    ks = [k for k in range(1, cap.bit_length()) if ctx.q ** k <= cap]
    return [(l, f) for l in ls if any(pow(ctx.q, k, l) == 1 % l for k in ks)
            for f in _factors_of_cyclotomic(ctx, l)]


def _products(factors: list[Poly], cap: int) -> list[tuple[Poly, tuple]]:
    """(h, S) for every nonempty set S of the distinct factors (each with
    q^deg <= cap) whose product h has q^deg(h) <= cap, sorted by h."""
    out: list = []
    for f in factors:
        out += [(f, (f,))] + [(h * f, s + (f,)) for h, s in out
                              if f.ctx.q ** (h.degree + f.degree) <= cap]
    return sorted(out, key=lambda hs: hs[0].sort_key())


def _p3_tables(hs, kinds, tau_kind: str, ctx: FieldCtx, rng: Random):
    """(instances, stack) per block: the (h, kind) of each instance, and the
    (H, q^d) int32 stack of their tables sigma_M, M of that kind with
    P_M = h, conjugated (unless tau_kind is linear) by one tau per
    dimension.  hs is sorted by degree, so each degree is one run of blocks
    of at most _BLOCK entries, or of one instance."""
    draw = {"additive": _tau_additive, "general": _tau_general}.get(tau_kind)
    for d, group in groupby(hs, key=lambda h: h.degree):
        todo = [(h, kind) for h in group for kind in kinds]
        rows = max(1, _BLOCK // ctx.q ** d)
        tau = None
        for lo in range(0, len(todo), rows):
            block = todo[lo:lo + rows]
            mats = []
            for h, kind in block:
                mats.append(matrix_with_char_poly(h, kind, rng).a)
                if tau is None and draw:  # drawn at the first instance
                    tau = draw(ctx, d, rng)
            sig = matrix_tables(ctx, np.stack(mats))
            yield block, sig if tau is None else conjugate_rows(sig, tau)


def _p3_shape(r: int, cpp: bool, regular, one_fixed, short) -> _Shape:
    return _Shape(({}, True), ({"part": "cpp"}, True) if cpp else None,
                  ({"kind": f"npower({r}) != e"}, False), regular, one_fixed, short)


def _p3_regular_sweep(tau_kind: str, composite: bool, cid, ctx, r, params, rng, cap):
    """Props on r-regularity: prime-r divisors of t^r - 1, or h | Q_r, where
    the census 1 fixed point + (n - 1)/r r-cycles is one fixed point once
    every cycle length is 1 or r."""
    factors = _cyclotomic_factors(ctx, (r,) if composite else (1, r), cap)
    hs = [h for h, _ in _products([f for _, f in factors], cap)]
    if not composite:
        tm1 = Poly(ctx, [ctx.neg(1), 1])
        # h != t-1 per the hypothesis; h(-1) != 0 restricts the p = 2
        # divisors containing t-1 (see the claim statement)
        hs = [h for h in hs if h != tm1 and h.eval_idx(ctx.neg(1)) != 0]
    shape = _p3_shape(r, tau_kind != "general", ({"kind": "not regular"}, True),
                      ({"kind": "census mismatch"}, True) if composite else None, None)
    for block, sig in _p3_tables(hs, _MODES, tau_kind, ctx, rng):
        sp = space(ctx, block[0][0].degree)
        yield from _steps(sig, r, sp, [(shape, {"h": h.to_json(), "matrix": kind, "d": h.degree},
                                        2 * sp.n) for h, kind in block])


def _p3_negative_sweep(tau_kind: str, cid, ctx, r, params, rng, cap):
    """Props 3.3/3.6/3.9: r-cycle but not r-regular, witnessed by a short cycle."""
    cpp = tau_kind != "general"
    divisors = {1}
    for f in factor(r):
        divisors |= {l * f for l in divisors}
    # h has two or more factors, so each has q^deg <= cap / q
    factors = _cyclotomic_factors(ctx, divisors, cap // ctx.q)
    short = {f for l, f in factors if 1 < l < r}
    # reducible, with a factor from some Q_l, 1 < l < r (hence sharing one
    # with (t^r - 1)/Q_r)
    hs = [h for h, s in _products([f for _, f in factors], cap)
          if len(s) >= 2 and short.intersection(s)
          and not (cpp and h.eval_idx(ctx.neg(1)) == 0)]
    shape = _p3_shape(r, cpp, None, None, {"kind": "no short-cycle witness found"})
    # the minimal-polynomial argument needs M(h)
    for block, sig in _p3_tables(hs, ("companion",), tau_kind, ctx, rng):
        sp = space(ctx, block[0][0].degree)
        yield from _steps(sig, r, sp, [(shape, {"h": h.to_json(), "d": h.degree}, 2 * sp.n)
                                       for h, _ in block])


def _not_composite(ctx: FieldCtx, r: int) -> Optional[str]:
    return None if not is_prime(r) and r >= 4 else f"r = {r} is not composite"


def _p3_guard(composite: bool, ctx: FieldCtx, r: int) -> Optional[str]:
    if r % ctx.p == 0:
        return f"gcd(r, p) != 1 (r={r}, p={ctx.p})"
    if composite:
        return _not_composite(ctx, r)
    return None if is_prime(r) and r % 2 == 1 else f"r = {r} is not an odd prime"


# ---------------------------------------------------------------------------
# Section-4 sweep: named constructions.  A check is a function (p, r) -> the
# tables one case judges, as pairs (sigma + e in place of sigma, witness
# shape); only the first adds work.
# ---------------------------------------------------------------------------

def _regular_check(p: int, r: int, census=False, sig_e=False, plus_e=False) -> list:
    """PP, CPP and r-regular, with a single fixed point when p = 2, of sigma
    (sigma + e with ``plus_e``).  ``census``: 1 fixed point + (n - 1)/r
    r-cycles, one fixed point once every cycle has length r.  ``sig_e``:
    when p = 2, sigma + e too (a CPP once sigma is, as (sigma + e) + e = sigma)."""
    regular, sige = ({"part": "regular"}, True), ({"part": "sigma+e regular"}, True)
    fixed = (({"part": "fixed-points"}, True) if p == 2
             else ({"kind": "census mismatch"}, True) if census else None)
    shape = _Shape(({"part": "pp"}, True), ({"part": "cpp"}, True), regular, regular, fixed, None)
    sig_e_rows = [(True, shape._replace(r_cycle=sige, regular=sige, one_fixed=(
        {"part": "sigma+e fixed-points"}, False)))] if sig_e and p == 2 else []
    return [(plus_e, shape)] + sig_e_rows


def _cpp_check(p: int, r: int) -> list:
    return [(False, _Shape(({}, True), ({}, True), None, None, None, None))]


def _short_cycle_check(p: int, r: int) -> list:
    """CPP and an r-cycle, but not r-regular: exhibits a cycle of length l | r."""
    cpp = ({"part": "cpp"}, False)
    return [(False, _Shape(cpp, cpp, ({"part": f"npower({r}) != e"}, False), None, None,
                           {"part": "unexpectedly regular"}))]


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
    out = _by_seed(_regular_check)(ctx, r, seeds, rng)
    cube = tuple(ctx.pow(x, 3) for x in range(ctx.q))
    if sorted(cube) == list(range(ctx.q)):
        out.append(("a=x^3", {"a": cube}, _regular_check))
    return out


def _any_a1_cases(ctx, r, seeds, rng):
    """p4.4.2, checked as stated: every a_1 when q <= 5, else 60 seeded draws."""
    if ctx.q <= 5:
        return [("exhaustive", {"a1": a}, _regular_check) for a in permutations(range(ctx.q))]
    return [("sampled", {"seed": rng.randrange(1 << 30)}, _regular_check)
            for _ in range(60)]


def _sandwich_cases(ctx, r, seeds, rng):
    """p4.8/p4.9: a free sandwich is a CPP; a_2 = a_1^{-1} makes it r-regular."""
    return [case for s in seeds
            for case in (("free", {"seed": s, "tau": "free"}, _cpp_check),
                         ("inverse", {"seed": s, "tau": "inverse"}, _regular_check))]


def _p4_sweep(build_id: str, cases, show_a1: bool, cid, ctx, r, params, rng, cap):
    """The cases of ``cases`` in blocks of at most _BLOCK table entries (or one
    case), made by ``named_construction``, built by ``construct.build_rows``
    and judged by ``_steps``, one row per table a check judges."""
    seeds = [rng.randrange(1 << 30) for _ in range(2)]
    todo = cases(ctx, r, seeds, rng)
    sp = space(ctx, construct.CATALOG[build_id].dim(r))
    step = max(1, _BLOCK // sp.n)
    for lo in range(0, len(todo), step):
        specs, judged = [], []
        for k, (tag, extra, check) in enumerate(todo[lo:lo + step]):
            specs.append(construct.named_construction(build_id, {**params, "field": ctx, **extra}))
            wit = {"claim": cid, **({"case": tag} if tag else {}),
                   **{key: extra[key] for key in ("m", "seed", "r", "tau") if key in extra},
                   **({"a1": [int(x) for x in specs[-1].tau1.perms[0]]} if show_a1 else {})}
            judged += [(k, plus, (shape, wit, 0 if j else 2 * sp.n))
                       for j, (plus, shape) in enumerate(check(ctx.p, r))]
        case, plus_e, rows = map(list, zip(*judged))
        sig = construct.build_rows(specs)
        if len(case) > len(sig):
            sig = sig[case]
        if any(plus_e):
            sig[plus_e] = add_rows(sp, sig[plus_e], sp.arange)
        yield from _steps(sig, r, sp, rows)


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
    p, m, modulus = field_args(params["field"])
    r = row.r or params.get("r")
    if row.d and (over := over_cap(p ** m, row.d(params, r), cap)):
        return SKIP, {"reason": f"q^d = {over} exceeds cap {cap}"}, 0
    ctx = field_new(p, m, modulus)
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
_SIG_E = partial(_regular_check, sig_e=True)
_CENSUS = partial(_regular_check, census=True)

# The section-4 rows, made into claims once REGISTRY gives them their ids
_SECTION4 = {
    "p4.1.1": _p4("r=3 family, additive a_1, a_2: 3-regular CPP over F_{q^2}",
                  _Q247, _by_mode(_regular_check)),
    "p4.1.2": _p4("r=3 family, additive a_i and p=2: sigma + e is also a "
                  "3-regular CPP", _Q247, _by_mode(partial(_regular_check, plus_e=True)),
                  guard=lambda ctx, r: None if ctx.p == 2 else "requires characteristic 2"),
    "p4.1.3": _p4("r=3, a_2=e, M=[[0,m],[-1/m,-1]]: 3-regular CPP for any PP a_1 "
                  "(and sigma+e too when p=2)",
                  _Q247, _by_m(_SIG_E)),
    "p4.1.3m": _p4("mirror of p4.1.3 (a_1=e, a_2 arbitrary); empirical check only",
                   _Q247, _by_m(_regular_check)),
    "p4.1.4": _p4("r=3, a_2=e, M=[[-1,1],[-1,0]]: 3-regular CPP for any PP a_1",
                  _Q247, _by_seed(_regular_check)),
    "p4.2.1": _p4("r=4 family (p odd), additive a_1, a_2: 4-regular CPP",
                  _Q35, _by_mode(_regular_check)),
    "p4.2.2": _p4("r=4, a_1=a_2=a odd (a(-x)=-a(x)), M=M(Q_4): 4-regular CPP",
                  _Q35, _odd_a_cases),
    "p4.2.3": _p4("r=4, a_2=e, M=[[-1,m],[-2/m,1]]: 4-regular CPP for any PP a_1",
                  _Q35, _by_m(_regular_check)),
    "p4.3": _p4("r=5, M=M(Q_5), tau touches only x_1: 5-regular CPP over F_{q^4}",
                _Q23, _by_seed(_CENSUS)),
    "p4.4.1": _p4("r=6 family (p > 3), additive a_1, a_2: 6-regular CPP",
                  _Q57, _by_mode(_regular_check)),
    "p4.4.2": _p4("r=6, a_2=e, M=M(Q_6): claimed 6-regular CPP for any PP a_1 "
                  "(KNOWN FALSE: the sigma+e identity drops a 2*x_2 term; "
                  "checker reports the refuting a_1)",
                  _Q57, _any_a1_cases, show_a1=True),
    "p4.4.3": _p4("r=6, a_2=e, M=[[-1,m],[-3/m,2]]: 6-regular CPP for any PP a_1",
                  _Q57, _by_m(_regular_check)),
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
                   _by_seed(_cpp_check, "free", with_r=True, tau="free"), build="p4.10"),
    "p4.10.2": _p4("odd prime r, a_1 o a_2 = e: r-regular CPP over F_{q^(r-1)}",
                   (_f("2^1", r=3), _f("2^1", r=5), _f("2^2", r=5)),
                   _by_seed(_regular_check, with_r=True, tau="inverse"), build="p4.10",
                   guard=lambda ctx, r: None if is_prime(r) else f"r = {r} is not prime"),
    "p4.10.3": _p4("odd composite r, a_1 o a_2 = e: CPP and r-cycle but NOT "
                   "r-regular (short cycle exhibited)",
                   (_f("2^1", r=9),), _by_seed(_short_cycle_check), build="p4.10",
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
    if profile not in PROFILES:
        raise InvalidSpec(f"unknown profile {profile!r} (expected quick or full)")
    c = REGISTRY[claim_id]
    # larger points are skipped, never built
    cap = min(PROFILES[profile] if cap is None else cap, TABLE_CAP)
    if grid is None:
        grid = c.quick if profile == "quick" else c.full
    keys = {k for point in c.quick + c.full for k in point}
    reports = []
    for point in grid:
        if missing := sorted(keys.difference(point)):
            raise InvalidSpec(f"{claim_id} grid point {point} lacks {', '.join(missing)}")
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
    for cid in sorted(REGISTRY):
        for rep in verify_claim(cid, master_seed=master_seed, profile=profile,
                                cap=cap):
            counts[{PASS: "pass", FAIL: "fail"}.get(rep.verdict, "skipped")] += 1
            if rep.verdict == FAIL:
                failed.append(f"{rep.claim} {canonical_json(rep.params)}")
            if stream is not None:
                stream.write(rep.to_json_line() + "\n")
    summary = {"schema": SCHEMA, "profile": profile, "seed": master_seed,
               "points": sum(counts.values()), **counts, "failed": failed}
    if stream is not None:
        stream.write(canonical_json(summary) + "\n")
    return summary


# ---------------------------------------------------------------------------
# Exploratory sweep (research-gap territory; reports findings, claims nothing)
# ---------------------------------------------------------------------------

def explore_quadratic(r: int, field: str, count: int = 8,
                      seed=DEFAULT_SEED) -> list[dict]:
    """Sample conjugates tau o sigma_M o tau^{-1} for proper-degree h | Q_r.

    Covers the open territory: arbitrary M with P_M = h (not just the
    companion) and coordinatewise non-additive tau.  Returns finding dicts;
    nothing here is asserted.  Every factor of Q_r has degree k = ord_r(q),
    read before anything is factored: Q_r has no proper-degree factor when
    k >= r - 1, and raises SizeCap when q^k exceeds the table cap.
    """
    if r < 1 or count < 0:
        raise InvalidSpec(f"explore needs r >= 1 and count >= 0 "
                          f"(got r={r}, count={count})")
    ctx = parse_field_spec(field)
    if r % ctx.p == 0:
        return [{"r": r, "field": field, "note": "characteristic divides r"}]
    # k = ord_r(q): start from phi(r), which k divides as gcd(q, r) = 1, and
    # take out each prime factor f while q^(k/f) = 1 (mod r)
    k = r
    for f in set(factor(r)):
        k -= k // f
    for f in set(factor(k)):
        while k % f == 0 and pow(ctx.q, k // f, r) == 1 % r:
            k //= f
    if k >= r - 1:
        return [{"r": r, "field": field,
                 "note": f"Q_{r} has no proper-degree factor over this field"}]
    if over_cap(ctx.q, k):
        raise SizeCap(f"the factors of Q_{r} have degree {k}: q^{k} exceeds "
                      f"the {TABLE_CAP} table cap")
    h = _factors_of_cyclotomic(ctx, r)[0]
    d = h.degree
    rng = Random(f"cppforge:explore:{seed}:{r}:{field}")
    out = []
    for i in range(count):
        m = matrix_with_char_poly(h, "conjugate", rng)
        perms = [construct.random_pp(ctx.q, rng)] + \
                [tuple(range(ctx.q)) for _ in range(d - 1)]
        tau = tau_to_table(TauSpec.coordinate(perms), ctx, d)
        sig = PermTable.from_matrix(m).conjugate(tau)
        out.append({"r": r, "field": field, "h": h.to_json(), "draw": i,
                    "cpp": sig.is_cpp(), "regular": sig.is_r_regular(r)})
    return out
