"""Builders for the regular PP / CPP constructions.

Everything here produces dense tables out of three ingredients:

* an invertible linear map v -> Mv on F_q^d, where the characteristic
  polynomial of M controls the cycle structure;
* outer permutations tau built either coordinatewise from single-coordinate
  permutations of F_q or as F_p-linear (additive) bijections;
* the sandwich sigma = tau1 o sigma_M o tau2; a spec without tau2 is in
  conjugation mode, where tau2 is tau1^{-1}.

``build_rows`` builds the specs of one field, d and mode as one stack of
tables, and ``build`` is its one-row case.  ``CATALOG`` holds the named
constructions of Section 4 (ids like ``p4.1.3`` or ``p4.10``), one
:class:`Construction` row each, and ``named_construction`` is the one runner
that reads a row.  To add a construction, add one row: r (None when r is a
parameter), the table dimension d (None for r - 1), the hypothesis on
(p, r), where h comes from (the ``pick_h`` strategy "full-cyclotomic" or
"quotient", or the text of h), the parameters the row reads and a builder
that returns M and the taus (no tau2 means conjugation).  The runner raises
InvalidSpec for any other parameter and HypothesisViolated for a violated
hypothesis, eagerly, because the harness treats the claimed conclusions as
oracles and silent parameter drift would poison verification; ``table_dims``
makes the same checks and gives q and d before the field is built.  A
builder draws from the RNG in a fixed order, which the specs and the verify
streams depend on.

The seeded permutations are those of ``Random.shuffle``: ``permutation``
calls it for n <= 2^10 and for its last 2^10 steps, and above that reads the
same generator words in bulk (``getrandbits(32 * m)``, whose first word is
the lowest) and applies the swaps as array passes, leaving the generator in
the same state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from random import Random
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CharacteristicDividesR, HypothesisViolated, InvalidSpec
from .gf import TABLE_CAP, FieldCtx, field_args, field_new, parse_field_spec
from .linalg import Mat, companion, char_poly, random_invertible
from .perm import (PermTable, check_cap, compose_rows, conjugate_rows, linear_table,
                   matrix_tables, space)
from .poly import Poly, cyclotomic, parse_poly


# ---------------------------------------------------------------------------
# Tau specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TauSpec:
    """An outer permutation of F_q^d.

    kind "coordinate": d single-coordinate permutations a_1..a_d of F_q,
        acting as (x_1, ..., x_d) -> (a_1(x_1), ..., a_d(x_d)).
    kind "additive-linear": an invertible (m*d) x (m*d) matrix over F_p
        acting on the base-p digit coordinates; always additive.
    """

    kind: str
    perms: Optional[tuple[tuple[int, ...], ...]] = None
    matrix: Optional[tuple[tuple[int, ...], ...]] = None

    def to_json(self) -> dict:
        data: dict = {"kind": self.kind}
        if self.perms is not None:
            data["perms"] = [list(p) for p in self.perms]
        if self.matrix is not None:
            data["matrix"] = [list(r) for r in self.matrix]
        return data

    @classmethod
    def from_json(cls, data: dict) -> "TauSpec":
        return cls(
            data["kind"],
            tuple(tuple(p) for p in data["perms"]) if "perms" in data else None,
            tuple(tuple(r) for r in data["matrix"]) if "matrix" in data else None,
        )

    @classmethod
    def coordinate(cls, perms: Sequence[Sequence[int]]) -> "TauSpec":
        return cls("coordinate", perms=tuple(tuple(p) for p in perms))

    @classmethod
    def additive_linear(cls, matrix: Sequence[Sequence[int]]) -> "TauSpec":
        return cls("additive-linear", matrix=tuple(tuple(r) for r in matrix))


def tau_to_table(spec: TauSpec, ctx: FieldCtx, d: int) -> PermTable:
    """Materialize a TauSpec as a read-only PermTable, a bijection for a
    valid spec: the table of ``tau_array``, kept uncopied."""
    return PermTable(ctx, d, tau_array(spec, ctx, d))


def tau_array(spec: TauSpec, ctx: FieldCtx, d: int) -> np.ndarray:
    """The packed table of a TauSpec as an owned, writable int32 array of
    q^d entries, for a caller that writes into it.  A spec is checked in
    full before any table is built.

    A coordinate tau is sum_j a_j(x_j) * q^j: the sums over the low
    ceil(d/2) and the high coordinates are built as two half tables of at
    most q^ceil(d/2) entries, and the table is their one outer sum, written
    straight into it."""
    space(ctx, d)  # raises SizeCap before any table is built
    if spec.kind == "coordinate":
        if spec.perms is None or len(spec.perms) != d:
            raise InvalidSpec(f"coordinate spec needs {d} permutations")
        for a in spec.perms:
            if sorted(a) != list(range(ctx.q)):
                raise InvalidSpec("coordinate map is not a permutation of F_q")
        q, half = ctx.q, -(-d // 2)
        low = high = np.zeros(1, dtype=np.int32)
        for j, a in enumerate(spec.perms):
            term = np.array(a, dtype=np.int32) * q ** j
            if j < half:
                low = np.add.outer(term, low).ravel()
            else:
                high = np.add.outer(term, high).ravel()
        out = np.empty(q ** d, dtype=np.int32)
        np.add.outer(high, low, out=out.reshape(high.size, low.size))
        return out
    if spec.kind == "additive-linear":
        total = ctx.m * d
        if spec.matrix is None or len(spec.matrix) != total:
            raise InvalidSpec(f"additive-linear spec needs a {total}x{total} matrix")
        m = Mat(field_new(ctx.p), spec.matrix)
        if m.det() == 0:
            raise InvalidSpec("additive-linear matrix is singular")
        # column k of the F_p matrix, read as base-p digits, is the image of p^k
        images = ctx.p ** np.arange(total) @ m.a
        return linear_table(ctx, d, images)
    raise InvalidSpec(f"unknown tau kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------

_TAIL = 1 << 10  # permutation: the steps below this run in Random.shuffle


def _targets(n: int, rng: Random) -> np.ndarray:
    """The swap targets j_i of the Fisher-Yates steps i = _TAIL..n-1 (int64,
    to be widened in place into sort keys), drawn from the generator words
    exactly as ``Random.shuffle`` draws them: j <= i as getrandbits(k) with
    k = (i + 1).bit_length(), a draw above i rejected.

    Within the band of steps with k = (i + 1).bit_length(), a word w reads
    as w >> (32 - k), and word t of a block that starts at step i is read at
    a step in [i - t, i]: r <= i - t accepts for sure, r > i rejects for
    sure, and only the words in between are decided in order.  A block never
    holds more words than the band has steps left, so no word is over-drawn.
    """
    j = np.empty(n - _TAIL, dtype=np.int64)
    i = n - 1
    while i >= _TAIL:
        k = (i + 1).bit_length()
        lo = max(_TAIL, (1 << (k - 1)) - 1)
        # about m^2 / 2^(k+1) words of a block of m are ambiguous: 16 to 32 here
        block = min(1 << 16, 8 << (k // 2))
        while i >= lo:
            m = min(block, i - lo + 1)
            words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), "<u4")
            r = (words >> (32 - k)).astype(np.int32)
            take = r <= i - np.arange(m, dtype=np.int32)
            ambiguous = np.flatnonzero(~take & (r <= i))
            if ambiguous.size:
                before = np.cumsum(take, dtype=np.int32)
                extra = 0
                for t in ambiguous.tolist():
                    if r[t] <= i - (before[t] + extra):
                        take[t] = True
                        extra += 1
            got = r[take]
            j[i - _TAIL - len(got) + 1:i - _TAIL + 1] = got[::-1]
            i -= len(got)
    return j


def permutation(n: int, rng: Random) -> np.ndarray:
    """``rng.shuffle(list(range(n)))`` as an int32 array, leaving ``rng`` in
    the same state.

    The steps i >= 2^10 take their targets from ``_targets`` and are applied
    at once (after Shun, Gu, Blelloch, Fineman and Gibbons, SODA 2015).  No
    later step touches position i, so it ends holding what position j_i held
    just before step i: v(i'), for the next larger step i' on the same
    target, or j_i itself when there is none.  Here v(p) is what position p
    holds just before its own step (for p < 2^10, after all of them):
    v(i'') for the smallest step i'' > p that targets p, or p.  These chains
    resolve by pointer doubling.  The steps below 2^10 then run in
    ``Random.shuffle`` on the first 2^10 positions.
    """
    if n <= _TAIL:
        x = list(range(n))
        rng.shuffle(x)
        return np.array(x, dtype=np.int32)
    if n >= 1 << 31:
        raise ValueError(f"permutation needs n < 2^31 (got {n})")
    # the steps sorted by (target, step): runs of equal targets, steps rising;
    # the two 32-bit halves of each key are its target and its step.  Arrays
    # are int32 and dropped once used, to keep the peak near 22 bytes a point.
    key = _targets(n, rng)
    key <<= 32
    key |= np.arange(_TAIL, n, dtype=np.int32)
    key.sort()
    halves = key.view(np.int32).reshape(-1, 2)
    js, ks = (halves[:, 1], halves[:, 0]) if np.little_endian else (halves[:, 0], halves[:, 1])
    same = js[1:] == js[:-1]
    # nxt[p]: the smallest step i'' > p that targets p, or -1; only a run
    # whose first step is p itself (j_p = p) starts at its second step
    head = np.concatenate(([True], ~same))
    target = js[head]
    nxt = np.full(n, -1, dtype=np.int32)
    nxt[target] = ks[head]
    for t in np.flatnonzero(head & (ks == js)).tolist():
        nxt[js[t]] = ks[t + 1] if t + 1 < len(ks) and same[t] else -1
    del head
    val = np.arange(n, dtype=np.int32)  # v, once the chains are resolved
    live = target[nxt[target] >= 0]
    del target
    while live.size:
        on = nxt[live]
        val[live] = val[on]
        nxt[live] = nxt[on]
        live = live[nxt[live] >= 0]
    del nxt
    # step ks[t] ends holding v(ks[t + 1]) on the same target, else js[t]
    took = val[ks[1:]]
    np.copyto(took, js[:-1], where=~same)
    val[ks[:-1]] = took
    val[ks[-1]] = js[-1]
    low = val[:_TAIL].tolist()
    rng.shuffle(low)
    val[:_TAIL] = low
    return val


def random_pp(q: int, rng: Random) -> tuple[int, ...]:
    """A seeded permutation of [0, q) (Fisher-Yates)."""
    return tuple(permutation(q, rng).tolist())


def random_odd_pp(ctx: FieldCtx, rng: Random) -> tuple[int, ...]:
    """Seeded permutation a of F_q with a(-x) = -a(x); it fixes 0."""
    reps = [x for x in range(1, ctx.q) if x <= ctx.neg(x)]  # one of each pair {x, -x}
    images = reps[:]
    rng.shuffle(images)
    table = [0] * ctx.q
    for x, y in zip(reps, images):
        if rng.random() < 0.5:
            y = ctx.neg(y)
        table[x] = y
        table[ctx.neg(x)] = ctx.neg(y)
    return tuple(table)


def random_additive_pp(ctx: FieldCtx, d: int, seed) -> TauSpec:
    """Seeded additive (F_p-linear) bijection of F_q^d as a TauSpec.

    Rejection-samples an invertible (m*d) x (m*d) matrix over F_p; the same
    seed always yields the same spec.
    """
    rng = Random(seed) if not isinstance(seed, Random) else seed
    fp = field_new(ctx.p)
    m = random_invertible(fp, ctx.m * d, rng)
    return TauSpec.additive_linear(m.rows)


# ---------------------------------------------------------------------------
# Core builders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstructionSpec:
    """A fully pinned construction: field, target r, h, M and the taus."""

    claim: str
    field: FieldCtx
    d: int
    r: int
    h: Poly
    matrix: Mat
    tau1: TauSpec
    tau2: Optional[TauSpec]  # None in conjugation mode (derived as tau1^{-1})

    @property
    def mode(self) -> str:
        """"conjugation" when there is no tau2, else "sandwich"."""
        return "conjugation" if self.tau2 is None else "sandwich"

    def to_json(self) -> dict:
        return {
            "schema": "cppforge/1",
            "claim": self.claim,
            "field": self.field.spec(),
            "d": self.d,
            "r": self.r,
            "h": self.h.to_json(),
            "matrix": self.matrix.to_json(),
            "tau1": self.tau1.to_json(),
            "tau2": self.tau2.to_json() if self.tau2 is not None else None,
            "mode": self.mode,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ConstructionSpec":
        ctx = parse_field_spec(data["field"])
        spec = cls(
            claim=data["claim"],
            field=ctx,
            d=data["d"],
            r=data["r"],
            h=Poly(ctx, data["h"]),
            matrix=Mat.from_json(data["matrix"]),
            tau1=TauSpec.from_json(data["tau1"]),
            tau2=TauSpec.from_json(data["tau2"]) if data["tau2"] is not None else None,
        )
        if data["mode"] != spec.mode:
            raise InvalidSpec(f"mode {data['mode']!r} contradicts tau2 "
                              f"(expected {spec.mode!r})")
        return spec


def build_rows(specs: Sequence[ConstructionSpec]) -> np.ndarray:
    """The (H, q^d) int32 stack of tau1 o sigma_M o tau2 for H specs of one
    field, d and mode: the sigma_M from one ``matrix_tables`` call, then each
    row's tau1 by one scatter (``conjugate_rows``), or in sandwich mode
    sigma_M o tau2 and then tau1 o (...) by gathers (``compose_rows``), each
    written into the array of tau2.  So a sandwich holds at most two tables
    at once: sigma_M is freed before tau1 is built."""
    return _build(specs).reshape(len(specs), -1)


def build(spec: ConstructionSpec) -> PermTable:
    """tau1 o sigma_M o tau2 as a table: the one-row case of ``build_rows``,
    whose one owned table ``PermTable`` keeps uncopied."""
    return PermTable(spec.field, spec.d, _build([spec]))


def _build(specs: Sequence[ConstructionSpec]) -> np.ndarray:
    """``build_rows``, as one owned table for one spec."""
    ctx, d = specs[0].field, specs[0].d

    def rows(tables: list) -> np.ndarray:
        return tables[0] if len(tables) == 1 else np.stack(tables)

    def taus(key: str) -> np.ndarray:
        return rows([tau_array(getattr(s, key), ctx, d) for s in specs])

    sig = matrix_tables(ctx, rows([s.matrix.a for s in specs]))
    if specs[0].tau2 is None:
        return conjugate_rows(sig, taus("tau1"))
    table = taus("tau2")
    compose_rows(sig, table, out=table)  # sigma_M o tau2
    del sig
    return compose_rows(taus("tau1"), table, out=table)


def pick_h(r: int, ctx: FieldCtx, strategy: str) -> Poly:
    """Choose the control polynomial h for a target cycle length r.

    Strategies: ``full-cyclotomic`` (h = Q_r) and ``quotient``
    (h = (t^r - 1)/(t - 1) = 1 + t + ... + t^(r-1)).
    """
    if r % ctx.p == 0:
        raise CharacteristicDividesR(
            f"characteristic {ctx.p} divides r = {r}")
    if strategy == "full-cyclotomic":
        return cyclotomic(r, ctx)
    if strategy == "quotient":
        return Poly(ctx, [1] * r)
    raise InvalidSpec(f"unknown pick_h strategy {strategy!r}")


def matrix_with_char_poly(h: Poly, mode: str, rng: Random) -> Mat:
    """A matrix whose characteristic polynomial is h.

    ``companion`` returns the companion matrix and draws nothing;
    ``conjugate`` conjugates it by a random invertible matrix drawn from
    ``rng``, giving a genuine non-companion witness with the same
    characteristic polynomial.
    """
    c = companion(h)
    if mode == "companion":
        return c
    if mode == "conjugate":
        s = random_invertible(h.ctx, c.n, rng)
        return s * c * s.inv()
    raise InvalidSpec(f"unknown matrix mode {mode!r}")


# ---------------------------------------------------------------------------
# Named constructions
# ---------------------------------------------------------------------------

def _coord_perm(params: dict, key: str, ctx: FieldCtx, rng: Random,
                want: str = "any") -> tuple[int, ...]:
    """The permutation of F_q given as params[key], or a seeded one.

    ``want`` is what the construction needs: "any" permutation (drawn as a
    plain shuffle), an "odd" one (a(-x) = -a(x)) or an "additive"
    (F_p-linear) one.  A given table that is not one raises
    HypothesisViolated.
    """
    given = params.get(key)
    if given is None:
        if want == "odd":
            return random_odd_pp(ctx, rng)
        if want == "additive":
            return tuple(tau_array(random_additive_pp(ctx, 1, rng), ctx, 1).tolist())
        return random_pp(ctx.q, rng)
    if isinstance(given, str):
        raise InvalidSpec(f"{key} must be a table of F_q, not {given!r}")
    a = tuple(int(x) for x in given)
    if sorted(a) != list(range(ctx.q)):
        raise HypothesisViolated(f"{key} is not a permutation of F_q")
    if want == "odd" and any(a[ctx.neg(x)] != ctx.neg(a[x]) for x in range(ctx.q)):
        raise HypothesisViolated(f"{key} must satisfy a(-x) = -a(x)")
    if want == "additive" and not PermTable(ctx, 1, a).is_additive():
        raise HypothesisViolated(f"{key} must be additive")
    return a


# Matrices: (h, params, rng) -> M with characteristic polynomial h

def _any_matrix(h: Poly, params: dict, rng: Random) -> Mat:
    return matrix_with_char_poly(h, params.get("matrix_mode", "companion"), rng)


def _companion(h: Poly, params: dict, rng: Random) -> Mat:
    return companion(h)


def _fixed(rows, h: Poly, params: dict, rng: Random) -> Mat:
    """A matrix of rational integers, read in the prime field."""
    return Mat(h.ctx, [[h.ctx.from_int(c) for c in row] for row in rows])


def _m_matrix(a: int, k: int, b: int, h: Poly, params: dict, rng: Random) -> Mat:
    """[[a, m], [-k/m, b]] for the element m of F_q^* of index params["m"]."""
    ctx = h.ctx
    m = int(params.get("m", 1))  # in range: _checked_params checks it
    return Mat(ctx, [[ctx.from_int(a), m],
                     [ctx.neg(ctx.mul(ctx.from_int(k), ctx.inv(m))), ctx.from_int(b)]])


# Builders: (ctx, h, d, params, rng) -> (M, tau1, tau2 or None for conjugation)

def _coords(keys, matrix, ctx, h, d, params, rng, want="any"):
    """tau = (a_1, ..., a_d) with a_k the permutation named keys[k], given or
    drawn once per name in order; None and the coordinates past the end of
    keys get the identity.  Then M, from ``matrix``."""
    perms = {None: tuple(range(ctx.q))}
    for key in keys:
        if key not in perms:
            perms[key] = _coord_perm(params, key, ctx, rng, want)
    tau = TauSpec.coordinate([perms[key] for key in keys + (None,) * (d - len(keys))])
    return matrix(h, params, rng), tau, None


def _additive_tau(ctx, h, d, params, rng):
    """Any M with P_M = h, then a seeded additive tau of F_q^d."""
    m = _any_matrix(h, params, rng)
    return m, random_additive_pp(ctx, d, rng), None


def _sandwich(j, matrix, ctx, h, d, params, rng):
    """tau_i = a_i on coordinate j, the identity elsewhere; a_2 = a_1^{-1},
    or with params["tau"] = "free" a permutation of its own."""
    m = matrix(h, params, rng)
    a1 = _coord_perm(params, "a1", ctx, rng)
    mode = params.get("tau", "inverse")
    if mode not in ("inverse", "free") or (mode == "inverse" and "a2" in params):
        raise InvalidSpec(f"tau must be 'inverse' or 'free' (got {mode!r}); "
                          "only 'free' reads a2")
    a2 = (_coord_perm(params, "a2", ctx, rng) if mode == "free"
          else sorted(range(ctx.q), key=a1.__getitem__))
    e = tuple(range(ctx.q))
    tau1, tau2 = (TauSpec.coordinate([a if k == j else e for k in range(d)]) for a in (a1, a2))
    return m, tau1, tau2


# Hypotheses on (p, r): the text an error names, and the test
_COPRIME = ("characteristic not dividing r", lambda p, r: r % p != 0)
_CHAR2 = ("characteristic 2", lambda p, r: p == 2)
_ODD_R = ("odd r >= 3 and characteristic not dividing r",
          lambda p, r: r >= 3 and r % 2 == 1 and r % p != 0)


@dataclass(frozen=True)
class Construction:
    """One row of ``CATALOG`` (see the module docstring)."""
    r: Optional[int]       # None: r is the parameter "r"
    d: Optional[int]       # None: d = r - 1
    hypothesis: tuple[str, Callable[[int, int], bool]]  # (text, test(p, r))
    h: str                 # "full-cyclotomic" (Q_r), "quotient" or the text of h
    reads: tuple           # the parameters read besides field / q and seed
    builder: Callable      # (ctx, h, d, params, rng) -> (M, tau1, tau2 or None)

    def dim(self, r: int) -> int:
        return self.d or r - 1


_Q = "full-cyclotomic"
_PAIR_READS = ("a1", "a2", "matrix_mode")
_ADDITIVE_PAIR = partial(_coords, ("a1", "a2"), _any_matrix, want="additive")
_SANDWICH_READS = ("a1", "a2", "tau")
_M3 = partial(_m_matrix, 0, 1, -1)  # p4.1.3 and its mirror

CATALOG: dict[str, Construction] = {
    "p4.1.1": Construction(3, 2, _COPRIME, _Q, _PAIR_READS, _ADDITIVE_PAIR),
    "p4.1.2": Construction(3, 2, _CHAR2, _Q, _PAIR_READS, _ADDITIVE_PAIR),
    "p4.1.3": Construction(3, 2, _COPRIME, _Q, ("a1", "m"), partial(_coords, ("a1",), _M3)),
    "p4.1.3m": Construction(3, 2, _COPRIME, _Q, ("a2", "m"),
                            partial(_coords, (None, "a2"), _M3)),
    "p4.1.4": Construction(3, 2, _COPRIME, _Q, ("a1",),
                           partial(_coords, ("a1",), partial(_fixed, [[-1, 1], [-1, 0]]))),
    "p4.2.1": Construction(4, 2, _COPRIME, _Q, _PAIR_READS, _ADDITIVE_PAIR),
    "p4.2.2": Construction(4, 2, _COPRIME, _Q, ("a",),
                           partial(_coords, ("a", "a"), _companion, want="odd")),
    "p4.2.3": Construction(4, 2, _COPRIME, _Q, ("a1", "m"),
                           partial(_coords, ("a1",), partial(_m_matrix, -1, 2, 1))),
    "p4.3": Construction(5, None, _COPRIME, _Q, ("a",), partial(_coords, ("a",), _companion)),
    "p4.4.1": Construction(6, 2, _COPRIME, _Q, _PAIR_READS, _ADDITIVE_PAIR),
    "p4.4.2": Construction(6, 2, _COPRIME, _Q, ("a1",), partial(_coords, ("a1",), _companion)),
    "p4.4.3": Construction(6, 2, _COPRIME, _Q, ("a1", "m"),
                           partial(_coords, ("a1",), partial(_m_matrix, -1, 3, 2))),
    "p4.5": Construction(7, None, _COPRIME, _Q, ("a",), partial(_coords, ("a",), _companion)),
    "p4.6": Construction(7, 3, _CHAR2, "t^3+t^2+1", ("matrix_mode",), _additive_tau),
    "p4.7": Construction(7, 3, _CHAR2, "t^3+t+1", ("matrix_mode",), _additive_tau),
    "p4.8.1": Construction(7, 3, _CHAR2, "t^3+t^2+1", _SANDWICH_READS,
                           partial(_sandwich, 1, _companion)),
    "p4.8.2": Construction(
        7, 3, _CHAR2, "t^3+t^2+1", _SANDWICH_READS,
        partial(_sandwich, 1, partial(_fixed, [[0, 1, 1], [1, 0, 0], [1, 0, 1]]))),
    "p4.9.1": Construction(7, 3, _CHAR2, "t^3+t+1", _SANDWICH_READS,
                           partial(_sandwich, 1, _companion)),
    "p4.9.2": Construction(
        7, 3, _CHAR2, "t^3+t+1", _SANDWICH_READS,
        partial(_sandwich, 1, partial(_fixed, [[1, 1, 1], [1, 0, 0], [1, 0, 1]]))),
    "p4.10": Construction(None, None, _ODD_R, "quotient", ("r",) + _SANDWICH_READS,
                          partial(_sandwich, 0, _companion)),
}
NAMED_IDS = tuple(CATALOG)


def _checked_params(claim_id: str, params: dict):
    """(row, field, q, r, d) of ``claim_id``, all checked, with the field not
    built: the FieldCtx given or (p, m, modulus)."""
    row = CATALOG.get(claim_id)
    if row is None:
        raise InvalidSpec(f"unknown construction id {claim_id!r}; "
                          f"known: {', '.join(CATALOG)}")
    for key in params:
        if key not in ("field", "q", "seed") + row.reads:
            readers = [cid for cid, other in CATALOG.items() if key in other.reads]
            raise InvalidSpec(f"{claim_id} does not take {key}"
                              + (f" (only {', '.join(readers)} do)" if readers else ""))
    f, q = params.get("field"), params.get("q")
    if (f is None) == (q is None):
        raise InvalidSpec("construction needs the field once: field=... or q=...")
    field = f if isinstance(f, FieldCtx) else field_args(str(f) if q is None else int(q))
    p, q = (f.p, f.q) if isinstance(f, FieldCtx) else (field[0], field[0] ** field[1])
    r = row.r or int(params.get("r", 0))
    text, holds = row.hypothesis
    if not holds(p, r):
        raise HypothesisViolated(f"{claim_id} requires {text} (got p={p}, r={r})")
    d = row.dim(r)
    if d >= TABLE_CAP.bit_length():  # no q^d fits: SizeCap before h or M is built
        check_cap(q, d)
    if "m" in row.reads and not 1 <= (m := int(params.get("m", 1))) < q:
        raise HypothesisViolated(f"m must be in F_q^* (got index {m})")
    return row, field, q, r, d


def table_dims(claim_id: str, params: dict) -> tuple[int, int]:
    """(q, d) of ``claim_id``, checked as ``named_construction`` checks it, nothing built."""
    _, _, q, _, d = _checked_params(claim_id, params)
    return q, d


def named_construction(claim_id: str, params: dict) -> ConstructionSpec:
    """Build the catalogued construction ``claim_id``.

    ``params`` holds the field (field=FieldCtx or spec, or q=order), seed
    and the parameters the row reads: r (p4.10), m (index in F_q^* of the
    matrix parameter), a / a1 / a2 (explicit coordinate permutation
    tables), matrix_mode ("companion" | "conjugate" where the construction
    allows any M with P_M = h) and tau ("inverse" | "free" for the
    sandwich families).  Any other key raises InvalidSpec.
    """
    row, field, _, r, d = _checked_params(claim_id, params)
    ctx = field if isinstance(field, FieldCtx) else field_new(*field)
    rng = Random(f"cppforge:{claim_id}:{params.get('seed', 42)}")
    h = pick_h(r, ctx, row.h) if row.h in (_Q, "quotient") else parse_poly(row.h, ctx)
    m, tau1, tau2 = row.builder(ctx, h, d, params, rng)
    if char_poly(m) != h:
        raise RuntimeError("internal error: matrix charpoly != h")
    return ConstructionSpec(claim_id, ctx, d, r, h, m, tau1, tau2)
