"""Builders for the regular PP / CPP constructions.

Everything here produces dense tables out of three ingredients:

* an invertible linear map v -> Mv on F_q^d, where the characteristic
  polynomial of M controls the cycle structure;
* outer permutations tau built either coordinatewise from single-coordinate
  permutations of F_q or as F_p-linear (additive) bijections;
* the sandwich sigma = tau1 o sigma_M o tau2, with tau2 derived as tau1^{-1}
  in conjugation mode.

``named_construction`` materializes the catalogued instances (ids like
``p4.1.3`` or ``p4.10``); each one validates every hypothesis eagerly and
raises HypothesisViolated otherwise, because the harness treats the claimed
conclusions as oracles and silent parameter drift would poison verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Optional, Sequence

import numpy as np

from .errors import CharacteristicDividesR, HypothesisViolated, InvalidSpec
from .gf import FieldCtx, field_new, parse_field_spec
from .linalg import Mat, companion, char_poly, random_invertible
from .perm import PermTable, linear_table, space
from .poly import Poly, cyclotomic, irreducible_factors, parse_poly


# ---------------------------------------------------------------------------
# Tau specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TauSpec:
    """An outer permutation of F_q^d.

    kind "identity": the identity map.
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
    def identity(cls) -> "TauSpec":
        return cls("identity")

    @classmethod
    def coordinate(cls, perms: Sequence[Sequence[int]]) -> "TauSpec":
        return cls("coordinate", perms=tuple(tuple(p) for p in perms))

    @classmethod
    def additive_linear(cls, matrix: Sequence[Sequence[int]]) -> "TauSpec":
        return cls("additive-linear", matrix=tuple(tuple(r) for r in matrix))


def tau_to_table(spec: TauSpec, ctx: FieldCtx, d: int) -> PermTable:
    """Materialize a TauSpec as a bijective PermTable."""
    space(ctx, d)  # raises SizeCap before any table is built
    if spec.kind == "identity":
        return PermTable.identity(ctx, d)
    if spec.kind == "coordinate":
        if spec.perms is None or len(spec.perms) != d:
            raise InvalidSpec(f"coordinate spec needs {d} permutations")
        # sum_j a_j(x_j) * q^j, one coordinate per outer addition
        out = np.zeros(1, dtype=np.int32)
        for j, a in enumerate(spec.perms):
            if sorted(a) != list(range(ctx.q)):
                raise InvalidSpec("coordinate map is not a permutation of F_q")
            out = np.add.outer(np.array(a, dtype=np.int32) * ctx.q ** j, out).ravel()
        return PermTable(ctx, d, out, bijective=True)
    if spec.kind == "additive-linear":
        total = ctx.m * d
        if spec.matrix is None or len(spec.matrix) != total:
            raise InvalidSpec(f"additive-linear spec needs a {total}x{total} matrix")
        m = Mat(field_new(ctx.p), spec.matrix)
        if m.det() == 0:
            raise InvalidSpec("additive-linear matrix is singular")
        # column k of the F_p matrix, read as base-p digits, is the image of p^k
        images = [sum(row[k] * ctx.p ** i for i, row in enumerate(m.rows))
                  for k in range(total)]
        return PermTable(ctx, d, linear_table(ctx, d, images), bijective=True)
    raise InvalidSpec(f"unknown tau kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------

def random_pp(q: int, rng: Random) -> tuple[int, ...]:
    """A seeded permutation of [0, q) (Fisher-Yates)."""
    table = list(range(q))
    rng.shuffle(table)
    return tuple(table)


def random_non_additive_pp(ctx: FieldCtx, rng: Random) -> tuple[int, ...]:
    """Seeded permutation of F_q rejected until non-additive."""
    while True:
        table = random_pp(ctx.q, rng)
        t = PermTable(ctx, 1, table, bijective=True)
        if not t.is_additive():
            return table


def random_odd_pp(ctx: FieldCtx, rng: Random) -> tuple[int, ...]:
    """Seeded permutation a with a(-x) = -a(x); fixes 0, odd characteristic."""
    if ctx.p == 2:
        return random_pp(ctx.q, rng)
    reps = []
    seen = set()
    for x in range(1, ctx.q):
        if x not in seen:
            reps.append(x)
            seen.add(x)
            seen.add(ctx.neg(x))
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
    mode: str  # "conjugation" | "sandwich"

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
        return cls(
            claim=data["claim"],
            field=ctx,
            d=data["d"],
            r=data["r"],
            h=Poly(ctx, data["h"]),
            matrix=Mat.from_json(data["matrix"]),
            tau1=TauSpec.from_json(data["tau1"]),
            tau2=TauSpec.from_json(data["tau2"]) if data["tau2"] is not None else None,
            mode=data["mode"],
        )


def build(spec: ConstructionSpec) -> PermTable:
    """Materialize tau1 o sigma_M o tau2 as a table."""
    t1 = tau_to_table(spec.tau1, spec.field, spec.d)
    sig = PermTable.from_matrix(spec.matrix)
    if spec.mode == "conjugation":
        t2 = t1.invert()
    else:
        t2 = tau_to_table(spec.tau2, spec.field, spec.d)
    return t1.compose(sig.compose(t2))


def pick_h(r: int, ctx: FieldCtx, strategy: str, explicit: Optional[Poly] = None) -> Poly:
    """Choose the control polynomial h for a target cycle length r.

    Strategies: ``full-cyclotomic`` (h = Q_r), ``irreducible-factor`` (the
    smallest-degree, lexicographically-first irreducible factor of Q_r),
    ``quotient`` (h = (t^r - 1)/(t - 1)), ``explicit``.
    """
    if r % ctx.p == 0:
        raise CharacteristicDividesR(
            f"characteristic {ctx.p} divides r = {r}")
    if strategy == "full-cyclotomic":
        return cyclotomic(r, ctx)
    if strategy == "irreducible-factor":
        return irreducible_factors(cyclotomic(r, ctx))[0]
    if strategy == "quotient":
        num = Poly.x_pow_n_minus_1(ctx, r)
        q, rem = divmod(num, Poly(ctx, [ctx.neg(1), 1]))
        if not rem.is_zero:
            raise RuntimeError("internal error: (t-1) does not divide t^r - 1")
        return q
    if strategy == "explicit":
        if explicit is None:
            raise InvalidSpec("explicit strategy needs a polynomial")
        return explicit
    raise InvalidSpec(f"unknown pick_h strategy {strategy!r}")


def matrix_with_char_poly(h: Poly, mode: str, rng: Optional[Random] = None) -> Mat:
    """A matrix whose characteristic polynomial is h.

    ``companion`` returns the companion matrix; ``conjugate`` conjugates it
    by a seeded random invertible matrix, giving a genuine non-companion
    witness with the same characteristic polynomial.
    """
    c = companion(h)
    if mode == "companion":
        return c
    if mode == "conjugate":
        if rng is None:
            rng = Random(0)
        s = random_invertible(h.ctx, c.n, rng)
        return s * c * s.inv()
    raise InvalidSpec(f"unknown matrix mode {mode!r}")


# ---------------------------------------------------------------------------
# Named constructions
# ---------------------------------------------------------------------------

def _as_ctx(params: dict) -> FieldCtx:
    if "field" in params and params["field"] is not None:
        f = params["field"]
        return f if isinstance(f, FieldCtx) else parse_field_spec(str(f))
    if "q" in params and params["q"] is not None:
        from .gf import field_from_order

        return field_from_order(int(params["q"]))
    raise InvalidSpec("construction needs a field (field=... or q=...)")


def _coord_perm(params: dict, key: str, ctx: FieldCtx, rng: Random,
                want: str = "any") -> tuple[int, ...]:
    """Resolve a single-coordinate permutation parameter.

    Explicit tables are validated; otherwise a seeded one is drawn
    ("any" a plain shuffle, "odd" an odd permutation, "additive" an
    F_p-linear one).
    """
    given = params.get(key)
    if given is not None:
        if isinstance(given, str):
            if given == "identity":
                return tuple(range(ctx.q))
            raise InvalidSpec(f"unknown permutation name {given!r}")
        table = tuple(int(x) for x in given)
        if sorted(table) != list(range(ctx.q)):
            raise HypothesisViolated(f"{key} is not a permutation of F_q")
        return table
    if want == "odd":
        return random_odd_pp(ctx, rng)
    if want == "additive":
        spec = random_additive_pp(ctx, 1, rng)
        return tuple(int(x) for x in tau_to_table(spec, ctx, 1).table)
    return random_pp(ctx.q, rng)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise HypothesisViolated(msg)


def _check_odd(ctx: FieldCtx, a: Sequence[int]) -> None:
    for x in range(ctx.q):
        if a[ctx.neg(x)] != ctx.neg(a[x]):
            raise HypothesisViolated("a must satisfy a(-x) = -a(x)")


def _check_additive_coord(ctx: FieldCtx, a: Sequence[int], name: str) -> None:
    t = PermTable(ctx, 1, a, bijective=True)
    if not t.is_additive():
        raise HypothesisViolated(f"{name} must be additive")


NAMED_IDS = (
    "p4.1.1", "p4.1.2", "p4.1.3", "p4.1.3m", "p4.1.4",
    "p4.2.1", "p4.2.2", "p4.2.3",
    "p4.3",
    "p4.4.1", "p4.4.2", "p4.4.3",
    "p4.5",
    "p4.6", "p4.7",
    "p4.8.1", "p4.8.2", "p4.9.1", "p4.9.2",
    "p4.10",
)


# The optional parameters that only some constructions read
_ONLY_FOR = {"r": ("p4.10",), "m": ("p4.1.3", "p4.1.3m", "p4.2.3", "p4.4.3"),
             "tau": ("p4.8.1", "p4.8.2", "p4.9.1", "p4.9.2", "p4.10")}


def named_construction(claim_id: str, params: dict) -> ConstructionSpec:
    """Build the catalogued construction for a claim id.

    Recognized params: field / q, r (p4.10 only), m (matrix parameter index
    in F_q^*), seed, a / a1 / a2 (explicit coordinate permutation tables or
    "identity"), matrix_mode ("companion" | "conjugate" where the claim
    allows any matrix), tau ("inverse" | "free" for the sandwich families).
    An r, m or tau that the construction does not read raises InvalidSpec.
    """
    if claim_id not in NAMED_IDS:
        raise InvalidSpec(f"unknown construction id {claim_id!r}; "
                          f"known: {', '.join(NAMED_IDS)}")
    for key, ids in _ONLY_FOR.items():
        if key in params and claim_id not in ids:
            raise InvalidSpec(f"{claim_id} does not take {key} (only {', '.join(ids)} do)")
    ctx = _as_ctx(params)
    seed = params.get("seed", 42)
    rng = Random(f"cppforge:{claim_id}:{seed}")
    p = ctx.p

    if claim_id.startswith("p4.1."):
        _require(p != 3, f"p4.1 requires characteristic != 3 (got p={p})")
        h = cyclotomic(3, ctx)
        return _two_coord_family(claim_id, ctx, 3, h, params, rng)
    if claim_id.startswith("p4.2"):
        _require(p != 2, f"p4.2 requires characteristic != 2 (got p={p})")
        h = cyclotomic(4, ctx)
        return _two_coord_family(claim_id, ctx, 4, h, params, rng)
    if claim_id.startswith("p4.4"):
        _require(p not in (2, 3), f"p4.4 requires characteristic not in {{2,3}} (got p={p})")
        h = cyclotomic(6, ctx)
        return _two_coord_family(claim_id, ctx, 6, h, params, rng)
    if claim_id in ("p4.3", "p4.5"):
        r = 5 if claim_id == "p4.3" else 7
        _require(p != r, f"{claim_id} requires characteristic != {r} (got p={p})")
        h = cyclotomic(r, ctx)
        a = _coord_perm(params, "a", ctx, rng)
        tau = TauSpec.coordinate((a,) + (tuple(range(ctx.q)),) * (r - 2))
        return ConstructionSpec(claim_id, ctx, r - 1, r, h, companion(h), tau, None,
                                "conjugation")
    if claim_id in ("p4.6", "p4.7"):
        _require(p == 2, f"{claim_id} requires characteristic 2 (got p={p})")
        text = "t^3+t^2+1" if claim_id == "p4.6" else "t^3+t+1"
        h = parse_poly(text, ctx)
        mode = params.get("matrix_mode", "companion")
        m = matrix_with_char_poly(h, mode, rng)
        tau = params.get("tau_spec")
        if tau is None:
            tau = random_additive_pp(ctx, 3, rng)
        elif not isinstance(tau, TauSpec):
            tau = TauSpec.from_json(tau)
        if tau.kind != "additive-linear" and tau.kind != "identity":
            raise HypothesisViolated(f"{claim_id} requires an additive tau")
        return ConstructionSpec(claim_id, ctx, 3, 7, h, m, tau, None, "conjugation")
    if claim_id.startswith("p4.8") or claim_id.startswith("p4.9"):
        _require(p == 2, f"{claim_id} requires characteristic 2 (got p={p})")
        if claim_id.startswith("p4.8"):
            h = parse_poly("t^3+t^2+1", ctx)
            m = companion(h) if claim_id.endswith(".1") else Mat(
                ctx, [[0, 1, 1], [1, 0, 0], [1, 0, 1]])
        else:
            h = parse_poly("t^3+t+1", ctx)
            m = companion(h) if claim_id.endswith(".1") else Mat(
                ctx, [[1, 1, 1], [1, 0, 0], [1, 0, 1]])
        tau1, tau2 = _sandwich_taus(params, ctx, rng, 3, 1)
        return ConstructionSpec(claim_id, ctx, 3, 7, h, m, tau1, tau2, "sandwich")
    if claim_id == "p4.10":
        r = int(params.get("r", 0))
        _require(r >= 3 and r % 2 == 1, f"p4.10 requires odd r >= 3 (got r={r})")
        _require(r % p != 0, f"p4.10 requires gcd(r, p) = 1 (got r={r}, p={p})")
        h = pick_h(r, ctx, "quotient")
        tau1, tau2 = _sandwich_taus(params, ctx, rng, r - 1, 0)
        return ConstructionSpec(claim_id, ctx, r - 1, r, h, companion(h), tau1, tau2,
                                "sandwich")
    raise InvalidSpec(f"unhandled construction id {claim_id!r}")


def _sandwich_taus(params: dict, ctx: FieldCtx, rng: Random, d: int, j: int):
    """tau_i = a_i on coordinate j and the identity elsewhere.

    a_2 = a_1^{-1} when params["tau"] is "inverse" (the default), otherwise
    a_2 is drawn (or given) independently.
    """
    a1 = _coord_perm(params, "a1", ctx, rng)
    if params.get("tau", "inverse") == "inverse":
        a2 = [0] * ctx.q
        for x, y in enumerate(a1):
            a2[y] = x
    else:
        a2 = _coord_perm(params, "a2", ctx, rng)
    e = tuple(range(ctx.q))
    return tuple(TauSpec.coordinate([a if k == j else e for k in range(d)])
                 for a in (a1, a2))


def _two_coord_family(claim_id: str, ctx: FieldCtx, r: int, h: Poly,
                      params: dict, rng: Random) -> ConstructionSpec:
    """The d=2 conjugation families (r = 3, 4, 6)."""
    e = tuple(range(ctx.q))
    sub = claim_id.split(".")[-1]
    base = claim_id.rsplit(".", 1)[0]  # p4.1 / p4.2 / p4.4

    def m_param() -> int:
        m_idx = int(params.get("m", 1))
        _require(1 <= m_idx < ctx.q, f"m must be in F_q^* (got index {m_idx})")
        return m_idx

    if base == "p4.1":
        if sub in ("1", "2"):
            if sub == "2":
                _require(ctx.p == 2, "p4.1.2 requires characteristic 2")
            a1 = _coord_perm(params, "a1", ctx, rng, want="additive")
            a2 = _coord_perm(params, "a2", ctx, rng, want="additive")
            _check_additive_coord(ctx, a1, "a1")
            _check_additive_coord(ctx, a2, "a2")
            mode = params.get("matrix_mode", "companion")
            m = matrix_with_char_poly(h, mode, rng)
        elif sub in ("3", "3m"):
            mi = m_param()
            m = Mat(ctx, [[0, mi], [ctx.neg(ctx.inv(mi)), ctx.neg(1)]])
            if sub == "3":
                a1 = _coord_perm(params, "a1", ctx, rng)
                a2 = e
            else:
                a1 = e
                a2 = _coord_perm(params, "a2", ctx, rng)
        elif sub == "4":
            m = Mat(ctx, [[ctx.neg(1), 1], [ctx.neg(1), 0]])
            a1 = _coord_perm(params, "a1", ctx, rng)
            a2 = e
        else:
            raise InvalidSpec(f"unknown sub-case {claim_id!r}")
    elif base == "p4.2":
        if sub == "1":
            a1 = _coord_perm(params, "a1", ctx, rng, want="additive")
            a2 = _coord_perm(params, "a2", ctx, rng, want="additive")
            _check_additive_coord(ctx, a1, "a1")
            _check_additive_coord(ctx, a2, "a2")
            m = matrix_with_char_poly(h, params.get("matrix_mode", "companion"), rng)
        elif sub == "2":
            a1 = _coord_perm(params, "a", ctx, rng, want="odd")
            _check_odd(ctx, a1)
            a2 = a1
            m = companion(h)
        elif sub == "3":
            mi = m_param()
            two = ctx.from_int(2)
            m = Mat(ctx, [[ctx.neg(1), mi], [ctx.neg(ctx.mul(two, ctx.inv(mi))), 1]])
            a1 = _coord_perm(params, "a1", ctx, rng)
            a2 = e
        else:
            raise InvalidSpec(f"unknown sub-case {claim_id!r}")
    else:  # p4.4
        if sub == "1":
            a1 = _coord_perm(params, "a1", ctx, rng, want="additive")
            a2 = _coord_perm(params, "a2", ctx, rng, want="additive")
            _check_additive_coord(ctx, a1, "a1")
            _check_additive_coord(ctx, a2, "a2")
            m = matrix_with_char_poly(h, params.get("matrix_mode", "companion"), rng)
        elif sub == "2":
            m = companion(h)
            a1 = _coord_perm(params, "a1", ctx, rng)
            a2 = e
        elif sub == "3":
            mi = m_param()
            m = Mat(ctx, [[ctx.neg(1), mi],
                          [ctx.neg(ctx.mul(ctx.from_int(3), ctx.inv(mi))),
                           ctx.from_int(2)]])
            a1 = _coord_perm(params, "a1", ctx, rng)
            a2 = e
        else:
            raise InvalidSpec(f"unknown sub-case {claim_id!r}")
    tau = TauSpec.coordinate((a1, a2))
    if char_poly(m) != h:
        raise RuntimeError("internal error: matrix charpoly != h")
    return ConstructionSpec(claim_id, ctx, 2, r, h, m, tau, None, "conjugation")
