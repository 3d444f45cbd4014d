import hashlib
import json
from random import Random

import numpy as np
import pytest

from cppforge import gf, perm
from cppforge.construct import (
    ConstructionSpec, TauSpec, build, build_rows, matrix_with_char_poly, named_construction,
    permutation, pick_h, random_additive_pp, random_odd_pp, random_pp, shuffle, tau_to_table,
    CATALOG, NAMED_IDS,
)
from cppforge.errors import (
    CharacteristicDividesR, CppforgeError, HypothesisViolated, InvalidSpec,
)
from cppforge.linalg import Mat, companion, char_poly, random_invertible, random_matrix
from cppforge.perm import PermTable, space
from cppforge.poly import cyclotomic, parse_poly

from test_perm import from_fn

F2 = gf.field_new(2)
F3 = gf.field_new(3)
F4 = gf.field_new(2, 2)
F5 = gf.field_new(5)
F7 = gf.field_new(7)


SHUFFLE_SIZES = sorted({0, 1, 2, 3, 3 ** 7} | {1 << k for k in range(13)}
                       | {(1 << k) + 1 for k in range(13)})


def _seeded(seed, gauss: bool) -> Random:
    rng = Random(seed)
    if gauss:
        rng.gauss(0.0, 1.0)  # leaves gauss_next set, which getstate() includes
    return rng


@pytest.mark.parametrize("n", SHUFFLE_SIZES)
def test_shuffle_matches_random_shuffle(n):
    # the oracle is Random.shuffle: the same permutation, and the same
    # generator state after it
    for seed, gauss in ((n, False), (f"cppforge:{n}", False), (n, True)):
        want, got = list(range(n)), list(range(n))
        oracle, rng = _seeded(seed, gauss), _seeded(seed, gauss)
        oracle.shuffle(want)
        shuffle(got, rng)
        assert got == want
        assert rng.getstate() == oracle.getstate()


# around the 2^10 steps that run in shuffle, and the power-of-two band edges
# of the bulk draw
PERMUTATION_SIZES = sorted(set(SHUFFLE_SIZES) | {(1 << 10) - 1, 5 ** 8}
                           | {(1 << k) + e for k in (11, 12, 13, 16, 17) for e in (-1, 0, 1)})


@pytest.mark.parametrize("n", PERMUTATION_SIZES)
def test_permutation_matches_random_shuffle(n):
    # the large sizes take one seed, to keep the pure-Python oracle short
    seeds = ((f"cppforge:{n}", False),) + (((n, True),) if n <= 1 << 13 else ())
    for seed, gauss in seeds:
        want = list(range(n))
        oracle, rng = _seeded(seed, gauss), _seeded(seed, gauss)
        oracle.shuffle(want)
        got = permutation(n, rng)
        assert got.dtype == np.int32
        assert got.tolist() == want
        assert rng.getstate() == oracle.getstate()


def random_non_additive_pp(ctx, rng):
    """Seeded permutation of F_q rejected until non-additive."""
    while True:
        table = random_pp(ctx.q, rng)
        if not PermTable(ctx, 1, table).is_additive():
            return table


def test_sigma_from_matrix_examples():
    assert PermTable.from_matrix(Mat.identity(F5, 2)) == PermTable.identity(F5, 2)
    s = PermTable.from_matrix(companion(cyclotomic(3, F2)))
    assert s.bijective and s.is_r_regular(3)
    sing = PermTable.from_matrix(Mat(F5, [[1, 2], [2, 4]]))
    assert not sing.bijective


@pytest.mark.parametrize("q,dims", [
    (2, (1, 3, 8)), (3, (1, 2, 5)), (4, (1, 2, 4)),
    (5, (1, 2, 3)), (7, (1, 2, 3)), (9, (1, 2, 3)),
])
def test_linear_tables_match_point_maps(q, dims):
    """from_matrix and both tau kinds agree with from_fn on their point rules."""
    ctx = gf.field_from_order(q)
    p, m = ctx.p, ctx.m
    rng = Random(q)
    for d in dims:
        mat = random_matrix(ctx, d, rng)
        rows = [list(r) for r in mat.rows]
        rows[-1] = rows[0] if d > 1 else [0]
        for mm in (mat, Mat(ctx, rows)):
            tbl = PermTable.from_matrix(mm)
            assert tbl == from_fn(ctx, d, mm.apply)
            assert tbl.bijective == (mm.det() != 0)

        spec = random_additive_pp(ctx, d, rng)

        def additive_rule(v):
            digits = [(x // p ** t) % p for x in v for t in range(m)]
            out = [sum(a * b for a, b in zip(row, digits)) % p for row in spec.matrix]
            return [sum(out[j * m + t] * p ** t for t in range(m)) for j in range(d)]

        assert tau_to_table(spec, ctx, d) == from_fn(ctx, d, additive_rule)

        perms = [random_pp(q, rng) for _ in range(d)]
        coord = tau_to_table(TauSpec.coordinate(perms), ctx, d)
        assert coord == from_fn(
            ctx, d, lambda v: [perms[j][x] for j, x in enumerate(v)])


def test_from_matrix_at_table_cap_matches_apply():
    d = 20
    mat = random_invertible(F2, d, Random(20))
    tbl = PermTable.from_matrix(mat)
    assert tbl.n == 1 << 20 and tbl.bijective
    sp = space(F2, d)
    for idx in Random(21).sample(range(tbl.n), 200):
        assert tbl(idx) == sp.pack_point(mat.apply(sp.unpack_point(idx)))


def test_tau_to_table_examples():
    assert tau_to_table(TauSpec.coordinate([range(4)] * 2), F4, 2) == PermTable.identity(F4, 2)
    rng = Random(0)
    a1 = random_non_additive_pp(F4, rng)
    spec = TauSpec.coordinate((a1, tuple(range(4))))
    t = tau_to_table(spec, F4, 2)
    assert t.bijective and not t.is_additive()
    add_spec = random_additive_pp(F4, 2, 123)
    t2 = tau_to_table(add_spec, F4, 2)
    assert t2.bijective and t2.is_additive()


def test_tau_to_table_invalid_specs():
    with pytest.raises(InvalidSpec):
        tau_to_table(TauSpec.coordinate(((0, 1, 2, 3),)), F4, 2)  # wrong arity
    with pytest.raises(InvalidSpec):
        tau_to_table(TauSpec.coordinate(((0, 0, 1, 2), (0, 1, 2, 3))), F4, 2)
    with pytest.raises(InvalidSpec):
        tau_to_table(TauSpec.additive_linear(((0, 0), (0, 0))), F2, 2)


def test_build_trivial_taus_is_sigma():
    h = cyclotomic(3, F5)
    m = companion(h)
    e = TauSpec.coordinate([range(5)] * 2)
    spec = ConstructionSpec("x", F5, 2, 3, h, m, e, e)
    assert build(spec) == PermTable.from_matrix(m)


def test_build_conjugation_preserves_cycles():
    spec = named_construction("p4.3", {"q": 3, "seed": 7})
    tbl = build(spec)
    base = PermTable.from_matrix(spec.matrix)
    assert tbl.cycle_structure() == base.cycle_structure()


@pytest.mark.parametrize("cid,params", [
    ("p4.1.1", {"q": 4, "matrix_mode": "conjugate"}), ("p4.3", {"q": 3}),
    ("p4.6", {"q": 2}), ("p4.8.1", {"q": 4, "tau": "free"}), ("p4.8.1", {"q": 4}),
    ("p4.10", {"q": 2, "r": 5, "tau": "free"}),
])
def test_build_rows_match_table_compositions(monkeypatch, cid, params):
    # each row of a stack is tau1 o sigma_M o tau1^-1 (conjugation) or
    # tau1 o sigma_M o tau2 (sandwich), composed table by table; no row,
    # and no tau, is checked for bijectivity on the way
    specs = [named_construction(cid, {**params, "seed": s}) for s in (1, 2, 3)]
    want = []
    for spec in specs:
        t1 = tau_to_table(spec.tau1, spec.field, spec.d)
        t2 = t1.invert() if spec.tau2 is None else tau_to_table(spec.tau2, spec.field, spec.d)
        want.append(t1.compose(PermTable.from_matrix(spec.matrix).compose(t2)).table.tolist())
    checked = []
    monkeypatch.setattr(perm, "bijective_rows", lambda t: checked.append(t.shape))
    stack = build_rows(specs)
    assert stack.dtype == np.int32 and stack.tolist() == want
    assert [build(spec).table.tolist() for spec in specs] == want and checked == []


def test_named_p413_q4_and_p423_q5():
    t = build(named_construction("p4.1.3", {"q": 4, "m": 2}))
    assert t.is_cpp() and t.is_r_regular(3)
    t = build(named_construction("p4.2.3", {"q": 5, "m": 3}))
    assert t.is_cpp() and t.is_r_regular(4)


@pytest.mark.parametrize("cid,params", [
    ("p4.1.1", {"q": 3}),
    ("p4.1.3", {"q": 3}),
    ("p4.2.1", {"q": 4}),
    ("p4.2.3", {"q": 2}),
    ("p4.4.1", {"q": 3}),
    ("p4.4.2", {"q": 2}),
    ("p4.6", {"q": 3}),
    ("p4.8.1", {"q": 5}),
    ("p4.10", {"q": 3, "r": 9}),
    ("p4.10", {"q": 5, "r": 4}),
    ("p4.10", {"q": 2, "r": 2}),
])
def test_hypothesis_violations(cid, params):
    with pytest.raises(HypothesisViolated):
        named_construction(cid, params)


def test_hypothesis_violation_bad_tables():
    with pytest.raises(HypothesisViolated):
        named_construction("p4.3", {"q": 2, "a": (0, 0)})  # not a permutation
    with pytest.raises(HypothesisViolated):
        named_construction("p4.2.2", {"q": 5, "a": (0, 2, 1, 3, 4)})  # not odd
    with pytest.raises(HypothesisViolated):
        # additive required for p4.1.1
        named_construction("p4.1.1", {"q": 4, "a1": (1, 0, 2, 3), "a2": (0, 1, 2, 3)})


def test_unknown_construction_id():
    with pytest.raises(InvalidSpec):
        named_construction("p9.9", {"q": 2})


@pytest.mark.parametrize("cid,params", [
    ("p4.3", {"q": 3, "a1": (0, 1, 2)}),  # p4.3 reads a
    ("p4.2.2", {"q": 5, "a1": (0, 1, 2, 3, 4)}),  # p4.2.2 reads a
    ("p4.1.3", {"q": 4, "matrix_mode": "conjugate"}),  # M is fixed by m
    ("p4.1.1", {"q": 4, "sed": 1}),
    ("p4.6", {"q": 2, "tau_spec": {"kind": "identity"}}),
    ("p4.10", {"q": 2, "r": 5, "tau": "bogus"}),
    ("p4.8.1", {"q": 2, "a2": (1, 0)}),  # a2 is read only with tau="free"
    ("p4.3", {"q": 2, "a": "identity"}),  # a table, not a name
    ("p4.3", {"field": "2^1", "q": 2}),
])
def test_parameters_a_construction_does_not_read(cid, params):
    with pytest.raises(InvalidSpec):
        named_construction(cid, params)


def test_pick_h_examples():
    assert pick_h(3, F2, "full-cyclotomic") == parse_poly("t^2+t+1", F2)
    q9 = pick_h(9, F2, "quotient")
    assert q9.degree == 8
    assert q9 * parse_poly("t-1", F2) == parse_poly("t^9-1", F2)
    with pytest.raises(CharacteristicDividesR):
        pick_h(9, F3, "quotient")
    with pytest.raises(InvalidSpec):
        pick_h(5, F2, "nonsense")


@pytest.mark.parametrize("ctx", [F2, F4, F5])
def test_pick_h_quotient_matches_division(ctx):
    # the closed form 1 + t + ... + t^(r-1) against the long division
    # of t^r - 1 by t - 1, at every odd r <= 41
    t_minus_1 = parse_poly("t-1", ctx)
    for r in range(1, 42, 2):
        if r % ctx.p == 0:
            with pytest.raises(CharacteristicDividesR):
                pick_h(r, ctx, "quotient")
            continue
        want, rem = divmod(parse_poly(f"t^{r}-1", ctx), t_minus_1)
        assert rem.is_zero and pick_h(r, ctx, "quotient") == want, (ctx.spec(), r)


def test_random_additive_pp_contract():
    s1 = random_additive_pp(F2, 1, 5)
    s2 = random_additive_pp(F2, 1, 5)
    assert s1 == s2
    assert s1.matrix == ((1,),)  # only invertible 1x1 over F_2
    for seed in range(5):
        spec = random_additive_pp(F3, 2, seed)
        assert tau_to_table(spec, F3, 2).is_additive()


def test_random_generators():
    rng = Random(1)
    a = random_pp(7, rng)
    assert sorted(a) == list(range(7))
    odd = random_odd_pp(F7, Random(2))
    assert sorted(odd) == list(range(7))
    for x in range(7):
        assert odd[F7.neg(x)] == F7.neg(odd[x])
    na = random_non_additive_pp(F4, Random(3))
    assert not PermTable(F4, 1, na).is_additive()


def test_random_odd_pp_characteristic_2():
    for ctx in (F2, F4):
        for seed in range(8):
            a = random_odd_pp(ctx, Random(seed))
            assert sorted(a) == list(range(ctx.q)) and a[0] == 0
            assert all(a[ctx.neg(x)] == ctx.neg(a[x]) for x in range(ctx.q))


def test_additive_conjugation_identity():
    # additive tau1: sigma + e equals the conjugate of sigma_{M+I}
    for ctx, r in ((F5, 4), (F2, 3), (F4, 3)):
        if r % ctx.p == 0:
            continue
        h = cyclotomic(r, ctx)
        m = companion(h)
        tau_spec = random_additive_pp(ctx, h.degree, 99)
        t1 = tau_to_table(tau_spec, ctx, h.degree)
        sig = t1.compose(PermTable.from_matrix(m).compose(t1.invert()))
        e = PermTable.identity(ctx, h.degree)
        lhs = sig.add_pointwise(e)
        rhs = t1.compose(
            PermTable.from_matrix(m + Mat.identity(ctx, h.degree)).compose(t1.invert()))
        assert lhs == rhs


def test_construction_spec_json_round_trip():
    for cid, params in (("p4.3", {"q": 2}), ("p4.8.2", {"q": 4}),
                        ("p4.10", {"q": 2, "r": 5}), ("p4.6", {"q": 2})):
        spec = named_construction(cid, params)
        rt = ConstructionSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert rt == spec
        assert build(rt) == build(spec)


def test_spec_mode_must_match_tau2():
    conj = named_construction("p4.3", {"q": 2}).to_json()
    sand = named_construction("p4.8.1", {"q": 2}).to_json()
    assert (conj["mode"], sand["mode"]) == ("conjugation", "sandwich")
    for data, mode in ((conj, "sandwich"), (sand, "conjugation"),
                       (conj, "bogus"), (sand, "bogus")):
        with pytest.raises(InvalidSpec, match="contradicts tau2"):
            ConstructionSpec.from_json({**data, "mode": mode})


def test_tau_spec_json_round_trip():
    specs = [TauSpec.coordinate(((1, 0), (0, 1))),
             random_additive_pp(F4, 2, 7)]
    for s in specs:
        assert TauSpec.from_json(json.loads(json.dumps(s.to_json()))) == s


def test_named_ids_all_buildable():
    smallest = {"p4.1.1": 2, "p4.1.2": 2, "p4.1.3": 2, "p4.1.3m": 2, "p4.1.4": 2,
                "p4.2.1": 3, "p4.2.2": 3, "p4.2.3": 3, "p4.3": 2,
                "p4.4.1": 5, "p4.4.2": 5, "p4.4.3": 5, "p4.5": 2,
                "p4.6": 2, "p4.7": 2, "p4.8.1": 2, "p4.8.2": 2,
                "p4.9.1": 2, "p4.9.2": 2, "p4.10": 2}
    for cid in NAMED_IDS:
        params = {"q": smallest[cid]}
        if cid == "p4.10":
            params["r"] = 3
        spec = named_construction(cid, params)
        assert char_poly(spec.matrix) == spec.h
        assert spec.d == spec.h.degree == CATALOG[cid].dim(spec.r)
        assert build(spec).bijective


# sha256 of _spec_pin_lines(): the spec (or the error type) of every
# construction id over q in {2, 3, 4, 5, 7, 8, 9}, three seeds and the
# parameter variants each id reads.  The spec carries M and the taus, so
# this pins each construction's RNG draw order as well as its algebra.
SPEC_PIN_SHA256 = "00828eac95af3730f9d9bbadde509b0f26ff03c60d7fa26b187b783b31f621a9"
_PIN_VARIANTS = {
    **{cid: [{}, {"matrix_mode": "conjugate"}]
       for cid in ("p4.1.1", "p4.1.2", "p4.2.1", "p4.4.1", "p4.6", "p4.7")},
    **{cid: [{}, {"tau": "free"}] for cid in ("p4.8.1", "p4.8.2", "p4.9.1", "p4.9.2")},
    **{cid: [{}, {"m": 2}, {"m": 0}] for cid in ("p4.1.3", "p4.1.3m", "p4.2.3", "p4.4.3")},
    "p4.10": [{"r": r, **tau} for r in (3, 4, 5, 9, 15) for tau in ({}, {"tau": "free"})],
}


def _spec_pin_lines():
    for cid in NAMED_IDS:
        for q in (2, 3, 4, 5, 7, 8, 9):
            for seed in (1, 42, 7):
                for extra in _PIN_VARIANTS.get(cid, [{}]):
                    params = {"q": q, "seed": seed, **extra}
                    try:
                        out = json.dumps(named_construction(cid, params).to_json(),
                                         sort_keys=True)
                    except CppforgeError as ex:
                        out = type(ex).__name__
                    yield f"{cid} {json.dumps(params, sort_keys=True)} {out}"


def test_named_construction_specs_pinned():
    lines = list(_spec_pin_lines())
    assert len(lines) == 987
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SPEC_PIN_SHA256


# --- regressions documenting claim edge cases found by brute force ---------

def test_regression_p2_full_cycle_h_is_not_cpp():
    # h = t^3 - 1 over F_2 divides t^3 - 1 and h != t-1, yet sigma_M + e is
    # singular: the odd-prime CPP family needs h(-1) != 0, which fails here.
    h = parse_poly("t^3+1", F2)
    assert h.eval_idx(F2.neg(1)) == 0
    s = PermTable.from_matrix(companion(h))
    assert s.bijective and s.npower(3) == PermTable.identity(F2, 3)
    assert s.is_r_regular(3)
    assert not s.is_cpp()


def test_regression_fixed_point_gap_keeps_regularity():
    # h = (t-1) * Q_9 over F_5 satisfies the stated negative-case hypotheses
    # but every non-fixed cycle still has length 9: the l = 1 component only
    # adds fixed points, which regularity ignores.
    h = parse_poly("t-1", F5) * cyclotomic(9, F5)
    s = PermTable.from_matrix(companion(h))
    assert s.is_cpp()
    cs = s.cycle_structure()
    assert cs.fixed_points == 5
    assert all(l == 9 for l, _ in cs.cycles)


def test_regression_p442_cube_map_fails():
    # the r=6 companion case is not a CPP for a1 = x^3 over F_5
    cube = tuple(pow(x, 3, 5) for x in range(5))
    t = build(named_construction("p4.4.2", {"q": 5, "a1": cube}))
    assert t.bijective and t.is_r_regular(6)
    assert not t.is_cpp()


def test_matrix_with_char_poly_modes():
    h = cyclotomic(5, F2)
    assert matrix_with_char_poly(h, "companion", Random(4)) == companion(h)
    conj = matrix_with_char_poly(h, "conjugate", Random(4))
    assert conj != companion(h) and char_poly(conj) == h
