"""Oracles for the graded Hopf algebra, the cocycle and the deformation."""

import gc
import hashlib
import json
import random

import pytest

from conftest import reference_skew_pbw_fill
from uqcomod.comodzoo import build_family, zoo_params
from uqcomod.cyclofield import field, q_factorial
from uqcomod.hopfcore import (
    ConvForm,
    FiniteAlgebra,
    FiniteCoalgebra,
    HopfAlgebraData,
    convolution,
    convolution_inverse,
    regular_comodule_algebra,
    solve_antipode,
    verify_hopf,
)
from uqcomod.uqsl2 import (
    build_dual_functionals,
    build_gr_uq,
    build_sigma,
    build_sigma_inverse,
    build_uq,
    check_order,
    closed_comultiplication_report,
    gr_generators,
    monomial_index,
    q_exponential,
    sigma_closed_coords,
    skew_pbw_algebra,
    uq_generators,
    uq_relation_report,
    verify_dual_relations,
)


def test_check_order_rejects_bad_input():
    for bad in (2, 4, 6, 1, 0, -3, "3"):
        with pytest.raises(ValueError):
            check_order(bad)
    check_order(3)
    check_order(7)


def _exponents(N, idx):
    """(i, j, k) with idx = monomial_index(N, i, j, k)."""
    return idx // (N * N), idx // N % N, idx % N


def test_monomial_index_round_trip():
    N = 5
    for i in range(N):
        for j in range(N):
            for k in range(N):
                assert _exponents(N, monomial_index(N, i, j, k)) == (i, j, k)


def test_gr_is_a_hopf_algebra(gr3):
    rep = verify_hopf(gr3)
    assert rep.ok, [c.claim_id for c in rep.failures()]
    assert len(gr3.grouplikes) == 3


def test_comultiplication_of_x_squared_frozen_oracle(gr3):
    # hand expansion: D(x^2) = x^2 (x) 1 + (1+q^-2) xg^2 (x) x + g (x) x^2
    fld = gr3.field
    m = monomial_index(3, 2, 0, 0)
    got = {(l, r): c for (l, r, c) in gr3.coalgebra.comul[m]}
    want = {
        (monomial_index(3, 2, 0, 0), monomial_index(3, 0, 0, 0)): fld.one,
        (monomial_index(3, 1, 0, 2), monomial_index(3, 1, 0, 0)):
            fld.one + fld.q_power(-2),
        (monomial_index(3, 0, 0, 1), monomial_index(3, 2, 0, 0)): fld.one,
    }
    assert got == want


def test_gr_antipode_on_generators(gr3):
    # S(x) = -gx = -q^2 xg and S(g) = g^{N-1}
    fld = gr3.field
    x_idx = monomial_index(3, 1, 0, 0)
    assert gr3.antipode[x_idx] == {monomial_index(3, 1, 0, 1): -fld.q_power(2)}
    g_idx = monomial_index(3, 0, 0, 1)
    assert gr3.antipode[g_idx] == {monomial_index(3, 0, 0, 2): fld.one}


def test_solve_antipode_matches_stored_tables():
    # the solved antipode of gr(u_q) against the closed form
    # S(x^i y^j g^k) = S(g)^k S(y)^j S(x)^i with S(g) = g^{N-1},
    # S(x) = -q^2 xg and S(y) = -q^-2 yg
    for N in (3, 5):
        H = build_gr_uq(N)
        alg, fld = H.algebra, H.field
        s_x = {monomial_index(N, 1, 0, 1): -fld.q_power(2)}
        s_y = {monomial_index(N, 0, 1, 1): -fld.q_power(-2)}
        s_g = {monomial_index(N, 0, 0, N - 1): fld.one}
        for i in range(N):
            for j in range(N):
                for k in range(N):
                    want = alg.mul_vec(alg.mul_vec(alg.pow_vec(s_g, k),
                                                   alg.pow_vec(s_y, j)),
                                       alg.pow_vec(s_x, i))
                    m = monomial_index(N, i, j, k)
                    assert H.antipode[m] == want, (N, H.labels[m])


def test_gr_commutation_relations(gr3):
    gens = gr_generators(3)
    alg = gr3.algebra
    fld = gr3.field
    gx = alg.mul_vec(gens["g"], gens["x"])
    xg = alg.mul_vec(gens["x"], gens["g"])
    assert gx == {k: fld.q_power(2) * c for k, c in xg.items()}
    yx = alg.mul_vec(gens["y"], gens["x"])
    xy = alg.mul_vec(gens["x"], gens["y"])
    assert xy == {k: fld.q_power(2) * c for k, c in yx.items()}
    assert alg.pow_vec(gens["x"], 3) == {}
    assert alg.pow_vec(gens["g"], 3) == alg.unit_vec()


def test_sigma_series_equals_closed_form(sigma3):
    assert sigma3.coords == sigma_closed_coords(3)


def test_sigma_values_on_generators(sigma3, sigma3_inv):
    fld = sigma3.hopf.field
    x = monomial_index(3, 1, 0, 0)
    y = monomial_index(3, 0, 1, 0)
    assert sigma3.coords[(x, y)] == fld.one
    assert sigma3_inv.coords[(x, y)] == -fld.one
    # normalized: sigma(1,1) = 1
    one = monomial_index(3, 0, 0, 0)
    assert sigma3.coords[(one, one)] == fld.one


def test_sigma_inverse_closed_vs_series(sigma3, sigma3_inv):
    unit = ConvForm.unit(sigma3.hopf, 2)
    assert convolution(sigma3, sigma3_inv) == unit
    assert convolution(sigma3_inv, sigma3) == unit
    assert convolution_inverse(sigma3) == sigma3_inv


def test_q_exponential_needs_nilpotent_form(gr3):
    duals = build_dual_functionals(3)
    lam = gr3.field.q_power(2)
    with pytest.raises(ValueError):
        q_exponential(duals["alpha"], lam)


def test_dual_functional_convolution_square(gr3):
    # <xi1 * xi1, x^2> picks up the middle comultiplication term:
    # (1 + q^-2) q^2 ... on x^2 g^0 the pairing gives (2)_{q^2}! = 1 + q^2
    duals = build_dual_functionals(3)
    sq = convolution(duals["xi1"], duals["xi1"])
    fld = gr3.field
    vec = {monomial_index(3, 2, 0, 0): fld.one}
    got = sq.eval_vecs(vec)
    assert got == q_factorial(2, fld.q_power(2))


def test_dual_relations_hold():
    rep = verify_dual_relations(3)
    assert rep.ok, [c.claim_id for c in rep.failures()]


def test_closed_comultiplication_report():
    rep = closed_comultiplication_report(3)
    assert rep.ok, [c.claim_id for c in rep.failures()]


def test_uq_relations_table_and_on_demand():
    # the default Hopf data is build_uq's
    for N in (3, 5):
        rep = uq_relation_report(N)
        assert rep.ok, (N, [c.claim_id for c in rep.failures()])
        assert rep.as_dict() == uq_relation_report(N, build_uq(N)).as_dict()


@pytest.mark.parametrize("label, failing", [
    ("Et0F1K0", ["uq-antipode-axiom-F", "uq-antipode-F"]),
    # Et1F0K1 = xg spans E
    ("Et1F0K1", ["uq-antipode-axiom-E", "uq-antipode-E"]),
    ("Et1F0K0", ["uq-antipode-axiom-Et"]),
    ("Et0F0K1", ["uq-antipode-axiom-K", "uq-antipode-axiom-E"]),
])
def test_corrupted_uq_antipode_fails_relation_report(uq3, label, failing):
    # negate the solved S on one basis element; the report reads S itself
    S = dict(uq3.antipode)
    i = uq3.labels.index(label)
    S[i] = {k: -c for k, c in S[i].items()}
    bad = HopfAlgebraData(uq3.algebra, uq3.coalgebra, S)
    rep = uq_relation_report(3, bad)
    assert [c.claim_id for c in rep.failures()] == failing


def test_uq_is_a_hopf_algebra(uq3):
    rep = verify_hopf(uq3)
    assert rep.ok, [c.claim_id for c in rep.failures()]
    assert uq3.algebra.dim == 27
    assert len(uq3.grouplikes) == 3


def test_uq_casimir_style_relation(uq3):
    # [E, F] = (K - K^{-1}) / (q - q^{-1}) with E = (q-q^{-1})^{-1} K Et
    gens = uq_generators(3)
    alg = uq3.algebra
    fld = uq3.field
    lhs = alg.mul_vec(gens["E"], gens["F"])
    for k, c in alg.mul_vec(gens["F"], gens["E"]).items():
        lhs[k] = lhs.get(k, fld.zero) - c
        if lhs[k].is_zero():
            del lhs[k]
    coeff = (fld.q - fld.q.inverse()).inverse()
    rhs = {k: coeff * c for k, c in gens["K"].items()}
    for k, c in gens["Kinv"].items():
        rhs[k] = rhs.get(k, fld.zero) - coeff * c
    assert lhs == rhs


def test_uq_generator_powers(uq3):
    gens = uq_generators(3)
    alg = uq3.algebra
    assert alg.pow_vec(gens["K"], 3) == alg.unit_vec()
    assert alg.pow_vec(gens["Et"], 3) == {}
    assert alg.pow_vec(gens["F"], 3) == {}
    assert alg.pow_vec(gens["E"], 3) == {}


def test_uq_comultiplication_is_undeformed(gr3, uq3):
    assert uq3.coalgebra.comul == gr3.coalgebra.comul
    assert uq3.degrees == gr3.degrees


def test_uq_antipode_solves():
    # the builders' antipodes are solved mostly by the step rule; a copy of
    # the same table without steps is solved by the Delta rule alone
    for N in (3, 5):
        for H in (build_uq(N), build_gr_uq(N)):
            alg = H.algebra
            assert len(alg.steps) == H.dim - 1
            bare = FiniteAlgebra(alg.field, alg.labels, alg.mul, alg.unit)
            assert bare.steps == ()
            assert solve_antipode(bare, H.coalgebra) == H.antipode


def test_uq7_antipode_digest():
    # sha256 of u_q(7)'s antipode table as solved by the Delta rule alone
    S = build_uq(7).antipode
    entries = sorted([i, j, str(c)] for i, v in S.items() for j, c in v.items())
    assert len(entries) == 2352
    assert hashlib.sha256(json.dumps(entries).encode()).hexdigest() \
        == "2a6f2de860997e16caa447b9875d183d6358c86fd1f38cb22b716827cc45bdd6"


def test_a_failed_step_certificate_falls_back_to_the_delta_rule(gr3):
    alg = gr3.algebra
    xy, xyg = monomial_index(3, 1, 1, 0), monomial_index(3, 1, 1, 1)
    x, x2, g = (monomial_index(3, 1, 0, 0), monomial_index(3, 2, 0, 0),
                monomial_index(3, 0, 0, 1))
    xg = monomial_index(3, 1, 0, 1)
    # row (x, g) tops out at xg, not at xy; row (x^2, x) is zero; row
    # (g, x) is q^2 xg, a certificate with c != 1
    wrong = {xy: (xy, x, g), xyg: (xyg, x2, x), xg: (xg, g, x)}
    assert alg.mul[(g, x)] == ((xg, gr3.field.q_power(2)),)
    steps = [wrong.get(m, (m, p, s)) for m, p, s in alg.steps]
    bad = FiniteAlgebra(alg.field, alg.labels, alg.mul, alg.unit)
    bad.steps = tuple(steps)
    assert solve_antipode(bad, gr3.coalgebra) == gr3.antipode


def test_the_step_rule_does_not_read_the_coproduct(gr3):
    # an extra term e_xy (x) e_y makes Delta(e_xy) non-triangular: the Delta
    # rule stops there, the step rule solves e_xy from S(y) S(x) and the
    # corruption is left to verify_hopf
    fld, co = gr3.field, gr3.coalgebra
    xy, y = monomial_index(3, 1, 1, 0), monomial_index(3, 0, 1, 0)
    comul = dict(co.comul)
    comul[xy] = comul[xy] + ((xy, y, fld.one),)
    bad = FiniteCoalgebra(fld, co.labels, comul, co.counit)
    assert solve_antipode(gr3.algebra, bad) == gr3.antipode
    alg = gr3.algebra
    bare = FiniteAlgebra(fld, alg.labels, alg.mul, alg.unit)
    with pytest.raises(ValueError, match="not triangular at x1y1g0"):
        solve_antipode(bare, bad)
    rep = verify_hopf(HopfAlgebraData(alg, bad, gr3.antipode))
    assert "hopf-antipode" in [c.claim_id for c in rep.failures()]


@pytest.mark.parametrize("N", [3, 5])
def test_gr_table_matches_closed_form(N):
    # (x^i1 y^j1 g^k1)(x^i2 y^j2 g^k2)
    #   = q^{2(k1 i2 - k1 j2 - j1 i2)} x^{i1+i2} y^{j1+j2} g^{k1+k2},
    # and 0 once i1 + i2 >= N or j1 + j2 >= N
    fld = field(N)
    want = {}
    for a in range(N ** 3):
        i1, j1, k1 = _exponents(N, a)
        for b in range(N ** 3):
            i2, j2, k2 = _exponents(N, b)
            if i1 + i2 < N and j1 + j2 < N:
                c = fld.q_power(2 * (k1 * i2 - k1 * j2 - j1 * i2))
                out = monomial_index(N, i1 + i2, j1 + j2, (k1 + k2) % N)
                want[(a, b)] = ((out, c),)
    assert build_gr_uq(N).algebra.mul == want


@pytest.mark.parametrize("N", [3, 5])
def test_gr_is_the_family_member_L3_at_r_N(N):
    H = build_gr_uq(N)
    L = build_family(zoo_params("L3", N, r=N, xi=0, zeta=0))
    assert L.algebra.mul == H.algebra.mul
    R = regular_comodule_algebra(H)
    assert {i: dict(ent) for i, ent in L.coaction.items()} \
        == {i: dict(ent) for i, ent in R.coaction.items()}


def test_cached_builders_are_read_only():
    gr = build_gr_uq(3)
    x = monomial_index(3, 1, 0, 0)
    A = build_family(zoo_params("L1", 3, r=3, xi=2))
    with pytest.raises(TypeError):
        gr.algebra.mul[(0, 0)] = ()
    with pytest.raises(TypeError):
        gr.antipode[x] = {}
    with pytest.raises(TypeError):
        gr.antipode[x][x] = gr.field.one
    with pytest.raises(TypeError):
        build_sigma(3).coords[(x, x)] = gr.field.one
    with pytest.raises(TypeError):
        A.coaction[0] = ()
    assert verify_hopf(build_gr_uq(3)).ok


@pytest.mark.parametrize("N, nx, ny, r, xi, zeta, eta", [
    (3, 3, 3, 3, "0", "0", "0"),        # gr(3)
    (5, 5, 5, 5, "0", "0", "0"),        # gr(5)
    (3, 3, 3, 3, "2", "q", "1-q"),      # L3N with xi, zeta, eta != 0
    (5, 5, 5, 5, "q^2", "-1", "3*q"),   # L3N at N = 5
    (3, 3, 3, 1, "q", "2", "0"),        # L3 at r = 1
    (9, 9, 9, 3, "1", "q^4", "0"),      # L3 at 1 < r < N
    (5, 5, 1, 5, "q", "0", "0"),        # L1
    (5, 1, 1, 5, "0", "0", "0"),        # L0
])
def test_skew_pbw_fill_matches_the_plain_loop(N, nx, ny, r, xi, zeta, eta):
    # the fill takes a shortcut on rows that are one term times one term;
    # the table, its row order and the steps must be those of the plain loop
    coeffs = [field(N).parse(c) for c in (xi, zeta, eta)]
    table, steps = reference_skew_pbw_fill(N, nx, ny, r, *coeffs)
    alg = skew_pbw_algebra(N, nx, ny, r, *coeffs,
                           [str(m) for m in range(nx * ny * r)])
    assert list(alg.mul.items()) == list(table.items())
    assert alg.steps == steps


def _stored(alg):
    """The rows an algebra's table holds so far, read off its _Rows
    storage behind the read-only view without filling anything."""
    rows, = gc.get_referents(alg.mul)
    return set(dict.keys(rows))


def _step_chain(alg, m):
    parent = {m: p for m, p, _ in alg.steps}
    chain = [m]
    while chain[-1]:
        chain.append(parent[chain[-1]])
    return chain


def test_one_read_stores_only_the_rows_on_its_step_chain():
    # a fresh member: the cached one has rows from other tests
    A = build_family.__wrapped__(zoo_params("L3N", 5, xi=1, zeta=2,
                                            eta=field(5).q)).algebra
    before = _stored(A)
    i = next(i for i in range(A.dim) if all(k[0] != i for k in before))
    m = A.dim - 1  # X^4 Y^4 G^4, whose chain has 12 steps
    assert A.mul[(i, m)]
    assert _stored(A) - before == {(i, k) for k in _step_chain(A, m) if k}


def test_build_gr_uq_leaves_most_of_its_table_unfilled():
    H = build_gr_uq.__wrapped__(5)
    # 319 of the 15 625 rows when this was written
    assert len(_stored(H.algebra)) < H.dim ** 2 // 20


@pytest.mark.parametrize("N, nx, ny, r, xi, zeta, eta", [
    (3, 3, 3, 3, "0", "0", "0"),        # gr(3): most rows are zero
    (3, 3, 3, 3, "2", "q", "1-q"),      # L3N: no row is zero
    (5, 5, 1, 5, "q", "0", "0"),        # L1
])
def test_a_partly_filled_table_completes_as_the_plain_loop(
        N, nx, ny, r, xi, zeta, eta):
    # rows read in a random order equal the plain loop's; then a whole-table
    # view fills every row still missing, each of them inside _complete,
    # and lists the nonzero rows in row-major order
    coeffs = [field(N).parse(c) for c in (xi, zeta, eta)]
    table, _ = reference_skew_pbw_fill(N, nx, ny, r, *coeffs)
    dim = nx * ny * r
    alg = skew_pbw_algebra(N, nx, ny, r, *coeffs, [str(m) for m in range(dim)])
    keys = [(i, j) for i in range(dim) for j in range(dim)]
    for key in random.Random(dim).sample(keys, dim):
        assert alg.mul[key] == table.get(key, ())
    assert 0 < len(_stored(alg)) < len(keys)
    assert list(alg.mul.items()) == list(table.items())
    assert _stored(alg) == set(table)
    assert all(alg.mul[key] == table.get(key, ()) for key in keys)
