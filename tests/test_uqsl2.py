"""Oracles for the graded Hopf algebra, the cocycle and the deformation."""

import pytest

from uqcomod.comodzoo import build_family, zoo_params
from uqcomod.cyclofield import field, q_factorial
from uqcomod.hopfcore import (
    ConvForm,
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
    index_triple,
    monomial_index,
    q_exponential,
    sigma_closed_coords,
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


def test_monomial_index_round_trip():
    N = 5
    for i in range(N):
        for j in range(N):
            for k in range(N):
                assert index_triple(N, monomial_index(N, i, j, k)) == (i, j, k)


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


def test_solve_antipode_matches_stored_tables(gr3):
    S = solve_antipode(gr3.algebra, gr3.coalgebra)
    assert S == gr3.antipode


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
    # the default multiplier is the table of build_uq
    for N in (3, 5):
        rep = uq_relation_report(N)
        assert rep.ok, (N, [c.claim_id for c in rep.failures()])
        assert rep.as_dict() == uq_relation_report(
            N, multiplier=build_uq(N).algebra).as_dict()


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


def test_uq_antipode_solves(uq3):
    S = solve_antipode(uq3.algebra, uq3.coalgebra)
    assert S == uq3.antipode


@pytest.mark.parametrize("N", [3, 5])
def test_gr_table_matches_closed_form(N):
    # (x^i1 y^j1 g^k1)(x^i2 y^j2 g^k2)
    #   = q^{2(k1 i2 - k1 j2 - j1 i2)} x^{i1+i2} y^{j1+j2} g^{k1+k2},
    # and 0 once i1 + i2 >= N or j1 + j2 >= N
    fld = field(N)
    want = {}
    for a in range(N ** 3):
        i1, j1, k1 = index_triple(N, a)
        for b in range(N ** 3):
            i2, j2, k2 = index_triple(N, b)
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
