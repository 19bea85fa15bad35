"""Structure-constant Hopf machinery, exercised on small hand-built examples.

The deliberate-corruption tests double as the mutation-sensitivity battery:
every broken table must be caught by a verifier with a concrete witness.
"""

import operator
import random
from fractions import Fraction

import pytest

from conftest import (bicharacter_form, cyclic_group_hopf, parsed_rows,
                      random_scalar, reference_mul_into)
from uqcomod.cyclofield import field
from uqcomod.hopfcore import (
    ComoduleAlgebra,
    ConvForm,
    FiniteAlgebra,
    FiniteCoalgebra,
    HopfAlgebraData,
    algebra_to_json,
    coinvariants,
    comodule_to_json,
    convolution,
    convolution_inverse,
    costable_closure,
    deform_comodule_algebra,
    deform_hopf,
    form_to_json,
    hopf_to_json,
    mul_into,
    regular_comodule_algebra,
    solve_antipode,
    t2_mul,
    verify_algebra,
    verify_comodule_algebra,
    verify_hopf,
    verify_hopf_2cocycle,
    check_comodule_algebra_morphism,
    conjugate_comodule_algebra,
    _coaction_failures,
    factor_form,
)
from uqcomod.comodzoo import build_family, zoo_params
from uqcomod.exactlinalg import Subspace
from uqcomod.sides import coalgebra_failures
from uqcomod.uqsl2 import build_gr_uq, build_sigma, build_uq, monomial_index


def test_cyclic_group_is_a_hopf_algebra():
    H = cyclic_group_hopf(3)
    rep = verify_hopf(H)
    assert rep.ok, [c.claim_id for c in rep.failures()]
    assert H.grouplikes == (0, 1, 2)


def test_solve_antipode_recovers_group_inversion():
    H = cyclic_group_hopf(5)
    S = solve_antipode(H.algebra, H.coalgebra)
    assert S == H.antipode


def test_solve_antipode_names_what_no_rule_can_solve():
    # Delta(a) needs S(b) and Delta(b) needs S(a); the steps a = 1 a and
    # b = 1 b pass their certificates but need S(a) and S(b) themselves
    fld = field(3)
    one = fld.one
    labels = ["1", "a", "b"]
    mul = {(0, j): ((j, one),) for j in range(3)}
    mul.update({(j, 0): ((j, one),) for j in range(3)})
    alg = FiniteAlgebra(fld, labels, mul, {0: one})
    alg.steps = ((1, 0, 1), (2, 0, 2))
    comul = {0: ((0, 0, one),), 1: ((1, 0, one), (2, 1, one)),
             2: ((2, 0, one), (1, 2, one))}
    co = FiniteCoalgebra(fld, labels, comul, {0: one})
    with pytest.raises(ValueError, match="no triangular order covers a, b$"):
        solve_antipode(alg, co)


def test_corrupted_multiplication_is_caught():
    # deliberate corruption: e1 * e2 rescaled, which breaks associativity.
    # Halving keeps the numerators and changes only the denominator, so a
    # product memo keyed on numerators alone would take it for the original.
    H = cyclic_group_hopf(3)
    (k, coef), = H.algebra.mul[(1, 2)]
    for scale in (2, Fraction(1, 2)):
        mul = dict(H.algebra.mul)
        mul[(1, 2)] = ((k, coef * scale),)
        bad = FiniteAlgebra(H.field, H.labels, mul, dict(H.algebra.unit))
        rep = verify_algebra(bad)
        assert not rep.ok
        bad_checks = rep.failures()
        assert any(c.witness for c in bad_checks)
        # e1 e2 = scale e0 breaks Delta(ab) = Delta(a) Delta(b) at (e1, e2)
        # alone, and m(id x S)Delta = eps 1 at e1 and m(S x id)Delta at e2
        rep = verify_hopf(HopfAlgebraData(bad, H.coalgebra, H.antipode,
                                          degrees=H.degrees))
        failing = {c.claim_id: c.witness["failing"] for c in rep.failures()}
        assert failing["bialgebra-multiplicativity"] == 1
        assert failing["hopf-antipode"] == 2


def _antipode_witness(element, left, right, expected="0"):
    return {"examples": [{"element": element, "m(S x id)Delta": left,
                          "m(id x S)Delta": right, "expected": expected}],
            "failing": 1}


# gr(3) with x = x1y0g0, y = x0y1g0 and 1 = x0y0g0
_X_COASSOC = {"elements": ["x1y0g0", "x1y1g0", "x1y1g1", "x1y2g0", "x1y2g2"],
              "failing": 10}
_X_COUNIT = {"elements": ["x1y0g0"], "failing": 1}
_X_MULT = {"examples": [["x0y0g1", "x1y0g0"], ["x0y0g1", "x1y0g2"],
                        ["x0y0g2", "x1y0g0"]],
           "failing": 55, "checked": 729}


def _comul_failures(H, label, terms, keep=True):
    """{claim_id: witness} of verify_hopf once Delta(label) is set to (or,
    with keep, increased by) the terms a (x) b."""
    ix = H.labels.index
    comul = dict(H.coalgebra.comul)
    added = tuple((ix(a), ix(b), H.field.one) for a, b in terms)
    comul[ix(label)] = (comul[ix(label)] if keep else ()) + added
    co = FiniteCoalgebra(H.field, H.labels, comul, dict(H.coalgebra.counit))
    rep = verify_hopf(HopfAlgebraData(H.algebra, co, H.antipode,
                                      degrees=H.degrees))
    return {c.claim_id: c.witness for c in rep.failures()}


def test_corrupted_comultiplication_is_caught():
    # deliberate corruption: Delta(e1) = e1 (x) e0 violates the counit axiom
    H = cyclic_group_hopf(3)
    assert _comul_failures(H, "e1", [("e1", "e0")], keep=False) == {
        "coalgebra-counit": {"elements": ["e1"], "failing": 1},
        "bialgebra-multiplicativity": {
            "examples": [["e1", "e1"], ["e1", "e2"], ["e2", "e1"]],
            "failing": 4, "checked": 9},
        "hopf-antipode": _antipode_witness("e1", "(1)*e2", "(1)*e1",
                                           "(1)*e0"),
    }


@pytest.mark.parametrize("label, terms, expected", [
    # Delta(x) + y (x) 1 breaks only the right counit, (id x eps)Delta = id
    ("x1y0g0", [("x0y1g0", "x0y0g0")], {
        "coalgebra-coassociativity": _X_COASSOC,
        "coalgebra-counit": _X_COUNIT,
        "bialgebra-multiplicativity": _X_MULT,
        "hopf-antipode": _antipode_witness("x1y0g0", "(-q)*x0y1g1",
                                           "(1)*x0y1g0"),
    }),
    # Delta(x) + 1 (x) y breaks only the left counit, (eps x id)Delta = id
    ("x1y0g0", [("x0y0g0", "x0y1g0")], {
        "coalgebra-coassociativity": _X_COASSOC,
        "coalgebra-counit": _X_COUNIT,
        "bialgebra-multiplicativity": _X_MULT,
        "hopf-antipode": _antipode_witness("x1y0g0", "(1)*x0y1g0",
                                           "(-q)*x0y1g1"),
    }),
    # Delta(1) + x (x) y breaks Delta(1) = 1 (x) 1 but keeps both counits
    ("x0y0g0", [("x1y0g0", "x0y1g0")], {
        "coalgebra-coassociativity": {
            "elements": ["x0y0g0", "x0y1g0", "x0y1g1", "x0y2g0", "x0y2g2"],
            "failing": 15},
        "bialgebra-unit": {
            "delta_1": "(1)*x0y0g0 (x) x0y0g0 + (1)*x1y0g0 (x) x0y1g0",
            "expected": "(1)*x0y0g0 (x) x0y0g0"},
        "bialgebra-multiplicativity": {
            "examples": [["x0y0g0", "x0y0g0"], ["x0y0g0", "x0y0g1"],
                         ["x0y0g0", "x0y0g2"]],
            "failing": 55, "checked": 729},
        "hopf-antipode": _antipode_witness(
            "x0y0g0", "(1)*x0y0g0 + (-1)*x1y1g1",
            "(1)*x0y0g0 + (-q)*x1y1g1", "(1)*x0y0g0"),
    }),
], ids=["right-counit", "left-counit", "unit"])
def test_corrupted_gr_comultiplication_is_caught(gr3, label, terms, expected):
    # the whole failure map is pinned, witnesses included
    assert _comul_failures(gr3, label, terms) == expected


def test_corrupted_antipode_is_caught():
    # deliberate corruption: S(e1) = e1 fails m(S x id)Delta = eps 1
    H = cyclic_group_hopf(3)
    antipode = {i: dict(m) for i, m in H.antipode.items()}
    antipode[1] = {1: H.field.one}
    bad = HopfAlgebraData(H.algebra, H.coalgebra, antipode, degrees=H.degrees)
    rep = verify_hopf(bad)
    fails = [c for c in rep.failures()]
    assert fails and any("antipode" in c.claim_id for c in fails)
    assert any(c.witness for c in fails)


def test_bicharacter_is_a_cocycle_but_not_unipotent():
    fld = field(3)
    H = cyclic_group_hopf(3, fld)
    sigma = bicharacter_form(H, 3)
    rep = verify_hopf_2cocycle(sigma)
    assert rep.ok, [c.claim_id for c in rep.failures()]
    # its unit-defect is not nilpotent, so the series inverse must refuse
    with pytest.raises(ValueError):
        convolution_inverse(sigma)


def test_corrupted_cocycle_is_caught():
    # deliberate corruption: one coordinate of the bicharacter changed
    fld = field(3)
    H = cyclic_group_hopf(3, fld)
    sigma = bicharacter_form(H, 3)
    coords = dict(sigma.coords)
    coords[(1, 1)] = fld.from_rational(2)
    bad = ConvForm(H, 2, coords)
    rep = verify_hopf_2cocycle(bad)
    assert not rep.ok
    assert any(c.witness for c in rep.failures())


def test_deform_by_bicharacter_keeps_group_algebra():
    # on grouplikes sigma(a,b) sigma^{-1}(a,b) cancels, so the deformed
    # table coincides with the original one
    fld = field(3)
    H = cyclic_group_hopf(3, fld)
    sigma = bicharacter_form(H, 3)
    inv = ConvForm(H, 2, {(i, j): fld.q_power(-i * j)
                          for i in range(3) for j in range(3)})
    assert (sigma * inv) == ConvForm.unit(H, 2)
    D = deform_hopf(H, sigma, inv)
    assert D.algebra.mul == H.algebra.mul
    assert D.antipode == H.antipode


def test_deform_by_unit_cocycle_is_identity():
    fld = field(3)
    H = cyclic_group_hopf(3, fld)
    unit = ConvForm.unit(H, 2)
    D = deform_hopf(H, unit, unit)
    assert D.algebra.mul == H.algebra.mul


def test_convolution_rejects_mismatched_forms():
    fld = field(3)
    H = cyclic_group_hopf(3, fld)
    f1 = ConvForm(H, 1, {(0,): fld.one})
    f2 = ConvForm(H, 2, {(0, 0): fld.one})
    with pytest.raises(ValueError):
        convolution(f1, f2)
    with pytest.raises(TypeError):
        convolution(f1, "not a form")


def test_convform_tensor_and_eval():
    fld = field(3)
    H = cyclic_group_hopf(3, fld)
    eps = ConvForm.unit(H, 1)
    two = ConvForm.tensor(eps, eps)
    assert two == ConvForm.unit(H, 2)
    v = {0: fld.one, 2: fld.from_rational(5)}
    assert eps.eval_vecs(v) == fld.from_rational(6)


def test_regular_comodule_algebra_and_coinvariants():
    H = cyclic_group_hopf(3)
    R = regular_comodule_algebra(H)
    rep = verify_comodule_algebra(R)
    assert rep.ok, [c.claim_id for c in rep.failures()]
    assert coinvariants(R).dim == 1


def test_corrupted_coaction_is_caught():
    # deliberate corruptions: delta(e1) points at the wrong group element;
    # delta(e1) halved, which keeps the numerators of its coefficient
    H = cyclic_group_hopf(3)
    R = regular_comodule_algebra(H)
    one = H.field.one
    for leg in (((2, 1), one), ((1, 1), one / 2)):
        coaction = dict(R.coaction)
        coaction[1] = (leg,)
        bad = ComoduleAlgebra(R.algebra, H, coaction, R.params)
        rep = verify_comodule_algebra(bad)
        assert not rep.ok
        assert any(c.witness for c in rep.failures())
    # with delta(e1) = 1/2 e1 (x) e1, delta(e_i e_j) and delta(e_i) delta(e_j)
    # differ where exactly one of them holds the 1/2 (e_i e_j = e1, or e1 a
    # factor) or the two hold 1 and 1/4: at (e1, e1), (e1, e2), (e2, e1)
    # and (e2, e2)
    mult, = [c for c in rep.failures()
             if c.claim_id == "comodule-multiplicativity"]
    assert mult.witness["failing"] == 4
    assert mult.witness["examples"] == [["e1", "e1"], ["e1", "e2"],
                                        ["e2", "e1"]]


def test_costable_closure_monotone_idempotent():
    H = cyclic_group_hopf(3)
    R = regular_comodule_algebra(H)
    fld = H.field
    v = {0: fld.one}  # the unit: generates everything
    V = Subspace.from_vectors(fld, 3, [v])
    C = costable_closure(V, R)
    assert all(C.contains(r) for r in V.basis)
    assert C.dim == 3
    again = costable_closure(C, R)
    assert again == C


def test_morphism_checker_accepts_identity_and_rejects_junk():
    H = cyclic_group_hopf(3)
    R = regular_comodule_algebra(H)
    fld = H.field
    rep = check_comodule_algebra_morphism(
        [{i: fld.one} for i in range(3)], R, R)
    assert rep.ok
    # swapping two basis vectors is not colinear here
    swap = [{0: fld.one}, {2: fld.one}, {1: fld.one}]
    rep = check_comodule_algebra_morphism(swap, R, R)
    assert not rep.ok
    # a map that drops a basis vector is not bijective
    rep = check_comodule_algebra_morphism(
        [{0: fld.one}, {1: fld.one}, {}], R, R)
    assert [c.claim_id for c in rep.failures()][-1] == "morphism-bijective"


def test_conjugation_needs_a_grouplike():
    H = cyclic_group_hopf(3)
    R = regular_comodule_algebra(H)
    conj = conjugate_comodule_algebra(R, 1)
    # abelian group: conjugation does nothing
    assert conj.coaction == R.coaction
    with pytest.raises(ValueError, match="grouplike"):
        conjugate_comodule_algebra(R, 99)


def test_deform_comodule_by_unit_cocycle_is_identity():
    fld = field(3)
    H = cyclic_group_hopf(3, fld)
    R = regular_comodule_algebra(H)
    D = deform_comodule_algebra(R, ConvForm.unit(H, 2), H)
    assert D.algebra.mul == R.algebra.mul


def test_product_memo_is_exact():
    fld = field(5)
    q = fld.q
    a, b = 1 + 2 * q, q * q - 3
    half = Fraction(1, 2)
    times = fld.interned.times
    pairs = [
        # the same numerators over other denominators
        (a, b), (a * half, b), (a, b * half), (a * half, b * half),
        (b * half, a), (b, a * half),
        # the same denominators over other numerators
        (a + q, b), (a, b + q), (a * half + q, b),
        # field.one itself, and a one that is not that object
        (fld.one, a), (a, fld.one), (fld.from_rational(1), a * half),
        (b * half, fld.from_rational(1)), (fld.one, fld.one),
    ]
    for x, y in pairs * 2:
        assert times(x, y) == x * y, (x, y)
    # every product is the index's canonical object, whichever the order
    assert times(fld.one, a) is times(a, fld.one) is fld.interned.canonical(a)
    assert times(a, b) is times(b, a)


@pytest.mark.parametrize("order", [1, 3, 5, 7])
def test_one_zero_and_q_powers_are_canonical(order):
    fld = field(order)
    vi = fld.interned
    assert vi.values[0] is fld.zero and vi.values[1] is fld.one
    assert vi.canonical(fld.from_rational(1)) is fld.one
    assert vi.canonical(fld.element([0])) is fld.zero
    for k in range(-order, 2 * order):
        power = fld.element([0] * (k % order) + [1])
        assert vi.canonical(power) is fld.q_power(k)
    # an index holds a value once, whichever object first carried it
    assert vi.of(fld.q * fld.q) == vi.of(fld.q_power(2))
    assert len(vi.values) == len(vi.index) == len(vi.ids)


@pytest.mark.parametrize("table", ["gr3", "deformed-fresh", "Z/3"])
def test_mul_into_matches_the_nested_loop(table, gr3, sigma3, sigma3_inv):
    """The kernel against the nested loop on gr(3)'s skew-PBW table and on
    a fresh deformed table, both filled on first read, and on k[Z/3]; with
    plain and memoised multiplies, into an out where one key cancels to
    zero."""
    def make():
        if table == "gr3":
            return gr3
        if table == "Z/3":
            return cyclic_group_hopf(3)
        return deform_hopf(gr3, sigma3, sigma3_inv)

    rng = random.Random(table)
    for memo in (False, True):
        H = make()
        fld = H.field
        mul = H.algebra.mul
        times = fld.interned.times if memo else operator.mul
        left, right = ([(i, random_scalar(fld, rng) + fld.one)
                        for i in rng.sample(range(H.dim), 3)]
                       for _ in range(2))
        ref_mul = make().algebra.mul
        want = reference_mul_into({}, ref_mul, left, right)
        assert want
        cancel, other = next(iter(want)), rng.randrange(H.dim)
        start = {other: fld.from_rational(3), cancel: -want[cancel]}
        want = reference_mul_into(start, ref_mul, left, right)
        got = mul_into(dict(start), mul, iter(left), right, times)
        assert cancel not in got
        assert list(got.items()) == list(want.items())


def test_mul_vec_refuses_keys_outside_the_basis(gr3):
    # row (i, j) is slot i * dim + j of the packed table, so a key outside
    # the basis would read another row
    alg, one = gr3.algebra, gr3.field.one
    assert alg.mul_vec({0: one}, {26: one}) == {26: one}
    for a, b in (({0: one}, {27: one}), ({-1: one}, {0: one}),
                 ({27: one}, {0: one}), ({0: one}, {-27: one})):
        with pytest.raises(ValueError, match="outside the 27-dimensional"):
            alg.mul_vec(a, b)


def test_structures_refuse_indices_outside_the_basis(gr3):
    # each of these indices would reach a table read as i * dim + j
    fld, one, labels = gr3.field, gr3.field.one, gr3.labels
    with pytest.raises(ValueError, match="table index 27 outside the 27-"):
        FiniteAlgebra(fld, labels, {(0, 27): ((0, one),)}, {0: one})
    with pytest.raises(ValueError, match="table index -1 outside"):
        FiniteAlgebra(fld, labels, {(0, 0): ((-1, one),)}, {0: one})
    comul = {**gr3.coalgebra.comul, 1: ((0, 27, one),)}
    with pytest.raises(ValueError, match="comultiplication index 27"):
        FiniteCoalgebra(fld, labels, comul, gr3.coalgebra.counit)
    with pytest.raises(ValueError, match="antipode index -1"):
        HopfAlgebraData(gr3.algebra, gr3.coalgebra,
                        {**gr3.antipode, 1: {-1: one}})
    coaction = dict(regular_comodule_algebra(gr3).coaction)
    for bad in (((0, 27), one), ((27, 0), one)):
        with pytest.raises(ValueError, match="coaction index 27"):
            ComoduleAlgebra(gr3.algebra, gr3, {**coaction, 1: (bad,)})


def test_t2_mul_matches_componentwise_products():
    H = cyclic_group_hopf(3)
    fld = H.field
    a = {(0, 1): fld.one, (1, 0): fld.from_rational(2)}
    b = {(1, 1): fld.one}
    out = t2_mul(H.algebra, H.algebra, a, b, fld.interned.times)
    assert out == {(1, 2): fld.one, (2, 1): fld.from_rational(2)}
    # (e0 (x) e1 - e1 (x) e0)(e1 (x) e0 + e0 (x) e1): the two terms at
    # e1 (x) e1 cancel, and a zero coefficient adds no key
    a = {(0, 1): fld.one, (1, 0): -fld.one, (2, 1): fld.zero}
    b = {(1, 0): fld.one, (0, 1): fld.one}
    out = t2_mul(H.algebra, H.algebra, a, b, fld.interned.times)
    assert out == {(0, 2): fld.one, (2, 0): -fld.one}


def test_json_round_trips_are_exact():
    # every table read back from its export with fld.parse is the built one
    fld = field(3)
    H = cyclic_group_hopf(3, fld)
    data = hopf_to_json(H)
    assert (data["N"], data["basis"], data["degrees"]) == (
        3, list(H.labels), list(H.degrees))
    assert parsed_rows(data["mul"], fld,
                       lambda ids: (tuple(ids[:2]), ids[2])) == H.algebra.mul
    assert {i: fld.parse(c) for i, c in data["unit"]} == H.algebra.unit
    comul = parsed_rows(data["comul"], fld,
                        lambda ids: (ids[0], tuple(ids[1:])))
    assert {i: tuple((j, k, c) for (j, k), c in row)
            for i, row in comul.items()} == H.coalgebra.comul
    assert {i: fld.parse(c) for i, c in data["counit"]} == H.coalgebra.counit
    antipode = parsed_rows(data["antipode"], fld, lambda ids: ids)
    assert {i: dict(row) for i, row in antipode.items()} == H.antipode
    assert algebra_to_json(H.algebra) == {
        k: data[k] for k in ("N", "basis", "mul", "unit")}

    sigma = bicharacter_form(H, 3)
    fdata = form_to_json(sigma)
    assert (fdata["N"], fdata["arity"], fdata["dim"]) == (3, 2, 3)
    assert {tuple(ids): fld.parse(c)
            for *ids, c in fdata["entries"]} == sigma.coords

    R = regular_comodule_algebra(H)
    cdata = comodule_to_json(R)
    assert parsed_rows(cdata["mul"], fld,
                       lambda ids: (tuple(ids[:2]), ids[2])) == R.algebra.mul
    assert parsed_rows(cdata["coaction"], fld,
                       lambda ids: (ids[0], tuple(ids[1:]))) == R.coaction


# -- the coalgebra side a deformation shares with its source -----------------


def _corrupted_delta(gr):
    """gr(3) with Delta(x) given the wrong grouplike leg g (x) x."""
    fld = gr.field
    x, g = monomial_index(3, 1, 0, 0), monomial_index(3, 0, 0, 1)
    comul = dict(gr.coalgebra.comul)
    comul[x] = ((x, monomial_index(3, 0, 0, 0), fld.one), (g, x, fld.one))
    co = FiniteCoalgebra(fld, gr.labels, comul, dict(gr.coalgebra.counit))
    return HopfAlgebraData(gr.algebra, co, gr.antipode, degrees=gr.degrees)


def _unshared_coalgebra(H):
    """H on fresh copies of its Delta and eps tables, with a side of its
    own."""
    co = H.coalgebra
    return HopfAlgebraData(H.algebra, FiniteCoalgebra(
        H.field, H.labels, dict(co.comul), dict(co.counit)), H.antipode,
        degrees=H.degrees)


def test_morphism_checker_needs_one_coalgebra():
    gr = build_gr_uq(3)
    A = build_family(zoo_params("L1", 3, r=3, xi=2))
    identity = [{i: gr.field.one} for i in range(A.dim)]
    # same labels, but one leg of Delta differs: colinearity is ill-posed
    B = ComoduleAlgebra(A.algebra, _corrupted_delta(gr), A.coaction,
                        A.params)
    with pytest.raises(ValueError, match="different Hopf algebras"):
        check_comodule_algebra_morphism(identity, A, B)
    # equal tables in other objects are the same coalgebra
    C = ComoduleAlgebra(A.algebra, _unshared_coalgebra(gr), A.coaction,
                        A.params)
    assert check_comodule_algebra_morphism(identity, A, C).ok


@pytest.mark.parametrize("N", [3, 5])
def test_uq_shares_the_coalgebra_side_of_gr(N):
    gr, uq = build_gr_uq(N), build_uq(N)
    assert uq.side is gr.side and uq.grouplikes == gr.grouplikes
    assert regular_comodule_algebra(uq).side is gr.side
    for H in (gr, uq):
        fresh = _unshared_coalgebra(H)
        assert fresh.side is not gr.side
        got = coalgebra_failures(H.side)
        assert got == coalgebra_failures(fresh.side) == ((), (), ())
        R, S = regular_comodule_algebra(H), regular_comodule_algebra(fresh)
        assert _coaction_failures(R, [(0, 0)])[:2] \
            == _coaction_failures(S, [(0, 0)])[:2] == ([], [])
        assert coinvariants(R) == coinvariants(S)
        assert coinvariants(R).dim == 1


def test_a_corrupted_delta_gets_no_shared_side():
    gr = build_gr_uq(3)
    verify_hopf(gr, mode="sampled", sample_count=20)  # fills gr's side
    bad = _corrupted_delta(gr)
    assert bad.side is not gr.side
    fails = {c.claim_id for c in verify_hopf(
        bad, mode="sampled", sample_count=20).failures()}
    assert "coalgebra-coassociativity" in fails
    with pytest.raises(ValueError, match="another coalgebra"):
        HopfAlgebraData(gr.algebra, bad.coalgebra, gr.antipode,
                        degrees=gr.degrees, side=gr.side)
    A = build_family(zoo_params("L1", 3, r=3, xi=2))
    with pytest.raises(ValueError, match="another coaction"):
        ComoduleAlgebra(A.algebra, bad, A.coaction, side=A.side)


def test_factor_form_runs_once_per_form_and_is_read_only():
    sigma = build_sigma(3)
    build_uq(3)
    got = sigma._factors  # kept by deform_hopf's factor_form
    assert got is not None and factor_form(sigma) is got
    alpha, beta, count = got
    with pytest.raises(TypeError):
        alpha[0] = ()
    with pytest.raises(TypeError):
        beta[0] = ()
    # a form with the same coordinates keeps its own factorisation
    twin = ConvForm(sigma.hopf, 2, dict(sigma.coords))
    assert factor_form(twin) is not got and factor_form(twin) == got
