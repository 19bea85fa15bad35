"""Structure-constant Hopf machinery, exercised on small hand-built examples.

The deliberate-corruption tests double as the mutation-sensitivity battery:
every broken table must be caught by a verifier with a concrete witness.
"""

import pytest

from uqcomod.cyclofield import field
from uqcomod.hopfcore import (
    ComoduleAlgebra,
    ConvForm,
    FiniteAlgebra,
    FiniteCoalgebra,
    HopfAlgebraData,
    algebra_from_json,
    algebra_to_json,
    coinvariants,
    comodule_from_json,
    comodule_to_json,
    convolution,
    convolution_inverse,
    costable_closure,
    deform_comodule_algebra,
    deform_hopf,
    dumps_sorted,
    form_from_json,
    form_to_json,
    hopf_from_json,
    hopf_to_json,
    regular_comodule_algebra,
    solve_antipode,
    t2_mul,
    verify_algebra,
    verify_comodule_algebra,
    verify_hopf,
    verify_hopf_2cocycle,
    check_comodule_algebra_morphism,
    conjugate_comodule_algebra,
)
from uqcomod.exactlinalg import Subspace


def cyclic_group_hopf(n, fld=None):
    """The group algebra k[Z/n] with its usual Hopf structure."""
    if fld is None:
        fld = field(1)
    one = fld.one
    labels = [f"e{i}" for i in range(n)]
    mul = {(i, j): (((i + j) % n, one),) for i in range(n) for j in range(n)}
    alg = FiniteAlgebra(fld, labels, mul, {0: one})
    comul = {i: ((i, i, one),) for i in range(n)}
    counit = {i: one for i in range(n)}
    co = FiniteCoalgebra(fld, labels, comul, counit)
    antipode = {i: {(-i) % n: one} for i in range(n)}
    return HopfAlgebraData(alg, co, antipode, degrees=[0] * n)


def test_cyclic_group_is_a_hopf_algebra():
    H = cyclic_group_hopf(3)
    rep = verify_hopf(H)
    assert rep.ok, [c.claim_id for c in rep.failures()]
    assert H.grouplikes == (0, 1, 2)


def test_solve_antipode_recovers_group_inversion():
    H = cyclic_group_hopf(5)
    S = solve_antipode(H.algebra, H.coalgebra)
    assert S == H.antipode


def test_corrupted_multiplication_is_caught():
    # deliberate corruption: e1 * e2 rescaled, which breaks associativity
    H = cyclic_group_hopf(3)
    mul = dict(H.algebra.mul)
    mul[(1, 2)] = ((0, H.field.from_rational(2)),)
    bad = FiniteAlgebra(H.field, H.labels, mul, dict(H.algebra.unit))
    rep = verify_algebra(bad)
    assert not rep.ok
    bad_checks = rep.failures()
    assert any(c.witness for c in bad_checks)


def test_corrupted_comultiplication_is_caught():
    # deliberate corruption: Delta(e1) = e1 (x) e0 violates the counit axiom
    H = cyclic_group_hopf(3)
    comul = dict(H.coalgebra.comul)
    comul[1] = ((1, 0, H.field.one),)
    co = FiniteCoalgebra(H.field, H.labels, comul, dict(H.coalgebra.counit))
    bad = HopfAlgebraData(H.algebra, co, H.antipode, degrees=H.degrees)
    rep = verify_hopf(bad)
    assert not rep.ok
    assert any(c.witness for c in rep.failures())


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


def bicharacter_form(H, n):
    """sigma(e_i, e_j) = omega^{ij} on k[Z/n] over Q(omega)."""
    fld = H.field
    coords = {(i, j): fld.q_power(i * j) for i in range(n) for j in range(n)}
    return ConvForm(H, 2, coords)


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
    # deliberate corruption: delta(e1) points at the wrong group element
    H = cyclic_group_hopf(3)
    R = regular_comodule_algebra(H)
    coaction = dict(R.coaction)
    coaction[1] = (((2, 1), H.field.one),)
    bad = ComoduleAlgebra(R.algebra, H, coaction, R.params)
    rep = verify_comodule_algebra(bad)
    assert not rep.ok
    assert any(c.witness for c in rep.failures())


def test_costable_closure_monotone_idempotent():
    H = cyclic_group_hopf(3)
    R = regular_comodule_algebra(H)
    fld = H.field
    v = {0: fld.one}  # the unit: generates everything
    V = Subspace.from_vectors(fld, 3, [v])
    C = costable_closure(V, R)
    assert C.contains_subspace(V)
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


def test_t2_mul_matches_componentwise_products():
    H = cyclic_group_hopf(3)
    fld = H.field
    a = {(0, 1): fld.one, (1, 0): fld.from_rational(2)}
    b = {(1, 1): fld.one}
    out = t2_mul(H.algebra, H.algebra, a, b)
    assert out == {(1, 2): fld.one, (2, 1): fld.from_rational(2)}


def test_json_round_trips_are_exact():
    fld = field(3)
    H = cyclic_group_hopf(3, fld)
    data = hopf_to_json(H)
    H2 = hopf_from_json(data)
    assert dumps_sorted(hopf_to_json(H2)) == dumps_sorted(data)
    assert H2.algebra.mul == H.algebra.mul
    assert H2.antipode == H.antipode

    adata = algebra_to_json(H.algebra)
    A2 = algebra_from_json(adata)
    assert dumps_sorted(algebra_to_json(A2)) == dumps_sorted(adata)

    sigma = bicharacter_form(H, 3)
    fdata = form_to_json(sigma)
    sigma2 = form_from_json(fdata, H)
    assert sigma2 == sigma

    R = regular_comodule_algebra(H)
    cdata = comodule_to_json(R)
    R2 = comodule_from_json(cdata, H)
    assert dumps_sorted(comodule_to_json(R2)) == dumps_sorted(cdata)
    assert R2.coaction == R.coaction
