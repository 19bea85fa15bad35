"""The comodule-algebra zoo: presentations, invariants, equivalences."""

import copy
import json
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import uqcomod.comodzoo as comodzoo
from uqcomod.comodzoo import (
    FamilyParams,
    LoewyFiltration,
    _weight_spaces_of_socle,
    build_family,
    classify,
    coefficient_coalgebra,
    conjugation_invariance_report,
    deform_family,
    diagonal_family_map,
    embed_A4_into_uq,
    family_basis_exponents,
    is_right_H_simple,
    l4_params_from_uv,
    loewy_filtration,
    morita_equivalent_params,
    morita_invariant_d,
    one_dim_reps_A4,
    semisimplicity_A4,
    socle,
    verify_deformed_presentation,
    verify_family_presentation,
    verify_min_pol_lemma,
    zoo_params,
)
from uqcomod import hopfcore
from uqcomod.cli import _zoo_tuples, suite_morita
from uqcomod.cyclofield import field
from uqcomod.exactlinalg import Subspace
from uqcomod.hopfcore import (
    ComoduleAlgebra,
    FiniteAlgebra,
    HopfAlgebraData,
    check_comodule_algebra_morphism,
    coinvariants,
    costable_closure,
    direct_sum_comodule_algebras,
    vec_add_into,
    verify_comodule_algebra,
)
from uqcomod.uqsl2 import build_gr_uq, monomial_index

from conftest import dense, dense_rref, dense_subspace, random_scalar, sparse


def zoo_sample(N):
    """Ten representative members covering every family at N = 3."""
    zp = zoo_params
    return [
        zp("L0", N, r=1),
        zp("L0", N, r=N),
        zp("L1", N, r=N, xi=0),
        zp("L1", N, r=N, xi=2),
        zp("L2", N, r=N, zeta=1),
        zp("L3", N, r=1, xi=1, zeta=1),
        zp("L3N", N, xi=1, zeta=2, eta="q"),
        zp("L3N", N, xi=0, zeta=0, eta=0),
        zp("L4", N, alpha=1, beta=1, xi=2),
        zp("L4", N, alpha=1, beta=0, xi=1),
    ]


def test_zoo_params_validation():
    with pytest.raises(ValueError):
        zoo_params("L1", 3, r=2)  # 2 does not divide 3
    with pytest.raises(ValueError):
        zoo_params("L4", 3, alpha=0, beta=0, xi=1)
    with pytest.raises(ValueError):
        zoo_params("L3N", 3, r=1)
    with pytest.raises(ValueError):
        zoo_params("L4", 3, r=3, alpha=1)
    with pytest.raises(ValueError):
        zoo_params("L5", 3)
    with pytest.raises(ValueError):
        zoo_params("L0", 4, r=2)
    # a parameter outside the family's entry is refused, not dropped
    with pytest.raises(ValueError, match="L0 takes no xi parameter"):
        zoo_params("L0", 3, xi=2)
    with pytest.raises(ValueError, match="L1 takes no zeta parameter"):
        zoo_params("L1", 3, xi=1, zeta=1)
    with pytest.raises(ValueError, match="L4 takes no eta parameter"):
        zoo_params("L4", 3, alpha=1, beta=1, xi=2, eta=1)


def _oracle_pbw_shape(p):
    N, f = p.N, p.family
    nx = N if f in ("L1", "L3", "L3N", "L4") else 1
    ny = N if f in ("L2", "L3", "L3N") else 1
    return nx, ny, p.r


def _oracle_label(f, exp):
    if f == "L0":
        return f"G{exp[2]}"
    if f == "L1":
        return f"X{exp[0]}G{exp[2]}"
    if f == "L2":
        return f"Y{exp[1]}G{exp[2]}"
    if f == "L4":
        return f"W{exp[0]}"
    return f"X{exp[0]}Y{exp[1]}G{exp[2]}"


def _oracle_generator_coactions(p):
    """delta of each generator of the member, by basis index, spelt out per
    family: x (x) 1 + g^-1 (x) X, y (x) 1 + g^-1 (x) Y, g^(N/r) (x) G, and
    (alpha x + beta y) (x) 1 + g^-1 (x) W for L4."""
    N = p.N
    one = field(N).one
    nx, ny, r = _oracle_pbw_shape(p)
    ginv = monomial_index(N, 0, 0, N - 1)
    gens = {}
    if p.family == "L4":
        gens[1] = {(h, 0): c for h, c in
                   ((monomial_index(N, 1, 0, 0), p.alpha),
                    (monomial_index(N, 0, 1, 0), p.beta))
                   if not c.is_zero()}
        gens[1][(ginv, 1)] = one
        return gens
    if nx > 1:
        gens[ny * r] = {(monomial_index(N, 1, 0, 0), 0): one,
                        (ginv, ny * r): one}
    if ny > 1:
        gens[r] = {(monomial_index(N, 0, 1, 0), 0): one, (ginv, r): one}
    if r > 1:
        gens[1] = {(monomial_index(N, 0, 0, N // r), 1): one}
    return gens


def _oracle_params_dict(p):
    out = {"family": p.family, "N": p.N, "r": p.r}
    for name in ("xi", "zeta", "eta", "alpha", "beta"):
        val = getattr(p, name)
        if val is not None:
            out[name] = val
    return out


def test_family_table_matches_the_written_out_families():
    # the oracles spell out each family by name, independently of the
    # table comodzoo._FAMILIES that the package reads
    zp = zoo_params
    members = [zp("L0", 3, r=3), zp("L1", 3, r=3, xi=2),
               zp("L2", 3, r=3, zeta=1), zp("L3", 3, r=1, xi=1, zeta=2),
               zp("L3N", 3, xi=1, zeta=2, eta="q"),
               zp("L4", 3, alpha=1, beta=2, xi=3),
               # N = 9 has the proper divisor 3
               zp("L0", 9, r=3), zp("L1", 9, r=3, xi=2),
               zp("L2", 9, r=3, zeta="q"), zp("L3", 9, r=3, xi=1, zeta=2)]
    for p in members:
        assert comodzoo._pbw_shape(p) == _oracle_pbw_shape(p), p.label()
        labels = [comodzoo._family_label(p.family, e)
                  for e in family_basis_exponents(p)]
        assert labels == [_oracle_label(p.family, e)
                          for e in family_basis_exponents(p)], p.label()
        assert comodzoo._params_dict(p) == _oracle_params_dict(p), p.label()
        A = build_family(p)
        want = _oracle_generator_coactions(p)
        assert {i: dict(A.coaction[i]) for i in want} == want, p.label()
        assert sorted(want) == sorted(
            comodzoo._family_generators(p).values()), p.label()
        if p.N == 3:
            assert list(A.labels) == labels, p.label()
            assert dict(A.params) == _oracle_params_dict(p), p.label()


def test_expected_dims_and_basis_shapes():
    for p in zoo_sample(3):
        exps = family_basis_exponents(p)
        assert len(exps) == p.expected_dim(), p.label()
        A = build_family(p)
        assert A.dim == p.expected_dim(), p.label()
        want = _oracle_generator_coactions(p)
        assert {i: dict(A.coaction[i]) for i in want} == want, p.label()


def test_all_sample_presentations_hold():
    for p in zoo_sample(3):
        rep = verify_family_presentation(p)
        assert rep.ok, (p.label(), [c.claim_id for c in rep.failures()])
        rep = verify_deformed_presentation(p)
        assert rep.ok, (p.label(), [c.claim_id for c in rep.failures()])


def test_sample_members_are_comodule_algebras():
    for p in (zoo_params("L0", 3, r=3),
              zoo_params("L1", 3, r=3, xi=2),
              zoo_params("L3N", 3, xi=1, zeta=2, eta="q"),
              zoo_params("L4", 3, alpha=1, beta=1, xi=2)):
        for build in (build_family, deform_family):
            A = build(p)
            rep = verify_comodule_algebra(A)
            assert rep.ok, (p.label(), [c.claim_id for c in rep.failures()])
            assert coinvariants(A).dim == 1, p.label()


def test_normalized_folds():
    fld = field(3)
    p1 = zoo_params("L1", 3, r=1, xi=2)
    n1 = p1.normalized()
    assert n1.family == "L4" and n1.alpha == fld.one and n1.beta.is_zero()
    p2 = zoo_params("L2", 3, r=1, zeta=1)
    n2 = p2.normalized()
    assert n2.family == "L4" and n2.alpha.is_zero() and n2.beta == fld.one
    p3 = zoo_params("L3", 3, r=3, xi=1, zeta=2)
    n3 = p3.normalized()
    assert n3.family == "L3N" and n3.eta.is_zero()
    # non-degenerate members normalise to themselves
    p4 = zoo_params("L1", 3, r=3, xi=1)
    assert p4.normalized() == p4


def test_fold_is_an_actual_isomorphism():
    # L1 at r = 1 and L4(1, 0; xi) have identical bases; the identity
    # map must be an isomorphism of comodule algebras, plain and deformed
    p = zoo_params("L1", 3, r=1, xi=2)
    q = p.normalized()
    for build in (build_family, deform_family):
        A, B = build(p), build(q)
        identity = [{i: A.field.one} for i in range(A.dim)]
        rep = check_comodule_algebra_morphism(identity, A, B)
        assert rep.ok, [c.claim_id for c in rep.failures()]


def test_loewy_filtration_of_the_big_member():
    p = zoo_params("L3N", 3, xi=1, zeta=2, eta="q")
    for build in (build_family, deform_family):
        A = build(p)
        F = loewy_filtration(A)
        assert F.dims == (3, 9, 18, 24, 27)
        assert F.dims[-1] == A.dim
        assert F.respects_products()
        assert F.socle.dim == 3


def test_loewy_filtration_small_members():
    for p in (zoo_params("L1", 3, r=3, xi=2),
              zoo_params("L4", 3, alpha=1, beta=1, xi=2)):
        for build in (build_family, deform_family):
            A = build(p)
            F = loewy_filtration(A)
            dims = F.dims
            assert all(a < b for a, b in zip(dims, dims[1:]))
            assert F.dims[-1] == A.dim
            assert F.respects_products()


def test_products_check_rejects_a_shifted_filtration():
    p = zoo_params("L3N", 3, xi=1, zeta=2, eta="q")
    for build in (build_family, deform_family):
        F = loewy_filtration(build(p))
        # A_1 put at degree 0: A_1 A_1 is not inside A_1
        shifted = LoewyFiltration(F.comodule, (F.spaces[1],) + F.spaces[1:])
        assert not shifted.respects_products()
        # A_2 put at degree 1: A_2 A_2 is inside A_4 but not inside A_3
        dropped = LoewyFiltration(F.comodule, F.spaces[:1] + F.spaces[2:])
        assert not dropped.respects_products()
        swapped = LoewyFiltration(F.comodule, (F.spaces[1], F.spaces[0]))
        with pytest.raises(ValueError):
            swapped.respects_products()


def _count_mul_vec(monkeypatch):
    """A list that gains one entry per FiniteAlgebra.mul_vec call."""
    calls, real = [], FiniteAlgebra.mul_vec

    def counted(self, a, b):
        calls.append(None)
        return real(self, a, b)

    monkeypatch.setattr(FiniteAlgebra, "mul_vec", counted)
    return calls


def test_coordinate_filtrations_match_the_echelon_path(monkeypatch):
    # every member's layers are coordinate subspaces, so the degree test
    # decides them without a product; the echelon path is the oracle, on
    # the Loewy filtration and on its shifted and dropped corruptions
    calls = _count_mul_vec(monkeypatch)
    rejected = 0
    for N in (3, 5):
        for p in _zoo_tuples(N, small=True):
            for build in (build_family, deform_family):
                F = loewy_filtration(build(p))
                variants = [(F.spaces, True)]
                if len(F.spaces) > 1:
                    variants.append(((F.spaces[1],) + F.spaces[1:], None))
                if len(F.spaces) > 2:
                    variants.append((F.spaces[:1] + F.spaces[2:], None))
                for spaces, want in variants:
                    calls.clear()
                    got = LoewyFiltration(F.comodule,
                                          spaces).respects_products()
                    assert calls == [], p.label()
                    oracle = comodzoo._respects_products(
                        F.comodule, spaces, coordinate=False)
                    assert calls, p.label()
                    assert got == oracle, (p.label(), [s.dim for s in spaces])
                    assert want is None or got == want, p.label()
                    rejected += not got
    assert rejected == 56  # of the 64 shifted or dropped filtrations


def test_a_filtration_in_a_non_coordinate_basis_takes_the_echelon_path(
        monkeypatch):
    A = build_family(zoo_params("L1", 3, r=3, xi=2))
    one = A.field.one
    full = Subspace.from_vectors(A.field, A.dim,
                                 [{i: one} for i in range(A.dim)])
    unit = Subspace.from_vectors(A.field, A.dim, [{0: one}])
    g = A.labels.index("X0G1")
    x = A.labels.index("X1G0")
    mixed = Subspace.from_vectors(A.field, A.dim, [{0: one}, {g: one,
                                                               x: one}])
    calls = _count_mul_vec(monkeypatch)
    # the unit at degree 0 and anything at degree 1 below A is a filtration
    assert LoewyFiltration(A, (unit, mixed, full)).respects_products()
    assert calls
    calls.clear()
    # G + X at degree 0: (G + X)^2 has a G^2 and an X^2 part outside it
    bottom = Subspace.from_vectors(A.field, A.dim, [{g: one, x: one}])
    assert not LoewyFiltration(A, (bottom, full)).respects_products()
    assert calls


def _product_oracle(monkeypatch):
    """Spy on hopfcore._product_failures: for each call, the failing pairs
    of the monomial path and of the general path, with the mul_vec calls
    each made."""
    seen, real = [], hopfcore._product_failures
    calls = _count_mul_vec(monkeypatch)

    def spy(images, A, B, monomial=True):
        calls.clear()
        got = real(images, A, B, monomial)
        fast = len(calls)
        want = real(images, A, B, monomial=False)
        seen.append((got, fast, want, len(calls) - fast))
        return got

    monkeypatch.setattr(hopfcore, "_product_failures", spy)
    return seen


@pytest.mark.parametrize("N", [3, 5])
def test_monomial_maps_of_the_morita_suite_match_the_general_path(
        monkeypatch, N):
    # the eta-rotation and L4-rescale maps, plain and deformed, and the two
    # conjugations: each image is one nonzero term, so no product is taken
    seen = _product_oracle(monkeypatch)
    assert suite_morita(N, "exhaustive", 0, 0).ok
    assert len(seen) == 6
    for got, fast, want, general in seen:
        assert got == want == [] and fast == 0 and general > 0


def test_conjugation_maps_match_the_general_path(monkeypatch):
    seen = _product_oracle(monkeypatch)
    for p in (zoo_params("L4", 3, alpha=1, beta=1, xi=3),
              zoo_params("L3N", 3, xi=1, zeta=2, eta="q")):
        for power in (1, 2):
            for deformed in (False, True):
                assert conjugation_invariance_report(p, power,
                                                     deformed=deformed).ok
    assert len(seen) == 8
    assert all(got == want == [] and fast == 0 and general > 0
               for got, fast, want, general in seen)


def _failing(rep):
    return [c.as_dict() for c in rep.failures()]


def test_a_wrong_scale_fails_alike_on_both_paths(monkeypatch):
    fld = field(3)
    src = zoo_params("L3N", 3, xi=1, zeta=2, eta=fld.q * fld.q_power(2))
    dst = zoo_params("L3N", 3, xi=1, zeta=2, eta=fld.q)
    wrong = []
    for deformed in (False, True):
        # g-scale q^2 on every power of G
        wrong.append(diagonal_family_map(src, dst, g_scale=fld.q_power(2),
                                         deformed=deformed))
        # g-scale q on G but 1 on G^2
        images, A, B = diagonal_family_map(src, dst, g_scale=fld.q_power(1),
                                           deformed=deformed)
        g2 = A.labels.index("X0Y0G2")
        wrong.append(([{g2: fld.one} if i == g2 else v
                       for i, v in enumerate(images)], A, B))
    calls = _count_mul_vec(monkeypatch)
    fast = [_failing(check_comodule_algebra_morphism(*case))
            for case in wrong]
    assert calls == []
    real = hopfcore._product_failures
    monkeypatch.setattr(hopfcore, "_product_failures",
                        lambda images, A, B: real(images, A, B, False))
    assert [_failing(check_comodule_algebra_morphism(*case))
            for case in wrong] == fast
    assert calls
    for failed in fast:
        assert failed[0]["claim_id"] == "morphism-multiplicative"
        assert failed[0]["witness"]["failing"] > 0
    assert fast[0][0]["witness"]["failing"] == 324


def test_zero_scales_and_non_injective_maps_take_the_general_path(
        monkeypatch):
    fld = field(3)
    A = build_family(zoo_params("L1", 3, r=3, xi=2))
    identity = [{i: fld.one} for i in range(A.dim)]
    x = A.labels.index("X1G0")
    zero = identity[:x] + [{x: fld.zero}] + identity[x + 1:]
    folded = identity[:x] + [{0: fld.one}] + identity[x + 1:]
    seen = _product_oracle(monkeypatch)
    assert check_comodule_algebra_morphism(identity, A, A).ok
    for images in (zero, folded):
        assert not check_comodule_algebra_morphism(images, A, A).ok
    (ok, fast, _, _), *fallbacks = seen
    assert ok == [] and fast == 0
    assert len(fallbacks) == 2
    for got, fast, want, general in fallbacks:
        assert got == want and got and fast == general == A.dim ** 2


def test_loewy_filtration_needs_degree_data():
    A = build_family(zoo_params("L1", 3, r=3, xi=2))
    H = A.over
    bare = HopfAlgebraData(H.algebra, H.coalgebra, H.antipode)
    with pytest.raises(ValueError):
        loewy_filtration(ComoduleAlgebra(A.algebra, bare, A.coaction))


def test_filtration_and_simplicity_of_the_big_member_at_order_five():
    A = build_family(zoo_params("L3N", 5, xi=1, zeta=2, eta="q"))
    assert loewy_filtration(A).respects_products()
    got = is_right_H_simple(A)
    assert got["simple"], got
    assert got["method"] == "socle-weights"


def test_deformation_preserves_coaction_and_filtration():
    p = zoo_params("L3N", 3, xi=1, zeta=2, eta="q")
    A, D = build_family(p), deform_family(p)
    assert A.coaction == D.coaction
    assert loewy_filtration(A).dims == loewy_filtration(D).dims


def test_morita_invariant_d_values():
    N = 3
    cases = [
        (zoo_params("L0", N, r=1), (Fraction(1), 1)),
        (zoo_params("L0", N, r=N), (Fraction(1), N)),
        (zoo_params("L1", N, r=N, xi=2), (Fraction(N), N)),
        (zoo_params("L2", N, r=N, zeta=1), (Fraction(N), N)),
        (zoo_params("L3", N, r=1, xi=1, zeta=1), (Fraction(N * N), 1)),
        (zoo_params("L3N", N, xi=1, zeta=2, eta="q"), (Fraction(N * N), N)),
        (zoo_params("L4", N, alpha=1, beta=1, xi=2), (Fraction(N), 1)),
    ]
    for p, want in cases:
        assert morita_invariant_d(build_family(p)) == want, p.label()
        assert morita_invariant_d(deform_family(p)) == want, p.label()


def test_coefficient_coalgebra_separates_L1_from_L2():
    N = 3
    C1 = coefficient_coalgebra(build_family(zoo_params("L1", N, r=N, xi=2)))
    C2 = coefficient_coalgebra(build_family(zoo_params("L2", N, r=N, zeta=1)))
    fld = field(N)
    x = {monomial_index(N, 1, 0, 0): fld.one}
    y = {monomial_index(N, 0, 1, 0): fld.one}
    assert C1.contains(x) and not C1.contains(y)
    assert C2.contains(y) and not C2.contains(x)


def test_right_H_simplicity_proved_on_honest_members():
    for p in (zoo_params("L1", 3, r=3, xi=2),
              zoo_params("L3N", 3, xi=0, zeta=0, eta=0),
              zoo_params("L4", 3, alpha=1, beta=1, xi=2)):
        for build in (build_family, deform_family):
            got = is_right_H_simple(build(p))
            assert got["simple"], (p.label(), got)
            assert got["method"] == "socle-weights"


def test_direct_sum_is_not_right_H_simple():
    A = build_family(zoo_params("L4", 3, alpha=1, beta=1, xi=2))
    S = direct_sum_comodule_algebras(A, A)
    got = is_right_H_simple(S)
    assert not got["simple"]
    assert got["witness"]["ideal_dim"] < S.dim


def test_right_H_simplicity_is_undecided_without_a_proof():
    # Q(q)[t]/(t^2 - 2) with the trivial coaction 1 (x) a over gr(u_q):
    # its socle is all of it, one weight of multiplicity 2, and neither
    # weight vector generates a proper ideal, so nothing is proved
    N = 3
    fld = field(N)
    one, two = fld.one, fld.from_rational(2)
    mul = {(0, 0): ((0, one),), (0, 1): ((1, one),), (1, 0): ((1, one),),
           (1, 1): ((0, two),)}
    alg = FiniteAlgebra(fld, ["1", "t"], mul, {0: one})
    gr = build_gr_uq(N)
    unit_h, = gr.algebra.unit
    A = ComoduleAlgebra(alg, gr, {i: (((unit_h, i), one),) for i in (0, 1)})
    assert verify_comodule_algebra(A).ok
    got = is_right_H_simple(A)
    assert got["simple"] is None and got["method"] == "undecided", got
    assert got["socle_dim"] == 2


def reference_costable_closure(V, A):
    """Round-based closure: each round multiplies every basis row by every
    basis element, takes every H-leg of its coaction and puts the whole
    span into RREF again (dense), until the dimension stops growing."""
    fld = A.field
    current = V
    while True:
        new_vecs = [dense(v, A.dim, fld) for v in current.basis]
        for v in current.basis:
            for b in range(A.dim):
                prod = A.algebra.mul_vec(v, A.algebra.basis_vec(b))
                new_vecs.append(dense(prod, A.dim, fld))
            per_h: dict = {}
            for i, c in v.items():
                for (h, a), d in A.coaction.get(i, ()):
                    vec_add_into(per_h.setdefault(h, {}), a, c * d)
            for w in per_h.values():
                new_vecs.append(dense(w, A.dim, fld))
        bigger = dense_subspace(fld, A.dim, dense_rref(new_vecs))
        if bigger.dim == current.dim:
            return bigger
        current = bigger


def test_costable_closure_matches_round_based_reference():
    fld = field(3)
    rng = random.Random(7)
    members = [build(p)
               for p in (zoo_params("L1", 3, r=3, xi=2),
                         zoo_params("L1", 3, r=3, xi=0),
                         zoo_params("L4", 3, alpha=1, beta=1, xi=2),
                         zoo_params("L3N", 3, xi=1, zeta=2, eta="q"))
               for build in (build_family, deform_family)]
    L0 = build_family(zoo_params("L0", 3, r=3))
    members.append(direct_sum_comodule_algebras(L0, L0))
    for A in members:
        seeds = [[v] for _, vs in _weight_spaces_of_socle(A)
                 for v in vs]
        # the last basis vector (X^2 G^2 in L1 with X^3 = 0 takes two
        # steps), the first and last together (in the direct sum one in
        # each summand, where each alone generates only its half), a random
        # vector, a random pair, a random vector on the first half of the
        # basis (the left summand of the direct sum) and the sum of that
        # half (there an idempotent, which needs the legs)
        seeds.append([{A.dim - 1: fld.one}])
        seeds.append([{0: fld.one}, {A.dim - 1: fld.one}])
        seeds.append([sparse(random_scalar(fld, rng) for _ in range(A.dim))])
        seeds.append([sparse(random_scalar(fld, rng) if rng.random() < 0.2
                             else fld.zero for _ in range(A.dim))
                      for _ in range(2)])
        seeds.append([sparse(random_scalar(fld, rng) if 2 * i < A.dim
                             else fld.zero for i in range(A.dim))])
        seeds.append([{i: fld.one for i in range(A.dim) if 2 * i < A.dim}])
        dims = set()
        for vecs in seeds:
            V = Subspace.from_vectors(fld, A.dim, vecs)
            got = costable_closure(V, A)
            assert got == reference_costable_closure(V, A), A.params
            dims.add(got.dim)
        if A.params["family"] == "direct-sum":
            assert dims == {A.dim // 2, A.dim}


def mixed_basis(A, p, r):
    """A on the basis with e_p and e_r replaced by e_p + e_r and e_p - e_r."""
    fld = A.field
    one, half = fld.one, fld.one / 2
    new = {p: {p: one, r: one}, r: {p: one, r: -one}}  # f_i over the e_k
    old = {p: {p: half, r: half}, r: {p: half, r: -half}}  # e_k over the f_i

    def over_f(v):
        out: dict = {}
        for k, c in v.items():
            for i, d in old.get(k, {k: one}).items():
                vec_add_into(out, i, c * d)
        return out

    mul = {}
    for i in range(A.dim):
        for j in range(A.dim):
            prod = over_f(A.algebra.mul_vec(new.get(i, {i: one}),
                                            new.get(j, {j: one})))
            if prod:
                mul[(i, j)] = tuple(sorted(prod.items()))
    coaction = {}
    for i in range(A.dim):
        legs: dict = {}
        for (h, a), c in A.coact_vec(new.get(i, {i: one})).items():
            legs.setdefault(h, {})[a] = c
        coaction[i] = tuple(sorted(((h, b), c) for h, v in legs.items()
                                   for b, c in over_f(v).items()))
    alg = FiniteAlgebra(fld, A.labels, mul, over_f(A.algebra.unit))
    return ComoduleAlgebra(alg, A.over, coaction, A.params)


def test_socle_weight_vectors_have_their_weight():
    L1 = build_family(zoo_params("L1", 3, r=3, xi=2))
    # G1 and G2 span socle lines of different weights; on the basis
    # G1 + G2, G1 - G2 each weight vector combines two canonical socle rows
    mixed = mixed_basis(L1, L1.labels.index("X0G1"), L1.labels.index("X0G2"))
    assert verify_comodule_algebra(mixed).ok
    members = [build(p)
               for p in (zoo_params("L1", 3, r=3, xi=2),
                         zoo_params("L4", 3, alpha=1, beta=1, xi=2))
               for build in (build_family, deform_family)]
    combined = 0
    for A in members + [mixed]:
        soc = socle(A)
        weights = _weight_spaces_of_socle(A)
        assert sum(len(vs) for _, vs in weights) == soc.dim
        for g, vs in weights:
            assert Subspace.from_vectors(A.field, A.dim, vs).dim == len(vs)
            for v in vs:
                assert soc.contains(v)
                assert A.coact_vec(v) == {(g, a): c for a, c in v.items()}
                # v is sum t_k row_k over the canonical rows, and its
                # entry at the pivot of row k is t_k
                combined += len(soc.rows.keys() & v.keys()) > 1
    assert combined == 2  # the two weight vectors of the mixed basis
    assert is_right_H_simple(mixed) == is_right_H_simple(L1)


def test_socle_of_group_member_is_everything():
    A = build_family(zoo_params("L0", 3, r=3))
    assert socle(A).dim == A.dim


def test_embedding_into_uq():
    fld = field(3)
    for u, v in ((fld.one, fld.q), (fld.q, fld.zero), (fld.one, fld.one)):
        rep = embed_A4_into_uq(3, u, v)
        assert rep.ok, (str(u), str(v), [c.claim_id for c in rep.failures()])
        claims = {c.claim_id for c in rep.checks}
        assert "embedding-minimal-polynomial" in claims


def test_a_morphism_report_config_is_json():
    # the sub-report of check_comodule_algebra_morphism keeps its
    # parameters as strings, as verify_comodule_algebra's config does
    config = embed_A4_into_uq(3, u=1, v=2).config
    assert json.loads(json.dumps(config))["target"]["family"] == "regular"


def test_an_exhaustive_coaction_check_reads_generator_pairs(monkeypatch):
    checked = []
    kernel = hopfcore._multiplicativity_failures

    def spy(A, pairs):
        pairs = list(pairs)
        checked.extend(pairs)
        return kernel(A, pairs)

    monkeypatch.setattr(hopfcore, "_multiplicativity_failures", spy)
    A = build_family(zoo_params("L3N", 3, xi=1, zeta=2, eta=1))
    assert A.dim == 27
    assert verify_comodule_algebra(A).ok
    # multiplicativity on the pairs (a, s) for the three generators s,
    # not on all 729 pairs
    assert 0 < len(checked) <= 3 * 27


def test_min_pol_lemma_generic_and_degenerate():
    fld = field(3)
    triples = [
        (fld.one, fld.one, fld.from_rational(2)),
        (fld.one, fld.zero, fld.q),        # beta = 0 branch
        (fld.zero, fld.q, fld.one),        # alpha = 0 branch
        (fld.zero, fld.zero, fld.zero),    # trivial element
        (fld.q, fld.q_power(2), fld.zero), # gamma = 0
    ]
    for a, b, c in triples:
        rep = verify_min_pol_lemma(3, a, b, c)
        assert rep.ok, (str(a), str(b), str(c),
                        [x.claim_id for x in rep.failures()])


def test_one_dim_reps_roots_and_boundary():
    fld = field(3)
    rep = one_dim_reps_A4(3, fld.one, fld.q)
    assert rep.ok, [c.claim_id for c in rep.failures()]
    # u = v: phi acquires multiple roots and the member is not semisimple
    rep = one_dim_reps_A4(3, fld.one, fld.one)
    assert rep.ok, [c.claim_id for c in rep.failures()]
    assert not semisimplicity_A4(l4_params_from_uv(3, 1, 1))["semisimple"]


def test_semisimplicity_both_sides():
    assert semisimplicity_A4(
        zoo_params("L4", 3, alpha=1, beta=0, xi=1))["semisimple"]
    assert semisimplicity_A4(
        zoo_params("L4", 3, alpha=1, beta=1, xi=2))["semisimple"]
    assert not semisimplicity_A4(l4_params_from_uv(3, "q", "q"))["semisimple"]


def test_semisimplicity_cross_check_raises(monkeypatch):
    monkeypatch.setattr(comodzoo, "squarefree_check", lambda phi: False)
    with pytest.raises(ArithmeticError, match="disagree"):
        semisimplicity_A4(zoo_params("L4", 3, alpha=1, beta=1, xi=2))


def test_star_powers_that_do_not_span_raise(monkeypatch):
    monkeypatch.setattr(comodzoo, "solve", lambda fld, columns, b: None)
    with pytest.raises(ArithmeticError, match="do not span"):
        embed_A4_into_uq(3, 1, 2)


_OPTIMIZED_CHECKS = """
import uqcomod.comodzoo as comodzoo
import uqcomod.polyid as polyid
from uqcomod import hopfcore as hc
from uqcomod.cyclofield import field
from uqcomod.cyclofield import _int_poly_div_exact
from uqcomod.exactlinalg import Poly, Subspace
from uqcomod.uqsl2 import build_gr_uq, build_sigma

f = field(3)
H = build_gr_uq(3)
sigma = build_sigma(3)
R = hc.regular_comodule_algebra(H)
eps1 = hc.ConvForm.unit(H, 1)
zlabels = [f"z{i}" for i in range(27)]
relabelled = hc.FiniteCoalgebra(f, zlabels, H.coalgebra.comul,
                                H.coalgebra.counit)
other = hc.HopfAlgebraData(
    hc.FiniteAlgebra(f, zlabels, H.algebra.mul, H.algebra.unit),
    relabelled, H.antipode)
shorter = hc.FiniteCoalgebra(f, H.labels[:26], {}, {})
comodzoo.squarefree_check = lambda phi: False
zp = comodzoo.zoo_params
st = ("s", "t")
s_var = Poly.variable(f, st, "s")
u_var = Poly.variable(f, ("u",), "u")
identity = [{i: f.one} for i in range(27)]
cases = [
    (ValueError, lambda: Subspace.from_vectors(f, 2, [{0: f.one, 2: f.one}])),
    (ValueError, lambda: Subspace.from_vectors(f, 2, [{0: f.one}]).contains(
        {-1: f.one})),
    (ZeroDivisionError,
     lambda: Poly.from_rationals(f, [1, 1]).divmod(Poly.from_coeffs(f, []))),
    (ArithmeticError, lambda: comodzoo.semisimplicity_A4(
        comodzoo.zoo_params("L4", 3, alpha=1, beta=1, xi=2))),
    (ArithmeticError, lambda: polyid.product_identity_sides(4, field(4), 2)),
    (ValueError, lambda: hc.HopfAlgebraData(H.algebra, relabelled, {})),
    (ValueError, lambda: hc.HopfAlgebraData(H.algebra, shorter, {})),
    (ValueError, lambda: hc.check_comodule_algebra_morphism(
        identity[:26], R, R)),
    (ValueError, lambda: hc.check_comodule_algebra_morphism(
        identity[:26] + [{27: f.one}], R, R)),
    (ValueError, lambda: hc.check_comodule_algebra_morphism(
        identity, R, hc.regular_comodule_algebra(other))),
    (ValueError, lambda: hc.conjugate_comodule_algebra(R, 99)),
    (ValueError, lambda: comodzoo._coerce(f, field(5).one)),
    (ValueError, lambda: comodzoo.l4_params_from_uv(3, 1, 2, alpha=0)),
    (ValueError, lambda: comodzoo._in_N_r("(2N/x)", 3, 3)),
    (ValueError, lambda: comodzoo.semisimplicity_A4(zp("L1", 3, r=3, xi=1))),
    (ValueError, lambda: comodzoo.morita_equivalent_params(
        zp("L0", 3, r=3), zp("L0", 5, r=5))),
    (ValueError, lambda: comodzoo.diagonal_family_map(
        zp("L1", 3, r=3, xi=1), zp("L4", 3, alpha=1, beta=1, xi=1))),
    (ValueError, lambda: s_var + u_var),
    (ValueError, lambda: s_var ** -1),
    (ValueError, lambda: polyid.power_sum_P(0, f.one, f.one)),
    (ValueError, lambda: polyid.min_poly_coefficient(4, 3)),
    (ValueError, lambda: polyid.verify_chebyshev_identity(1)),
    (ValueError, lambda: polyid.verify_min_pol_formula_consistency(4)),
    (ArithmeticError, lambda: _int_poly_div_exact([1, 1], [0, 1])),
    (ValueError, lambda: hc.ConvForm.tensor(
        eps1, hc.ConvForm.unit(other, 1))),
    (ValueError, lambda: eps1(0, 0)),
    (ValueError, lambda: eps1.eval_vecs({0: f.one}, {0: f.one})),
    (ValueError, lambda: eps1 + sigma),
    (ValueError, lambda: hc.verify_hopf_2cocycle(eps1)),
    (ValueError, lambda: hc.deform_comodule_algebra(R, eps1, H)),
    (TypeError, lambda: hc.deform_hopf(H, sigma, "not a form")),
    (ValueError, lambda: hc.direct_sum_comodule_algebras(
        R, hc.regular_comodule_algebra(other))),
]
for exc, call in cases:
    try:
        call()
    except exc:
        continue
    raise SystemExit("no " + exc.__name__ + " under -O")
print("debug" if __debug__ else "optimized")
"""


def test_load_bearing_checks_survive_python_O():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_CHECKS],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "optimized"


def test_l4_params_from_uv_chart():
    fld = field(3)
    p = l4_params_from_uv(3, fld.one, fld.q)
    assert p.alpha == fld.one
    assert p.beta == fld.q * (fld.one - fld.q_power(2))
    assert p.xi == fld.one + fld.q ** 3  # u^3 + v^3 = 2
    assert p.xi == fld.from_rational(2)


def test_morita_truth_table():
    N = 3
    fld = field(N)
    zp = zoo_params
    lam = fld.from_rational(2)
    cases = [
        (zp("L0", N, r=1), zp("L0", N, r=N), False),
        (zp("L0", N, r=N), zp("L0", N, r=N), True),
        (zp("L1", N, r=N, xi=1), zp("L1", N, r=N, xi=2), False),
        (zp("L1", N, r=N, xi=1), zp("L1", N, r=N, xi=1), True),
        (zp("L1", N, r=N, xi=1), zp("L2", N, r=N, zeta=1), False),
        # the generic branch compares every parameter of the family's entry
        (zp("L2", N, r=N, zeta=1), zp("L2", N, r=N, zeta=2), False),
        (zp("L2", N, r=N, zeta=1), zp("L2", N, r=N, zeta=1), True),
        (zp("L3", N, r=1, xi=1, zeta=1), zp("L3", N, r=1, xi=1, zeta=2),
         False),
        (zp("L3N", N, xi=1, zeta=2, eta="q"),
         zp("L3N", N, xi=1, zeta=2, eta=fld.q * fld.q_power(2)), True),
        (zp("L3N", N, xi=1, zeta=2, eta=1),
         zp("L3N", N, xi=1, zeta=2, eta=2), False),
        (zp("L3", N, r=N, xi=1, zeta=2),
         zp("L3N", N, xi=1, zeta=2, eta=0), True),
        (zp("L1", N, r=1, xi=2), zp("L4", N, alpha=1, beta=0, xi=2), True),
        (zp("L4", N, alpha=1, beta=1, xi=3),
         zp("L4", N, alpha=lam * fld.q_power(2), beta=lam * fld.q_power(-2),
            xi=lam ** N * fld.from_rational(3)), True),
        (zp("L4", N, alpha=1, beta=1, xi=3),
         zp("L4", N, alpha=2, beta=2, xi=7), False),
        (zp("L4", N, alpha=1, beta=0, xi=1),
         zp("L4", N, alpha=0, beta=1, xi=1), False),
    ]
    for p1, p2, want in cases:
        assert morita_equivalent_params(p1, p2) == want, (p1.label(),
                                                          p2.label())
        assert morita_equivalent_params(p2, p1) == want, (p1.label(),
                                                          p2.label())


def test_eta_rotation_isomorphism():
    fld = field(3)
    src = zoo_params("L3N", 3, xi=1, zeta=2, eta=fld.q * fld.q_power(2))
    dst = zoo_params("L3N", 3, xi=1, zeta=2, eta=fld.q)
    for deformed in (False, True):
        images, A, B = diagonal_family_map(src, dst, g_scale=fld.q_power(1),
                                           deformed=deformed)
        rep = check_comodule_algebra_morphism(images, A, B)
        assert rep.ok, (deformed, [c.claim_id for c in rep.failures()])
        # g-scale q^2 keeps the map unital and colinear, not multiplicative
        images, A, B = diagonal_family_map(src, dst, g_scale=fld.q_power(2),
                                           deformed=deformed)
        failed = check_comodule_algebra_morphism(images, A, B).failures()
        assert [c.claim_id for c in failed] == ["morphism-multiplicative"]
        assert failed[0].witness["failing"] == 324
        assert failed[0].witness["examples"][0] == ["X0Y1G0", "X1Y0G0"]


def test_l4_rescaling_isomorphism():
    fld = field(3)
    lam = fld.from_rational(2)
    src = zoo_params("L4", 3, alpha=2, beta=2, xi=lam ** 3)
    dst = zoo_params("L4", 3, alpha=1, beta=1, xi=1)
    for deformed in (False, True):
        images, A, B = diagonal_family_map(src, dst, w_scale=lam,
                                           deformed=deformed)
        rep = check_comodule_algebra_morphism(images, A, B)
        assert rep.ok, (deformed, [c.claim_id for c in rep.failures()])


def test_conjugation_invariance():
    for p in (zoo_params("L4", 3, alpha=1, beta=1, xi=3),
              zoo_params("L3N", 3, xi=1, zeta=2, eta="q")):
        for power in (1, 2):
            for deformed in (False, True):
                rep = conjugation_invariance_report(p, power,
                                                    deformed=deformed)
                assert rep.ok, (p.label(), power, deformed,
                                [c.claim_id for c in rep.failures()])


def test_classify_structure():
    data = classify(3)
    assert data["N"] == 3
    names = [f["name"] for f in data["families"]]
    assert names == ["F0", "F1", "F2", "F3", "F4"]
    by_name = {f["name"]: f for f in data["families"]}
    assert by_name["F0"]["r_values"] == [1, 3]
    assert by_name["F1"]["r_values"] == [3]
    assert by_name["F2"]["r_values"] == [3]
    assert by_name["F4"]["constraint"] == "(alpha, beta) != (0, 0)"
    assert len(data["notes"]) == 3


def test_family_params_label_round():
    p = zoo_params("L3N", 3, xi=1, zeta=2, eta="q")
    lab = p.label()
    assert lab.startswith("L3N(") and "eta=q" in lab
    assert isinstance(p, FamilyParams)


def test_family_params_are_frozen_values():
    p = zoo_params("L3N", 3, xi=1, zeta="q", eta=2)
    for name, value in (("r", 1), ("xi", None), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(p, name, value)
    with pytest.raises(AttributeError):
        del p.eta
    assert p.r == 3 and p.eta == field(3).from_rational(2)
    again = zoo_params("L3N", 3, xi=1, zeta="q", eta=2)
    assert again is not p and again == p and hash(again) == hash(p)
    assert p != zoo_params("L3N", 3, xi=1, zeta="q", eta=1)
    assert p != zoo_params("L3", 3, xi=1, zeta="q") and p != ("L3N", 3)
    built = build_family(p)
    hits = build_family.cache_info().hits
    assert build_family(again) is built
    assert build_family.cache_info().hits == hits + 1
    assert repr(p) == ("FamilyParams(family='L3N', N=3, r=3, xi=<1 in Q(q_3)>, "
                       "zeta=<q in Q(q_3)>, eta=<2 in Q(q_3)>, alpha=None, "
                       "beta=None)")
    assert repr(zoo_params("L0", 3, r=1)) == (
        "FamilyParams(family='L0', N=3, r=1, xi=None, zeta=None, eta=None, "
        "alpha=None, beta=None)")
    assert copy.copy(p) == p and pickle.loads(pickle.dumps(p)) == p


def test_params_keep_every_field_the_table_uses():
    # a directly built FamilyParams may carry a field outside its family's
    # list in _FAMILIES; the table reads it, so A.params and the export
    # must show it too
    fld = field(3)
    p = FamilyParams("L3", 3, 1, xi=fld.zero, zeta=fld.zero, eta=fld.q)
    for A in (build_family(p), deform_family(p)):
        assert A.params == {"family": "L3", "N": 3, "r": 1, "xi": fld.zero,
                            "zeta": fld.zero, "eta": fld.q}
        assert hopfcore.comodule_to_json(A)["params"] == {
            "N": 3, "family": "L3", "r": 1, "xi": "0", "zeta": "0",
            "eta": "q"}
    # a member from zoo_params keeps its family's names, in field order
    l4 = zoo_params("L4", 3, alpha=1, beta=2, xi=3)
    assert list(build_family(l4).params) == ["family", "N", "r", "xi",
                                             "alpha", "beta"]


_IMPORT_PROBE = """
import sys
import uqcomod.cli
print(sorted(m for m in ("dataclasses", "inspect", "typing")
             if m in sys.modules))
"""


def test_importing_the_cli_leaves_out_dataclasses_and_inspect():
    # -S keeps site's own imports out of the count
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-S", "-c", _IMPORT_PROBE],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# -- the coaction side a deformed twin shares with its plain member ----------


def _side_results(A):
    """The four results that read only A's coaction side: coassociativity
    and counit failures, the Loewy layers (dims and canonical rows), the
    coinvariants and the socle's weight spaces."""
    fil = loewy_filtration(A)
    return (hopfcore._coaction_failures(A, [(0, 0)])[:2], fil.dims,
            fil.spaces, coinvariants(A),
            [(g, [dict(v) for v in vs])
             for g, vs in _weight_spaces_of_socle(A)])


def _unshared(A):
    """A on a fresh copy of its coaction, with a side of its own."""
    return ComoduleAlgebra(A.algebra, A.over, dict(A.coaction), A.params)


def _oracle_members():
    fld = field(5)
    return _zoo_tuples(3, small=True) + [
        zoo_params("L1", 5, r=5, xi=2),
        zoo_params("L3N", 5, xi=1, zeta=2, eta=fld.q),
        zoo_params("L4", 5, alpha=1, beta=1, xi=2)]


@pytest.mark.parametrize("p", _oracle_members(), ids=lambda p: p.label())
def test_shared_side_results_equal_a_computation_from_scratch(p):
    L, D = build_family(p), deform_family(p)
    assert D.side is L.side and D.coaction is L.coaction
    for A in (D, L):
        fresh = _unshared(A)
        assert fresh.side is not A.side
        assert _side_results(A) == _side_results(fresh)


def test_hand_built_members_get_their_own_side():
    A = build_family(zoo_params("L1", 3, r=3, xi=2))
    loewy_filtration(A)
    coinvariants(A)
    H = A.over
    bare = HopfAlgebraData(H.algebra, H.coalgebra, H.antipode)
    B = ComoduleAlgebra(A.algebra, bare, A.coaction)
    assert B.side is not A.side
    with pytest.raises(ValueError, match="degree data"):
        loewy_filtration(B)
    # without degrees, bare is not the coalgebra data of A's side
    with pytest.raises(ValueError, match="another coaction"):
        ComoduleAlgebra(A.algebra, bare, A.coaction, side=A.side)
    with pytest.raises(ValueError, match="another coaction"):
        ComoduleAlgebra(A.algebra, H, {**A.coaction, 0: ()}, side=A.side)


def test_shared_subspaces_and_weights_are_read_only():
    A = deform_family(zoo_params("L1", 3, r=3, xi=2))
    one = A.field.one
    for space in (socle(A), *loewy_filtration(A).spaces, coinvariants(A)):
        with pytest.raises(TypeError):
            space.rows[0] = {0: one}
        with pytest.raises(TypeError):
            space.basis[0][0] = one
    weights = _weight_spaces_of_socle(A)
    with pytest.raises(TypeError):
        weights[0] = None
    with pytest.raises(TypeError):
        weights[0][1][0][0] = one
