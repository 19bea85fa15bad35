"""Exhaustive claims proved on generator tuples, with the enumeration as the
oracle.

When step_certificate holds, verify_algebra checks only the triples
(a, b, s) and _coaction_failures only the pairs (a, s), s a generator; the
2-cocycle identity follows from the one-sided twist's generator triples,
and the dual functionals' product rules and the counit's multiplicativity
from the pairs (a, s), s = 0 or a generator.  A copy of a table with
steps = () has no certificate, so every plan on it is enumerated in full;
the reports on a table and on its copy must be equal, for passing and for
corrupted data alike.
"""

import inspect
import itertools
from fractions import Fraction

import pytest

from uqcomod import cli, hopfcore, uqsl2
from uqcomod.cli import check_plan
from uqcomod.cyclofield import CyclotomicNumber, _Partial
from uqcomod.comodzoo import build_family, deform_family, zoo_params
from uqcomod.hopfcore import (ComoduleAlgebra, ConvForm, ExhaustivePlan,
                              FiniteAlgebra, FiniteCoalgebra, HopfAlgebraData,
                              solve_antipode, step_certificate,
                              verify_algebra, verify_comodule_algebra,
                              verify_hopf, verify_hopf_2cocycle)
from uqcomod.sides import coalgebra_failures
from uqcomod.uqsl2 import (build_dual_functionals, build_gr_uq, build_sigma,
                           build_uq, monomial_index, uq_relation_report,
                           verify_dual_relations)

from conftest import reference_multiplicativity_failures


def _copy(alg, mul=None, steps=()):
    """alg's table (or mul) on a new FiniteAlgebra with the given steps."""
    out = FiniteAlgebra(alg.field, alg.labels,
                        alg.mul if mul is None else mul, dict(alg.unit))
    out.steps = tuple(steps)
    return out


def _hopf_on(H, alg, coalgebra=None, antipode=None):
    return HopfAlgebraData(alg, coalgebra or H.coalgebra,
                           H.antipode if antipode is None else antipode,
                           degrees=H.degrees)


def _comodule_on(A, alg, coaction=None):
    return ComoduleAlgebra(alg, A.over,
                           A.coaction if coaction is None else coaction,
                           A.params)


def _same_reports(verify, *args):
    """verify on each argument tuple, checked to give one report."""
    first, *rest = [verify(*a).as_dict() for a in args]
    for other in rest:
        assert other == first
    return first


def _members():
    for p in cli._zoo_tuples(3, small=True):
        yield p.label(), build_family(p)
        yield p.label() + " deformed", deform_family(p)


@pytest.mark.parametrize("name", ["gr", "uq"])
def test_hopf_reports_equal_the_enumeration(name):
    H = {"gr": build_gr_uq, "uq": build_uq}[name](3)
    assert step_certificate(H.algebra) == (1, 3, 9)
    bare = _copy(H.algebra)
    assert step_certificate(bare) == ()
    rep = _same_reports(verify_algebra, (H.algebra,), (bare,))
    assert all(c["status"] == "pass" for c in rep["claims"])
    _same_reports(verify_hopf, (H,), (_hopf_on(H, bare),))


def test_member_reports_equal_the_enumeration():
    for label, A in _members():
        # the one-dimensional L0 (r = 1) has no steps to certify
        assert step_certificate(A.algebra) or A.dim == 1, label
        bare = _copy(A.algebra)
        _same_reports(verify_algebra, (A.algebra,), (bare,))
        rep = _same_reports(verify_comodule_algebra, (A,),
                            (_comodule_on(A, bare),))
        assert all(c["status"] == "pass" for c in rep["claims"]), label


def test_only_exhaustive_runs_record_a_verdict():
    gr = build_gr_uq(3).algebra
    alg = _copy(gr, steps=gr.steps)
    assert alg.verified is None
    verify_algebra(alg, check_plan(alg.dim, 3, "sampled", 20))
    assert alg.verified is None
    verify_algebra(alg)
    assert alg.verified is True


# -- corrupted data: each must fail with the enumeration's witnesses ----------


def _scaled_row(alg, i, j, factor):
    """alg's table with the first entry of row (i, j) times factor."""
    mul = dict(alg.mul)
    (k, c), *rest = mul[(i, j)]
    mul[(i, j)] = ((k, c * factor), *rest)
    return mul


def _failing(rep):
    return {c["claim_id"]: c["witness"] for c in rep["claims"]
            if c["status"] == "fail"}


def test_mutation_battery_with_steps_attached():
    # the corruptions of test_criterion_10, on tables that keep their steps
    gr, uq = build_gr_uq(3), build_uq(3)
    fld = gr.field
    x, y, g = (monomial_index(3, 1, 0, 0), monomial_index(3, 0, 1, 0),
               monomial_index(3, 0, 0, 1))
    steps = gr.algebra.steps

    # 1. x*y rescaled: the certificate still holds (c = 2), the generator
    # triples fail and the full plan gives the witness
    mul = _scaled_row(gr.algebra, x, y, fld.from_rational(2))
    bad = _copy(gr.algebra, mul, steps)
    assert step_certificate(bad)
    rep = _same_reports(verify_algebra, (bad,), (_copy(bad),))
    assert _failing(rep)["algebra-associativity"]["checked"] == 27 ** 3

    # 2. a wrong grouplike leg on Delta(x)
    comul = dict(gr.coalgebra.comul)
    comul[x] = ((x, 0, fld.one), (g, x, fld.one))
    co = FiniteCoalgebra(fld, gr.labels, comul, dict(gr.coalgebra.counit))
    rep = _same_reports(verify_hopf, (_hopf_on(gr, gr.algebra, co),),
                        (_hopf_on(gr, _copy(gr.algebra), co),))
    assert _failing(rep)

    # 3. the sign of S(x) dropped
    antipode = {i: dict(m) for i, m in gr.antipode.items()}
    antipode[x] = {k: -c for k, c in antipode[x].items()}
    rep = _same_reports(
        verify_hopf, (_hopf_on(gr, gr.algebra, antipode=antipode),),
        (_hopf_on(gr, _copy(gr.algebra), antipode=antipode),))
    assert "hopf-antipode" in _failing(rep)

    # 4. one sigma coordinate changed
    coords = dict(build_sigma(3).coords)
    coords[(x, y)] = coords[(x, y)] + fld.one
    rep = _same_reports(
        verify_hopf_2cocycle, (ConvForm(gr, 2, coords),),
        (ConvForm(_hopf_on(gr, _copy(gr.algebra)), 2, coords),))
    assert _failing(rep)

    # 5. the H-leg of a family generator misrouted
    A = build_family(zoo_params("L1", 3, r=3, xi=2))
    coaction = dict(A.coaction)
    coaction[3] = (((g, 3), fld.one),)
    rep = _same_reports(verify_comodule_algebra,
                        (_comodule_on(A, A.algebra, coaction),),
                        (_comodule_on(A, _copy(A.algebra), coaction),))
    assert "comodule-multiplicativity" in _failing(rep)

    # 6. one product of the deformed table rescaled
    mul = _scaled_row(uq.algebra, x, y, fld.from_rational(3))
    bad = _copy(uq.algebra, mul, uq.algebra.steps)
    assert step_certificate(bad)
    for verify in (verify_algebra,
                   lambda a: verify_hopf(_hopf_on(uq, a)),
                   lambda a: uq_relation_report(3, _hopf_on(uq, a))):
        assert _failing(_same_reports(verify, (bad,), (_copy(bad),)))


@pytest.mark.parametrize("label, terms", [
    ("x1y0g0", [("x0y1g0", "x0y0g0")]),  # the right counit
    ("x1y0g0", [("x0y0g0", "x0y1g0")]),  # the left counit
    ("x0y0g0", [("x1y0g0", "x0y1g0")]),  # Delta(1) = 1 (x) 1
], ids=["right-counit", "left-counit", "unit"])
def test_corrupted_gr_comultiplication_with_steps_attached(gr3, label, terms):
    # the corruptions of test_corrupted_gr_comultiplication_is_caught:
    # reduced pairs alone would report 29 failing pairs, not 55, for the
    # two counit cases, so the witness must come from the enumeration
    ix = gr3.labels.index
    comul = dict(gr3.coalgebra.comul)
    comul[ix(label)] += tuple((ix(a), ix(b), gr3.field.one) for a, b in terms)
    co = FiniteCoalgebra(gr3.field, gr3.labels, comul,
                         dict(gr3.coalgebra.counit))
    rep = _same_reports(verify_hopf, (_hopf_on(gr3, gr3.algebra, co),),
                        (_hopf_on(gr3, _copy(gr3.algebra), co),))
    witness = _failing(rep)["bialgebra-multiplicativity"]
    assert (witness["failing"], witness["checked"]) == (55, 729)


# -- the associativity kernel against a loop on mul_vec ----------------------


def _reference_defects(alg, plan):
    """The witness of each planned triple with (e_a e_b) e_s !=
    e_a (e_b e_s), both sides multiplied out by FiniteAlgebra.mul_vec."""
    out = []
    for tup in plan:
        a, b, s = (alg.basis_vec(i) for i in tup)
        lhs = alg.mul_vec(alg.mul_vec(a, b), s)
        rhs = alg.mul_vec(a, alg.mul_vec(b, s))
        if lhs != rhs:
            out.append(hopfcore._witness(alg.labels, tup, lhs, rhs))
    return out


def _kernel_defects(alg, plan):
    return [hopfcore._witness(alg.labels, tup, lhs, rhs) for tup, lhs, rhs
            in hopfcore._associativity_defects(alg, plan)]


def _kernel_table(name):
    if name == "L3N deformed":
        return deform_family(zoo_params("L3N", 3, xi=1, zeta=2,
                                        eta=build_gr_uq(3).field.q)).algebra
    return {"gr": build_gr_uq, "uq": build_uq}[name](3).algebra


def _corrupted(alg, case):
    """alg's table with one row (i, s), s a generator, corrupted: a
    one-term row rescaled (same keys), rescaled by 0 (a zero term) or moved
    to the next basis element, or the first term of a multi-term row
    dropped."""
    mul = dict(alg.mul)
    size = 2 if case == "dropped" else 1
    key = next((i, s) for i in range(1, alg.dim)
               for s in step_certificate(alg) if len(alg.mul[(i, s)]) >= size)
    (k, c), *rest = alg.mul[key]
    mul[key] = {"rescaled": ((k, c * 2),),
                "zeroed": ((k, c * 0),),
                "moved": (((k + 1) % alg.dim, c),),
                "dropped": tuple(rest)}[case]
    return _copy(alg, mul)


@pytest.mark.parametrize("name, case", [
    (name, case) for name in ("gr", "uq", "L3N deformed")
    for case in ("valid", "rescaled", "zeroed", "moved", "dropped")
    # every row of gr(u_q) has one term
    if (name, case) != ("gr", "dropped")])
def test_associativity_kernel_matches_mul_vec(name, case):
    alg = _kernel_table(name)
    gens = step_certificate(alg)
    if case != "valid":
        alg = _corrupted(alg, case)
    plans = [ExhaustivePlan(alg.dim, 3, gens),
             check_plan(alg.dim, 3, "sampled", 300, 7, gens)]
    if case == "moved":
        plans.append(ExhaustivePlan(alg.dim, 3))
    for plan in plans:
        want = _reference_defects(alg, plan)
        assert _kernel_defects(alg, plan) == want
        assert bool(want) == (case != "valid")


@pytest.mark.parametrize("name", ["gr", "uq", "L3N"])
@pytest.mark.parametrize("corrupt", [False, True])
def test_single_term_triples_match_the_list_path(name, corrupt):
    # the plan path decides a triple whose four rows have one term each on
    # (index, product id) and sums any other, or any mismatch; the list path
    # multiplies every triple out in field values.  The corruption is a
    # wrong q-power in the one-term row (g, x): q g x in place of q^2 g x
    alg = _kernel_table(name) if name != "L3N" else build_family(zoo_params(
        "L3N", 3, xi=1, zeta=2, eta=build_gr_uq(3).field.q)).algebra
    if corrupt:
        g, x = monomial_index(3, 0, 0, 1), monomial_index(3, 1, 0, 0)
        mul = dict(alg.mul)
        (k, c), = mul[(g, x)]
        assert c == alg.field.q_power(2)
        mul[(g, x)] = ((k, alg.field.q),)
        alg = _copy(alg, mul)
    plan = ExhaustivePlan(alg.dim, 3)
    want = [(tup, lhs, rhs) for tup, lhs, rhs
            in hopfcore._associativity_defects(alg, list(plan))]
    assert list(hopfcore._associativity_defects(alg, plan)) == want
    assert bool(want) == corrupt


def test_a_sampled_plan_reads_only_its_rows(uq3):
    # u_q's rows are filled on first read: on a sampled plan the kernel
    # must fill the rows that mul_vec reads for the same triples, no more
    plan = check_plan(uq3.dim, 3, "sampled", 40, 5)
    rows = []

    def lazy():
        rows.clear()

        def fill(i, j):
            rows.append((i, j))
            return uq3.algebra.mul.row(i, j)

        table = uq3.algebra.mul
        return _copy(uq3.algebra, hopfcore._Table(uq3.dim, table.value_of,
                                                  fill))

    want = _reference_defects(lazy(), plan)
    read = set(rows)
    assert _kernel_defects(lazy(), plan) == want
    assert set(rows) == read and len(read) < uq3.dim ** 2 // 4


# -- the multiplicativity kernel against t2_mul ------------------------------


def _multiplicativity_matches(A, *plans):
    """The kernel's failures on each plan, checked equal to the reference's,
    order included; returns those of the first plan."""
    found = []
    for plan in plans:
        got = hopfcore._multiplicativity_failures(A, plan)
        assert got == reference_multiplicativity_failures(A, plan)
        found.append(got)
    return found[0]


def _regular(H, alg=None, coalgebra=None):
    return hopfcore.regular_comodule_algebra(
        _hopf_on(H, alg or H.algebra, coalgebra))


def _pair_plans(A):
    """The exhaustive plan, the generator pairs and a sampled plan of A."""
    gens = step_certificate(A.algebra)
    return (ExhaustivePlan(A.dim, 2), ExhaustivePlan(A.dim, 2, gens),
            check_plan(A.dim, 2, "sampled", 300, 7, gens))


def test_multiplicativity_kernel_matches_t2_mul_at_n3():
    members = [("gr", _regular(build_gr_uq(3))), ("uq", _regular(build_uq(3))),
               *_members()]
    assert len(members) == 22
    for label, A in members:
        assert _multiplicativity_matches(A, *_pair_plans(A)) == [], label


@pytest.mark.parametrize("name", ["gr", "uq", "L3N", "L3N deformed"])
def test_multiplicativity_kernel_matches_t2_mul_at_n5(name):
    if name in ("gr", "uq"):
        A = _regular({"gr": build_gr_uq, "uq": build_uq}[name](5))
    else:
        p = zoo_params("L3N", 5, xi=1, zeta=2, eta=build_gr_uq(5).field.q)
        A = deform_family(p) if name.endswith("deformed") else build_family(p)
    gens = step_certificate(A.algebra)
    plan = check_plan(A.dim, 2, "sampled", 200, 11, gens)
    assert _multiplicativity_matches(A, plan) == []


def test_multiplicativity_kernel_matches_t2_mul_on_corrupted_data():
    # the corruptions of test_criterion_10 that reach the kernel
    gr, uq = build_gr_uq(3), build_uq(3)
    fld = gr.field
    x, y, g = (monomial_index(3, 1, 0, 0), monomial_index(3, 0, 1, 0),
               monomial_index(3, 0, 0, 1))
    comul = dict(gr.coalgebra.comul)
    comul[x] = ((x, 0, fld.one), (g, x, fld.one))
    L1 = build_family(zoo_params("L1", 3, r=3, xi=2))
    assert L1.labels[3] == "X1G0"
    cases = {
        "gr x*y rescaled": _regular(gr, _copy(
            gr.algebra, _scaled_row(gr.algebra, x, y, fld.from_rational(2)),
            gr.algebra.steps)),
        "wrong grouplike leg": _regular(gr, coalgebra=FiniteCoalgebra(
            fld, gr.labels, comul, dict(gr.coalgebra.counit))),
        "uq x*y rescaled": _regular(uq, _copy(
            uq.algebra, _scaled_row(uq.algebra, x, y, fld.from_rational(3)),
            uq.algebra.steps)),
        "L1 X H-leg misrouted": _comodule_on(
            L1, L1.algebra, {**L1.coaction, 3: (((g, 3), fld.one),)}),
    }
    for label, A in cases.items():
        assert _multiplicativity_matches(A, *_pair_plans(A)), label


def _fresh(c):
    return CyclotomicNumber(c.field, tuple(c.num), c.den)


def test_value_index_keys_exact_values(f3):
    vi = f3.interned
    half = f3.from_rational(Fraction(1, 2))
    i = vi.of(half)
    assert vi.of(f3.zero) == 0 and i
    # 1 and 1/2 share their numerators
    assert half.num == f3.one.num and vi.of(f3.one) != i
    assert vi.of(_fresh(half)) == i
    j = vi.of(f3.q)
    assert vi.values[vi.product(i, j)] == half * f3.q
    assert vi.values[vi.total(i, i)] == f3.one
    # a product is computed once and kept under both orders
    assert vi.products[i][j] == vi.products[j][i] == vi.product(j, i)
    assert vi.sums[i]


def test_a_sum_is_computed_once_for_both_orders(f3, monkeypatch):
    vi = f3.interned
    added = []
    add = CyclotomicNumber.__add__

    def counting(x, y):
        added.append(1)
        return add(x, y)

    monkeypatch.setattr(CyclotomicNumber, "__add__", counting)
    i = vi.of(f3.from_rational(Fraction(2, 7)))
    j = vi.of(f3.q * Fraction(3, 11))
    t = vi.total(i, j)
    assert vi.sums[j][i] == t and len(added) == 1
    out = {"k": j}
    vi.add(out, "k", i)
    assert out["k"] == t and len(added) == 1
    # a check's memo stores both orders of two indices of vi
    part = _Partial(vi)
    k = vi.of(f3.from_rational(Fraction(5, 13)))
    p = part.total(i, k)
    assert p < 0 and part.sums[k][i] == p and len(added) == 2
    out = {"k": k}
    part.add(out, "k", i)
    assert out["k"] == p and len(added) == 2


def test_partial_sums_stay_out_of_the_value_index(f3):
    vi = f3.interned
    third = f3.from_rational(Fraction(1, 3))
    i = vi.of(third)
    size = len(vi.values)
    part = _Partial(vi)
    lhs: dict = {}
    rhs: dict = {}
    for _ in range(7):
        part.add(lhs, "k", i)
    # 7/3 is a new value: a negative id of the memo, not an index of vi
    assert lhs["k"] < 0 and part.value(lhs["k"]) == 7 * third
    assert len(vi.values) == size
    # a sum vi learns later carries both ids, and compares as values
    rhs["k"] = vi.of(7 * third)
    assert lhs != rhs and part.same(lhs, rhs)
    # a sum that cancels stays as index 0 and compares as absent
    part.add(lhs, "z", i)
    part.add(lhs, "z", vi.of(-third))
    assert lhs["z"] == 0 and part.same(lhs, rhs)
    assert not part.same(lhs, {"k": i})


def test_check_kernels_add_no_sums_to_the_value_index():
    # the associativity, multiplicativity and coalgebra kernels sum on
    # their own memo: once u_q(5)'s table is complete, they leave the
    # index's sums as they were
    uq = build_uq(5)
    dict(uq.algebra.mul)
    vi = uq.field.interned
    sums = sum(map(len, vi.sums))
    for seed in (1, 2):
        verify_algebra(uq.algebra, check_plan(uq.dim, 3, "sampled", 400,
                                              seed))
        verify_comodule_algebra(hopfcore.regular_comodule_algebra(uq),
                                check_plan(uq.dim, 2, "sampled", 400, seed))
    coalgebra_failures(uq.side)
    assert sum(map(len, vi.sums)) == sums


def test_the_antipode_check_adds_no_sums_to_the_value_index():
    # verify_hopf and uq_relation_report sum the antipode sides on a memo
    # of their own call: once u_q(3)'s table is complete, they leave the
    # index's sum memo empty.  It is emptied first (a memo only, refilled
    # on demand), so sums an earlier test left there cannot hide a leak
    uq = build_uq(3)
    dict(uq.algebra.mul)
    vi = uq.field.interned
    for memo in vi.sums:
        memo.clear()
    assert verify_hopf(uq).ok
    assert uq_relation_report(3, uq).ok
    assert not any(vi.sums)


def test_multiplicativity_kernel_keys_coefficients_by_value():
    # the table holds value ids only; the coaction's coefficients are new
    # objects, equal in value, that nothing else keeps
    p = zoo_params("L3N", 3, xi=1, zeta=2, eta=build_gr_uq(3).field.q)
    A = build_family(p)
    alg = A.algebra
    coaction = {i: tuple((key, _fresh(c)) for key, c in ent)
                for i, ent in A.coaction.items()}
    plans = _pair_plans(A)
    assert _multiplicativity_matches(
        _comodule_on(A, alg, coaction), *plans) == []
    # one coefficient of delta(Y) off by a q-power
    y = A.labels.index("X0Y1G0")
    (key, c), *rest = coaction[y]
    coaction[y] = ((key, c * A.field.q), *rest)
    assert _multiplicativity_matches(_comodule_on(A, alg, coaction), *plans)


# -- the cocycle identity, the dual product rules and the counit ------------


def _sigma_pair(H, coords):
    """sigma's coordinates on H and on a copy of H without steps."""
    return (ConvForm(H, 2, coords),
            ConvForm(_hopf_on(H, _copy(H.algebra)), 2, coords))


def test_cocycle_reports_equal_the_enumeration(gr3):
    x, y = monomial_index(3, 1, 0, 0), monomial_index(3, 0, 1, 0)
    coords = dict(build_sigma(3).coords)
    rep = _same_reports(verify_hopf_2cocycle,
                        *[(s,) for s in _sigma_pair(gr3, coords)])
    assert all(c["status"] == "pass" for c in rep["claims"])
    coords[(x, y)] = coords[(x, y)] + gr3.field.one
    rep = _same_reports(verify_hopf_2cocycle,
                        *[(s,) for s in _sigma_pair(gr3, coords)])
    assert _failing(rep)["cocycle-identity"]["checked"] == 27 ** 3


def test_a_corrupted_twist_stops_at_its_first_failing_triple(monkeypatch,
                                                             gr3):
    # with one sigma coordinate changed, the one-sided twist is decided on
    # its generator triples and the first failing one settles it: neither
    # its 27^3 triples nor a report of them are made before the cocycle
    # identity itself is enumerated
    x, y = monomial_index(3, 1, 0, 0), monomial_index(3, 0, 1, 0)
    coords = dict(build_sigma(3).coords)
    coords[(x, y)] = coords[(x, y)] + gr3.field.one
    kernel = hopfcore._associativity_defects
    plans, defects, reports = [], [], []

    def spy(alg, triples):
        plans.append(triples)
        for defect in kernel(alg, triples):
            defects.append(defect)
            yield defect

    monkeypatch.setattr(hopfcore, "_associativity_defects", spy)
    monkeypatch.setattr(hopfcore, "verify_algebra",
                        lambda *args, **kwargs: reports.append(args))
    rep = verify_hopf_2cocycle(ConvForm(gr3, 2, coords)).as_dict()
    assert [(type(p), p.last) for p in plans] == [(ExhaustivePlan, (1, 3, 9))]
    assert len(defects) == 1 and reports == []
    assert _failing(rep)["cocycle-identity"]["checked"] == 27 ** 3


def _duals_on(H, rescale=None):
    """build_dual_functionals(3) as forms on H, with xi1's coordinate at
    rescale[0] times rescale[1]."""
    coords = {name: dict(f.coords)
              for name, f in build_dual_functionals(3).items()}
    if rescale is not None:
        key, factor = rescale
        coords["xi1"][key] = coords["xi1"][key] * factor
    return {name: ConvForm(H, 1, c) for name, c in coords.items()}


@pytest.mark.parametrize("k", [None, 0, 1])
def test_dual_product_rule_reports_equal_the_enumeration(monkeypatch, gr3,
                                                         k):
    # xi1 on x g^k rescaled by 2 breaks its skew-primitivity; the
    # functionals are swapped in for build_dual_functionals(3)
    rescale = None if k is None else (
        (monomial_index(3, 1, 0, k),), gr3.field.from_rational(2))
    bare = _hopf_on(gr3, _copy(gr3.algebra))
    true_rep = verify_dual_relations(3).as_dict()

    def on(H):
        duals = _duals_on(H, rescale)
        monkeypatch.setattr(uqsl2, "build_dual_functionals",
                            lambda N: duals)
        return verify_dual_relations(3)

    rep = _same_reports(on, (gr3,), (bare,))
    if k is None:
        assert rep == true_rep
        assert all(c["status"] == "pass" for c in rep["claims"])
    else:
        assert _failing(rep)["dual-product-rules"]["checked"] == 27 ** 2


@pytest.mark.parametrize("label", ["x0y0g1", "x1y0g0"])
def test_corrupted_counit_reports_equal_the_enumeration(gr3, label):
    # eps(g) = 2 breaks eps(g g) = eps(g)^2 and eps(x) = 2 breaks
    # eps(x x) = eps(x)^2; the witness counts the planned pairs, as every
    # planned claim's does
    counit = dict(gr3.coalgebra.counit)
    counit[gr3.labels.index(label)] = gr3.field.from_rational(2)
    co = FiniteCoalgebra(gr3.field, gr3.labels, gr3.coalgebra.comul, counit)
    rep = _same_reports(verify_hopf, (_hopf_on(gr3, gr3.algebra, co),),
                        (_hopf_on(gr3, _copy(gr3.algebra), co),))
    witness = _failing(rep)["bialgebra-counit-multiplicative"]
    failing = {"x0y0g1": 4, "x1y0g0": 9}[label]
    assert (witness["failing"], witness["checked"]) == (failing, 27 ** 2)


def test_valid_data_never_enumerates(monkeypatch, gr3, uq3, sigma3):
    # every exhaustive claim on valid N = 3 data is proved on generator
    # tuples: no full plan (its last slot over every index) is ever
    # iterated, nor handed to the associativity kernel, which loops over
    # plan.last without iterating the plan
    iterate, kernel = ExhaustivePlan.__iter__, hopfcore._associativity_defects
    full, reduced = [], []

    def record(plan):
        if isinstance(plan, ExhaustivePlan):
            seen = full if plan.last == range(plan.dim) else reduced
            seen.append((plan.dim, plan.arity))

    def spy_iterate(plan):
        record(plan)
        return iterate(plan)

    def spy_kernel(alg, triples):
        record(triples)
        return kernel(alg, triples)

    monkeypatch.setattr(ExhaustivePlan, "__iter__", spy_iterate)
    monkeypatch.setattr(hopfcore, "_associativity_defects", spy_kernel)
    reports = [verify_hopf(gr3), verify_hopf(uq3),
               verify_hopf_2cocycle(sigma3), verify_dual_relations(3)]
    reports += [verify_comodule_algebra(A) for _, A in _members()
                if A.dim > 1]
    assert all(rep.ok for rep in reports)
    assert full == [] and reduced


# -- one plan type: full plans and generator plans ----------------------------


@pytest.mark.parametrize("arity", [2, 3])
def test_a_plan_has_as_many_tuples_as_its_length(gr3, arity):
    alg = gr3.algebra
    gens = step_certificate(alg)
    full = ExhaustivePlan(alg.dim, arity)
    reduced = hopfcore._generator_plan(alg, full, lead=(0,))
    assert full.last == range(alg.dim) and reduced.last == (0, *gens)
    for plan in (full, reduced, ExhaustivePlan(alg.dim, arity, gens)):
        want = [t for t in itertools.product(range(alg.dim), repeat=arity)
                if t[-1] in plan.last]
        assert len(plan) == len(want)
        # iterable again, in lexicographic order
        assert list(plan) == list(plan) == want


def test_only_a_full_plan_is_reduced(gr3):
    # a generator plan or a sampled list fails _generator_plan's first
    # precondition: it is not reduced again
    alg = gr3.algebra
    gens = step_certificate(alg)
    reduced = hopfcore._generator_plan(alg, ExhaustivePlan(alg.dim, 3))
    assert reduced.last == gens
    assert hopfcore._generator_plan(alg, reduced) is None
    assert hopfcore._generator_plan(
        alg, ExhaustivePlan(alg.dim, 2, (0, *gens)), lead=(0,)) is None
    sampled = check_plan(alg.dim, 3, "sampled", 20, 1, gens)
    assert hopfcore._generator_plan(alg, sampled) is None


@pytest.mark.parametrize("N", [3, 5])
def test_a_sampled_run_proves_nothing_exhaustively(monkeypatch, N):
    # a sampled plan must fail _generator_plan's first precondition, before
    # any table is proved by an exhaustive verify_algebra; each table's
    # kept verdict is cleared, so a cached one cannot hide such a run
    gr, uq = build_gr_uq(N), build_uq(N)
    members = [build(p) for p in cli._zoo_tuples(N, small=N == 3)
               for build in (build_family, deform_family)]
    for alg in (gr.algebra, uq.algebra, *(A.algebra for A in members)):
        monkeypatch.setattr(alg, "verified", None)
    signature = inspect.signature(verify_algebra)
    plans = []

    def spy(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        plans.append(call.arguments["triples"])
        return verify_algebra(*args, **kwargs)

    def sampled(dim, arity, count=20, seed=0):
        return check_plan(dim, arity, "sampled", count, seed)

    monkeypatch.setattr(hopfcore, "verify_algebra", spy)
    hopf = (sampled(gr.dim, 3, 10), sampled(gr.dim, 2, 10, 1))
    reports = [verify_hopf(gr, *hopf), verify_hopf(uq, *hopf),
               verify_hopf_2cocycle(build_sigma(N), sampled(gr.dim, 3)),
               verify_dual_relations(N, sampled(gr.dim, 2))]
    reports += [verify_comodule_algebra(A, sampled(A.dim, 2))
                for A in members]
    assert all(rep.ok for rep in reports)
    # verify_hopf's own associativity check, on gr and on u_q
    assert plans == [hopf[0], hopf[0]]
    assert gr.algebra.verified is uq.algebra.verified is None
    assert all(A.algebra.verified is None for A in members)


# -- a broken certificate fails closed ----------------------------------------


def _broken_steps(alg):
    """Two step lists for alg that fail the certificate: one step pointed at
    a row that does not end in its e_m, and one step dropped."""
    steps = list(alg.steps)
    m = monomial_index(3, 1, 1, 0)
    i = [st[0] for st in steps].index(m)
    misrouted = steps[:i] + [(m, 0, steps[0][2])] + steps[i + 1:]
    return {"misrouted": misrouted, "dropped": steps[:i] + steps[i + 1:]}


@pytest.mark.parametrize("case", ["misrouted", "dropped"])
def test_a_broken_certificate_enumerates(uq3, case):
    x, y = monomial_index(3, 1, 0, 0), monomial_index(3, 0, 1, 0)
    steps = _broken_steps(uq3.algebra)[case]
    broken = _copy(uq3.algebra, steps=steps)
    assert step_certificate(broken) == ()
    bare = _copy(uq3.algebra)
    assert solve_antipode(broken, uq3.coalgebra) == uq3.antipode
    # verify_hopf runs verify_algebra and the coaction check of H over itself
    _same_reports(verify_hopf, (_hopf_on(uq3, broken),),
                  (_hopf_on(uq3, bare),))
    # a corrupted product under the broken certificate is still caught
    mul = _scaled_row(uq3.algebra, x, y, uq3.field.from_rational(3))
    rep = _same_reports(verify_algebra, (_copy(uq3.algebra, mul, steps),),
                        (_copy(uq3.algebra, mul),))
    assert "algebra-associativity" in _failing(rep)


@pytest.mark.parametrize("steps", [((1, 0, 1), (2, 1, 1)), ((1, 0, 1),)],
                         ids=["misrouted", "dropped"])
def test_a_broken_certificate_fails_closed(f3, steps):
    # 1, a, b with a b = b and every other product of a and b zero: every
    # triple (x, y, a) holds, but (a a) b = 0 != a (a b) = b.  Neither step
    # list certifies b (row (a, a) is zero; no step names b), so the
    # generator a alone must not pass the table
    one = f3.one
    mul = {(0, j): ((j, one),) for j in range(3)}
    mul.update({(j, 0): ((j, one),) for j in range(3)})
    mul[(1, 2)] = ((2, one),)
    alg = FiniteAlgebra(f3, ["1", "a", "b"], mul, {0: one})
    alg.steps = steps
    assert step_certificate(alg) == ()
    rep = _same_reports(verify_algebra, (alg,), (_copy(alg),))
    assert _failing(rep)["algebra-associativity"] == {
        "examples": [{"tuple": ["a", "a", "b"], "lhs": "0",
                      "rhs": "(1)*b"}],
        "failing": 1, "checked": 27}
