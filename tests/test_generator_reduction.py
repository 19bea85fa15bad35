"""Exhaustive claims proved on generator tuples, with the enumeration as the
oracle.

When step_certificate holds, verify_algebra checks only the triples
(a, b, s) and _coaction_failures only the pairs (a, s), s a generator.  A
copy of a table with steps = () has no certificate, so every plan on it is
enumerated in full; the reports on a table and on its copy must be equal,
for passing and for corrupted data alike.
"""

import pytest

from uqcomod import cli
from uqcomod.comodzoo import build_family, deform_family, zoo_params
from uqcomod.hopfcore import (ComoduleAlgebra, ConvForm, FiniteAlgebra,
                              FiniteCoalgebra, HopfAlgebraData, solve_antipode,
                              step_certificate, verify_algebra,
                              verify_comodule_algebra, verify_hopf,
                              verify_hopf_2cocycle)
from uqcomod.uqsl2 import (build_gr_uq, build_sigma, build_uq,
                           monomial_index, uq_relation_report)


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
    verify_algebra(alg, mode="sampled", sample_count=20)
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
