"""The one check plan behind every verifier, and what sampled mode catches.

The verifiers check the plans they are given; `cli.check_plan`, called by
the `verify` suites only, turns `--mode`, `--sample-count` and `--seed`
into plans.  The pinned witnesses below were recorded before the verifiers
shared `check_plan`, so they fix the sampled streams: the same seed must
keep checking the same tuples.
"""

import ast
import collections
import inspect
import itertools
import random
import tracemalloc
from pathlib import Path

import pytest

from uqcomod import cli, comodzoo
from uqcomod.cli import check_plan, main
from uqcomod.comodzoo import build_family, zoo_params
from uqcomod.hopfcore import (
    ComoduleAlgebra,
    ConvForm,
    ExhaustivePlan,
    FiniteAlgebra,
    HopfAlgebraData,
    _planned,
    step_certificate,
    verify_algebra,
    verify_comodule_algebra,
    verify_hopf,
    verify_hopf_2cocycle,
)
from uqcomod.uqsl2 import (build_gr_uq, build_sigma, build_uq,
                           monomial_index, verify_dual_relations)

SRC = Path(__file__).resolve().parent.parent / "src" / "uqcomod"


def _generators(N):
    return (monomial_index(N, 1, 0, 0), monomial_index(N, 0, 1, 0),
            monomial_index(N, 0, 0, 1))


def _failures(rep):
    return {c.claim_id: c.witness for c in rep.failures()}


def test_exhaustive_plan_is_every_tuple_in_order():
    assert len(check_plan(4, 3, "exhaustive")) == 64
    plan = list(check_plan(4, 3, "exhaustive"))
    assert plan == sorted(plan) and len(set(plan)) == 64
    assert plan[:3] == [(0, 0, 0), (0, 0, 1), (0, 0, 2)]
    # sample count, seed and generators do not touch an exhaustive plan
    assert list(check_plan(4, 3, "exhaustive", 5, 9, (1, 2))) == plan


def test_exhaustive_plan_is_lazy_sized_and_reiterable():
    plan = check_plan(125, 3, "exhaustive")
    assert len(plan) == 125 ** 3
    assert next(itertools.islice(plan, 125 ** 2 + 7, None)) == (1, 0, 7)
    assert list(itertools.islice(plan, 3)) == [(0, 0, 0), (0, 0, 1),
                                               (0, 0, 2)]
    small = check_plan(5, 2, "exhaustive")
    assert list(small) == list(small) == sorted(small)
    # the plan that used to be a 1 953 125-tuple list, made and run through
    tracemalloc.start()
    try:
        plan = check_plan(125, 3, "exhaustive")
        tail = collections.deque(plan, maxlen=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(tail) == [(124, 124, 124)]
    assert peak < 1_000_000


def test_sampled_plan_puts_always_first_then_the_seeded_draws():
    plan = check_plan(10, 2, "sampled", 6, seed=3, always=(7, 2))
    assert plan[:4] == [(7, 7), (7, 2), (2, 7), (2, 2)]
    rng = random.Random(3)
    assert plan[4:] == [(rng.randrange(10), rng.randrange(10))
                        for _ in range(6)]
    assert check_plan(10, 2, "sampled", 6, seed=3, always=(7, 2)) == plan


def test_sampled_plan_without_always_is_only_draws():
    assert len(check_plan(10, 3, "sampled", 5, seed=1)) == 5
    assert check_plan(10, 1, "sampled", 0, always=(4,)) == [(4,)]


@pytest.mark.parametrize("mode", ["full", "", "Exhaustive", None])
def test_unknown_mode_raises(mode):
    with pytest.raises(ValueError, match="unknown check mode"):
        check_plan(3, 2, mode, 10)


def test_empty_sampled_plan_raises():
    # check_plan returns the empty list; the verifiers' entry check
    # refuses it, since a check over nothing would pass vacuously
    assert check_plan(3, 2, "sampled", 0) == []
    with pytest.raises(ValueError, match="at least one tuple"):
        _planned(check_plan(3, 2, "sampled", 0), 3, 2)


def _plan_slots(gr3, sigma3):
    """(verifier call on one plan, dim, arity) for each plan slot of each
    verifier, on passing data at N = 3."""
    A = build_family(zoo_params("L1", 3, r=3, xi=2))
    return [
        (lambda plan: verify_algebra(gr3.algebra, plan), 27, 3),
        (lambda plan: verify_hopf(gr3, triples=plan), 27, 3),
        (lambda plan: verify_hopf(gr3, pairs=plan), 27, 2),
        (lambda plan: verify_hopf_2cocycle(sigma3, plan), 27, 3),
        (lambda plan: verify_comodule_algebra(A, plan), A.dim, 2),
        (lambda plan: verify_dual_relations(3, plan), 27, 2),
    ]


def test_every_verifier_refuses_a_plan_that_does_not_fit(gr3, sigma3):
    # mode parsing lives in check_plan alone (test_unknown_mode_raises);
    # every verifier refuses a plan that would check the wrong tuples,
    # read another row's slot or pass vacuously
    for verify, dim, arity in _plan_slots(gr3, sigma3):
        refused = [
            (ExhaustivePlan(dim + 1, arity), "range"),
            (ExhaustivePlan(dim, arity + 1), "range"),
            (ExhaustivePlan(dim, arity, (dim,)), f"plan index {dim}"),
            (ExhaustivePlan(dim, arity, ()), "at least one tuple"),
            ([], "at least one tuple"),
            ([(0,) * (arity - 1)], "range"),
            ([(0,) * arity, (0,) * (arity + 1)], "range"),
            ([(0,) * (arity - 1) + (dim,)], f"plan index {dim}"),
            ([(-1,) + (0,) * (arity - 1)], "plan index -1"),
        ]
        for plan, message in refused:
            with pytest.raises(ValueError, match=message):
                verify(plan)
        with pytest.raises(TypeError, match="list of tuples"):
            verify(((0,) * arity,))
        # the same slot takes a fitting plan of either kind
        assert verify(ExhaustivePlan(dim, arity)).ok
        assert verify([(0,) * arity, (dim - 1,) * arity]).ok


def test_a_generator_plan_never_marks_a_table_proved(gr3):
    # alg.verified feeds the generator-tuple proofs: a caller's plan that
    # does not cover every triple must not record a verdict
    gens = step_certificate(gr3.algebra)
    alg = FiniteAlgebra(gr3.field, gr3.labels, gr3.algebra.mul,
                        dict(gr3.algebra.unit))
    alg.steps = gr3.algebra.steps
    for plan in (ExhaustivePlan(alg.dim, 3, gens),
                 check_plan(alg.dim, 3, "sampled", 20, 1, gens)):
        assert verify_algebra(alg, plan).ok
        assert alg.verified is None
    assert verify_algebra(alg, ExhaustivePlan(alg.dim, 3)).ok
    assert alg.verified is True


def test_a_corrupted_table_is_not_passed_in_full_mode(gr3):
    fld = gr3.field
    x, y, _ = _generators(3)
    mul = dict(gr3.algebra.mul)
    mul[(x, y)] = ((monomial_index(3, 1, 1, 0), fld.from_rational(2)),)
    bad = FiniteAlgebra(fld, gr3.labels, mul, dict(gr3.algebra.unit))
    assert not verify_algebra(bad).ok
    assert bad.verified is False
    assert not verify_algebra(bad, check_plan(27, 3, "exhaustive")).ok


def test_sampled_checks_with_zero_samples_raise(gr3, sigma3):
    for verify, dim, arity in _plan_slots(gr3, sigma3):
        with pytest.raises(ValueError, match="at least one tuple"):
            verify(check_plan(dim, arity, "sampled", 0))


def test_sampled_cocycle_check_sees_sigma_on_generators():
    N = 5
    gr = build_gr_uq(N)
    x, y, g = _generators(N)
    coords = dict(build_sigma(N).coords)
    coords[(x, y)] = coords[(x, y)] + gr.field.one
    bad = ConvForm(gr, 2, coords)
    plan = check_plan(gr.dim, 3, "sampled", 200, 0, (x, y, g))
    rep = verify_hopf_2cocycle(bad, plan)
    assert _failures(rep) == {"cocycle-identity": {
        "examples": [
            {"triple": ["x1y0g0", "x0y1g0", "x0y0g1"],
             "lhs": "2", "rhs": "1"},
            {"triple": ["x0y0g1", "x1y0g0", "x0y1g0"],
             "lhs": "1", "rhs": "2"},
        ],
        "failing": 2, "checked": 27 + 200}}
    # the uncorrupted cocycle passes the same plan
    assert verify_hopf_2cocycle(build_sigma(N), plan).ok


def test_sampled_hopf_witnesses_at_order_five():
    N = 5
    gr = build_gr_uq(N)
    fld = gr.field
    x, y, g = _generators(N)
    mul = dict(gr.algebra.mul)
    mul[(x, y)] = ((monomial_index(N, 1, 1, 0), fld.from_rational(2)),)
    bad = FiniteAlgebra(fld, gr.labels, mul, dict(gr.algebra.unit))
    H = HopfAlgebraData(bad, gr.coalgebra, gr.antipode, degrees=gr.degrees)
    # verify_hopf's old split: half the samples for the triples (seed
    # 11), the other half for the pairs (seed 12)
    rep = verify_hopf(H, check_plan(H.dim, 3, "sampled", 200, 11, (x, y, g)),
                      check_plan(H.dim, 2, "sampled", 200, 12, (x, y, g)))
    assert _failures(rep) == {
        "algebra-associativity": {
            "checked": 227,
            "examples": [
                {"lhs": "(1)*x2y1g0", "rhs": "(2)*x2y1g0",
                 "tuple": ["x1y0g0", "x1y0g0", "x0y1g0"]},
                {"lhs": "(2*q^3)*x2y1g0", "rhs": "(q^3)*x2y1g0",
                 "tuple": ["x1y0g0", "x0y1g0", "x1y0g0"]},
                {"lhs": "(2)*x1y2g0", "rhs": "(1)*x1y2g0",
                 "tuple": ["x1y0g0", "x0y1g0", "x0y1g0"]},
            ],
            "failing": 6},
        "bialgebra-multiplicativity": {
            "checked": 209,
            "examples": [["x1y0g0", "x0y1g0"], ["x2y1g2", "x1y2g2"],
                         ["x1y0g0", "x2y1g0"]],
            "failing": 4},
        "hopf-antipode": {
            "examples": [{"element": "x1y1g1", "expected": "0",
                          "m(S x id)Delta": "0",
                          "m(id x S)Delta": "(-1)*x1y1g0"}],
            "failing": 1},
    }


def test_sampled_coaction_witnesses_at_order_five():
    N = 5
    A = build_family(zoo_params("L1", N, r=N, xi=2))
    i_x = A.labels.index("X1G0")
    coaction = dict(A.coaction)
    coaction[i_x] = (((monomial_index(N, 0, 0, 1), i_x), A.field.one),)
    bad = ComoduleAlgebra(A.algebra, A.over, coaction, A.params)
    rep = verify_comodule_algebra(bad, check_plan(A.dim, 2, "sampled", 100,
                                                  17))
    assert _failures(rep) == {
        "comodule-coassociativity": {
            "elements": ["X2G0", "X3G0", "X4G0"], "failing": 3},
        "comodule-multiplicativity": {
            "checked": 100,
            "examples": [["X1G4", "X1G0"], ["X2G0", "X4G0"],
                         ["X0G4", "X1G1"]],
            "failing": 9},
    }


def _draws(dim, arity, count, seed, always=()):
    """A sampled plan written out: the tuples over always, then count
    tuples of random.Random(seed).randrange(dim)."""
    rng = random.Random(seed)
    return list(itertools.product(always, repeat=arity)) + [
        tuple(rng.randrange(dim) for _ in range(arity)) for _ in range(count)]


def test_each_suite_hands_over_its_pinned_plans(monkeypatch, tmp_path):
    # a passing report prints no tuple, so no golden shows the draws: the
    # plans are read off the verifiers' arguments
    calls = []

    def spy(module, name):
        verify = getattr(module, name)
        signature = inspect.signature(verify)

        def wrapper(*args, **kwargs):
            call = signature.bind(*args, **kwargs)
            calls.append((name, *call.arguments.values()))
            return verify(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("verify_hopf", "verify_hopf_2cocycle",
                 "verify_comodule_algebra"):
        spy(cli, name)
    spy(cli.uqsl2, "verify_dual_relations")
    assert main(["verify", "--N", "5", "--suites",
                 "hopf-axioms,cocycle,families", "--sample-count", "200",
                 "--seed", "1", "--output", str(tmp_path / "report")]) == 0

    gens = _generators(5)
    triples = _draws(125, 3, 100, 1, gens)
    pairs = _draws(125, 2, 100, 2, gens)
    members = [build(p) for p in cli._zoo_tuples(5, small=False)
               for build in (comodzoo.build_family, comodzoo.deform_family)]
    assert calls == [
        ("verify_hopf", build_gr_uq(5), triples, pairs),
        ("verify_dual_relations", 5, _draws(125, 2, 200, 1)),
        ("verify_hopf", build_uq(5), triples, pairs),
        ("verify_hopf_2cocycle", build_sigma(5), _draws(125, 3, 200, 1, gens)),
        *(("verify_comodule_algebra", A, _draws(A.dim, 2, 50, 1))
          for A in members),
    ]
    assert len(triples) == 27 + 100 and len(pairs) == 9 + 100
    # gr(u_q) and u_q share one plan per arity, and each member its plan
    # with its deformed twin
    assert calls[0][2] is calls[2][2] and calls[0][3] is calls[2][3]
    for plain, deformed in zip(calls[4::2], calls[5::2]):
        assert plain[2] is deformed[2]


_SAMPLING_PARAMETERS = {"mode", "sample_count", "seed", "always_indices"}


def test_sampling_lives_only_in_the_cli():
    # the verifiers take plans; only cli.py draws them
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.FunctionDef) \
                    and node.name.startswith("verify_"):
                args = node.args
                found += [f"{where} {node.name}({a.arg})" for a in
                          (*args.posonlyargs, *args.args, *args.kwonlyargs)
                          if a.arg in _SAMPLING_PARAMETERS]
            if path.name == "cli.py":
                continue
            if isinstance(node, ast.Call) and "check_plan" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                found.append(f"{where} calls check_plan")
            if isinstance(node, ast.Import) and any(
                    a.name.split(".")[0] == "random" for a in node.names):
                found.append(f"{where} imports random")
            if isinstance(node, ast.ImportFrom) \
                    and (node.module or "").split(".")[0] == "random":
                found.append(f"{where} imports from random")
    assert found == []
