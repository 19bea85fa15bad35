"""The one check plan behind every verifier, and what sampled mode catches.

The pinned witnesses below were recorded before the verifiers shared
`check_plan`, so they fix the sampled streams: the same seed must keep
checking the same tuples.
"""

import collections
import itertools
import random
import tracemalloc

import pytest

from uqcomod.comodzoo import build_family, zoo_params
from uqcomod.hopfcore import (
    ComoduleAlgebra,
    ConvForm,
    FiniteAlgebra,
    HopfAlgebraData,
    check_plan,
    verify_algebra,
    verify_comodule_algebra,
    verify_hopf,
    verify_hopf_2cocycle,
)
from uqcomod.uqsl2 import (build_gr_uq, build_sigma, monomial_index,
                           verify_dual_relations)


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
    with pytest.raises(ValueError, match="at least one tuple"):
        check_plan(3, 2, "sampled", 0)


def test_every_verifier_rejects_an_unknown_mode(gr3, sigma3):
    A = build_family(zoo_params("L1", 3, r=3, xi=2))
    calls = [
        lambda: verify_algebra(gr3.algebra, mode="full"),
        lambda: verify_hopf(gr3, mode="full"),
        lambda: verify_hopf_2cocycle(sigma3, mode="full"),
        lambda: verify_comodule_algebra(A, mode="full"),
        lambda: verify_dual_relations(3, mode="full"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="unknown check mode"):
            call()


def test_a_corrupted_table_is_not_passed_in_full_mode(gr3):
    fld = gr3.field
    x, y, _ = _generators(3)
    mul = dict(gr3.algebra.mul)
    mul[(x, y)] = ((monomial_index(3, 1, 1, 0), fld.from_rational(2)),)
    bad = FiniteAlgebra(fld, gr3.labels, mul, dict(gr3.algebra.unit))
    with pytest.raises(ValueError):
        verify_algebra(bad, mode="full")
    assert not verify_algebra(bad, mode="exhaustive").ok


def test_sampled_checks_with_zero_samples_raise(gr3, sigma3):
    with pytest.raises(ValueError, match="at least one tuple"):
        verify_hopf_2cocycle(sigma3, mode="sampled", sample_count=0)
    with pytest.raises(ValueError, match="at least one tuple"):
        verify_algebra(gr3.algebra, mode="sampled", sample_count=0)


def test_sampled_cocycle_check_sees_sigma_on_generators():
    N = 5
    gr = build_gr_uq(N)
    x, y, g = _generators(N)
    coords = dict(build_sigma(N).coords)
    coords[(x, y)] = coords[(x, y)] + gr.field.one
    bad = ConvForm(gr, 2, coords)
    rep = verify_hopf_2cocycle(bad, mode="sampled", sample_count=200,
                               seed=0, always_indices=(x, y, g))
    assert _failures(rep) == {"cocycle-identity": {
        "examples": [
            {"triple": ["x1y0g0", "x0y1g0", "x0y0g1"],
             "lhs": "2", "rhs": "1"},
            {"triple": ["x0y0g1", "x1y0g0", "x0y1g0"],
             "lhs": "1", "rhs": "2"},
        ],
        "failing": 2, "checked": 27 + 200}}
    # the uncorrupted cocycle passes the same plan
    assert verify_hopf_2cocycle(build_sigma(N), mode="sampled",
                                sample_count=200, seed=0,
                                always_indices=(x, y, g)).ok


def test_sampled_hopf_witnesses_at_order_five():
    N = 5
    gr = build_gr_uq(N)
    fld = gr.field
    x, y, g = _generators(N)
    mul = dict(gr.algebra.mul)
    mul[(x, y)] = ((monomial_index(N, 1, 1, 0), fld.from_rational(2)),)
    bad = FiniteAlgebra(fld, gr.labels, mul, dict(gr.algebra.unit))
    H = HopfAlgebraData(bad, gr.coalgebra, gr.antipode, degrees=gr.degrees)
    rep = verify_hopf(H, mode="sampled", sample_count=400, seed=11,
                      always_indices=(x, y, g))
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
    rep = verify_comodule_algebra(bad, mode="sampled", sample_count=100,
                                  seed=17)
    assert _failures(rep) == {
        "comodule-coassociativity": {
            "elements": ["X2G0", "X3G0", "X4G0"], "failing": 3},
        "comodule-multiplicativity": {
            "checked": 100,
            "examples": [["X1G4", "X1G0"], ["X2G0", "X4G0"],
                         ["X0G4", "X1G1"]],
            "failing": 9},
    }
