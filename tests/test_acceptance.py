"""Acceptance battery: one test per headline criterion, runnable end to end.

Each test prints a single PASS line on success; a failing criterion fails
its test with the offending claims in the assertion message.  Seeds are
fixed so every run checks the identical sample.
"""

import random
from fractions import Fraction

from conftest import random_scalar

from uqcomod.comodzoo import (
    build_family,
    coefficient_coalgebra,
    conjugation_invariance_report,
    deform_family,
    diagonal_family_map,
    loewy_filtration,
    morita_equivalent_params,
    morita_invariant_d,
    semisimplicity_A4,
    verify_deformed_presentation,
    verify_family_presentation,
    verify_min_pol_lemma,
    zoo_params,
)
from uqcomod.cli import main
from uqcomod.cyclofield import field
from uqcomod.hopfcore import (
    ComoduleAlgebra,
    ConvForm,
    FiniteAlgebra,
    FiniteCoalgebra,
    HopfAlgebraData,
    check_comodule_algebra_morphism,
    coinvariants,
    convolution,
    verify_algebra,
    verify_comodule_algebra,
    verify_hopf,
    verify_hopf_2cocycle,
)
from uqcomod.polyid import (
    power_sum_P,
    verify_chebyshev_identity,
    verify_min_pol_formula_consistency,
)
from uqcomod.polyid import MultiPoly
from uqcomod.uqsl2 import (
    build_gr_uq,
    build_sigma,
    build_sigma_inverse,
    build_uq,
    monomial_index,
    sigma_closed_coords,
    uq_relation_report,
)


def _gen_indices(N):
    return (monomial_index(N, 1, 0, 0), monomial_index(N, 0, 1, 0),
            monomial_index(N, 0, 0, 1), monomial_index(N, 0, 0, N - 1))


def _failing(rep):
    return [c.claim_id for c in rep.failures()]


def test_criterion_01_hopf_axioms():
    for H in (build_gr_uq(3), build_uq(3)):
        rep = verify_hopf(H, mode="exhaustive")
        assert rep.ok, _failing(rep)
    for H in (build_gr_uq(5), build_uq(5)):
        rep = verify_hopf(H, mode="sampled", sample_count=10000, seed=11,
                          always_indices=_gen_indices(5))
        assert rep.ok, _failing(rep)
    print("ACCEPTANCE 01 hopf-axioms: PASS")


def test_criterion_02_cocycle():
    sigma = build_sigma(3)
    rep = verify_hopf_2cocycle(sigma, mode="exhaustive")
    assert rep.ok, _failing(rep)
    inv = build_sigma_inverse(3)
    unit = ConvForm.unit(sigma.hopf, 2)
    assert convolution(sigma, inv) == unit
    assert convolution(inv, sigma) == unit
    assert sigma.coords == sigma_closed_coords(3)
    for N in (5, 7):
        sN = build_sigma(N)
        rep = verify_hopf_2cocycle(sN, mode="sampled", sample_count=10000,
                                   seed=13 + N)
        assert rep.ok, (N, _failing(rep))
        inv = build_sigma_inverse(N)
        unit = ConvForm.unit(sN.hopf, 2)
        assert convolution(sN, inv) == unit, N
        assert convolution(inv, sN) == unit, N
        assert sN.coords == sigma_closed_coords(N), N
    print("ACCEPTANCE 02 cocycle: PASS")


def test_criterion_03_deformation_relations():
    for N in (3, 5):
        uq = build_uq(N)
        assert uq.algebra.dim == N ** 3
        rep = uq_relation_report(N, uq)
        assert rep.ok, (N, _failing(rep))
    rep = uq_relation_report(7)
    assert rep.ok, (7, _failing(rep))
    assert build_gr_uq(7).dim == 7 ** 3
    print("ACCEPTANCE 03 deformation-relations: PASS")


def seeded_family_tuples(N, rng):
    """Parameter tuples covering every family, coefficients drawn from rng."""
    fld = field(N)
    rnd = lambda: random_scalar(fld, rng, span=2)
    tuples = [
        zoo_params("L0", N, r=1),
        zoo_params("L0", N, r=N),
        zoo_params("L1", N, r=N, xi=rnd()),
        zoo_params("L1", N, r=1, xi=rnd()),
        zoo_params("L2", N, r=N, zeta=rnd()),
        zoo_params("L3", N, r=1, xi=rnd(), zeta=rnd()),
        zoo_params("L3N", N, xi=rnd(), zeta=rnd(), eta=rnd()),
        zoo_params("L3N", N, xi=0, zeta=0, eta=0),
        zoo_params("L4", N, alpha=fld.one + rnd() * fld.q, beta=rnd(),
                   xi=rnd()),
        zoo_params("L4", N, alpha=1, beta=0, xi=rnd()),
    ]
    return tuples


def test_criterion_04_family_presentations():
    rng = random.Random(41)
    tuples3 = seeded_family_tuples(3, rng)
    assert len(tuples3) >= 10
    seen_claims = set()
    for p in tuples3:
        A = build_family(p)
        rep = verify_comodule_algebra(A, mode="exhaustive")
        assert rep.ok, (p.label(), _failing(rep))
        rep = verify_family_presentation(p)
        assert rep.ok, (p.label(), _failing(rep))
        D = deform_family(p)
        rep = verify_comodule_algebra(D, mode="exhaustive")
        assert rep.ok, (p.label(), _failing(rep))
        rep = verify_deformed_presentation(p)
        assert rep.ok, (p.label(), _failing(rep))
        seen_claims.update(c.claim_id for c in rep.checks)
    # the two relations called out by name must have been checked
    assert "L3N-deformed-XY-commutation" in seen_claims
    assert "L4-deformed-phi-of-W" in seen_claims

    fld5 = field(5)
    tuples5 = [
        zoo_params("L1", 5, r=5, xi=random_scalar(fld5, rng, span=2)),
        zoo_params("L3N", 5, xi=1, zeta=2, eta="q"),
        zoo_params("L4", 5, alpha=1, beta=random_scalar(fld5, rng, span=2),
                   xi=random_scalar(fld5, rng, span=2)),
    ]
    for p in tuples5:
        A, D = build_family(p), deform_family(p)
        mode = "exhaustive" if A.dim <= 27 else "sampled"
        for inst in (A, D):
            rep = verify_comodule_algebra(inst, mode=mode,
                                          sample_count=10000, seed=17)
            assert rep.ok, (p.label(), _failing(rep))
        rep = verify_deformed_presentation(p)
        assert rep.ok, (p.label(), _failing(rep))
    print("ACCEPTANCE 04 family-presentations: PASS")


def minpol_triples(N, rng, count):
    """Seeded (alpha, beta, gamma) including alpha*beta = 0 cases and
    points where the formula polynomial acquires multiple roots."""
    fld = field(N)
    one = fld.one
    triples = [
        # u = v on the two-parameter chart forces a repeated root
        (one, one - fld.q_power(2), fld.from_rational(2)),
        (fld.q, fld.q * (one - fld.q_power(2)), fld.q_power(1) * 2),
        # degenerate products
        (fld.zero, one + fld.q, one),
        (one, fld.zero, fld.q),
        (fld.zero, fld.zero, one + fld.q),
    ]
    while len(triples) < count:
        a = random_scalar(fld, rng, span=2)
        b = random_scalar(fld, rng, span=2)
        c = random_scalar(fld, rng, span=2)
        if a.is_zero() and b.is_zero() and c.is_zero():
            continue
        triples.append((a, b, c))
    return triples


def test_criterion_05_minimal_polynomial():
    rng = random.Random(43)
    for a, b, c in minpol_triples(3, rng, 20):
        rep = verify_min_pol_lemma(3, a, b, c)
        assert rep.ok, (str(a), str(b), str(c), _failing(rep))
    for a, b, c in minpol_triples(5, rng, 5):
        rep = verify_min_pol_lemma(5, a, b, c)
        assert rep.ok, (str(a), str(b), str(c), _failing(rep))
    print("ACCEPTANCE 05 minimal-polynomial: PASS")


def test_criterion_06_polynomial_identities():
    for n in range(2, 8):
        assert verify_chebyshev_identity(n), n
    fld = field(1)
    names = ("u", "v")
    u = MultiPoly.variable(fld, names, "u")
    v = MultiPoly.variable(fld, names, "v")
    for n in range(1, 12):
        assert power_sum_P(n, u + v, u * v) == u ** n + v ** n, n
    assert verify_min_pol_formula_consistency(3)
    assert verify_min_pol_formula_consistency(5)
    print("ACCEPTANCE 06 polynomial-identities: PASS")


def test_criterion_07_morita_layer():
    # d-invariant: every tabulated value, plain and deformed
    for N in (3, 5):
        divisors = [d for d in range(1, N + 1) if N % d == 0]
        for r in divisors:
            assert morita_invariant_d(
                build_family(zoo_params("L0", N, r=r))) == (Fraction(1), r)
        assert morita_invariant_d(build_family(
            zoo_params("L1", N, r=N, xi=2))) == (Fraction(N), N)
        assert morita_invariant_d(build_family(
            zoo_params("L2", N, r=N, zeta=1))) == (Fraction(N), N)
        assert morita_invariant_d(build_family(
            zoo_params("L3", N, r=1, xi=1, zeta=1))) == (Fraction(N * N), 1)
        assert morita_invariant_d(build_family(
            zoo_params("L3N", N, xi=1, zeta=2, eta="q"))) \
            == (Fraction(N * N), N)
        assert morita_invariant_d(build_family(
            zoo_params("L4", N, alpha=1, beta=1, xi=2))) == (Fraction(N), 1)

    # coefficient coalgebra separates the two N*r families
    N = 3
    fld = field(N)
    C1 = coefficient_coalgebra(build_family(zoo_params("L1", N, r=N, xi=2)))
    C2 = coefficient_coalgebra(build_family(zoo_params("L2", N, r=N, zeta=1)))
    x = {monomial_index(N, 1, 0, 0): fld.one}
    assert C1.contains(x) and not C2.contains(x)

    # every stated isomorphism verifies as a bijective morphism
    maps_checked = 0
    eta = fld.q
    src = zoo_params("L3N", N, xi=1, zeta=2, eta=eta * fld.q_power(2))
    dst = zoo_params("L3N", N, xi=1, zeta=2, eta=eta)
    lam = fld.from_rational(2)
    l4src = zoo_params("L4", N, alpha=2, beta=2, xi=lam ** N)
    l4dst = zoo_params("L4", N, alpha=1, beta=1, xi=1)
    for deformed in (False, True):
        images, A, B = diagonal_family_map(src, dst, g_scale=fld.q_power(1),
                                           deformed=deformed)
        rep = check_comodule_algebra_morphism(images, A, B)
        assert rep.ok, ("eta-rotation", deformed, _failing(rep))
        maps_checked += 1
        images, A, B = diagonal_family_map(l4src, l4dst, w_scale=lam,
                                           deformed=deformed)
        rep = check_comodule_algebra_morphism(images, A, B)
        assert rep.ok, ("l4-rescale", deformed, _failing(rep))
        maps_checked += 1
        for fold_src, fold_dst in (
                (zoo_params("L1", N, r=1, xi=2),
                 zoo_params("L4", N, alpha=1, beta=0, xi=2)),
                (zoo_params("L3", N, r=N, xi=1, zeta=2),
                 zoo_params("L3N", N, xi=1, zeta=2, eta=0))):
            build = deform_family if deformed else build_family
            A, B = build(fold_src), build(fold_dst)
            rep = check_comodule_algebra_morphism(
                [{i: fld.one} for i in range(A.dim)], A, B)
            assert rep.ok, ("fold", fold_src.label(), deformed,
                            _failing(rep))
            maps_checked += 1
        for p in (zoo_params("L4", N, alpha=1, beta=1, xi=3),
                  zoo_params("L3N", N, xi=1, zeta=2, eta=eta)):
            for power in (1, 2):
                rep = conjugation_invariance_report(p, power,
                                                    deformed=deformed)
                assert rep.ok, ("conjugation", p.label(), power, deformed,
                                _failing(rep))
                maps_checked += 1
    assert maps_checked == 16

    # 50-case truth table with hand-derived expectations
    table = morita_truth_table(N, random.Random(47))
    assert len(table) == 50
    for p1, p2, want, why in table:
        got = morita_equivalent_params(p1, p2)
        sym = morita_equivalent_params(p2, p1)
        assert got == want and sym == want, (why, p1.label(), p2.label(),
                                             got, sym, want)
    print("ACCEPTANCE 07 morita-layer: PASS")


def morita_truth_table(N, rng):
    """50 parameter pairs with independently derived verdicts.

    The expected answers come from the identification rules worked out by
    hand (eliminating the free scale and the free grouplike power), not
    from the decision procedure under test.
    """
    fld = field(N)
    rnd = lambda: random_scalar(fld, rng, span=2)

    def nonzero():
        while True:
            v = rnd()
            if not v.is_zero():
                return v

    cases = []

    def add(p1, p2, want, why):
        cases.append((p1, p2, want, why))

    while len(cases) < 50:
        k = rng.randrange(1, N)
        lam_rat = rng.choice([2, 3, -2, Fraction(1, 2)])
        lam = fld.from_rational(lam_rat)
        kind = len(cases) % 10
        if kind == 0:
            add(zoo_params("L0", N, r=1), zoo_params("L0", N, r=N), False,
                "different socle count")
            continue
        if kind == 1:
            xi = rnd()
            add(zoo_params("L1", N, r=N, xi=xi),
                zoo_params("L1", N, r=N, xi=xi), True, "equal parameters")
            continue
        if kind == 2:
            xi = rnd()
            add(zoo_params("L1", N, r=N, xi=xi),
                zoo_params("L1", N, r=N, xi=xi + fld.one), False,
                "xi is a rigid parameter")
            continue
        if kind == 3:
            add(zoo_params("L1", N, r=N, xi=rnd()),
                zoo_params("L2", N, r=N, zeta=rnd()), False,
                "coefficient coalgebras differ")
            continue
        if kind == 4:
            eta = nonzero()
            add(zoo_params("L3N", N, xi=1, zeta=2, eta=eta),
                zoo_params("L3N", N, xi=1, zeta=2,
                           eta=eta * fld.q_power(2 * k)),
                True, "eta moves on the grouplike-power orbit")
            continue
        if kind == 5:
            eta = fld.one
            # 2 eta is not q^{2k} eta: a rational scale is never a root
            # of unity other than 1
            add(zoo_params("L3N", N, xi=1, zeta=2, eta=eta),
                zoo_params("L3N", N, xi=1, zeta=2, eta=eta * 2), False,
                "eta orbit is the q-power orbit only")
            continue
        if kind == 6:
            xi, zeta = rnd(), rnd()
            add(zoo_params("L3", N, r=N, xi=xi, zeta=zeta),
                zoo_params("L3N", N, xi=xi, zeta=zeta, eta=0), True,
                "top-r member folds into the eta = 0 slice")
            continue
        if kind == 7:
            al, bt = nonzero(), rnd()
            xi = rnd()
            p1 = zoo_params("L4", N, alpha=al, beta=bt, xi=xi)
            p2 = zoo_params("L4", N,
                            alpha=al * lam * fld.q_power(2 * k),
                            beta=bt * lam * fld.q_power(-2 * k),
                            xi=xi * lam ** N)
            add(p1, p2, True, "rescale by lam with grouplike power k")
            continue
        if kind == 8:
            al, bt = nonzero(), nonzero()
            xi = rnd()
            # same alpha, beta forces lam*q^{2k} = lam*q^{-2k} = 1, so
            # k = 0 and lam = 1 (odd N); a changed xi is then inequivalent
            add(zoo_params("L4", N, alpha=al, beta=bt, xi=xi),
                zoo_params("L4", N, alpha=al, beta=bt, xi=xi + fld.one),
                False, "xi change with alpha, beta pinned")
            continue
        add(zoo_params("L4", N, alpha=nonzero(), beta=0, xi=rnd()),
            zoo_params("L4", N, alpha=0, beta=nonzero(), xi=rnd()), False,
            "one-sided members of opposite chirality")
    return cases


def semisimplicity_points(N, rng, count):
    """(params, expected) pairs on the two-parameter chart; the expectation
    comes from the root pattern mu_k = u q^{2k} + v q^{-2k}: a repeated
    root happens exactly when u/v is an even q-power (or u = v = 0)."""
    from uqcomod.comodzoo import l4_params_from_uv
    fld = field(N)
    pts = []
    while len(pts) < count:
        style = len(pts) % 4
        if style == 0:
            u = random_scalar(fld, rng, span=2)
            if u.is_zero():
                continue
            pts.append((l4_params_from_uv(N, u, u), False))
        elif style == 1:
            v = random_scalar(fld, rng, span=2)
            if v.is_zero():
                continue
            pts.append((l4_params_from_uv(N, v * fld.q_power(2 * rng.randrange(1, N)), v),
                        False))
        elif style == 2:
            u = random_scalar(fld, rng, span=2)
            if u.is_zero():
                continue
            pts.append((l4_params_from_uv(N, u, 0), True))
        else:
            v = random_scalar(fld, rng, span=2)
            if v.is_zero():
                continue
            c = rng.choice([2, 3, -2])
            pts.append((l4_params_from_uv(N, v * c, v), True))
    return pts


def test_criterion_08_semisimplicity_boundary():
    rng = random.Random(53)
    for N in (3, 5):
        count = 20 if N == 3 else 8
        pts = semisimplicity_points(N, rng, count)
        assert sum(1 for _, e in pts if e) >= 4
        assert sum(1 for _, e in pts if not e) >= 4
        for p, expected in pts:
            got = semisimplicity_A4(p)
            assert got["semisimple"] == expected, (p.label(), got)
            assert got["squarefree"] == got["criterion_nonzero"]
    print("ACCEPTANCE 08 semisimplicity-boundary: PASS")


def test_criterion_09_filtration():
    rng = random.Random(59)
    for p in seeded_family_tuples(3, rng):
        A, D = build_family(p), deform_family(p)
        FA, FD = loewy_filtration(A), loewy_filtration(D)
        assert FA.dims == FD.dims, p.label()
        assert FA.dims[-1] == A.dim and FD.dims[-1] == D.dim, p.label()
        assert coinvariants(A).dim == 1, p.label()
        assert coinvariants(D).dim == 1, p.label()
    print("ACCEPTANCE 09 filtration: PASS")


def _injected_failures():
    """The corruptions of test_criterion_10, each checked by its verifier:
    {label: the failing claims as dicts, witnesses included}."""
    out = {}

    def failing(rep):
        return [c.as_dict() for c in rep.failures()]

    gr = build_gr_uq(3)
    fld = gr.field
    x = monomial_index(3, 1, 0, 0)
    y = monomial_index(3, 0, 1, 0)
    g = monomial_index(3, 0, 0, 1)
    xy = monomial_index(3, 1, 1, 0)

    # 1. multiplication: rescale x*y, breaking associativity
    mul = dict(gr.algebra.mul)
    mul[(x, y)] = ((xy, fld.from_rational(2)),)
    bad = FiniteAlgebra(fld, gr.labels, mul, dict(gr.algebra.unit))
    out["multiplication-entry"] = failing(verify_algebra(bad))

    # 2. comultiplication: wrong grouplike leg on Delta(x)
    comul = dict(gr.coalgebra.comul)
    comul[x] = ((x, monomial_index(3, 0, 0, 0), fld.one), (g, x, fld.one))
    co = FiniteCoalgebra(fld, gr.labels, comul, dict(gr.coalgebra.counit))
    out["comultiplication-leg"] = failing(verify_hopf(HopfAlgebraData(
        gr.algebra, co, gr.antipode, degrees=gr.degrees)))

    # 3. antipode: drop the sign of S(x)
    antipode = {i: dict(m) for i, m in gr.antipode.items()}
    antipode[x] = {k: -c for k, c in antipode[x].items()}
    out["antipode-sign"] = failing(verify_hopf(HopfAlgebraData(
        gr.algebra, gr.coalgebra, antipode, degrees=gr.degrees)))

    # 4. cocycle: corrupt one sigma coordinate
    sigma = build_sigma(3)
    coords = dict(sigma.coords)
    coords[(x, y)] = coords[(x, y)] + fld.one
    out["cocycle-coordinate"] = failing(
        verify_hopf_2cocycle(ConvForm(gr, 2, coords)))

    # 5. coaction: misroute the H-leg of a family generator
    A = build_family(zoo_params("L1", 3, r=3, xi=2))
    coaction = dict(A.coaction)
    i_x = 3  # basis X^1 G^0: exponent order is (a, b, c) with r = 3
    assert A.labels[i_x] == "X1G0"
    coaction[i_x] = (((monomial_index(3, 0, 0, 1), i_x), fld.one),)
    bad = ComoduleAlgebra(A.algebra, A.over, coaction, A.params)
    out["coaction-leg"] = failing(verify_comodule_algebra(bad))

    # 6. deformed table: scale one product of the deformed algebra
    uq = build_uq(3)
    mul = dict(uq.algebra.mul)
    k, c0 = mul[(x, y)][0]
    mul[(x, y)] = ((k, c0 * 3),) + tuple(mul[(x, y)][1:])
    bad = FiniteAlgebra(fld, uq.labels, mul, dict(uq.algebra.unit))
    out["deformed-product"] = failing(uq_relation_report(
        3, HopfAlgebraData(bad, uq.coalgebra, uq.antipode)))

    # 7. shared coaction side: the deformed L1 rebuilt on a fresh coaction
    # dict whose delta(X) has the grouplike leg g where g^-1 belongs; the
    # plain twin, whose side the deformed member shares, still passes
    p = zoo_params("L1", 3, r=3, xi=2)
    D = deform_family(p)
    g_inv = monomial_index(3, 0, 0, 2)
    coaction = dict(D.coaction)
    coaction[i_x] = tuple(((g if h == g_inv else h, a), c)
                          for (h, a), c in coaction[i_x])
    assert coaction[i_x] != D.coaction[i_x]
    bad = ComoduleAlgebra(D.algebra, D.over, coaction, D.params)
    out["deformed-coaction-leg"] = failing(verify_comodule_algebra(bad))
    assert verify_comodule_algebra(build_family(p)).ok

    # 8. cocycle unitality: sigma(x, 1) = 1, where eps(x) = 0
    out["cocycle-unit"] = failing(verify_hopf_2cocycle(_non_unital_sigma()))
    return out


def _non_unital_sigma():
    """build_sigma(3) with sigma(x, 1) = 1."""
    sigma = build_sigma(3)
    coords = dict(sigma.coords)
    coords[(monomial_index(3, 1, 0, 0), monomial_index(3, 0, 0, 0))] = \
        sigma.hopf.field.one
    return ConvForm(sigma.hopf, 2, coords)


def _unital_reference(sigma):
    """The cocycle-unital witness of sigma, sigma(e_i, 1) and
    sigma(1, e_i) evaluated by ConvForm.eval_vecs."""
    alg, counit = sigma.hopf.algebra, sigma.hopf.coalgebra.counit
    one, zero = alg.unit_vec(), alg.field.zero
    bad = [alg.labels[i] for i in range(alg.dim)
           if sigma.eval_vecs(alg.basis_vec(i), one) != counit.get(i, zero)
           or sigma.eval_vecs(one, alg.basis_vec(i)) != counit.get(i, zero)]
    return {"elements": bad[:5], "failing": len(bad)} if bad else None


def test_criterion_10_mutation_sensitivity():
    failures = _injected_failures()
    caught = []
    for label, fails in failures.items():
        assert fails and any(c["witness"] for c in fails), label
        caught.append(label)
    assert any("antipode" in c["claim_id"]
               for c in failures["antipode-sign"])
    assert "comodule-coassociativity" in {
        c["claim_id"] for c in failures["deformed-coaction-leg"]}
    unital = {c["claim_id"]: c["witness"]
              for c in failures["cocycle-unit"]}["cocycle-unital"]
    assert unital == {"elements": ["x1y0g0"], "failing": 1}
    assert unital == _unital_reference(_non_unital_sigma())

    assert len(caught) >= 5
    print("ACCEPTANCE 10 mutation-sensitivity: PASS "
          f"({len(caught)} corruptions caught)")


def test_corruptions_fail_alike_after_a_clean_verify(capsys):
    # every check kernel shares one value index per field for the whole
    # process; a clean default run in between must not change a verdict or
    # a witness of the corruptions
    before = _injected_failures()
    assert main(["verify", "--N", "3", "--format", "json"]) == 0
    capsys.readouterr()
    assert _injected_failures() == before
