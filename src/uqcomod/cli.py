"""Command line front end.

Subcommands:
  verify    run verification suites at a chosen order N
  classify  print the machine-readable description of the comodule zoo
  minpoly   minimal polynomial of alpha Et + beta F + gamma K^{-1} in u_q
  export    dump an algebra, cocycle or family as exact JSON

Exit codes: 0 all checks passed, 1 some check failed, 2 bad arguments.
Reports are byte-identical across runs unless --timings is given.
"""

import argparse
import itertools
import json
import os
import random
import sys
import time
from functools import cache

from .cyclofield import field
from .exactlinalg import Poly, minimal_polynomial_of_element
from .hopfcore import (
    ConvForm,
    ExhaustivePlan,
    check_comodule_algebra_morphism,
    coinvariants,
    comodule_to_json,
    direct_sum_comodule_algebras,
    form_to_json,
    hopf_to_json,
    verify_comodule_algebra,
    verify_hopf,
    verify_hopf_2cocycle,
)
from .reporting import VerificationReport
from . import comodzoo, polyid, uqsl2


def _zoo_tuples(N, small):
    """Default parameter tuples exercised by the family suites."""
    fld = field(N)
    tuples = [
        comodzoo.zoo_params("L1", N, r=N, xi=2),
        comodzoo.zoo_params("L3N", N, xi=1, zeta=2, eta=fld.q),
        comodzoo.zoo_params("L4", N, alpha=1, beta=1, xi=2),
    ]
    if small:
        tuples += [
            comodzoo.zoo_params("L0", N, r=1),
            comodzoo.zoo_params("L0", N, r=N),
            comodzoo.zoo_params("L1", N, r=1, xi=fld.q),
            comodzoo.zoo_params("L2", N, r=N, zeta=-1),
            comodzoo.zoo_params("L3", N, r=1, xi=1, zeta=1),
            comodzoo.zoo_params("L3", N, r=N, xi=2, zeta=fld.q),
            comodzoo.zoo_params("L3N", N, xi=0, zeta=0, eta=fld.one),
        ]
    return tuples


def check_plan(dim, arity, mode, sample_count=0, seed=0, always=()):
    """The index tuples a suite hands to a verifier: for "exhaustive" every
    tuple over range(dim), made lazily (ExhaustivePlan); for "sampled" a
    list of every tuple over `always`, then `sample_count` tuples drawn from
    random.Random(seed).  An unknown mode raises ValueError; a verifier
    refuses an empty list (hopfcore._planned)."""
    if mode == "exhaustive":
        return ExhaustivePlan(dim, arity)
    if mode != "sampled":
        raise ValueError(
            f"unknown check mode {mode!r}; use 'exhaustive' or 'sampled'")
    rng = random.Random(seed)
    return list(itertools.product(always, repeat=arity)) + [
        tuple(rng.randrange(dim) for _ in range(arity))
        for _ in range(sample_count)]


def _gr_generators(N):
    """x, y and g as basis indices, the lead of gr(u_q)'s sampled plans."""
    return [uqsl2.monomial_index(N, *e)
            for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]


def suite_hopf_axioms(N, mode, sample_count, seed) -> VerificationReport:
    # gr(u_q) and u_q share one basis, so one plan per arity: half the
    # samples for associativity, the other half (seed + 1) for the pairs
    gens, dim, half = _gr_generators(N), N ** 3, sample_count // 2
    triples = check_plan(dim, 3, mode, half, seed, gens)
    pairs = check_plan(dim, 2, mode, sample_count - half, seed + 1, gens)
    rep = verify_hopf(uqsl2.build_gr_uq(N), triples, pairs)
    rep.extend(uqsl2.closed_comultiplication_report(N))
    rep.extend(uqsl2.verify_dual_relations(
        N, check_plan(dim, 2, mode, sample_count, seed)))
    rep.extend(verify_hopf(uqsl2.build_uq(N), triples, pairs))
    return rep


def suite_cocycle(N, mode, sample_count, seed) -> VerificationReport:
    sigma = uqsl2.build_sigma(N)
    rep = verify_hopf_2cocycle(sigma, check_plan(
        sigma.hopf.dim, 3, mode, sample_count, seed, _gr_generators(N)))
    closed = uqsl2.sigma_closed_coords(N)
    rep.add("sigma-closed-coordinates", "cocycle-exponential-form",
            sigma.coords == closed, None)
    inv = uqsl2.build_sigma_inverse(N)
    unit = ConvForm.unit(sigma.hopf, 2)
    rep.add("sigma-inverse-left", "cocycle-inverse", (inv * sigma) == unit,
            None)
    rep.add("sigma-inverse-right", "cocycle-inverse", (sigma * inv) == unit,
            None)
    return rep


def suite_deformation(N, mode, sample_count, seed) -> VerificationReport:
    return uqsl2.uq_relation_report(N)


def suite_families(N, mode, sample_count, seed) -> VerificationReport:
    rep = VerificationReport({"suite": "families"})
    for p in _zoo_tuples(N, small=N == 3):
        rep.extend(comodzoo.verify_family_presentation(p))
        rep.extend(comodzoo.verify_deformed_presentation(p))
        # one plan, of at least one pair, for a member and its deformed twin
        A = comodzoo.build_family(p)
        pairs = check_plan(A.dim, 2, mode, max(sample_count // 4, 1), seed)
        rep.extend(verify_comodule_algebra(A, pairs))
        rep.extend(verify_comodule_algebra(comodzoo.deform_family(p), pairs))
    return rep


def suite_minpoly(N, mode, sample_count, seed) -> VerificationReport:
    fld = field(N)
    rep = VerificationReport({"suite": "minpoly"})
    triples = [(1, 1, 0), (1, 2, 3), (0, 1, 1), (1, 0, 2), (0, 0, 2),
               (0, 0, 0), (fld.q, 1, fld.q_power(2))]
    for a, b, g in triples:
        rep.extend(comodzoo.verify_min_pol_lemma(N, a, b, g))
    rep.extend(comodzoo.embed_A4_into_uq(N, u=1, v=2))
    rep.extend(comodzoo.embed_A4_into_uq(N, u=fld.q, v=0))
    rep.extend(comodzoo.one_dim_reps_A4(N, u=1, v=2))
    rep.extend(comodzoo.one_dim_reps_A4(N, u=1, v=1))
    generic = comodzoo.semisimplicity_A4(
        comodzoo.zoo_params("L4", N, alpha=1, beta=1, xi=3))
    w2 = fld.one - fld.q_power(2)  # beta for the boundary chart point u=v=1
    bound = comodzoo.semisimplicity_A4(
        comodzoo.zoo_params("L4", N, alpha=1, beta=w2, xi=2))
    rep.add("semisimple-generic-point", "semisimplicity-criterion",
            generic["semisimple"], generic)
    rep.add("semisimple-boundary-point", "semisimplicity-criterion",
            not bound["semisimple"], bound)
    return rep


def suite_chebyshev(N, mode, sample_count, seed) -> VerificationReport:
    rep = VerificationReport({"suite": "chebyshev"})
    for n in range(2, 8):
        rep.add(f"product-identity-omega-q-{n}", "root-product-identity",
                polyid.verify_chebyshev_identity(n), None)
    rep.add(f"product-identity-omega-q2-{N}", "root-product-identity",
            polyid.verify_min_pol_formula_consistency(N), None)
    fld0 = field(1)
    names = ("u", "v")
    u = Poly.variable(fld0, names, "u")
    v = Poly.variable(fld0, names, "v")
    for n in range(1, 12):
        lhs = polyid.power_sum_P(n, u + v, u * v)
        rep.add(f"power-sum-{n}", "power-sum-recursion",
                lhs == u ** n + v ** n, None)
    return rep


def suite_morita(N, mode, sample_count, seed) -> VerificationReport:
    fld = field(N)
    rep = VerificationReport({"suite": "morita"})
    zp = comodzoo.zoo_params
    eta = fld.q
    lam = fld.from_rational(2)
    cases = [
        ("L0-r", zp("L0", N, r=1), zp("L0", N, r=N), False),
        ("L0-same", zp("L0", N, r=N), zp("L0", N, r=N), True),
        ("L1-xi", zp("L1", N, r=N, xi=1), zp("L1", N, r=N, xi=2), False),
        ("L1-same", zp("L1", N, r=N, xi=1), zp("L1", N, r=N, xi=1), True),
        ("L1-vs-L2", zp("L1", N, r=N, xi=1), zp("L2", N, r=N, zeta=1), False),
        ("L3N-eta-rotation", zp("L3N", N, xi=1, zeta=2, eta=eta),
         zp("L3N", N, xi=1, zeta=2, eta=eta * fld.q_power(2)), True),
        ("L3N-eta-scale", zp("L3N", N, xi=1, zeta=2, eta=fld.one),
         zp("L3N", N, xi=1, zeta=2, eta=fld.from_rational(2)), False),
        ("L3-fold", zp("L3", N, r=N, xi=1, zeta=2),
         zp("L3N", N, xi=1, zeta=2, eta=0), True),
        ("L1-fold", zp("L1", N, r=1, xi=2),
         zp("L4", N, alpha=1, beta=0, xi=2), True),
        ("L4-rescale", zp("L4", N, alpha=1, beta=1, xi=3),
         zp("L4", N, alpha=lam * fld.q_power(2), beta=lam * fld.q_power(-2),
            xi=lam ** N * fld.from_rational(3)), True),
        ("L4-not", zp("L4", N, alpha=1, beta=1, xi=3),
         zp("L4", N, alpha=2, beta=2, xi=7), False),
        ("L4-sided", zp("L4", N, alpha=1, beta=0, xi=1),
         zp("L4", N, alpha=0, beta=1, xi=1), False),
    ]
    for tag, p1, p2, want in cases:
        got = comodzoo.morita_equivalent_params(p1, p2)
        sym = comodzoo.morita_equivalent_params(p2, p1)
        rep.add(f"morita-{tag}", "equivalence-criterion",
                got == want and sym == want,
                None if got == want and sym == want else
                {"got": got, "symmetric": sym, "expected": want,
                 "pair": [p1.label(), p2.label()]})

    # explicit isomorphisms behind the True rows
    isomorphisms = (
        ("eta-rotation", "eta-rotation-isomorphism",
         zp("L3N", N, xi=1, zeta=2, eta=eta * fld.q_power(2)),
         zp("L3N", N, xi=1, zeta=2, eta=eta), {"g_scale": fld.q_power(1)}),
        ("L4-rescale", "rescaling-isomorphism",
         zp("L4", N, alpha=2, beta=2, xi=lam ** N * fld.one),
         zp("L4", N, alpha=1, beta=1, xi=1), {"w_scale": lam}),
    )
    for tag, anchor, src, dst, scales in isomorphisms:
        for deformed in (False, True):
            images, A, B = comodzoo.diagonal_family_map(
                src, dst, deformed=deformed, **scales)
            sub = check_comodule_algebra_morphism(images, A, B)
            rep.add(f"morita-{tag}-map-{'deformed' if deformed else 'plain'}",
                    anchor, sub.ok,
                    None if sub.ok else [c.claim_id for c in sub.failures()])
    for power in (1, 2):
        sub = comodzoo.conjugation_invariance_report(
            zp("L4", N, alpha=1, beta=1, xi=3), power)
        rep.add(f"morita-conjugation-{power}", "conjugation-equivalence",
                sub.ok, None if sub.ok else
                [c.claim_id for c in sub.failures()])

    # distinguishing invariants
    d1 = comodzoo.morita_invariant_d(
        comodzoo.build_family(zp("L1", N, r=N, xi=2)))
    d3 = comodzoo.morita_invariant_d(
        comodzoo.build_family(zp("L3N", N, xi=1, zeta=2, eta=eta)))
    rep.add("morita-d-invariant-separates", "d-invariant",
            d1 != d3, {"L1": str(d1), "L3N": str(d3)})
    C1 = comodzoo.coefficient_coalgebra(
        comodzoo.build_family(zp("L1", N, r=N, xi=2)))
    C2 = comodzoo.coefficient_coalgebra(
        comodzoo.build_family(zp("L2", N, r=N, zeta=2)))
    rep.add("morita-coefficient-coalgebra-separates", "coefficient-coalgebra",
            C1 != C2, {"dim_L1": C1.dim, "dim_L2": C2.dim})
    return rep


def suite_filtration(N, mode, sample_count, seed) -> VerificationReport:
    fld = field(N)
    rep = VerificationReport({"suite": "filtration"})
    zp = comodzoo.zoo_params
    params = [zp("L1", N, r=N, xi=2), zp("L4", N, alpha=1, beta=1, xi=2)]
    if N == 3:
        params.append(zp("L3N", N, xi=1, zeta=2, eta=fld.q))
    for p in params:
        for build, tag in ((comodzoo.build_family, "plain"),
                           (comodzoo.deform_family, "deformed")):
            A = build(p)
            fil = comodzoo.loewy_filtration(A)
            rep.add(f"filtration-products-{p.family}-{tag}",
                    "filtered-algebra", fil.respects_products(),
                    {"dims": list(fil.dims)})
            coinv = coinvariants(A).dim
            rep.add(f"coinvariants-trivial-{p.family}-{tag}",
                    "coinvariants-dimension", coinv == 1, {"dim": coinv})
            res = comodzoo.is_right_H_simple(A)
            rep.add(f"right-simple-{p.family}-{tag}", "H-simplicity",
                    res["simple"], res if not res["simple"] else
                    {"method": res["method"]})
    if N == 3:
        fil = comodzoo.loewy_filtration(
            comodzoo.build_family(zp("L3N", N, xi=1, zeta=2, eta=fld.q)))
        rep.add("filtration-L3N-layer-dims", "loewy-dimensions",
                fil.dims == (3, 9, 18, 24, 27), {"dims": list(fil.dims)})
        ds = direct_sum_comodule_algebras(
            comodzoo.build_family(zp("L0", N, r=N)),
            comodzoo.build_family(zp("L0", N, r=N)))
        res = comodzoo.is_right_H_simple(ds)
        rep.add("direct-sum-not-simple", "H-simplicity-counterexample",
                res["simple"] is False, res["witness"])
    return rep


_SUITE_FUNCS = {
    "hopf-axioms": suite_hopf_axioms,
    "cocycle": suite_cocycle,
    "deformation": suite_deformation,
    "families": suite_families,
    "minpoly": suite_minpoly,
    "chebyshev": suite_chebyshev,
    "morita": suite_morita,
    "filtration": suite_filtration,
}
SUITES = tuple(_SUITE_FUNCS)


def _emit(args, payload) -> None:
    """Write a text payload as it is, and any other as sorted, indented
    JSON, to --output or stdout."""
    if not isinstance(payload, str):
        payload = json.dumps(payload, sort_keys=True, indent=2)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(payload)
                if not payload.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:
            # a bad --output (a missing directory, a full disk): main
            # reports it as a usage error, without a traceback
            raise ValueError(f"cannot write {args.output}: "
                             f"{exc.strerror or exc}") from exc
    else:
        # flushed here, so a closed pipe raises inside main, not at exit
        print(payload, flush=True)


def cmd_verify(args) -> int:
    N = args.N
    uqsl2.check_order(N)
    mode = args.mode
    if mode == "auto":
        mode = "exhaustive" if N == 3 else "sampled"
    suites = list(SUITES) if args.suites is None else args.suites.split(",")
    for i, s in enumerate(suites):
        if s not in _SUITE_FUNCS:
            raise ValueError(f"unknown suite {s!r}; choose from {', '.join(SUITES)}")
        if s in suites[:i]:
            raise ValueError(f"suite {s!r} is given twice")
    merged = VerificationReport({"N": N, "mode": mode,
                                 "sample_count": args.sample_count,
                                 "seed": args.seed,
                                 "suites": list(suites)})
    suite_ms = {}
    for s in suites:
        start = time.perf_counter()
        merged.extend(_SUITE_FUNCS[s](N, mode, args.sample_count, args.seed))
        suite_ms[s] = round((time.perf_counter() - start) * 1000, 3)
    if args.format == "json":
        data = merged.as_dict(include_timings=args.timings)
        if args.timings:
            data["suite_elapsed_ms"] = suite_ms
        _emit(args, data)
    else:
        _emit(args, merged.as_text())
    return 0 if merged.ok else 1


def cmd_classify(args) -> int:
    uqsl2.check_order(args.N)
    _emit(args, comodzoo.classify(args.N))
    return 0


def cmd_minpoly(args) -> int:
    N = args.N
    uqsl2.check_order(N)
    fld = field(N)
    alpha = fld.parse(args.alpha)
    beta = fld.parse(args.beta)
    gamma = fld.parse(args.gamma)
    rep = comodzoo.verify_min_pol_lemma(N, alpha, beta, gamma)
    uq = uqsl2.build_uq(N)
    Z = uqsl2.uq_z_element(N, alpha, beta, gamma)
    minp = minimal_polynomial_of_element(uq.algebra, Z)
    payload = {
        "N": N,
        "element": f"({alpha}) Et + ({beta}) F + ({gamma}) Kinv",
        "minimal_polynomial": str(minp),
        "report": rep.as_dict(include_timings=args.timings),
    }
    if args.format == "json":
        _emit(args, payload)
    else:
        lines = [f"element: {payload['element']}",
                 f"minimal polynomial: {payload['minimal_polynomial']}",
                 rep.as_text()]
        _emit(args, "\n".join(lines))
    return 0 if rep.ok else 1


def cmd_export(args) -> int:
    N = args.N
    uqsl2.check_order(N)
    what = args.what
    if what == "gr-uq":
        data = hopf_to_json(uqsl2.build_gr_uq(N))
    elif what == "uq":
        data = hopf_to_json(uqsl2.build_uq(N))
    elif what == "sigma":
        data = form_to_json(uqsl2.build_sigma(N))
    elif what == "sigma-inverse":
        data = form_to_json(uqsl2.build_sigma_inverse(N))
    elif what == "family":
        if not args.family:
            raise ValueError("export family needs --family")
        fld = field(N)
        kw = {name: fld.parse(getattr(args, name))
              for name in comodzoo.FamilyParams._fields[3:]
              if getattr(args, name) is not None}
        p = comodzoo.zoo_params(args.family, N, r=args.r, **kw)
        A = comodzoo.deform_family(p) if args.deformed \
            else comodzoo.build_family(p)
        data = comodule_to_json(A)
    else:
        raise ValueError(f"unknown export target {what!r}")
    _emit(args, data)
    return 0


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


@cache  # built once per process, which may call main many times
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="uqcomod",
        description="exact verification of u_q(sl2), its cocycle deformation "
                    "and the comodule-algebra zoo")
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--N", type=int, default=3,
                        help="odd root-of-unity order (default 3)")
    common.add_argument("--output", default=None, help="write to file")
    common.add_argument("--format", choices=("json", "text"), default="text")
    common.add_argument("--timings", action="store_true",
                        help="include elapsed times per claim and, in a "
                             "verify JSON report, per suite (breaks "
                             "byte-for-byte reproducibility)")

    v = sub.add_parser("verify", parents=[common],
                       help="run verification suites")
    v.add_argument("--suites", default=None,
                   help="comma-separated subset of: " + ",".join(SUITES))
    v.add_argument("--mode", choices=("auto", "exhaustive", "sampled"),
                   default="auto",
                   help="exhaustive checks every tuple, proving most claims "
                        "on generator tuples; sampled checks --sample-count "
                        "random tuples; auto (the default) is exhaustive at "
                        "N = 3 and sampled otherwise")
    v.add_argument("--sample-count", type=_positive_int, default=10000)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("classify", parents=[common],
                       help="describe the zoo at order N")
    c.set_defaults(func=cmd_classify)

    m = sub.add_parser("minpoly", parents=[common],
                       help="minimal polynomial of alpha Et + beta F "
                            "+ gamma K^-1")
    m.add_argument("--alpha", default="0")
    m.add_argument("--beta", default="0")
    m.add_argument("--gamma", default="0")
    m.set_defaults(func=cmd_minpoly)

    e = sub.add_parser("export", parents=[common],
                       help="dump exact JSON data")
    e.add_argument("--what", required=True,
                   choices=("gr-uq", "uq", "sigma", "sigma-inverse",
                            "family"))
    e.add_argument("--family", default=None,
                   choices=tuple(comodzoo._FAMILIES))
    e.add_argument("--r", type=int, default=None)
    for name in comodzoo.FamilyParams._fields[3:]:
        e.add_argument(f"--{name}", default=None)
    e.add_argument("--deformed", action="store_true")
    e.set_defaults(func=cmd_export)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early (e.g. `| head`); send what is left
        # in the buffer to devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
