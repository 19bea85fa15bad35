"""Byte-for-byte output of the default report, a sampled N = 5 report, the
zoo description, a minimal polynomial and the exported structure
constants.

The files under tests/golden/ were written by

    uqcomod verify --N 3 --format json --output tests/golden/verify_n3.json
    uqcomod classify --output tests/golden/classify.txt
    uqcomod classify --N 9 --output tests/golden/classify_n9.txt
    uqcomod verify --N 5 --suites hopf-axioms,cocycle,deformation,families,\
minpoly,chebyshev,filtration --sample-count 200 --seed 1 --format json \
        --output tests/golden/verify_n5.json
    uqcomod verify --N 5 --mode exhaustive --suites hopf-axioms,families \
        --format json --output tests/golden/verify_n5_exhaustive.json
    uqcomod verify --N 5 --mode exhaustive --suites cocycle --format json \
        --output tests/golden/verify_n5_cocycle_exhaustive.json
    uqcomod verify --N 5 --format json \
        --output tests/golden/verify_n5_default.json
    uqcomod minpoly --N 5 --alpha 1 --beta 2 --gamma q --format json \
        --output tests/golden/minpoly_n5.json
    uqcomod verify --N 5 --suites morita --format json \
        --output tests/golden/verify_n5_morita.json
    uqcomod verify --N 7 --mode exhaustive --format json \
        --output tests/golden/verify_n7_exhaustive.json
    uqcomod minpoly --N 7 --alpha q --beta 2 --gamma 1/3 --format json \
        --output tests/golden/minpoly_n7.json
    uqcomod verify --N 3 --output tests/golden/verify_n3.txt

and the sha256 digests below are of the stdout of `uqcomod export ...
--format json`.  The first seven were written before the three table
builders were merged into one skew-PBW builder, the last three before
gr(u_q)'s antipode was solved instead of built in closed form.  The verify report records only pass or fail, so the
digests are what pins every structure constant and coaction coefficient.
A change to the internals (field, linear algebra, builders) must reproduce
all of them exactly; a change to a claim or a table must regenerate them
and say so.  The two verify reports were last regenerated when the claims
that could not fail were dropped (hopf-grouplikes, uq-dimension and
filtration-exhaustive-*, whose layer dimensions moved onto the
filtration-products-* witness); classify.txt and the digests did not
change.  verify_n5_exhaustive.json was written by full enumeration, before
exhaustive plans were proved on generator tuples, and
verify_n5_cocycle_exhaustive.json before the 2-cocycle identity, the dual
functionals' product rules and the counit's multiplicativity were; the
proofs must reproduce both.  verify_n5_default.json, the default sampled
N = 5 report (10 000 samples, seed 0), takes 7-9 s on a 2-vCPU VM, so only
CI compares it, under python -O (.github/workflows/tier1.yml); it was
written before Delta's and the coactions' multiplicativity were checked on
interned coefficient indices, and the kernel must reproduce it.
classify_n9.txt was written before the families' parameters were read
from one table, comodzoo._FAMILIES.  minpoly_n5.json, the minimal
polynomial next to the lemma whose constant term is the power sum
P_5(gamma, alpha beta/(1 - q^2)), was written while P_n was still a
polynomial substituted into by MultiPoly.compose and eval_scalars, before
power_sum_P ran its recursion on the scalars themselves.
verify_n5_morita.json was written while every product of the morita
suite's isomorphisms was checked by multiplying images in the target, before
monomial maps were compared on value ids.  verify_n7_exhaustive.json, every
suite proved at N = 7 (about 10 s on a 2-vCPU VM, so only CI compares it,
under python -O), was written while every table was filled a row at a time,
before whole-line readers took line fills.  minpoly_n7.json, a minimal
polynomial of degree 7 whose coefficients have up to six terms and
rational constants, was written while univariate polynomials were dense
coefficient lists, before one sparse Poly served them and the power sums.
verify_n3.txt, the default text report, was written while cli rendered it
and every verifier spelled out its own failure witnesses, before
VerificationReport.as_text and add_failures did.
"""

import hashlib
import json
from pathlib import Path

import pytest

from uqcomod.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, name", [
    (["verify", "--N", "3", "--format", "json"], "verify_n3.json"),
    (["classify"], "classify.txt"),
    # sampled plans at N = 5 (the morita suite, 72 s there, is left out)
    (["verify", "--N", "5", "--suites", "hopf-axioms,cocycle,deformation,"
      "families,minpoly,chebyshev,filtration", "--sample-count", "200",
      "--seed", "1", "--format", "json"], "verify_n5.json"),
    (["verify", "--N", "5", "--mode", "exhaustive", "--suites",
      "hopf-axioms,families", "--format", "json"], "verify_n5_exhaustive.json"),
    (["verify", "--N", "5", "--mode", "exhaustive", "--suites", "cocycle",
      "--format", "json"], "verify_n5_cocycle_exhaustive.json"),
    # the first order with a proper divisor: r_values [1, 3, 9]
    (["classify", "--N", "9"], "classify_n9.txt"),
    (["minpoly", "--N", "5", "--alpha", "1", "--beta", "2", "--gamma", "q",
      "--format", "json"], "minpoly_n5.json"),
    # the morita suite, whose eta-rotation maps are 125-dimensional
    (["verify", "--N", "5", "--suites", "morita", "--format", "json"],
     "verify_n5_morita.json"),
    # a printed minimal polynomial of degree 7 (about 0.3 s)
    (["minpoly", "--N", "7", "--alpha", "q", "--beta", "2", "--gamma", "1/3",
      "--format", "json"], "minpoly_n7.json"),
    # the default --format text
    (["verify", "--N", "3"], "verify_n3.txt"),
])
def test_output_matches_golden(tmp_path, argv, name):
    out = tmp_path / name
    assert main(argv + ["--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name, argv", [
    ("verify_n3.json", ["--N", "3"]),
    ("verify_n5.json", ["--N", "5", "--sample-count", "200", "--seed", "1"]),
])
def test_one_call_per_suite_reproduces_the_golden_claims(capsys, name,
                                                         argv):
    # as a perfbench round runs them: main once per suite in one process,
    # every call on the same value index of the field
    want = json.loads((GOLDEN / name).read_text())
    claims = []
    for suite in want["config"]["suites"]:
        main(["verify", *argv, "--suites", suite, "--format", "json"])
        claims += json.loads(capsys.readouterr().out)["claims"]
    assert claims == want["claims"]


FAMILY = ["--what", "family", "--family"]
L3N = FAMILY + ["L3N", "--xi", "1", "--zeta", "2", "--eta", "q"]


@pytest.mark.parametrize("argv, digest", [
    (["--N", "3", "--what", "gr-uq"],
     "0a411d5662b690d42c17d4ca569476741ebacff52701a164cc3ff844ab6329af"),
    (["--N", "5", "--what", "gr-uq"],
     "d67ecd217aaf98bf64fbcffb4fc2bd132643cbfbf2ccb1346a8312bdcb871216"),
    (["--N", "3"] + FAMILY + ["L1", "--xi", "2"],
     "83028adb38d465888353a41e7efeb018d759912f18347b906387223ef54bce4b"),
    (["--N", "3"] + L3N,
     "a5454ea2438bc88d14c73550c2b0929c671d2bd0923f67eac30bf0d2c2a7d398"),
    (["--N", "3"] + L3N + ["--deformed"],
     "ce031a6874dbe6250938596697e2f13834c1be2e1a76fd3c2404c99b32bc4db9"),
    (["--N", "3"] + FAMILY + ["L4", "--alpha", "1", "--beta", "1", "--xi", "2"],
     "84acecbb2e9f6c35303642fb978f1b599cd86e51912e23837844e08d74e1f2f6"),
    (["--N", "5"] + L3N,
     "45584f70933030b9b1d0a01636082c9965f8d1d7bd2382e8eec5d32b23c56b80"),
    # the exports carry the antipode tables: u_q's solved by solve_antipode
    # and gr(u_q)'s at N = 7
    (["--N", "3", "--what", "uq"],
     "089169f3435d9d3c913c22dd7e66f79b586da72112837da35637178ee45f8c33"),
    (["--N", "5", "--what", "uq"],
     "c4ca020318cc50fd0b4517f6c1d5902a83b942a8891603cdb55b9d8fc409abd5"),
    (["--N", "7", "--what", "gr-uq"],
     "0fe057d97c661a37122a98bb68cfa0f029363a2384c887319ab24736620671f7"),
    # with the rows above, a member of every family at N = 3; and L3 with
    # 1 < r < N, which needs N = 9
    (["--N", "3"] + FAMILY + ["L0", "--r", "1"],
     "66aa5aab482567492ac3b393860497c8f2b560da561501d7cf2b306f64b9ca46"),
    (["--N", "3"] + FAMILY + ["L2", "--r", "3", "--zeta", "q"],
     "22ce9462902b7b5a746065af49382d2d3c2e9d60b99f22235c6849beb90709c6"),
    (["--N", "3"] + FAMILY + ["L3", "--r", "1", "--xi", "1", "--zeta", "2"],
     "fd8dee223889c4caee7479f9f8844a9809dedf16c5fb70e64dfd91b703a9a20f"),
    (["--N", "9"] + FAMILY + ["L3", "--r", "3", "--xi", "1", "--zeta", "2"],
     "122fdd860ef6b1a2877bf8df8daee5548b4600187d6e78f2149e30c857c0865e"),
])
def test_export_matches_digest(capsys, argv, digest):
    assert main(["export"] + argv + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
