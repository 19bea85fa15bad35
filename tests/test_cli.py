"""Command-line interface: exit codes, determinism, exports."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uqcomod.cli as cli
from uqcomod import uqsl2
from uqcomod.cli import SUITES, build_parser, main
from uqcomod.comodzoo import build_family, zoo_params
from uqcomod.cyclofield import field
from conftest import parsed_rows
from uqcomod.hopfcore import (ConvForm, verify_comodule_algebra,
                               verify_hopf_2cocycle)
from uqcomod.uqsl2 import monomial_index


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main(list(argv) + ["--output", str(out)])
    return code, out.read_text()


def test_even_order_is_rejected(tmp_path, capsys):
    code = main(["verify", "--N", "4", "--suites", "hopf-axioms"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_suite_is_rejected(tmp_path, capsys):
    code = main(["verify", "--N", "3", "--suites", "bogus"])
    assert code == 2


@pytest.mark.parametrize("suites", ["chebyshev,chebyshev",
                                    "minpoly,chebyshev,minpoly"])
def test_repeated_suite_is_rejected(suites, capsys):
    # a repeat would run twice and report each claim id twice
    assert main(["verify", "--N", "3", "--suites", suites]) == 2
    assert "error: suite" in capsys.readouterr().err


def test_empty_suite_list_is_rejected(capsys):
    # an empty list must not fall back to every suite
    assert main(["verify", "--N", "3", "--suites", ""]) == 2
    assert "error: unknown suite ''" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-1"])
def test_sample_count_below_one_is_an_argparse_error(count, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--N", "3", "--suites", "cocycle",
              "--sample-count", count])
    assert exc.value.code == 2
    assert "--sample-count" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["1", "2", "3"])
def test_families_with_fewer_than_four_samples_checks_one_pair_per_member(
        monkeypatch, count, capsys):
    # sample_count // 4 = 0 would be a vacuous plan, which the verifier
    # refuses; each member is handed one pair instead
    planned = []

    def verify(A, pairs):
        planned.append(len(pairs))
        return verify_comodule_algebra(A, pairs)

    monkeypatch.setattr(cli, "verify_comodule_algebra", verify)
    code = main(["verify", "--N", "3", "--suites", "families",
                 "--mode", "sampled", "--sample-count", count])
    assert code == 0, capsys.readouterr().err
    assert planned == [1] * 20


def test_cocycle_suite_samples_the_generators_first(monkeypatch):
    seen = []

    def spy(sigma, triples):
        seen.append(triples)
        return verify_hopf_2cocycle(sigma, triples)

    monkeypatch.setattr(cli, "verify_hopf_2cocycle", spy)
    assert main(["verify", "--N", "3", "--suites", "cocycle",
                 "--mode", "sampled", "--sample-count", "10"]) == 0
    x, y, g = (monomial_index(3, 1, 0, 0), monomial_index(3, 0, 1, 0),
               monomial_index(3, 0, 0, 1))
    [triples] = seen
    assert len(triples) == 27 + 10
    assert triples[:27] == list(itertools.product((x, y, g), repeat=3))


def test_a_wrong_sigma_inverse_fails_claims_instead_of_raising(monkeypatch,
                                                               capsys):
    # the builders do not check their output: a wrong inverse reaches the
    # report as failing claims and exit code 1, not as an exception
    build_inverse = uqsl2.build_sigma_inverse

    def doubled(N):
        inv = build_inverse(N)
        coords = dict(inv.coords)
        key = next(k for k in coords if k != (0, 0))
        coords[key] = coords[key] * 2
        return ConvForm(inv.hopf, 2, coords)

    uqsl2.build_uq.cache_clear()
    monkeypatch.setattr(uqsl2, "build_sigma_inverse", doubled)
    try:
        code = main(["verify", "--N", "3", "--suites", "cocycle,deformation",
                     "--format", "json"])
    finally:
        uqsl2.build_uq.cache_clear()
    assert code == 1
    claims = json.loads(capsys.readouterr().out)["claims"]
    failing = {c["claim_id"] for c in claims if c["status"] == "fail"}
    assert {"sigma-inverse-left", "sigma-inverse-right",
            "uq-K-order"} <= failing


@pytest.mark.parametrize("argv", [
    ["minpoly", "--alpha", "1/0"],
    ["export", "--what", "family", "--family", "L1", "--xi", "1/0"],
], ids=["minpoly", "export"])
def test_a_zero_denominator_is_a_usage_error(argv, capsys):
    # a bad literal exits 2 with a message, not 1 with a traceback
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'1/0'" in err


def test_bad_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_timings_give_every_claim_a_number(tmp_path):
    args = ["verify", "--N", "3", "--suites", "chebyshev,minpoly",
            "--format", "json"]
    code, text = run(tmp_path, *args, "--timings")
    assert code == 0
    data = json.loads(text)
    claims = data["claims"]
    assert len(claims) == 18 + 41
    for c in claims:
        assert isinstance(c["elapsed_ms"], float) and c["elapsed_ms"] >= 0
    suites = data["suite_elapsed_ms"]
    assert list(suites) == ["chebyshev", "minpoly"]
    assert all(isinstance(ms, float) and ms >= 0 for ms in suites.values())
    # each suite's wall time holds the times of its own claims (each
    # figure is rounded to 1 us)
    own = sum(c["elapsed_ms"] for c in claims[:18])
    assert suites["chebyshev"] >= own - 0.01
    # without --timings the report is the same as before the option grew
    _, plain = run(tmp_path, *args)
    report = json.loads(plain)
    assert "suite_elapsed_ms" not in report
    assert all(c["elapsed_ms"] is None for c in report["claims"])


def test_single_suite_passes(tmp_path):
    code, text = run(tmp_path, "verify", "--N", "3", "--suites", "cocycle")
    assert code == 0
    assert "PASS" in text and "FAIL" not in text


def test_json_output_is_deterministic(tmp_path):
    args = ["verify", "--N", "3", "--suites", "minpoly,chebyshev",
            "--format", "json"]
    _, first = run(tmp_path, *args)
    _, second = run(tmp_path, *args)
    assert first == second
    data = json.loads(first)
    assert data["summary"]["failed"] == 0
    assert all(c["status"] == "pass" for c in data["claims"])


def test_classify_json(tmp_path):
    code, text = run(tmp_path, "classify", "--N", "3", "--format", "json")
    assert code == 0
    data = json.loads(text)
    assert [f["name"] for f in data["families"]] == [
        "F0", "F1", "F2", "F3", "F4"]


def test_minpoly_command(tmp_path):
    code, text = run(tmp_path, "minpoly", "--N", "3",
                     "--alpha", "1", "--beta", "1", "--gamma", "0")
    assert code == 0
    assert "minimal polynomial" in text


def test_minpoly_accepts_negative_exponent(tmp_path):
    code, text = run(tmp_path, "minpoly", "--N", "3", "--gamma", "q^-1")
    assert code == 0
    assert "minimal polynomial" in text


def test_export_family_round_trip(tmp_path):
    code, text = run(tmp_path, "export", "--N", "3", "--what", "family",
                     "--family", "L1", "--r", "3", "--xi", "2",
                     "--format", "json")
    assert code == 0
    data = json.loads(text)
    want = build_family(zoo_params("L1", 3, r=3, xi=2))
    fld = want.field
    assert data["basis"] == list(want.labels)
    assert parsed_rows(data["mul"], fld, lambda ids: (tuple(ids[:2]), ids[2])
                       ) == want.algebra.mul
    assert parsed_rows(data["coaction"], fld,
                       lambda ids: (ids[0], tuple(ids[1:]))) == want.coaction
    assert text == json.dumps(data, sort_keys=True, indent=2) + "\n"


def test_export_refuses_a_parameter_the_family_does_not_take(capsys):
    code = main(["export", "--N", "3", "--what", "family", "--family", "L0",
                 "--xi", "2"])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: L0 takes no xi parameter\n"


def test_export_sigma(tmp_path):
    code, text = run(tmp_path, "export", "--N", "3", "--what", "sigma",
                     "--format", "json")
    assert code == 0
    data = json.loads(text)
    assert data["arity"] == 2


def test_suite_list_is_wired():
    ap = build_parser()
    args = ap.parse_args(["verify", "--suites", ",".join(SUITES)])
    assert args.suites.split(",") == list(SUITES)


def test_an_unwritable_output_exits_with_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    argv = ["verify", "--N", "3", "--suites", "chebyshev", "--output", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: "), err
    assert not out.parent.exists()


def test_a_closed_pipe_exits_without_a_traceback():
    # as in `uqcomod export --what uq --N 3 | head -2`, but the reader closes
    # its end before the first write, so the write fails on every run
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "uqcomod.cli", "export", "--what", "uq",
         "--N", "3"], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_a_second_core_n5_round_adds_nothing_to_the_value_index(capsys):
    # perfbench's core-n5 suites, twice in one process: the second round
    # reads the values and memo entries of the first and interns nothing
    vi = field(5).interned

    def one_round():
        for suite in ("hopf-axioms", "cocycle", "deformation", "families"):
            assert main(["verify", "--N", "5", "--suites", suite,
                         "--sample-count", "200", "--seed", "1",
                         "--format", "json"]) == 0
        return capsys.readouterr().out

    def size():
        return (len(vi.values), len(vi.ids), sum(map(len, vi.products)),
                sum(map(len, vi.sums)))

    first = one_round()
    grown = size()
    assert one_round() == first
    assert size() == grown
