"""One round of a perfbench workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload verify-n3 --seed 1 --stage round

Stages:
  setup   import uqcomod and build the Hopf-level structures; report setup_s
  round   setup, then the workload's `uqcomod verify` calls (the timed
          region), then the correctness checks
With --trace FILE the round also runs the field micro-timings, wraps the
program's public functions in spans and counters, and writes the spans to
FILE.  The last line of standard output is one JSON object.

A fresh interpreter per round matters: the builders are lru_cache'd and
q_binomial keeps a module-level memo, so a second round in one process
would measure warm caches.
"""

import argparse
import contextlib
import io
import json
import operator
import resource
import sys
import time
from pathlib import Path

import calibration
import checks

SRC = Path(__file__).resolve().parent.parent / "src"

# name -> order N, `uqcomod verify` suites, sample count, set-up samples per
# run, and the closed-form checks with the zoo families each one looks at
# (only members the suites already built, so the checks add little time)
WORKLOADS = {
    "verify-n3": {
        "N": 3,
        "suites": ("hopf-axioms", "cocycle", "deformation", "families",
                   "minpoly", "chebyshev", "morita", "filtration"),
        "sample_count": 10000,
        "setup_samples": 11,
        "checks": (("hopf-dims", ()), ("gr-table-entries", ()),
                   ("family-dims", ("L1", "L3N", "L4")),
                   ("loewy-layers-L3N", ()),
                   ("d-invariants", ("L1", "L3N"))),
    },
    "core-n5": {
        "N": 5,
        "suites": ("hopf-axioms", "cocycle", "deformation", "families"),
        "sample_count": 200,
        "setup_samples": 3,
        "checks": (("hopf-dims", ()), ("gr-table-entries", ()),
                   ("family-dims", ("L1", "L3N", "L4")),
                   ("d-invariants", ("L1",))),
    },
    "zoo-n5": {
        "N": 5,
        "suites": ("filtration", "minpoly", "chebyshev"),
        "sample_count": 200,
        "setup_samples": 3,
        "checks": (("hopf-dims", ()), ("gr-table-entries", ()),
                   ("family-dims", ("L1", "L4")),
                   ("d-invariants", ("L1",))),
    },
}


def import_program():
    if not (SRC / "uqcomod" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import uqcomod
    return uqcomod


def set_up(uq, N):
    """The Hopf-level structures every suite reuses."""
    uq.build_gr_uq(N)
    uq.build_sigma(N)
    uq.build_sigma_inverse(N)
    uq.build_uq(N)


def run_suites(uq, spec, seed):
    """The timed region: one `uqcomod verify` call per suite, JSON report
    captured in memory.  Returns (suite, exit code, report text, error,
    seconds) per suite."""
    outputs = []
    for suite in spec["suites"]:
        argv = ["verify", "--N", str(spec["N"]), "--suites", suite,
                "--sample-count", str(spec["sample_count"]),
                "--seed", str(seed), "--format", "json"]
        buf = io.StringIO()
        code = text = error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = uq.cli.main(argv)
            text = buf.getvalue()
        except Exception as exc:  # a raising suite is a failed operation
            error = repr(exc)
        outputs.append((suite, code, text, error, time.perf_counter() - start))
    return outputs


def suite_status(code, text, error):
    if error is not None or code not in (0, 1):
        return "raised", error or f"exit code {code}"
    claims = json.loads(text)["claims"]
    bad = [c["claim_id"] for c in claims if c["status"] != "pass"]
    if code != 0 or not claims or bad:
        return "wrong", {"failing": bad[:5], "claims": len(claims)}
    return "ok", None


def run_checks(uq, spec, seed):
    N = spec["N"]
    ops = []

    def op(name, fn, *args):
        try:
            ok = fn(*args)
        except Exception as exc:  # a raising check is a failed operation
            ops.append([name, "raised", repr(exc)])
            return
        ops.append([name, "ok" if ok else "wrong", None])

    for name, families in spec["checks"]:
        op(f"check:{name}", checks.CLOSED_FORMS[name], uq, N, families)
    for order in checks.FIELD_ORDERS:
        fld = uq.field(order)
        batch = checks.field_batch(fld, seed)
        op(f"check:field-products-n{order}", checks.field_products_agree,
           fld, batch)
        op(f"check:field-inverses-n{order}", checks.field_inverses_agree,
           fld, batch)
    return ops


def field_timings(uq, seed, repeats=5):
    """Microseconds per operation on the field batch, median of `repeats`."""
    def per_op(fn, operands):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for a, b in operands:
                fn(a, b)
            times.append((time.perf_counter() - start) / len(operands) * 1e6)
        return sorted(times)[repeats // 2]

    def inverse(a, _):
        return a.inverse()

    out = {}
    for order in checks.FIELD_ORDERS:
        batch = checks.field_batch(uq.field(order), seed)
        out[f"cyclofield.mul_us.n{order}"] = per_op(operator.mul, batch["dense"])
        if order == 5:
            out["cyclofield.monomial_mul_us.n5"] = per_op(operator.mul,
                                                          batch["monomial"])
            out["cyclofield.inverse_us.n5"] = per_op(inverse, batch["dense"])
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--stage", required=True, choices=("setup", "round"))
    ap.add_argument("--trace", default=None, help="span file of a traced round")
    args = ap.parse_args()
    spec = WORKLOADS[args.workload]

    cal = calibration.Calibrator()
    cal.start()
    uq = import_program()
    import uqcomod.cli  # noqa: F401  (the entry point the rounds call)
    tracer = None
    field_us = {}
    if args.trace:
        from tracer import Tracer
        field_us = field_timings(uq, args.seed)
        tracer = Tracer()
        tracer.install()
        cal.timed_pass = tracer.untimed_span("perfbench.calibration",
                                             cal.timed_pass)
    set_up(uq, spec["N"])
    setup = cal.stop()
    if args.stage == "setup":
        print(json.dumps({"setup_s": setup.calibrated_s,
                          "setup_wall_s": setup.wall_s}))
        return

    cal.start()
    outputs = run_suites(uq, spec, args.seed)
    run = cal.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = {}
    if tracer:
        layers = tracer.layer_metrics()
        tracer.write(args.trace, {"workload": args.workload, "seed": args.seed})

    ops = []
    for suite, code, text, error, _ in outputs:
        status, detail = suite_status(code, text, error)
        ops.append([f"suite:{suite}", status, detail])
    ops += run_checks(uq, spec, args.seed)
    print(json.dumps({
        "setup_s": setup.calibrated_s, "setup_wall_s": setup.wall_s,
        "run_s": run.calibrated_s, "run_wall_s": run.wall_s,
        "speed": run.speed, "speed_samples": run.samples,
        "peak_rss_mb": peak_rss_mb,
        "suite_s": {suite: secs for suite, _, _, _, secs in outputs},
        "ops": ops, "layers": {**layers, **field_us},
    }))


if __name__ == "__main__":
    main()
