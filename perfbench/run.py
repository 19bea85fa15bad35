"""uqcomod benchmark: time to a fully verified report, per workload.

    python3 perfbench/run.py --workload verify-n3 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Each round runs in a fresh interpreter
(see worker.py) and the benchmark starts whole rounds until --seconds have
passed, at least one.  It then adds set-up-only interpreters until the
workload's number of set-up samples is reached, and reports medians.

--trace 0 prints the end-to-end metrics: setup_s, run_s and peak_rss_mb.
The two times are calibrated to a reference host speed (calibration.py).
--trace 1 runs one untraced and one traced round and prints the per-layer
metrics, with trace.overhead_s = traced run_s - untraced run_s; the spans
are written to perfbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
round ran, even if operations failed; a round that crashes, or a checkout
without the program sources, exits non-zero without a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402
from worker import WORKLOADS  # noqa: E402

OUT = HERE / "out"
ROUND_TIMEOUT_S = 170


def run_worker(workload, seed, stage, trace=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--stage", stage]
    if trace:
        cmd += ["--trace", str(trace)]
    # a fixed hash seed keeps set iteration, and so the exact counts, stable
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {stage} of {workload} exited with "
                         f"code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tally(rounds):
    ops = [op for r in rounds for op in r["ops"]]
    for name, status, detail in ops:
        if status != "ok":
            print(f"FAILED {name}: {status} {json.dumps(detail)}")
    return {
        "correct": not any(status == "wrong" for _, status, _ in ops),
        "attempted": len(ops),
        "failed": sum(1 for _, status, _ in ops if status != "ok"),
    }


def timed(workload, seed, seconds):
    spec = WORKLOADS[workload]
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_worker(workload, seed, "round"))
        r = rounds[-1]
        suites = ", ".join(f"{s} {t:.3f}" for s, t in r["suite_s"].items())
        print(f"round {len(rounds)}: setup_s {r['setup_s']:.4f} "
              f"(wall {r['setup_wall_s']:.4f}) run_s {r['run_s']:.3f} "
              f"(wall {r['run_wall_s']:.3f}, host speed {r['speed']:.3f} "
              f"over {r['speed_samples']} samples) peak_rss_mb "
              f"{r['peak_rss_mb']:.1f} [wall: {suites}]")
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < spec["setup_samples"]:
        setups.append(run_worker(workload, seed, "setup")["setup_s"])
    print(f"setup samples: {', '.join(f'{s:.4f}' for s in setups)}")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(r["run_s"] for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds),
                        "MB"),
    }
    return rounds, metrics


def traced(workload, seed):
    OUT.mkdir(exist_ok=True)
    plain = run_worker(workload, seed, "round")
    trace_file = OUT / f"trace-{workload}-seed{seed}.json"
    with_spans = run_worker(workload, seed, "round", trace=trace_file)
    layers = dict(with_spans["layers"])
    layers["trace.overhead_s"] = with_spans["run_s"] - plain["run_s"]
    print(f"untraced run_s {plain['run_s']:.3f}, traced run_s "
          f"{with_spans['run_s']:.3f}, spans in {trace_file.relative_to(HERE.parent)}")
    metrics = {name: (layers[name], unit) for name, unit in LAYER_METRICS}
    return [plain, with_spans], metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.trace:
        rounds, metrics = traced(args.workload, args.seed)
    else:
        rounds, metrics = timed(args.workload, args.seed, args.seconds)
    result = tally(rounds)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
