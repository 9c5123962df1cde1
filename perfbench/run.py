#!/usr/bin/env python3
"""Run the ctsim benchmark: build, set up, measure, check, report.

Run from the root of a checkout:

    python3 perfbench/run.py --workload synth_large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

The first run builds the library and the measuring program into
.bench_build/perfbench and fits the delay library into
.bench_build/cache (both inside the checkout). The last line of
standard output is one JSON object: correct, attempted, failed and
metrics -- the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1 (which also writes a Chrome trace to
.bench_build/perfbench-trace-<workload>-<seed>.json). The exit status
is nonzero when a correctness check fails or nothing could be built.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ["synth_large", "signoff_gsrc", "serve_mixed"]
# Fresh-process set-ups per run, half before the measured run and half
# after it, so their median spans the run; setup_s is that median.
SETUP_SAMPLES = 32
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root):
    """Configure once, then build incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(root, "src", "cts", "synthesizer.h")):
        fail("no ctsim sources under ./src -- run from the root of a checkout")
    bdir = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", "ctsim_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "ctsim_perfbench")


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def probe(exe, env, *args):
    p = subprocess.run([exe, "--probe", *args], env=env, capture_output=True, text=True,
                       timeout=RUN_TIMEOUT_S)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        fail("probe failed: " + " ".join(args), 1)
    return last_json(p.stdout)


def run_workload(exe, root, env, workload, seed, seconds, trace):
    """One measured run; returns (exit code, result dict or None, other stdout)."""
    # The first set-up in a checkout fits the delay library into the
    # cache; it is discarded, and so is every sample's page-cache state.
    probe(exe, env, "setup", "--workload", workload)
    setups = [probe(exe, env, "setup", "--workload", workload)
              for _ in range(SETUP_SAMPLES // 2)]
    characterize_s = None
    if trace:
        cold = os.path.join(root, ".bench_build", f"cold-cache-{os.getpid()}")
        shutil.rmtree(cold, ignore_errors=True)
        os.makedirs(cold)
        try:
            characterize_s = probe(exe, dict(env, CTSIM_CACHE_DIR=cold),
                                   "characterize")["characterize_s"]
        finally:
            shutil.rmtree(cold, ignore_errors=True)

    trace_out = os.path.join(root, ".bench_build",
                             f"perfbench-trace-{workload}-{seed}.json")
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out", trace_out]
    try:
        p = subprocess.run(cmd, env=env, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(p.stderr)
    setups += [probe(exe, env, "setup", "--workload", workload)
               for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    try:
        result = last_json(p.stdout)
    except ValueError:
        return (p.returncode or 1), None, p.stdout
    head = "\n".join(p.stdout.splitlines()[:-1])

    def med(key):
        return statistics.median(s[key] for s in setups)

    # The set-up metrics come from the probes alone; the measuring
    # program leaves them out of its result line.
    if trace:
        first = {"delaylib.load_s": {"value": med("load_s"), "unit": "s"},
                 "delaylib.row_prefill_s": {"value": med("row_prefill_s"), "unit": "s"},
                 "delaylib.characterize_s": {"value": characterize_s, "unit": "s"}}
    else:
        first = {"setup_s": {"value": med("setup_s"), "unit": "s"}}
    result["metrics"] = {**first, **result["metrics"]}
    return p.returncode, result, head


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1,
                    help="input seed; 1 reproduces the registry instances")
    ap.add_argument("--seconds", type=int, default=30, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if a.seed < 1 or a.seconds < 1:
        fail("--seed and --seconds must be positive")

    root = os.getcwd()
    exe = build(root)
    cache = os.path.join(root, ".bench_build", "cache")
    os.makedirs(cache, exist_ok=True)
    env = dict(os.environ, CTSIM_CACHE_DIR=cache)

    if a.workload != "all":
        rc, result, head = run_workload(exe, root, env, a.workload, a.seed, a.seconds,
                                        a.trace == 1)
        if head:
            print(head)
        if result is None:
            fail(f"{a.workload}: the measuring program printed no result", rc or 1)
        print(json.dumps(result))
        sys.exit(rc)

    worst = 0
    for w in WORKLOADS:
        rc, result, head = run_workload(exe, root, env, w, a.seed, a.seconds, a.trace == 1)
        worst = max(worst, rc if result is not None else 1)
        if head:
            print(head)
        if result is None:
            print(f"{w}: no result")
            continue
        print(f"== {w}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, v in result["metrics"].items():
            print(f"  {name:36s} {v['value']:16.6f} {v['unit']}")
    sys.exit(worst)


if __name__ == "__main__":
    main()
