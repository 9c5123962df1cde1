#!/usr/bin/env python3
"""Check that work counters and quality repeat exactly at one seed.

The synthesis pipeline is deterministic, so two runs of one workload at
one seed must agree exactly on every work counter and quality figure
below. They may differ across seeds. Wall times are not compared here;
they are held only to the bounds in BENCHMARK.json.

    python3 perfbench/check_determinism.py                  # every workload
    python3 perfbench/check_determinism.py --workload synth_large --seed 3

Each workload runs four times (twice untraced, twice traced), with
--seconds 1. Exit status 0 when every listed figure matches, 1 when
one differs or a run fails.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["synth_large", "signoff_gsrc", "serve_mixed"]
EXACT_END_TO_END = ["wirelength_mm", "buffers", "sim_skew_ps", "sim_worst_slew_ps",
                    "sim_latency_ps"]
EXACT_PER_LAYER = [
    "cts.maze.calls", "cts.maze.c2f_coarse", "cts.maze.c2f_fallbacks",
    "util.executor.tasks", "cts.skew_refine.passes", "cts.skew_refine.moves",
    "cts.wire_reclaim.reclaimed_um", "cts.levels", "cts.tree_nodes", "circuit.stages",
    "cts.model_skew_ps", "cts.model_sim_gap_ps", "sim.skew_ps.r1", "sim.skew_ps.r2",
    "sim.skew_ps.r3", "sim.skew_ps.r4", "sim.skew_ps.r5",
]


def run(workload, seed, trace):
    runner = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    p = subprocess.run([sys.executable, runner, "--workload", workload, "--seed", str(seed),
                        "--seconds", "1", "--trace", str(trace)],
                       capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        raise SystemExit(f"{workload}: run failed (exit {p.returncode})")
    return json.loads(p.stdout.strip().splitlines()[-1])["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    a = ap.parse_args()
    mismatches = 0
    for w in [a.workload] if a.workload else WORKLOADS:
        for trace, names in ((0, EXACT_END_TO_END), (1, EXACT_PER_LAYER)):
            first, second = run(w, a.seed, trace), run(w, a.seed, trace)
            for n in names:
                same = first[n]["value"] == second[n]["value"]
                mismatches += not same
                print(f"{w:15s} {n:32s} {first[n]['value']!r:>24} "
                      f"{'==' if same else '!='} {second[n]['value']!r}")
    print("deterministic" if mismatches == 0 else f"{mismatches} figure(s) differ")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
