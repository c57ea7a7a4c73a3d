#!/usr/bin/env python3
"""Regenerate every deterministic results/*.txt and diff it against the
committed copy.

    python3 bench/check_results.py BUILD_DIR [--jobs N]

Runs each table/figure/extension binary in BUILD_DIR/bench with the
arguments EXPERIMENTS.md gives and compares its stdout byte for byte with
results/<file>.  results/scalability.txt holds wall-clock timings and is the
one file not checked.  SYBILTD_SIMD and SYBILTD_THREADS pass through from
the environment, so a CI matrix can sweep dispatch level and thread count.
Exits 1 (printing a unified diff) if any file differs or a committed results
file has no command here, 0 otherwise.
"""
import argparse
import concurrent.futures
import difflib
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# results file -> bench binary and arguments (EXPERIMENTS.md).
COMMANDS = {
    "table1.txt": ["table1_vulnerability"],
    "fig2.txt": ["fig2_agfp_example"],
    "fig3.txt": ["fig3_agts_example"],
    "fig4.txt": ["fig4_agtr_example"],
    "fig6.txt": ["fig6_ari_comparison", "5"],
    "fig7.txt": ["fig7_mae_comparison", "5"],
    "fig8.txt": ["fig8_fingerprint_space"],
    "ablation_framework.txt": ["ablation_framework", "5"],
    "ablation_grouping.txt": ["ablation_grouping", "5"],
    "ablation_kselection.txt": ["ablation_kselection", "5"],
    "ablation_combined.txt": ["ablation_combined", "5"],
    "ablation_incentive.txt": ["ablation_incentive", "5"],
    "ablation_temperature.txt": ["ablation_temperature", "5"],
    "evasion_sweep.txt": ["evasion_sweep", "5"],
    "categorical_attack.txt": ["categorical_attack", "5"],
    "rapacious_attack.txt": ["rapacious_attack", "5"],
    "reputation_campaigns.txt": ["reputation_campaigns", "5"],
}
# Wall-clock timings: never byte-stable.
UNCHECKED = {"scalability.txt"}


def run(build_dir, name):
    command = [os.path.join(build_dir, "bench", COMMANDS[name][0]),
               *COMMANDS[name][1:]]
    start = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    return done, time.monotonic() - start


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("build_dir")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    results_dir = os.path.join(ROOT, "results")
    committed = {f for f in os.listdir(results_dir) if f.endswith(".txt")}
    failed = False
    for name in sorted(committed - set(COMMANDS) - UNCHECKED):
        print(f"FAIL {name}: no regeneration command in check_results.py")
        failed = True

    env = {k: os.environ[k] for k in ("SYBILTD_SIMD", "SYBILTD_THREADS")
           if k in os.environ}
    print(f"checking {len(COMMANDS)} results files with {env or 'defaults'}")
    with concurrent.futures.ThreadPoolExecutor(max(1, args.jobs)) as pool:
        futures = {name: pool.submit(run, args.build_dir, name)
                   for name in sorted(COMMANDS)}
        for name, future in futures.items():
            done, seconds = future.result()
            if done.returncode != 0:
                print(f"FAIL {name}: {COMMANDS[name][0]} exited "
                      f"{done.returncode}\n{done.stderr.decode(errors='replace')}")
                failed = True
                continue
            with open(os.path.join(results_dir, name), "rb") as f:
                expected = f.read()
            if done.stdout == expected:
                print(f"ok   {name} ({seconds:.1f} s)")
                continue
            failed = True
            print(f"FAIL {name} differs from the committed copy:")
            sys.stdout.writelines(difflib.unified_diff(
                expected.decode(errors="replace").splitlines(keepends=True),
                done.stdout.decode(errors="replace").splitlines(keepends=True),
                f"results/{name}", "regenerated"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
