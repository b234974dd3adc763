#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Runs every workload once as it is, where it must report correct answers,
and once per check it exercises with `--perturb CHECK`, which falsifies the
first answer that check is handed. Each perturbed run must report
"correct": false, so no check can pass vacuously or go unwired. Runs are
one second long; the whole test takes a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build helper next to this file)

# The checks each workload hands answers to (see Falsify() in e2e.cc).
CHECKS = {
    "point": ["read", "affected", "count", "clean", "commits", "syncs"],
    "ingest": ["affected", "count", "sum", "quarter", "index", "clean",
               "commits", "syncs", "dispatch"],
    "scan": ["count", "sum", "commits", "syncs"],
    "tenants": ["read", "affected", "count", "clean", "commits", "syncs"],
}
# Checks reached only by the traced replay.
TRACED_CHECKS = {"point": ["index"], "tenants": ["count"]}


def run_once(binary, workload, trace, perturb):
    run_dir = os.path.join(run.ROOT, ".bench_run", f"selftest-{os.getpid()}")
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--dir", run_dir]
    if perturb:
        cmd += ["--perturb", perturb]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=run.RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])["correct"]


def main():
    binary = run.build()
    cases = [(w, 0, None) for w in CHECKS]
    cases += [(w, 0, c) for w, checks in CHECKS.items() for c in checks]
    cases += [(w, 1, c) for w, checks in TRACED_CHECKS.items() for c in checks]
    failures = 0
    for workload, trace, perturb in cases:
        correct = run_once(binary, workload, trace, perturb)
        ok = correct is (perturb is None)
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {workload:8s} trace={trace} "
              f"perturb={perturb or '-':9s} correct={correct}", flush=True)
    print(f"{len(cases) - failures}/{len(cases)} cases passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
