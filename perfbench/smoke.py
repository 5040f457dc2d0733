#!/usr/bin/env python3
"""Smoke test of the repository benchmark, at a tiny run length.

Run from the repository root:

    python3 perfbench/smoke.py

It runs every workload of BENCHMARK.json with --seconds 1 (one repetition
per measurement), once with --trace 0 and once with --trace 1, and checks
that each run exits 0, passes its output check, and prints every metric
BENCHMARK.json declares for that mode by name with its unit, in the
human-readable lines and in the final JSON object. It exits 1 if any check
fails. Takes about a minute.
"""

import json
import subprocess
import sys


def check(spec, workload, trace):
    kind = "per_layer" if trace else "end_to_end"
    cmd = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace)]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if r.returncode != 0:
        return ["exit code %d\n%s" % (r.returncode, r.stderr[-2000:])]
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append("output check failed: %s" % lines[-1][:200])
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append("metrics differ from BENCHMARK.json %s: %s"
                        % (kind, sorted(set(got.items()) ^ set(want.items()))))
    # metric lines read "name value unit"
    rows = [l.split() for l in lines[:-1]]
    printed = {(r[0], r[2]) for r in rows if len(r) == 3}
    for name, unit in want.items():
        if (name, unit) not in printed:
            problems.append("%s is not printed with its unit %s" % (name, unit))
    return problems


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems = check(spec, w["name"], trace)
            print("%-12s trace %d  %s" % (w["name"], trace, "ok" if not problems else "FAILED"))
            for p in problems:
                print("    " + p)
            ok = ok and not problems
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
