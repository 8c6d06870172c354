#!/usr/bin/env python3
"""The benchmark's own test: every workload at its smoke size.

    python3 perfbench/smoke_test.py

Run from the root of a checkout.  For each workload in BENCHMARK.json and
both trace modes, runs perfbench/run.py with --smoke and asserts that the
result line names every metric of that mode with its unit, that no
operation failed (fail_rate 0), and, for the traced run, that every exact
count repeated between the two traced passes.
"""

import json
import subprocess
import sys


def run(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    assert out.returncode == 0, "%s trace %d: exit code %d" % (workload, trace, out.returncode)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            name = "%s trace %d" % (w["name"], trace)
            before = len(problems)
            res = run(w["name"], trace)
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (name, sorted(res)))
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                problems.append("%s: fail_rate %d/%d" % (name, res["failed"], res["attempted"]))
            for m in listed:
                got = res["metrics"].get(m["name"])
                if got is None:
                    problems.append("%s: metric %s missing" % (name, m["name"]))
                elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append("%s: metric %s printed as %s" % (name, m["name"], got))
            if trace == 1 and res["metrics"].get("bench.flagged_counts", {}).get("value") != 0:
                problems.append("%s: an exact count differed between traced passes" % name)
            print("%-24s %s" % (name, "ok" if len(problems) == before else "FAILED"), flush=True)
    for p in problems:
        print("FAIL " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
