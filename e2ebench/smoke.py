#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

    python3 e2ebench/smoke.py

Runs every workload at the tiny size with and without tracing and checks
that every metric BENCHMARK.json names is printed with its unit and lands
in the final JSON line, that a wrong pinned value makes the command exit
nonzero, that the explorer pin agrees with the committed golden, and that
the command refuses to run outside a checkout.  Takes about a minute.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

# End-to-end names that are printed under their workload-specific alias too.
ALIASES = {
    "campaign_j2": [("runs_per_sec", "runs/s")],
    "explore_n3": [("schedules_per_sec", "schedules/s"),
                   ("words_per_schedule", "words")],
}

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL: " + what)


def run(workload, trace, pins=None, cwd=ROOT, run_py=RUN):
    cmd = [sys.executable, run_py, "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    if pins:
        cmd += ["--pins", pins]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def printed(stdout):
    found = {}
    for line in stdout.splitlines():
        m = re.match(r"metric (\S+) = (\S+) (\S+)", line)
        if m:
            found[m.group(1)] = m.group(3)
    return found


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(workload, trace)
            what = "%s --trace %d" % (workload, trace)
            check(proc.returncode == 0,
                  "%s exited %d: %s" % (what, proc.returncode, proc.stderr[-500:]))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, what + " not correct")
            lines = printed(proc.stdout)
            expected = [(m["name"], m["unit"]) for m in bench[key]]
            if trace == 0:
                expected_lines = expected + ALIASES.get(workload, []) + [
                    ("failed_share", "ratio")]
            else:
                expected_lines = expected
            check(set(result["metrics"]) == {n for n, _ in expected},
                  what + " JSON metric names differ from BENCHMARK.json")
            for name, unit in expected:
                got = result["metrics"].get(name, {})
                check(got.get("unit") == unit,
                      "%s: %s has unit %s, want %s" % (what, name, got.get("unit"), unit))
            for name, unit in expected_lines:
                check(lines.get(name) == unit,
                      "%s: no line 'metric %s = ... %s'" % (what, name, unit))

    # A wrong pin must fail the run.
    with open(os.path.join(HERE, "pins.txt")) as f:
        pins = f.read()
    wrong = re.sub(r"^(steady_n128 tiny 0 generated=)(\d+)",
                   lambda m: m.group(1) + str(int(m.group(2)) + 1), pins,
                   flags=re.M)
    check(wrong != pins, "pins.txt has no steady_n128 tiny seed 0 line")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pins.txt")
        with open(path, "w") as f:
            f.write(wrong)
        proc = run("steady_n128", 0, pins=path)
        check(proc.returncode != 0, "a wrong pinned value did not fail the run")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        check(not result["correct"] and result["failed"] > 0,
              "a wrong pinned value was not counted as failed")

        # Outside a checkout: nonzero exit and no result line.
        bare = os.path.join(tmp, "bare")
        shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run("steady_n128", 0, cwd=bare,
                   run_py=os.path.join(bare, "e2ebench", "run.py"))
        check(proc.returncode != 0, "ran outside a checkout")
        check("{" not in proc.stdout, "printed a result outside a checkout")

    # The explorer pin mirrors the committed golden report.
    with open(os.path.join(ROOT, "test", "expect", "explore_n3_w2_crash.json")) as f:
        space = json.load(f)["space"]
    line = next(l for l in pins.splitlines() if l.startswith("explore_n3 full -"))
    pinned = dict(kv.split("=", 1) for kv in line.split()[3:])
    for key in ("total", "explored", "pruned", "max_depth"):
        check(pinned[key] == str(space[key]),
              "explore pin %s=%s, golden %s" % (key, pinned[key], space[key]))
    check(pinned["truncated"] == str(space["truncated"]).lower(),
          "explore pin truncated differs from the golden")

    print("smoke: %s" % ("FAILED (%d)" % len(failures) if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
