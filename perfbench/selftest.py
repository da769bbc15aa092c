#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Runs the OCaml unit tests (percentile rule, span self-time arithmetic,
driver fidelity on a small machine), then checks BENCHMARK.json and
predictions.json against each other and runs every workload briefly, traced
and untraced, checking that each metric BENCHMARK.json names is printed with
its unit.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL " + what)


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(bench, pred):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json keys")
    names = [w["name"] for w in bench["workloads"]]
    check(2 <= len(names) <= 8, "2 to 8 workloads")
    for w in bench["workloads"]:
        check(set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200,
              "workload %s has one-line why" % w["name"])
    metrics = bench["end_to_end"] + bench["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    check(len(all_names) == len(set(all_names)), "names are unique")
    for m in metrics:
        check(NAME.match(m["name"]) is not None, "metric name %s" % m["name"])
        check(UNIT.match(m["unit"]) is not None, "unit of %s" % m["name"])
        check(m["better"] in ("lower", "higher"), "better of %s" % m["name"])
    for m in bench["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
              "end-to-end %s has a bound" % m["name"])
    for m in bench["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, "per-layer %s keys" % m["name"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
          "setup_s in s, lower, with the largest bound")
    # every per-layer metric carries a prediction over known names
    layer = [m["name"] for m in bench["per_layer"]]
    check(sorted(pred["per_layer"]) == sorted(layer), "predictions.json covers exactly the per-layer metrics")
    check(sorted(pred["workloads"]) == sorted(names), "predictions.json names the workloads")
    for name, p in pred["per_layer"].items():
        for w, moved in p["moves"].items():
            check(w in names, "%s: workload %s" % (name, w))
            for m in moved:
                check(m in all_names, "%s: metric %s" % (name, m))
        for w in p["no_change"]:
            check(w in names and w not in p["moves"], "%s: no-change workload %s" % (name, w))


def run_workload(workload, trace):
    proc = subprocess.run(
        [run.EXE, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[:-1], json.loads(lines[-1])


def check_output(bench, workload, trace):
    rc, report, result = run_workload(workload, trace)
    tag = "%s --trace %d" % (workload, trace)
    check(rc == 0, tag + " exits 0")
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, tag + " result keys")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          tag + " is correct")
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    check(sorted(result["metrics"]) == sorted(m["name"] for m in wanted), tag + " prints exactly its metrics")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        check(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
              "%s: %s with unit %s" % (tag, m["name"], m["unit"]))
        if not trace:
            check(got.get("value", 0) > 0, "%s: %s is not zero" % (tag, m["name"]))
        # the human-readable report names the metric with its unit too
        check(any(re.match(r"\s+%s\s+\S+\s+%s(\s|$)" % (re.escape(m["name"]), re.escape(m["unit"])), line)
                  for line in report),
              "%s: report line for %s" % (tag, m["name"]))


def main():
    env = run.build()
    test = subprocess.run(["dune", "test", "--root", run.WS, "--profile", "release", "--display", "quiet"],
                          env=env)
    check(test.returncode == 0, "OCaml unit tests")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "predictions.json")) as f:
        pred = json.load(f)
    check_spec(bench, pred)
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_output(bench, w["name"], trace)
    bad = subprocess.run([run.EXE, "--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True)
    check(bad.returncode != 0 and bad.stdout.strip() == "", "an unknown workload exits non-zero without a result")
    print("selftest: %d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
