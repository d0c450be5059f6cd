#!/usr/bin/env python3
"""Builds rdabench from source and runs one workload.

    python3 rdabench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run it from the repository root. The first call configures and builds the
benchmark package (rdabench/CMakeLists.txt, which compiles the program's
libraries from ../src) into .bench_build/rdabench; later calls only rebuild
what changed. Build output goes to stderr.

The binary prints the metrics its workload set, with unit, clock and sample
count. BENCHMARK.json is the catalogue: this script keeps the metrics of the
run's kind (end_to_end for --trace 0, per_layer for --trace 1), checks their
units, reads a per-layer metric of a layer the workload leaves idle as 0, and
prints the result as the last line of stdout. A failed build, a failed output
check, a metric missing from or unknown to the catalogue, or a unit that
differs from it exits non-zero.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "rdabench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "--target", "rdabench", "-j", jobs]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "rdabench"), "-B",
                         BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("rdabench: build step failed: " + " ".join(cmd))


def catalogue(result, trace):
    """The run's metrics in catalogue order, and what is wrong with them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    got = result["metrics"]
    errors = ["metric %s is not in BENCHMARK.json" % n
              for n in sorted(set(got) - known)]
    metrics, idle = {}, []
    for m in spec["per_layer" if trace else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        if name not in got:
            if not trace:
                errors.append("end-to-end metric %s was not measured" % name)
            idle.append(name)
            metrics[name] = {"value": 0.0, "unit": unit}
            continue
        if got[name]["unit"] != unit:
            errors.append("metric %s has unit %s, BENCHMARK.json says %s" %
                          (name, got[name]["unit"], unit))
        metrics[name] = {"value": got[name]["value"], "unit": unit}
    return metrics, idle, errors


def main():
    args = sys.argv[1:]
    build()
    done = subprocess.run([os.path.join(BUILD, "rdabench")] + args,
                          stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").splitlines()
    if "--workload" not in args or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        return done.returncode
    result = json.loads(lines[-1])
    trace = "--trace" in args and args[args.index("--trace") + 1] == "1"
    metrics, idle, errors = catalogue(result, trace)
    for line in lines[:-1]:
        print(line)
    if idle and trace:
        print("idle layers (read as 0): " + " ".join(idle))
    for e in errors:
        print("CHECK FAILED: " + e)
    correct = result["correct"] and not errors
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.stdout.flush()
    if done.returncode != 0:
        return done.returncode
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
