#!/usr/bin/env python3
"""Self-test of the benchmark itself.

Run from the repository root:

    python3 perfbench/selftest.py [--seconds 2] [--workload NAME ...]

Checks that
  - BENCHMARK.json is well formed: every workload has a one-line "why",
    names and units use the allowed characters, bounds are at most 0.25,
    and setup_s is an end-to-end metric in seconds with the largest bound;
  - every workload prints every end-to-end metric (--trace 0) and every
    per-layer metric (--trace 1) with the unit BENCHMARK.json names, and a
    well-formed correct/attempted/failed verdict;
  - the rebuilt job of every run moved exactly the bytes and messages of the
    real job (an empty trace_mismatch in the details line);
  - the count metrics (wire_bytes_per_sample, offline_bytes_per_sample) are
    identical across two runs with the same seed.
Exits 0 when all checks pass. A run whose verdict is "correct": false is
printed as a NOTE when the traced rebuild matched: that is the program
failing the benchmark's accuracy or output check, which the benchmark
reports, not a fault of the benchmark.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_METRICS = ("wire_bytes_per_sample", "offline_bytes_per_sample")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def check_spec(spec):
    names = []
    for w in spec["workloads"]:
        names.append(w["name"])
        why = w.get("why", "")
        check(bool(why) and "\n" not in why and len(why) <= 200,
              f"workload {w['name']} records a one-line why")
    for m in spec["end_to_end"] + spec["per_layer"]:
        names.append(m["name"])
        check(NAME.match(m["name"]) is not None and
              UNIT.match(m["unit"]) is not None and
              m["better"] in ("higher", "lower"),
              f"metric {m['name']} has a valid name, unit and direction")
    for m in spec["end_to_end"]:
        check(0 < m["bound"] <= 0.25, f"bound of {m['name']} in (0, 0.25]")
    check(len(names) == len(set(names)), "names are unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and
          setup[0]["better"] == "lower", "setup_s is an end-to-end metric")
    check(bool(setup) and setup[0]["bound"] ==
          max(m["bound"] for m in spec["end_to_end"]),
          "setup_s has the largest bound")


def run(workload, seed, seconds, trace):
    """(details, result) from the last two stdout lines, or None."""
    cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return None
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def check_metrics(output, wanted, label):
    if output is None:
        check(False, f"{label}: run produced a result")
        return None
    info, result = output
    correct, attempted, failed = (result["correct"], result["attempted"],
                                  result["failed"])
    check(isinstance(correct, bool) and attempted >= 1 and
          0 <= failed <= attempted and not (correct and failed),
          f"{label}: well-formed verdict")
    mismatch = info.get("trace_mismatch")
    check(mismatch == "", f"{label}: traced run matches the job "
                          f"({mismatch or 'no difference'})")
    if not correct and mismatch == "":
        print(f"NOTE {label}: program outputs failed the checks "
              f"({failed} of {attempted} jobs over the accuracy gap; "
              f"rebuilt outputs off plaintext by {info['logit_error']})")
    got = result["metrics"]
    check(set(got) == {m["name"] for m in wanted},
          f"{label}: exactly the listed metrics")
    for m in wanted:
        entry = got.get(m["name"])
        check(entry is not None and entry["unit"] == m["unit"] and
              isinstance(entry["value"], (int, float)),
              f"{label}: {m['name']} present in {m['unit']}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    for w in workloads:
        first = check_metrics(run(w, args.seed, args.seconds, 0),
                              spec["end_to_end"], f"{w} --trace 0")
        second = check_metrics(run(w, args.seed, args.seconds, 0),
                               spec["end_to_end"], f"{w} --trace 0 (repeat)")
        if first is not None and second is not None:
            for name in COUNT_METRICS:
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                check(a == b, f"{w}: {name} repeats exactly ({a} vs {b})")
        check_metrics(run(w, args.seed, args.seconds, 1), spec["per_layer"],
                      f"{w} --trace 1")
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
