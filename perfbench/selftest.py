#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at a tiny size (--tiny, one second),
untraced and traced, and checks that:
  - the last line of output is the result object with exactly the keys
    correct, attempted, failed and metrics, and the run was correct;
  - every end-to-end metric (untraced) or per-layer metric (traced) is
    printed by name with its declared unit, and no other;
  - a second traced run with the same seed reports the same answer
    checksum and the same counters that must repeat exactly;
  - the benchmark fails, printing no result, in a directory that holds
    only BENCHMARK.json and the benchmark's own files.
Exits non-zero on the first failure.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
EXACT = [
    "storage.page_ios", "storage.sort_ios", "storage.merge_ios",
    "storage.comparisons", "relational.fuzzy_ops", "buffer_pool.hit_ratio",
    "buffer_pool.lookups", "wal.bytes_per_user_byte",
]
SCRATCH = {"_build", "_work", "_out", "__pycache__"}


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def run(bench, workload, trace, cwd=ROOT):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(SEED),
                              "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_of(proc, what):
    if proc.returncode != 0:
        fail(f"{what}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{what}: result keys {sorted(res)}")
    if res["correct"] is not True or res["attempted"] < 1:
        fail(f"{what}: correct={res['correct']} attempted={res['attempted']}")
    checksum = [l for l in lines if l.startswith("answer checksum:")]
    return res, checksum


def check_metrics(res, declared, what):
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        fail(f"{what}: metrics/units differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, "
             f"units {[k for k in want if k in got and got[k] != want[k]]}")
    for k, v in res["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            fail(f"{what}: {k} is not a number")


def bare_copy():
    bare = os.path.join(HERE, "_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=lambda d, names: [n for n in names if n in SCRATCH])
    return bare


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        res, _ = result_of(run(bench, name, 0), f"{name} untraced")
        check_metrics(res, bench["end_to_end"], f"{name} untraced")
        first, sum1 = result_of(run(bench, name, 1), f"{name} traced")
        check_metrics(first, bench["per_layer"], f"{name} traced")
        second, sum2 = result_of(run(bench, name, 1), f"{name} traced again")
        if sum1 != sum2 or not sum1:
            fail(f"{name}: answer checksum {sum1} then {sum2}")
        for k in EXACT:
            a, b = first["metrics"][k]["value"], second["metrics"][k]["value"]
            if a != b:
                fail(f"{name}: {k} = {a} then {b}; it must repeat exactly")
        print(f"selftest: {name} ok ({sum1[0]})")
    bare = bare_copy()
    try:
        proc = run(bench, bench["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("benchmark did not fail in a directory without the program")
    print("selftest: fails without the program, as it must")
    print("selftest: all passed")


if __name__ == "__main__":
    main()
