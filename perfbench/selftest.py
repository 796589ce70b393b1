#!/usr/bin/env python3
"""Self-test of the sketchd benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. Every workload, at tiny scale, prints every metric BENCHMARK.json
   names, with its unit: the end-to-end ones with --trace 0, the
   per-layer ones with --trace 1.
2. Every correctness gate trips when its input is corrupted on purpose
   (--fault): the run prints its reason, reports "correct": false and
   exits 1.
3. In a directory holding only BENCHMARK.json and the benchmark's own
   files, the benchmark exits non-zero without printing a result.

Also runs the perfbench binary's unit tests (cargo test). Exits non-zero on the
first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
RUN = os.path.join("perfbench", "run.py")


def check(cond, msg):
    if not cond:
        print(f"selftest: FAIL: {msg}", file=sys.stderr)
        sys.exit(1)
    print(f"selftest: ok: {msg}")


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, RUN, "--seed", "1", "--seconds", "1", "--tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.abspath(".bench_build"))
    unit = subprocess.run(
        ["cargo", "test", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        cwd=ROOT, env=env)
    check(unit.returncode == 0, "perfbench unit tests pass")

    for w in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = bench("--workload", w["name"], "--trace", trace)
            r = result(proc)
            check(proc.returncode == 0 and r is not None,
                  f"{w['name']} --trace {trace} runs (rc {proc.returncode}) {proc.stderr[-400:]}")
            check(r["correct"] is True and r["attempted"] >= 1,
                  f"{w['name']} --trace {trace} is correct")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: v["unit"] for n, v in r["metrics"].items()}
            check(got == want, f"{w['name']} --trace {trace} prints every {key} metric with its unit")
            check(all(isinstance(v["value"], (int, float)) for v in r["metrics"].values()),
                  f"{w['name']} --trace {trace} values are numbers")

    for fault in ("wrong-oracle", "miscount-ack", "drop-now"):
        proc = bench("--workload", "ingest-hot", "--trace", "0", "--fault", fault)
        r = result(proc)
        check(proc.returncode == 1 and r is not None and r["correct"] is False
              and "correctness gate failed" in proc.stderr,
              f"the gate trips on --fault {fault}")

    bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("target"))
    proc = bench("--workload", "ingest-hot", "--trace", "0", cwd=bare)
    check(proc.returncode != 0 and result(proc) is None,
          "without the repository the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
