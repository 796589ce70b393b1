#!/usr/bin/env python3
"""Run one workload of the end-to-end sketchd benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <ingest-hot|ingest-fleet|read-mix> \
        --seed <n> --seconds <s> --trace <0|1> [--tiny] [--fault <name>]

Builds `sketchd` (the repository's release profile) and the `perfbench`
binary from source into $CARGO_TARGET_DIR (default `.bench_build`), then
runs that binary, which spawns sketchd as a child process. The last line
of standard output is the JSON result; build output goes to standard
error. Exit codes: 0 success, 1 a correctness gate failed, 2 the run
could not complete (no result line).
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("ingest-hot", "ingest-fleet", "read-mix")
FAULTS = ("wrong-oracle", "miscount-ack", "drop-now")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def cargo_build(args, target):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed: " + " ".join(cmd))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--tiny", action="store_true", help="shrink every size (self-test)")
    p.add_argument("--fault", choices=FAULTS, help="corrupt one gate's input on purpose")
    a = p.parse_args()

    root = os.getcwd()
    for need in ("Cargo.toml", os.path.join("crates", "server", "Cargo.toml"),
                 os.path.join("perfbench", "Cargo.toml")):
        if not os.path.isfile(os.path.join(root, need)):
            fail(f"run from the root of a checkout: {need} is missing")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cargo_build(["-p", "server", "--bin", "sketchd"], target)
    cargo_build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")], target)

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", repr(a.seconds),
        "--trace", a.trace,
        "--sketchd", os.path.join(target, "release", "sketchd"),
        "--work", ".bench_work",
    ]
    if a.tiny:
        cmd.append("--tiny")
    if a.fault:
        cmd += ["--fault", a.fault]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
