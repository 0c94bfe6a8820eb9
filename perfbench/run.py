#!/usr/bin/env python3
"""Build and run the bcdb benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload batch-fig6|dense-enum|serve-mempool \
        --seed N --seconds S --trace 0|1

Builds perfbench/main.exe from source with dune (release profile, build
tree under .bench_build/, dune's shared cache off), then runs it. Build
output goes to stderr; the program's stdout is printed once it has
exited cleanly, so its last line is the result object. Exits non-zero
without a result when the checkout lacks the library sources, the build
fails, or the run fails or overruns its time limit.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("batch-fig6", "dense-enum", "serve-mempool")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def die(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds from."""
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs
        )
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    for need in ("dune-project", "lib/core/live.ml", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(2, "not a bcdb checkout: %s is missing" % need)

    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(BUILD, "cache"))
    build = [
        "dune", "build", "--root", ROOT, "--build-dir", os.path.join(BUILD, "dune"),
        "--profile", "release", "./perfbench/main.exe",
    ]
    try:
        b = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        die(3, "build failed: %s" % e)
    if b.returncode != 0:
        die(3, "build failed")

    exe = os.path.join(BUILD, "dune", "default", "perfbench", "main.exe")
    cmd = [
        exe, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--commit", source_id(),
    ]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(4, "run exceeded %d s" % RUN_TIMEOUT_S)
    except OSError as e:
        die(4, "run failed: %s" % e)
    if r.returncode != 0:
        die(5, "run exited with %d" % r.returncode)
    sys.stdout.buffer.write(r.stdout)


if __name__ == "__main__":
    main()
