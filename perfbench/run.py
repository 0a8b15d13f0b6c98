#!/usr/bin/env python3
"""Build pml-mpi and the benchmark from source, then run the benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <select|predict|train|deploy> \
        --seed N --seconds S --trace <0|1>

Both packages are built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`). Build output goes to standard error; the benchmark's
result is the last line of standard output. Exits non-zero, printing no
result, when either build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def cargo_build(env, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest, *extra]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.stderr.write(f"perfbench: build failed: {' '.join(cmd)}\n")
        sys.exit(done.returncode or 1)


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    # The program under test: the repository's own CLI (its daemon).
    cargo_build(env, "Cargo.toml", "--bin", "pml-mpi")
    cargo_build(env, os.path.join(HERE, "Cargo.toml"))
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    done = subprocess.run([exe, *sys.argv[1:]], env=env)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
