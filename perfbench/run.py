#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. It builds `perfbench` and the
`dispersion-serve` binaries in release mode (into `$CARGO_TARGET_DIR`,
for example `.bench_build`, default `perfbench/target`), then runs the
benchmark, which prints the
result as its last line of standard output and exits non-zero when an
output is wrong. Provenance (revision, toolchain, nproc, command) is
recorded with every result under `perfbench/out/`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def capture(cmd):
    """First line of a command's output, or "unknown" if it fails."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", manifest,
        "-p", "dispersion-perfbench", "-p", "dispersion-serve", "--bins",
    ]
    # build output goes to stderr: stdout carries only the result
    if subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    bin_dir = os.path.join(target, "release")
    env["PERFBENCH_REV"] = capture(["git", "rev-parse", "HEAD"])
    env["PERFBENCH_RUSTC"] = capture(["rustc", "-V"])
    env["PERFBENCH_COMMAND"] = " ".join(["python3", "perfbench/run.py"] + sys.argv[1:])
    cmd = [
        os.path.join(bin_dir, "dispersion-perfbench"),
        *sys.argv[1:],
        "--bin-dir", bin_dir,
        "--out", os.path.join(HERE, "out"),
    ]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
