#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload <paper_exact|interval_long|service_short> \
        --seed <n> --seconds <n> --trace <0|1> [--size full|tiny]

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); cargo's own output goes to standard error, so the
last line of standard output is the benchmark's JSON result. The exit code
is the benchmark's: 0 when every output check passed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def output_of(cmd):
    """Standard output of `cmd`, stripped, or None when it fails."""
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def commit():
    """HEAD of the repository the benchmark sits in, if it is a git checkout."""
    top = output_of(["git", "-C", ROOT, "rev-parse", "--show-toplevel"])
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    head = output_of(["git", "-C", ROOT, "rev-parse", "HEAD"]) or "unknown"
    dirty = output_of(["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"])
    return head + ("-dirty" if dirty else "")


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: the build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_RUSTC"] = output_of(["rustc", "-V"]) or "unknown"
    env["PERFBENCH_COMMIT"] = commit()
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
