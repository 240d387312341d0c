#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload and seed.

    python3 perfbench/run.py --workload mixed_warm --seed 7 --seconds 10 --trace 0

Builds the `spider-perfbench` package (perfbench/Cargo.toml) from source
into $CARGO_TARGET_DIR (default `.bench_build`), runs it as a child process
and reads its peak resident set (VmHWM, via wait4's ru_maxrss) from outside.
The last stdout line is the JSON result; with `--trace 0` it holds the
end-to-end metrics, with `--trace 1` the per-layer metrics, and the traced
run's spans are written to perfbench/out/<workload>.trace.json. Exits
non-zero without a result line when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def run(binary, argv):
    """Run the benchmark binary; return (exit code, stdout lines, peak RSS MiB)."""
    proc = subprocess.Popen([binary] + argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    # ru_maxrss is the child's VmHWM in KiB on Linux.
    return proc.returncode, out.splitlines(), usage.ru_maxrss / 1024.0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject-mismatch", action="store_true",
                   help="corrupt one served checksum; the run must report it")
    p.add_argument("--inject-failure", action="store_true",
                   help="let one request expire; the run must report it")
    args = p.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(target_dir):
        return 1
    binary = os.path.join(ROOT, target_dir, "release", "spider-perfbench")
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(ROOT, "perfbench", "out")
        os.makedirs(out_dir, exist_ok=True)
        argv += ["--trace-out", os.path.join(out_dir, f"{args.workload}.trace.json")]
    if args.inject_mismatch:
        argv.append("--inject-mismatch")
    if args.inject_failure:
        argv.append("--inject-failure")

    code, lines, peak_rss_mib = run(binary, argv)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if result is None or "correct" not in result:
        print(f"perfbench: run exited with {code} and no result", file=sys.stderr)
        return code or 1
    # A run whose outputs were wrong still prints its result (correct: false)
    # and exits non-zero.
    if not args.trace:
        result["metrics"]["peak_rss_mib"] = {"value": peak_rss_mib, "unit": "MiB"}
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
