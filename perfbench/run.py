#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload uni_sweep|mp_sweep|svc_mix \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the library and the benchmark from
source into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs the benchmark's self-tests once per build, then runs the workload.
Build output goes to stderr; the last line of stdout is the result JSON.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(bdir):
    """Configures once, rebuilds incrementally, self-tests each new binary."""
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr, "check": True}
    if not (bdir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"], **quiet)
    subprocess.run(["cmake", "--build", str(bdir), "-j", "4"], **quiet)
    binary = bdir / "perfbench"
    stamp = bdir / "selftest.passed"
    if not stamp.exists() or stamp.stat().st_mtime < binary.stat().st_mtime:
        subprocess.run([str(binary), "--selftest"], **quiet)
        stamp.touch()
    return binary


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build or self-test failed: {e}", file=sys.stderr)
        return 1
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans-out",
                str(bdir / f"spans-{args.workload}-{args.seed}.jsonl")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
