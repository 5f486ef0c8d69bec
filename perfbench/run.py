#!/usr/bin/env python3
"""Build and run the end-to-end tracer benchmark (see NOTES.md).

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Configures and builds perfbench/ (which compiles ../src) into the
directory named by CARGO_TARGET_DIR, default .bench_build, then runs
the benchmark binary in place of this process. The binary's last
stdout line is the JSON result; its exit status is this script's.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build(build_dir: Path) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", "3"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["record-single", "lease-batch", "pipeline"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    work = build_dir / "work"
    work.mkdir(parents=True, exist_ok=True)
    sys.stdout.flush()
    os.execv(str(binary), [
        str(binary), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", str(work)])
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
