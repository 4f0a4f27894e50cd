#!/usr/bin/env python3
"""Build and run the repository benchmark (one workload per call).

    python3 perfbench/run.py --workload fib-fine --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the library sources in src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
reuse that build. The benchmark binary prints "# " notes and, as its last
stdout line, one JSON object {"correct", "attempted", "failed", "metrics"}.

Exit codes: 0 every result correct; 2 a wrong result or broken accounting
(the JSON says correct=false); 3 an op passed its deadline, 4 the binary
crashed or hung (a failed run is reported, never retried); 1 the build or
the checkout is unusable (no result is printed).
"""
import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fib-fine", "lu-graph", "serve-light", "serve-overload")
# Whole-run budget; the binary's own per-op deadlines fire well before it.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    if not (ROOT / "src" / "core" / "runtime.cpp").is_file():
        log(f"library sources not found under {ROOT / 'src'}")
        return None
    bdir = build_dir()
    cache = bdir / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in cache.read_text():
        shutil.rmtree(bdir)  # configured for another checkout
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", "3"])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=800)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return None
        if res.returncode != 0:
            log(f"build step failed ({res.returncode}): {' '.join(cmd)}")
            return None
    return bdir / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken inputs (the benchmark's own tests)")
    ap.add_argument("--inject-wrong", type=int, default=None, metavar="K",
                    help="corrupt the result of op K of the measured window")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans_dir = build_dir().parent / "perfbench-spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans_dir / f"{args.workload}.bin")]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_wrong is not None:
        cmd += ["--inject-wrong", str(args.inject_wrong)]

    t0 = time.monotonic()
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
        out, rc = res.stdout, res.returncode
    except subprocess.TimeoutExpired as e:  # run() killed and reaped it
        out = e.stdout or ""
        out, rc = out.decode() if isinstance(out, bytes) else out, None
    log(f"{args.workload} ran {time.monotonic() - t0:.1f}s, exit {rc}")

    lines = out.rstrip("\n").split("\n") if out else []
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if rc in (0, 2) and result is not None:
        sys.stdout.write(out)
        return rc
    # Crash, hang, or deadline: report the run as failed.
    sys.stdout.write("".join(l + "\n" for l in lines if l.startswith("# ")))
    why = "hang past the run budget" if rc is None else (
        "an op passed its deadline" if rc == 3 else f"exit status {rc}")
    print(f"# failed run: {why}")
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}))
    return 3 if rc == 3 else 4


if __name__ == "__main__":
    sys.exit(main())
