#!/usr/bin/env python3
"""Builds the simulator through the repository's CMake project and runs one
benchmark workload (or all of them), printing the result as the last line.

    python3 perfbench/run.py --workload lowload --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                 # every workload, untraced
    python3 perfbench/run.py --selftest      # negative tests of the checks

The result line is one JSON object with the keys correct, attempted, failed
and metrics (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1).  --seconds defaults to run_seconds in BENCHMARK.json.  Build output goes to .bench_build/ (or $CARGO_TARGET_DIR),
scratch files to .bench_run/, both under the repository root.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["lowload", "saturation", "paper_sweep", "serve_tiny"]
TARGETS = ["pnoc_perf", "pnoc_run", "pnoc_serve"]
BUILD_TIMEOUT_S = 850

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds pnoc_perf and the tools it runs."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no simulator sources next to perfbench/ (expected CMakeLists.txt"
             " and src/ at " + ROOT + ")")
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_root, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                  "--target"] + TARGETS)
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as error:
                fail("build step %s failed: %s" % (step[:2], error))
            if code != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    return os.path.join(build_dir, "bin")


def run_seconds():
    """The run length BENCHMARK.json sets."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)["run_seconds"]
    except (OSError, ValueError, KeyError) as error:
        fail("cannot read run_seconds from BENCHMARK.json: %s" % error)


def run_perf(bin_dir, args, seconds):
    """Runs pnoc_perf with `args` from the repository root; returns its exit
    code after copying its output through."""
    # A run measures for `seconds`, then finishes its last operation (a
    # sweep takes about 6 s) and checks its outputs; two minutes more is
    # stuck.
    timeout = seconds + 130
    work = os.path.join(".bench_run", "%s-%d" % (args[0] if args else "run", os.getpid()))
    command = [os.path.join(bin_dir, "pnoc_perf"), "--bin", bin_dir, "--work", work]
    # Own process group, so a timeout also stops the daemon and workers that
    # pnoc_perf started.
    proc = subprocess.Popen(command + args[1:], cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("pnoc_perf did not finish within %g s" % timeout)
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    sys.stdout.write(out)
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the negative tests of the output checks")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = run_seconds()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    bin_dir = build()
    if args.selftest:
        sys.exit(run_perf(bin_dir, ["selftest", "--selftest"], args.seconds))
    names = WORKLOADS if args.workload == "all" else [args.workload]
    code = 0
    for name in names:
        if len(names) > 1:
            print("workload " + name, flush=True)
        spans = os.path.join(".bench_run", "spans")
        os.makedirs(os.path.join(ROOT, spans), exist_ok=True)
        code = run_perf(bin_dir, [
            name, "--workload", name, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--spans", os.path.join(spans, "%s-seed%d.json" % (name, args.seed))],
            args.seconds) or code
    sys.exit(code)


if __name__ == "__main__":
    main()
