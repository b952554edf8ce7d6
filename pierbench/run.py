#!/usr/bin/env python3
"""Builds and runs pierbench, the end-to-end benchmark of the PIER stack.

Run from the repository root:

  python3 pierbench/run.py --workload W --seed N --seconds S --trace 0|1
      Builds the driver if needed (CMake, Release, into
      $CARGO_TARGET_DIR/pierbench, default .bench_build/pierbench), runs one
      workload and passes its report through. S sizes the run: the
      workload issues S times its nominal rate of queries, about S seconds
      of work on an idle 4-core machine. The last line of stdout is the
      JSON result. --trace 1 reports the per-layer metrics instead of the
      end-to-end ones and writes a trace file under .bench_build/traces/.

  python3 pierbench/run.py --workload W --repeat K [--seed N] [--seconds S]
      Noise calibration: K untraced runs at seeds N..N+K-1, then one traced
      run at seed N. Prints the median and quartiles of every end-to-end
      metric, its spread as a share of the median, and the tracing overhead.

Workloads: table1, table1_lossy, storm, joins (see pierbench/README.md).
The exit code is nonzero on a bad flag, a failed build, a failed run, or an
answer that fails its oracle check.
"""

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys

WORKLOADS = ("table1", "table1_lossy", "storm", "joins")
HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_JOBS = 2
BUILD_TIMEOUT_S = 850
# A run's work is sized to about --seconds on an idle machine. Set-up, a
# machine several times slower and start-up stay inside this margin; a run
# that overstays is killed and fails.
RUN_MARGIN_S = 150


def target_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def run(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group; on timeout kills the whole group
    and waits for it. Returns (returncode, stdout or None)."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return -1, None
    return proc.returncode, out


def build():
    """Configures (once) and builds the driver. Returns its path, or None."""
    build_dir = target_dir() / "pierbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir.parent / "pierbench-build.log"
    steps = []
    if not (build_dir / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "pierbench",
                  "-j", str(BUILD_JOBS)])
    with open(log_path, "w") as log:
        for step in steps:
            code, _ = run(step, BUILD_TIMEOUT_S, stdout=log,
                          stderr=subprocess.STDOUT)
            if code != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                sys.stderr.write("pierbench build failed (%s):\n%s\n"
                                 % (log_path, "\n".join(tail)))
                return None
    return build_dir / "pierbench"


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload. Returns (returncode, stdout text, parsed result)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = target_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-file", str(traces / ("%s-seed%d.json" % (workload, seed)))]
    code, out = run(cmd, seconds + RUN_MARGIN_S, stdout=subprocess.PIPE,
                    text=True)
    if out is None:
        sys.stderr.write("pierbench: %s seed %d overran its time limit\n"
                         % (workload, seed))
        return 1, "", None
    lines = out.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            result = None
    except (IndexError, ValueError):
        result = None
    if result is None and code == 0:
        code = 1
    return code, out, result


def calibrate(binary, args):
    values = {}
    units = {}
    for seed in range(args.seed, args.seed + args.repeat):
        code, _, result = run_workload(binary, args.workload, seed,
                                       args.seconds, 0)
        if code != 0 or result is None:
            sys.stderr.write("pierbench: %s seed %d failed\n"
                             % (args.workload, seed))
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        if seed == args.seed:
            untraced_ms = result["metrics"]["wall_ms_per_query"]["value"]
    print("%s: %d untraced runs, seeds %d..%d, %d s each"
          % (args.workload, args.repeat, args.seed,
             args.seed + args.repeat - 1, args.seconds))
    print("%-22s %14s %14s %14s %9s  %s"
          % ("metric", "median", "q1", "q3", "iqr/med", "unit"))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print("%-22s %14.6g %14.6g %14.6g %8.2f%%  %s"
              % (name, med, q1, q3, 100 * spread, units[name]))
    code, _, traced = run_workload(binary, args.workload, args.seed,
                                   args.seconds, 1)
    if code != 0 or traced is None:
        sys.stderr.write("pierbench: traced run failed\n")
        return 1
    traced_ms = traced["metrics"]["trace.wall_ms_per_query"]["value"]
    print("tracing overhead at seed %d: %.4g ms/query traced vs %.4g "
          "untraced (%+.1f%%)"
          % (args.seed, traced_ms, untraced_ms,
             100 * (traced_ms / untraced_ms - 1)))
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="PIER end-to-end benchmark", allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="noise calibration: this many seeds")
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in 1..3600")
    if args.repeat == 1 or args.repeat < 0:
        parser.error("--repeat needs at least 2 runs")

    binary = build()
    if binary is None:
        return 1
    if args.repeat:
        return calibrate(binary, args)
    code, out, _ = run_workload(binary, args.workload, args.seed,
                                args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
