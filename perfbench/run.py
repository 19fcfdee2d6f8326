#!/usr/bin/env python3
"""Host-cost benchmark of the RDDR simulator.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload <name> --seed <n> --selftest

`--workload all` runs every workload in turn and prints one
"<workload> <json>" line each.

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench
(or $CARGO_TARGET_DIR/perfbench when that is set), then replaces itself with
the benchmark binary. The binary's last stdout line is the JSON result;
build output goes to stderr. Workloads: pgbench_select, http_csrf,
sharded_rw_durable (see BENCHMARK.json for why each exists).
"""
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "rddr_perfbench"
WORKLOADS = ["pgbench_select", "http_csrf", "sharded_rw_durable"]


def die(msg, code=2):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no RDDR sources next to perfbench/ (expected src/CMakeLists.txt)")
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    build_dir = os.path.join(base, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "--target", TARGET,
                      "-j", jobs])
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
            if rc != 0:
                die("build step failed: %s" % " ".join(cmd))
    return os.path.join(build_dir, TARGET)


def run_all(binary, args):
    """Runs every workload; returns nonzero when any run failed."""
    at = args.index("--workload") + 1
    worst = 0
    for name in WORKLOADS:
        argv = args[:at] + [name] + args[at + 1:]
        p = subprocess.run([binary] + argv, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True)
        lines = p.stdout.strip().splitlines()
        print("%s %s" % (name, lines[-1] if lines else "{}"), flush=True)
        worst = worst or p.returncode
    return worst


def main():
    binary = build()
    args = sys.argv[1:]
    if args.count("--workload") == 1 and args[args.index("--workload") + 1:][:1] == ["all"]:
        sys.exit(run_all(binary, args))
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()
