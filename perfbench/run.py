#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

Run from the root of a checkout. The library and the perfbench binary are
compiled (Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; a later run only rebuilds what changed. The
binary's standard output is passed through unchanged: host facts first,
the result JSON last. Traced runs leave their Chrome trace-event JSON in
<build root>/perfbench-traces.
"""

import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(1)


def build(build_dir):
    """Configures once, then builds incrementally; returns the binary."""
    log_path = os.path.join(build_dir, "perfbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed (%s)" % " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main(argv):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the library sources are missing; run from a full checkout")
    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(os.path.join(build_root, "perfbench"))

    runs = os.path.join(build_root, "perfbench-runs")
    traces = os.path.join(build_root, "perfbench-traces")
    os.makedirs(runs, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=runs)
    # A relative work directory keeps the daemon's socket path short.
    relative_work_dir = os.path.relpath(work_dir, ROOT)
    try:
        child = subprocess.run(
            [binary] + argv + ["--work-dir", relative_work_dir],
            cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work_dir, ignore_errors=True)
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(child.stdout.decode())
    sys.stdout.flush()
    for name in os.listdir(work_dir):
        if name.startswith("trace-") and name.endswith(".json"):
            shutil.move(os.path.join(work_dir, name),
                        os.path.join(traces, name))
    shutil.rmtree(work_dir, ignore_errors=True)
    return child.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
