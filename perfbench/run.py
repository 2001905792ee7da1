#!/usr/bin/env python3
"""Build and run the benchmark of record.

    python3 perfbench/run.py --workload <analytics|multimodal> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the engine and the `perfbench` binary
from source into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs one measurement, and prints its report; the last line of
standard output is the JSON result. Its metric names are checked against
BENCHMARK.json before it is printed.

    python3 perfbench/run.py --self-test

builds and runs the benchmark's own unit tests instead.
"""

import json
import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build(target):
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return None
    cmd = ["cmake", "--build", out, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return os.path.join(out, target)


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def valid_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        log("the last line of the report is not JSON")
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"unexpected result keys {sorted(result)}")
        return False
    want = declared_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        log(f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"extra {extra}, wrong unit {wrong}")
        return False
    return True


def environment(workload):
    env = dict(os.environ)
    # Spill files stay inside the build directory.
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = os.path.abspath(tmp)
    # analytics has one client, and the pool is what it measures.
    # multimodal has four clients, one per CPU; a pool on top of them only
    # added threads contending for the same CPUs, and its latencies then
    # followed the host's load more closely.
    threads = (os.cpu_count() or 1) if workload == "analytics" else 1
    env.setdefault("TDP_NUM_THREADS", str(threads))
    commit = "unknown"
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    env["PERFBENCH_COMMIT"] = commit
    return env


def self_test():
    binary = build("perfbench_tests")
    if binary is None:
        return 1
    return subprocess.run([binary]).returncode


def stop(signum, frame):
    # subprocess.run kills and waits for its child when an exception leaves
    # it, so a terminated run.py leaves no perfbench process behind.
    raise SystemExit(128 + signum)


def main(argv):
    signal.signal(signal.SIGTERM, stop)
    if argv == ["--self-test"]:
        return self_test()
    if "--trace" not in argv:
        log("usage: run.py --workload W --seed N --seconds S --trace 0|1")
        return 2
    trace = argv[argv.index("--trace") + 1] == "1"
    workload = argv[argv.index("--workload") + 1] if "--workload" in argv else ""
    binary = build("perfbench")
    if binary is None:
        return 1
    out_dir = os.path.join(build_dir(), "traces")
    os.makedirs(out_dir, exist_ok=True)
    try:
        proc = subprocess.run([binary, *argv, "--out-dir", out_dir],
                              stdout=subprocess.PIPE, text=True,
                              env=environment(workload), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"the run did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log(f"perfbench failed (exit code {proc.returncode})")
        return proc.returncode or 1
    print("\n".join(lines[:-1]), flush=True)
    if not valid_result(lines[-1], trace):
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
