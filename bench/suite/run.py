#!/usr/bin/env python3
"""Build montage_bench from this checkout's sources, run one workload, and
print the result as one JSON line.

usage: python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/suite (default .bench_build/suite) under
the checkout root, and the run's scratch files to its run/ subdirectory. The
last line of standard output is

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end_to_end metric of BENCHMARK.json when --trace is 0, and every
per_layer metric when it is 1. A per-layer metric that does not apply to the
workload (a server counter on a library workload, say) reads 0. The exit
code is nonzero when the build or the run fails or a correctness check
fails; the run itself is killed, with everything it started, after 170 s.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir, env):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ beside bench/suite: nothing to build")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "montage_bench"],
                   stdout=sys.stderr, env=env, check=True)


def run_bench(cmd, env):
    """Run montage_bench in its own process group; kill the whole group
    (the kv_server children included) on timeout and after it exits."""
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: no result after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    # The suite fixes its own configuration: no MONTAGE_* knob from the
    # caller's environment reaches the library or the server.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MONTAGE_")}
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "suite")
    try:
        build(build_dir, env)
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")

    run_dir = os.path.join(build_dir, "run")
    os.makedirs(run_dir, exist_ok=True)
    out = os.path.join(run_dir, "result.json")
    trace = os.path.join(run_dir, "trace.json")
    for stale in (out, trace):
        if os.path.exists(stale):
            os.remove(stale)
    cmd = [os.path.join(build_dir, "montage_bench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--out={out}", f"--run-dir={run_dir}"]
    if args.trace:
        cmd.append(f"--trace={trace}")
    sys.stdout.flush()
    rc = run_bench(cmd, env)
    if rc is None or not os.path.exists(out):
        fail(f"montage_bench produced no result (exit {rc})")

    with open(out) as f:
        result = json.load(f)["workloads"][0]
    correct = rc == 0 and result["correct"]
    if args.trace:
        try:
            with open(trace) as f:
                spans = [e for e in json.load(f)["traceEvents"] if e["ph"] == "X"]
            print(f"run.py: trace has {len(spans)} spans", file=sys.stderr)
        except (OSError, ValueError, KeyError) as e:
            print(f"run.py: unreadable trace: {e}", file=sys.stderr)
            correct = False

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"{args.workload} did not report {m['name']}")
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']!r} != {m['unit']!r} in BENCHMARK.json")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": bool(correct),
                      "attempted": int(max(result["attempted"], 1)),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
