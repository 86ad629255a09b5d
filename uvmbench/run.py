#!/usr/bin/env python3
"""Build and run the uvmsim benchmark for one workload.

    python3 uvmbench/run.py --workload hpgmg-fit --seed 24301 \
        --seconds 55 --trace 0

Run from the repository root. The first run configures and builds the
library and the benchmark binary from source into .bench_build (or
$CARGO_TARGET_DIR when set); later runs only rebuild what changed.

Repetitions of the experiment, each in its own uvmbench process, fill
--seconds, and every metric is the median over them.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are BENCHMARK.json's
end_to_end list, with --trace 1 its per_layer list. The line before it
names the workload, seed and simulated digest.

At the default seed every repetition's simulated digest must equal the one
in uvmbench/digests.json. After a change that is meant to alter simulated
behaviour, rewrite that file with --regenerate-digests.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
WORKLOADS = ("sgemm-oversub", "random-thrash", "hpgmg-fit")
RUN_TIMEOUT_S = 120


def log(msg):
    print("uvmbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the benchmark binary.

    Returns the build directory and the binary's path.
    """
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "uvmbench"],
        check=True, stdout=sys.stderr)
    return build_dir, os.path.join(build_dir, "uvmbench")


def run_bench(binary, out_dir, workload, seed, trace):
    """One experiment in a fresh process; returns its JSON result."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--out", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failure(res, digest, expect):
    """Why one experiment fails its checks, or None."""
    if res["failure"]:
        return res["failure"]
    if res["digest"] != digest:
        return "digest %s differs from first repetition %s" % (
            res["digest"], digest)
    if expect and res["digest"] != expect:
        return "digest %s != committed %s" % (res["digest"], expect)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regenerate-digests", action="store_true",
                        help="rewrite digests.json at the default seed")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no src/ tree next to the benchmark; run from a full checkout")
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(DIGESTS) as f:
        digests = json.load(f)
    default_seed = digests["default_seed"]

    build_dir, binary = build()
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    if args.regenerate_digests:
        for w in WORKLOADS:
            res = run_bench(binary, out_dir, w, default_seed, 0)
            if res["failure"]:
                log("%s failed its checks: %s" % (w, res["failure"]))
                return 1
            digests["digests"][w] = res["digest"]
        with open(DIGESTS, "w") as f:
            json.dump(digests, f, indent=2)
            f.write("\n")
        log("wrote " + DIGESTS)
        return 0

    if args.workload is None:
        parser.error("--workload is required")
    seed = default_seed if args.seed is None else args.seed
    expect = None
    if seed == default_seed:
        expect = digests["digests"][args.workload]
    # Each repetition is its own process, so each starts from the same
    # fresh heap. Repetitions fill the measuring window; one is not started
    # when the median one so far would overrun it.
    reps, rep_walls = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        reps.append(run_bench(binary, out_dir, args.workload, seed, 0))
        rep_walls.append(time.monotonic() - t0)
        if (time.monotonic() - start + statistics.median(rep_walls) >
                args.seconds):
            break
    traced = None
    if args.trace:
        traced = run_bench(binary, out_dir, args.workload, seed, 1)

    digest = reps[0]["digest"]
    failures = [f for f in (failure(r, digest, expect)
                            for r in reps + ([traced] if traced else []))
                if f]
    attempted = len(reps) + (1 if traced else 0)
    for why in failures:
        log("check failed: " + why)

    def median_of(name):
        return statistics.median(r["metrics"][name]["value"] for r in reps)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name == "pass_rate":
            got = {"value": (attempted - len(failures)) / attempted,
                   "unit": "ratio"}
        elif name == "obs.run_overhead":
            got = {"value": traced["metrics"]["core.run_s"]["value"] /
                   median_of("core.run_s"), "unit": "ratio"}
        elif name.startswith("obs."):
            got = traced["metrics"].get(name)
        elif name in reps[0]["metrics"]:
            got = {"value": median_of(name),
                   "unit": reps[0]["metrics"][name]["unit"]}
        else:
            got = None
        if got is None or got["unit"] != m["unit"]:
            log("benchmark binary did not report %s in %s" %
                (name, m["unit"]))
            return 1
        metrics[name] = got

    print("workload=%s seed=%d digest=%s digest_checked=%s repetitions=%d" %
          (args.workload, seed, digest, "yes" if expect else "no",
           len(reps)))
    print(json.dumps({"correct": not failures,
                      "attempted": attempted,
                      "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
