#!/usr/bin/env python3
"""Build and run the gsopt benchmark.

    python3 perfbench/run.py --workload campaign|tune|campaign_distrib \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which builds the gsopt
library from ../src) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs the helper self-test, times the set-up in
separate processes, runs the workload, checks its outputs against
perfbench/pins.json and its counts against earlier runs of the same
binary, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Exits non-zero when a check fails.
WORKLOADS.md explains the workloads and the metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign", "tune", "campaign_distrib")
SETUP_PROBES = 15
RUN_TIMEOUT_S = 170
# Workloads whose counts and digests must not depend on the seed.
SEED_INVARIANT = ("campaign", "campaign_distrib")
# Each workload's names for the generic end-to-end metrics (see
# WORKLOADS.md): name -> (metric, scale, unit).
WORKLOAD_NAMES = {
    "campaign": {"campaign_s": ("p50_ms", 1e-3, "s"),
                 "warm_load_ms": ("warm_ms", 1, "ms")},
    "tune": {"tune_p50_ms": ("p50_ms", 1, "ms"),
             "tune_p90_ms": ("tail_ms", 1, "ms"),
             "tune_rps": ("throughput_per_s", 1, "1/s"),
             "tune_speedup_pct": ("best_speedup_pct", 1, "%")},
    "campaign_distrib": {"distrib_s": ("p50_ms", 1e-3, "s")},
}


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    """Configure once, then build; returns the benchmark binary."""
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench", "perfbench_test"])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-20:]))
                die("build failed: " + " ".join(cmd))
    test = os.path.join(bdir, "perfbench_test")
    if os.path.exists(test):
        r = subprocess.run([test], capture_output=True, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-2000:])
            die("helper self-test failed")
    return os.path.join(bdir, "perfbench")


def child_env():
    # The program gets only the generated inputs: no ambient gsopt knobs
    # (threads, faults, budgets, extra passes) leak into a run.
    return {k: v for k, v in os.environ.items() if not k.startswith("GSOPT_")}


def setup_seconds(cmd):
    """Median over separate processes of process start to "ready"."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd + ["--setup-only"], stdout=subprocess.PIPE,
                             env=child_env(), cwd=ROOT)
        line = p.stdout.readline()
        samples.append(time.perf_counter() - t0)
        p.stdout.close()
        if p.wait() != 0 or line.strip() != b"ready":
            die("set-up probe failed")
    return statistics.median(samples), samples


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def file_sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_pins(result, errors):
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)
    # The merged distributed directory must be the campaign directory.
    aliases = {"distrib.dir": "campaign.dir"}
    for key, value in result["digests"].items():
        pin = pins.get(aliases.get(key, key))
        if pin is not None and value != pin:
            errors.append("%s digest %s != pinned %s" % (key, value, pin))


def check_repeats(bdir, binary, args, result, errors):
    """Counts and digests must repeat exactly across runs of one binary:
    with the same seed always, and across seeds where the workload is
    seed-invariant. Earlier runs are kept beside the build."""
    path = os.path.join(bdir, "repeats.json")
    try:
        with open(path) as f:
            seen = json.load(f)
    except (OSError, ValueError):
        seen = {}
    sha = file_sha(binary)
    if seen.get("binary") != sha:
        seen = {"binary": sha, "runs": {}}
    key = "%s/trace%d" % (args.workload, args.trace)
    mine = {"counts": result["counts"], "digests": result["digests"]}
    runs = seen["runs"].setdefault(key, {})
    same_seed = runs.get(str(args.seed))
    if same_seed is not None and same_seed != mine:
        errors.append("counts or digests drifted from an earlier run with "
                      "seed %d: %s" % (args.seed, drift(same_seed, mine)))
    if args.workload in SEED_INVARIANT:
        for seed, other in runs.items():
            if other != mine:
                errors.append("counts or digests differ from seed %s: %s"
                              % (seed, drift(other, mine)))
                break
    runs[str(args.seed)] = mine
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def drift(old, new):
    out = []
    for section in ("counts", "digests"):
        for k in sorted(set(old[section]) | set(new[section])):
            if old[section].get(k) != new[section].get(k):
                out.append("%s %s -> %s" % (k, old[section].get(k),
                                            new[section].get(k)))
    return ", ".join(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("seed must be >= 0 and seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    bdir = build_dir()
    binary = build(bdir)
    work = os.path.join(bdir, "work-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--dir", work]
    try:
        setup = None
        if not args.trace:
            setup = setup_seconds(cmd)
        try:
            proc = subprocess.run(
                cmd + ["--seconds", str(args.seconds), "--trace",
                       str(args.trace)],
                stdout=subprocess.PIPE, text=True, env=child_env(),
                cwd=ROOT, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die("the benchmark binary ran past %d s" % RUN_TIMEOUT_S)
        results = os.path.join(bdir, "results")
        os.makedirs(results, exist_ok=True)
        stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
        if os.path.exists(os.path.join(work, "trace.json")):
            shutil.move(os.path.join(work, "trace.json"),
                        os.path.join(results, stem + "-spans.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.splitlines()
    marker = "PERFBENCH_RESULT "
    tagged = [l for l in lines if l.startswith(marker)]
    for l in lines:
        if not l.startswith(marker):
            print(l)
    if not tagged:
        die("the benchmark binary exited %d without a result"
            % proc.returncode)
    result = json.loads(tagged[-1][len(marker):])

    errors = list(result["errors"])
    check_pins(result, errors)
    check_repeats(bdir, binary, args, result, errors)

    metrics = result["metrics"]
    if setup is not None:
        metrics["setup_s"] = {"value": setup[0], "unit": "s"}
    out = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            die("metric %s missing or in the wrong unit" % m["name"])
        out[m["name"]] = got

    record = dict(result["record"])
    record["git_sha"] = git_sha()
    record["workload"] = args.workload
    record["seconds"] = str(args.seconds)
    record["trace"] = str(args.trace)
    if setup is not None:
        record["setup_s.samples"] = str(len(setup[1]))
    attempted = max(1, result["attempted"])
    failed = result["failed"]
    if errors:
        failed = attempted
    for e in errors:
        print("perfbench: CHECK FAILED: " + e, file=sys.stderr)
    print("record: " + json.dumps(record, sort_keys=True))
    print("failed_frac: %.6f (%d of %d attempted)"
          % (failed / attempted, failed, attempted))
    for name, v in sorted(out.items()):
        print("  %-28s %16.6f %s" % (name, v["value"], v["unit"]))
    if not args.trace:
        for name, (metric, scale, unit) in WORKLOAD_NAMES[args.workload].items():
            print("  %-28s %16.6f %s" % (name, out[metric]["value"] * scale,
                                         unit))

    final = {"correct": not errors and proc.returncode == 0,
             "attempted": attempted, "failed": failed, "metrics": out}
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump({"result": final, "record": record, "errors": errors,
                   "digests": result["digests"],
                   "counts": result["counts"]}, f, indent=1, sort_keys=True)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
