#!/usr/bin/env python3
"""Build and run the mstream repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py compare BASE.json NEW.json

The first form builds perfbench (always Release, in .bench_build/ at the
repository root) and runs one workload. The last stdout line is one JSON
object with exactly `correct`, `attempted`, `failed` and `metrics`; the line
before it is the full record, stamped with nproc, CPU model, build type,
thread caps and seed. `--out` appends that record to a JSON-lines file.

`--self-test` runs each workload against golden.txt, then against a copy
with one drawn point moved by one ulp, and checks that every op of the
second run fails cleanly. `compare` reports each metric's median change between
two such files and refuses to compare results from machines whose nproc
differ.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
GOLDEN = os.path.join(HERE, "golden.txt")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no mstream sources under {ROOT}/src; nothing to benchmark")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=840).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def spec_metrics(trace):
    with open(SPEC) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_binary(args, timeout):
    """Run perfbench; return its final JSON record or None."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench exited {proc.returncode}")
        return None
    return json.loads(lines[-1])


def bench(opts):
    if not build():
        return 1
    args = ["--workload", opts.workload, "--seed", str(opts.seed), "--seconds",
            str(opts.seconds), "--trace", str(opts.trace), "--golden", GOLDEN]
    record = run_binary(args, timeout=opts.seconds + 120)
    if record is None:
        return 1
    want = spec_metrics(opts.trace)
    missing = [m for m in want if m not in record["metrics"]]
    if missing:
        log("result lacks metrics: " + ", ".join(missing))
        return 1
    if opts.out:
        with open(opts.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    result = {k: record[k] for k in ("correct", "attempted", "failed")}
    result["metrics"] = {m: record["metrics"][m] for m in want}
    print(json.dumps(result), flush=True)
    return 0


def perturbed_golden(key, path):
    """Copy golden.txt to `path` with `key`'s virtual ms moved by one ulp."""
    with open(GOLDEN) as src, open(path, "w") as dst:
        for line in src:
            fields = line.rstrip("\n").split("\t")
            if fields[0] == key:
                fields[1] = math.nextafter(float.fromhex(fields[1]), math.inf).hex()
            dst.write("\t".join(fields) + "\n")


def self_test():
    """Each workload passes against golden.txt, and fails every op (without
    crashing) against a copy with its first drawn point moved by one ulp."""
    if not build():
        return 1
    with open(SPEC) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    perturbed = os.path.join(ROOT, ".bench_build", "golden-self-test.txt")
    ok = True
    for name in names:
        args = ["--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0", "--golden"]
        clean = run_binary(args + [GOLDEN], timeout=120)
        if clean is None or not clean["correct"]:
            log(f"self-test {name}: FAILED (unperturbed run)")
            ok = False
            continue
        perturbed_golden(clean["points"][0], perturbed)
        record = run_binary(args + [perturbed], timeout=120)
        good = (record is not None and not record["correct"] and record["attempted"] >= 1
                and record["failed"] == record["attempted"])
        log(f"self-test {name}: {'ok' if good else 'FAILED'}"
            + ("" if record is None else f" ({record['failed']}/{record['attempted']} ops failed)"))
        ok = ok and good
    os.remove(perturbed)
    return 0 if ok else 1


def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(base_path, new_path):
    base, new = load_records(base_path), load_records(new_path)
    nprocs = {r["stamp"]["nproc"] for r in base + new}
    if len(nprocs) != 1:
        log(f"refusing to compare results from machines with different nproc: {sorted(nprocs)}")
        return 2
    with open(SPEC) as f:
        spec = json.load(f)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    worse = 0
    for wl in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        for name, (better, bound) in bounds.items():
            a = [r["metrics"][name]["value"] for r in base if r["workload"] == wl and name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in new if r["workload"] == wl and name in r["metrics"]]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            regress = change > bound if better == "lower" else change < -bound
            worse += regress
            print(f"{wl:12} {name:18} {ma:12.4f} -> {mb:12.4f} {change:+8.2%}"
                  f"{'  REGRESSION' if regress else ''}")
    return 1 if worse else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            log("usage: run.py compare BASE.json NEW.json")
            return 2
        return compare(sys.argv[2], sys.argv[3])
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    p.add_argument("--self-test", action="store_true")
    opts = p.parse_args()
    if opts.self_test:
        return self_test()
    if not opts.workload:
        p.error("--workload is required")
    return bench(opts)


if __name__ == "__main__":
    sys.exit(main())
