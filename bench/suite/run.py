#!/usr/bin/env python3
"""The numasim benchmark: one command that builds, runs and checks it.

Run from the repository root:

  python3 bench/suite/run.py                      # every workload, 5 reps each
  python3 bench/suite/run.py --trace              # + a traced rep per workload
  python3 bench/suite/run.py --workload kv_autonuma --seed 3 --seconds 10
  python3 bench/suite/run.py --out A.json          # keep the raw results
  python3 bench/suite/run.py --compare A.json B.json

Each workload runs in its own process (bench/suite's numasim_bench, built in
Release into .bench_build/ from this checkout's src/). Every metric is printed
as `workload metric value unit`. With --workload, the last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}
holding the end-to-end metrics of BENCHMARK.json (or, with --trace, its
per-layer metrics). The exit code is non-zero when any check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "numasim_bench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ["lu_table1", "migrate_fig7", "kv_autonuma", "kv_tiered_writes"]
MIN_REPS = 5
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open(SPEC) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC}: {e}")


def build():
    """Configure once, then build incrementally; all output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/ is missing: run from the root of a full numasim checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "numasim_bench", "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def run_workload(name, seed, seconds, trace):
    """Run one workload in its own process; returns the binary's JSON."""
    cmd = [BINARY, f"--workload={name}", f"--seed={seed}", f"--reps={MIN_REPS}",
           f"--seconds={seconds}"]
    if trace:
        cmd.append(f"--trace={os.path.join(BUILD, f'trace_{name}.json')}")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{name}: no result within {RUN_TIMEOUT_S} s")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{name}: numasim_bench exited with {r.returncode}")
    return json.loads(lines[-1])


def print_result(res, trace):
    w = res["workload"]
    for name, m in res["metrics"].items():
        print(f"{w} {name} {m['value']:.6g} {m['unit']}")
    frac = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    print(f"{w} failed_frac {frac:.6g} ratio")
    if trace:
        for name, m in sorted(res["layer"].items()):
            print(f"{w} {name} {m['value']:.6g} {m['unit']}")
        for name, ms in sorted(res["layer_self_ms"].items()):
            print(f"{w} self_ms.{name} {ms:.6g} ms")
    print(f"{w} reps={res['reps']} op_samples={res['op_samples']} "
          f"checksum={res['checksum']} correct={res['correct']}")
    for c in res["checks"]:
        print(f"{w} CHECK FAILED: {c}")


def result_line(res, spec, trace):
    """The last output line: exactly the metrics BENCHMARK.json names."""
    source = res["layer"] if trace else res["metrics"]
    names = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in names:
        if m["name"] in source:
            metrics[m["name"]] = {"value": source[m["name"]]["value"],
                                  "unit": source[m["name"]]["unit"]}
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def spread(values):
    """Inter-quartile distance over the median (0 for fewer than 2 values)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def compare(path_a, path_b, spec):
    """Apply BENCHMARK.json's bounds to two result sets (A = baseline)."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    bad = 0
    for w in WORKLOADS:
        ra, rb = a["workloads"].get(w), b["workloads"].get(w)
        if ra is None or rb is None:
            print(f"{w}: missing from {'A' if ra is None else 'B'}")
            continue
        same_seed = ra["seed"] == rb["seed"]
        for side, r in (("A", ra), ("B", rb)):
            if not r["correct"] or r["failed"] != 0:
                print(f"{w}: {side} correct={r['correct']} failed={r['failed']}")
                bad += 1
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va, vb = ra["metrics"][name]["value"], rb["metrics"][name]["value"]
            if m["unit"].startswith("sim_"):
                if not same_seed:
                    verdict = "seed differs"
                elif va == vb:
                    verdict = "identical"
                else:
                    verdict, bad = "MISMATCH", bad + 1
            else:
                sa = spread(ra["metrics"][name].get("reps", []))
                worse = (vb - va) if m["better"] == "lower" else (va - vb)
                allowed = bound * va
                if name == "setup_s":
                    allowed = max(allowed, 0.005)  # sub-5 ms set-ups: 5 ms floor
                if worse <= allowed:
                    verdict = "ok"
                elif sa > bound:
                    verdict = "unresolved (A's own spread exceeds the bound)"
                else:
                    verdict, bad = "REGRESSION", bad + 1
                verdict += f" (A spread {sa:.1%}, bound {bound:.0%})"
            change = (vb / va - 1.0) if va else 0.0
            print(f"{w} {name} A={va:.6g} B={vb:.6g} {change:+.1%} {verdict}")
    return bad


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload and end with the result line")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=0,
                   help="after 5 reps, add reps while one more ends within "
                        "this many seconds")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   help="add a traced rep and report per-layer metrics")
    p.add_argument("--out", help="write the raw results of every workload here")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = p.parse_args()
    spec = load_spec()

    if args.compare:
        sys.exit(1 if compare(args.compare[0], args.compare[1], spec) else 0)

    build()
    names = [args.workload] if args.workload else WORKLOADS
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace)
        print_result(res, args.trace)
        results[name] = res
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "workloads": results}, f, indent=1, sort_keys=True)
            f.write("\n")
    ok = all(r["correct"] for r in results.values())
    if args.workload:
        print(json.dumps(result_line(results[args.workload], spec, args.trace)))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
