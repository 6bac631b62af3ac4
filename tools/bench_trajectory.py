#!/usr/bin/env python3
"""Record benchmark trajectories (host perf or simulated SLO) over time.

Runs a bench binary in --csv mode, appends one entry to a JSON history file,
and fails when the tracked value regressed more than the threshold against
the best prior entry. The comparison is keyed per row: only rows whose key
columns match in BOTH entries are summed on each side, so adding a new
scenario (which inflates the raw total) cannot trip the gate, and a prior
entry from an older checkout without the new rows stays comparable forever.
The checksum column is the simulated-behaviour fingerprint: a changed
checksum means the build simulates different events, which the golden tests
gate separately — here it is reported so the trajectory stays interpretable.

The column schema is configurable so one tool serves every bench:
  microbench_simcore (default): key scenario,nodes,pages,lock_model,
      value wall_ms (host perf), checksum checksum.
  serving_mixes: --key-cols policy,mix,phase --value-col p99_us
      --checksum-col cksum (simulated tail latency).

A missing, empty, or corrupt history file is treated as a fresh start (with
a warning), so the first run of a new clone or a wiped file never crashes.

Usage:
  tools/bench_trajectory.py --bench build/bench/microbench_simcore \
      [--file BENCH_simcore.json] [--label "..."] [--commit SHA] \
      [--threshold 0.10] [--csv-in rows.csv] [--no-gate] \
      [--bench-args "--quick"] [--key-cols a,b] [--value-col v] \
      [--checksum-col c]
  tools/bench_trajectory.py --check

--csv-in skips running the binary and ingests a previously captured
`--csv` output instead (used to seed the file from an older checkout).
--check runs the built-in self-test (no benchmark binary needed) and exits
0/1; CI invokes it so gate bugs fail fast instead of mis-gating a PR.

Paired mode measures the change against its parent on the same machine in
the same minutes, so machine speed cancels out:
  tools/bench_trajectory.py --bench build/bench/microbench_simcore \
      --parent-bench ../parent/build/bench/microbench_simcore \
      [--runs 8] [--pin 2] [...]
runs the parent's binary and the change's alternately, --runs times each
(under `taskset -c CPU` with --pin), and keeps each side's fastest value per
row. The entry records the parent's total and `vs_parent`, the change over
the parent on the rows both have, and the gate also fails when `vs_parent`
exceeds 1 + threshold. The best-prior gate applies as without the flag.
"""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import time

DEFAULT_KEY_COLS = "scenario,nodes,pages,lock_model"
DEFAULT_VALUE_COL = "wall_ms"
DEFAULT_CHECKSUM_COL = "checksum"


def run_bench(bench, extra_args, pin=None):
    prefix = ["taskset", "-c", str(pin)] if pin is not None else []
    out = subprocess.run(prefix + [bench] + extra_args + ["--csv"], check=True,
                         capture_output=True, text=True).stdout
    return out


def require_binary(path, what):
    if not (os.path.isfile(path) and os.access(path, os.X_OK)):
        sys.exit(f"bench_trajectory: {what} binary {path!r} is missing or "
                 "not executable")


def fastest_rows(runs, key_cols, value_col):
    """Merge the row lists of several runs: per row key, the lowest value
    (and the first run's other columns), in first-seen order."""
    best = {}
    for rows in runs:
        for r in rows:
            k = row_key(r, key_cols)
            if k not in best or r[value_col] < best[k][value_col]:
                best[k] = dict(best.get(k, r), **{value_col: r[value_col]})
    return list(best.values())


def run_paired(args, extra_args, parse):
    """Run the change's and the parent's binaries alternately, args.runs
    times each, swapping which goes first every round. Returns the fastest
    rows of (change, parent)."""
    require_binary(args.bench, "change")
    require_binary(args.parent_bench, "parent")
    change_runs, parent_runs = [], []
    for i in range(args.runs):
        order = [(args.parent_bench, parent_runs), (args.bench, change_runs)]
        for bench, runs in (order if i % 2 == 0 else order[::-1]):
            runs.append(parse(run_bench(bench, extra_args, args.pin)))
    return change_runs, parent_runs


def parse_rows(text, key_cols, value_col, checksum_col):
    rows = []
    for rec in csv.DictReader(io.StringIO(text)):
        row = {}
        for c in key_cols + [value_col, checksum_col]:
            if c not in rec:
                sys.exit(f"bench_trajectory: CSV is missing column {c!r} "
                         f"(has: {', '.join(rec)})")
        for c in key_cols:
            v = rec[c]
            try:
                v = int(v)  # keep numeric keys numeric in the JSON
            except ValueError:
                pass
            row[c] = v
        row[value_col] = float(rec[value_col])
        row[checksum_col] = rec[checksum_col]
        rows.append(row)
    if not rows:
        sys.exit("bench_trajectory: no CSV rows parsed")
    return rows


def row_key(r, key_cols):
    # str()-normalized so an int 2 from a fresh parse matches a "2" from an
    # older hand-edited history file.
    return tuple(str(r.get(c)) for c in key_cols)


def load_history(path):
    """Load the history file; missing/empty/corrupt all yield a fresh start."""
    fresh = {"schema": 1, "entries": []}
    if not os.path.exists(path):
        return fresh
    try:
        with open(path) as f:
            data = json.load(f)
        if not isinstance(data, dict) or not isinstance(
                data.get("entries"), list):
            raise ValueError("unexpected shape")
        return data
    except (json.JSONDecodeError, ValueError, OSError) as e:
        print(f"bench_trajectory: WARNING {path} unreadable ({e}); "
              "starting a fresh history", file=sys.stderr)
        return fresh


def compare_common(rows, prior_entries, key_cols=None, value_col=None):
    """Tracked-value ratio of `rows` vs the *best* (lowest over shared rows)
    prior entry: the maximum per-entry ratio, so a slow old entry can never
    mask a regression against the fastest one. Returns (ratio, entry) or
    (None, None) when no prior entry shares any row key."""
    key_cols = key_cols or DEFAULT_KEY_COLS.split(",")
    value_col = value_col or DEFAULT_VALUE_COL
    new_by_key = {row_key(r, key_cols): r[value_col] for r in rows}
    best_ratio, best_entry = None, None
    for e in prior_entries:
        common = [(new_by_key[row_key(r, key_cols)], r[value_col])
                  for r in e.get("rows", [])
                  if value_col in r and row_key(r, key_cols) in new_by_key]
        prior_sum = sum(p for _, p in common)
        if not common or prior_sum <= 0:
            continue
        ratio = sum(n for n, _ in common) / prior_sum
        if best_ratio is None or ratio > best_ratio:
            best_ratio, best_entry = ratio, e
    return best_ratio, best_entry


def checksums_differ(rows, other_rows, key_cols, checksum_col):
    """True when a row key both lists contain carries different checksums."""
    other = {row_key(r, key_cols): r.get(checksum_col) for r in other_rows}
    return any(other.get(row_key(r, key_cols), r[checksum_col])
               != r[checksum_col] for r in rows)


def append_and_gate(rows, args, key_cols, value_col, checksum_col,
                    parent_rows=None):
    total = round(sum(r[value_col] for r in rows), 3)
    data = load_history(args.file)

    # Snapshot prior entries before appending: data["entries"] is mutated
    # below, and the gate must compare against the *prior* best only.
    prior = list(data["entries"])
    entry = {
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": args.commit or git_commit(),
        "label": args.label,
        f"total_{value_col}": total,
        "rows": rows,
    }
    vs_parent = None
    if parent_rows is not None:
        entry[f"parent_total_{value_col}"] = round(
            sum(r[value_col] for r in parent_rows), 3)
        vs_parent, _ = compare_common(rows, [{"rows": parent_rows}],
                                      key_cols, value_col)
        if vs_parent is not None:
            entry["vs_parent"] = round(vs_parent, 3)
        if checksums_differ(rows, parent_rows, key_cols, checksum_col):
            print("bench_trajectory: NOTE simulated-behaviour checksums "
                  "differ from the parent's", file=sys.stderr)
    best_ratio, _ = compare_common(rows, prior, key_cols, value_col)
    if best_ratio is not None:
        entry["vs_best_prior"] = round(best_ratio, 3)
        if checksums_differ(rows, prior[-1].get("rows", []), key_cols,
                            checksum_col):
            print("bench_trajectory: NOTE simulated-behaviour checksums "
                  "changed vs previous entry (golden tests gate whether "
                  "that is allowed)", file=sys.stderr)
    data["entries"].append(entry)

    with open(args.file, "w") as f:
        json.dump(data, f, indent=2)
        f.write("\n")
    print(f"bench_trajectory: appended entry ({total} {value_col} total, "
          f"{len(rows)} rows) to {args.file}")

    if args.no_gate:
        return
    limit = 1.0 + args.threshold
    if vs_parent is not None:
        if vs_parent > limit:
            sys.exit(f"bench_trajectory: REGRESSION common-row {value_col} "
                     f"{vs_parent:.3f}x the parent exceeds "
                     f"{limit:.3f}x (threshold {args.threshold:.0%})")
        print(f"bench_trajectory: OK {vs_parent:.3f}x vs the parent "
              "over common rows")
    if best_ratio is not None:
        if best_ratio > limit:
            sys.exit(f"bench_trajectory: REGRESSION common-row {value_col} "
                     f"{best_ratio:.3f}x best prior exceeds "
                     f"{limit:.3f}x (threshold {args.threshold:.0%})")
        print(f"bench_trajectory: OK {best_ratio:.3f}x vs best prior "
              "over common rows")


def git_commit():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              check=True, capture_output=True,
                              text=True).stdout.strip()
    except (subprocess.CalledProcessError, FileNotFoundError):
        return "unknown"


def self_check():
    """Exercise the load tolerance, the intersection gate and the paired
    parent gate in a tempdir; prints one line per case and exits 1 if any
    fails."""
    failures = []
    default_keys = DEFAULT_KEY_COLS.split(",")

    def case(name, ok):
        print(f"bench_trajectory --check: {'ok' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    def row(scenario, ms, checksum="00"):
        return {"scenario": scenario, "nodes": 2, "pages": 4096,
                "lock_model": "coarse", "wall_ms": ms, "checksum": checksum}

    with tempfile.TemporaryDirectory() as d:
        missing = os.path.join(d, "missing.json")
        case("missing file -> fresh history",
             load_history(missing) == {"schema": 1, "entries": []})

        empty = os.path.join(d, "empty.json")
        open(empty, "w").close()
        case("empty file -> fresh history",
             load_history(empty)["entries"] == [])

        corrupt = os.path.join(d, "corrupt.json")
        with open(corrupt, "w") as f:
            f.write("{not json")
        case("corrupt file -> fresh history",
             load_history(corrupt)["entries"] == [])

        shaped = os.path.join(d, "shaped.json")
        with open(shaped, "w") as f:
            json.dump(["wrong", "shape"], f)
        case("wrong-shape file -> fresh history",
             load_history(shaped)["entries"] == [])

        prior = [{"total_wall_ms": 2.0, "rows": [row("a", 1.0), row("b", 1.0)]}]
        ratio, _ = compare_common([row("a", 1.0), row("b", 1.0)], prior)
        case("identical rows -> ratio 1.0", ratio is not None
             and abs(ratio - 1.0) < 1e-9)

        ratio, _ = compare_common([row("a", 2.0), row("b", 2.0)], prior)
        case("2x slower -> ratio 2.0 (would trip 10% gate)",
             ratio is not None and abs(ratio - 2.0) < 1e-9)

        # A new scenario inflates the raw total but must not affect the
        # gate: only rows present in both entries are compared.
        ratio, _ = compare_common(
            [row("a", 1.0), row("b", 1.0), row("new", 50.0)], prior)
        case("new scenario rows excluded from gate",
             ratio is not None and abs(ratio - 1.0) < 1e-9)

        ratio, _ = compare_common([row("other", 1.0)], prior)
        case("no common rows -> no gate", ratio is None)

        # Best prior wins: a slow older entry must not mask a regression
        # against the fastest one.
        two = [{"total_wall_ms": 4.0, "rows": [row("a", 4.0)]},
               {"total_wall_ms": 1.0, "rows": [row("a", 1.0)]}]
        ratio, best = compare_common([row("a", 2.0)], two)
        case("gate compares against best prior",
             ratio is not None and abs(ratio - 2.0) < 1e-9
             and best is two[1])

        parsed = parse_rows("scenario,nodes,pages,lock_model,wall_ms,checksum\n"
                            "a,2,4096,coarse,1.5,00ff\n",
                            default_keys, "wall_ms", "checksum")
        case("csv round-trip", parsed == [row("a", 1.5, "00ff")])

        # Custom column schema (serving_mixes): different keys, a simulated
        # latency value column, extra CSV columns ignored.
        skeys = ["policy", "mix", "phase"]

        def srow(pol, p99, ck="aa"):
            return {"policy": pol, "mix": "scan_mixed", "phase": 0,
                    "p99_us": p99, "cksum": ck}

        parsed = parse_rows(
            "policy,mix,phase,requests,p50_us,p99_us,cksum\n"
            "autonuma,scan_mixed,0,72000,1.1,15.473,aa\n",
            skeys, "p99_us", "cksum")
        case("custom columns parse (extras dropped)",
             parsed == [srow("autonuma", 15.473)])

        sprior = [{"rows": [srow("autonuma", 10.0)]}]
        ratio, _ = compare_common([srow("autonuma", 12.0)], sprior,
                                  skeys, "p99_us")
        case("custom value column ratio",
             ratio is not None and abs(ratio - 1.2) < 1e-9)

        # str()-normalized keys: an int phase matches a stringly-typed one
        # from a hand-edited history.
        stringly = [{"rows": [{"policy": "autonuma", "mix": "scan_mixed",
                               "phase": "0", "p99_us": 10.0, "cksum": "aa"}]}]
        ratio, _ = compare_common([srow("autonuma", 10.0)], stringly,
                                  skeys, "p99_us")
        case("int/str key normalization",
             ratio is not None and abs(ratio - 1.0) < 1e-9)

        merged = fastest_rows([[row("a", 3.0, "01"), row("b", 1.0)],
                               [row("a", 2.0, "02"), row("c", 5.0)]],
                              default_keys, "wall_ms")
        case("fastest row per key across runs",
             merged == [row("a", 2.0, "01"), row("b", 1.0), row("c", 5.0)])

        case("checksum drift on shared rows only",
             checksums_differ([row("a", 1.0, "01"), row("new", 1.0, "02")],
                              [row("a", 2.0, "ff"), row("old", 1.0, "02")],
                              default_keys, "checksum")
             and not checksums_differ([row("a", 1.0, "01"), row("new", 1.0)],
                                      [row("a", 2.0, "01"), row("old", 1.0)],
                                      default_keys, "checksum"))

        # Paired mode end to end, with stand-in binaries that print the CSV.
        # Each one's first run is twice as slow, so only a per-row minimum
        # over the runs gives the ratio the case names.
        def fake_bench(name, ms):
            path = os.path.join(d, name)
            with open(path, "w") as f:
                f.write(f"#!{sys.executable}\n"
                        "import os\n"
                        f"state = {path + '.runs'!r}\n"
                        "n = int(open(state).read()) if os.path.exists(state) else 0\n"
                        "open(state, 'w').write(str(n + 1))\n"
                        f"ms = {ms} * (2.0 if n == 0 else 1.0)\n"
                        "print('scenario,nodes,pages,lock_model,wall_ms,checksum')\n"
                        "print(f'a,2,4096,coarse,{ms},00')\n"
                        "print(f'b,2,4096,coarse,{ms},00')\n")
            os.chmod(path, 0o755)
            return path

        def paired(change_ms, parent):
            history = os.path.join(d, f"paired_{change_ms}.json")
            r = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--bench", fake_bench(f"change_{change_ms}", change_ms),
                 "--parent-bench", parent, "--runs", "3", "--file", history,
                 "--commit", "test"],
                capture_output=True, text=True)
            entries = load_history(history)["entries"]
            return r, entries[-1] if entries else None

        parent = fake_bench("parent", 1.0)
        r, e = paired(1.05, parent)
        case("paired entry at 1.05x the parent passes",
             r.returncode == 0 and e is not None
             and e.get("vs_parent") == 1.05
             and e.get("parent_total_wall_ms") == 2.0
             and e.get("total_wall_ms") == 2.1)
        r, e = paired(1.15, parent)
        case("paired entry at 1.15x the parent fails",
             r.returncode != 0 and "REGRESSION" in r.stderr
             and e is not None and e.get("vs_parent") == 1.15)
        r, e = paired(1.0, os.path.join(d, "no_such_parent"))
        case("missing parent binary -> clean error, nothing appended",
             r.returncode != 0 and "missing" in r.stderr
             and "Traceback" not in r.stderr and e is None)

    if failures:
        sys.exit(f"bench_trajectory --check: {len(failures)} failure(s)")
    print("bench_trajectory --check: all cases passed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", help="path to the bench binary")
    ap.add_argument("--bench-args", default="",
                    help="extra arguments for the bench run (e.g. --quick)")
    ap.add_argument("--file", default="BENCH_simcore.json")
    ap.add_argument("--label", default="")
    ap.add_argument("--commit", default=None)
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="fail when the common-row value exceeds best prior "
                         "by this fraction (default 0.10)")
    ap.add_argument("--key-cols", default=DEFAULT_KEY_COLS,
                    help="comma-separated identity columns of one row")
    ap.add_argument("--value-col", default=DEFAULT_VALUE_COL,
                    help="numeric column the gate tracks")
    ap.add_argument("--checksum-col", default=DEFAULT_CHECKSUM_COL,
                    help="simulated-behaviour fingerprint column")
    ap.add_argument("--parent-bench",
                    help="the parent commit's bench binary: run both "
                         "alternately and gate the change against it too")
    ap.add_argument("--runs", type=int, default=5,
                    help="runs of each binary with --parent-bench; each "
                         "side keeps its fastest value per row (default 5)")
    ap.add_argument("--pin", type=int, default=None, metavar="CPU",
                    help="run the bench binaries under taskset -c CPU")
    ap.add_argument("--csv-in", help="ingest this CSV instead of running")
    ap.add_argument("--no-gate", action="store_true",
                    help="append without the regression check")
    ap.add_argument("--check", action="store_true",
                    help="run the built-in self-test and exit")
    args = ap.parse_args()

    if args.check:
        self_check()
        return

    key_cols = [c.strip() for c in args.key_cols.split(",") if c.strip()]
    if not key_cols:
        ap.error("--key-cols must name at least one column")

    def parse(text):
        return parse_rows(text, key_cols, args.value_col, args.checksum_col)

    parent_rows = None
    if args.parent_bench:
        if not args.bench or args.csv_in:
            ap.error("--parent-bench needs --bench and no --csv-in")
        if args.runs < 1:
            ap.error("--runs must be at least 1")
        change_runs, parent_runs = run_paired(args, args.bench_args.split(),
                                              parse)
        rows = fastest_rows(change_runs, key_cols, args.value_col)
        parent_rows = fastest_rows(parent_runs, key_cols, args.value_col)
    elif args.csv_in:
        with open(args.csv_in) as f:
            rows = parse(f.read())
    elif args.bench:
        rows = parse(run_bench(args.bench, args.bench_args.split(), args.pin))
    else:
        ap.error("one of --bench or --csv-in is required")

    append_and_gate(rows, args, key_cols, args.value_col, args.checksum_col,
                    parent_rows)


if __name__ == "__main__":
    main()
