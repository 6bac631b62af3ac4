#!/usr/bin/env python3
"""Run a benchmark command and check the result line it ends with.

  python3 bench/suite_result_check.py [--end-to-end-only] -- CMD [ARG...]

CMD is bench/suite's numasim_bench or `python3 bench/suite/run.py
--workload W`. It must exit 0, and the last line of its standard output must
be one JSON object with `correct` true and `failed` 0, holding every
`end_to_end` metric of BENCHMARK.json in `metrics` with a finite value above
0, and every `per_layer` metric in `layer`. run.py's untraced line carries the
end-to-end metrics only: pass --end-to-end-only for it. The command's
standard output is echoed; the exit code is 1 when a check fails.
"""
import argparse
import json
import math
import os
import subprocess
import sys

SPEC = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    "..", "BENCHMARK.json"))


def problems(line, spec, end_to_end_only):
    """Everything wrong with the result line; empty when it passes."""
    try:
        res = json.loads(line)
    except ValueError:
        return [f"last line is not JSON: {line!r}"]
    if not isinstance(res, dict):
        return [f"last line is not a JSON object: {line!r}"]
    bad = []
    if res.get("correct") is not True:
        bad.append(f"correct is {res.get('correct')!r}, not true")
    if res.get("failed") != 0:
        bad.append(f"failed is {res.get('failed')!r}, not 0")
    metrics = res.get("metrics") or {}
    for m in spec["end_to_end"]:
        entry = metrics.get(m["name"])
        v = entry.get("value") if isinstance(entry, dict) else None
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            bad.append(f"end-to-end metric {m['name']} is missing or not a number")
        elif not math.isfinite(v) or v <= 0:
            bad.append(f"end-to-end metric {m['name']} = {v}, not finite and above 0")
    if not end_to_end_only:
        layer = res.get("layer") or {}
        bad += [f"per-layer metric {m['name']} is missing"
                for m in spec["per_layer"] if m["name"] not in layer]
    return bad


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--end-to-end-only", action="store_true",
                   help="do not require the per-layer metrics")
    p.add_argument("cmd", nargs=argparse.REMAINDER)
    args = p.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd:
        p.error("no command given")
    with open(SPEC) as f:
        spec = json.load(f)

    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(r.stdout)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0:
        bad = [f"exited with {r.returncode}"]
    elif not lines:
        bad = ["printed nothing"]
    else:
        bad = problems(lines[-1], spec, args.end_to_end_only)
    for b in bad:
        print(f"suite_result_check: {' '.join(cmd)}: {b}", file=sys.stderr)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
