#!/usr/bin/env python3
"""Check that each bench binary accepts only the machine-wide flags it applies.

For each of the five machine-wide flags (bench/common.hpp: --stlb, which
every binary applies, and the four of MachineFlags):
  - if `BIN --help` lists the flag, `BIN --flag=V --help` must exit 0;
  - otherwise `BIN --flag=V` must exit 2 with a message naming the flag.
The flags a binary lists must be all five less those REFUSED names for it.
Nothing is simulated: an accepted flag is checked together with --help, and
a refused one must fail while the command line is parsed.

Usage: flag_surface_check.py BIN...
Exits 1 and prints one line per mismatch when any check fails.
"""

import os
import re
import subprocess
import sys

# One valid value per flag.
FLAGS = {
    "--lock-model": "range",
    "--migration-mode": "transactional",
    "--tier-spec": "nodes=2 cores=2",
    "--demotion": "off",
    "--stlb": "off",
}

# The flags a binary refuses because its machines set that field themselves.
# Every binary not named here accepts all five.
REFUSED = {
    "ablation_larger_machine": {"--tier-spec"},
    "ablation_lock_model": {"--lock-model"},
    "ablation_tiering": {"--migration-mode", "--demotion"},
    "ablation_txn_migration": {"--migration-mode"},
    "microbench_simcore": {"--lock-model", "--tier-spec"},
}

# A refused flag must fail while parsing; a binary that runs its sweep
# instead is a failure, not a hang.
TIMEOUT_S = 60


def run(cmd):
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, ""
    return p.returncode, p.stderr


def check(binary):
    name = os.path.basename(binary)
    errors = []
    code, usage = run([binary, "--help"])
    if code != 0:
        return [f"{name}: --help exits {code}"]
    listed = {f for f in FLAGS if re.search(r"\[" + re.escape(f) + "=", usage)}
    expected = set(FLAGS) - REFUSED.get(name, set())
    if listed != expected:
        errors.append(f"{name}: --help lists {sorted(listed)}, "
                      f"expected {sorted(expected)}")
    for flag, value in FLAGS.items():
        arg = f"{flag}={value}"
        if flag in listed:
            code, _ = run([binary, arg, "--help"])
            if code != 0:
                errors.append(f"{name}: '{arg} --help' exits {code}, "
                              "expected 0")
        else:
            code, err = run([binary, arg])
            if code != 2 or flag not in err:
                errors.append(f"{name}: '{arg}' exits {code}, expected 2 "
                              "with a message naming the flag")
    return errors


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    errors = []
    for binary in sys.argv[1:]:
        errors += check(binary)
    for e in errors:
        print(e)
    print(f"flag_surface_check: {len(sys.argv) - 1} binaries, "
          f"{len(errors)} mismatches")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
