#!/usr/bin/env python3
"""Gate on benchmark trend between committed per-PR artifacts.

Every PR commits its microbenchmark results as BENCH_PR<n>.json (one
flat {name: ns_per_op} object, written by bench_to_json.py).  This gate
compares the two newest artifacts and fails if any metric present in
both regressed by more than the threshold (default 25%); every metric is
lower-is-better (ns/op, or bytes):

  new / old  > 1 + threshold   -> FAIL

The threshold is deliberately loose — the artifacts come from different
CI machines on different days — but it still catches the failure mode
that matters: a change that quietly doubles a hot-path cost and would
otherwise surface three PRs later as "the benchmarks got slow at some
point".  Metrics that appear only in the newer artifact (new benchmarks)
or only in the older one (retired benchmarks) are reported and skipped.

Usage: check_bench_trend.py [--dir .] [--threshold 0.25]
       check_bench_trend.py --self-test
"""

import argparse
import glob
import json
import os
import re
import sys

BENCH_RE = re.compile(r"BENCH_PR(\d+)\.json$")


def find_artifacts(directory):
    """All BENCH_PR<n>.json under directory, sorted by PR number."""
    found = []
    for path in glob.glob(os.path.join(directory, "BENCH_PR*.json")):
        match = BENCH_RE.search(os.path.basename(path))
        if match:
            found.append((int(match.group(1)), path))
    return [path for _, path in sorted(found)]


def compare(old, new, threshold):
    """Returns (regressions, skipped) comparing flat metric maps."""
    regressions = []
    for name in sorted(set(old) & set(new)):
        old_value, new_value = float(old[name]), float(new[name])
        if old_value <= 0 or new_value <= 0:
            continue
        ratio = new_value / old_value
        if ratio > 1 + threshold:
            regressions.append((name, old_value, new_value, ratio))
    skipped = sorted(set(old) ^ set(new))
    return regressions, skipped


def run_gate(directory, threshold):
    artifacts = find_artifacts(directory)
    if len(artifacts) < 2:
        print(f"only {len(artifacts)} BENCH_PR*.json artifact(s) in "
              f"{directory!r}; nothing to compare")
        return 0
    old_path, new_path = artifacts[-2], artifacts[-1]
    with open(old_path, encoding="utf-8") as handle:
        old = json.load(handle)
    with open(new_path, encoding="utf-8") as handle:
        new = json.load(handle)
    print(f"comparing {os.path.basename(old_path)} -> "
          f"{os.path.basename(new_path)} "
          f"({len(set(old) & set(new))} shared metrics, "
          f"threshold {threshold:.0%})")

    regressions, skipped = compare(old, new, threshold)
    for name in skipped:
        which = "new" if name in new else "retired"
        print(f"  skip ({which}): {name}")
    for name, old_value, new_value, ratio in regressions:
        print(f"  REGRESSION: {name}  {old_value:.1f} -> {new_value:.1f} "
              f"({ratio:.2f}x)")
    if regressions:
        print(f"FAIL: {len(regressions)} metric(s) regressed beyond "
              f"{threshold:.0%}")
        return 1
    print("OK: no metric regressed beyond the threshold")
    return 0


def self_test():
    """The comparison logic must flag regressions only."""
    old = {"BM_Fast": 100.0, "BM_Retired": 10.0}
    failures = 0

    def check(label, new, expect_names):
        nonlocal failures
        regressions, _ = compare(old, new, threshold=0.25)
        names = [name for name, *_ in regressions]
        if names == expect_names:
            print(f"self-test PASS: {label}")
        else:
            failures += 1
            print(f"self-test FAIL: {label}: got {names}, "
                  f"expected {expect_names}")

    check("within threshold passes", {"BM_Fast": 124.0}, [])
    check("ns/op regression flagged", {"BM_Fast": 126.0}, ["BM_Fast"])
    check("improvement never flagged", {"BM_Fast": 10.0}, [])
    check("new-only metric skipped",
          {"BM_Fast": 100.0, "BM_Brand_New": 9999.0}, [])
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", default=".",
                        help="directory holding BENCH_PR*.json artifacts")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max fractional regression (0.25 = 25%%)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the comparison logic and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    return run_gate(args.dir, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
