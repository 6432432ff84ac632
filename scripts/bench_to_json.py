#!/usr/bin/env python3
"""Collect the repo's microbenchmark results into one JSON document.

Runs the google-benchmark binaries (bench_obs_overhead,
bench_fault_overhead, bench_flow_overhead, bench_int_overhead,
bench_health_overhead, bench_event_queue) with
--benchmark_format=json and folds every benchmark into a flat
{name: ns_per_op} map using cpu_time; then runs bench_header_overhead and
records its INT_BYTES line (trailer bytes per hop with path telemetry
off/on) under header.int_*.

The output (default BENCH_PR10.json) is what CI uploads as the per-build
performance artifact, so the schema is deliberately trivial: one flat
object, names stable across runs, values in nanoseconds (except the
byte-valued header.int_* entries).  Every metric is lower-is-better.

Usage: bench_to_json.py --bindir build/bench [--out BENCH_PR10.json]
"""

import argparse
import json
import re
import subprocess
import sys

GBENCH_BINARIES = [
    "bench_obs_overhead",
    "bench_fault_overhead",
    "bench_flow_overhead",
    "bench_int_overhead",
    "bench_health_overhead",
    "bench_event_queue",
]

# INT_BYTES per_hop_off=4 per_hop_on=40 record=36
INT_BYTES = re.compile(
    r"INT_BYTES\s+per_hop_off=(\d+)\s+per_hop_on=(\d+)\s+record=(\d+)")


def run_gbench(bindir, name, results):
    out = subprocess.run(
        [f"{bindir}/{name}", "--benchmark_format=json"],
        capture_output=True, text=True, check=True).stdout
    for bench in json.loads(out)["benchmarks"]:
        results[bench["name"]] = float(bench["cpu_time"])


def run_header_overhead(bindir, results):
    out = subprocess.run(
        [f"{bindir}/bench_header_overhead"],
        capture_output=True, text=True, check=True).stdout
    match = INT_BYTES.search(out)
    if match is None:
        sys.exit("error: no INT_BYTES line in bench_header_overhead output")
    off, on, record = (int(g) for g in match.groups())
    results["header.int_bytes_per_hop_off"] = off
    results["header.int_bytes_per_hop_on"] = on
    results["header.int_record_bytes"] = record


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bindir", default="build/bench",
                        help="directory holding the bench binaries")
    parser.add_argument("--out", default="BENCH_PR10.json",
                        help="output JSON path")
    args = parser.parse_args()

    results = {}
    for name in GBENCH_BINARIES:
        run_gbench(args.bindir, name, results)
    run_header_overhead(args.bindir, results)

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out} ({len(results)} benchmarks, ns/op)")


if __name__ == "__main__":
    main()
