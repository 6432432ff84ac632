#!/usr/bin/env python3
"""Gate a plane's cost contract on google-benchmark ratios.

Reads one bench binary's JSON output (--benchmark_format=json) and fails
if any ratio of the named gate exceeds its bound:

  numerator cpu_time / denominator cpu_time  <= bound

The bounds are deliberately loose — CI machines are noisy — but they
still catch the failure each contract forbids: per-packet work
(allocation, locking, formatting, encoding, collector calls) appearing
on a path that should pay at most an untaken branch.

  obs     bench_obs_overhead: the instrumented-but-untraced enqueue path.
  flow    bench_flow_overhead: the forward path with metrics and tracing
          wired but no flow plane (one untaken null branch per forward),
          and the enabled flow plane's increment over it (FlowTable
          record + sampler draw + feeder bookkeeping per hop).
  int     bench_int_overhead: the wired-but-unmarked telemetry path (one
          bool && side-band bit per hop, one sampler draw per send).
  health  bench_health_overhead: the send path with the health plane on;
          its tick runs on the sim clock, amortized at 10x the production
          window density.
  fault   bench_fault_overhead: the enqueue path of a port a FaultEngine
          attached with a plan whose lanes can never fire (attach() leaves
          the port untouched, so it must match no hook at all).

Usage: check_overhead.py {obs,flow,int,health,fault} results.json
"""

import argparse
import json
import sys

# gate -> [(numerator, denominator, bound, what the ratio prices)]
GATES = {
    "obs": [
        ("BM_EnqueueTracingUntraced", "BM_EnqueueNoObserver", 1.25,
         "disabled-path observability overhead"),
    ],
    "flow": [
        ("BM_ForwardObsNoFlow", "BM_ForwardNoObserver", 1.40,
         "no-flow forward-path overhead"),
        ("BM_ForwardFlowEnabled", "BM_ForwardObsNoFlow", 1.50,
         "enabled flow accounting overhead"),
    ],
    "int": [
        ("BM_ForwardWiredUnmarked", "BM_ForwardNoTelemetry", 1.25,
         "disabled-path telemetry overhead"),
    ],
    "health": [
        ("BM_FabricSendHealthEnabled", "BM_FabricSendNoHealth", 1.25,
         "health-plane data-path overhead"),
    ],
    "fault": [
        ("BM_EnqueueEmptyPlan", "BM_EnqueueNoHook", 1.25,
         "empty fault plan overhead"),
    ],
}


def cpu_times(path):
    with open(path, encoding="utf-8") as handle:
        benchmarks = json.load(handle)["benchmarks"]
    return {bench["name"]: float(bench["cpu_time"]) for bench in benchmarks}


def check(gate, times):
    """Prints every ratio of @p gate; returns the failed descriptions."""
    failed = []
    for numerator, denominator, bound, what in GATES[gate]:
        for name in (numerator, denominator):
            if name not in times:
                sys.exit(f"error: benchmark {name!r} missing from results")
        ratio = times[numerator] / times[denominator]
        print(f"{numerator} / {denominator}: {times[numerator]:.1f} / "
              f"{times[denominator]:.1f} ns = {ratio:.3f} (bound {bound})")
        if ratio > bound:
            failed.append(what)
    return failed


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("gate", choices=sorted(GATES))
    parser.add_argument("results", help="the bench binary's JSON output")
    args = parser.parse_args()

    failed = check(args.gate, cpu_times(args.results))
    for what in failed:
        print(f"FAIL: {what} exceeds bound")
    if failed:
        return 1
    print(f"OK: {args.gate} overhead within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
