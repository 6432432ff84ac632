#!/usr/bin/env python3
"""Builds and runs the Sirpent whole-fabric benchmark.

usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (CMake, Release) into .bench_build/perfbench,
runs one measurement, and prints the benchmark's report: the cross-checks,
the workload characterization, the machine, the spread of every metric over
the runs recorded so far on this machine and source tree, and, as the last
line, the JSON result.  Each result is appended to
.bench_build/perfbench-out/history.jsonl.  Exits non-zero, printing no
result, when the build or any output check fails.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src").is_dir() or not (HERE / "CMakeLists.txt").is_file():
        fail("run from the repository root: src/ and perfbench/ are needed", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def source_digest():
    """SHA-256 over the program and benchmark sources (the checkout may not
    be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", HERE.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def spread(history, key, result):
    """Median and quartiles of every metric over the recorded runs that
    share this run's workload, trace mode, machine and sources."""
    runs = [h for h in history if h["key"] == key]
    lines = [f"# spread over {len(runs)} recorded run(s) "
             "(median q1 q3, statistics.quantiles n=4):"]
    for name, m in result["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs
                  if name in r["metrics"]]
        if len(values) >= 2:
            q1, med, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = med = q3 = values[0]
        lines.append(f"#   {name:34s} {med:.6g} {q1:.6g} {q3:.6g} {m['unit']}")
    return lines


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()

    build()
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--out-dir", str(OUT)]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0:
        print("\n".join(line for line in lines if line.startswith("#")))
        fail(f"run failed with exit code {r.returncode}", r.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} \
            or result["correct"] is not True:
        fail("malformed result line")

    build_line = next((l for l in lines if l.startswith("# build:")), "")
    machine = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "build": build_line[len("# build:"):].strip(),
    }
    key = [args.workload, args.trace, machine["source_sha256"],
           machine["cpu_model"], machine["nproc"]]
    history_path = OUT / "history.jsonl"
    with open(history_path, "a", encoding="utf-8") as f:
        f.write(json.dumps({"key": key, "seed": args.seed,
                            "seconds": args.seconds, "machine": machine,
                            "metrics": result["metrics"]}) + "\n")
    with open(history_path, encoding="utf-8") as f:
        history = [json.loads(line) for line in f if line.strip()]

    print("\n".join(lines[:-1]))
    print("# machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print("\n".join(spread(history, key, result)))
    print(lines[-1])


if __name__ == "__main__":
    main()
