#!/usr/bin/env python3
"""End-to-end publish->deliver benchmark of P3S.

Builds the harness (perfbench/) and the repository's libraries (src/) from
source into .bench_build/, runs one workload and prints one JSON object as
the last line of stdout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics and writes the spans to .bench_build/traces/ as Chrome
trace-event JSON (opens in Perfetto).

    python3 perfbench/run.py --selfcheck

runs the benchmark's own checks: repeatability of the exact metrics on one
seed, their shape on a second seed, and that the oracle flags a content
response the transport withholds.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "p3s_perfbench"
# A run is budgeted at 180 s; the binary gets all of it but the few seconds
# Python needs to start and report.
RUN_TIMEOUT_S = 175
# --seconds of a self-check run: 13, 13 and 5 measured publications
# untraced, 7, 7 and 3 traced.
SELFCHECK_SECONDS = 5


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")


def build():
    """Configure (a no-op on a configured tree) and rebuild what is stale."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(BUILD), "--target", "p3s_perfbench",
              "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def run(spec, workload, seed, seconds, trace, extra=()):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} seed {seed} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    check_shape(spec, result, trace)
    return result


def check_shape(spec, result, trace):
    """The result carries exactly the metrics BENCHMARK.json names."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(n for n in set(got) & set(wanted) if got[n] != wanted[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, unit mismatch {units}")


def selfcheck(spec):
    problems = []

    def expect(ok, what):
        print(f"  {'ok  ' if ok else 'FAIL'} {what}", file=sys.stderr)
        if not ok:
            problems.append(what)

    exact = [m["name"] for m in spec["per_layer"]
             if m["name"].endswith(".calls_per_pub")]
    exact += ["pairing.pairs_per_pub", "net.frames_per_pub"]
    exact += [m["name"] for m in spec["per_layer"] if "_egress_" in m["name"]]
    for w in (w["name"] for w in spec["workloads"]):
        print(f"selfcheck {w}", file=sys.stderr)
        a, b = (run(spec, w, 1, SELFCHECK_SECONDS, 0) for _ in range(2))
        expect(a["correct"] and b["correct"], f"{w}: untraced runs correct")
        expect(a["metrics"]["wire_kb_per_pub"] == b["metrics"]["wire_kb_per_pub"],
               f"{w}: wire_kb_per_pub repeats on seed 1")
        ta, tb = (run(spec, w, 1, SELFCHECK_SECONDS, 1) for _ in range(2))
        tc = run(spec, w, 2, SELFCHECK_SECONDS, 1)
        expect(ta["correct"] and tb["correct"] and tc["correct"],
               f"{w}: traced runs correct, equal to untraced on the same seed, "
               "egress attributed to endpoints")
        for name in exact:
            expect(ta["metrics"][name] == tb["metrics"][name],
                   f"{w}: {name} repeats on seed 1")
        for name in exact:
            if name.endswith(".calls_per_pub"):
                same = ta["metrics"][name] == tc["metrics"][name]
            else:
                same = (ta["metrics"][name]["value"] > 0) == (
                    tc["metrics"][name]["value"] > 0)
            expect(same, f"{w}: {name} keeps its shape on seed 2")
        expect(ta["metrics"]["trace.coverage"]["value"] >= 0.95,
               f"{w}: trace.coverage >= 0.95")
        held = run(spec, w, 1, SELFCHECK_SECONDS, 0, ["--withhold", "1"])
        expect(not held["correct"] and held["failed"] >= 1,
               f"{w}: oracle flags a withheld content response")
    if problems:
        fail(f"selfcheck: {len(problems)} problem(s)")
    print("selfcheck passed", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    build()
    if args.selfcheck:
        selfcheck(spec)
        return
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    result = run(spec, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
