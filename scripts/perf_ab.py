#!/usr/bin/env python3
"""A/B comparison of two commits on one perfbench workload.

Extracts both refs with `git archive` into separate trees (each builds its
own .bench_build on its first run), then runs `perfbench/run.py --trace 0`
on them alternately: pair i (from 0) uses seed S + i, and the base runs
first when i is even (pairs 1, 3, 5, ... as printed), the head otherwise,
so drift in the machine's speed falls on both sides.

    python3 scripts/perf_ab.py --base REF --head REF --workload W \\
        --pairs N --seed S [--workdir DIR]

Every run takes perfbench/run.py's default length.

REF is anything `git archive` accepts. To measure uncommitted changes, pass
the commit that `git stash create` prints (it records the tracked files of
the working tree without touching the stash or any branch).

Per run it prints the run's end-to-end p50 and wire volume, and the
as-measured p50 and machine slowdown that perfbench writes to stderr. At the
end it prints, per end-to-end metric of BENCHMARK.json, the base and head
medians with their [Q1, Q3] and the number of pairs the head won, then the
cache-line offset of perfbench's `calibration_kernel` in each build (from
`nm`): the harness divides every timing by that kernel's speed, which
depends on where the linker puts it. A WARNING line follows when the two
offsets differ; it gates nothing.
"""

import argparse
import json
import pathlib
import re
import statistics
import subprocess
import sys
import tarfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
AS_MEASURED = re.compile(
    r"as measured, deliver p50 ([\d.]+) ms p90 ([\d.]+) ms; machine "
    r"slowdown against the reference p10 ([\d.]+) p50 ([\d.]+) p90 ([\d.]+)")


def fail(message):
    print(f"perf_ab: {message}", file=sys.stderr)
    sys.exit(1)


def git(*args):
    proc = subprocess.run(["git", "-C", str(ROOT), *args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if proc.returncode:
        fail(f"git {' '.join(args)}: {proc.stderr.decode().strip()}")
    return proc.stdout


def extract(ref, workdir):
    """The tree of `ref` under workdir/<commit>, extracted once and reused."""
    sha = git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
    tree = workdir / sha
    if not (tree / "perfbench" / "run.py").exists():
        tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                                   stdout=subprocess.PIPE)
        with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
            tar.extractall(tree)
        if archive.wait():
            fail(f"git archive {ref} failed")
    return sha, tree


def run(tree, workload, seed):
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        fail(f"{tree.name[:12]} seed {seed} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    match = AS_MEASURED.search(proc.stderr)
    result["as_measured_p50"] = float(match.group(1)) if match else None
    result["slowdown_p50"] = float(match.group(4)) if match else None
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def calibration_address(tree):
    """calibration_kernel's address in the tree's perfbench, or None."""
    binary = tree / ".bench_build" / "p3s_perfbench"
    proc = subprocess.run(["nm", "-C", str(binary)], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    for line in proc.stdout.splitlines():
        if "calibration_kernel" in line:
            return int(line.split()[0], 16)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--head", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=pathlib.Path,
                        default=ROOT / ".perf_ab")
    args = parser.parse_args()
    if args.pairs < 1:
        fail("--pairs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    sides = {"base": extract(args.base, args.workdir),
             "head": extract(args.head, args.workdir)}
    results = {"base": [], "head": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            print(f"perf_ab: pair {i + 1} seed {seed} {side} (the first run "
                  "of each tree builds it)", file=sys.stderr, flush=True)
            r = run(sides[side][1], args.workload, seed)
            results[side].append(r)
            m = r["metrics"]
            print(f"pair {i + 1} seed {seed} {side}: "
                  f"p50 {m['deliver_p50_ms']['value']:.1f} ms, "
                  f"as measured {r['as_measured_p50']} ms at slowdown "
                  f"{r['slowdown_p50']}, wire {m['wire_kb_per_pub']['value']} "
                  f"KiB/pub, correct {r['correct']}, failed {r['failed']}",
                  flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs, seeds {args.seed}.."
          f"{args.seed + args.pairs - 1}; base {sides['base'][0][:12]}, "
          f"head {sides['head'][0][:12]}")
    print(f"{'metric':<18} {'base median [Q1, Q3]':>28} "
          f"{'head median [Q1, Q3]':>28} {'head wins':>10}")
    rows = [(m["name"], m["better"]) for m in metrics]
    rows.append(("as_measured_p50", "lower"))
    for name, better in rows:
        def values(side):
            if name == "as_measured_p50":
                return [r[name] for r in results[side]]
            return [r["metrics"][name]["value"] for r in results[side]]
        base, head = values("base"), values("head")
        if None in base or None in head:
            continue
        wins = sum((h < b) if better == "lower" else (h > b)
                   for b, h in zip(base, head))
        cells = []
        for side_values in (base, head):
            q1, q2, q3 = quartiles(side_values)
            cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}]")
        print(f"{name:<18} {cells[0]:>28} {cells[1]:>28} "
              f"{wins:>6}/{args.pairs}")
    offsets = {}
    for side in ("base", "head"):
        address = calibration_address(sides[side][1])
        if address is None:
            print(f"calibration_kernel ({side}): not found")
            continue
        offsets[side] = address % 64
        print(f"calibration_kernel ({side}): {address:#x} "
              f"(cache-line offset {offsets[side]})")
    if len(offsets) == 2 and offsets["base"] != offsets["head"]:
        print(f"WARNING: calibration_kernel sits at cache-line offset "
              f"{offsets['base']} in base and {offsets['head']} in head; "
              "timings scaled by its speed may differ from layout alone")


if __name__ == "__main__":
    main()
