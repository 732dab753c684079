"""Self-test of the benchmark itself.  Run from the repository root::

    python3 perfbench/selftest.py

Checks, at minimal run length (one measured round; two when traced):

* every workload prints every end-to-end metric untraced and every per-layer
  metric traced, each with the unit ``BENCHMARK.json`` gives it;
* every traced span lies inside the span that caused it, and none has a
  negative self time;
* a second run of the same seed reproduces every exact count (IR node counts,
  generated source size, loop nests, parallel maps, simmpi counts, modeled
  time) and reports no non-determinism;
* a deliberately corrupted output is counted as failed and named.

Exits non-zero and lists the problems if any check fails.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7


def run_cli(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} trace={trace} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return lines, json.loads(lines[-1])


def check_metrics(label, result, expected):
    problems = []
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{label}: metrics/units {sorted(got.items())} != "
                        f"{sorted(expected.items())}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["attempted"] < 1:
        problems.append(f"{label}: nothing attempted")
    return problems


def check_spans(label, path):
    with open(path) as fh:
        spans = json.load(fh)["spans"]
    by_id = {s["id"]: s for s in spans}
    problems = []
    children = {}
    for s in spans:
        parent = by_id.get(s["parent"])
        if s["parent"] and parent is None:
            problems.append(f"{label}: span {s['name']} has an unknown parent")
            continue
        if parent is not None:
            if s["start"] < parent["start"] or s["end"] > parent["end"]:
                problems.append(f"{label}: span {s['name']} outside its "
                                f"parent {parent['name']}")
            children.setdefault(parent["id"], []).append(s)
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        if s["end"] - s["start"] - covered < 0:
            problems.append(f"{label}: span {s['name']} has a negative "
                            f"self time")
    if not spans:
        problems.append(f"{label}: no spans recorded")
    return problems


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    outdir = os.path.join(root, ".perfbench")
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            path = os.path.join(
                outdir, f"counts-{workload}-seed{SEED}-trace{trace}.json")
            if os.path.exists(path):
                os.remove(path)
        for trace in (0, 1, 0):
            label = f"{workload} trace={trace}"
            lines, result = run_cli(workload, trace)
            problems += check_metrics(label, result, expected[trace])
            problems += [f"{label}: {line}" for line in lines
                         if line.startswith("NON-DETERMINISM")]
            failed = [line for line in lines if line.startswith("FAILED")]
            print(f"ok {label}: attempted {result['attempted']}, failed "
                  f"{result['failed']}" + "".join(f"\n   {f}" for f in failed))
            if trace:
                problems += check_spans(label, os.path.join(
                    outdir, f"trace-{workload}-seed{SEED}.json"))
        if not any(line.startswith("determinism:") and "match" in line
                   for line in lines):
            problems.append(f"{workload}: no determinism comparison printed")

    sys.path.insert(0, HERE)
    import run

    corrupt = "gemm"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.main(["--workload", "calls", "--seed", str(SEED), "--seconds",
                  "0"], corrupt=corrupt)
    lines = buf.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    if result["failed"] < 1 or result["correct"]:
        problems.append("a corrupted output was not counted as failed")
    if not any(line.startswith(f"FAILED {corrupt}:") for line in lines):
        problems.append("a corrupted output was not named")
    print(f"ok corrupted {corrupt} output: {result['failed']} of "
          f"{result['attempted']} counted as failed")

    for problem in problems:
        print(f"SELFTEST FAILURE: {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
