"""Repository benchmark: compile, kernels, calls and distributed workloads.

Run from the repository root::

    python3 perfbench/run.py --workload compile --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the last line of standard output is one JSON object whose
metrics are every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1``
they are every per-layer metric, taken from rounds that alternate with
untraced rounds so that the tracing overhead (traced minus untraced result)
is printed too.  Lines before it give the workload's own metrics with units
and sample counts, the environment, failing programs by name, and the
determinism check.  Scratch files go to ``.perfbench/`` in the repository
root: per-run cache directories (removed at exit), the spans of traced runs
and the exact counts of the last run of each workload and seed.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import AUTOOPT_STEPS, Tracer  # noqa: E402
from workloads import DEFINITION, WORKLOADS, geomean  # noqa: E402


def environment():
    import numpy as np
    from repro.runtime.parallel import configured_threads

    try:
        llc = os.sysconf("SC_LEVEL3_CACHE_SIZE") or "unknown"
    except (ValueError, OSError):
        llc = "unknown"
    return {"nproc": os.cpu_count(), "llc_bytes": llc,
            "python": platform.python_version(), "numpy": np.__version__,
            "cpu_threads": configured_threads()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: end-to-end results of every run; BENCHMARK.json gates the ones that
#: cancel machine-speed drift (see definition.json) and the rest are printed
E2E_UNITS = {"setup_s": "s", "op_geomean_ms": "ms", "ops_per_s": "1/s",
             "speedup_vs_numpy": "x", "peak_rss_mb": "MB"}


def end_to_end(workload, traced, setup_s):
    """Timings use each operation kind's median, so a burst of noise in a
    few samples moves neither the geometric mean nor the throughput."""
    groups = workload.by_key(traced)
    if not groups:
        return {}
    medians = [statistics.median(v) for v in groups.values()]
    return {
        "setup_s": setup_s,
        "op_geomean_ms": 1e3 * geomean(medians),
        "ops_per_s": len(medians) / sum(medians),
        "speedup_vs_numpy": workload.speedup_vs_numpy(traced),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(tracer, workload, cache_delta, parallel_delta, window_ops):
    rows = tracer.by_name()

    def count(name):
        return rows.get(name, {}).get("count", 0)

    def mean_self(name, scale=1.0):
        n = count(name)
        return scale * rows[name]["self_s"] / n if n else 0.0

    def per_program(metric):
        return sum(tracer.per_program.get(metric, {}).values())

    calls = count("frontend.call")
    dispatch = sum(rows.get(n, {}).get("self_s", 0.0) for n in
                   ("frontend.call", "frontend.compile", "frontend.to_sdfg"))
    n_auto = count("autoopt.auto_optimize")
    steps = tracer.autoopt_steps()
    lookups = (cache_delta["memory_hits"] + cache_delta["disk_hits"]
               + cache_delta["misses"])
    hits = cache_delta["memory_hits"] + cache_delta["disk_hits"]
    out = {
        "frontend.parse_s": mean_self("frontend.parse"),
        "frontend.ir_nodes": per_program("frontend.ir_nodes"),
        "frontend.dispatch_us": 1e6 * dispatch / calls if calls else 0.0,
        "transformations.simplify_s": mean_self("transformations.simplify"),
        "transformations.ir_nodes": per_program("transformations.ir_nodes"),
        "transformations.rollbacks": tracer.counts["transformations.rollbacks"],
        "autoopt.total_s": (rows["autoopt.auto_optimize"]["total_s"] / n_auto
                            if n_auto else 0.0),
    }
    for step in AUTOOPT_STEPS:
        out[f"autoopt.{step}_s"] = steps[step] / n_auto if n_auto else 0.0
    out.update({
        "autoopt.ir_nodes": per_program("autoopt.ir_nodes"),
        "autoopt.rollbacks": tracer.counts["autoopt.rollbacks"],
        "autoopt.parallel_maps": per_program("autoopt.parallel_maps"),
        "ir.validate_s": mean_self("ir.validate"),
        "codegen.total_s": mean_self("codegen.generate"),
        "codegen.source_bytes": per_program("codegen.source_bytes"),
        "codegen.loop_nests": per_program("codegen.loop_nests"),
        "cache.key_s": mean_self("cache.key"),
        "cache.load_s": mean_self("cache.load"),
        "cache.store_s": mean_self("cache.store"),
        "cache.hit_rate": hits / lookups if lookups else 0.0,
        "cache.invalidations": cache_delta["invalidations"],
        "runtime.prepare_us": mean_self("runtime.prepare", 1e6),
        "runtime.run_us": mean_self("runtime.run", 1e6),
        "runtime.collect_us": mean_self("runtime.collect", 1e6),
    })
    for name in ("regions", "serial_regions", "chunks", "pool_failures"):
        key = "parallel_regions" if name == "regions" else name
        out[f"parallel.{name}"] = parallel_delta[key] / window_ops
    counters = {"simmpi.messages": 0, "simmpi.bytes": 0, "commopt.applied": 0,
                "commopt.bytes_saved": 0, "distributed.restarts": 0}
    counters.update(workload.counters())
    out.update(counters)
    return out


def delta(after, before):
    return {k: after[k] - before[k] for k in before
            if isinstance(before[k], (int, float))}


def print_layer_table(tracer):
    rows = tracer.by_name()
    total = sum(r["self_s"] for r in rows.values()) or 1.0
    print("layer self time (set-up and traced rounds; spans from the "
          "benchmark's own wrappers):")
    print(f"  {'span':<28}{'count':>8}{'self_s':>12}{'share':>8}"
          f"{'mean_self_us':>14}")
    for name, r in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<28}{r['count']:>8}{r['self_s']:>12.4f}"
              f"{100 * r['self_s'] / total:>7.1f}%"
              f"{1e6 * r['self_s'] / r['count']:>14.1f}")
    layers = {}
    for name, r in rows.items():
        layer = layers.setdefault(name.split(".")[0], [0, 0.0])
        layer[0] += r["count"]
        layer[1] += r["self_s"]
    print("per layer: " + ", ".join(
        f"{layer} {self_s:.4f} s / {count} spans" for layer, (count, self_s)
        in sorted(layers.items(), key=lambda kv: -kv[1][1])))
    negative = [sid for sid, s in tracer.self_times().items() if s < 0]
    print(f"spans: {len(tracer.spans)}, negative self times: {len(negative)}")


def flatten(tree, prefix=""):
    out = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            out.update(flatten(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


def check_determinism(outdir, name, seed, trace, counts):
    """Compare exact counts with the previous run of this workload and seed;
    differences are printed as non-determinism, never averaged."""
    path = os.path.join(outdir, f"counts-{name}-seed{seed}-trace{trace}.json")
    current = flatten(counts)
    previous = None
    if os.path.exists(path):
        with open(path) as fh:
            previous = json.load(fh)
    with open(path, "w") as fh:
        json.dump(current, fh, indent=1, sort_keys=True)
    if previous is None:
        print(f"determinism: {len(current)} exact counts recorded "
              f"(compared on the next run of seed {seed})")
        return []
    diffs = [f"{k}: {previous.get(k)} -> {current.get(k)}"
             for k in sorted(set(previous) | set(current))
             if previous.get(k) != current.get(k)]
    for line in diffs:
        print(f"NON-DETERMINISM {name} seed {seed}: {line}")
    if not diffs:
        print(f"determinism: {len(current)} exact counts match the previous "
              f"run of seed {seed}")
    return diffs


def spare_setup(args, workload, workdir, index):
    """Time one set-up of a spare workload object.  The measured object's
    cache directory and store are put back afterwards, and the spare's
    failures count as the measured object's."""
    import repro.cache
    from repro.config import Config

    directory, store = Config.get("cache.dir"), repro.cache.get_store()
    spare_dir = os.path.join(workdir, f"spare{index}")
    os.makedirs(spare_dir)
    spare = WORKLOADS[args.workload](args.seed, spare_dir, Tracer(),
                                     corrupt=workload.corrupt)
    gc.collect()
    start = time.perf_counter()
    spare.setup()
    elapsed = time.perf_counter() - start
    Config.set("cache.dir", directory)
    repro.cache.set_store(store)
    workload.attempted += spare.attempted
    workload.failed += spare.failed
    for program, reason in spare.failures.items():
        workload.failures.setdefault(program, reason)
    return elapsed


def run(args, bench, outdir, workdir, corrupt=None):
    import repro.cache
    import repro.runtime.parallel
    from repro.bench import registry

    registry.all_benchmarks()
    tracer = Tracer()
    workload = WORKLOADS[args.workload](args.seed, workdir, tracer,
                                        corrupt=corrupt)
    traced = bool(args.trace)
    cache_before = repro.cache.stats().to_dict()

    if traced:
        tracer.install()
        workload.tracing = True
    setups = []
    repetitions = workload.definition.get("setup_repetitions",
                                          DEFINITION["setup_repetitions"])
    # untraced runs spread all set-ups but the first over the window, on
    # spare workload objects, so that their median spans the host's fast and
    # slow phases of about ten seconds instead of falling in one of them
    spread = 0 if traced else repetitions - 1
    for _ in range(repetitions - spread):
        gc.collect()
        if traced:
            tracer.new_request()
            tracer.begin("bench.setup")
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
        if traced:
            tracer.end()
    tracer.uninstall()
    workload.tracing = False

    # one unrecorded round first: per-program first-use costs in the process
    # (source reads, lazily imported passes and expansions) stay out of the
    # window; its failures still count
    workload.run_round()
    workload.samples.clear()
    workload.numpy.clear()
    gc.collect()
    parallel_before = repro.runtime.parallel.stats().to_dict()
    rounds = spares = 0
    window_s = 0.0
    while rounds < (2 if traced else 1) or window_s < args.seconds:
        if spares < spread and spares * args.seconds <= spread * window_s:
            setups.append(spare_setup(args, workload, workdir, spares))
            spares += 1
            continue
        start = time.perf_counter()
        traced_round = traced and rounds % 2 == 1
        if traced_round:
            tracer.install()
            workload.tracing = True
        try:
            workload.run_round()
        finally:
            tracer.uninstall()
            workload.tracing = False
        rounds += 1
        gc.collect()
        window_s += time.perf_counter() - start
    while spares < spread:
        setups.append(spare_setup(args, workload, workdir, spares))
        spares += 1
    setup_s = statistics.median(setups)
    window_ops = max(1, len(workload.samples))
    parallel_delta = delta(repro.runtime.parallel.stats().to_dict(),
                           parallel_before)
    cache_delta = delta(repro.cache.stats().to_dict(), cache_before)

    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} rounds={rounds} "
          f"window_s={window_s:.3f}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("setup_s runs: " + ", ".join(f"{s:.4f}" for s in setups))
    for metric, value, unit, n in workload.summary():
        print(f"metric {metric} = {value:.6g} {unit} (n={n})")
    untraced = end_to_end(workload, False, setup_s)
    for metric, value in untraced.items():
        print(f"metric {metric} = {value:.6g} {E2E_UNITS[metric]} (untraced)")
    rate = workload.failed / max(1, workload.attempted)
    print(f"failure_rate = {rate:.6g} ({workload.failed} failed or wrong of "
          f"{workload.attempted} attempted)")
    for program, reason in sorted(workload.failures.items()):
        print(f"FAILED {program}: {reason}")

    counts = {"workload": workload.deterministic()}
    if traced:
        counts["traced"] = {k: dict(v) for k, v in tracer.per_program.items()}
    check_determinism(outdir, args.workload, args.seed, args.trace, counts)

    if traced:
        traced_e2e = end_to_end(workload, True, setup_s)
        for metric in ("op_geomean_ms", "ops_per_s", "speedup_vs_numpy"):
            if metric in traced_e2e and metric in untraced:
                diff = traced_e2e[metric] - untraced[metric]
                print(f"tracing overhead {metric}: traced "
                      f"{traced_e2e[metric]:.6g} - untraced "
                      f"{untraced[metric]:.6g} = {diff:+.6g} "
                      f"({100 * diff / untraced[metric]:+.1f}%)")
        print_layer_table(tracer)
        path = os.path.join(outdir, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump(tracer.to_json(), fh)
        print(f"spans written to {os.path.relpath(path)}")
        values = per_layer(tracer, workload, cache_delta, parallel_delta,
                           window_ops)
        names = bench["per_layer"]
    else:
        values = untraced
        names = bench["end_to_end"]
    missing = set(names) - set(values)
    if missing and untraced:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in names.items()}
    return {"correct": workload.failed == 0 and bool(untraced),
            "attempted": workload.attempted, "failed": workload.failed,
            "metrics": metrics}


def main(argv=None, corrupt=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bench = {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }

    outdir = os.path.join(root, ".perfbench")
    os.makedirs(outdir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=outdir)
    try:
        result = run(args, bench, outdir, workdir, corrupt=corrupt)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        from repro.runtime.parallel import shutdown_pool

        shutdown_pool()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
