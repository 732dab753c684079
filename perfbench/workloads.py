"""The benchmark's four workloads: compile, kernels, calls and distributed.

Every workload follows one protocol.  ``setup()`` builds its state from
scratch (fresh cache directory, fresh program objects) and is timed by the
runner several times.  ``round()`` runs every operation of the workload once
and appends one timing sample per operation.  Outputs are checked against an
independent NumPy reference outside the timed interval; an operation that
raises or returns a wrong result counts as failed and is named in
``failures``.  Program pools, sizes and rank counts come from
``definition.json`` and never from timings taken at run time.
"""

import itertools
import json
import math
import os
import random
import shutil
import statistics
import time
from collections import defaultdict

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "definition.json")) as _fh:
    DEFINITION = json.load(_fh)


def geomean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def copy_args(args):
    return {k: (v.copy() if isinstance(v, np.ndarray) else v)
            for k, v in args.items()}


def mismatch(expected, actual, exact=False):
    """None when *actual* matches *expected*, else a description.  Floats
    compare within a tolerance set by their dtype, everything else exactly."""
    exp, act = np.asarray(expected), np.asarray(actual)
    if exp.shape != act.shape:
        return f"shape {act.shape} != expected {exp.shape}"
    if exact or exp.dtype.kind not in "fc":
        if np.array_equal(exp, act):
            return None
        return f"{int(np.count_nonzero(exp != act))} element(s) differ"
    double = np.finfo(exp.dtype).bits >= 64
    rtol, atol = (1e-7, 1e-10) if double else (1e-4, 1e-7)
    if np.allclose(act, exp, rtol=rtol, atol=atol, equal_nan=True):
        return None
    err = np.nanmax(np.abs(act.astype(np.complex128) - exp))
    return f"max abs error {err:.3e} (rtol {rtol}, atol {atol})"


def corrupted(value):
    """A deliberately wrong copy of an output (self-test only)."""
    out = np.array(value, copy=True)
    out.flat[0] = out.flat[0] + 1 if out.dtype != bool else not out.flat[0]
    return out


class Case:
    """One corpus program at one size with its NumPy reference outputs."""

    def __init__(self, name, size):
        from repro.bench import registry

        bench = registry.get(name)
        self.name = name
        self.func = bench.program.func
        self.reference = bench.reference
        self.outputs = tuple(bench.outputs)
        self.args = bench.arguments(size)
        ref_args = copy_args(self.args)
        self.expected = self.extract(ref_args, bench.reference(**ref_args))

    def run_reference(self, args):
        self.reference(**args)

    def extract(self, args, ret):
        if self.outputs:
            return {n: np.array(args[n], copy=True) for n in self.outputs}
        return {"return": ret}

    def check(self, args, ret, corrupt=False):
        got = self.extract(args, ret)
        for key, want in self.expected.items():
            value = corrupted(got[key]) if corrupt else got[key]
            problem = mismatch(want, value)
            if problem:
                return f"{key}: {problem}"
        return None


class Workload:
    name = ""

    def __init__(self, seed, workdir, tracer, corrupt=None):
        self.definition = DEFINITION["workloads"][self.name]
        self.seed = seed
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.tracer = tracer
        self.tracing = False
        #: program whose output is deliberately corrupted (self-test)
        self.corrupt = corrupt
        #: (sample key, seconds, traced, round)
        self.samples = []
        #: program -> (round, seconds) of its NumPy reference
        self.numpy = defaultdict(list)
        self.round_index = 0
        self.failures = {}
        self.attempted = 0
        self.failed = 0
        self._dirs = itertools.count()

    # ---------------------------------------------------------------- helpers
    def fresh_cache_dir(self):
        from repro.config import Config

        path = os.path.join(self.workdir, f"cache{next(self._dirs)}")
        os.makedirs(path)
        Config.set("cache.dir", path)
        return path

    def fail(self, program, reason):
        self.failed += 1
        self.failures.setdefault(program, reason)

    def op(self, key, case, call, record=True):
        """Run ``call(args)`` on a fresh copy of the inputs, time it, then
        check the outputs.  Returns ``(args, result)``, or None on failure."""
        args = copy_args(case.args)
        self.attempted += 1
        if self.tracing:
            self.tracer.new_request()
            self.tracer.begin("bench.op")
        try:
            start = time.perf_counter()
            ret = call(args)
            elapsed = time.perf_counter() - start
        except Exception as exc:  # an operation failure is a measured outcome
            self.fail(case.name, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            if self.tracing:
                self.tracer.end()
        problem = case.check(args, ret, corrupt=case.name == self.corrupt)
        if problem:
            self.fail(case.name, problem)
            return None
        if record:
            self.samples.append((key, elapsed, self.tracing, self.round_index))
        return args, ret

    def time_numpy(self, case):
        """Time the NumPy reference on a fresh copy of the inputs, in the same
        round as the operations it is compared with.  Microsecond references
        are timed ``numpy_repeats`` times so their median is as steady as the
        operation's."""
        for _ in range(self.definition.get("numpy_repeats", 1)):
            args = copy_args(case.args)
            start = time.perf_counter()
            case.run_reference(args)
            self.numpy[case.name].append(
                (self.round_index, time.perf_counter() - start))

    def speedup_vs_numpy(self, traced=False):
        """Geometric mean over operation kinds of the median over rounds of
        the NumPy reference's time over the operation's time in that round.
        Pairing the two sides by round cancels the host's fast and slow
        phases, which last about half a second."""
        reference = defaultdict(lambda: defaultdict(list))
        for name, timings in self.numpy.items():
            for index, seconds in timings:
                reference[name][index].append(seconds)
        ops = defaultdict(lambda: defaultdict(list))
        for key, seconds, was_traced, index in self.samples:
            if was_traced == traced:
                ops[key][index].append(seconds)
        ratios = []
        for key, rounds in ops.items():
            numpy_rounds = reference[key.split(":")[0]]
            ratios.append(statistics.median(
                statistics.median(numpy_rounds[index])
                / statistics.median(values)
                for index, values in rounds.items() if index in numpy_rounds))
        return geomean(ratios) if ratios else None

    def run_round(self):
        self.round_index += 1
        self.round()

    def warm_up(self):
        """Compile one fixed small program cold and again from disk, so lazy
        imports and first-use costs land in set-up, not in the first
        measured operation."""
        import repro
        import repro.cache

        spec = DEFINITION["warmup_program"]
        case = Case(spec["name"], spec["size"])
        self.fresh_cache_dir()
        for _ in range(2):
            repro.cache.get_store().clear_memory()
            prog = repro.program(auto_optimize=True)(case.func)
            self.op(None, case, lambda a: prog(**a), record=False)

    def shuffled(self, items):
        items = list(items)
        self.rng.shuffle(items)
        return items

    def by_key(self, traced=False):
        out = defaultdict(list)
        for key, seconds, was_traced, _ in self.samples:
            if was_traced == traced:
                out[key].append(seconds)
        return out

    def counters(self):
        """Workload-specific per-layer counters; overridden."""
        return {}

    def prepare(self, entries):
        """Set-up shared by kernels and calls: fresh -O3 program objects for
        ``(name, size)`` entries on an empty cache directory, each called
        once and checked."""
        import repro

        self.warm_up()
        self.fresh_cache_dir()
        self.cases = []
        self.programs = {}
        for name, size in entries:
            case = Case(name, size)
            prog = repro.program(auto_optimize=True)(case.func)
            if self.op(None, case, lambda a, p=prog: p(**a), record=False):
                self.programs[name] = (prog, case)
            self.cases.append((case, prog))

    def deterministic(self):
        """Counts that must repeat exactly across runs of one seed."""
        from spans import ir_nodes, loop_nests, parallel_maps

        out = {}
        for name, (prog, case) in sorted(self.programs.items()):
            compiled = prog.compile(**case.args)
            out[name] = {
                "simplified_ir_nodes": ir_nodes(prog.to_sdfg(**case.args)),
                "optimized_ir_nodes": ir_nodes(compiled.sdfg),
                "parallel_maps": parallel_maps(compiled.sdfg),
                "source_bytes": len(compiled.source.encode()),
                "loop_nests": loop_nests(compiled),
            }
        return out


class Compile(Workload):
    """First calls of fresh program objects: cold, then warm from disk."""

    name = "compile"

    def setup(self):
        self.warm_up()
        size = self.definition["size"]
        self.cases = [Case(n, size) for n in self.definition["pool"]]
        self.programs = {}

    def round(self):
        import repro
        import repro.cache

        path = self.fresh_cache_dir()
        for case in self.shuffled(self.cases):
            for kind in ("cold", "warm"):
                # the warm restart: no in-memory tier, no per-object memo
                repro.cache.get_store().clear_memory()
                prog = repro.program(auto_optimize=True)(case.func)
                done = self.op(f"{case.name}:{kind}", case,
                               lambda a, p=prog: p(**a))
                if done and kind == "cold":
                    self.programs[case.name] = (prog, case)
            self.time_numpy(case)
        shutil.rmtree(path, ignore_errors=True)

    def summary(self):
        groups = self.by_key()
        out = []
        for kind, metric in (("cold", "compile_cold_geomean_s"),
                             ("warm", "first_call_warm_geomean_s")):
            medians = [statistics.median(v) for k, v in groups.items()
                       if k.endswith(":" + kind)]
            n = sum(len(v) for k, v in groups.items() if k.endswith(":" + kind))
            if medians:
                out.append((metric, geomean(medians), "s", n))
        return out


class Kernels(Workload):
    """Closed loop over compiled programs, each timed against NumPy."""

    name = "kernels"

    def setup(self):
        self.prepare((e["name"], e["size"]) for e in self.definition["pool"])

    def round(self):
        for case, prog in self.shuffled(self.cases):
            self.op(case.name, case, lambda a, p=prog: p(**a))
            self.time_numpy(case)

    def summary(self):
        from repro.runtime.parallel import configured_threads

        groups = self.by_key()
        if not groups:
            return []
        medians = {k: statistics.median(v) for k, v in groups.items()}
        n = sum(len(v) for v in groups.values())
        return [("kernel_run_geomean_s", geomean(medians.values()), "s", n),
                ("cpu_threads", configured_threads(), "count", 1)]


class Calls(Workload):
    """One client, no think time, a seeded random sequence of calls."""

    name = "calls"

    def setup(self):
        size = self.definition["size"]
        self.prepare((name, size) for name in self.definition["pool"])

    def round(self):
        for _ in range(self.definition["calls_per_round"]):
            case, prog = self.rng.choice(self.cases)
            self.op(case.name, case, lambda a, p=prog: p(**a))
        for case, _ in self.cases:
            self.time_numpy(case)

    def summary(self):
        times = [s for _, s, traced, _ in self.samples if not traced]
        if not times:
            return []
        n = len(times)
        p50 = statistics.median(times)
        p99 = float(np.percentile(times, 99))
        return [("call_p50_us", p50 * 1e6, "us", n),
                ("call_p99_us", p99 * 1e6, "us", n),
                ("calls_per_s", n / sum(times), "1/s", n)]


# ----------------------------------------------------------------- distributed

def _jacobi_reference(args):
    A, B = args["A"].copy(), args["B"].copy()
    for _ in range(1, args["TSTEPS"]):
        B[1:-1, 1:-1] = 0.2 * (A[1:-1, 1:-1] + A[1:-1, :-2] + A[1:-1, 2:]
                               + A[2:, 1:-1] + A[:-2, 1:-1])
        A[1:-1, 1:-1] = 0.2 * (B[1:-1, 1:-1] + B[1:-1, :-2] + B[1:-1, 2:]
                               + B[2:, 1:-1] + B[:-2, 1:-1])
    return {"A": A, "B": B}


def _pgemm_reference(args):
    C = args["C"].copy()
    for _ in range(args["reps"]):
        C = args["alpha"] * args["A"] @ args["B"] + args["beta"] * C
    return {"C": C}


def _pgemv_reference(args):
    return {"y": (args["A"] @ args["x"]) @ args["A"]}


def _dist_inputs(name, shape, rng, dims):
    if name == "jacobi":
        n = shape["N"]
        return {"TSTEPS": shape["TSTEPS"], "A": rng.random((n, n)),
                "B": rng.random((n, n)), "lNx": n // dims[0],
                "lNy": n // dims[1]}
    if name == "pgemm":
        ni, nj, nk = shape["NI"], shape["NJ"], shape["NK"]
        return {"reps": shape["reps"], "alpha": 1.5, "beta": 0.5,
                "C": rng.random((ni, nj)), "A": rng.random((ni, nk)),
                "B": rng.random((nk, nj))}
    m, n = shape["M"], shape["N"]
    return {"A": rng.random((m, n)), "x": rng.random(n), "y": np.zeros(n)}


_DIST_REFERENCES = {"jacobi": _jacobi_reference, "pgemm": _pgemm_reference,
                    "pgemv": _pgemv_reference}


class DistCase:
    """A comm-optimizer corpus kernel with seeded inputs at benchmark size
    and a single-process NumPy reference written here."""

    def __init__(self, name, shape, rng, dims):
        from repro.distributed.commopt.corpus import kernel

        corpus = kernel(name)
        self.name = name
        self.sdfg = corpus.build_sdfg()
        self.rank_args = corpus.rank_args
        self.args = _dist_inputs(name, shape, rng, dims)
        self.run_reference = _DIST_REFERENCES[name]
        self.expected = self.run_reference(self.args)

    def check(self, args, ret, corrupt=False):
        for key, want in self.expected.items():
            value = corrupted(args[key]) if corrupt else args[key]
            problem = mismatch(want, value)
            if problem:
                return f"{key}: {problem}"
        return None


def _run_summary(result):
    """The counts of one distributed run; keeping these instead of the
    result, whose per-rank outputs are large, keeps peak memory independent
    of how many rounds a run makes."""
    report = result.comm_report
    return {"messages": int(result.comm_stats.get("messages", 0)),
            "bytes": int(result.comm_stats.get("bytes", 0)),
            "modeled_s": result.modeled_time,
            "wait_modeled_s": report.total_wait_s,
            "comm_bytes": report.total_bytes,
            "applied": sum(report.applied.values()),
            "restarts": len(result.recovery_events)}


class Distributed(Workload):
    """Each corpus kernel on simulated ranks, eager and comm-optimized."""

    name = "distributed"
    MODES = ("eager", "commopt")

    def setup(self):
        from repro.simmpi.grid import ProcessGrid

        self.warm_up()
        self.fresh_cache_dir()
        self.ranks = self.definition["ranks"]
        dims = ProcessGrid(self.ranks).dims
        rng = np.random.default_rng(self.seed)
        self.cases = [DistCase(k["name"], k["shape"], rng, dims)
                      for k in self.definition["kernels"]]
        self.runs = defaultdict(list)

    def run(self, case, mode):
        import repro.distributed.runner
        from repro.config import Config

        def call(args):
            with Config.override(commopt__enabled=mode == "commopt"):
                return repro.distributed.runner.run_distributed(
                    case.sdfg, self.ranks, rank_args=case.rank_args, **args)

        done = self.op(f"{case.name}:{mode}", case, call)
        if done:
            self.runs[(case.name, mode)].append(_run_summary(done[1]))
        return done

    def round(self):
        for case in self.shuffled(self.cases):
            outputs = {}
            self.time_numpy(case)
            for mode in self.MODES:
                done = self.run(case, mode)
                if done:
                    outputs[mode] = done[0]
            self.time_numpy(case)
            if len(outputs) == 2:
                self.attempted += 1
                for key in case.expected:
                    problem = mismatch(outputs["eager"][key],
                                       outputs["commopt"][key], exact=True)
                    if problem:
                        self.fail(case.name, f"eager vs commopt {key}: "
                                             f"{problem}")
                        break

    def deterministic(self):
        keys = ("messages", "bytes", "modeled_s", "wait_modeled_s")
        return {f"{name}:{mode}": {k: runs[-1][k] for k in keys}
                for (name, mode), runs in sorted(self.runs.items())}

    def counters(self):
        runs = [r for rs in self.runs.values() for r in rs]
        if not runs:
            return {}
        optimized = [r for (_, mode), rs in self.runs.items()
                     if mode == "commopt" for r in rs]
        saved = 0
        for case in self.cases:
            eager = self.runs.get((case.name, "eager"))
            opt = self.runs.get((case.name, "commopt"))
            if eager and opt:
                saved += eager[-1]["comm_bytes"] - opt[-1]["comm_bytes"]
        return {
            "simmpi.messages": statistics.mean(r["messages"] for r in runs),
            "simmpi.bytes": statistics.mean(r["bytes"] for r in runs),
            "commopt.applied": statistics.mean(r["applied"] for r in optimized)
            if optimized else 0,
            "commopt.bytes_saved": saved,
            "distributed.restarts": sum(r["restarts"] for r in runs),
        }

    def summary(self):
        groups = self.by_key()
        if not groups:
            return []
        n = sum(len(v) for v in groups.values())
        modeled = [rs[-1]["modeled_s"] for rs in self.runs.values()]
        waits = [rs[-1]["wait_modeled_s"] for rs in self.runs.values()]
        out = [("dist_run_geomean_s",
                geomean(statistics.median(v) for v in groups.values()), "s", n)]
        for mode in self.MODES:
            medians = [statistics.median(v) for k, v in groups.items()
                       if k.endswith(":" + mode)]
            if medians:
                out.append((f"dist_run_{mode}_geomean_s", geomean(medians),
                            "s", n // 2))
        out.append(("dist_modeled_s", geomean(modeled), "s", len(modeled)))
        out.append(("simmpi_wait_modeled_s", sum(waits), "s", len(waits)))
        out.append(("ranks", self.ranks, "count", 1))
        return out


WORKLOADS = {cls.name: cls for cls in (Compile, Kernels, Calls, Distributed)}
