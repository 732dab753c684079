"""Span tracing for the benchmark, recorded from outside the program.

A traced round wraps the public entry point of each layer (frontend,
transformations, autoopt, ir, codegen, cache, runtime, distributed, commopt)
in a span recorder.  Nothing in ``src/`` changes: :meth:`Tracer.install`
rebinds module and class attributes to recording wrappers and
:meth:`Tracer.uninstall` restores the originals, so untraced rounds run the
unmodified program.

Each span holds a name, start, end, the span that caused it and the request
(benchmark operation) it belongs to.  Spans stay in memory and are written out
when the run ends.  A span's self time is its duration minus the part of its
interval that its child spans cover.
"""

import functools
import itertools
import re
import threading
import time
from collections import defaultdict

#: auto_optimize steps whose pass timers the program reports to repro.profile()
AUTOOPT_STEPS = ("cleanup", "loop_to_map", "collapse", "fusion", "tile_wcr",
                 "transients", "device", "library")

_FOR = re.compile(r"^\s*for\s", re.MULTILINE)


def ir_nodes(sdfg):
    """Nodes plus states of *sdfg*, nested SDFGs included."""
    from repro.ir.nodes import NestedSDFG

    total = len(sdfg.states())
    for node, _ in sdfg.all_nodes_recursive():
        total += 1
        if isinstance(node, NestedSDFG):
            total += len(node.sdfg.states())
    return total


def parallel_maps(sdfg):
    from repro.ir.nodes import MapEntry, ScheduleType

    return sum(1 for node, _ in sdfg.all_nodes_recursive()
               if isinstance(node, MapEntry)
               and node.map.schedule == ScheduleType.CPU_Multicore)


def loop_nests(compiled):
    """Scopes a generated module runs as loops rather than vectorized: its
    ``for`` statements plus its interpreter-fallback closures, each of which
    executes one node point by point."""
    return len(_FOR.findall(compiled.source)) + len(compiled.closure_specs)


class Tracer:
    """In-memory span recorder plus per-program counts taken at boundaries."""

    def __init__(self):
        #: (id, name, start, end, parent id or 0, request id)
        self.spans = []
        self.request = 0
        #: parent for spans opened on threads the program starts itself
        #: (simulated MPI ranks), which have no span stack of their own
        self.detached_parent = 0
        self.counts = defaultdict(int)
        #: metric -> {program name: value}; one value per distinct program
        self.per_program = defaultdict(dict)
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._patches = []
        self.collector = None

    # ----------------------------------------------------------------- spans
    def _stack(self):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        parent = stack[-1][0] if stack else self.detached_parent
        sid = next(self._ids)
        stack.append((sid, name, parent, self.request, time.perf_counter()))
        return sid

    def end(self):
        stop = time.perf_counter()
        sid, name, parent, request, start = self._stack().pop()
        self.spans.append((sid, name, start, stop, parent, request))

    def new_request(self):
        self.request += 1
        return self.request

    # --------------------------------------------------------------- patches
    def _patch(self, owner, attr, name, after=None, detach=False):
        """Wrap ``owner.attr`` in a span.  With *detach*, spans opened on
        threads started during the call become its children."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = tracer.begin(name)
            if detach:
                tracer.detached_parent = sid
            try:
                result = original(*args, **kwargs)
            finally:
                if detach:
                    tracer.detached_parent = 0
                tracer.end()
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def _patch_with_report(self, owner, attr, name, counter, after):
        """Wrap a pass driver that accepts ``report=``: count the rollbacks
        it records by handing it a report when the caller passed none."""
        from repro.resilience import FailureReport

        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(sdfg, *args, report=None, **kwargs):
            own = report if report is not None else FailureReport()
            before = len(own)
            tracer.begin(name)
            try:
                result = original(sdfg, *args, report=own, **kwargs)
            finally:
                tracer.end()
            tracer.counts[counter] += len(own) - before
            after(sdfg)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self):
        """Wrap every layer boundary; idempotent."""
        if self._patches:
            return
        import repro.cache
        import repro.codegen
        import repro.codegen.compiled
        import repro.codegen.pygen
        import repro.distributed.commopt
        import repro.distributed.runner
        import repro.frontend.parser
        import repro.instrumentation
        import repro.runtime.executor
        from repro.cache.store import CacheStore
        from repro.codegen.compiled import CompiledSDFG
        from repro.frontend.decorator import DaceProgram
        from repro.ir.sdfg import SDFG

        if self.collector is None:
            self.collector = repro.instrumentation.ProfileCollector("perfbench")
        per = self.per_program

        def after_parse(args, sdfg):
            per["frontend.ir_nodes"][sdfg.name] = ir_nodes(sdfg)

        def after_simplify(sdfg):
            per["transformations.ir_nodes"][sdfg.name] = ir_nodes(sdfg)

        def after_autoopt(sdfg):
            per["autoopt.ir_nodes"][sdfg.name] = ir_nodes(sdfg)
            per["autoopt.parallel_maps"][sdfg.name] = parallel_maps(sdfg)

        def after_codegen(args, result):
            compiled = args[0]
            per["codegen.source_bytes"][compiled.sdfg.name] = len(
                compiled.source.encode())
            per["codegen.loop_nests"][compiled.sdfg.name] = loop_nests(
                compiled)

        self._patch(DaceProgram, "__call__", "frontend.call")
        self._patch(DaceProgram, "compile", "frontend.compile")
        self._patch(DaceProgram, "to_sdfg", "frontend.to_sdfg")
        self._patch(repro.frontend.parser, "parse_program", "frontend.parse",
                    after_parse)
        self._patch_with_report(SDFG, "simplify", "transformations.simplify",
                                "transformations.rollbacks", after_simplify)
        self._patch_autoopt(SDFG, after_autoopt)
        self._patch(SDFG, "validate", "ir.validate")
        self._patch(CompiledSDFG, "__init__", "codegen.generate", after_codegen)
        self._patch(repro.cache, "cached_compile", "cache.cached_compile")
        self._patch(repro.cache, "cache_key", "cache.key")
        self._patch(CacheStore, "load_disk", "cache.load")
        self._patch(CacheStore, "write_disk", "cache.store")
        self._patch(repro.codegen.pygen, "rehydrate_module", "cache.rehydrate")
        self._patch(repro.codegen.compiled, "prepare_arguments",
                    "runtime.prepare")
        self._patch(repro.runtime.executor, "prepare_arguments",
                    "runtime.prepare")
        self._patch(CompiledSDFG, "run_prepared", "runtime.run")
        self._patch(repro.codegen.compiled, "collect_return",
                    "runtime.collect")
        self._patch(repro.distributed.runner, "run_distributed",
                    "distributed.run", detach=True)
        self._patch(repro.codegen, "compile_sdfg", "distributed.compile")
        self._patch(repro.distributed.commopt, "optimize_comm",
                    "commopt.optimize")

    def _patch_autoopt(self, owner, after):
        """auto_optimize additionally runs under the tracer's profile
        collector, which receives the program's per-step pass timers."""
        import repro.instrumentation

        self._patch_with_report(owner, "auto_optimize", "autoopt.auto_optimize",
                                "autoopt.rollbacks", after)
        traced = owner.auto_optimize
        tracer = self

        @functools.wraps(traced)
        def profiled(*args, **kwargs):
            with repro.instrumentation.profile(collector=tracer.collector):
                return traced(*args, **kwargs)

        owner.auto_optimize = profiled

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------------- results
    def self_times(self):
        """span id -> self time: duration minus the union of the child
        intervals, each clipped to the parent's interval."""
        children = defaultdict(list)
        for sid, _, start, stop, parent, _ in self.spans:
            if parent:
                children[parent].append((start, stop))
        out = {}
        for sid, _, start, stop, _, _ in self.spans:
            covered, cursor = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, cursor), min(c1, stop)
                if c1 > c0:
                    covered += c1 - c0
                    cursor = c1
            out[sid] = (stop - start) - covered
        return out

    def by_name(self):
        """span name -> {"count", "self_s", "total_s"}."""
        selfs = self.self_times()
        table = defaultdict(lambda: {"count": 0, "self_s": 0.0, "total_s": 0.0})
        for sid, name, start, stop, _, _ in self.spans:
            row = table[name]
            row["count"] += 1
            row["self_s"] += selfs[sid]
            row["total_s"] += stop - start
        return dict(table)

    def autoopt_steps(self):
        """step -> total seconds, from the program's own pass timers."""
        out = {step: 0.0 for step in AUTOOPT_STEPS}
        if self.collector is not None:
            for stat in self.collector.report().by_category("pass"):
                step = stat.name[len("autoopt."):]
                if stat.name.startswith("autoopt.") and step in out:
                    out[step] += stat.total_s
        return out

    def to_json(self):
        return {"spans": [dict(zip(("id", "name", "start", "end", "parent",
                                    "request"), s)) for s in self.spans],
                "counts": dict(self.counts),
                "per_program": {k: dict(v) for k, v in self.per_program.items()}}
