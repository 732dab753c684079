"""Compiled SDFG artifacts (AOT compilation, §3.3).

A :class:`CompiledSDFG` bundles the generated specialized module with the
calling convention.  Compilation time (frontend + optimization already done
by the caller + module generation + ``compile()``) is recorded for the
paper's Fig. 6 experiment.

Construction has two paths: the cold path validates the SDFG and generates
the module, while :meth:`CompiledSDFG.from_cached` rehydrates ``_run`` from
cached source (see :mod:`repro.cache`) and skips both validation and code
generation — the graph was validated when the entry was created.

Either way the graph is frozen once the module source exists: the calling
convention (:class:`~repro.runtime.executor.ArgumentPlan`) is derived from
it on the first call and reused by every later one.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from .. import instrumentation
from ..runtime.executor import ArgumentPlan, collect_return, prepare_arguments

__all__ = ["CompiledSDFG", "compile_sdfg"]


class CompiledSDFG:
    """An executable, specialized program generated from an SDFG.

    With ``instrument=True`` the generated module carries per-state and
    per-map timing hooks (reporting to :mod:`repro.instrumentation`); with
    ``sanitize=True`` it carries bounds/NaN guard calls (reporting to
    :mod:`repro.sanitizer.guards`); the default emits the unchanged
    hook-free module.
    """

    def __init__(self, sdfg, device: str = "CPU", instrument: bool = False,
                 sanitize: bool = False, validate: bool = True):
        from .pygen import generate_payload

        self.sdfg = sdfg
        self.device = device
        self.instrumented = instrument
        self.sanitized = sanitize
        #: True when rehydrated from the compilation cache
        self.from_cache = False
        coll = instrumentation._ACTIVE
        self.validate_seconds = 0.0
        if validate:
            start = time.perf_counter()
            sdfg.validate()
            self.validate_seconds = time.perf_counter() - start
            if coll is not None:
                coll.add("phase", "validate", self.validate_seconds)
        start = time.perf_counter()
        self._run, self.source, self.closure_specs = generate_payload(
            sdfg, instrument=instrument, sanitize=sanitize)
        self.codegen_seconds = time.perf_counter() - start
        if coll is not None:
            coll.add("phase", "codegen", self.codegen_seconds)
        #: state-index -> visit count from the most recent execution
        #: (consumed by the device performance models)
        self.last_state_visits: Dict[int, int] = {}
        self.last_symbols: Dict[str, int] = {}
        self._plan: Optional[ArgumentPlan] = None

    @classmethod
    def from_cached(cls, sdfg, run, source: str,
                    closure_specs: Optional[Dict[str, Tuple[int, int]]] = None,
                    device: str = "CPU", instrument: bool = False,
                    sanitize: bool = False) -> "CompiledSDFG":
        """Wrap an already-rehydrated module (cache hit): no validation, no
        code generation."""
        obj = cls.__new__(cls)
        obj.sdfg = sdfg
        obj.device = device
        obj.instrumented = instrument
        obj.sanitized = sanitize
        obj.from_cache = True
        obj.validate_seconds = 0.0
        obj._run = run
        obj.source = source
        obj.closure_specs = dict(closure_specs or {})
        obj.codegen_seconds = 0.0
        obj.last_state_visits = {}
        obj.last_symbols = {}
        obj._plan = None
        return obj

    @property
    def plan(self) -> ArgumentPlan:
        """The module's calling convention, derived from the (frozen) graph
        on first use."""
        plan = self._plan
        if plan is None:
            plan = self._plan = ArgumentPlan(self.sdfg)
        return plan

    def __call__(self, *args, **kwargs):
        containers, symbols = prepare_arguments(self.sdfg, args, kwargs,
                                                self.plan)
        return self.run_prepared(containers, symbols)

    def run_prepared(self, containers: Dict, symbols: Dict,
                     start_state: Optional[int] = None):
        """Execute with already-bound containers/symbols, optionally resuming
        at a state-machine index (checkpoint/restart, DESIGN.md §10).

        ``start_state`` is an index into ``sdfg.topological_states()`` — the
        numbering the generated module and the distributed checkpointer
        share.  Containers may include pre-populated transients (restored
        from a snapshot); they are reused instead of zero-allocated.
        """
        visits: Dict[int, int] = {}
        self._run(containers, symbols, visits, start_state)
        self.last_state_visits = visits
        self.last_symbols = dict(symbols)
        return collect_return(self.sdfg, containers, self.plan)

    def save_source(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.source)

    def __repr__(self) -> str:
        return f"CompiledSDFG({self.sdfg.name!r}, device={self.device})"


def compile_sdfg(sdfg, device: str = "CPU", instrument: bool = False,
                 sanitize: bool = False,
                 cache: Optional[bool] = None) -> CompiledSDFG:
    """Compile an SDFG into an executable specialized module.

    When the compilation cache is enabled (``cache.enabled``; override with
    the *cache* argument) the content-addressed cache is consulted first and
    a hit rehydrates the module from cached source instead of re-generating
    it (see :mod:`repro.cache`).
    """
    if cache is None:
        from ..config import Config

        cache = bool(Config.get("cache.enabled"))
    if cache:
        from ..cache import cached_compile

        return cached_compile(sdfg, device=device, instrument=instrument,
                              sanitize=sanitize)
    return CompiledSDFG(sdfg, device=device, instrument=instrument,
                        sanitize=sanitize)
