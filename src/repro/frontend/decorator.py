"""The ``@repro.program`` decorator (the paper's ``@dace.program``).

Decorated functions are parsed on demand into SDFGs.  Type-annotated
functions support ahead-of-time compilation (§3.3); unannotated functions
are JIT-specialized per argument signature.  ``auto_optimize=True`` with a
``device`` runs the §3.1 heuristics before compilation.
"""

from __future__ import annotations

import functools
import inspect
import warnings
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from .. import instrumentation
from ..cache import cached_compile
from ..config import Config
from ..dtypes import ArrayAnnotation, dtype_of, typeclass
from ..governor import Budget
from ..ir.data import Array, Data, Scalar
from ..ir.sdfg import SDFG
from ..sanitizer import guards
from ..symbolic import Symbol
from .astutils import UnsupportedFeature, function_ast

__all__ = ["DaceProgram", "program", "MapMarker", "map_marker"]


class MapMarker:
    """The ``repro.map[...]`` parametric-parallelism iterator (§2.2)."""

    __is_map_marker__ = True

    def __getitem__(self, ranges):
        raise TypeError(
            "repro.map[...] can only be iterated inside an @repro.program "
            "function (it is parsed, not executed)")

    def __repr__(self) -> str:
        return "repro.map"


map_marker = MapMarker()


class DaceProgram:
    """A parsed-on-demand data-centric program."""

    def __init__(self, func: Callable, auto_optimize: bool = False,
                 device: str = "CPU", fallback: Optional[bool] = None,
                 instrument: Optional[str] = None,
                 sanitize: Optional[str] = None,
                 budget=None):
        functools.update_wrapper(self, func)
        self.func = func
        self.name = func.__name__
        self.auto_optimize = auto_optimize
        self.device = device
        self.fallback = fallback
        #: per-program instrumentation mode; None defers to the
        #: ``instrument.mode`` configuration key
        self.instrument = instrument
        #: per-program sanitizer mode ("bounds,nan" etc.); None defers to
        #: the ``sanitize.mode`` configuration key
        self.sanitize = sanitize
        #: per-program execution budget (repro.governor.Budget); None defers
        #: to the ``governor.*`` configuration keys (off by default)
        self.budget = budget
        #: ProfileReport of the most recent instrumented call
        self.last_profile = None
        #: degradation-chain attempts of the most recent degrade-mode call
        self.last_attempts: list = []
        self._sdfg_cache: Dict[Tuple, SDFG] = {}
        self._compiled_cache: Dict[Tuple, Any] = {}
        #: desc-key -> content fingerprint, memoized for the circuit breaker
        self._breaker_keys: Dict[Tuple, str] = {}
        #: absorbed failures (rollbacks, degradations) across all calls
        from ..resilience import FailureReport

        self.failure_report = FailureReport()
        self._signature = inspect.signature(func)
        self._defaults = {
            name: param.default
            for name, param in self._signature.parameters.items()
            if param.default is not inspect.Parameter.empty
        }
        self._fully_annotated = all(
            param.annotation is not inspect.Parameter.empty
            for param in self._signature.parameters.values())

    # -------------------------------------------------------------- descriptors
    def _global_env(self) -> Dict[str, Any]:
        env = dict(getattr(self.func, "__globals__", {}))
        closure = getattr(self.func, "__closure__", None)
        if closure:
            for name, cell in zip(self.func.__code__.co_freevars, closure):
                try:
                    env[name] = cell.cell_contents
                except ValueError:
                    pass
        return env

    @functools.cached_property
    def _annotated(self) -> Dict[str, Any]:
        """Descriptor of each annotated parameter.  Annotations are
        immutable, so the descriptors are built once per program."""
        return {name: _annotation_to_desc(param.annotation)
                for name, param in self._signature.parameters.items()
                if param.annotation is not inspect.Parameter.empty}

    @functools.cached_property
    def _annotated_key(self) -> Tuple:
        """The descriptor key of a fully annotated program."""
        return self._desc_key(self._annotated)

    def _annotation_descs(self) -> Optional[Dict[str, Any]]:
        """Descriptors from type annotations, or None if unannotated.
        Shared between calls: callers clone before mutating."""
        return self._annotated if self._fully_annotated else None

    def _bound_arguments(self, args, kwargs) -> Dict[str, Any]:
        bound = self._signature.bind_partial(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _descs_from_args(self, args, kwargs) -> Dict[str, Any]:
        arguments = self._bound_arguments(args, kwargs)
        annotated = self._annotated
        descs: Dict[str, Any] = {}
        for name in self._signature.parameters:
            if name in annotated:
                descs[name] = annotated[name]
            elif name in arguments:
                descs[name] = _value_to_desc(arguments[name])
            else:
                raise TypeError(f"missing argument {name!r} for {self.name}")
        return descs

    def _call_key(self, args, kwargs) -> Tuple:
        """The descriptor key of a call's argument signature (the
        ``_desc_key`` of the descriptors ``to_sdfg`` parses for), built
        without descriptor objects: memoized for annotated programs, from
        argument dtypes and shapes otherwise."""
        if self._fully_annotated:
            return self._annotated_key
        arguments = self._bound_arguments(args, kwargs)
        annotated = self._annotated
        parts = []
        for name in self._signature.parameters:
            if name in annotated:
                parts.append(self._desc_key({name: annotated[name]})[0])
            elif name in arguments:
                parts.append(_value_key(name, arguments[name]))
            else:
                raise TypeError(f"missing argument {name!r} for {self.name}")
        return tuple(parts)

    @staticmethod
    def _desc_key(descs: Dict[str, Any]) -> Tuple:
        parts = []
        for name, desc in descs.items():
            if isinstance(desc, Data):
                parts.append((name, type(desc).__name__, desc.dtype.name,
                              tuple(str(s) for s in desc.shape)))
            else:
                parts.append((name, "symbol"))
        return tuple(parts)

    # ------------------------------------------------------------------ parsing
    def parse_for_descs(self, arg_descs: Dict[str, Any],
                        extra_globals: Optional[Dict[str, Any]] = None) -> SDFG:
        from .parser import parse_program

        key = self._desc_key(arg_descs)
        if key in self._sdfg_cache:
            return self._sdfg_cache[key]
        env = self._global_env()
        if extra_globals:
            for name, value in extra_globals.items():
                env.setdefault(name, value)
        cloned = {name: (desc.clone() if isinstance(desc, Data) else desc)
                  for name, desc in arg_descs.items()}
        sdfg = parse_program(self.func, cloned, env, name=self.name,
                             defaults=self._defaults)
        if Config.get("optimizer.simplify"):
            sdfg.simplify()
        self._sdfg_cache[key] = sdfg
        return sdfg

    def to_sdfg(self, *args, simplify: Optional[bool] = None, **kwargs) -> SDFG:
        """Parse to an SDFG.  Annotated programs need no arguments (AOT);
        unannotated programs specialize to the given example arguments."""
        descs = self._annotation_descs()
        if descs is None:
            if not args and not kwargs:
                raise UnsupportedFeature(
                    f"{self.name} has unannotated parameters; pass example "
                    f"arguments to to_sdfg() for JIT specialization")
            descs = self._descs_from_args(args, kwargs)
        if simplify is None:
            return self.parse_for_descs(descs)
        with Config.override(optimizer__simplify=simplify):
            # bypass the cache so the simplify setting takes effect
            key = self._desc_key(descs) + (simplify,)
            if key not in self._sdfg_cache:
                from .parser import parse_program

                cloned = {name: (d.clone() if isinstance(d, Data) else d)
                          for name, d in descs.items()}
                sdfg = parse_program(self.func, cloned, self._global_env(),
                                     name=self.name, defaults=self._defaults)
                if simplify:
                    sdfg.simplify()
                self._sdfg_cache[key] = sdfg
            return self._sdfg_cache[key]

    # ---------------------------------------------------------------- execution
    def compile(self, *args, device: Optional[str] = None,
                instrument: bool = False,
                sanitize: Optional[bool] = None, **kwargs):
        """Ahead-of-time compile; returns a CompiledSDFG.

        ``instrument=True`` compiles a module with timing hooks (cached
        separately from the plain module); ``sanitize=True`` one with
        bounds/NaN guard calls (``sanitize=None`` defers to the program's
        resolved sanitizer mode).  Governed and ungoverned calls share one
        module: its state-boundary call checks whatever budget is armed.
        When a profile collector is active, the compile phases (parse,
        autoopt, validate, codegen) report their wall time to it — the
        Fig. 6 decomposition.

        Compilation is keyed through the persistent content-addressed cache
        (:mod:`repro.cache`): a hit — even in a fresh process — rehydrates
        the generated module and skips optimization, validation, and code
        generation.
        """
        device = device or self.device
        if sanitize is None:
            sanitize = bool(self._sanitize_mode())
        key = (self._call_key(args, kwargs), device, self.auto_optimize,
               instrument, sanitize)
        compiled = self._compiled_cache.get(key)
        if compiled is not None:
            return compiled
        coll = instrumentation.current()
        if coll is not None:
            with coll.region("phase", "parse"):
                sdfg = self.to_sdfg(*args, **kwargs)
        else:
            sdfg = self.to_sdfg(*args, **kwargs)
        compiled = cached_compile(
            sdfg, device=device, instrument=instrument, sanitize=sanitize,
            optimize=device if self.auto_optimize else None)
        self._compiled_cache[key] = compiled
        return compiled

    def _bind_call_kwargs(self, args, kwargs) -> Dict[str, Any]:
        call_kwargs = {}
        for name, value in self._bound_arguments(args, kwargs).items():
            if isinstance(value, (np.ndarray, np.generic, int, float, complex, bool)):
                call_kwargs[name] = value
        return call_kwargs

    def _sanitize_mode(self) -> str:
        """Resolved sanitizer mode: a comma-joined guard set, "" when off."""
        mode = self.sanitize
        if mode is None:
            mode = Config.get("sanitize.mode")
        return ",".join(sorted(guards.parse_modes(mode)))

    def _instrument_mode(self) -> str:
        mode = self.instrument
        if mode is None:
            mode = Config.get("instrument.mode")
        if mode in (None, False, "off", ""):
            return "off"
        return "timers" if mode is True else str(mode)

    def __call__(self, *args, **kwargs):
        # reserved keyword: a per-call governor budget (never a program arg)
        budget = kwargs.pop("__budget", None)
        smode = self._sanitize_mode()
        if smode:
            with guards.sanitize(smode, program=self.name):
                return self._call_impl(args, kwargs, budget)
        return self._call_impl(args, kwargs, budget)

    def _call_impl(self, args, kwargs, budget=None):
        resolved = Budget.resolve(
            budget if budget is not None else self.budget)
        if not resolved.is_null:
            return self._call_governed(args, kwargs, resolved)
        return self._dispatch_call(args, kwargs)

    def _dispatch_call(self, args, kwargs):
        if self._instrument_mode() != "off":
            return self._call_instrumented(args, kwargs)
        if Config.get("resilience.mode") == "degrade":
            return self._call_degrading(args, kwargs)
        fallback = self.fallback
        try:
            compiled = self.compile(*args, **kwargs)
        except UnsupportedFeature as exc:
            if fallback:
                warnings.warn(
                    f"{self.name}: falling back to the Python interpreter "
                    f"({exc})", RuntimeWarning, stacklevel=2)
                return self.func(*args, **kwargs)
            raise
        return compiled(**self._bind_call_kwargs(args, kwargs))

    # ------------------------------------------------------------- governor
    def _breaker_key(self, args, kwargs) -> str:
        """Circuit key: the content-addressed fingerprint of the parsed
        graph (structurally identical programs share a circuit; any edit
        gets a fresh, closed one).  Memoized per argument-descriptor
        signature; falls back to the program name when parsing fails."""
        try:
            dkey = self._call_key(args, kwargs)
        except Exception:
            return f"program:{self.name}"
        cached = self._breaker_keys.get(dkey)
        if cached is not None:
            return cached
        try:
            from ..cache import fingerprint

            key = fingerprint(self.to_sdfg(*args, **kwargs))
        except Exception:
            key = f"program:{self.name}"
        self._breaker_keys[dkey] = key
        return key

    def _call_governed(self, args, kwargs, budget):
        """Execute under a non-null budget: breaker gate, memory admission,
        deadline arming (see DESIGN.md §12).

        Compilation runs *before* the watchdog is armed — the deadline
        bounds execution, not the (cached, one-time) compile.  Terminal
        failures feed the program's circuit; an open circuit fast-fails
        with the cached failure history before any re-parse or re-compile.
        """
        import time

        from ..governor import CircuitOpenError, armed, breaker_registry

        registry = breaker_registry()
        key = self._breaker_key(args, kwargs)
        registry.before_call(key, self.name)

        decision = None
        start = time.perf_counter()
        try:
            if budget.max_bytes:
                decision = self._admit(args, kwargs, budget)
            if budget.deadline_s:
                # compile outside the deadline window; dispatch re-raises
                # compile errors with full context
                try:
                    self.compile(
                        *args, instrument=self._instrument_mode() != "off",
                        **kwargs)
                except Exception:
                    pass
            with armed(budget, program=self.name):
                if decision is not None and decision.action == "degrade-serial":
                    with Config.override(device__cpu_threads=1):
                        result = self._dispatch_call(args, kwargs)
                else:
                    result = self._dispatch_call(args, kwargs)
        except CircuitOpenError:
            raise
        except Exception as exc:
            elapsed = time.perf_counter() - start
            registry.record_failure(key, exc, program=self.name,
                                    elapsed_s=elapsed)
            self.failure_report.record(
                "governor", self.name, exc, "terminal-failure",
                seconds=elapsed)
            raise
        registry.record_success(key, self.name)
        return result

    def _admit(self, args, kwargs, budget):
        """Price the planned allocations against ``budget.max_bytes``
        before anything is allocated; returns the AdmissionDecision, or
        None when the program cannot be parsed (the dispatch fallback
        path owns that case)."""
        from ..governor import admit
        from ..runtime.executor import prepare_arguments

        try:
            sdfg = self.to_sdfg(*args, **kwargs)
        except UnsupportedFeature:
            return None
        _, symbols = prepare_arguments(
            sdfg, (), self._bind_call_kwargs(args, kwargs))
        return admit(sdfg, symbols, budget, program=self.name)

    def _call_instrumented(self, args, kwargs):
        """Instrumented execution: compile phases, per-region timers, and
        (in degrade mode) attempt records all land in a profile collector.

        If a collector is already active (an enclosing
        :func:`repro.instrumentation.profile` block), events aggregate into
        it; otherwise a fresh collector is created and its report stored on
        ``self.last_profile``.
        """
        import contextlib

        mode = self._instrument_mode()
        outer = instrumentation.current()
        ctx = (contextlib.nullcontext(outer) if outer is not None
               else instrumentation.profile(self.name, mode=mode))
        with ctx as coll:
            if Config.get("resilience.mode") == "degrade":
                result = self._call_degrading(args, kwargs)
            else:
                result = self._run_instrumented(args, kwargs, coll)
        if outer is None:
            self.last_profile = coll.report(device=self.device)
        return result

    def _run_instrumented(self, args, kwargs, coll):
        fallback = self.fallback
        try:
            with coll.region("phase", "compile"):
                compiled = self.compile(*args, instrument=True, **kwargs)
        except UnsupportedFeature as exc:
            if fallback:
                warnings.warn(
                    f"{self.name}: falling back to the Python interpreter "
                    f"({exc})", RuntimeWarning, stacklevel=3)
                with coll.region("phase", "execute"):
                    return self.func(*args, **kwargs)
            raise
        with coll.region("phase", "execute"):
            return compiled(**self._bind_call_kwargs(args, kwargs))

    def _call_degrading(self, args, kwargs):
        """Graceful-degradation execution (``resilience.mode = "degrade"``).

        Fallback chain: compiled/optimized SDFG → unoptimized SDFG on the
        reference interpreter → the original Python function.  Arrays are
        modified in place by the first two stages, so their input contents
        are checkpointed and restored between attempts — a stage that dies
        halfway through must not poison the next stage's inputs.

        Every attempt is timed: ``self.last_attempts`` lists which tiers
        ran and for how long, failed tiers are recorded in
        ``self.failure_report`` with their duration, and an active profile
        collector receives the same attempt records.
        """
        import time

        from ..governor import GovernorError
        from ..resilience import ResilienceWarning

        coll = instrumentation.current()
        attempts: list = []
        self.last_attempts = attempts

        checkpoints = [(value, np.copy(value)) for value in
                       list(args) + list(kwargs.values())
                       if isinstance(value, np.ndarray)]

        def restore_inputs() -> None:
            for live, saved in checkpoints:
                np.copyto(live, saved)

        def note(stage: str, ok: bool, seconds: float,
                 exc: Optional[BaseException] = None) -> None:
            error = f"{type(exc).__name__}: {exc}" if exc is not None else ""
            attempts.append({"stage": stage, "ok": ok, "seconds": seconds,
                             "error": error})
            if coll is not None:
                coll.attempt(stage, ok, seconds, error)

        def degrade(stage: str, fallback: str, exc: BaseException,
                    seconds: float) -> None:
            note(stage, False, seconds, exc)
            self.failure_report.record(
                "degradation", self.name, exc, f"fell-back:{fallback}",
                stage=stage, seconds=seconds)
            warnings.warn(
                f"{self.name}: {stage} execution failed "
                f"({type(exc).__name__}: {exc}); degrading to {fallback}",
                ResilienceWarning, stacklevel=3)
            restore_inputs()

        start = time.perf_counter()
        try:
            compiled = self.compile(*args, instrument=coll is not None,
                                    **kwargs)
            result = compiled(**self._bind_call_kwargs(args, kwargs))
        except GovernorError:
            # timeouts/cancellations are deterministic on slower tiers;
            # degrading would re-run past the deadline unguarded
            raise
        except Exception as exc:
            degrade("compiled", "interpreter", exc,
                    time.perf_counter() - start)
        else:
            note("compiled", True, time.perf_counter() - start)
            return result

        start = time.perf_counter()
        try:
            from ..runtime.executor import run_sdfg

            sdfg = self.to_sdfg(*args, **kwargs)
            result = run_sdfg(sdfg, **self._bind_call_kwargs(args, kwargs))
        except GovernorError:
            raise
        except Exception as exc:
            degrade("interpreter", "python", exc,
                    time.perf_counter() - start)
        else:
            note("interpreter", True, time.perf_counter() - start)
            return result

        start = time.perf_counter()
        result = self.func(*args, **kwargs)
        note("python", True, time.perf_counter() - start)
        return result

    def __repr__(self) -> str:
        return f"DaceProgram({self.name})"


def _annotation_to_desc(annotation) -> Any:
    if isinstance(annotation, ArrayAnnotation):
        return Array(annotation.dtype, annotation.shape)
    if isinstance(annotation, typeclass):
        return Scalar(annotation)
    if isinstance(annotation, Symbol):
        return annotation
    raise UnsupportedFeature(
        f"unsupported annotation {annotation!r}; use repro dtypes "
        f"(e.g. repro.float64[N, N])")


def _value_key(name: str, value) -> Tuple:
    """``_desc_key`` part of an unannotated argument, without building the
    descriptor :func:`_value_to_desc` would."""
    if isinstance(value, np.ndarray):
        return (name, "Array", dtype_of(value.dtype).name,
                tuple(str(s) for s in value.shape))
    if isinstance(value, (np.generic, int, float, complex, bool)):
        return (name, "Scalar", dtype_of(value).name, ("1",))
    raise UnsupportedFeature(f"cannot infer descriptor for argument {value!r}")


def _value_to_desc(value) -> Data:
    if isinstance(value, np.ndarray):
        return Array(dtype_of(value.dtype), value.shape)
    if isinstance(value, (np.generic, int, float, complex, bool)):
        return Scalar(dtype_of(value))
    raise UnsupportedFeature(f"cannot infer descriptor for argument {value!r}")


def program(func: Optional[Callable] = None, *, auto_optimize: bool = False,
            device: str = "CPU", fallback: Optional[bool] = None,
            instrument: Optional[str] = None,
            sanitize: Optional[str] = None, budget=None):
    """Decorator marking a function as a data-centric program.

    Usable bare (``@repro.program``), with options
    (``@repro.program(auto_optimize=True, device="GPU")``), or as a call
    (``repro.program(func, auto_optimize=True)``); every form applies the
    same options.
    ``instrument="timers"`` forces profiling for this program;
    ``sanitize="bounds,nan"`` enables runtime guards (bounds/NaN checks in
    both the interpreter and the generated module);
    ``budget=repro.Budget(deadline_s=..., max_bytes=...)`` governs every
    call of this program (deadline + memory admission; DESIGN.md §12).
    Each ``None`` (default) defers to the matching configuration keys
    (``instrument.mode`` / ``sanitize.mode`` / ``governor.*``).  A single
    call can also be governed via the reserved ``__budget`` keyword.
    """

    def wrapper(f: Callable) -> DaceProgram:
        return DaceProgram(f, auto_optimize=auto_optimize, device=device,
                           fallback=fallback, instrument=instrument,
                           sanitize=sanitize, budget=budget)

    return wrapper if func is None else wrapper(func)
