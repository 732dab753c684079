"""Reference SDFG interpreter.

Executes an SDFG functionally: walks the state machine, runs each state's
dataflow in topological order, iterates map scopes point-by-point, and honors
memlet subsets, WCR, streams, library nodes, and nested SDFGs.  This is the
semantic ground truth that code generation and the device simulators are
tested against; it favors clarity over speed.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Any, Dict, List, Optional

import numpy as np

from .. import instrumentation
from ..config import Config
from ..governor import budget as _governor_budget
from ..resilience import hooks as _hooks
from ..sanitizer import guards as _guards
from ..ir.data import Array, Scalar, Stream, View
from ..ir.memlet import Memlet
from ..ir.nodes import (
    AccessNode,
    LibraryNode,
    MapEntry,
    MapExit,
    NestedSDFG,
    Node,
    ScheduleType,
    Tasklet,
)
from ..ir.state import SDFGState
from ..symbolic import Symbol
from .wcr import apply_wcr

__all__ = ["run_sdfg", "ExecutionError", "allocate_container", "infer_symbols",
           "ArgumentPlan", "prepare_arguments", "collect_return"]

#: hard backstop against runaway state machines
MAX_TRANSITIONS = 100_000_000

_TASKLET_GLOBALS = {
    "np": np,
    "math": math,
    "abs": abs,
    "min": min,
    "max": max,
    "int": int,
    "float": float,
    "bool": bool,
    "len": len,
    "range": range,
}


class ExecutionError(RuntimeError):
    """Raised when the interpreter cannot execute an SDFG."""


def allocate_container(desc, env: Dict[str, int]):
    """Allocate backing storage for a data descriptor."""
    if isinstance(desc, Stream):
        return deque(maxlen=desc.buffer_size or None)
    shape = tuple(int(s.evaluate(env)) for s in desc.shape)
    if isinstance(desc, Scalar):
        return np.zeros(1, dtype=desc.dtype.nptype)
    return np.zeros(shape, dtype=desc.dtype.nptype)


def infer_symbols(sdfg, containers: Dict[str, Any]) -> Dict[str, int]:
    """Deduce free-symbol values from actual argument shapes and from
    integer scalar arguments that share a free symbol's name.

    Pure-symbol dimensions bind directly; composite dimensions are verified
    afterwards (mismatch is an error, matching the paper's static symbolic
    typing).  A shape-derived binding and a scalar-argument binding for the
    same symbol must agree.
    """
    return ArgumentPlan(sdfg).infer_symbols(containers)


#: container kinds recorded by :class:`ArgumentPlan`
_ARRAY, _SCALAR, _STREAM = "array", "scalar", "stream"


class ArgumentPlan:
    """The calling convention of one SDFG, derived once from its graph.

    Records what binding arguments and collecting results need to know
    about the graph: the positional order, the frozen free symbols and the
    names bindable as symbols, each container's kind and NumPy dtype, the
    symbolic shapes symbols are inferred from, the scalar containers that
    also bind a symbol, and the ordered return containers.  :meth:`bind`
    and :meth:`collect` then never walk the SDFG, so a compiled module —
    whose graph is frozen once its source exists — builds one plan and
    reuses it on every call (DESIGN.md "Call path").
    """

    __slots__ = ("positional", "required", "free_symbols", "symbol_names",
                 "containers", "shapes", "scalar_symbols", "returns")

    def __init__(self, sdfg):
        arrays = sdfg.arrays
        order = sdfg.arg_names or sorted(sdfg.arglist())
        #: non-transient containers in calling-convention order
        self.positional = tuple(n for n in order
                                if n in arrays and not arrays[n].transient)
        self.required = tuple(n for n in self.positional if n != "__return")
        self.free_symbols = frozenset(sdfg.free_symbols)
        self.symbol_names = self.free_symbols | frozenset(sdfg.symbols)
        #: name -> (kind, NumPy dtype) for every container
        self.containers: Dict[str, Any] = {}
        shapes = []
        for name, desc in arrays.items():
            if isinstance(desc, Scalar):
                kind = _SCALAR
            elif isinstance(desc, Stream):
                kind = _STREAM
            else:
                kind = _ARRAY
                # pure-symbol dimensions bind; the others are verified
                bind = tuple((axis, dim.name) for axis, dim in
                             enumerate(desc.shape) if isinstance(dim, Symbol))
                check = tuple((axis, dim) for axis, dim in
                              enumerate(desc.shape)
                              if not isinstance(dim, Symbol))
                shapes.append((name, len(desc.shape), bind, check))
            self.containers[name] = (kind, desc.dtype.nptype)
        self.shapes = tuple(shapes)
        self.scalar_symbols = tuple(
            name for name, desc in arrays.items()
            if isinstance(desc, Scalar) and name in self.symbol_names)
        #: (name, is_scalar) of the return containers, in tuple order
        self.returns = tuple((name, isinstance(arrays[name], Scalar))
                             for name in sdfg.return_names())

    def infer_symbols(self, containers: Dict[str, Any]) -> Dict[str, int]:
        """Symbol values implied by *containers* (see :func:`infer_symbols`)."""
        env: Dict[str, int] = {}
        for name, ndim, bind, _ in self.shapes:
            value = containers.get(name)
            if not hasattr(value, "shape"):
                continue
            if len(value.shape) != ndim:
                raise ExecutionError(
                    f"argument {name!r} has {len(value.shape)} dimensions, "
                    f"expected {ndim}")
            for axis, sym in bind:
                actual = value.shape[axis]
                if sym in env and env[sym] != actual:
                    raise ExecutionError(
                        f"inconsistent value for symbol {sym}: "
                        f"{env[sym]} vs {actual} (argument {name!r})")
                env[sym] = int(actual)
        # a free symbol supplied explicitly as an integer scalar argument binds
        # too (shape-less programs have no other source); shape-derived values
        # win conflicts only by raising, never silently
        for name in self.scalar_symbols:
            if name not in containers:
                continue
            value = np.asarray(containers[name]).reshape(-1)[0]
            if not isinstance(value, (int, np.integer)):
                continue
            value = int(value)
            if name in env and env[name] != value:
                raise ExecutionError(
                    f"inconsistent value for symbol {name}: shape-derived "
                    f"{env[name]} vs scalar argument {value}")
            env[name] = value
        # verify composite dimensions now that symbols are bound
        for name, _, _, check in self.shapes:
            if not check:
                continue
            value = containers.get(name)
            if not hasattr(value, "shape"):
                continue
            for axis, dim in check:
                try:
                    expected = dim.evaluate(env)
                except KeyError:
                    continue
                if expected != value.shape[axis]:
                    raise ExecutionError(
                        f"argument {name!r}: dimension {dim} evaluates to "
                        f"{expected} but actual size is {value.shape[axis]}")
        return env

    def bind(self, args, kwargs):
        """Bind positional/keyword arguments to (containers, symbols) dicts.

        Mutates nothing; raises :class:`ExecutionError` on signature
        violations.
        """
        kwargs = dict(kwargs)
        positional = self.positional
        if len(args) > len(positional):
            raise ExecutionError(
                f"too many positional arguments: got {len(args)}, "
                f"expected at most {len(positional)}")
        for name, value in zip(positional, args):
            kwargs.setdefault(name, value)

        containers: Dict[str, Any] = {}
        symbols: Dict[str, Any] = {}
        specs = self.containers
        for key, value in kwargs.items():
            spec = specs.get(key)
            if spec is None:
                if key not in self.symbol_names:
                    raise ExecutionError(f"unknown argument {key!r}")
                symbols[key] = int(value)
                continue
            kind, nptype = spec
            if kind is _SCALAR:
                containers[key] = np.array([value], dtype=nptype)
            elif kind is _STREAM:
                containers[key] = value
            else:
                arr = np.asarray(value)
                if arr.dtype != nptype:
                    raise ExecutionError(
                        f"argument {key!r} has dtype {arr.dtype}, expected "
                        f"{nptype} (static symbolic typing)")
                containers[key] = arr

        symbols.update(self.infer_symbols(containers))
        missing = [name for name in self.free_symbols if name not in symbols]
        if missing:
            raise ExecutionError(f"unbound symbols: {sorted(missing)}")
        required = [n for n in self.required if n not in containers]
        if required:
            raise ExecutionError(f"missing arguments: {required}")
        return containers, symbols

    def collect(self, containers):
        """The return container(s) after execution, or None."""
        if not self.returns:
            return None
        results = []
        for name, scalar in self.returns:
            value = containers.get(name)
            if value is not None and scalar:
                value = value[0]
            results.append(value)
        if len(results) == 1:
            return results[0]
        return tuple(results)


class _Context:
    """Mutable execution state: container storage + symbol values."""

    __slots__ = ("sdfg", "containers", "symbols")

    def __init__(self, sdfg, containers: Dict[str, Any], symbols: Dict[str, Any]):
        self.sdfg = sdfg
        self.containers = containers
        self.symbols = symbols

    def storage(self, name: str):
        desc = self.sdfg.arrays[name]
        existing = self.containers.get(name)
        if existing is None:
            existing = self.containers[name] = allocate_container(desc, self.symbols)
            return existing
        # loop-dependent transient shapes (e.g. x[:i]) change between
        # iterations: reallocate when the evaluated shape differs
        if desc.transient and not isinstance(desc, (Scalar, Stream)) \
                and desc.free_symbols:
            try:
                shape = tuple(int(s.evaluate(self.symbols)) for s in desc.shape)
            except KeyError:
                return existing
            if getattr(existing, "shape", shape) != shape:
                existing = self.containers[name] = allocate_container(
                    desc, self.symbols)
        return existing


def _read(ctx: _Context, memlet: Memlet, env: Dict[str, Any]):
    storage = ctx.storage(memlet.data)
    desc = ctx.sdfg.arrays[memlet.data]
    if isinstance(desc, Stream):
        if not storage:
            raise ExecutionError(f"read from empty stream {memlet.data!r}")
        return storage.popleft()
    if isinstance(desc, Scalar):
        return storage[0]
    slices = memlet.subset.to_slices(env)
    guard = _guards._ACTIVE
    if guard is not None and "bounds" in guard.modes:
        _guards.check_index(memlet.data, storage.shape, slices,
                            program=guard.program)
    view = storage[slices]
    if memlet.squeeze:
        new_shape = tuple(s for axis, s in enumerate(view.shape)
                          if axis not in memlet.squeeze)
        view = view.reshape(new_shape)
    if view.size == 1 and memlet.subset.is_point() is True:
        return view.reshape(())[()]
    return view


def _write(ctx: _Context, memlet: Memlet, env: Dict[str, Any], value) -> None:
    storage = ctx.storage(memlet.data)
    desc = ctx.sdfg.arrays[memlet.data]
    if isinstance(desc, Stream):
        storage.append(value)
        return
    guard = _guards._ACTIVE
    if guard is not None and "nan" in guard.modes:
        _guards.check_value(memlet.data, value, program=guard.program)
    if isinstance(desc, Scalar):
        if memlet.wcr is not None:
            apply_wcr(storage, 0, value, memlet.wcr)
        else:
            storage[0] = value
        return
    slices = memlet.subset.to_slices(env)
    if guard is not None and "bounds" in guard.modes:
        _guards.check_index(memlet.data, storage.shape, slices,
                            program=guard.program)
    if memlet.wcr is not None:
        apply_wcr(storage, slices, value, memlet.wcr)
    else:
        target = storage[slices]
        if np.isscalar(value) or (hasattr(value, "shape") and value.shape != target.shape):
            storage[slices] = np.broadcast_to(np.asarray(value), target.shape)
        else:
            storage[slices] = value


def _execute_tasklet(ctx: _Context, state: SDFGState, node: Tasklet,
                     env: Dict[str, Any]) -> None:
    local: Dict[str, Any] = {}
    for edge in state.in_edges(node):
        if edge.memlet.is_empty() or edge.dst_conn is None:
            continue
        local[edge.dst_conn] = _read(ctx, edge.memlet, env)
    local.update(env)
    tasklet_globals = dict(_TASKLET_GLOBALS)
    tasklet_globals.update(ctx.sdfg.constants)
    try:
        exec(compile(node.code, f"<tasklet {node.label}>", "exec"), tasklet_globals, local)
    except Exception as exc:  # pragma: no cover - exercised via error tests
        raise ExecutionError(
            f"tasklet {node.label!r} failed: {exc}\ncode: {node.code}") from exc
    for edge in state.out_edges(node):
        if edge.memlet.is_empty() or edge.src_conn is None:
            continue
        if edge.src_conn not in local:
            raise ExecutionError(
                f"tasklet {node.label!r} did not assign output connector "
                f"{edge.src_conn!r}")
        _write(ctx, edge.memlet, env, local[edge.src_conn])


def _execute_library(ctx: _Context, state: SDFGState, node: LibraryNode,
                     env: Dict[str, Any]) -> None:
    prof = instrumentation._ACTIVE
    if prof is not None:
        with prof.region("library", node.label or type(node).__name__):
            _execute_library_body(ctx, state, node, env)
        return
    _execute_library_body(ctx, state, node, env)


def _execute_library_body(ctx: _Context, state: SDFGState, node: LibraryNode,
                          env: Dict[str, Any]) -> None:
    inputs: Dict[str, Any] = {}
    for edge in state.in_edges(node):
        if edge.memlet.is_empty() or edge.dst_conn is None:
            continue
        inputs[edge.dst_conn] = _read(ctx, edge.memlet, env)
    sym_env = {k: v for k, v in env.items() if isinstance(v, (int, np.integer))}
    outputs = node.compute(inputs, sym_env)
    for edge in state.out_edges(node):
        if edge.memlet.is_empty() or edge.src_conn is None:
            continue
        if edge.src_conn not in outputs:
            raise ExecutionError(
                f"library node {node.label!r} produced no output for "
                f"connector {edge.src_conn!r}")
        _write(ctx, edge.memlet, env, outputs[edge.src_conn])


def _execute_nested(ctx: _Context, state: SDFGState, node: NestedSDFG,
                    env: Dict[str, Any]) -> None:
    inner = node.sdfg
    inner_containers: Dict[str, Any] = {}
    writeback: List = []
    for edge in state.in_edges(node):
        if edge.memlet.is_empty() or edge.dst_conn is None:
            continue
        outer_desc = ctx.sdfg.arrays[edge.memlet.data]
        storage = ctx.storage(edge.memlet.data)
        if isinstance(outer_desc, Stream):
            inner_containers[edge.dst_conn] = storage
            continue
        if isinstance(outer_desc, Scalar):
            inner_containers[edge.dst_conn] = storage
            continue
        slices = edge.memlet.subset.to_slices(env)
        view = storage[slices]
        inner_desc = inner.arrays[edge.dst_conn]
        # squeeze/reshape view to match the inner container's rank
        inner_containers[edge.dst_conn] = _conform(view, inner_desc, env, node)
    for edge in state.out_edges(node):
        if edge.memlet.is_empty() or edge.src_conn is None:
            continue
        outer_desc = ctx.sdfg.arrays[edge.memlet.data]
        storage = ctx.storage(edge.memlet.data)
        if isinstance(outer_desc, (Stream, Scalar)):
            inner_containers.setdefault(edge.src_conn, storage)
            continue
        slices = edge.memlet.subset.to_slices(env)
        view = storage[slices]
        inner_desc = inner.arrays[edge.src_conn]
        conformed = _conform(view, inner_desc, env, node)
        if conformed.base is None and conformed is not view:
            # reshape produced a copy; remember to write back after the call
            writeback.append((storage, slices, conformed))
        inner_containers.setdefault(edge.src_conn, conformed)

    inner_symbols: Dict[str, Any] = {}
    for inner_name, outer_expr in node.symbol_mapping.items():
        if hasattr(outer_expr, "evaluate"):
            inner_symbols[inner_name] = outer_expr.evaluate(env)
        elif isinstance(outer_expr, str) and outer_expr in env:
            inner_symbols[inner_name] = env[outer_expr]
        else:
            inner_symbols[inner_name] = outer_expr
    # unmapped inner symbols inherit same-named outer values
    for name, value in env.items():
        if isinstance(value, (int, np.integer)):
            inner_symbols.setdefault(name, int(value))
    # nested state machines run mid-state of the outer SDFG: their
    # boundaries are not checkpointable program points
    with _hooks.suppressed():
        _run_machine(inner, inner_containers, inner_symbols)
    for storage, slices, data in writeback:
        storage[slices] = data.reshape(storage[slices].shape)


def _conform(view: np.ndarray, inner_desc, env, node) -> np.ndarray:
    """Make an outer view match the inner descriptor's rank/shape."""
    try:
        target_shape = tuple(int(s.evaluate(env)) for s in inner_desc.shape)
    except KeyError:
        return view
    if view.shape == target_shape:
        return view
    squeezed = view
    if view.ndim > len(target_shape):
        squeeze_axes = tuple(i for i, s in enumerate(view.shape)
                             if s == 1 and view.ndim - 1 >= len(target_shape))
        squeezed = view
        for axis in sorted(squeeze_axes, reverse=True):
            if squeezed.ndim > len(target_shape) and squeezed.shape[axis] == 1:
                squeezed = squeezed.reshape(
                    squeezed.shape[:axis] + squeezed.shape[axis + 1:])
    if squeezed.shape == target_shape:
        return squeezed
    return squeezed.reshape(target_shape)


def _execute_scope(ctx: _Context, state: SDFGState, entry: MapEntry,
                   env: Dict[str, Any],
                   scope_order: Dict[Optional[MapEntry], List[Node]]) -> None:
    prof = instrumentation._ACTIVE
    if prof is not None:
        name = entry.map.label or ",".join(entry.map.params)
        with prof.region("map", name):
            _execute_scope_body(ctx, state, entry, env, scope_order)
        return
    _execute_scope_body(ctx, state, entry, env, scope_order)


def _execute_scope_body(ctx: _Context, state: SDFGState, entry: MapEntry,
                        env: Dict[str, Any],
                        scope_order: Dict[Optional[MapEntry], List[Node]]
                        ) -> None:
    rng = entry.map.range
    iteration = []
    for begin, end, step in rng.dims:
        b = begin.evaluate(env)
        e = end.evaluate(env)
        s = step.evaluate(env)
        iteration.append(range(b, e + 1, s))
    body = scope_order[entry]
    if entry.map.schedule == ScheduleType.CPU_Multicore and iteration \
            and iteration[0]:
        from . import parallel as _parallel

        if _parallel.maybe_parallel_scope(ctx, state, entry, env,
                                          scope_order, iteration):
            return
    for point in itertools.product(*iteration):
        inner_env = dict(env)
        inner_env.update(zip(entry.map.params, point))
        _execute_level(ctx, state, body, inner_env, scope_order)


def _execute_level(ctx: _Context, state: SDFGState, nodes: List[Node],
                   env: Dict[str, Any],
                   scope_order: Dict[Optional[MapEntry], List[Node]]) -> None:
    for node in nodes:
        if isinstance(node, Tasklet):
            _execute_tasklet(ctx, state, node, env)
        elif isinstance(node, MapEntry):
            _execute_scope(ctx, state, node, env, scope_order)
        elif isinstance(node, LibraryNode):
            _execute_library(ctx, state, node, env)
        elif isinstance(node, NestedSDFG):
            _execute_nested(ctx, state, node, env)
        elif isinstance(node, AccessNode):
            # perform access->access copy edges when visiting the destination
            for edge in state.in_edges(node):
                if isinstance(edge.src, AccessNode) and not edge.memlet.is_empty():
                    _copy_edge(ctx, edge, env)
        elif isinstance(node, MapExit):
            pass  # all writes happen at the producing code nodes
        else:  # pragma: no cover - future node kinds
            raise ExecutionError(f"cannot execute node {node!r}")


def _copy_edge(ctx: _Context, edge, env: Dict[str, Any]) -> None:
    memlet = edge.memlet
    src_name = edge.src.data
    dst_name = edge.dst.data
    src_desc = ctx.sdfg.arrays[src_name]
    dst_desc = ctx.sdfg.arrays[dst_name]
    src_storage = ctx.storage(src_name)
    dst_storage = ctx.storage(dst_name)
    # Determine source and destination subsets from the memlet convention:
    # memlet.data names one side; other_subset (if present) the other side.
    if memlet.data == src_name:
        src_subset = memlet.subset
        dst_subset = memlet.other_subset
    else:
        src_subset = memlet.other_subset
        dst_subset = memlet.subset

    guard = _guards._ACTIVE
    if isinstance(src_desc, Stream):
        value = src_storage.popleft()
    elif isinstance(src_desc, Scalar):
        value = src_storage[0]
    else:
        slices = (src_subset.to_slices(env) if src_subset is not None
                  else tuple(slice(None) for _ in src_storage.shape))
        if guard is not None and "bounds" in guard.modes:
            _guards.check_index(src_name, src_storage.shape, slices,
                                program=guard.program)
        value = src_storage[slices]

    if isinstance(dst_desc, Stream):
        dst_storage.append(np.copy(value))
        return
    if isinstance(dst_desc, Scalar):
        if memlet.wcr:
            apply_wcr(dst_storage, 0, value, memlet.wcr)
        else:
            # a one-element subset (``return a[0]``) arrives as a 1-array
            dst_storage[0] = np.reshape(value, ())
        return
    dst_slices = (dst_subset.to_slices(env) if dst_subset is not None
                  else tuple(slice(None) for _ in dst_storage.shape))
    if guard is not None and "bounds" in guard.modes:
        _guards.check_index(dst_name, dst_storage.shape, dst_slices,
                            program=guard.program)
    target = dst_storage[dst_slices]
    value_arr = np.asarray(value)
    if value_arr.shape != target.shape:
        value_arr = value_arr.reshape(target.shape)
    if memlet.wcr:
        apply_wcr(dst_storage, dst_slices, value_arr, memlet.wcr)
    else:
        dst_storage[dst_slices] = value_arr


def execute_state(ctx: _Context, state: SDFGState) -> None:
    prof = instrumentation._ACTIVE
    if prof is not None:
        with prof.region("state", state.label):
            _execute_state_body(ctx, state)
        return
    _execute_state_body(ctx, state)


def _execute_state_body(ctx: _Context, state: SDFGState) -> None:
    scope = state.scope_dict()
    order: Dict[Optional[MapEntry], List[Node]] = {}
    for node in state.topological_nodes():
        holder = scope.get(node)
        if isinstance(node, MapExit):
            continue  # handled by its scope's writes
        order.setdefault(holder, []).append(node)
    env = dict(ctx.symbols)
    _execute_level(ctx, state, order.get(None, []), env, order)


def _scalar_value(storage) -> Any:
    arr = np.asarray(storage)
    return arr.reshape(-1)[0]


def _run_machine(sdfg, containers: Dict[str, Any], symbols: Dict[str, Any],
                 start_state=None) -> None:
    ctx = _Context(sdfg, containers, symbols)
    state = start_state if start_state is not None else sdfg.start_state
    if state is None:
        return
    # state indices follow the generated module's numbering (checkpoints
    # resume at an index into topological_states())
    order = sdfg.topological_states()
    state_index = {s: i for i, s in enumerate(order)}
    labels = [s.label for s in order]
    transitions = 0
    while state is not None:
        # governor deadline check, then the checkpoint hook (DESIGN.md §10)
        _hooks.state_boundary(state_index[state], ctx.containers,
                              ctx.symbols, labels)
        execute_state(ctx, state)
        cond_env = dict(ctx.symbols)
        # expose scalar container values to interstate conditions
        for name, desc in sdfg.arrays.items():
            if isinstance(desc, Scalar) and name in ctx.containers:
                cond_env[name] = _scalar_value(ctx.containers[name])
        next_state = None
        # deterministic order: conditional edges first, unconditional last
        out = sdfg.out_edges(state)
        out.sort(key=lambda e: e.data.is_unconditional())
        for isedge in out:
            if isedge.data.evaluate_condition(cond_env):
                # assignments may read scalar containers (data-dependent
                # bounds); evaluate against the full environment, commit
                # only the assigned symbols
                merged = dict(cond_env)
                isedge.data.apply_assignments(merged)
                for key in isedge.data.assignments:
                    ctx.symbols[key] = merged[key]
                next_state = isedge.dst
                break
        state = next_state
        transitions += 1
        if transitions > MAX_TRANSITIONS:
            raise ExecutionError("state machine exceeded the transition limit")


def prepare_arguments(sdfg, args, kwargs, plan: Optional[ArgumentPlan] = None):
    """Bind positional/keyword arguments to (containers, symbols) dicts.

    Shared by the interpreter and compiled-module paths; a compiled module
    passes its cached *plan*, so this stays the runtime's one binding entry
    point (``perfbench/spans.py`` times it).  Mutates nothing; raises
    :class:`ExecutionError` on signature violations.
    """
    return (plan or ArgumentPlan(sdfg)).bind(args, kwargs)


def collect_return(sdfg, containers, plan: Optional[ArgumentPlan] = None):
    """Extract the ``__return`` container(s) after execution, or None."""
    return (plan or ArgumentPlan(sdfg)).collect(containers)


def run_sdfg(sdfg, *args, validate: Optional[bool] = None,
             budget=None, **kwargs):
    """Execute an SDFG with NumPy arguments.

    Positional arguments follow ``sdfg.arg_names``; keyword arguments bind
    containers (by name) and free symbols.  Returns the ``__return``
    container if the SDFG defines one, else None.  Arrays are modified
    in place, matching the paper's calling convention.

    ``validate`` defaults to the ``validate.before_execute`` configuration
    key: malformed graphs fail fast with an :class:`InvalidSDFGError`
    naming the violated invariant instead of erroring deep inside a tasklet.

    ``budget`` (a :class:`repro.governor.Budget`; defaults to the ambient
    ``governor.*`` configuration) bounds the run: the memory plan is
    admission-checked *before* any transient is allocated, and a deadline
    arms a watchdog whose expiry raises
    :class:`~repro.governor.ExecutionTimeout` at the next state boundary.
    """
    if validate is None:
        validate = Config.get("validate.before_execute")
    if validate:
        sdfg.validate()
    plan = ArgumentPlan(sdfg)
    containers, symbols = prepare_arguments(sdfg, args, kwargs, plan)
    resolved = _governor_budget.Budget.resolve(budget)
    if resolved.is_null:
        _run_machine(sdfg, containers, symbols)
        return collect_return(sdfg, containers, plan)

    from ..governor import admission as _admission

    decision = None
    if resolved.max_bytes:
        decision = _admission.admit(sdfg, symbols, resolved,
                                    program=sdfg.name)
    with _governor_budget.armed(resolved, program=sdfg.name):
        if decision is not None and decision.action == "degrade-serial":
            # the serial tier's plan was admitted: pin the worker count so
            # no per-chunk accumulators/privatized copies materialize
            with Config.override(device__cpu_threads=1):
                _run_machine(sdfg, containers, symbols)
        else:
            _run_machine(sdfg, containers, symbols)
    return collect_return(sdfg, containers, plan)
