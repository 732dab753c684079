"""NumPy / builtin function replacements (§2.3).

Calls to library functions are replaced with custom subgraphs or Library
Nodes during parsing.  The registry maps the *resolved callable object*
(``np.zeros``, ``np.sum``, …) to a handler, so aliasing (``import numpy as
anything``) works naturally.  Users can extend the registry with
:func:`register_replacement` — the mechanism the paper describes for
supporting additional libraries and object types.
"""

from __future__ import annotations

import ast
import inspect
import math
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..dtypes import dtype_of, typeclass
from ..ir.data import Scalar
from ..ir.memlet import Memlet
from ..symbolic import Expr, Integer, Range, Symbol, sympify
from .astutils import UnsupportedFeature, static_eval, unparse
from .parser import ArrayOp, ConstOp, Operand, ProgramVisitor, SymOp

__all__ = ["dispatch_call", "register_replacement"]

_REGISTRY: Dict[Any, Callable] = {}


def register_replacement(*functions: Any) -> Callable:
    """Register a parse-time replacement for the given callables."""

    def decorator(handler: Callable) -> Callable:
        for func in functions:
            _REGISTRY[func] = handler
        return handler

    return decorator


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def dispatch_call(visitor: ProgramVisitor, node: ast.Call, statement: bool = False):
    ok, func = static_eval(node.func, visitor.globals)
    if ok and func is not None:
        try:
            handler = _REGISTRY.get(func)
        except TypeError:
            handler = None
        if handler is not None:
            return handler(visitor, node)
        # calls to other data-centric programs -> nested SDFGs
        from .decorator import DaceProgram

        if isinstance(func, DaceProgram):
            return _emit_nested_call(visitor, func, node)
        if inspect.isfunction(func):
            wrapped = DaceProgram(func)
            return _emit_nested_call(visitor, wrapped, node)

    # method calls on arrays: A.sum(), A.copy(), A.astype(...)
    if isinstance(node.func, ast.Attribute):
        try:
            base = visitor._parse_expr(node.func.value)
        except UnsupportedFeature:
            base = None
        if isinstance(base, ArrayOp):
            return _dispatch_method(visitor, base, node)

    raise UnsupportedFeature(f"unsupported call {unparse(node)!r}")


def _dispatch_method(visitor: ProgramVisitor, base: ArrayOp, node: ast.Call):
    method = node.func.attr
    if method in ("sum", "min", "max", "prod"):
        # method form: the array is the receiver, so a positional axis
        # sits at args[0] (not args[1] as in the free-function form)
        return _emit_reduce(visitor, base, method,
                            _axis_of(visitor, node, start=0),
                            keepdims=_keepdims_of(visitor, node))
    if method == "mean":
        return _emit_mean(visitor, base, _axis_of(visitor, node, start=0),
                          keepdims=_keepdims_of(visitor, node))
    if method == "copy":
        return _emit_copy_of(visitor, base)
    if method == "astype":
        ok, np_dtype = static_eval(node.args[0], visitor.globals)
        if not ok:
            raise UnsupportedFeature("astype requires a static dtype")
        return _emit_cast(visitor, base, dtype_of(np.dtype(np_dtype)))
    if method == "transpose":
        return visitor._emit_transpose(base)
    if method == "fill":
        value = visitor._parse_expr(node.args[0])
        desc = visitor._desc(base)
        visitor._store_subset(base.name, Range.from_shape(desc.shape), [], value)
        return base
    raise UnsupportedFeature(f"unsupported array method .{method}()")


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _axis_of(visitor: ProgramVisitor, node: ast.Call,
             start: int = 1) -> Optional[Tuple[int, ...]]:
    """Static reduction axes of a call.  *start* is the position of the
    axis argument: 1 for free functions (``np.sum(A, axis)``), 0 for
    method calls (``A.sum(axis)``, where the array is not an argument)."""
    axis_node = None
    for kw in node.keywords:
        if kw.arg == "axis":
            axis_node = kw.value
    if axis_node is None and len(node.args) > start \
            and not any(isinstance(a, ast.Starred) for a in node.args):
        axis_node = node.args[start]
    if axis_node is None:
        return None
    ok, value = static_eval(axis_node, visitor.globals)
    if not ok:
        raise UnsupportedFeature("reduction axis must be a constant")
    if value is None:
        return None
    if isinstance(value, int):
        return (value,)
    return tuple(int(v) for v in value)


def _keepdims_of(visitor: ProgramVisitor, node: ast.Call) -> bool:
    for kw in node.keywords:
        if kw.arg == "keepdims":
            ok, value = static_eval(kw.value, visitor.globals)
            if not ok:
                raise UnsupportedFeature("keepdims must be a constant")
            return bool(value)
    return False


def _normalize_axes(axes: Optional[Tuple[int, ...]],
                    ndim: int) -> Optional[Tuple[int, ...]]:
    """Validate and wrap negative reduction axes (NumPy semantics: an axis
    outside ``[-ndim, ndim)`` is an error, not a silent modulo)."""
    if axes is None:
        return None
    norm = []
    for a in axes:
        if not -ndim <= a < ndim:
            raise UnsupportedFeature(
                f"reduction axis {a} out of range for {ndim}-d array")
        norm.append(a + ndim if a < 0 else a)
    return tuple(norm)


def _shape_from_node(visitor: ProgramVisitor, node: ast.expr) -> Tuple[Expr, ...]:
    elements = list(node.elts) if isinstance(node, (ast.Tuple, ast.List)) else [node]
    shape: List[Expr] = []
    for element in elements:
        operand = visitor._parse_expr(element)
        if isinstance(operand, ConstOp):
            shape.append(Integer(int(operand.value)))
        elif isinstance(operand, SymOp):
            shape.append(operand.expr)
        else:
            raise UnsupportedFeature(
                "array shapes must be constants or symbolic expressions")
    return tuple(shape)


def _dtype_arg(visitor: ProgramVisitor, node: ast.Call, position: int,
               default: typeclass) -> typeclass:
    dtype_node = None
    if len(node.args) > position:
        dtype_node = node.args[position]
    for kw in node.keywords:
        if kw.arg == "dtype":
            dtype_node = kw.value
    if dtype_node is None:
        return default
    ok, value = static_eval(dtype_node, visitor.globals)
    if not ok:
        raise UnsupportedFeature("dtype argument must be static")
    if isinstance(value, typeclass):
        return value
    return dtype_of(np.dtype(value))


def _alloc(visitor: ProgramVisitor, node: ast.Call, fill: Optional[float]) -> Operand:
    shape = _shape_from_node(visitor, node.args[0])
    dtype = _dtype_arg(visitor, node, 1, dtype_of(np.float64))
    name = visitor._tmp(shape, dtype)
    if fill is not None:
        visitor._store_subset(name, Range.from_shape(shape), [], ConstOp(fill))
    return ArrayOp(name)


def _emit_reduce(visitor: ProgramVisitor, operand: ArrayOp, wcr: str,
                 axes: Optional[Tuple[int, ...]],
                 keepdims: bool = False) -> Operand:
    from ..library.reduce import Reduce

    desc = visitor._desc(operand)
    if isinstance(desc, Scalar):
        return operand
    ndim = desc.ndim
    axes = _normalize_axes(axes, ndim)
    out_dims = [desc.shape[i] for i in range(ndim)
                if axes is not None and i not in axes]
    out = visitor._tmp(tuple(out_dims) if out_dims else (), desc.dtype)
    state = visitor._new_state("reduce")
    red = Reduce(wcr=wcr, axes=axes)
    state.add_node(red)
    src = state.add_read(operand.name)
    dst = state.add_write(out)
    state.add_edge(src, None, red, "_in", Memlet.from_array(operand.name, desc))
    out_desc = visitor.sdfg.arrays[out]
    if isinstance(out_desc, Scalar):
        state.add_edge(red, "_out", dst, None, Memlet(out, Range.from_string("0")))
    else:
        state.add_edge(red, "_out", dst, None, Memlet.from_array(out, out_desc))
    if not keepdims:
        return ArrayOp(out)
    return _emit_keepdims(visitor, out, desc, axes)


def _emit_keepdims(visitor: ProgramVisitor, reduced: str, src_desc,
                   axes: Optional[Tuple[int, ...]]) -> Operand:
    """Copy a reduced result into a view-compatible shape with size-1
    entries at the reduced axes (``keepdims=True`` semantics)."""
    ndim = src_desc.ndim
    red_axes = set(axes) if axes is not None else set(range(ndim))
    keep_shape = tuple(Integer(1) if i in red_axes else src_desc.shape[i]
                       for i in range(ndim))
    keep = visitor._tmp(keep_shape, src_desc.dtype)
    state = visitor._new_state("keepdims")
    out_desc = visitor.sdfg.arrays[reduced]
    kept = [i for i in range(ndim) if i not in red_axes]
    if isinstance(out_desc, Scalar):
        tasklet = state.add_tasklet("keepdims", {"__in"}, {"__out"},
                                    "__out = __in")
        state.add_edge(state.add_read(reduced), None, tasklet, "__in",
                       Memlet(reduced, Range.from_string("0")))
        state.add_edge(tasklet, "__out", state.add_write(keep), None,
                       Memlet(keep, Range.from_indices(
                           [Integer(0)] * ndim)))
        return ArrayOp(keep)
    params = [f"__k{i}" for i in range(len(kept))]
    dims = {p: (Integer(0), src_desc.shape[axis] - 1, Integer(1))
            for p, axis in zip(params, kept)}
    in_memlet = Memlet(reduced, Range.from_indices(
        [Symbol(p, nonnegative=False) for p in params]))
    out_indices: List[Expr] = []
    param_iter = iter(params)
    for i in range(ndim):
        out_indices.append(Integer(0) if i in red_axes
                           else Symbol(next(param_iter), nonnegative=False))
    state.add_mapped_tasklet(
        "keepdims", dims, {"__in": in_memlet}, "__out = __in",
        {"__out": Memlet(keep, Range.from_indices(out_indices))})
    return ArrayOp(keep)


def _emit_mean(visitor: ProgramVisitor, operand: ArrayOp,
               axes: Optional[Tuple[int, ...]],
               keepdims: bool = False) -> Operand:
    desc = visitor._desc(operand)
    if isinstance(desc, Scalar):
        return operand
    axes = _normalize_axes(axes, desc.ndim)
    total = _emit_reduce(visitor, operand, "sum", axes, keepdims=keepdims)
    axes_eff = axes if axes is not None else tuple(range(desc.ndim))
    count: Expr = Integer(1)
    for axis in axes_eff:
        count = count * desc.shape[axis]
    return visitor._emit_binary("/", total, SymOp(count))


def _emit_copy_of(visitor: ProgramVisitor, operand: ArrayOp) -> Operand:
    desc = visitor._desc(operand)
    if isinstance(desc, Scalar):
        out = visitor._tmp((), desc.dtype)
    else:
        out = visitor._tmp(desc.shape, desc.dtype)
    visitor._emit_copy(operand.name, None, out, None)
    return ArrayOp(out)


def _emit_cast(visitor: ProgramVisitor, operand: Operand, dtype: typeclass) -> Operand:
    if isinstance(operand, ConstOp):
        return ConstOp(dtype.nptype.type(operand.value).item())
    return visitor._emit_map_op(f"np.{dtype.name}({{0}})", [operand], dtype,
                                label="cast")


def _unary_np(np_name: str):
    def handler(visitor: ProgramVisitor, node: ast.Call):
        operand = visitor._parse_expr(node.args[0])
        if isinstance(operand, ConstOp):
            return ConstOp(getattr(np, np_name)(operand.value).item())
        in_dtype = visitor._dtype_of(operand)
        # transcendental functions promote integers to float
        if np_name in _FLOAT_FUNCS and not in_dtype.is_float and not in_dtype.is_complex:
            out_dtype = dtype_of(np.float64)
        else:
            out_dtype = in_dtype
        if np_name in ("floor", "ceil", "trunc", "rint") and in_dtype.is_float:
            out_dtype = in_dtype
        return visitor._emit_map_op(f"np.{np_name}({{0}})", [operand], out_dtype,
                                    label=np_name)

    return handler


_FLOAT_FUNCS = {"sqrt", "exp", "log", "log2", "log10", "sin", "cos", "tan",
                "tanh", "sinh", "cosh", "arcsin", "arccos", "arctan", "floor",
                "ceil", "trunc", "rint", "cbrt", "expm1", "log1p"}


def _binary_np(np_name: str):
    def handler(visitor: ProgramVisitor, node: ast.Call):
        left = visitor._parse_expr(node.args[0])
        right = visitor._parse_expr(node.args[1])
        if isinstance(left, ConstOp) and isinstance(right, ConstOp):
            return ConstOp(getattr(np, np_name)(left.value, right.value).item())
        dtype = visitor._promote("+", left, right)
        return visitor._emit_map_op(f"np.{np_name}({{0}}, {{1}})", [left, right],
                                    dtype, label=np_name)

    return handler


# ---------------------------------------------------------------------------
# NumPy registrations
# ---------------------------------------------------------------------------

@register_replacement(np.zeros)
def _np_zeros(visitor, node):
    return _alloc(visitor, node, 0)


@register_replacement(np.ones)
def _np_ones(visitor, node):
    return _alloc(visitor, node, 1)


@register_replacement(np.empty)
def _np_empty(visitor, node):
    return _alloc(visitor, node, None)


@register_replacement(np.full)
def _np_full(visitor, node):
    shape = _shape_from_node(visitor, node.args[0])
    fill = visitor._parse_expr(node.args[1])
    default = dtype_of(np.float64)
    if isinstance(fill, ConstOp):
        default = dtype_of(fill.value)
    dtype = _dtype_arg(visitor, node, 2, default)
    name = visitor._tmp(shape, dtype)
    visitor._store_subset(name, Range.from_shape(shape), [], fill)
    return ArrayOp(name)


@register_replacement(np.zeros_like, np.empty_like, np.ones_like)
def _np_like(visitor, node):
    ok, func = static_eval(node.func, visitor.globals)
    operand = visitor._parse_expr(node.args[0])
    if not isinstance(operand, ArrayOp):
        raise UnsupportedFeature("zeros_like requires an array argument")
    desc = visitor._desc(operand)
    dtype = _dtype_arg(visitor, node, 99, desc.dtype)
    name = visitor._tmp(desc.shape if not isinstance(desc, Scalar) else (), dtype)
    if func is not np.empty_like:
        fill = 0 if func is np.zeros_like else 1
        shape = (Range.from_string("0") if isinstance(desc, Scalar)
                 else Range.from_shape(desc.shape))
        visitor._store_subset(name, shape, [], ConstOp(fill))
    return ArrayOp(name)


@register_replacement(np.copy)
def _np_copy(visitor, node):
    operand = visitor._parse_expr(node.args[0])
    if not isinstance(operand, ArrayOp):
        return operand
    return _emit_copy_of(visitor, operand)


@register_replacement(np.sum, np.add.reduce)
def _np_sum(visitor, node):
    operand = visitor._parse_expr(node.args[0])
    if not isinstance(operand, ArrayOp):
        return operand
    return _emit_reduce(visitor, operand, "sum", _axis_of(visitor, node),
                        keepdims=_keepdims_of(visitor, node))


@register_replacement(np.prod)
def _np_prod(visitor, node):
    operand = visitor._parse_expr(node.args[0])
    if not isinstance(operand, ArrayOp):
        return operand
    return _emit_reduce(visitor, operand, "prod", _axis_of(visitor, node),
                        keepdims=_keepdims_of(visitor, node))


@register_replacement(np.min, np.amin)
def _np_min(visitor, node):
    operand = visitor._parse_expr(node.args[0])
    if not isinstance(operand, ArrayOp):
        return operand
    return _emit_reduce(visitor, operand, "min", _axis_of(visitor, node),
                        keepdims=_keepdims_of(visitor, node))


@register_replacement(np.max, np.amax)
def _np_max(visitor, node):
    operand = visitor._parse_expr(node.args[0])
    if not isinstance(operand, ArrayOp):
        return operand
    return _emit_reduce(visitor, operand, "max", _axis_of(visitor, node),
                        keepdims=_keepdims_of(visitor, node))


@register_replacement(np.mean)
def _np_mean(visitor, node):
    operand = visitor._parse_expr(node.args[0])
    if not isinstance(operand, ArrayOp):
        return operand
    return _emit_mean(visitor, operand, _axis_of(visitor, node),
                      keepdims=_keepdims_of(visitor, node))


@register_replacement(np.matmul, np.dot)
def _np_matmul(visitor, node):
    left = visitor._parse_expr(node.args[0])
    right = visitor._parse_expr(node.args[1])
    return visitor._emit_matmul(left, right)


@register_replacement(np.outer)
def _np_outer(visitor, node):
    from ..library.blas import Outer

    left = visitor._parse_expr(node.args[0])
    right = visitor._parse_expr(node.args[1])
    if not isinstance(left, ArrayOp) or not isinstance(right, ArrayOp):
        raise UnsupportedFeature("np.outer requires array operands")
    a_desc = visitor._desc(left)
    b_desc = visitor._desc(right)
    dtype = visitor._promote("*", left, right)
    out = visitor._tmp((a_desc.shape[0], b_desc.shape[0]), dtype)
    state = visitor._new_state("outer")
    lib = Outer()
    state.add_node(lib)
    state.add_edge(state.add_read(left.name), None, lib, "_a",
                   Memlet.from_array(left.name, a_desc))
    state.add_edge(state.add_read(right.name), None, lib, "_b",
                   Memlet.from_array(right.name, b_desc))
    state.add_edge(lib, "_c", state.add_write(out), None,
                   Memlet.from_array(out, visitor.sdfg.arrays[out]))
    return ArrayOp(out)


@register_replacement(np.flip)
def _np_flip(visitor, node):
    operand = visitor._parse_expr(node.args[0])
    if not isinstance(operand, ArrayOp):
        return operand
    desc = visitor._desc(operand)
    if desc.ndim != 1:
        raise UnsupportedFeature("np.flip is only supported for 1-D arrays")
    n = desc.shape[0]
    out = visitor._tmp((n,), desc.dtype)
    state = visitor._new_state("flip")
    state.add_mapped_tasklet(
        "flip", {"__i": (Integer(0), n - 1, Integer(1))},
        {"__in": Memlet(operand.name, Range.from_indices(
            [n - 1 - Symbol("__i", nonnegative=False)]))},
        "__out = __in",
        {"__out": Memlet(out, Range.from_string("__i"))})
    return ArrayOp(out)


@register_replacement(np.transpose)
def _np_transpose(visitor, node):
    operand = visitor._parse_expr(node.args[0])
    if not isinstance(operand, ArrayOp):
        return operand
    return visitor._emit_transpose(operand)


for _name in sorted(_FLOAT_FUNCS | {"abs", "absolute", "real", "imag", "conj",
                                    "sign", "reciprocal", "square"}):
    if hasattr(np, _name):
        register_replacement(getattr(np, _name))(_unary_np(_name))

for _name in ("maximum", "minimum", "fmax", "fmin", "power", "arctan2",
              "hypot", "mod", "fmod", "copysign"):
    register_replacement(getattr(np, _name))(_binary_np(_name))


@register_replacement(np.float32, np.float64, np.int32, np.int64, np.int8,
                      np.int16, np.uint8, np.uint16, np.uint32, np.uint64,
                      np.complex64, np.complex128, np.bool_)
def _np_cast(visitor, node):
    ok, func = static_eval(node.func, visitor.globals)
    operand = visitor._parse_expr(node.args[0])
    return _emit_cast(visitor, operand, dtype_of(np.dtype(func)))


@register_replacement(np.clip)
def _np_clip(visitor, node):
    operand = visitor._parse_expr(node.args[0])
    low = visitor._parse_expr(node.args[1])
    high = visitor._parse_expr(node.args[2])
    dtype = visitor._promote("+", operand, low, high)
    return visitor._emit_map_op("np.clip({0}, {1}, {2})", [operand, low, high],
                                dtype, label="clip")


@register_replacement(np.where)
def _np_where(visitor, node):
    cond = visitor._parse_expr(node.args[0])
    left = visitor._parse_expr(node.args[1])
    right = visitor._parse_expr(node.args[2])
    dtype = visitor._promote("+", left, right)
    return visitor._emit_map_op("({1}) if ({0}) else ({2})", [cond, left, right],
                                dtype, label="where")


@register_replacement(np.exp2)
def _np_exp2(visitor, node):
    operand = visitor._parse_expr(node.args[0])
    return visitor._emit_map_op("np.exp2({0})", [operand],
                                dtype_of(np.float64), label="exp2")


# ---------------------------------------------------------------------------
# math module and builtins (scalar paths)
# ---------------------------------------------------------------------------

for _name in ("sqrt", "exp", "log", "sin", "cos", "tan", "tanh", "floor",
              "ceil", "atan", "asin", "acos", "fabs"):
    if hasattr(math, _name):
        register_replacement(getattr(math, _name))(_unary_np(
            {"atan": "arctan", "asin": "arcsin", "acos": "arccos",
             "fabs": "abs"}.get(_name, _name)))


@register_replacement(abs)
def _builtin_abs(visitor, node):
    operand = visitor._parse_expr(node.args[0])
    if isinstance(operand, ConstOp):
        return ConstOp(abs(operand.value))
    return visitor._emit_map_op("abs({0})", [operand],
                                visitor._dtype_of(operand), label="abs")


@register_replacement(min)
def _builtin_min(visitor, node):
    operands = [visitor._parse_expr(a) for a in node.args]
    if all(isinstance(o, (ConstOp, SymOp)) for o in operands):
        try:
            from ..symbolic import Min
            return SymOp(Min.make(*[sympify(o.value) if isinstance(o, ConstOp)
                                    else o.expr for o in operands]))
        except TypeError:
            return ConstOp(min(o.value for o in operands))
    dtype = visitor._promote("+", *operands)
    template = "min(" + ", ".join("{%d}" % i for i in range(len(operands))) + ")"
    return visitor._emit_map_op(template, operands, dtype, label="min")


@register_replacement(max)
def _builtin_max(visitor, node):
    operands = [visitor._parse_expr(a) for a in node.args]
    if all(isinstance(o, (ConstOp, SymOp)) for o in operands):
        try:
            from ..symbolic import Max
            return SymOp(Max.make(*[sympify(o.value) if isinstance(o, ConstOp)
                                    else o.expr for o in operands]))
        except TypeError:
            return ConstOp(max(o.value for o in operands))
    dtype = visitor._promote("+", *operands)
    template = "max(" + ", ".join("{%d}" % i for i in range(len(operands))) + ")"
    return visitor._emit_map_op(template, operands, dtype, label="max")


@register_replacement(int)
def _builtin_int(visitor, node):
    operand = visitor._parse_expr(node.args[0])
    if isinstance(operand, ConstOp):
        return ConstOp(int(operand.value))
    if isinstance(operand, SymOp):
        return operand
    return _emit_cast(visitor, operand, dtype_of(np.int64))


@register_replacement(float)
def _builtin_float(visitor, node):
    operand = visitor._parse_expr(node.args[0])
    if isinstance(operand, ConstOp):
        return ConstOp(float(operand.value))
    return _emit_cast(visitor, operand, dtype_of(np.float64))


@register_replacement(len)
def _builtin_len(visitor, node):
    operand = visitor._parse_expr(node.args[0])
    if isinstance(operand, ArrayOp):
        return SymOp(visitor._desc(operand).shape[0])
    raise UnsupportedFeature("len() requires an array argument")


@register_replacement(range)
def _builtin_range(visitor, node):
    raise UnsupportedFeature("range() outside of a for loop")


# ---------------------------------------------------------------------------
# Nested data-centric programs (Table 1: function calls -> nested SDFGs)
# ---------------------------------------------------------------------------

def _emit_nested_call(visitor: ProgramVisitor, program, node: ast.Call) -> Operand:
    from ..ir.nodes import AccessNode

    signature = inspect.signature(program.func)
    param_names = list(signature.parameters)

    # bind call arguments to parameter names
    bound_args: Dict[str, Operand] = {}
    for param_name, arg in zip(param_names, node.args):
        bound_args[param_name] = visitor._parse_expr(arg)
    for kw in node.keywords:
        if kw.arg is None:
            raise UnsupportedFeature("**kwargs in program calls")
        bound_args[kw.arg] = visitor._parse_expr(kw.value)

    # materialize scalar operands into containers; build descriptors
    arg_descs: Dict[str, Any] = {}
    arg_containers: Dict[str, str] = {}
    for param_name, operand in bound_args.items():
        if isinstance(operand, (ConstOp, SymOp)):
            if isinstance(operand, SymOp) and isinstance(operand.expr, Symbol):
                arg_descs[param_name] = operand.expr
                continue
            dtype = visitor._dtype_of(operand)
            container = visitor._tmp((), dtype)
            visitor._store_subset(container, Range.from_string("0"), [], operand)
            operand = ArrayOp(container)
            bound_args[param_name] = operand
        desc = visitor._desc(operand)
        arg_descs[param_name] = desc.clone()
        arg_containers[param_name] = operand.name

    inner = program.parse_for_descs(arg_descs, visitor.globals)
    inner = inner.clone()
    inner.name = f"{inner.name}_call"

    # read/write sets of the callee's argument containers
    reads, writes = set(), set()
    for state in inner.states():
        for n in state.nodes():
            if isinstance(n, AccessNode) and n.data in arg_containers:
                if state.out_degree(n) > 0:
                    reads.add(n.data)
                if state.in_degree(n) > 0:
                    writes.add(n.data)
    # be conservative for untouched args: treat as read
    for name in arg_containers:
        if name not in reads and name not in writes:
            reads.add(name)

    outputs = set(writes)
    returns = inner.return_names()
    for ret in returns:
        # expose the return container as an output connector
        inner.arrays[ret].transient = False
        outputs.add(ret)

    state = visitor._new_state(f"call_{program.name}")
    symbol_mapping = {s: Symbol(s) for s in inner.free_symbols}
    nested = state.add_nested_sdfg(inner, program.name, inputs=reads,
                                   outputs=outputs, symbol_mapping=symbol_mapping)

    for inner_name in sorted(reads):
        outer = arg_containers[inner_name]
        desc = visitor.sdfg.arrays[outer]
        memlet = (Memlet(outer, Range.from_string("0")) if isinstance(desc, Scalar)
                  else Memlet.from_array(outer, desc))
        state.add_edge(state.add_read(outer), None, nested, inner_name, memlet)
    return_ops: Dict[str, ArrayOp] = {}
    for inner_name in sorted(outputs):
        if inner_name.startswith("__return"):
            inner_desc = inner.arrays[inner_name]
            if isinstance(inner_desc, Scalar):
                outer = visitor._tmp((), inner_desc.dtype)
            else:
                outer = visitor._tmp(inner_desc.shape, inner_desc.dtype)
            return_ops[inner_name] = ArrayOp(outer)
        else:
            outer = arg_containers[inner_name]
        desc = visitor.sdfg.arrays[outer]
        memlet = (Memlet(outer, Range.from_string("0")) if isinstance(desc, Scalar)
                  else Memlet.from_array(outer, desc))
        state.add_edge(nested, inner_name, state.add_write(outer), None, memlet)

    # in return-value order (numeric suffix), not in name order
    result_ops = [return_ops[name] for name in returns]
    if len(result_ops) == 1:
        return result_ops[0]
    if result_ops:
        return tuple(result_ops)  # type: ignore[return-value]
    return ConstOp(0)  # statement call with no return value
