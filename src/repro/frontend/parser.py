"""Translation of annotated Python functions to SDFGs (§2.3, Table 1).

The :class:`ProgramVisitor` walks the function AST and emits one state per
elementary operation (the paper's ``-O0`` form); dataflow across statements
is later recovered by the coarsening pass.  Expressions are decomposed
recursively (the paper's SSA-like simplification pass), so

    C[:] = alpha * A @ B + beta * C

becomes four states: two element-wise map operations, a MatMul library node,
and an addition, exactly as in the paper's gemm walkthrough.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..dtypes import dtype_of, typeclass
from ..ir.data import Data, Scalar
from ..ir.interstate import InterstateEdge
from ..ir.memlet import Memlet
from ..ir.nodes import AccessNode
from ..ir.sdfg import SDFG
from ..ir.state import SDFGState
from ..symbolic import Expr, Integer, Max, Min, Range, Symbol, definitely_eq, sympify
from .astutils import (
    BINOP_STR,
    CMPOP_STR,
    UNARYOP_STR,
    UnsupportedFeature,
    count_assignments,
    static_eval,
    unparse,
)

__all__ = ["ProgramVisitor", "parse_program", "ArrayOp", "ConstOp", "SymOp"]


class ArrayOp:
    """A data container in the SDFG (array or scalar)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"ArrayOp({self.name})"


class ConstOp:
    """A compile-time Python constant."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self) -> str:
        return f"ConstOp({self.value!r})"


class SymOp:
    """A symbolic integer expression (symbols, shapes, loop variables)."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr):
        self.expr = expr

    def __repr__(self) -> str:
        return f"SymOp({self.expr})"


Operand = Union[ArrayOp, ConstOp, SymOp]


class _DataDependentIndex(Exception):
    """Internal: a subscript index depends on array data (dynamic memlet)."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


class ProgramVisitor:
    """Parses one function body into an SDFG."""

    def __init__(self, name: str, global_env: Dict[str, Any]):
        self.sdfg = SDFG(name)
        self.globals = dict(global_env)
        self.symtable: Dict[str, Operand] = {}
        self.last_state: Optional[SDFGState] = None
        self._pending_edge: Optional[InterstateEdge] = None
        self._assign_counts: Dict[str, int] = {}
        self._loop_stack: List[Tuple[SDFGState, SDFGState, Dict[str, str]]] = []
        self._terminated = False
        self._tmp_symbol_counter = 0
        # map parameters of the scope currently being parsed; these take
        # precedence over same-named module globals / symtable constants
        self._scope_params: List[str] = []

    # ------------------------------------------------------------------ setup
    def parse(self, func_ast: ast.FunctionDef,
              arg_descs: Dict[str, Union[Data, Symbol]],
              defaults: Optional[Dict[str, Any]] = None) -> SDFG:
        self._assign_counts = count_assignments(func_ast)
        for arg_name, desc in arg_descs.items():
            if isinstance(desc, Data):
                self.sdfg.add_datadesc(arg_name, desc)
                self.symtable[arg_name] = ArrayOp(arg_name)
                self.sdfg.arg_names.append(arg_name)
            elif isinstance(desc, Symbol):
                self.sdfg.add_symbol(desc.name)
                self.symtable[arg_name] = SymOp(desc)
            else:
                raise UnsupportedFeature(f"cannot handle argument kind {desc!r}")
        for name, value in (defaults or {}).items():
            if name not in self.symtable:
                self.symtable[name] = ConstOp(value)
        self.last_state = self.sdfg.add_state("init", is_start_state=True)
        for stmt in func_ast.body:
            self.visit(stmt)
        if self.sdfg.start_state is None:
            self.sdfg.add_state("empty", is_start_state=True)
        return self.sdfg

    # ------------------------------------------------------------- state plumbing
    def _new_state(self, label: str) -> SDFGState:
        state = self.sdfg.add_state(label)
        if self.last_state is not None and not self._terminated:
            edge = self._pending_edge or InterstateEdge()
            self.sdfg.add_edge(self.last_state, state, edge)
        self._pending_edge = None
        self._terminated = False
        self.last_state = state
        return state

    def _tmp(self, shape, dtype: typeclass) -> str:
        name = self.sdfg.temp_data_name()
        if shape == () or shape is None:
            self.sdfg.add_scalar(name, dtype, transient=True)
        else:
            self.sdfg.add_transient(name, shape, dtype)
        return name

    def _fresh_symbol(self, prefix: str) -> str:
        self._tmp_symbol_counter += 1
        return f"__{prefix}{self._tmp_symbol_counter}"

    # --------------------------------------------------------------- descriptors
    def _desc(self, operand: ArrayOp) -> Data:
        return self.sdfg.arrays[operand.name]

    def _shape_of(self, operand: Operand) -> Tuple[Expr, ...]:
        if isinstance(operand, ArrayOp):
            desc = self._desc(operand)
            if isinstance(desc, Scalar):
                return ()
            return desc.shape
        return ()

    def _dtype_of(self, operand: Operand) -> typeclass:
        if isinstance(operand, ArrayOp):
            return self._desc(operand).dtype
        if isinstance(operand, SymOp):
            return dtype_of(np.int64)
        return dtype_of(operand.value)

    # ================================================================= statements
    def visit(self, node: ast.stmt) -> None:
        method = getattr(self, f"visit_{type(node).__name__}", None)
        if method is None:
            raise UnsupportedFeature(
                f"unsupported statement {type(node).__name__}: {unparse(node)!r}")
        method(node)

    def visit_Expr(self, node: ast.Expr) -> None:
        if isinstance(node.value, ast.Constant):
            return  # docstring
        if isinstance(node.value, ast.Call):
            self._parse_call(node.value, statement=True)
            return
        raise UnsupportedFeature(f"unsupported expression statement {unparse(node)!r}")

    def visit_Pass(self, node: ast.Pass) -> None:
        return

    def visit_Assert(self, node: ast.Assert) -> None:
        return  # assertions are ignored in the performance subset

    # ------------------------------------------------------------------ assigns
    def visit_Assign(self, node: ast.Assign) -> None:
        value = self._parse_expr(node.value) if not isinstance(node.value, ast.Tuple) \
            else tuple(self._parse_expr(e) for e in node.value.elts)
        for target in node.targets:
            if isinstance(target, ast.Tuple):
                if not isinstance(value, tuple) or len(value) != len(target.elts):
                    raise UnsupportedFeature("tuple assignment arity mismatch")
                for tgt, val in zip(target.elts, value):
                    self._assign_to(tgt, val)
            else:
                if isinstance(value, tuple):
                    raise UnsupportedFeature("cannot bind tuple to single target")
                self._assign_to(target, value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is None:
            return
        value = self._parse_expr(node.value)
        self._assign_to(node.target, value)

    def _assign_to(self, target: ast.expr, value: Operand) -> None:
        if isinstance(target, ast.Name):
            self._assign_name(target.id, value)
        elif isinstance(target, ast.Subscript):
            try:
                arr, subset, squeezed = self._parse_subscript(target)
            except _DataDependentIndex:
                self._emit_dynamic_store(target, value)
                return
            self._store_subset(arr, subset, squeezed, value)
        else:
            raise UnsupportedFeature(f"unsupported assignment target {unparse(target)!r}")

    def _assign_name(self, name: str, value: Operand) -> None:
        existing = self.symtable.get(name)
        single_assignment = self._assign_counts.get(name, 0) <= 1

        if isinstance(value, (ConstOp, SymOp)) and single_assignment and existing is None:
            # compile-time binding, usable in shapes and ranges
            self.symtable[name] = value
            return

        if isinstance(value, ArrayOp):
            desc = self._desc(value)
            if existing is None or not isinstance(existing, ArrayOp):
                if desc.transient and single_assignment and value.name.startswith("__tmp"):
                    # adopt the transient under the user-visible name
                    self.sdfg.arrays[name] = self.sdfg.arrays.pop(value.name)
                    self._rename_data(value.name, name)
                    self.symtable[name] = ArrayOp(name)
                else:
                    self.symtable[name] = value
                return
            # overwrite existing container contents
            dst = existing.name
            dst_desc = self._desc(existing)
            if isinstance(dst_desc, Scalar) or all(
                    definitely_eq(a, b) is not False
                    for a, b in zip(dst_desc.shape, desc.shape)):
                self._emit_copy(value.name, None, dst, None)
            else:
                self.symtable[name] = value
            return

        # scalar constant/symbol into a mutable variable -> scalar container
        if existing is not None and isinstance(existing, ArrayOp):
            desc = self._desc(existing)
            subset = (Range.from_string("0") if isinstance(desc, Scalar)
                      else Range.from_shape(desc.shape))
            self._store_subset(existing.name, subset, [], value)
            return
        dtype = self._dtype_of(value)
        container = self._tmp((), dtype)
        self._store_subset(container, Range.from_string("0"), [], value)
        self.symtable[name] = ArrayOp(container)

    def _rename_data(self, old: str, new: str) -> None:
        from ..ir.nodes import CodeNode

        for state in self.sdfg.states():
            for node in state.nodes():
                if isinstance(node, AccessNode) and node.data == old:
                    node.data = new
                    node.label = new
                # scope connectors are named after the container they route
                if isinstance(node, CodeNode):
                    for conns in (node.in_connectors, node.out_connectors):
                        for prefix in ("IN_", "OUT_"):
                            if f"{prefix}{old}" in conns:
                                conns.discard(f"{prefix}{old}")
                                conns.add(f"{prefix}{new}")
            for edge in state.edges():
                if edge.memlet.data == old:
                    edge.memlet.data = new
                changed = False
                src_conn, dst_conn = edge.src_conn, edge.dst_conn
                for prefix in ("IN_", "OUT_"):
                    if src_conn == f"{prefix}{old}":
                        src_conn = f"{prefix}{new}"
                        changed = True
                    if dst_conn == f"{prefix}{old}":
                        dst_conn = f"{prefix}{new}"
                        changed = True
                if changed:
                    state.add_edge(edge.src, src_conn, edge.dst, dst_conn,
                                   edge.memlet)
                    state.remove_edge(edge)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        op = BINOP_STR.get(type(node.op))
        if op is None:
            raise UnsupportedFeature(f"unsupported augmented operator in {unparse(node)!r}")
        value = self._parse_expr(node.value)
        if isinstance(node.target, ast.Name):
            current = self.symtable.get(node.target.id)
            if current is None:
                raise UnsupportedFeature(
                    f"augmented assignment to undefined name {node.target.id!r}")
            if isinstance(current, (ConstOp, SymOp)):
                folded = self._fold_binary(op, current, value)
                if folded is not None:
                    self.symtable[node.target.id] = folded
                    return
                # convert to container semantics, then read-modify-write
                self._force_container(node.target.id)
                current = self.symtable[node.target.id]
            desc = self._desc(current)
            subset = (Range.from_string("0") if isinstance(desc, Scalar)
                      else Range.from_shape(desc.shape))
            self._emit_binary(op, current, value,
                              out=(current.name, subset, []))
            return
        if isinstance(node.target, ast.Subscript):
            try:
                arr, subset, squeezed = self._parse_subscript(node.target)
            except _DataDependentIndex:
                self._emit_dynamic_augassign(node.target, op, value)
                return
            current = self._load_subset(arr, subset, squeezed)
            self._emit_binary(op, current, value, out=(arr, subset, squeezed))
            return
        raise UnsupportedFeature(f"unsupported augmented target {unparse(node.target)!r}")

    def _force_container(self, name: str) -> None:
        """Convert a compile-time binding into a scalar container."""
        operand = self.symtable[name]
        assert isinstance(operand, (ConstOp, SymOp))
        dtype = self._dtype_of(operand)
        container = self._tmp((), dtype)
        self._store_subset(container, Range.from_string("0"), [], operand)
        self.symtable[name] = ArrayOp(container)

    # ------------------------------------------------------------------- control
    def visit_For(self, node: ast.For) -> None:
        if node.orelse:
            raise UnsupportedFeature("for-else is not supported")
        iter_node = node.iter

        if isinstance(iter_node, ast.Subscript):
            ok, value = static_eval(iter_node.value, self.globals)
            if ok and getattr(value, "__is_map_marker__", False):
                self._parse_map_scope(node)
                return

        if isinstance(iter_node, ast.Call):
            ok, func = static_eval(iter_node.func, self.globals)
            if (ok and func is range) or (
                    isinstance(iter_node.func, ast.Name)
                    and iter_node.func.id == "range"):
                self._parse_range_loop(node)
                return

        operand = None
        if isinstance(iter_node, ast.Name):
            operand = self.symtable.get(iter_node.id)
        if isinstance(operand, ArrayOp):
            self._parse_array_iteration(node, operand)
            return
        raise UnsupportedFeature(f"unsupported loop iterator {unparse(iter_node)!r}")

    def _parse_range_loop(self, node: ast.For) -> None:
        if not isinstance(node.target, ast.Name):
            raise UnsupportedFeature("range loop target must be a single name")
        ivar = node.target.id
        args = node.iter.args
        if len(args) == 1:
            start_s, stop_s, step_s = "0", self._runtime_expr_str(args[0]), "1"
        elif len(args) == 2:
            start_s = self._runtime_expr_str(args[0])
            stop_s = self._runtime_expr_str(args[1])
            step_s = "1"
        elif len(args) == 3:
            start_s = self._runtime_expr_str(args[0])
            stop_s = self._runtime_expr_str(args[1])
            step_s = self._runtime_expr_str(args[2])
        else:
            raise UnsupportedFeature("range() requires 1-3 arguments")

        negative_step = step_s.replace("(", "").lstrip().startswith("-")
        cmp = ">" if negative_step else "<"
        inv_cmp = "<=" if negative_step else ">="

        self.sdfg.add_symbol(ivar)
        self._pending_edge = InterstateEdge(assignments={ivar: start_s})
        guard = self._new_state(f"for_{ivar}_guard")

        body_first = self.sdfg.add_state(f"for_{ivar}_body")
        self.sdfg.add_edge(guard, body_first,
                           InterstateEdge(f"({ivar}) {cmp} ({stop_s})"))
        after = self.sdfg.add_state(f"for_{ivar}_end")
        self.sdfg.add_edge(guard, after,
                           InterstateEdge(f"({ivar}) {inv_cmp} ({stop_s})"))

        increment = {ivar: f"({ivar}) + ({step_s})"}
        saved_binding = self.symtable.get(ivar)
        self.symtable[ivar] = SymOp(Symbol(ivar, nonnegative=False))
        self._loop_stack.append((guard, after, increment))
        self.last_state = body_first
        self._terminated = False
        for stmt in node.body:
            self.visit(stmt)
        self._loop_stack.pop()
        if not self._terminated:
            self.sdfg.add_edge(self.last_state, guard,
                               InterstateEdge(assignments=dict(increment)))
        guard.loop_info = {  # type: ignore[attr-defined]
            "ivar": ivar, "start": start_s, "stop": stop_s, "step": step_s,
            "cmp": cmp, "body_first": body_first, "after": after,
        }
        if saved_binding is not None:
            self.symtable[ivar] = saved_binding
        else:
            self.symtable.pop(ivar, None)
        self.last_state = after
        self._terminated = False

    def _parse_array_iteration(self, node: ast.For, operand: ArrayOp) -> None:
        """Desugar ``for x in data:`` into an indexed range loop."""
        desc = self._desc(operand)
        if desc.ndim != 1:
            raise UnsupportedFeature("can only iterate over 1-D arrays")
        if not isinstance(node.target, ast.Name):
            raise UnsupportedFeature("array iteration target must be a name")
        idx = self._fresh_symbol("it")
        elem = node.target.id
        read = ast.parse(f"{elem} = {operand.name}[{idx}]").body[0]
        stop = ast.parse(str(desc.shape[0])).body[0].value
        loop = ast.For(
            target=ast.Name(id=idx, ctx=ast.Store()),
            iter=ast.Call(func=ast.Name(id="range", ctx=ast.Load()),
                          args=[stop], keywords=[]),
            body=[read] + node.body, orelse=[])
        ast.fix_missing_locations(loop)
        self._assign_counts[elem] = self._assign_counts.get(elem, 0) + 2
        self._parse_range_loop(loop)

    def visit_While(self, node: ast.While) -> None:
        if node.orelse:
            raise UnsupportedFeature("while-else is not supported")
        cond = self._runtime_expr_str(node.test)
        guard = self._new_state("while_guard")
        body_first = self.sdfg.add_state("while_body")
        after = self.sdfg.add_state("while_end")
        self.sdfg.add_edge(guard, body_first, InterstateEdge(cond))
        self.sdfg.add_edge(guard, after, InterstateEdge(f"not ({cond})"))
        self._loop_stack.append((guard, after, {}))
        self.last_state = body_first
        self._terminated = False
        for stmt in node.body:
            self.visit(stmt)
        self._loop_stack.pop()
        if not self._terminated:
            self.sdfg.add_edge(self.last_state, guard, InterstateEdge())
        self.last_state = after
        self._terminated = False

    def visit_Break(self, node: ast.Break) -> None:
        if not self._loop_stack:
            raise UnsupportedFeature("break outside of a loop")
        _, after, _ = self._loop_stack[-1]
        self.sdfg.add_edge(self.last_state, after, InterstateEdge())
        self._terminated = True

    def visit_Continue(self, node: ast.Continue) -> None:
        if not self._loop_stack:
            raise UnsupportedFeature("continue outside of a loop")
        guard, _, increment = self._loop_stack[-1]
        self.sdfg.add_edge(self.last_state, guard,
                           InterstateEdge(assignments=dict(increment)))
        self._terminated = True

    def visit_If(self, node: ast.If) -> None:
        cond = self._runtime_expr_str(node.test)
        branch_point = self.last_state
        then_first = self.sdfg.add_state("if_then")
        self.sdfg.add_edge(branch_point, then_first, InterstateEdge(cond))
        after = self.sdfg.add_state("if_end")

        self.last_state = then_first
        self._terminated = False
        for stmt in node.body:
            self.visit(stmt)
        if not self._terminated:
            self.sdfg.add_edge(self.last_state, after, InterstateEdge())

        if node.orelse:
            else_first = self.sdfg.add_state("if_else")
            self.sdfg.add_edge(branch_point, else_first, InterstateEdge(f"not ({cond})"))
            self.last_state = else_first
            self._terminated = False
            for stmt in node.orelse:
                self.visit(stmt)
            if not self._terminated:
                self.sdfg.add_edge(self.last_state, after, InterstateEdge())
        else:
            self.sdfg.add_edge(branch_point, after, InterstateEdge(f"not ({cond})"))

        self.last_state = after
        self._terminated = False

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is None:
            self._terminated = True
            return
        if isinstance(node.value, ast.Tuple):
            value = tuple(self._parse_expr(e) for e in node.value.elts)
        else:
            # a tuple here is a nested program call returning several values
            value = self._parse_expr(node.value)
        if isinstance(value, tuple):
            for i, item in enumerate(value):
                self._store_return(item, f"__return_{i}")
        else:
            self._store_return(value, "__return")
        self._terminated = True

    def _store_return(self, value: Operand, name: str) -> None:
        if isinstance(value, ArrayOp):
            desc = self._desc(value)
            if name not in self.sdfg.arrays:
                if isinstance(desc, Scalar):
                    self.sdfg.add_scalar(name, desc.dtype, transient=True)
                else:
                    self.sdfg.add_transient(name, desc.shape, desc.dtype)
            self._emit_copy(value.name, None, name, None)
        else:
            dtype = self._dtype_of(value)
            if name not in self.sdfg.arrays:
                self.sdfg.add_scalar(name, dtype, transient=True)
            self._store_subset(name, Range.from_string("0"), [], value)

    # ============================================================== expressions
    def _parse_expr(self, node: ast.expr) -> Operand:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (bool, int, float, complex)):
                return ConstOp(node.value)
            raise UnsupportedFeature(f"unsupported constant {node.value!r}")
        if isinstance(node, ast.Name):
            return self._resolve_name(node.id)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.MatMult):
                return self._emit_matmul(self._parse_expr(node.left),
                                         self._parse_expr(node.right))
            op = BINOP_STR.get(type(node.op))
            if op is None:
                raise UnsupportedFeature(f"unsupported operator in {unparse(node)!r}")
            left = self._parse_expr(node.left)
            right = self._parse_expr(node.right)
            folded = self._fold_binary(op, left, right)
            if folded is not None:
                return folded
            return self._emit_binary(op, left, right)
        if isinstance(node, ast.UnaryOp):
            op = UNARYOP_STR.get(type(node.op))
            if op is None:
                raise UnsupportedFeature(f"unsupported unary operator {unparse(node)!r}")
            operand = self._parse_expr(node.operand)
            if isinstance(operand, ConstOp):
                return ConstOp(eval(f"{op}({operand.value!r})"))
            if isinstance(operand, SymOp) and op == "-":
                return SymOp(-operand.expr)
            return self._emit_unary(op, operand)
        if isinstance(node, ast.Compare):
            return self._emit_compare(node)
        if isinstance(node, ast.Subscript):
            try:
                arr, subset, squeezed = self._parse_subscript(node)
            except _DataDependentIndex:
                return self._emit_dynamic_load(node)
            return self._load_subset(arr, subset, squeezed)
        if isinstance(node, ast.Call):
            return self._parse_call(node)
        if isinstance(node, ast.Attribute):
            return self._parse_attribute(node)
        if isinstance(node, ast.IfExp):
            return self._emit_ifexp(node)
        if isinstance(node, ast.Tuple):
            return tuple(self._parse_expr(e) for e in node.elts)  # type: ignore
        raise UnsupportedFeature(f"unsupported expression {unparse(node)!r}")

    def _resolve_name(self, name: str) -> Operand:
        if name in self.symtable:
            return self.symtable[name]
        if name in self.globals:
            value = self.globals[name]
            if isinstance(value, Symbol):
                self.sdfg.add_symbol(value.name)
                return SymOp(value)
            if isinstance(value, (bool, int, float, complex)):
                return ConstOp(value)
            if isinstance(value, np.ndarray):
                raise UnsupportedFeature(
                    f"global array {name!r} must be passed as an argument")
        raise UnsupportedFeature(f"undefined name {name!r}")

    def _fold_binary(self, op: str, left: Operand, right: Operand) -> Optional[Operand]:
        if isinstance(left, ConstOp) and isinstance(right, ConstOp):
            return ConstOp(eval(f"({left.value!r}) {op} ({right.value!r})"))
        if isinstance(left, (ConstOp, SymOp)) and isinstance(right, (ConstOp, SymOp)):
            le = left.expr if isinstance(left, SymOp) else left.value
            re_ = right.expr if isinstance(right, SymOp) else right.value
            if isinstance(le, (float, complex)) or isinstance(re_, (float, complex)):
                return None
            try:
                le = sympify(le) if not isinstance(le, Expr) else le
                re_ = sympify(re_) if not isinstance(re_, Expr) else re_
            except TypeError:
                return None
            if op == "+":
                return SymOp(le + re_)
            if op == "-":
                return SymOp(le - re_)
            if op == "*":
                return SymOp(le * re_)
            if op == "//":
                return SymOp(le // re_)
            if op == "%":
                return SymOp(le % re_)
        return None

    # -------------------------------------------------------------- subscripts
    def _parse_subscript(self, node: ast.Subscript) -> Tuple[str, Range, List[int]]:
        if isinstance(node.value, ast.Name):
            operand = self._resolve_name(node.value.id)
        else:
            operand = self._parse_expr(node.value)
        if not isinstance(operand, ArrayOp):
            raise UnsupportedFeature(
                f"cannot subscript non-array {unparse(node.value)!r}")
        arr = operand.name
        desc = self.sdfg.arrays[arr]
        subset, squeezed = self._subset_from_ast(desc, node.slice)
        return arr, subset, squeezed

    def _subset_from_ast(self, desc: Data, slice_node: ast.expr) -> Tuple[Range, List[int]]:
        if isinstance(slice_node, ast.Tuple):
            elements = list(slice_node.elts)
        else:
            elements = [slice_node]
        while len(elements) < desc.ndim:
            elements.append(ast.Slice(lower=None, upper=None, step=None))
        if len(elements) != desc.ndim:
            raise UnsupportedFeature(
                f"subscript has {len(elements)} dims, container has {desc.ndim}")
        dims = []
        squeezed: List[int] = []
        for axis, (element, size) in enumerate(zip(elements, desc.shape)):
            if isinstance(element, ast.Slice):
                step = (self._index_expr_inner(element.step)
                        if element.step is not None else Integer(1))
                descending = isinstance(step, Integer) and step.value < 0
                if element.lower is not None:
                    begin = self._index_expr(element.lower, size)
                elif descending:
                    begin = size - 1
                else:
                    begin = Integer(0)
                if element.upper is not None:
                    # the exclusive stop becomes inclusive one step inward:
                    # +1 when walking down, -1 when walking up
                    end = self._index_expr(element.upper, size) \
                        + (Integer(1) if descending else Integer(-1))
                elif descending:
                    end = Integer(0)
                else:
                    end = size - 1
                dims.append((begin, end, step))
            else:
                point = self._index_expr(element, size)
                dims.append((point, point, Integer(1)))
                squeezed.append(axis)
        return Range(dims), squeezed

    def _index_expr(self, node: ast.expr, dim_size: Expr) -> Expr:
        expr = self._index_expr_inner(node)
        if isinstance(expr, Integer) and expr.value < 0:
            return dim_size + expr
        return expr

    def _index_expr_inner(self, node: ast.expr) -> Expr:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(node.value, int):
                raise UnsupportedFeature(f"non-integer index {node.value!r}")
            return Integer(node.value)
        if isinstance(node, ast.Name):
            if node.id in self._scope_params:
                # an enclosing map's parameter shadows same-named globals
                # and symtable constants
                return Symbol(node.id, nonnegative=False)
            operand = self.symtable.get(node.id)
            if operand is None:
                value = self.globals.get(node.id)
                if isinstance(value, Symbol):
                    self.sdfg.add_symbol(value.name)
                    return value
                if isinstance(value, (int, np.integer)) \
                        and not isinstance(value, bool):
                    return Integer(int(value))
                # unknown names are map parameters or loop symbols
                return Symbol(node.id, nonnegative=False)
            if isinstance(operand, SymOp):
                return operand.expr
            if isinstance(operand, ConstOp):
                if isinstance(operand.value, (int, np.integer)) \
                        and not isinstance(operand.value, bool):
                    return Integer(int(operand.value))
                raise UnsupportedFeature(f"non-integer constant index {node.id!r}")
            raise _DataDependentIndex(node.id)
        if isinstance(node, ast.BinOp):
            left = self._index_expr_inner(node.left)
            right = self._index_expr_inner(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.FloorDiv):
                return left // right
            if isinstance(node.op, ast.Mod):
                return left % right
            raise UnsupportedFeature(f"unsupported index operator {unparse(node)!r}")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -self._index_expr_inner(node.operand)
        if isinstance(node, ast.Call):
            ok, func = static_eval(node.func, self.globals)
            if ok and func in (min, np.minimum):
                return Min.make(*(self._index_expr_inner(a) for a in node.args))
            if ok and func in (max, np.maximum):
                return Max.make(*(self._index_expr_inner(a) for a in node.args))
            if ok and func in (int, np.int32, np.int64):
                return self._index_expr_inner(node.args[0])
            raise _DataDependentIndex(unparse(node))
        if isinstance(node, ast.Subscript):
            raise _DataDependentIndex(unparse(node))
        raise UnsupportedFeature(f"unsupported index expression {unparse(node)!r}")

    def _load_subset(self, arr: str, subset: Range, squeezed: List[int]) -> Operand:
        desc = self.sdfg.arrays[arr]
        if isinstance(desc, Scalar):
            return ArrayOp(arr)
        full = Range.from_shape(desc.shape)
        if subset == full:
            return ArrayOp(arr)
        sizes = subset.size()
        kept = tuple(s for i, s in enumerate(sizes) if i not in squeezed)
        out = self._tmp(kept if kept else (), desc.dtype)
        self._emit_copy(arr, subset, out, None)
        return ArrayOp(out)

    def _store_subset(self, arr: str, subset: Range, squeezed: Sequence[int],
                      value: Operand) -> None:
        """Assign *value* into ``arr[subset]`` (NumPy semantics: dimensions in
        *squeezed* were integer-indexed and do not appear in the value)."""
        desc = self.sdfg.arrays[arr]
        target_shape = tuple(s for i, s in enumerate(subset.size())
                             if i not in squeezed)
        if isinstance(value, ArrayOp):
            src_desc = self._desc(value)
            src_shape = () if isinstance(src_desc, Scalar) else src_desc.shape
            if src_shape and len(src_shape) == len(target_shape) and all(
                    definitely_eq(a, b) is not False
                    for a, b in zip(src_shape, target_shape)):
                # exact-shape store: plain copy edge
                if isinstance(desc, Scalar):
                    self._emit_copy(value.name, None, arr, subset)
                else:
                    self._emit_copy(value.name, None, arr, subset)
                return
        # broadcast / constant store via a map
        params = [f"__i{k}" for k in range(len(target_shape))]
        state = self._new_state("store")
        inputs: Dict[str, Memlet] = {}
        frag = self._operand_code(value, "__in0", inputs, params, target_shape)
        out_memlet = Memlet(arr, self._write_indices(subset, squeezed, params))
        if not target_shape:
            tasklet = state.add_tasklet("store", inputs.keys(), {"__out"},
                                        f"__out = {frag}")
            for conn, memlet in inputs.items():
                state.add_edge(state.add_read(memlet.data), None, tasklet, conn, memlet)
            state.add_edge(tasklet, "__out", state.add_write(arr), None, out_memlet)
            return
        state.add_mapped_tasklet(
            "store",
            {p: (Integer(0), s - 1, Integer(1)) for p, s in zip(params, target_shape)},
            inputs, f"__out = {frag}", {"__out": out_memlet})

    @staticmethod
    def _write_indices(subset: Range, squeezed: Sequence[int],
                       params: Sequence[str]) -> Range:
        """Indices for writing through a subset: squeezed dims are fixed at
        their begin; the k-th non-squeezed dim advances with params[k]."""
        squeezed = set(squeezed)
        indices: List[Expr] = []
        it = iter(params)
        for axis, (begin, _end, step) in enumerate(subset.dims):
            if axis in squeezed:
                indices.append(begin)
            else:
                param = next(it)
                indices.append(begin + Symbol(param, nonnegative=False) * step)
        return Range.from_indices(indices)

    # -------------------------------------------------- dynamic (data-dependent)
    def _dynamic_index_code(self, node: ast.Subscript,
                            inputs: Dict[str, Memlet]) -> Tuple[str, str]:
        """Return (array_connector, index_code) for a data-dependent subscript.

        The full array becomes a connector; index names that are scalar
        containers become scalar connectors.
        """
        if not isinstance(node.value, ast.Name):
            raise UnsupportedFeature("dynamic subscript base must be a name")
        operand = self._resolve_name(node.value.id)
        assert isinstance(operand, ArrayOp)
        arr = operand.name
        desc = self.sdfg.arrays[arr]
        conn = f"__arr_{arr}"
        inputs[conn] = Memlet(arr, Range.from_shape(desc.shape), dynamic=True)

        counter = [0]

        def render(idx_node: ast.expr) -> str:
            if isinstance(idx_node, ast.Constant):
                return repr(idx_node.value)
            if isinstance(idx_node, ast.Name):
                op = self.symtable.get(idx_node.id)
                if op is None:
                    return idx_node.id  # loop symbol
                if isinstance(op, ConstOp):
                    return repr(op.value)
                if isinstance(op, SymOp):
                    return f"({op.expr})"
                # scalar container index -> connector
                sdesc = self._desc(op)
                if not isinstance(sdesc, Scalar):
                    ic = f"__idxarr{counter[0]}"
                    counter[0] += 1
                    inputs[ic] = Memlet(op.name, Range.from_shape(sdesc.shape),
                                        dynamic=True)
                    return ic
                ic = f"__idx{counter[0]}"
                counter[0] += 1
                inputs[ic] = Memlet(op.name, Range.from_string("0"))
                return f"int({ic})"
            if isinstance(idx_node, ast.BinOp):
                op_str = BINOP_STR.get(type(idx_node.op))
                if op_str is None:
                    raise UnsupportedFeature(
                        f"unsupported dynamic index {unparse(idx_node)!r}")
                return f"({render(idx_node.left)}) {op_str} ({render(idx_node.right)})"
            if isinstance(idx_node, ast.UnaryOp) and isinstance(idx_node.op, ast.USub):
                return f"-({render(idx_node.operand)})"
            if isinstance(idx_node, ast.Subscript):
                inner_conn, inner_idx = self._dynamic_index_code(idx_node, inputs)
                return f"{inner_conn}[{inner_idx}]"
            if isinstance(idx_node, ast.Call):
                ok, func = static_eval(idx_node.func, self.globals)
                if ok and func in (int, np.int32, np.int64):
                    return f"int({render(idx_node.args[0])})"
                if ok and func in (min, np.minimum):
                    return f"min({', '.join(render(a) for a in idx_node.args)})"
                if ok and func in (max, np.maximum):
                    return f"max({', '.join(render(a) for a in idx_node.args)})"
            raise UnsupportedFeature(
                f"unsupported dynamic index {unparse(idx_node)!r}")

        if isinstance(node.slice, ast.Tuple):
            index_code = ", ".join(render(e) for e in node.slice.elts)
        else:
            index_code = render(node.slice)
        return conn, index_code

    def _emit_dynamic_load(self, node: ast.Subscript) -> Operand:
        inputs: Dict[str, Memlet] = {}
        conn, index_code = self._dynamic_index_code(node, inputs)
        arr = inputs[conn].data
        dtype = self.sdfg.arrays[arr].dtype
        out = self._tmp((), dtype)
        state = self._new_state("dyn_load")
        tasklet = state.add_tasklet("dyn_load", inputs.keys(), {"__out"},
                                    f"__out = {conn}[{index_code}]")
        for c, memlet in inputs.items():
            state.add_edge(state.add_read(memlet.data), None, tasklet, c, memlet)
        state.add_edge(tasklet, "__out", state.add_write(out), None,
                       Memlet(out, Range.from_string("0")))
        return ArrayOp(out)

    def _emit_dynamic_store(self, node: ast.Subscript, value: Operand) -> None:
        inputs: Dict[str, Memlet] = {}
        conn, index_code = self._dynamic_index_code(node, inputs)
        arr = inputs[conn].data
        frag = self._operand_code(value, "__val", inputs, (), ())
        state = self._new_state("dyn_store")
        code = f"{conn}[{index_code}] = {frag}\n__out = {conn}"
        tasklet = state.add_tasklet("dyn_store", inputs.keys(), {"__out"}, code)
        for c, memlet in inputs.items():
            state.add_edge(state.add_read(memlet.data), None, tasklet, c, memlet)
        desc = self.sdfg.arrays[arr]
        state.add_edge(tasklet, "__out", state.add_write(arr), None,
                       Memlet(arr, Range.from_shape(desc.shape), dynamic=True))

    def _emit_dynamic_augassign(self, node: ast.Subscript, op: str,
                                value: Operand) -> None:
        inputs: Dict[str, Memlet] = {}
        conn, index_code = self._dynamic_index_code(node, inputs)
        arr = inputs[conn].data
        frag = self._operand_code(value, "__val", inputs, (), ())
        state = self._new_state("dyn_aug")
        code = f"{conn}[{index_code}] {op}= {frag}\n__out = {conn}"
        tasklet = state.add_tasklet("dyn_aug", inputs.keys(), {"__out"}, code)
        for c, memlet in inputs.items():
            state.add_edge(state.add_read(memlet.data), None, tasklet, c, memlet)
        desc = self.sdfg.arrays[arr]
        state.add_edge(tasklet, "__out", state.add_write(arr), None,
                       Memlet(arr, Range.from_shape(desc.shape), dynamic=True))

    # ------------------------------------------------------------- attribute / call
    def _parse_attribute(self, node: ast.Attribute) -> Operand:
        if isinstance(node.value, (ast.Name, ast.Subscript, ast.Attribute)):
            base = None
            try:
                base = self._parse_expr(node.value)
            except UnsupportedFeature:
                base = None
            if isinstance(base, ArrayOp):
                if node.attr == "T":
                    return self._emit_transpose(base)
                if node.attr == "dtype":
                    return ConstOp(self._desc(base).dtype.nptype)
                if node.attr == "size":
                    return SymOp(self._desc(base).total_size())
                if node.attr == "shape":
                    return tuple(SymOp(s) for s in self._desc(base).shape)  # type: ignore
                raise UnsupportedFeature(f"unsupported array attribute .{node.attr}")
        ok, value = static_eval(node, self.globals)
        if ok:
            if isinstance(value, (bool, int, float, complex)):
                return ConstOp(value)
            if isinstance(value, Symbol):
                self.sdfg.add_symbol(value.name)
                return SymOp(value)
        raise UnsupportedFeature(f"unsupported attribute {unparse(node)!r}")

    def _parse_call(self, node: ast.Call, statement: bool = False) -> Operand:
        from .replacements import dispatch_call

        return dispatch_call(self, node, statement=statement)

    # ---------------------------------------------------------------- map scopes
    def _parse_map_scope(self, node: ast.For) -> None:
        from .tasklets import TaskletBuilder

        if isinstance(node.target, ast.Tuple):
            params = [t.id for t in node.target.elts]
        elif isinstance(node.target, ast.Name):
            params = [node.target.id]
        else:
            raise UnsupportedFeature("map target must be name(s)")
        slice_node = node.iter.slice
        elements = list(slice_node.elts) if isinstance(slice_node, ast.Tuple) \
            else [slice_node]
        if len(elements) != len(params):
            raise UnsupportedFeature(
                f"map has {len(params)} parameters but {len(elements)} ranges")
        dims = []
        for element in elements:
            if not isinstance(element, ast.Slice):
                raise UnsupportedFeature("map ranges must be slices")
            begin = (self._index_expr_inner(element.lower)
                     if element.lower is not None else Integer(0))
            if element.upper is None:
                raise UnsupportedFeature("map range requires an upper bound")
            end = self._index_expr_inner(element.upper) - 1
            step = (self._index_expr_inner(element.step)
                    if element.step is not None else Integer(1))
            dims.append((begin, end, step))
        rng = Range(dims)

        state = self._new_state("map")
        builder = TaskletBuilder(self, params)
        self._scope_params.extend(params)
        try:
            code, inputs, outputs = builder.build(node.body)
        finally:
            del self._scope_params[-len(params):]
        state.add_mapped_tasklet(
            "map", {p: rng.dims[i] for i, p in enumerate(params)},
            inputs, code, outputs)

    # =============================================================== emitters
    def _operand_code(self, operand: Operand, connector: str,
                      inputs: Dict[str, Memlet], params: Sequence[str],
                      out_shape: Tuple[Expr, ...]) -> str:
        if isinstance(operand, ConstOp):
            return repr(operand.value)
        if isinstance(operand, SymOp):
            return f"({operand.expr})"
        desc = self._desc(operand)
        if isinstance(desc, Scalar):
            inputs[connector] = Memlet(operand.name, Range.from_string("0"))
            return connector
        shape = desc.shape
        offset = len(out_shape) - len(shape)
        indices: List[Expr] = []
        for dim_idx, size in enumerate(shape):
            param_idx = dim_idx + offset
            if definitely_eq(size, 1) is True:
                indices.append(Integer(0))
            else:
                indices.append(Symbol(params[param_idx], nonnegative=False))
        inputs[connector] = Memlet(operand.name, Range.from_indices(indices))
        return connector

    def _broadcast_shape(self, *operands: Operand) -> Tuple[Expr, ...]:
        shapes = [self._shape_of(op) for op in operands]
        ndim = max((len(s) for s in shapes), default=0)
        result: List[Expr] = []
        for i in range(ndim):
            dim: Expr = Integer(1)
            for shape in shapes:
                idx = i - (ndim - len(shape))
                if idx < 0:
                    continue
                size = shape[idx]
                if definitely_eq(size, 1) is True:
                    continue
                if definitely_eq(dim, 1) is True:
                    dim = size
                elif definitely_eq(dim, size) is False:
                    raise UnsupportedFeature(f"cannot broadcast shapes {shapes}")
            result.append(dim)
        return tuple(result)

    def _promote(self, op: str, *operands: Operand) -> typeclass:
        np_types = []
        for operand in operands:
            if isinstance(operand, ConstOp):
                value = operand.value
                if isinstance(value, bool):
                    np_types.append(np.dtype(np.bool_))
                elif isinstance(value, int):
                    np_types.append(np.dtype(np.int64))
                elif isinstance(value, float):
                    np_types.append(np.dtype(np.float64))
                else:
                    np_types.append(np.dtype(np.complex128))
            elif isinstance(operand, SymOp):
                np_types.append(np.dtype(np.int64))
            else:
                np_types.append(self._dtype_of(operand).nptype)
        # NumPy value-based promotion: python scalars do not widen arrays
        array_types = [t for op_, t in zip(operands, np_types)
                       if isinstance(op_, ArrayOp)]
        if array_types and any(np.issubdtype(t, np.floating) for t in array_types):
            np_types = [t if isinstance(op_, ArrayOp) else np.dtype(np.float64)
                        for op_, t in zip(operands, np_types)]
            result = np.result_type(*array_types)
        else:
            result = np.result_type(*np_types)
        if op == "/" and not np.issubdtype(result, np.floating) \
                and not np.issubdtype(result, np.complexfloating):
            result = np.dtype(np.float64)
        if op in ("<", "<=", ">", ">=", "==", "!="):
            result = np.dtype(np.bool_)
        return dtype_of(result)

    def _emit_map_op(self, code_template: str, operands: Sequence[Operand],
                     out_dtype: typeclass,
                     out: Optional[Tuple[str, Range, Sequence[int]]] = None,
                     label: str = "elementwise") -> Operand:
        out_shape = self._broadcast_shape(*operands)
        if out is None:
            out_name = self._tmp(out_shape if out_shape else (), out_dtype)
            out_subset = None
            squeezed: Sequence[int] = ()
        else:
            out_name, out_subset, squeezed = out
        out_desc = self.sdfg.arrays[out_name]
        state = self._new_state(label)

        if not out_shape:
            inputs: Dict[str, Memlet] = {}
            frags = [self._operand_code(op, f"__in{i}", inputs, (), ())
                     for i, op in enumerate(operands)]
            code = f"__out = {code_template.format(*frags)}"
            tasklet = state.add_tasklet(label, inputs.keys(), {"__out"}, code)
            for conn, memlet in inputs.items():
                state.add_edge(state.add_read(memlet.data), None, tasklet, conn, memlet)
            if out_subset is not None and not isinstance(out_desc, Scalar):
                om = Memlet(out_name, self._write_indices(out_subset, squeezed, ()))
            elif isinstance(out_desc, Scalar):
                om = Memlet(out_name, Range.from_string("0"))
            else:
                om = Memlet.from_array(out_name, out_desc)
            state.add_edge(tasklet, "__out", state.add_write(out_name), None, om)
            return ArrayOp(out_name)

        params = [f"__i{k}" for k in range(len(out_shape))]
        inputs = {}
        frags = [self._operand_code(op, f"__in{i}", inputs, params, out_shape)
                 for i, op in enumerate(operands)]
        code = f"__out = {code_template.format(*frags)}"
        if out_subset is not None:
            out_memlet = Memlet(out_name,
                                self._write_indices(out_subset, squeezed, params))
        else:
            out_memlet = Memlet(out_name, Range.from_indices(
                [Symbol(p, nonnegative=False) for p in params]))
        state.add_mapped_tasklet(
            label,
            {p: (Integer(0), s - 1, Integer(1)) for p, s in zip(params, out_shape)},
            inputs, code, {"__out": out_memlet})
        return ArrayOp(out_name)

    def _emit_binary(self, op: str, left: Operand, right: Operand,
                     out: Optional[Tuple[str, Range, Sequence[int]]] = None) -> Operand:
        dtype = self._promote(op, left, right)
        return self._emit_map_op(f"({{0}}) {op} ({{1}})", [left, right], dtype,
                                 out=out, label=f"binop_{_op_label(op)}")

    def _emit_unary(self, op: str, operand: Operand,
                    out: Optional[Tuple[str, Range, Sequence[int]]] = None) -> Operand:
        dtype = self._dtype_of(operand)
        return self._emit_map_op(f"{op}({{0}})", [operand], dtype, out=out,
                                 label="unop")

    def _emit_compare(self, node: ast.Compare) -> Operand:
        if len(node.ops) != 1:
            raise UnsupportedFeature("chained comparisons are not supported")
        op = CMPOP_STR.get(type(node.ops[0]))
        if op is None:
            raise UnsupportedFeature(f"unsupported comparison {unparse(node)!r}")
        left = self._parse_expr(node.left)
        right = self._parse_expr(node.comparators[0])
        if isinstance(left, ConstOp) and isinstance(right, ConstOp):
            return ConstOp(eval(f"({left.value!r}) {op} ({right.value!r})"))
        dtype = self._promote(op, left, right)
        return self._emit_map_op(f"({{0}}) {op} ({{1}})", [left, right], dtype,
                                 label="compare")

    def _emit_ifexp(self, node: ast.IfExp) -> Operand:
        test = self._parse_expr(node.test)
        body = self._parse_expr(node.body)
        orelse = self._parse_expr(node.orelse)
        if isinstance(test, ConstOp):
            return body if test.value else orelse
        dtype = self._promote("+", body, orelse)
        return self._emit_map_op("({1}) if ({0}) else ({2})",
                                 [test, body, orelse], dtype, label="select")

    def _emit_transpose(self, operand: ArrayOp) -> Operand:
        desc = self._desc(operand)
        if desc.ndim <= 1:
            return operand
        if desc.ndim != 2:
            raise UnsupportedFeature(".T is only supported for 2-D arrays")
        m, n = desc.shape
        out = self._tmp((n, m), desc.dtype)
        state = self._new_state("transpose")
        state.add_mapped_tasklet(
            "transpose",
            {"__i": (Integer(0), n - 1, Integer(1)),
             "__j": (Integer(0), m - 1, Integer(1))},
            {"__in": Memlet(operand.name, Range.from_string("__j, __i"))},
            "__out = __in",
            {"__out": Memlet(out, Range.from_string("__i, __j"))})
        return ArrayOp(out)

    def _emit_matmul(self, left: Operand, right: Operand) -> Operand:
        from ..library.blas import MatMul

        if not isinstance(left, ArrayOp) or not isinstance(right, ArrayOp):
            raise UnsupportedFeature("@ requires array operands")
        a_desc = self._desc(left)
        b_desc = self._desc(right)
        if a_desc.ndim == 2 and b_desc.ndim == 2:
            out_shape: Tuple[Expr, ...] = (a_desc.shape[0], b_desc.shape[1])
        elif a_desc.ndim == 2 and b_desc.ndim == 1:
            out_shape = (a_desc.shape[0],)
        elif a_desc.ndim == 1 and b_desc.ndim == 2:
            out_shape = (b_desc.shape[1],)
        elif a_desc.ndim == 1 and b_desc.ndim == 1:
            out_shape = ()
        else:
            raise UnsupportedFeature("@ supports 1-D/2-D operands only")
        dtype = self._promote("*", left, right)
        out = self._tmp(out_shape if out_shape else (), dtype)
        state = self._new_state("matmul")
        node = MatMul()
        state.add_node(node)
        a_acc = state.add_read(left.name)
        b_acc = state.add_read(right.name)
        c_acc = state.add_write(out)
        state.add_edge(a_acc, None, node, "_a", Memlet.from_array(left.name, a_desc))
        state.add_edge(b_acc, None, node, "_b", Memlet.from_array(right.name, b_desc))
        out_desc = self.sdfg.arrays[out]
        if isinstance(out_desc, Scalar):
            state.add_edge(node, "_c", c_acc, None, Memlet(out, Range.from_string("0")))
        else:
            state.add_edge(node, "_c", c_acc, None, Memlet.from_array(out, out_desc))
        return ArrayOp(out)

    def _emit_copy(self, src: str, src_subset: Optional[Range],
                   dst: str, dst_subset: Optional[Range]) -> None:
        state = self._new_state("copy")
        src_desc = self.sdfg.arrays[src]
        dst_desc = self.sdfg.arrays[dst]
        if src_subset is None:
            src_subset = (Range.from_string("0") if isinstance(src_desc, Scalar)
                          else Range.from_shape(src_desc.shape))
        if dst_subset is None:
            dst_subset = (Range.from_string("0") if isinstance(dst_desc, Scalar)
                          else Range.from_shape(dst_desc.shape))
        read = state.add_read(src)
        write = state.add_write(dst)
        state.add_nedge(read, write, Memlet(src, src_subset, other_subset=dst_subset))

    # ------------------------------------------------------- runtime expressions
    def _runtime_expr_str(self, node: ast.expr) -> str:
        if isinstance(node, ast.Constant):
            return repr(node.value)
        if isinstance(node, ast.Name):
            operand = self.symtable.get(node.id)
            if operand is None:
                if node.id in self.globals:
                    resolved = self._resolve_name(node.id)
                    if isinstance(resolved, ConstOp):
                        return repr(resolved.value)
                    if isinstance(resolved, SymOp):
                        return f"({resolved.expr})"
                return node.id  # loop symbol
            if isinstance(operand, ConstOp):
                return repr(operand.value)
            if isinstance(operand, SymOp):
                return f"({operand.expr})"
            return operand.name  # container value, resolved at runtime
        if isinstance(node, ast.BinOp):
            op = BINOP_STR.get(type(node.op))
            if op is None:
                raise UnsupportedFeature(
                    f"unsupported operator in condition {unparse(node)!r}")
            return (f"({self._runtime_expr_str(node.left)}) {op} "
                    f"({self._runtime_expr_str(node.right)})")
        if isinstance(node, ast.UnaryOp):
            op = UNARYOP_STR.get(type(node.op))
            if op is None:
                raise UnsupportedFeature(
                    f"unsupported unary in condition {unparse(node)!r}")
            return f"{op}({self._runtime_expr_str(node.operand)})"
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1:
                raise UnsupportedFeature("chained comparisons in conditions")
            op = CMPOP_STR.get(type(node.ops[0]))
            if op is None:
                raise UnsupportedFeature(f"unsupported comparison {unparse(node)!r}")
            return (f"({self._runtime_expr_str(node.left)}) {op} "
                    f"({self._runtime_expr_str(node.comparators[0])})")
        if isinstance(node, ast.BoolOp):
            joiner = " and " if isinstance(node.op, ast.And) else " or "
            return joiner.join(f"({self._runtime_expr_str(v)})" for v in node.values)
        if isinstance(node, ast.Subscript):
            if not isinstance(node.value, ast.Name):
                raise UnsupportedFeature(
                    f"unsupported condition subscript {unparse(node)!r}")
            operand = self._resolve_name(node.value.id)
            if not isinstance(operand, ArrayOp):
                raise UnsupportedFeature(
                    f"cannot subscript non-array in condition {unparse(node)!r}")
            elements = (list(node.slice.elts) if isinstance(node.slice, ast.Tuple)
                        else [node.slice])
            indices = ", ".join(self._runtime_expr_str(e) for e in elements)
            return f"{operand.name}[{indices}]"
        if isinstance(node, ast.Call):
            ok, func = static_eval(node.func, self.globals)
            if ok and func is len:
                operand = self._parse_expr(node.args[0])
                if isinstance(operand, ArrayOp):
                    return f"({self._desc(operand).shape[0]})"
            if ok and func in (min, max):
                name = "min" if func is min else "max"
                args = ", ".join(self._runtime_expr_str(a) for a in node.args)
                return f"{name}({args})"
            if ok and func in (int, float, bool, abs):
                return f"{func.__name__}({self._runtime_expr_str(node.args[0])})"
        raise UnsupportedFeature(f"unsupported runtime expression {unparse(node)!r}")


def _op_label(op: str) -> str:
    return {"+": "add", "-": "sub", "*": "mul", "/": "div", "//": "floordiv",
            "%": "mod", "**": "pow", "&": "and", "|": "or", "^": "xor",
            "<<": "shl", ">>": "shr"}.get(op, "op")


def parse_program(func, arg_descs: Dict[str, Union[Data, Symbol]],
                  global_env: Dict[str, Any], name: Optional[str] = None,
                  defaults: Optional[Dict[str, Any]] = None) -> SDFG:
    """Parse *func* (a Python function) into an SDFG using the given argument
    descriptors."""
    from .astutils import function_ast

    func_ast, _source = function_ast(func)
    visitor = ProgramVisitor(name or func.__name__, global_env)
    sdfg = visitor.parse(func_ast, arg_descs, defaults)
    sdfg.validate()
    return sdfg
