"""Static bounds checking for memlet subsets.

For every memlet edge the checker tries to prove that the accessed subset
stays inside its container's shape for *all* iterations of the enclosing map
scopes.  Structural validation (:mod:`repro.ir.validation`) only compares
ranks; this module compares symbolic extents:

``in-bounds``
    ``0 <= min(subset)`` and ``max(subset) <= shape - 1`` proven per
    dimension, minimizing/maximizing over the enclosing map-parameter boxes.

``out-of-bounds``
    Some dimension *provably* escapes ``[0, shape)`` for an iteration that
    provably executes (all enclosing ranges nonempty, subset dim nonempty).
    These are hard errors: they feed ``collect_validation_errors`` and make
    the transactional-transformation gate roll the offending pass back.

``unproved``
    Anything the symbolic engine cannot decide (dynamic memlets, non-affine
    subscripts, loop-carried symbols from interstate edges, ...); covered at
    runtime by the guards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..ir.data import Scalar, Stream
from ..ir.memlet import Memlet
from ..ir.nodes import AccessNode, MapEntry, MapExit
from ..ir.sdfg import SDFG
from ..ir.state import Edge, SDFGState
from ..symbolic import Expr, Integer, Symbol, definitely_le, definitely_lt, sympify

__all__ = ["IN_BOUNDS", "UNPROVED", "OUT_OF_BOUNDS", "BoundsVerdict",
           "check_bounds", "minmax_expr"]

IN_BOUNDS = "in-bounds"
UNPROVED = "unproved"
OUT_OF_BOUNDS = "out-of-bounds"


@dataclass
class BoundsVerdict:
    """Bounds-analysis result for one memlet subset."""

    sdfg: str
    state: str
    container: str
    subset: str
    verdict: str
    detail: str = ""

    def to_dict(self) -> dict:
        return {"sdfg": self.sdfg, "state": self.state,
                "container": self.container, "subset": self.subset,
                "verdict": self.verdict, "detail": self.detail}


# ---------------------------------------------------------------------------
# Affine min/max over parameter boxes
# ---------------------------------------------------------------------------

ParamDim = Tuple[str, Tuple[Expr, Expr, Expr]]


def _bound_in(expr: Expr, param: str, begin: Expr, end: Expr,
              want_max: bool) -> Optional[Expr]:
    """Extremize *expr* over ``param in [begin, end]`` assuming linearity in
    *param*; ``None`` when the coefficient sign (or linearity) is unknown."""
    c = expr.subs({param: 0})
    a = expr.subs({param: 1}) - c
    if a * Symbol(param, nonnegative=False) + c != expr:
        return None  # not linear in param
    if isinstance(a, Integer) and a.value == 0:
        return expr
    if a.is_nonnegative() is True:
        return a * end + c if want_max else a * begin + c
    if (-a).is_nonnegative() is True:
        return a * begin + c if want_max else a * end + c
    return None


def minmax_expr(expr, chain: Sequence[ParamDim], want_max: bool) -> Optional[Expr]:
    """Extreme value of *expr* over the parameter boxes of *chain*.

    *chain* must be ordered innermost-first: inner map bounds may reference
    outer parameters (triangular iteration spaces), so inner parameters are
    eliminated before outer ones.  Step/phase is ignored — using the box ends
    over-approximates, which is sound for in-bounds proofs (out-of-bounds
    claims additionally require unit steps, checked by the caller).
    """
    result = sympify(expr)
    for param, (begin, end, _step) in chain:
        if Symbol(param) not in result.free_symbols:
            continue
        bounded = _bound_in(result, param, begin, end, want_max)
        if bounded is None:
            return None
        result = bounded
    return result


# ---------------------------------------------------------------------------
# Scope chains
# ---------------------------------------------------------------------------

def _chain_of(node, scope: Dict) -> List[MapEntry]:
    """Innermost-first list of map entries enclosing *node* (for MapEntry /
    MapExit nodes the own scope is included)."""
    if isinstance(node, MapEntry):
        current: Optional[MapEntry] = node
    elif isinstance(node, MapExit):
        current = node.entry_node
    else:
        current = scope.get(node)
    out: List[MapEntry] = []
    while current is not None:
        out.append(current)
        current = scope.get(current)
    return out


def _edge_chain(edge: Edge, scope: Dict) -> List[ParamDim]:
    """Parameter boxes in scope at *edge*, innermost-first.  Edge endpoints
    differ by at most one scope level, so the deeper chain contains both."""
    src_chain = _chain_of(edge.src, scope)
    dst_chain = _chain_of(edge.dst, scope)
    entries = src_chain if len(src_chain) >= len(dst_chain) else dst_chain
    chain: List[ParamDim] = []
    for entry in entries:
        for i, p in enumerate(entry.map.params):
            chain.append((p, entry.map.range.dims[i]))
    return chain


def _chain_provably_nonempty(chain: Sequence[ParamDim]) -> bool:
    return all(definitely_le(b, e) is True for _, (b, e, _s) in chain)


def _chain_unit_steps(chain: Sequence[ParamDim], symbols: frozenset) -> bool:
    relevant = [dim for p, dim in chain if Symbol(p) in symbols]
    return all(isinstance(s, Integer) and s.value == 1 for _b, _e, s in relevant)


# ---------------------------------------------------------------------------
# Per-subset analysis
# ---------------------------------------------------------------------------

def _subset_verdict(subset, shape, chain: Sequence[ParamDim]) -> Tuple[str, str]:
    """Classify one subset against one shape under one parameter chain."""
    proven = True
    for d, ((begin, end, _step), dim_size) in enumerate(zip(subset.dims, shape)):
        lo = minmax_expr(begin, chain, want_max=False)
        hi = minmax_expr(end, chain, want_max=True)
        if lo is None or hi is None:
            return (UNPROVED, f"dim {d}: extent not affine in the map parameters")
        limit = sympify(dim_size) - 1
        low_ok = definitely_le(0, lo)
        high_ok = definitely_le(hi, limit)
        if low_ok is True and high_ok is True:
            continue
        # A *proven* violation needs a witness iteration that executes:
        # nonempty enclosing ranges, nonempty subset dim, and unit steps so
        # the box ends are actually reached.
        provable_site = (
            _chain_provably_nonempty(chain)
            and definitely_le(begin, end) is True
            and _chain_unit_steps(chain, begin.free_symbols | end.free_symbols)
        )
        if provable_site:
            # With unit steps and nonempty ranges the box extremes are
            # reached by an iteration that actually executes.
            if definitely_lt(lo, 0) is True:
                return (OUT_OF_BOUNDS, f"dim {d}: index reaches {lo} < 0")
            if definitely_lt(limit, hi) is True:
                return (OUT_OF_BOUNDS,
                        f"dim {d}: index reaches {hi} > {limit}")
        proven = False
    if proven:
        return (IN_BOUNDS, "")
    return (UNPROVED, "bounds undecided by the symbolic engine")


def _descriptor_for(edge: Edge, memlet: Memlet, sdfg: SDFG, other: bool):
    """(name, descriptor) the subset indexes into; ``other_subset`` indexes
    the non-``memlet.data`` endpoint of a copy edge."""
    if not other:
        return memlet.data, sdfg.arrays.get(memlet.data)
    for node in (edge.dst, edge.src):
        if isinstance(node, AccessNode) and node.data != memlet.data:
            return node.data, sdfg.arrays.get(node.data)
    return None, None


def _walk(sdfg: SDFG) -> Iterator[Tuple[SDFG, SDFGState, str, Any, str, str]]:
    """``(sdfg, state, container, subset, verdict, detail)`` for every
    memlet subset of *sdfg* (including nested SDFGs).  Subsets stay
    unformatted: ``str(subset)`` runs a symbolic comparison per dimension,
    so each caller formats only the verdicts it keeps."""
    from ..ir.nodes import NestedSDFG

    for state in sdfg.states():
        scope = state.scope_dict()
        for edge in state.edges():
            memlet = edge.memlet
            if memlet is None or not memlet.data:
                continue
            chain = _edge_chain(edge, scope)
            for other in (False, True):
                subset = memlet.other_subset if other else memlet.subset
                if subset is None:
                    continue
                name, desc = _descriptor_for(edge, memlet, sdfg, other)
                if desc is None or isinstance(desc, (Scalar, Stream)):
                    continue
                if subset.ndim != desc.ndim:
                    continue  # rank errors belong to structural validation
                if memlet.dynamic:
                    yield (sdfg, state, name, subset, UNPROVED,
                           "dynamic (data-dependent) memlet")
                    continue
                verdict, detail = _subset_verdict(subset, desc.shape, chain)
                yield sdfg, state, name, subset, verdict, detail
        for node in state.nodes():
            if isinstance(node, NestedSDFG):
                yield from _walk(node.sdfg)


def check_bounds(sdfg: SDFG) -> List[BoundsVerdict]:
    """Bounds-check every memlet subset of *sdfg* (including nested SDFGs)."""
    return [BoundsVerdict(owner.name, state.label, name, str(subset),
                          verdict, detail)
            for owner, state, name, subset, verdict, detail in _walk(sdfg)]


def out_of_bounds_keys(sdfg: SDFG) -> List[str]:
    """``oob:<state>:<container>:<subset>`` for every provably out-of-bounds
    subset; only these are formatted."""
    return [f"oob:{state.label}:{name}:{subset}"
            for _owner, state, name, subset, verdict, _detail in _walk(sdfg)
            if verdict == OUT_OF_BOUNDS]
