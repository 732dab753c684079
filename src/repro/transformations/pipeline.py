"""Transformation pipelines.

``simplify_pass`` is the paper's dataflow-coarsening pass (§2.4, the -O1
analogue): a fixed set of transformations that only modify or remove graph
elements, so the pass terminates.  ``auto_optimize`` (§3.1) lives in
:mod:`repro.autoopt` and builds on these.

The driver is *transactional* (``resilience.transactional``): the whole
pipeline runs as one transaction (:func:`repro.resilience
.pipeline_transaction`) that snapshots and baselines the static issues once
at entry, and validates and static-checks once at exit.  Only if that fails
does it roll back and replay with every member pass under its own snapshot
→ apply → validate → rollback-on-failure transaction, where passes that
keep failing on the same SDFG are quarantined.  The fixed-point loop is
guarded by an application cap plus an oscillation detector, so a buggy pass
(or a buggy pair of passes undoing each other) degrades the pipeline instead
of corrupting the graph or looping forever.
"""

from __future__ import annotations

import time

from .. import instrumentation
from ..config import Config
from .base import Transformation
from .dataflow.cleanup import (
    DeadDataflowElimination,
    DegenerateMapRemoval,
    EmptyStateRemoval,
)
from .dataflow.inline_nested import InlineNestedSDFG
from .dataflow.redundant_copy import RedundantReadCopy, RedundantWriteCopy
from .dataflow.state_fusion import StateFusion

__all__ = ["simplify_pass", "SIMPLIFY_TRANSFORMATIONS"]

#: the coarsening pass members, in application order
SIMPLIFY_TRANSFORMATIONS = [
    EmptyStateRemoval,
    StateFusion,
    InlineNestedSDFG,
    RedundantReadCopy,
    RedundantWriteCopy,
    DegenerateMapRemoval,
    DeadDataflowElimination,
]


def simplify_pass(sdfg, report=None) -> int:
    """Run the coarsening transformations to a fixed point; returns the
    total number of applications.

    ``report`` optionally receives a :class:`repro.resilience.FailureReport`
    that collects every replay and rolled-back pass instead of crashing the
    pipeline.
    """
    from ..resilience import FailureReport, pipeline_transaction

    if report is None:
        report = FailureReport()
    return pipeline_transaction(sdfg, "simplify", report,
                                lambda: _coarsen(sdfg, report))


def _coarsen(sdfg, report) -> int:
    from ..ir.nodes import NestedSDFG
    from ..resilience import (
        OscillationDetector,
        Quarantine,
        pass_transactions,
        resilience_warning,
        transactional_apply,
        transformation_name,
    )

    transactional = pass_transactions()
    cap = Config.get("resilience.max_pass_applications")
    quarantine = Quarantine()

    # nested SDFGs coarsen first, so single-state callees become inlinable
    total = 0
    for state in sdfg.states():
        for node in state.nodes():
            if isinstance(node, NestedSDFG):
                total += simplify_pass(node.sdfg, report=report)

    detector = OscillationDetector()
    detector.observe(sdfg)
    changed = True
    while changed:
        changed = False
        sweep_active = []
        for transformation in SIMPLIFY_TRANSFORMATIONS:
            name = transformation_name(transformation)
            if quarantine.is_quarantined(name):
                continue
            remaining = max(0, cap - total)
            prof = instrumentation._ACTIVE
            pass_start = time.perf_counter() if prof is not None else 0.0
            if transactional:
                applied = transactional_apply(
                    sdfg, transformation, report=report,
                    quarantine=quarantine, max_applications=remaining)
            else:
                applied = transformation.apply_repeated(
                    sdfg, max_applications=remaining)
            if prof is not None:
                prof.add("pass", name, time.perf_counter() - pass_start)
            if applied:
                total += applied
                changed = True
                sweep_active.append(name)
        if total >= cap:
            resilience_warning(
                f"simplify_pass on {sdfg.name!r} hit the application cap "
                f"({cap}); likely non-terminating transformation(s): "
                f"{', '.join(sweep_active) or 'unknown'}")
            break
        if changed and detector.observe(sdfg):
            resilience_warning(
                f"simplify_pass on {sdfg.name!r} is oscillating: "
                f"transformation(s) {', '.join(sweep_active)} returned the "
                f"graph to a previously-seen state; stopping the fixed-point "
                f"loop")
            break
    return total
