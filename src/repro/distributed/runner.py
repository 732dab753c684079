"""SPMD execution of data-centric programs on the simulated cluster.

``run_distributed(program, size, ...)`` compiles the program once and runs
one instance per simulated rank (threads).  Rank 0 operates on the caller's
arrays (preserving the in-place calling convention); other ranks receive
private copies, as each node of a real cluster would hold its own buffers.
Returns the per-rank virtual clocks and communication statistics along with
rank 0's result.

Execution is routed through the checkpoint/restart supervisor
(:mod:`repro.resilience.distributed`, DESIGN.md §10): with checkpointing
enabled (``ckpt_interval``/``ckpt_comm_ops`` or the matching
``resilience.*`` configuration keys) ranks snapshot at state boundaries,
and recoverable rank failures — e.g. crashes injected through
*fault_plan* — trigger a coordinated rollback-and-replay instead of
aborting the run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..config import Config
from ..resilience.distributed import RankSnapshot, run_spmd_supervised
from ..simmpi.grid import ProcessGrid
from ..simmpi.netmodel import FaultPlan, NetModel
from . import context

__all__ = ["run_distributed", "DistributedResult"]


@dataclass
class DistributedResult:
    """Outcome of a distributed execution."""

    value: Any                       # rank 0's return value
    clocks: List[float]              # per-rank virtual time (seconds)
    comm_stats: Dict[str, int]       # messages / bytes on the wire
    state_visits: Dict[int, int] = field(default_factory=dict)
    per_rank_values: List[Any] = field(default_factory=list)
    failed_ranks: List[int] = field(default_factory=list)   # recovered ranks
    recovery_events: List[Any] = field(default_factory=list)
    op_counts: List[int] = field(default_factory=list)      # per-rank comm ops
    op_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    commopt_stats: Dict[str, float] = field(default_factory=dict)
    comm_report: Optional[Any] = None    # commopt.report.CommReport

    @property
    def modeled_time(self) -> float:
        return max(self.clocks) if self.clocks else 0.0


def run_distributed(program, size: int, grid: Optional[ProcessGrid] = None,
                    rank_args=None, fault_plan: Optional[FaultPlan] = None,
                    net: Optional[NetModel] = None,
                    timeout_s: Optional[float] = None,
                    ckpt_interval: Optional[int] = None,
                    ckpt_comm_ops: Optional[int] = None,
                    max_restarts: Optional[int] = None,
                    budget=None,
                    **kwargs) -> DistributedResult:
    """Run *program* (a DaceProgram or SDFG) on *size* simulated ranks.

    ``rank_args(rank, grid) -> dict`` supplies per-rank symbol/argument
    values (e.g. the boundary offsets of the paper's explicit jacobi_2d).
    *fault_plan* injects communication faults and rank crashes;
    *ckpt_interval* / *ckpt_comm_ops* / *max_restarts* override the
    ``resilience.*`` checkpointing keys for this run.

    *budget* (a :class:`repro.governor.Budget`) governs the whole launch:
    each rank is armed with its per-rank slice against one absolute
    deadline that survives supervisor restarts, each rank's memory plan is
    admission-checked before its allocations, and a timed-out/rejected run
    raises the structured governor error directly.
    """
    from ..codegen import compile_sdfg
    from ..frontend.decorator import DaceProgram
    from ..governor.budget import Budget
    from ..ir.sdfg import SDFG
    from ..runtime.executor import prepare_arguments

    budget = Budget.resolve(budget)
    if budget.is_null:
        budget = None
    if isinstance(program, DaceProgram):
        sdfg = program.to_sdfg()
    elif isinstance(program, SDFG):
        sdfg = program
    else:
        raise TypeError(f"cannot run {program!r} distributed")

    # communication optimizer: opt in via config or $REPRO_COMM_OPT=1; the
    # caller's SDFG is never mutated (passes rewrite a clone)
    commopt_applied: Dict[str, int] = {}
    if Config.get("commopt.enabled") \
            or os.environ.get("REPRO_COMM_OPT", "") not in ("", "0"):
        from .commopt import optimize_comm

        sdfg = sdfg.clone()
        commopt_applied = optimize_comm(sdfg)
    compiled = compile_sdfg(sdfg)
    plan = compiled.plan

    grid_obj = grid or ProcessGrid(size)
    # reserved distribution symbols used by the transformations
    reserved: Dict[str, int] = {}
    if "__P" in plan.free_symbols:
        reserved["__P"] = size
    if "__GR0" in plan.free_symbols:
        reserved["__GR0"] = grid_obj.dims[0]
    if "__GR1" in plan.free_symbols:
        reserved["__GR1"] = grid_obj.dims[1]
    visits_holder: Dict[int, int] = {}

    # a restart without a committed checkpoint replays from the initial
    # inputs; rank 0 mutates the caller's arrays in place, so keep pristine
    # copies to roll them back
    pristine = {name: np.copy(value) for name, value in kwargs.items()
                if isinstance(value, np.ndarray)}

    def reset() -> None:
        for name, copy_ in pristine.items():
            np.copyto(kwargs[name], copy_)

    def rank_fn(comm, snapshot: Optional[RankSnapshot]):
        context.set_current(context.DistContext(comm, grid_obj))
        try:
            local_kwargs = {}
            for name, value in kwargs.items():
                if isinstance(value, np.ndarray) and comm.rank != 0:
                    local_kwargs[name] = np.copy(value)
                else:
                    local_kwargs[name] = value
            if rank_args is not None:
                local_kwargs.update(rank_args(comm.rank, grid_obj))
            for name, value in reserved.items():
                local_kwargs.setdefault(name, value)
            containers, symbols = prepare_arguments(
                compiled.sdfg, (), local_kwargs, plan)
            if budget is not None and budget.max_bytes:
                from ..governor.admission import admit

                # strict per-rank admission: degrading one rank to a
                # different tier would diverge the SPMD state machines
                admit(compiled.sdfg, symbols, budget.per_rank(size),
                      program=compiled.sdfg.name, allow_degrade=False)
            start_state = None
            if snapshot is not None:
                # resume from the checkpoint boundary: restore container
                # contents in place (rank 0 keeps the caller's buffers) and
                # rebind symbols, including interstate loop variables
                start_state = snapshot.state_index
                snapshot.restore_into(containers)
                symbols.update(snapshot.symbols)
            result = compiled.run_prepared(containers, symbols,
                                           start_state=start_state)
            if comm.rank == 0:
                visits_holder.update(compiled.last_state_visits)
            return result
        finally:
            context.set_current(None)

    run = run_spmd_supervised(
        rank_fn, size, net=net, fault_plan=fault_plan, timeout_s=timeout_s,
        ckpt_interval=ckpt_interval, ckpt_comm_ops=ckpt_comm_ops,
        max_restarts=max_restarts, reset=reset, budget=budget)
    from .commopt.report import build_report

    comm_report = build_report(
        run.op_stats, run.commopt_stats,
        optimized=bool(commopt_applied) and any(commopt_applied.values()),
        applied=commopt_applied, net=net, size=size)
    return DistributedResult(
        value=run.results[0], clocks=run.clocks, comm_stats=run.comm_stats,
        state_visits=visits_holder, per_rank_values=list(run.results),
        failed_ranks=run.failed_ranks, recovery_events=run.recovery_events,
        op_counts=run.op_counts, op_stats=run.op_stats,
        commopt_stats=run.commopt_stats, comm_report=comm_report)
