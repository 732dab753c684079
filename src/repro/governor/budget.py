"""Run budgets, deadlines, and cooperative cancellation (DESIGN.md §12).

A :class:`Budget` bounds one execution: wall-clock (``deadline_s``) and
peak memory (``max_bytes``, enforced by :mod:`repro.governor.admission`
*before* any allocation happens).  Budgets flow explicitly through
``run_sdfg(budget=...)`` / ``run_distributed(budget=...)`` / the reserved
``__budget`` call keyword of :class:`repro.frontend.decorator.DaceProgram`,
or ambiently through the ``governor.deadline_s`` / ``governor.max_bytes``
configuration keys.

Arming a budget creates an :class:`ArmedBudget` bound to the current thread
plus a monotonic-clock watchdog (a daemon :class:`threading.Timer`) that
flips the ``expired`` flag at the deadline.  Cancellation is *cooperative*:
the runtime checks the armed budget at the one state-boundary call both
engines make (:func:`repro.resilience.hooks.state_boundary`, which also
fires the checkpoint hook), at parallel chunk boundaries and in simmpi op
polling, so a timed-out run raises :class:`ExecutionTimeout` naming the
last-completed state instead of hanging CI or a serving process.  A blocked
tasklet cannot be preempted — the guarantee is "raises at the next
boundary", which for SDFG state machines means within one state's work of
the deadline.

Zero overhead when off: every check site reads one thread-local slot
(:data:`repro.boundary.slots`, shared with the checkpoint hook) and
branches on ``None``; governed and ungoverned calls run the same compiled
module.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Any, Dict, Iterator, Optional

from ..boundary import slots as _tls

__all__ = [
    "Budget", "ArmedBudget", "GovernorError", "ExecutionTimeout",
    "ExecutionCancelled", "armed", "adopt", "current", "tick",
]


class GovernorError(RuntimeError):
    """Base of every structured governor rejection/interruption.

    The degrade chain must never absorb these: a timeout retried on a
    slower tier times out again, and an admission rejection is
    deterministic.  Carries a ``to_dict()`` payload for reports.
    """

    def to_dict(self) -> Dict[str, Any]:
        return {"error": type(self).__name__, "message": str(self)}


class ExecutionTimeout(GovernorError):
    """A run exceeded its wall-clock budget (raised at a boundary site)."""

    def __init__(self, program: str, deadline_s: float, elapsed_s: float,
                 last_state: Optional[str]):
        self.program = program
        self.deadline_s = deadline_s
        self.elapsed_s = elapsed_s
        self.last_state = last_state
        super().__init__(
            f"{program or '<sdfg>'} exceeded its deadline of "
            f"{deadline_s:g}s (elapsed {elapsed_s:.3f}s); last completed "
            f"state: {last_state if last_state is not None else '<none>'}")

    def to_dict(self) -> Dict[str, Any]:
        return {"error": "ExecutionTimeout", "program": self.program,
                "deadline_s": self.deadline_s, "elapsed_s": self.elapsed_s,
                "last_state": self.last_state}


class ExecutionCancelled(GovernorError):
    """A run was cancelled cooperatively via :meth:`ArmedBudget.cancel`."""

    def __init__(self, program: str, reason: str,
                 last_state: Optional[str]):
        self.program = program
        self.reason = reason
        self.last_state = last_state
        super().__init__(
            f"{program or '<sdfg>'} cancelled ({reason}); last completed "
            f"state: {last_state if last_state is not None else '<none>'}")

    def to_dict(self) -> Dict[str, Any]:
        return {"error": "ExecutionCancelled", "program": self.program,
                "reason": self.reason, "last_state": self.last_state}


class Budget:
    """Resource bounds for one execution.  Immutable specification; arming
    it (see :func:`armed`) produces the per-run mutable state."""

    __slots__ = ("deadline_s", "max_bytes")

    def __init__(self, deadline_s: Optional[float] = None,
                 max_bytes: Optional[int] = None):
        self.deadline_s = (float(deadline_s)
                           if deadline_s is not None and deadline_s > 0
                           else None)
        self.max_bytes = (int(max_bytes)
                          if max_bytes is not None and max_bytes > 0
                          else None)

    @property
    def is_null(self) -> bool:
        return self.deadline_s is None and self.max_bytes is None

    @classmethod
    def from_config(cls) -> "Budget":
        from ..config import Config

        return cls(deadline_s=float(Config.get("governor.deadline_s") or 0),
                   max_bytes=int(Config.get("governor.max_bytes") or 0))

    @classmethod
    def resolve(cls, budget: Optional["Budget"] = None) -> "Budget":
        """An explicit budget, else the ambient configured one."""
        if budget is not None:
            return budget
        return cls.from_config()

    def per_rank(self, size: int) -> "Budget":
        """The per-rank slice for an SPMD run of *size* ranks: the deadline
        is shared wall-clock (ranks run concurrently) while the memory
        budget divides — each rank holds its own container copies."""
        mb = self.max_bytes // max(1, int(size)) if self.max_bytes else None
        return Budget(deadline_s=self.deadline_s, max_bytes=mb)

    def __repr__(self) -> str:
        return (f"Budget(deadline_s={self.deadline_s}, "
                f"max_bytes={self.max_bytes})")


class ArmedBudget:
    """One run's live budget state: absolute monotonic deadline, watchdog,
    cancellation flag, and the last-completed-state tracker that boundary
    sites update."""

    __slots__ = ("budget", "program", "started", "deadline", "expired",
                 "cancel_reason", "last_state", "_entered", "_timer")

    def __init__(self, budget: Budget, program: str = "",
                 deadline_at: Optional[float] = None):
        self.budget = budget
        self.program = program
        self.started = time.monotonic()
        if deadline_at is not None:
            self.deadline: Optional[float] = deadline_at
        elif budget.deadline_s is not None:
            self.deadline = self.started + budget.deadline_s
        else:
            self.deadline = None
        self.expired = False
        self.cancel_reason: Optional[str] = None
        self.last_state: Optional[str] = None
        self._entered: Optional[str] = None
        self._timer: Optional[threading.Timer] = None

    # ------------------------------------------------------------ watchdog
    def _expire(self) -> None:
        self.expired = True

    def arm_watchdog(self) -> None:
        if self.deadline is None or self._timer is not None:
            return
        delay = max(0.0, self.deadline - time.monotonic())
        self._timer = threading.Timer(delay, self._expire)
        self._timer.daemon = True
        self._timer.start()

    def disarm(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # ------------------------------------------------------- check sites
    def cancel(self, reason: str = "cancelled") -> None:
        """Request cooperative cancellation: the next boundary check on any
        thread running under this budget raises :class:`ExecutionCancelled`."""
        self.cancel_reason = reason

    def check(self) -> None:
        """The cooperative tick: raise if cancelled or past the deadline."""
        if self.cancel_reason is not None:
            raise ExecutionCancelled(self.program, self.cancel_reason,
                                     self.last_state)
        if self.expired or (self.deadline is not None
                            and time.monotonic() >= self.deadline):
            self.expired = True
            elapsed = time.monotonic() - self.started
            deadline_s = (self.budget.deadline_s
                          if self.budget.deadline_s is not None
                          else max(0.0, self.deadline - self.started))
            from .. import instrumentation

            coll = instrumentation._ACTIVE
            if coll is not None:
                coll.add("governor", f"timeout:{self.program}", elapsed)
            raise ExecutionTimeout(self.program, deadline_s, elapsed,
                                   self.last_state)

    def boundary(self, label: str) -> None:
        """State-boundary tick: the previously entered state has completed;
        check the budget before entering *label*."""
        if self._entered is not None:
            self.last_state = self._entered
        self._entered = label
        self.check()

    def __repr__(self) -> str:
        return (f"ArmedBudget({self.program!r}, deadline={self.deadline}, "
                f"last_state={self.last_state!r})")


# ---------------------------------------------------------------------------
# thread-local arming (the single-check activation pattern)
# ---------------------------------------------------------------------------

def current() -> Optional[ArmedBudget]:
    """The budget armed on this thread, or None (the off fast path)."""
    return _tls.armed


@contextlib.contextmanager
def armed(budget: Optional[Budget], program: str = "",
          deadline_at: Optional[float] = None) -> Iterator[Optional[ArmedBudget]]:
    """Arm *budget* for the dynamic extent of the block on this thread.

    A null/None budget arms nothing (yields None).  Nested armings stack;
    the watchdog is disarmed and the previous budget restored on exit.
    """
    if budget is None or budget.is_null:
        yield None
        return
    a = ArmedBudget(budget, program=program, deadline_at=deadline_at)
    a.arm_watchdog()
    prev = _tls.armed
    _tls.armed = a
    try:
        yield a
    finally:
        _tls.armed = prev
        a.disarm()


@contextlib.contextmanager
def adopt(a: Optional[ArmedBudget]) -> Iterator[None]:
    """Install an already-armed budget on this thread (pool workers: the
    dispatching thread's budget must govern its chunk bodies too)."""
    if a is None:
        yield
        return
    prev = _tls.armed
    _tls.armed = a
    try:
        yield
    finally:
        _tls.armed = prev


def tick() -> None:
    """Manual cooperative check site (simmpi op polling and friends)."""
    a = _tls.armed
    if a is not None:
        a.check()
