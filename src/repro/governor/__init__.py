"""Execution governor: deadlines, cooperative cancellation, memory
admission control, and per-program circuit breakers (DESIGN.md §12).

The ROADMAP north star — a service "serving heavy traffic from millions of
users" — needs per-run resource governance layered on the existing degrade
chain (§7), state-boundary hooks (§10), and descriptor machinery:

* :class:`Budget` ``(deadline_s, max_bytes)`` flows through ``run_sdfg`` /
  ``DaceProgram.__call__`` (reserved ``__budget`` keyword) /
  ``run_distributed``, or ambiently via ``governor.*`` configuration keys.
* :mod:`~repro.governor.admission` prices every planned allocation
  (including the multicore backend's per-chunk WCR accumulators and
  privatized transients) and rejects over-budget runs *before* allocation
  with an itemized :class:`MemoryBudgetExceeded` — or degrades to the
  serial tier when that fits.
* :mod:`~repro.governor.budget` arms a monotonic watchdog per run; the
  state-boundary call both engines make at every state transition (the
  same call that fires the checkpoint hook, so governed and ungoverned
  calls share one compiled module), parallel chunk boundaries and simmpi
  op polling check it cooperatively, raising :class:`ExecutionTimeout`
  naming the last-completed state.
* :mod:`~repro.governor.breaker` fast-fails programs that keep failing,
  keyed by the content-addressed cache fingerprint, with half-open probes
  after ``governor.cooldown_s``.

``python -m repro.governor sweep`` runs the bench corpus under tight
budgets and writes ``GOVERNOR.json`` (schema ``repro-governor/1``).
"""

from .admission import (AdmissionDecision, MemoryBudgetExceeded, MemoryPlan,
                        PlanItem, admit, plan_memory)
from .breaker import (BreakerRegistry, BreakerState, CircuitOpenError,
                      registry as breaker_registry, reset_breakers)
from .budget import (ArmedBudget, Budget, ExecutionCancelled,
                     ExecutionTimeout, GovernorError, adopt, armed, current,
                     tick)

__all__ = [
    "Budget", "ArmedBudget", "GovernorError", "ExecutionTimeout",
    "ExecutionCancelled", "armed", "adopt", "current", "tick",
    "MemoryBudgetExceeded", "MemoryPlan", "PlanItem", "AdmissionDecision",
    "admit", "plan_memory",
    "CircuitOpenError", "BreakerState", "BreakerRegistry",
    "breaker_registry", "reset_breakers",
]
