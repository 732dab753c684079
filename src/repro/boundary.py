"""Per-thread slots read by the state-boundary call (DESIGN.md §10, §12).

:func:`repro.resilience.hooks.state_boundary` checks the governor's armed
budget and fires the distributed checkpoint hook; both live on the one
thread-local below.  Class-level defaults make reading an unset slot a
plain attribute lookup rather than a ``getattr`` that raises and swallows
``AttributeError`` internally.
"""

import threading

__all__ = ["BoundarySlots", "slots"]


class BoundarySlots(threading.local):
    #: the :class:`~repro.governor.budget.ArmedBudget` governing this thread
    armed = None
    #: the distributed checkpoint hook ``(state_index, containers, symbols)``
    hook = None
    #: nested-SDFG depth; a nonzero value masks ``hook`` (not ``armed``)
    suppress = 0


slots = BoundarySlots()
