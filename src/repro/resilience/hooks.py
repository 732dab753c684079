"""The state-boundary call and the checkpoint hooks it fires.

Both execution engines — the generated Python module
(:mod:`repro.codegen.pygen`) and the reference interpreter
(:mod:`repro.runtime.executor`) — call :func:`state_boundary` once at the
top of every state-machine iteration, before the state executes.  It checks
the governor's armed budget (:mod:`repro.governor.budget`) first, then fires
the checkpoint hook.  Both live on :data:`repro.boundary.slots`; with
neither set the call is two thread-local attribute reads, so governed and
ungoverned runs share one compiled module.

The distributed runtime installs a per-rank checkpointer through
:func:`boundary_hook` for the dynamic extent of one rank's execution; the
hook receives ``(state_index, containers, symbols)`` — exactly the SDFG
state-machine program point plus the data needed to snapshot it — and may
raise to unwind the rank (peer-failure abort, checkpoint deadlock).

Nested SDFGs run their own state machines inside a single outer state;
their boundaries are *not* checkpointable program points (the outer state is
mid-flight), so :func:`suppressed` masks the hook for the dynamic extent of
a nested execution.  It does not mask the budget: nested states still
check the deadline.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Dict, Iterator, Sequence

from ..boundary import slots as _tls

__all__ = ["state_boundary", "boundary_hook", "suppressed"]

BoundaryHook = Callable[[int, Dict[str, Any], Dict[str, Any]], None]


def state_boundary(state_index: int, containers: Dict[str, Any],
                   symbols: Dict[str, Any], labels: Sequence[str] = ()) -> None:
    """Check the armed budget, then fire the checkpoint hook (both engines).

    *labels* maps state indices to state labels (both engines pass it); the
    budget reports the last completed state by label.
    """
    armed = _tls.armed
    if armed is not None:
        armed.boundary(labels[state_index])
    hook = _tls.hook
    if hook is not None and not _tls.suppress:
        hook(state_index, containers, symbols)


@contextlib.contextmanager
def boundary_hook(hook: BoundaryHook) -> Iterator[None]:
    """Install *hook* on the calling thread for the duration of the block."""
    prev = _tls.hook
    _tls.hook = hook
    try:
        yield
    finally:
        _tls.hook = prev


@contextlib.contextmanager
def suppressed() -> Iterator[None]:
    """Mask the thread's hook (nested-SDFG state machines)."""
    _tls.suppress += 1
    try:
        yield
    finally:
        _tls.suppress -= 1
