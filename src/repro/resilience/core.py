"""Cross-cutting resilience subsystem.

Three concerns live here (motivated by the paper's §2.4/§3.1 workflow of
chaining dozens of automatic graph transformations, and by DaCe's practice of
validating between passes because transformation bugs are the dominant
failure mode of such compilers):

1. **Transactional transformation pipelines** — a whole pass pipeline
   (``simplify_pass``, ``auto_optimize``) runs as one transaction: one
   snapshot and one static-issue baseline at entry, the passes unguarded,
   then one ``validate()`` and one static check at exit
   (:func:`pipeline_transaction`).  Only when that fails does the pipeline
   roll back and *replay* with every pass under its own snapshot → apply →
   validate → rollback-on-failure transaction (:func:`transactional_apply`),
   which names, rolls back and quarantines the faulty pass.  Snapshots go
   through :mod:`repro.ir.serialize` (JSON round-trip) when the graph is
   serializable, and fall back to ``copy.deepcopy`` otherwise (e.g.
   unexpanded library nodes).
2. **Quarantine + oscillation control** — passes that repeatedly fail on a
   given SDFG are quarantined instead of retried forever, and fixed-point
   drivers can detect A/B oscillations through graph fingerprints.
3. **Structured failure reporting** — every replay, rollback or degradation
   is recorded in a :class:`FailureReport` instead of crashing (or worse,
   silently continuing), so callers can inspect what went wrong and what the
   system did about it.

The graceful-degradation execution chain (optimized SDFG → unoptimized SDFG
→ pure-Python reference) is driven from :class:`repro.frontend.decorator
.DaceProgram` using these primitives, controlled by the ``resilience.*``
configuration keys.
"""

from __future__ import annotations

import copy
import json
import sys
import threading
import warnings
from typing import Any, Callable, Dict, List, Optional, TypeVar

from ..config import Config
from ..instrumentation import record_region

__all__ = [
    "FailureRecord",
    "FailureReport",
    "SDFGSnapshot",
    "Quarantine",
    "OscillationDetector",
    "ResilienceWarning",
    "transactional_apply",
    "pipeline_transaction",
    "pipeline_replays",
    "pass_transactions",
    "resilience_warning",
    "sdfg_fingerprint",
]


class ResilienceWarning(RuntimeWarning):
    """Emitted whenever the resilience layer absorbs a failure."""


def _json_safe(value: Any) -> Any:
    """Recursively coerce a value into JSON-serializable form.

    Exception args and detail payloads routinely carry NumPy scalars and
    arrays (e.g. a guard naming the offending value); ``json.dumps`` chokes
    on those.  Scalars collapse to their Python equivalent, small arrays to
    nested lists, and large arrays to a shape/dtype summary."""
    import numpy as np

    if isinstance(value, (int, float, bool, str, type(None))):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        if value.size <= 16:
            return value.tolist()
        return {"ndarray": {"shape": list(value.shape),
                            "dtype": str(value.dtype)}}
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return str(value)


class FailureRecord:
    """One absorbed failure: what failed, at which phase, and the response."""

    __slots__ = ("kind", "subject", "error", "action", "detail")

    def __init__(self, kind: str, subject: str, error: BaseException,
                 action: str, **detail: Any):
        self.kind = kind            # "pipeline" | "transformation" | "optimization" | "degradation"
        self.subject = subject      # pipeline, pass or program name
        self.error = error
        self.action = action        # "replayed" | "rolled-back" | "quarantined" | "fell-back:<stage>"
        self.detail = detail

    def __repr__(self) -> str:
        extra = f", {self.detail}" if self.detail else ""
        return (f"FailureRecord({self.kind}:{self.subject} -> {self.action}; "
                f"{type(self.error).__name__}: {self.error}{extra})")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (errors and details are sanitized —
        NumPy scalars/arrays in exception args must not break dumps)."""
        return {
            "kind": self.kind,
            "subject": self.subject,
            "error": f"{type(self.error).__name__}: {self.error}",
            "error_args": [_json_safe(a) for a in self.error.args],
            "action": self.action,
            "detail": {k: _json_safe(v) for k, v in self.detail.items()},
        }


class FailureReport:
    """Structured collection of absorbed failures for one pipeline/program."""

    def __init__(self):
        self.records: List[FailureRecord] = []

    def record(self, kind: str, subject: str, error: BaseException,
               action: str, **detail: Any) -> FailureRecord:
        rec = FailureRecord(kind, subject, error, action, **detail)
        self.records.append(rec)
        return rec

    def by_kind(self, kind: str) -> List[FailureRecord]:
        return [r for r in self.records if r.kind == kind]

    @property
    def transformation_failures(self) -> List[FailureRecord]:
        return self.by_kind("transformation")

    @property
    def degradations(self) -> List[FailureRecord]:
        return self.by_kind("degradation")

    def clear(self) -> None:
        self.records.clear()

    def to_dict(self) -> List[Dict[str, Any]]:
        return [rec.to_dict() for rec in self.records]

    def summary(self) -> str:
        if not self.records:
            return "no failures recorded"
        lines = [f"{len(self.records)} failure(s) absorbed:"]
        for rec in self.records:
            lines.append(f"  - {rec!r}")
        return "\n".join(lines)

    def __bool__(self) -> bool:
        return bool(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"FailureReport({len(self.records)} records)"


# --------------------------------------------------------------------------
# snapshots
# --------------------------------------------------------------------------

class SDFGSnapshot:
    """A restorable point-in-time copy of an SDFG.

    Capture prefers the JSON serializer (cheap, and exercises the same
    round-trip the on-disk format uses); graphs that cannot serialize —
    unexpanded library nodes — fall back to a deep copy.  ``restore``
    reinstates the captured contents *in place* on the original object, so
    callers holding a reference to the SDFG see the rollback.
    """

    __slots__ = ("_json", "_clone", "_extras")

    def __init__(self, json_text: Optional[str], clone: Optional[Any],
                 extras: Optional[List[tuple]] = None):
        self._json = json_text
        self._clone = clone
        self._extras = extras

    @classmethod
    def capture(cls, sdfg) -> "SDFGSnapshot":
        try:
            return cls(json.dumps(sdfg.to_json()), None, _capture_extras(sdfg))
        except Exception:
            return cls(None, copy.deepcopy(sdfg))

    def restore(self, sdfg) -> None:
        if self._json is not None:
            from ..ir.serialize import sdfg_from_json

            source = sdfg_from_json(json.loads(self._json))
            _restore_extras(source, self._extras)
        else:
            # a snapshot may be restored more than once: keep ours pristine
            source = copy.deepcopy(self._clone)
        preserved_parent = sdfg.parent
        sdfg.__dict__.clear()
        sdfg.__dict__.update(source.__dict__)
        sdfg.parent = preserved_parent
        # state back-references must point at the restored object, not at the
        # throwaway deserialized/cloned instance
        for state in sdfg.states():
            state.sdfg = sdfg


def _sdfg_tree(sdfg):
    """*sdfg* and its nested SDFGs, in serialization order."""
    from ..ir.nodes import NestedSDFG

    yield sdfg
    for state in sdfg.states():
        for node in state.nodes():
            if isinstance(node, NestedSDFG):
                yield from _sdfg_tree(node.sdfg)


def _capture_extras(sdfg) -> List[tuple]:
    """What the JSON format leaves out, per (nested) SDFG: its constants
    (e.g. module objects), its state-label counter, and the frontend's
    ``loop_info`` on loop guards (which LoopToMap matches on), with its
    state references stored as state indices."""
    from ..ir.state import SDFGState

    extras = []
    for graph in _sdfg_tree(sdfg):
        states = graph.states()
        index = {state: i for i, state in enumerate(states)}
        loops = []
        for i, state in enumerate(states):
            info = getattr(state, "loop_info", None)
            if info is None:
                continue
            refs = {key: index.get(value) for key, value in info.items()
                    if isinstance(value, SDFGState)}
            plain = {key: value for key, value in info.items()
                     if key not in refs}
            loops.append((i, plain, refs))
        extras.append((dict(graph.constants), graph._state_counter, loops))
    return extras


def _restore_extras(sdfg, extras: List[tuple]) -> None:
    for graph, (constants, counter, loops) in zip(_sdfg_tree(sdfg), extras):
        graph.constants = dict(constants)
        graph._state_counter = counter
        states = graph.states()
        for i, plain, refs in loops:
            info = dict(plain)
            # a reference to a state no longer in the graph comes back as
            # None, which matches no state either
            info.update({key: None if j is None else states[j]
                         for key, j in refs.items()})
            states[i].loop_info = info


def sdfg_fingerprint(sdfg) -> Optional[str]:
    """A content hash of the graph, or None if it cannot be computed."""
    try:
        return str(hash(json.dumps(sdfg.to_json(), sort_keys=True, default=str)))
    except Exception:
        return None


class OscillationDetector:
    """Detects fixed-point loops that revisit a previous graph state.

    Feed the SDFG after every sweep; :meth:`observe` returns True when the
    current fingerprint was already seen, i.e. the last sweep's
    transformations undid each other (classic A/B oscillation).
    """

    def __init__(self):
        self._seen: Dict[str, int] = {}
        self._sweep = 0

    def observe(self, sdfg) -> bool:
        self._sweep += 1
        fp = sdfg_fingerprint(sdfg)
        if fp is None:
            return False
        if fp in self._seen:
            return True
        self._seen[fp] = self._sweep
        return False


# --------------------------------------------------------------------------
# quarantine
# --------------------------------------------------------------------------

class Quarantine:
    """Tracks per-transformation failure counts on one SDFG; passes whose
    count reaches ``resilience.quarantine_threshold`` are skipped."""

    def __init__(self, threshold: Optional[int] = None):
        self.threshold = (threshold if threshold is not None
                          else Config.get("resilience.quarantine_threshold"))
        self.failures: Dict[str, int] = {}

    def record_failure(self, name: str) -> int:
        self.failures[name] = self.failures.get(name, 0) + 1
        return self.failures[name]

    def is_quarantined(self, name: str) -> bool:
        return self.failures.get(name, 0) >= self.threshold

    @property
    def quarantined(self) -> List[str]:
        return sorted(n for n in self.failures if self.is_quarantined(n))


# --------------------------------------------------------------------------
# transactional application
# --------------------------------------------------------------------------

def transformation_name(transformation) -> str:
    name = getattr(transformation, "name", "")
    if name:
        return name
    if isinstance(transformation, type):
        return transformation.__name__
    return type(transformation).__name__


def _static_issues(sdfg) -> frozenset:
    """Provable race / out-of-bounds issue keys (sanitize.check_transforms)."""
    from ..sanitizer import static_issue_keys

    return static_issue_keys(sdfg)


def _check_static_issues(sdfg, baseline: frozenset) -> None:
    """Raise when the transformed graph has provable issues the original
    did not — semantics-preservation failed even though validation passed."""
    from ..sanitizer import SanitizerError

    fresh = _static_issues(sdfg) - baseline
    if fresh:
        raise SanitizerError(
            "static", sdfg.name,
            "transformation introduced provable issue(s): "
            + "; ".join(sorted(fresh)), issues=sorted(fresh))


def transactional_apply(sdfg, transformation, *,
                        report: Optional[FailureReport] = None,
                        quarantine: Optional[Quarantine] = None,
                        max_applications: Optional[int] = None,
                        **options) -> int:
    """Apply *transformation* repeatedly under a transaction.

    Snapshot → apply-to-fixed-point → validate → on any exception (including
    a validation failure of the transformed graph) roll the SDFG back to the
    snapshot, record the failure, and bump the quarantine counter.  Returns
    the number of applications that *survived* (0 after a rollback).
    """
    name = transformation_name(transformation)
    if quarantine is not None and quarantine.is_quarantined(name):
        return 0
    snapshot: Optional[SDFGSnapshot] = None
    try:
        # snapshotting is the expensive part of the transaction; skip it when
        # the transformation has nothing to apply (the common case in
        # fixed-point sweeps)
        if next(iter(transformation.matches(sdfg, **options)), None) is None:
            return 0
        check_static = Config.get("sanitize.check_transforms")
        baseline = _static_issues(sdfg) if check_static else frozenset()
        snapshot = SDFGSnapshot.capture(sdfg)
        applied = transformation.apply_repeated(
            sdfg, max_applications=max_applications, **options)
        if applied:
            sdfg.validate()
            if check_static:
                _check_static_issues(sdfg, baseline)
        return applied
    except Exception as exc:
        if snapshot is not None:
            snapshot.restore(sdfg)
        action = "rolled-back"
        if quarantine is not None:
            count = quarantine.record_failure(name)
            if quarantine.is_quarantined(name):
                action = "quarantined"
            detail = {"failure_count": count}
        else:
            detail = {}
        if report is not None:
            report.record("transformation", name, exc, action, **detail)
        resilience_warning(
            f"transformation {name} failed ({type(exc).__name__}: {exc}); "
            f"SDFG {sdfg.name!r} {action}", stacklevel=2)
        return 0


# --------------------------------------------------------------------------
# pipeline transaction
# --------------------------------------------------------------------------

class _PipelineGuard(threading.local):
    """Per-thread state of the pipeline transaction.  Compiles may run on
    several threads at once, so this never lives in the global Config."""

    #: guarded pipeline calls open on this thread (nested ones run plainly)
    depth = 0
    #: ResilienceWarnings held back during a fast run; None outside one
    deferred: Optional[List[tuple]] = None


_GUARD = _PipelineGuard()
_replays = 0
_replays_lock = threading.Lock()

T = TypeVar("T")


def pipeline_replays() -> int:
    """Pipelines that fell back to the per-pass replay in this process."""
    return _replays


def pass_transactions() -> bool:
    """Whether pipeline members run under their own per-pass transaction:
    on under ``resilience.transactional``, except inside the fast run of a
    :func:`pipeline_transaction`, which checks the whole pipeline at once."""
    return _GUARD.deferred is None and Config.get("resilience.transactional")


def resilience_warning(message: str, stacklevel: int = 1) -> None:
    """``warnings.warn(message, ResilienceWarning)``, held back while a fast
    pipeline run is open: its warnings are emitted (at their original
    location) only if the run commits, so a replay never repeats one."""
    deferred = _GUARD.deferred
    if deferred is None:
        warnings.warn(message, ResilienceWarning, stacklevel=stacklevel + 1)
        return
    frame = sys._getframe(stacklevel)
    deferred.append((message, frame.f_code.co_filename, frame.f_lineno,
                     frame.f_globals))


def _emit(deferred: List[tuple]) -> None:
    for message, filename, lineno, module_globals in deferred:
        warnings.warn_explicit(
            message, ResilienceWarning, filename, lineno,
            module=module_globals.get("__name__", "<string>"),
            registry=module_globals.setdefault("__warningregistry__", {}),
            module_globals=module_globals)


def pipeline_transaction(sdfg, name: str, report: FailureReport,
                         run: Callable[[], T]) -> T:
    """Run the pass pipeline *run* over *sdfg* as one transaction.

    Fast path: one static-issue baseline and one snapshot at entry, the
    passes with no per-pass transaction (:func:`pass_transactions` is off),
    then one ``validate()`` and one static check against the entry
    baseline.  Fault path: if anything raised or a new provable issue
    appeared, restore the entry snapshot, record a ``pipeline`` /
    ``replayed`` entry in *report*, and run the pipeline again with every
    pass under its own transaction.  Passes are deterministic, so the replay
    rolls back or quarantines the same pass as a per-pass run would, with
    the same records and warnings.

    Only the outermost call on a thread is guarded: pipelines nested in it
    (``simplify_pass`` inside ``auto_optimize``, recursion into nested
    SDFGs) run plainly under the outer transaction, in whichever mode it is
    in.  With ``resilience.transactional`` off, *run* runs unguarded.
    """
    if _GUARD.depth or not Config.get("resilience.transactional"):
        return run()
    _GUARD.depth += 1
    try:
        return _guarded(sdfg, name, report, run)
    finally:
        _GUARD.depth -= 1


def _guarded(sdfg, name: str, report: FailureReport, run: Callable[[], T]) -> T:
    global _replays

    check_static = Config.get("sanitize.check_transforms")
    baseline = frozenset()
    if check_static:
        with record_region("pass", "guard.static"):
            baseline = _static_issues(sdfg)
    with record_region("pass", "guard.snapshot"):
        snapshot = SDFGSnapshot.capture(sdfg)
    deferred = _GUARD.deferred = []
    try:
        result = run()
        with record_region("pass", "guard.validate"):
            sdfg.validate()
        if check_static:
            with record_region("pass", "guard.static"):
                _check_static_issues(sdfg, baseline)
    except Exception as exc:
        fault = exc
    else:
        fault = None
    finally:
        _GUARD.deferred = None
    if fault is None:
        _emit(deferred)
        return result
    snapshot.restore(sdfg)
    with _replays_lock:
        _replays += 1
    if getattr(fault, "kind", None) == "static":
        detail = {"issues": fault.detail.get("issues", [])}
    else:
        detail = {"cause": f"{type(fault).__name__}: {fault}"}
    report.record("pipeline", name, fault, "replayed", **detail)
    return run()
