"""SDFG sanitizer: static race/bounds analysis, runtime guards, and a
differential-testing oracle.

Four cooperating parts (DESIGN.md §8):

* :mod:`repro.sanitizer.races` — per-map static race detection
  (``race-free | unproved | race``) over symbolic memlet subsets;
* :mod:`repro.sanitizer.bounds` — symbolic in-bounds proofs for memlet
  subsets over the enclosing map ranges;
* :mod:`repro.sanitizer.guards` — opt-in runtime index-bounds and NaN/Inf
  guards for the interpreter and generated modules
  (``@repro.program(sanitize="bounds,nan")``);
* :mod:`repro.sanitizer.oracle` — seeded differential testing across
  execution tiers with pass-pipeline bisection
  (``python -m repro.sanitizer``).
"""

from __future__ import annotations

from typing import FrozenSet

from .bounds import (IN_BOUNDS, OUT_OF_BOUNDS, BoundsVerdict, check_bounds,
                     out_of_bounds_keys)
from .guards import SanitizerError, active_modes, sanitize
from .races import RACE, RACE_FREE, UNPROVED, MapRaceVerdict, check_races

# The oracle pulls in autoopt/codegen/runtime, which import this package's
# guard module — load it lazily (PEP 562) to keep package import acyclic.
_ORACLE_ATTRS = ("OracleReport", "bisect_passes", "generate_inputs",
                 "run_oracle", "AUTOOPT_STEPS", "tolerance_for",
                 "compare_values")


def __getattr__(name: str):
    if name in _ORACLE_ATTRS or name == "oracle":
        # importlib (not ``from . import``): the from-import machinery
        # probes the package with hasattr, which would re-enter this hook.
        import importlib

        oracle = importlib.import_module(__name__ + ".oracle")
        if name == "oracle":
            return oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "check_races", "MapRaceVerdict", "RACE_FREE", "UNPROVED", "RACE",
    "check_bounds", "BoundsVerdict", "IN_BOUNDS", "OUT_OF_BOUNDS",
    "SanitizerError", "sanitize", "active_modes",
    "run_oracle", "OracleReport", "bisect_passes", "generate_inputs",
    "static_issue_keys",
]


def static_issue_keys(sdfg) -> FrozenSet[str]:
    """Stable keys for every *provable* static issue (races and
    out-of-bounds accesses) in *sdfg*.

    Used by the transactional-transformation gate: a pass whose application
    introduces keys that were not present before is rolled back.  Keys are
    built from labels/subsets (not node identities) so they survive
    snapshot/restore round-trips.
    """
    keys = set()
    for verdict in check_races(sdfg):
        if verdict.verdict == RACE:
            keys.add(f"race:{verdict.state}:{verdict.map_label}:"
                     + ",".join(sorted({c.container for c in verdict.conflicts})))
    keys.update(out_of_bounds_keys(sdfg))
    return frozenset(keys)
