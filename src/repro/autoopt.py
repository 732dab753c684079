"""Automatic optimization heuristics (§3.1, the -O3 analogue).

``auto_optimize`` runs, in order:

1. **Map scope cleanup** — remove degenerate (size-1) maps, repeatedly apply
   *LoopToMap*, and collapse nested maps into multidimensional maps.
2. **Greedy subgraph fusion** — fuse the largest contiguous map subgraphs
   sharing (a subset of) the same iteration space.
3. **Tile WCR maps** — tile parallel maps with write-conflicts to reduce
   atomic operations.
4. **Transient allocation mitigation** — move small constant-sized arrays to
   the stack and make input-sized temporaries persistent.

Device-specific passes follow: OpenMP-collapse for CPU, the
``{GPU,FPGA}TransformSDFG`` passes for accelerators, and finally library
nodes are specialized using the per-platform priority lists (§3.2).

Under ``resilience.transactional`` the whole run is one transaction
(:func:`repro.resilience.pipeline_transaction`): one snapshot and static
baseline at entry, one ``validate()`` and static check at exit, with the
``simplify_pass`` calls inside it running plainly under the same guard.  If
that check fails, the graph is restored and the steps replay with each step
as its own transaction: a step that raises (or leaves an invalid graph
behind) is rolled back and recorded in the
:class:`repro.resilience.FailureReport`, and optimization continues with the
remaining steps — an optimization failure degrades the result, it does not
corrupt it.
"""

from __future__ import annotations

import time
from typing import Callable

from . import instrumentation
from .config import Config

__all__ = ["auto_optimize"]


def auto_optimize(sdfg, device: str = "CPU", use_fast_library: bool = True,
                  passes: dict = None, report=None):
    """Auto-optimize *sdfg* in place for *device*; returns the SDFG.

    ``passes`` optionally disables individual steps (for the ablation
    benchmarks), e.g. ``passes={"fusion": False}``.  ``report`` optionally
    collects rolled-back steps in a :class:`repro.resilience.FailureReport`.
    """
    from .resilience import FailureReport, pipeline_transaction

    enabled = {
        "cleanup": True,
        "loop_to_map": True,
        "collapse": True,
        "fusion": True,
        "tile_wcr": True,
        "transients": True,
        "device": True,
        "library": True,
        "commopt": Config.get("commopt.enabled"),
    }
    enabled.update(passes or {})
    if enabled["device"] and device not in ("CPU", "GPU", "FPGA"):
        # a bad device name is a caller error, never a step failure to absorb
        raise ValueError(f"unknown device {device!r}")
    if report is None:
        report = FailureReport()
    pipeline_transaction(
        sdfg, "auto_optimize", report,
        lambda: _optimize(sdfg, device, use_fast_library, enabled, report))
    return sdfg


def _optimize(sdfg, device: str, use_fast_library: bool, enabled: dict,
              report) -> None:
    from .resilience import (
        SDFGSnapshot,
        _check_static_issues,
        _static_issues,
        pass_transactions,
        resilience_warning,
    )
    from .transformations.dataflow.cleanup import DegenerateMapRemoval
    from .transformations.dataflow.loop_to_map import LoopToMap
    from .transformations.dataflow.map_collapse import MapCollapse
    from .transformations.dataflow.map_fusion import GreedySubgraphFusion
    from .transformations.dataflow.map_tiling import TileWCRMaps
    from .transformations.dataflow.transient_alloc import TransientAllocationMitigation
    from .transformations.pipeline import simplify_pass

    transactional = pass_transactions()

    def step(name: str, thunk: Callable[[], None]) -> None:
        if not enabled.get(name, True):
            return
        prof = instrumentation._ACTIVE
        step_start = time.perf_counter() if prof is not None else 0.0
        try:
            if not transactional:
                thunk()
                return
            check_static = Config.get("sanitize.check_transforms")
            baseline = _static_issues(sdfg) if check_static else frozenset()
            snapshot = SDFGSnapshot.capture(sdfg)
            try:
                thunk()
                sdfg.validate()
                if check_static:
                    _check_static_issues(sdfg, baseline)
            except Exception as exc:
                snapshot.restore(sdfg)
                report.record("optimization", name, exc, "rolled-back",
                              device=device)
                resilience_warning(
                    f"auto_optimize step {name!r} failed "
                    f"({type(exc).__name__}: {exc}); rolled back and continuing")
        finally:
            if prof is not None:
                prof.add("pass", f"autoopt.{name}",
                         time.perf_counter() - step_start)

    def loop_to_map_to_fixed_point() -> None:
        cap = Config.get("resilience.max_pass_applications")
        count = 0
        while LoopToMap.apply_once(sdfg):
            simplify_pass(sdfg, report=report)
            count += 1
            if count >= cap:
                resilience_warning(
                    f"auto_optimize: LoopToMap hit the application cap "
                    f"({cap}) on {sdfg.name!r}; stopping")
                break

    # (1) map scope cleanup
    step("cleanup", lambda: DegenerateMapRemoval.apply_repeated(sdfg))
    step("loop_to_map", loop_to_map_to_fixed_point)
    step("collapse", lambda: MapCollapse.apply_repeated(sdfg))

    # (2) greedy subgraph fusion
    def fusion() -> None:
        GreedySubgraphFusion.apply_repeated(sdfg)
        simplify_pass(sdfg, report=report)

    step("fusion", fusion)

    # (3) tile WCR maps
    step("tile_wcr", lambda: TileWCRMaps.apply_repeated(
        sdfg, tile_size=Config.get("optimizer.tile_size")))

    # (4) transient allocation mitigation
    step("transients", lambda: TransientAllocationMitigation.apply_repeated(sdfg))

    # device-specific passes
    def device_passes() -> None:
        if device == "CPU":
            from .transformations.device.cpu_transform import CPUParallelize

            CPUParallelize.apply_repeated(sdfg)
        elif device == "GPU":
            from .transformations.device.gpu_transform import GPUTransformSDFG

            GPUTransformSDFG.apply_repeated(sdfg)
        else:  # FPGA (auto_optimize rejected unknown devices)
            from .transformations.device.fpga_transform import (
                FPGATransformSDFG,
                StreamingComposition,
            )

            FPGATransformSDFG.apply_repeated(sdfg)
            StreamingComposition.apply_repeated(sdfg)

    step("device", device_passes)

    # library specialization (§3.2)
    def library() -> None:
        if use_fast_library:
            sdfg.expand_library_nodes(device=device)
        else:
            sdfg.expand_library_nodes(implementation="native")
        # expansions may introduce WCR maps (native reductions): tile them too
        if enabled["tile_wcr"]:
            TileWCRMaps.apply_repeated(
                sdfg, tile_size=Config.get("optimizer.tile_size"))

    step("library", library)

    # communication optimizer (§13; distributed SDFGs only, opt-in via
    # commopt.enabled — run_distributed applies it independently of -O3)
    def commopt_pass() -> None:
        from .distributed.commopt import optimize_comm

        optimize_comm(sdfg)

    step("commopt", commopt_pass)
