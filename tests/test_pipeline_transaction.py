"""Pipeline transactions: ``simplify_pass`` and ``auto_optimize`` check the
whole pipeline once at exit, and replay pass by pass only after a fault.

The per-pass path is forced by opening the guard on the current thread
first (``_GUARD.depth``), which is exactly how a nested pipeline call runs
outside a fast run."""

import json
import os
import warnings

import pytest

import repro
from repro import Config, instrumentation
from repro.autoopt import auto_optimize
from repro.bench import registry
from repro.codegen import compile_sdfg
from repro.resilience import (FailureReport, ResilienceWarning, SDFGSnapshot,
                              core, pipeline_replays)
from repro.transformations import pipeline
from repro.transformations.dataflow.loop_to_map import LoopToMap

from .test_resilience import CorruptingPass, ExplodingPass, scale_sdfg
from .test_sanitizer import _DropWCR, _wcr_edges, reduction_sdfg

BUGGY = {"exploding": (ExplodingPass, scale_sdfg),
         "corrupting": (CorruptingPass, scale_sdfg),
         "drop_wcr": (_DropWCR, lambda: reduction_sdfg("sum"))}
PIPELINES = {"simplify": lambda sdfg, report: pipeline.simplify_pass(
                 sdfg, report=report),
             "O3": lambda sdfg, report: auto_optimize(sdfg, report=report)}


def _graph(sdfg):
    return json.dumps(sdfg.to_json(), sort_keys=True, default=str)


def _records(report):
    return [(r.kind, r.subject, r.action, type(r.error).__name__,
             str(r.error), r.detail) for r in report.records]


def _run(monkeypatch, run, sdfg, per_pass):
    """Run one pipeline; returns (report, ResilienceWarning messages)."""
    report = FailureReport()
    with monkeypatch.context() as m:
        if per_pass:
            m.setattr(core._GUARD, "depth", 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(sdfg, report)
    messages = [str(w.message) for w in caught
                if issubclass(w.category, ResilienceWarning)]
    return report, messages


@pytest.mark.parametrize("pipe", sorted(PIPELINES))
@pytest.mark.parametrize("buggy", sorted(BUGGY))
def test_replay_equals_per_pass_path(monkeypatch, buggy, pipe):
    xf, build = BUGGY[buggy]
    monkeypatch.setattr(pipeline, "SIMPLIFY_TRANSFORMATIONS",
                        pipeline.SIMPLIFY_TRANSFORMATIONS + [xf])
    run = PIPELINES[pipe]

    direct = build()
    direct_report, direct_warnings = _run(monkeypatch, run, direct, True)
    replays = pipeline_replays()
    guarded = build()
    guarded_report, guarded_warnings = _run(monkeypatch, run, guarded, False)

    assert pipeline_replays() == replays + 1
    first, *rest = guarded_report.records
    assert (first.kind, first.action) == ("pipeline", "replayed")
    assert first.subject == ("simplify" if pipe == "simplify"
                             else "auto_optimize")
    assert set(first.detail) in ({"cause"}, {"issues"})
    assert rest and _records(guarded_report)[1:] == _records(direct_report)
    assert _graph(guarded) == _graph(direct)
    # the discarded fast run emitted nothing: each warning exactly once
    assert guarded_warnings == direct_warnings
    assert len(guarded_warnings) == len(set(guarded_warnings))
    guarded.validate()
    if buggy == "drop_wcr":
        assert _wcr_edges(guarded)


def test_replay_detail_names_cause(monkeypatch):
    monkeypatch.setattr(pipeline, "SIMPLIFY_TRANSFORMATIONS",
                        pipeline.SIMPLIFY_TRANSFORMATIONS + [ExplodingPass])
    report = FailureReport()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResilienceWarning)
        pipeline.simplify_pass(scale_sdfg(), report=report)
    assert report.records[0].detail == {"cause": "RuntimeError: kaboom"}

    monkeypatch.setattr(pipeline, "SIMPLIFY_TRANSFORMATIONS",
                        pipeline.SIMPLIFY_TRANSFORMATIONS[:-1] + [_DropWCR])
    report = FailureReport()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResilienceWarning)
        pipeline.simplify_pass(reduction_sdfg("sum"), report=report)
    (issue,) = report.records[0].detail["issues"]
    assert issue.startswith("race:")


def test_clean_pipeline_commits_without_replay():
    report = FailureReport()
    replays = pipeline_replays()
    sdfg = scale_sdfg()
    auto_optimize(sdfg, report=report)
    assert not report and pipeline_replays() == replays


def test_deferred_warnings_emitted_once_on_commit(monkeypatch):
    from .test_resilience import AddMarkerPass, RemoveMarkerPass

    monkeypatch.setattr(pipeline, "SIMPLIFY_TRANSFORMATIONS",
                        [AddMarkerPass, RemoveMarkerPass])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pipeline.simplify_pass(scale_sdfg())
    assert [w.category for w in caught] == [ResilienceWarning]
    assert "oscillating" in str(caught[0].message)
    assert caught[0].filename == pipeline.__file__


def test_fast_run_warnings_discarded_on_replay(monkeypatch):
    """The fast run stops on an oscillation (a deferred warning) and then
    fails validation: only the replay's own warning is emitted."""
    from .test_resilience import AddMarkerPass, RemoveMarkerPass

    monkeypatch.setattr(pipeline, "SIMPLIFY_TRANSFORMATIONS",
                        [AddMarkerPass, RemoveMarkerPass, CorruptingPass])
    direct = scale_sdfg()
    direct_report, direct_warnings = _run(
        monkeypatch, PIPELINES["simplify"], direct, True)
    guarded = scale_sdfg()
    guarded_report, guarded_warnings = _run(
        monkeypatch, PIPELINES["simplify"], guarded, False)
    assert guarded_report.records[0].kind == "pipeline"
    assert _records(guarded_report)[1:] == _records(direct_report)
    assert sum("oscillating" in m for m in guarded_warnings) == 1
    assert guarded_warnings == direct_warnings
    assert _graph(guarded) == _graph(direct)


def test_transactions_off_runs_plainly(monkeypatch):
    monkeypatch.setattr(pipeline, "SIMPLIFY_TRANSFORMATIONS",
                        pipeline.SIMPLIFY_TRANSFORMATIONS + [ExplodingPass])
    with Config.override(resilience__transactional=False):
        with pytest.raises(RuntimeError, match="kaboom"):
            pipeline.simplify_pass(scale_sdfg())


def test_guard_costs_are_named_in_profile():
    with instrumentation.profile() as coll:
        auto_optimize(scale_sdfg())
    names = {r.name for r in coll.report().by_category("pass")}
    assert {"guard.snapshot", "guard.validate", "guard.static"} <= names


def test_snapshot_keeps_loop_metadata():
    """A restored snapshot still carries what the JSON format leaves out,
    so a replay after a rollback converts the same loops."""
    @repro.program
    def loops(A: repro.float64[8], B: repro.float64[8]):
        for i in range(8):
            B[i] = A[i] + 1.0

    sdfg = loops.to_sdfg().clone()
    assert next(iter(LoopToMap.matches(sdfg)), None) is not None
    counter = sdfg._state_counter
    SDFGSnapshot.capture(sdfg).restore(sdfg)
    assert next(iter(LoopToMap.matches(sdfg)), None) is not None
    assert sdfg._state_counter == counter


def test_cold_O3_compile_checks_each_pipeline_once(monkeypatch):
    """A cold -O3 compile is two pipelines (the frontend's simplify and
    auto_optimize): two static scans and one snapshot each."""
    import repro.sanitizer

    counts = {"scans": 0, "captures": 0}
    scan = repro.sanitizer.static_issue_keys
    capture = SDFGSnapshot.capture.__func__

    def counting_scan(sdfg):
        counts["scans"] += 1
        return scan(sdfg)

    def counting_capture(cls, sdfg):
        counts["captures"] += 1
        return capture(cls, sdfg)

    monkeypatch.setattr(repro.sanitizer, "static_issue_keys", counting_scan)
    monkeypatch.setattr(SDFGSnapshot, "capture", classmethod(counting_capture))
    bench = registry.get("gemm")
    prog = repro.program(auto_optimize=True)(bench.program.func)
    with Config.override(cache__enabled=False):
        prog.compile(**bench.arguments("test"))
    assert counts["scans"] <= 4
    assert counts["captures"] <= 2


def _compile_pool():
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                        "definition.json")
    with open(path) as fh:
        return json.load(fh)["workloads"]["compile"]["pool"]


def _sources(name):
    bench = registry.get(name)
    prog = repro.program(bench.program.func)
    if prog._annotation_descs() is None:
        sdfg = prog.to_sdfg(**bench.arguments("test"))
    else:
        sdfg = prog.to_sdfg()
    opt = auto_optimize(sdfg.clone(), device="CPU")
    return (compile_sdfg(sdfg.clone(), cache=False).source,
            compile_sdfg(opt, cache=False).source)


@pytest.mark.parametrize("name", _compile_pool() + ["nbody"])
def test_guarded_source_equals_per_pass_source(monkeypatch, name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResilienceWarning)
        guarded = _sources(name)
        with monkeypatch.context() as m:
            m.setattr(core._GUARD, "depth", 1)
            per_pass = _sources(name)
    assert guarded == per_pass


def test_fuzz_report_counts_replays(monkeypatch, tmp_path):
    """Case 4 of the seed-0 campaign is the committed corpus case_4, whose
    -O3 pipeline replays to roll back StateFusion and loop_to_map."""
    import tempfile

    from repro.fuzz.runner import run_campaign

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResilienceWarning)
        doc = run_campaign(0, 5).to_dict()
    assert doc["counts"]["ok"] == 5
    assert doc["replays_by_case"] == {"4": 1}
    assert doc["pipeline_replays"] == 1
