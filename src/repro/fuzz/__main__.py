"""CLI for the differential pipeline fuzzer.

::

    python -m repro.fuzz run    --seed 0 --cases 200 [--budget-s 120]
                                [--out FUZZ.json] [--shrink --corpus DIR]
    python -m repro.fuzz replay tests/fuzz_corpus/*.json
    python -m repro.fuzz shrink --seed S --index I --corpus DIR

``run`` exits nonzero when any unexplained divergence (or generator
invalidity) was observed — the CI contract.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..resilience import pipeline_replays
from .gen import generate_case, render_module
from .runner import run_campaign, run_gen_case, run_source_case
from .shrink import corpus_files, load_corpus_entry, save_corpus_entry, shrink_case

DEFAULT_CORPUS = "tests/fuzz_corpus"


def _cmd_run(args: argparse.Namespace) -> int:
    report = run_campaign(
        args.seed, args.cases, budget_s=args.budget_s,
        mutate=not args.no_mutate,
        shrink_failures=args.shrink, corpus_dir=args.corpus,
        verbose=not args.quiet)
    if args.out:
        report.write(args.out)
    bad = report.counts.get("divergence", 0) + report.counts.get("invalid", 0)
    print(f"fuzz: {report.completed}/{report.cases} cases in "
          f"{report.elapsed_s:.1f}s — ok={report.counts.get('ok', 0)} "
          f"explained={report.counts.get('explained', 0)} "
          f"divergent={report.counts.get('divergence', 0)} "
          f"invalid={report.counts.get('invalid', 0)} "
          f"pipeline-replays={sum(report.replays.values())}")
    for finding in report.findings[:10]:
        print(f"  case {finding['index']} (seed {finding['seed']}): "
              f"{finding.get('mismatches') or finding.get('stages')}")
    return 1 if bad else 0


def _cmd_replay(args: argparse.Namespace) -> int:
    paths = list(args.files) or corpus_files(args.corpus)
    if not paths:
        print(f"no corpus files under {args.corpus!r}", file=sys.stderr)
        return 1
    failures = 0
    for path in paths:
        entry = load_corpus_entry(path)
        replays = pipeline_replays()
        result = run_source_case(
            entry["module"], entry["arrays"], entry.get("scalars", ()),
            entry["seed"], variant=entry.get("variant"))
        replays = pipeline_replays() - replays
        status = result.verdict
        if entry.get("expect", "match") == "match" and status != "ok":
            failures += 1
            print(f"FAIL {path}: {result.mismatches or result.stages}")
        else:
            note = f" (pipeline replays: {replays})" if replays else ""
            print(f"ok   {path}{note}")
    return 1 if failures else 0


def _cmd_shrink(args: argparse.Namespace) -> int:
    from .mutate import mutate_case, variant_for
    from .runner import failure_detail
    import random as _random

    # replicate the campaign's draws exactly (mutation, then variant)
    case_seed = args.seed * 1_000_003 + args.index
    case = generate_case(case_seed)
    rng = _random.Random(f"repro-fuzz-mutate-{case_seed}")
    if not args.no_mutate and rng.random() < 0.3:
        case = mutate_case(case, rng)
    variant = variant_for(args.index, rng)
    detail = failure_detail(case, variant)
    if detail is None:
        print(f"case {args.index} (seed {case_seed}) does not fail; "
              "nothing to shrink")
        return 1
    print(f"shrinking: {detail}")
    shrunk = shrink_case(
        case, lambda c: failure_detail(c, variant) is not None)
    path = save_corpus_entry(
        shrunk, args.corpus, variant=variant,
        note=f"shrunk from campaign seed={args.seed} case={args.index}: "
             f"{detail[:160]}")
    print(f"wrote {path}")
    if args.show:
        print(render_module(shrunk))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.fuzz")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a seeded fuzz campaign")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--cases", type=int, default=200)
    p_run.add_argument("--budget-s", type=float, default=None)
    p_run.add_argument("--out", default="FUZZ.json")
    p_run.add_argument("--shrink", action="store_true",
                       help="shrink failures and write corpus entries")
    p_run.add_argument("--corpus", default=DEFAULT_CORPUS)
    p_run.add_argument("--no-mutate", action="store_true")
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_replay = sub.add_parser("replay", help="replay corpus repro files")
    p_replay.add_argument("files", nargs="*")
    p_replay.add_argument("--corpus", default=DEFAULT_CORPUS)
    p_replay.set_defaults(func=_cmd_replay)

    p_shrink = sub.add_parser("shrink", help="shrink one campaign case")
    p_shrink.add_argument("--seed", type=int, required=True)
    p_shrink.add_argument("--index", type=int, required=True)
    p_shrink.add_argument("--corpus", default=DEFAULT_CORPUS)
    p_shrink.add_argument("--no-mutate", action="store_true")
    p_shrink.add_argument("--show", action="store_true")
    p_shrink.set_defaults(func=_cmd_shrink)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
