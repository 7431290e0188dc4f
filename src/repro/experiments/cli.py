"""Command-line front end: ``repro-experiments`` / ``python -m
repro.experiments``.

Subcommands::

    list                 show registered experiments and presets
    run ID [ID ...]      run selected experiments or presets (e.g.
                         ``run Q1-large`` for the batch-engine N=20-50
                         sweep)
    run-all [--fast]     run everything (--fast shrinks parameters)
    report [--fast] -o EXPERIMENTS.generated.md
                         run everything and write the markdown report
    campaign DIR         run a crash-resilient, resumable Monte-Carlo
                         campaign into DIR (``--resume`` continues an
                         interrupted one, ``--report`` summarizes the
                         result store; see :mod:`repro.campaign`)
    serve                start the always-on HTTP sweep service (warm
                         signature-keyed caches, multi-tenant fusion
                         under an admission window; see
                         :mod:`repro.serving`)

Multi-point Monte-Carlo sweeps fuse into one code matrix per system
group (see :mod:`repro.markov.sweep_engine`); the seeded per-point
oracle is ``SweepRunner(engine="scalar")``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import (
    PRESETS,
    all_ids,
    find_preset,
    get_experiment,
    preset_ids,
    run_all,
    run_preset,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduction experiments for 'Weak vs. Self vs."
        " Probabilistic Stabilization' (ICDCS 2008).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    run_parser = sub.add_parser("run", help="run selected experiments")
    run_parser.add_argument("ids", nargs="+", metavar="ID")

    run_all_parser = sub.add_parser("run-all", help="run every experiment")
    run_all_parser.add_argument(
        "--fast", action="store_true", help="shrink heavy parameters"
    )

    report_parser = sub.add_parser(
        "report", help="run everything, write markdown"
    )
    report_parser.add_argument("--fast", action="store_true")
    report_parser.add_argument(
        "-o", "--output", default="EXPERIMENTS.generated.md"
    )

    campaign_parser = sub.add_parser(
        "campaign",
        help="run a crash-resilient, resumable Monte-Carlo campaign",
    )
    campaign_parser.add_argument(
        "directory",
        metavar="DIR",
        help="campaign directory (result store + checkpoint manifest)",
    )
    campaign_parser.add_argument(
        "--families",
        default="Q1",
        metavar="IDS",
        help="comma-separated campaign families (see 'list'); default Q1",
    )
    campaign_parser.add_argument(
        "--sizes",
        default="6,8",
        metavar="NS",
        help="comma-separated system sizes; default 6,8",
    )
    campaign_parser.add_argument(
        "--trials", type=int, default=200, help="trials per point"
    )
    campaign_parser.add_argument(
        "--shard-trials",
        type=int,
        default=100,
        help="trials per shard (the unit of checkpointing and retry)",
    )
    campaign_parser.add_argument(
        "--max-steps", type=int, default=100_000, help="step budget per trial"
    )
    campaign_parser.add_argument(
        "--seed", type=int, default=2008, help="campaign master seed"
    )
    campaign_parser.add_argument(
        "--workers", type=int, default=2, help="concurrent shard workers"
    )
    campaign_parser.add_argument(
        "--shard-timeout",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="wall-clock budget per shard before the worker is killed"
        " and the shard retried",
    )
    campaign_parser.add_argument(
        "--sequential",
        action="store_true",
        help="skip worker processes; run every shard in-process",
    )
    campaign_parser.add_argument(
        "--resume",
        action="store_true",
        help="continue the campaign checkpointed in DIR (selection"
        " flags are ignored; the manifest's selection is reused)",
    )
    campaign_parser.add_argument(
        "--report",
        action="store_true",
        help="summarize DIR's result store instead of running anything",
    )

    serve_parser = sub.add_parser(
        "serve", help="start the always-on HTTP sweep service"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default local)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8008,
        help="TCP port (0 picks a free one); default 8008",
    )
    serve_parser.add_argument(
        "--window",
        type=float,
        default=0.025,
        metavar="SECONDS",
        help="admission window: how long the dispatcher holds a batch"
        " open so concurrent submissions fuse (0 = dispatch each"
        " submission alone); default 0.025",
    )
    serve_parser.add_argument(
        "--engine",
        default="auto",
        help="sweep execution policy forwarded to the shared SweepRunner:"
        " auto (default), fused, batch, or scalar",
    )
    return parser


def _print_results(results: Sequence[ExperimentResult]) -> int:
    failures = 0
    for result in results:
        print(result.render())
        print()
        failures += not result.passed
    print(
        f"{len(results) - failures}/{len(results)} experiments passed"
    )
    return 1 if failures else 0


def _run_campaign_command(args: argparse.Namespace) -> int:
    """The ``campaign`` verb: run, resume, or report."""
    from repro.campaign import (
        CampaignConfig,
        CampaignSelection,
        resume_campaign,
        run_campaign,
        store_report,
    )

    if args.report:
        rows = store_report(args.directory)
        if not rows:
            print("(empty campaign store)")
            return 0
        for row in rows:
            print("  ".join(f"{key}={value}" for key, value in row.items()))
        return 0
    config = CampaignConfig(
        workers=args.workers,
        shard_timeout=args.shard_timeout,
        sequential=args.sequential,
    )
    if args.resume:
        report = resume_campaign(args.directory, config, progress=print)
    else:
        selection = CampaignSelection(
            families=tuple(
                name for name in args.families.split(",") if name
            ),
            sizes=tuple(
                int(size) for size in args.sizes.split(",") if size
            ),
            trials=args.trials,
            max_steps=args.max_steps,
            shard_trials=args.shard_trials,
            seed=args.seed,
        )
        report = run_campaign(
            args.directory, selection, config, progress=print
        )
    print(
        "  ".join(f"{key}={value}" for key, value in report.row().items())
    )
    return 0


def _run_serve_command(args: argparse.Namespace) -> int:
    """The ``serve`` verb: run the HTTP service in the foreground."""
    from repro.serving import ServiceConfig, serve

    config = ServiceConfig(admission_window=args.window, engine=args.engine)
    serve(host=args.host, port=args.port, config=config)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id in all_ids():
            experiment = get_experiment(experiment_id)
            print(f"{experiment_id:5s}  {experiment.title}")
        for name in preset_ids():
            experiment_id, overrides = PRESETS[name]
            print(f"{name}  preset of {experiment_id}: {overrides}")
        return 0
    if args.command == "run":
        results = []
        for experiment_id in args.ids:
            started = time.perf_counter()
            if find_preset(experiment_id) is not None:
                result = run_preset(experiment_id)
            else:
                result = get_experiment(experiment_id).run()
            elapsed = time.perf_counter() - started
            print(f"({experiment_id} took {elapsed:.1f}s)")
            results.append(result)
        return _print_results(results)
    if args.command == "run-all":
        return _print_results(run_all(fast=args.fast))
    if args.command == "campaign":
        return _run_campaign_command(args)
    if args.command == "serve":
        return _run_serve_command(args)
    if args.command == "report":
        results = run_all(fast=args.fast)
        sections = [
            "# Generated experiment report",
            "",
            "One section per reproduction target; see EXPERIMENTS.md for"
            " the curated paper-vs-measured discussion.",
            "",
        ]
        sections.extend(result.markdown() for result in results)
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write("\n".join(sections))
        print(f"wrote {args.output}")
        return _print_results(results)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
