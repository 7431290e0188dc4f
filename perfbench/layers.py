"""Which library callables the traced run wraps, and how their spans
reduce to the per-layer metrics named in ``BENCHMARK.json``.

Every workload prints every per-layer metric; a layer a workload never
calls reads 0.  Metrics a workload measures directly (serving latencies,
campaign report counters, store timings) arrive as ``measured`` and
override the span-derived defaults.
"""

from __future__ import annotations

from perfbench.tracer import LayerStats, Span, Target, by_name

EXPERIMENT_IDS = (
    "FIG1", "FIG2", "FIG3", "THM1", "THM2", "THM3", "THM4", "THM5",
    "THM6", "THM7", "THM8", "THM9", "ALG3", "Q1", "Q2", "Q3", "Q4",
    "ABL1", "FT1", "ADV1", "OPT1",
)


def _entries(result, args, kwargs):
    return {"entries": result.num_entries}


def _explored(result, args, kwargs):
    return {"states": result.num_configurations, "edges": result.num_edges}


def _chain(result, args, kwargs):
    return {"states": result.num_states,
            "nnz": len(result.transition_arrays()[1])}


def _experiment(result, args, kwargs):
    return {"id": args[0].experiment_id}


def _sweep(result, args, kwargs):
    runner = args[0]
    points = args[1] if len(args) > 1 else kwargs["points"]
    steps = 0.0
    for spec, outcome in zip(points, result):
        if outcome.stats is not None:
            steps += outcome.stats.mean * outcome.converged
        steps += outcome.timed_out * spec.max_steps
    return {
        "points": len(points),
        "fused_points": sum(
            execution.engine == "fused" for execution in runner.last_plan
        ),
        "trial_steps": steps,
    }


TARGETS = (
    Target("repro.core.encoding", "compile_tables", "core.compile_tables",
           _entries),
    Target("repro.stabilization.statespace", "StateSpace.explore",
           "stabilization.explore", _explored),
    Target("repro.stabilization.classify", "classify",
           "stabilization.classify"),
    Target("repro.stabilization.probabilistic", "classify_probabilistic",
           "stabilization.classify"),
    Target("repro.stabilization.convergence", "strongly_connected_components",
           "stabilization.scc"),
    Target("repro.stabilization.convergence", "possible_convergence",
           "stabilization.convergence"),
    Target("repro.stabilization.convergence", "certain_convergence",
           "stabilization.convergence"),
    Target("repro.markov.builder", "build_chain", "markov.build_chain",
           _chain),
    Target("repro.markov.lumping", "lumped_synchronous_transformed_chain",
           "markov.lumping"),
    Target("repro.markov.chain", "MarkovChain.mark", "markov.chain.mark"),
    Target("repro.markov.hitting", "absorption_probabilities",
           "markov.hitting"),
    Target("repro.markov.hitting", "expected_hitting_times",
           "markov.hitting"),
    Target("repro.markov.hitting", "hitting_summary", "markov.hitting"),
    Target("repro.markov.parametric", "ParametricChain.__init__",
           "markov.parametric.build"),
    Target("repro.markov.parametric", "_HittingStructure.__init__",
           "markov.parametric.build"),
    Target("repro.markov.parametric", "_HittingStructure.solve",
           "markov.parametric.solve"),
    Target("repro.analysis.bias", "synthesize_optimal_bias", "analysis.bias"),
    Target("repro.analysis.bias", "certified_lower_bound", "analysis.bias"),
    Target("repro.markov.mdp", "build_mdp", "markov.mdp"),
    Target("repro.markov.mdp", "MarkovDecisionProcess.reachability",
           "markov.mdp"),
    Target("repro.markov.mdp", "MarkovDecisionProcess.expected_hitting_times",
           "markov.mdp"),
    Target("repro.markov.sweep_engine", "SweepRunner.run", "markov.sweep",
           _sweep),
    Target("repro.markov.batch", "BatchEngine.run", "markov.batch"),
    Target("repro.markov.batch", "BatchEngine.run_with_fault",
           "markov.batch"),
    Target("repro.markov.montecarlo", "MonteCarloRunner.estimate",
           "markov.montecarlo"),
    Target("repro.markov.montecarlo", "MonteCarloRunner.batch",
           "markov.montecarlo"),
    Target("repro.experiments.base", "Experiment.run", "experiments.run",
           _experiment),
    Target("repro.campaign.runner", "run_campaign", "campaign.run"),
    Target("repro.campaign.runner", "store_report", "store.report"),
    Target("repro.store.columnar", "ResultStore.verify", "store.verify"),
)

#: Entry points of the serving tier, wrapped only in the server process
#: so its spans split into request kinds and dispatched batches.
SERVING_TARGETS = (
    Target("repro.serving.service", "SweepService.verdict", "serving.verdict"),
    Target("repro.serving.service", "SweepService.bias_sweep", "serving.bias"),
    Target("repro.serving.jobs", "AdmissionDispatcher._execute",
           "serving.dispatch"),
)

#: Per-layer metrics, in ``BENCHMARK.json`` order: ``(name, unit)``.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("core.compile_tables.self_s", "s"),
    ("core.compile_tables.calls", "count"),
    ("core.compile_tables.entries", "count"),
    ("stabilization.explore.self_s", "s"),
    ("stabilization.explore.calls", "count"),
    ("stabilization.explore.states", "count"),
    ("stabilization.explore.edges", "count"),
    ("stabilization.classify.self_s", "s"),
    ("stabilization.scc.self_s", "s"),
    ("stabilization.convergence.self_s", "s"),
    ("markov.build_chain.self_s", "s"),
    ("markov.build_chain.calls", "count"),
    ("markov.build_chain.states", "count"),
    ("markov.build_chain.nnz", "count"),
    ("markov.lumping.self_s", "s"),
    ("markov.chain.mark.self_s", "s"),
    ("markov.hitting.self_s", "s"),
    ("markov.hitting.calls", "count"),
    ("markov.parametric.build.self_s", "s"),
    ("markov.parametric.solve.self_s", "s"),
    ("markov.parametric.solve.points", "count"),
    ("analysis.bias.self_s", "s"),
    ("markov.mdp.self_s", "s"),
    ("markov.sweep.self_s", "s"),
    ("markov.sweep.points", "count"),
    ("markov.sweep.trial_steps", "count"),
    ("markov.sweep.steps_per_s", "1/s"),
    ("markov.sweep.fused_frac", "ratio"),
    ("markov.batch.self_s", "s"),
    ("markov.montecarlo.self_s", "s"),
    *((f"experiments.{eid}.wall_s", "s") for eid in EXPERIMENT_IDS),
    ("serving.sweep.latency_p50_ms", "ms"),
    ("serving.bias.latency_p50_ms", "ms"),
    ("serving.verdict.latency_p50_ms", "ms"),
    ("serving.dispatch.points_per_batch", "ratio"),
    ("serving.cache.verdicts.hit_ratio", "ratio"),
    ("serving.cache.parametric.hit_ratio", "ratio"),
    ("serving.runner.evictions", "count"),
    ("campaign.shards", "count"),
    ("campaign.executed", "count"),
    ("campaign.retries", "count"),
    ("campaign.worker_deaths", "count"),
    ("campaign.quarantined", "count"),
    ("campaign.in_process", "count"),
    ("store.bytes_written", "bytes"),
    ("store.verify_s", "s"),
    ("store.report_s", "s"),
    ("store.resume_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.layers_self_s", "s"),
    ("trace.remainder_s", "s"),
    ("trace.spans", "count"),
)


def layer_metrics(spans: list[Span], measured: dict[str, float]) -> dict:
    """Reduce spans (plus directly measured values) to every metric in
    :data:`PER_LAYER`."""
    stats = by_name(spans)
    empty = LayerStats()
    values: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        entry = stats.get(layer, empty)
        if field == "self_s":
            values[metric] = entry.self_s
        elif field == "calls":
            values[metric] = entry.calls
        elif field in entry.attrs:
            values[metric] = entry.attrs[field]
        else:
            values[metric] = 0
    sweep = stats.get("markov.sweep", empty)
    if sweep.calls:
        values["markov.sweep.points"] = sweep.attrs["points"]
        values["markov.sweep.fused_frac"] = (
            sweep.attrs["fused_points"] / sweep.attrs["points"]
        )
        values["markov.sweep.steps_per_s"] = (
            sweep.attrs["trial_steps"] / sweep.total_s
        )
    values["markov.parametric.solve.points"] = stats.get(
        "markov.parametric.solve", empty
    ).calls
    for span in spans:
        if span.name == "experiments.run":
            key = f"experiments.{span.attrs['id']}.wall_s"
            values[key] = values.get(key, 0) + span.duration
    values.update(measured)
    return {
        metric: {"value": values[metric], "unit": unit}
        for metric, unit in PER_LAYER
    }
