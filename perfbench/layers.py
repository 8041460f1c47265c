"""Per-layer entry points and the metrics derived from their spans.

:func:`install` wraps the public entry point of every layer listed in
BENCHMARK.md; :func:`layer_metrics` turns one traced campaign's spans
plus its ``CampaignStats`` into the per-layer metrics.  Counters the
pipeline already keeps (restore seconds per stage, cache hits, shard
telemetry) are read from the stats; everything else comes from spans.

Spans recorded inside forked shard processes never reach the parent,
so on a process-shard campaign the execution-side span metrics cover
only the calls the parent makes (diagnosis) and the stats counters
carry the rest.
"""

from __future__ import annotations

import importlib
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

import measure
from spans import NameSummary, Span, Tracer, summarize

PROFILE = "Profiler.profile"
RESET = "Machine.reset"
RUN_PLAIN = "Machine.run/plain"
RUN_TRACED = "Machine.run/traced"


def _run_name(args, kwargs) -> str:
    profile = kwargs.get("profile", args[3] if len(args) > 3 else False)
    return RUN_TRACED if profile else RUN_PLAIN


def _accesses(args, kwargs, result) -> int:
    return sum(len(calls) for calls in (result.accesses or ()) if calls)


def _jobs(args, kwargs, result) -> int:
    return len(getattr(result, "results", result))


#: (span name, module, class or None, attribute, item counter).
ENTRY_POINTS: Tuple[Tuple[Any, str, Optional[str], str, Any], ...] = (
    ("corpus.build_corpus", "repro.corpus.generator", None, "build_corpus",
     None),
    ("Machine.__init__", "repro.vm.machine", "Machine", "__init__", None),
    (RESET, "repro.vm.machine", "Machine", "reset", None),
    (_run_name, "repro.vm.machine", "Machine", "run", _accesses),
    (PROFILE, "repro.core.profile", "Profiler", "profile", None),
    ("TestCaseGenerator.generate", "repro.core.generation",
     "TestCaseGenerator", "generate", None),
    ("Detector.check_case", "repro.core.detection", "Detector", "check_case",
     None),
    ("TestCaseRunner.run_with_sender", "repro.core.execution",
     "TestCaseRunner", "run_with_sender", None),
    ("TestCaseRunner.receiver_alone", "repro.core.execution",
     "TestCaseRunner", "receiver_alone", None),
    ("ScheduleExplorer.explore", "repro.core.schedule", "ScheduleExplorer",
     "explore", None),
    ("NondetAnalyzer.nondet_paths", "repro.core.nondet", "NondetAnalyzer",
     "nondet_paths", None),
    ("build_trace_ast", "repro.core.trace_ast", None, "build_trace_ast", None),
    ("syscall_trace_cmp", "repro.core.trace_ast", None, "syscall_trace_cmp",
     None),
    ("Diagnoser.diagnose", "repro.core.diagnosis", "Diagnoser", "diagnose",
     None),
    ("aggregate", "repro.core.aggregation", None, "aggregate", None),
    ("run_distributed", "repro.vm.cluster", None, "run_distributed", _jobs),
    ("run_sharded", "repro.vm.shardpool", None, "run_sharded", _jobs),
    ("CampaignJournal.append", "repro.store.journal", "CampaignJournal",
     "append", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every entry point (imports the ``repro`` modules first, so
    every by-name import of a wrapped function is already bound)."""
    importlib.import_module("repro.core.pipeline")
    for name, module, cls, attr, items in ENTRY_POINTS:
        mod = importlib.import_module(module)
        if cls is None:
            if not tracer.patch_function(module, attr, name, items):
                raise RuntimeError(f"{module}.{attr} has no binding")
        else:
            tracer.patch_method(getattr(mod, cls), attr, name, items)


#: Per-layer metric -> unit, in report order.
UNITS: Dict[str, str] = {
    "stage.profile_s": "s", "stage.analysis_s": "s",
    "stage.execution_s": "s", "stage.diagnosis_s": "s",
    "corpus.gen_s": "s",
    "machine.boots": "count", "machine.boot_s": "s",
    "profile.programs": "count", "profile.runs_per_program": "runs",
    "profile.self_s": "s", "profile.program_p50_ms": "ms",
    "profile.program_tail_ms": "ms",
    "restore.count": "count", "restore.p50_us": "us", "restore.tail_us": "us",
    "restore.profile_s": "s", "restore.execution_s": "s",
    "restore.diagnosis_s": "s", "restore.segments_skipped_ratio": "ratio",
    "run.plain_count": "count", "run.plain_s": "s",
    "run.traced_count": "count", "run.traced_s": "s",
    "ktrace.accesses": "count", "ktrace.ns_per_access": "ns",
    "pairing.self_s": "s", "pairing.flows": "count",
    "pairing.overlap_addresses": "count", "pairing.clusters": "count",
    "pairing.cases": "count", "pairing.case_cluster_ratio": "ratio",
    "index.points": "count", "index.bytes": "bytes",
    "index.run_segments": "count",
    "detect.cases": "count", "detect.self_s": "s",
    "detect.case_p50_ms": "ms", "detect.case_tail_ms": "ms",
    "detect.report_ratio": "ratio",
    "runner.self_s": "s", "sender_cache.hit_ratio": "ratio",
    "baseline.hit_ratio": "ratio", "sender_cache.bytes": "bytes",
    "schedule.cases": "count", "schedule.executed": "count",
    "schedule.self_s": "s", "schedule.witness_ratio": "ratio",
    "nondet.runs": "count", "nondet.self_s": "s",
    "nondet.cache_hit_ratio": "ratio",
    "ast.compares": "count", "ast.self_s": "s",
    "diagnosis.reports": "count", "diagnosis.reruns": "count",
    "diagnosis.self_s": "s", "diagnosis.prefix_reuse_ratio": "ratio",
    "aggregate.self_s": "s", "aggregate.agg_rs_groups": "count",
    "cluster.jobs": "count", "cluster.s": "s",
    "shards.spawned": "count", "shards.died": "count",
    "shards.steal_grant_ratio": "ratio", "shards.jobs_stolen": "count",
    "shm.bytes": "bytes",
    "journal.appends": "count", "journal.self_s": "s",
    "journal.fsync_degraded": "count",
    "trace.overhead_s": "s",
}

#: Tail metrics and the durations they summarize, for the report line
#: naming which percentile the sample supported.
TAILS = {"profile.program_tail_ms": PROFILE, "restore.tail_us": RESET,
         "detect.case_tail_ms": "Detector.check_case"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _tail(durations: List[float]) -> float:
    __, value = measure.tail(durations)
    return value if value is not None else 0.0


def _p50(durations: List[float]) -> float:
    return measure.median(durations) if durations else 0.0


def stage_metrics(stats: Dict[str, Any]) -> Dict[str, float]:
    """Stage seconds the pipeline records on every campaign."""
    return {
        "stage.profile_s": stats["profile_seconds"],
        "stage.analysis_s": stats["analysis_seconds"],
        "stage.execution_s": stats["execution_seconds"],
        "stage.diagnosis_s": stats["diagnosis_seconds"],
    }


def layer_metrics(spans: List[Span], stats: Dict[str, Any],
                  agg_rs_groups: int) -> Dict[str, float]:
    """Every per-layer metric of one traced campaign except the tracing
    overhead, which needs an untraced twin (see ``run.py``)."""
    by_name = summarize(spans)
    empty = NameSummary()

    def get(name: str):
        return by_name.get(name, empty)

    names = {span.id: span.name for span in spans}
    profile_plain = profile_traced = 0.0
    for span in spans:
        if names.get(span.parent) != PROFILE:
            continue
        if span.name == RUN_TRACED:
            profile_traced += span.duration
        elif span.name == RUN_PLAIN:
            profile_plain += span.duration

    corpus = stats["corpus_size"]
    outcomes = stats["outcomes"]
    plain, traced = get(RUN_PLAIN), get(RUN_TRACED)
    detect = get("Detector.check_case")
    metrics = stage_metrics(stats)
    metrics.update({
        "corpus.gen_s": get("corpus.build_corpus").total_s,
        "machine.boots": get("Machine.__init__").count,
        "machine.boot_s": get("Machine.__init__").total_s,
        "profile.programs": get(PROFILE).count,
        "profile.runs_per_program": _ratio(stats["profile_runs"], corpus),
        "profile.self_s": get(PROFILE).self_s,
        "profile.program_p50_ms": _p50(get(PROFILE).durations) * 1e3,
        "profile.program_tail_ms": _tail(get(PROFILE).durations) * 1e3,
        "restore.count": stats["restore_count"],
        "restore.p50_us": _p50(get(RESET).durations) * 1e6,
        "restore.tail_us": _tail(get(RESET).durations) * 1e6,
        "restore.profile_s": stats["profile_restore_seconds"],
        "restore.execution_s": stats["execution_restore_seconds"],
        "restore.diagnosis_s": stats["diagnosis_restore_seconds"],
        "restore.segments_skipped_ratio": _ratio(
            stats["segments_skipped"],
            stats["segments_skipped"] + stats["segments_restored"]),
        "run.plain_count": plain.count,
        "run.plain_s": plain.total_s,
        "run.traced_count": traced.count,
        "run.traced_s": traced.total_s,
        "ktrace.accesses": traced.items,
        "ktrace.ns_per_access": _ratio(profile_traced - profile_plain,
                                       traced.items) * 1e9,
        "pairing.self_s": get("TestCaseGenerator.generate").self_s,
        "pairing.flows": stats["flow_count"],
        "pairing.overlap_addresses": stats["overlap_addresses"],
        "pairing.clusters": stats["cluster_count"],
        "pairing.cases": stats["cases_total"],
        "pairing.case_cluster_ratio": _ratio(stats["cases_total"],
                                             stats["cluster_count"]),
        "index.points": stats["index_points"],
        "index.bytes": stats["index_bytes"],
        "index.run_segments": stats["index_run_segments"],
        "detect.cases": detect.count,
        "detect.self_s": detect.self_s,
        "detect.case_p50_ms": _p50(detect.durations) * 1e3,
        "detect.case_tail_ms": _tail(detect.durations) * 1e3,
        "detect.report_ratio": _ratio(outcomes.get("report", 0),
                                      stats["cases_total"]),
        "runner.self_s": (get("TestCaseRunner.run_with_sender").self_s
                          + get("TestCaseRunner.receiver_alone").self_s),
        "sender_cache.hit_ratio": _ratio(
            stats["sender_cache_hits"],
            stats["sender_cache_hits"] + stats["sender_cache_misses"]),
        "baseline.hit_ratio": _ratio(
            stats["baseline_hits"],
            stats["baseline_hits"] + stats["baseline_misses"]),
        "sender_cache.bytes": stats["sender_cache_bytes"],
        "schedule.cases": get("ScheduleExplorer.explore").count,
        "schedule.executed": stats["schedules_executed"],
        "schedule.self_s": get("ScheduleExplorer.explore").self_s,
        "schedule.witness_ratio": _ratio(stats["interleaved_reports"],
                                         stats["schedules_executed"]),
        "nondet.runs": stats["nondet_runs"],
        "nondet.self_s": get("NondetAnalyzer.nondet_paths").self_s,
        "nondet.cache_hit_ratio": _ratio(
            stats["nondet_cache_hits"],
            stats["nondet_cache_hits"] + stats["nondet_cache_misses"]),
        "ast.compares": get("syscall_trace_cmp").count,
        "ast.self_s": (get("build_trace_ast").self_s
                       + get("syscall_trace_cmp").self_s),
        "diagnosis.reports": get("Diagnoser.diagnose").count,
        "diagnosis.reruns": stats["diagnosis_reruns"],
        "diagnosis.self_s": get("Diagnoser.diagnose").self_s,
        "diagnosis.prefix_reuse_ratio": _ratio(
            stats["diagnosis_prefix_reuses"], stats["diagnosis_reruns"]),
        "aggregate.self_s": get("aggregate").self_s,
        "aggregate.agg_rs_groups": agg_rs_groups,
        "cluster.jobs": get("run_distributed").items,
        "cluster.s": get("run_distributed").total_s,
        "shards.spawned": stats["shards_spawned"],
        "shards.died": stats["shards_died"],
        "shards.steal_grant_ratio": _ratio(stats["steals_granted"],
                                           stats["steals_attempted"]),
        "shards.jobs_stolen": stats["jobs_stolen"],
        "shm.bytes": stats["shm_bytes"],
        "journal.appends": get("CampaignJournal.append").count,
        "journal.self_s": get("CampaignJournal.append").self_s,
        "journal.fsync_degraded": stats["journal_fsync_degraded"],
    })
    return metrics


def tail_samples(spans: List[Span]) -> Dict[str, List[float]]:
    """Tail metric -> the span durations it summarizes."""
    wanted = {span_name: metric for metric, span_name in TAILS.items()}
    samples: Dict[str, List[float]] = {metric: [] for metric in TAILS}
    for span in spans:
        metric = wanted.get(span.name)
        if metric is not None:
            samples[metric].append(span.duration)
    return samples


def span_checks(spans: List[Span], stats: Dict[str, Any]) -> List[str]:
    """Span counts that must equal the pipeline's own counters on an
    in-process campaign; returns one message per mismatch."""
    seen = Counter(span.name for span in spans)
    return [f"{span_name} spans {seen[span_name]} != {counter} "
            f"{stats[counter]}"
            for span_name, counter in ((PROFILE, "corpus_size"),
                                       (RESET, "restore_count"))
            if seen[span_name] != stats[counter]]

