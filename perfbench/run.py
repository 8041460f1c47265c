"""Whole-campaign KIT benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload

Runs whole ``Kit(CampaignConfig(...)).run()`` campaigns of one workload
(see BENCHMARK.md), each in a fresh process, for about ``--seconds``
seconds.  The run cycles through the workload's corpus seeds ``--seed``,
``--seed + 10007``, ``--seed + 20014``, ... and comes back to the
first, so every run repeats at least one corpus and can check that its
reports repeat too.  Every campaign's outputs are checked.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced campaigns on the ``--seed`` corpus and prints the
per-layer metrics from the traced ones plus the tracing overhead.  The
last stdout line is one JSON object: ``correct``, ``attempted`` and
``failed`` (test cases), and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import layers
import measure
import schema
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
#: A run stops starting campaigns after this many seconds, whatever
#: ``--seconds`` says, so it always exits within the 180 s it is allowed.
HARD_LIMIT_S = 120.0
CHILD_TIMEOUT_S = 170.0
PAPER_CORPUS = 98853


def run_child(workload: str, corpus_seed: int, trace: bool, tag: str,
              deadline: float) -> Dict[str, Any]:
    """One campaign in a fresh process; returns its record (``error``
    set if it failed).  ``setup_s`` is measured from the spawn."""
    scratch = os.path.join(OUT, "tmp", tag)
    os.makedirs(scratch, exist_ok=True)
    command = [sys.executable, os.path.join(HERE, "campaign.py"),
               "--workload", workload, "--corpus-seed", str(corpus_seed),
               "--scratch", scratch]
    if trace:
        spans_dir = os.path.join(OUT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--trace", "--spans",
                    os.path.join(spans_dir, f"{workload}-s{corpus_seed}.jsonl")]
    env = dict(os.environ, TMPDIR=scratch)
    spawned = time.monotonic()
    child = subprocess.Popen(command, cwd=HERE, env=env, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             start_new_session=True)
    try:
        out, err = child.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        out, err = child.communicate()
        err += "\ncampaign timed out"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    finished = time.monotonic()
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        return {"corpus_seed": corpus_seed, "traced": trace,
                "error": err.strip().splitlines()[-1:] or ["no output"],
                "elapsed": finished - spawned}
    record = json.loads(lines[-1])
    record["traced"] = trace
    record["setup_s"] = record["ready"] - spawned
    record["elapsed"] = finished - spawned
    return record


def run_campaigns(workload: str, seed: int, seconds: float,
                  trace: bool) -> List[Dict[str, Any]]:
    """Campaigns until the time is spent.  Untraced, each step is one
    campaign on the next corpus.  Traced, each step is an untraced +
    traced pair on the ``--seed`` corpus alone, so the per-layer counts
    describe one corpus and repeat exactly from run to run."""
    seeds = (seed,) if trace else WORKLOADS[workload].corpus_seeds(seed)
    start = time.monotonic()
    deadline = start + CHILD_TIMEOUT_S
    records: List[Dict[str, Any]] = []
    steps: List[float] = []
    # Without tracing, one more campaign than corpora, so one repeats.
    minimum = 1 if trace else len(seeds) + 1
    step = 0
    while True:
        corpus_seed = seeds[step % len(seeds)]
        began = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            records.append(run_child(
                workload, corpus_seed, traced,
                f"{workload}-{seed}-{len(records)}", deadline))
        steps.append(time.monotonic() - began)
        step += 1
        elapsed = time.monotonic() - start
        if any("error" in r for r in records) or elapsed > HARD_LIMIT_S:
            break
        if step >= minimum and elapsed + statistics.median(steps) > seconds:
            break
    return records


def check(records: List[Dict[str, Any]]) -> List[str]:
    """Cross-campaign checks; per-campaign problems come from the child."""
    problems = []
    by_seed: Dict[int, set] = {}
    for record in records:
        if "error" in record:
            problems.append(f"campaign on corpus seed {record['corpus_seed']} "
                            f"failed: {' '.join(record['error'])}")
            continue
        problems.extend(f"corpus seed {record['corpus_seed']}: {p}"
                        for p in record["problems"])
        by_seed.setdefault(record["corpus_seed"], set()).add(
            record["fingerprint"])
    for corpus_seed, prints in sorted(by_seed.items()):
        if len(prints) > 1:
            problems.append(f"corpus seed {corpus_seed}: report fingerprints "
                            f"differ across campaigns: {sorted(prints)}")
    return problems


def case_counts(records: List[Dict[str, Any]]) -> tuple:
    """``(attempted, failed)`` test cases.  A campaign that raised or
    failed its check counts every case as failed; its case count is
    taken from a campaign on the same corpus, else counted as one."""
    totals = {r["corpus_seed"]: r["stats"]["cases_total"]
              for r in records if "error" not in r}
    attempted = failed = 0
    for record in records:
        if "error" in record:
            cases = totals.get(record["corpus_seed"], 1)
            attempted += cases
            failed += cases
            continue
        stats = record["stats"]
        cases = stats["cases_total"]
        attempted += cases
        if record["problems"]:
            failed += cases
        else:
            failed += (stats["outcomes"].get("infra_failed", 0)
                       + stats["outcomes"].get("poisoned", 0))
    return max(attempted, 1), failed


def per_corpus(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The first good campaign of each corpus seed (outputs are the
    same for every campaign on one corpus; the check enforces it)."""
    first: Dict[int, Dict[str, Any]] = {}
    for record in records:
        if "error" not in record:
            first.setdefault(record["corpus_seed"], record)
    return list(first.values())


def end_to_end(records: List[Dict[str, Any]]) -> Dict[str, float]:
    """Medians over the untraced campaigns (per corpus for
    ``fp_groups``), except ``bug_recall``: the share of (corpus,
    injected bug) pairs found, i.e. the mean recall over the corpora."""
    good = [r for r in records if "error" not in r and not r["traced"]]
    corpora = per_corpus(good)
    if not good:
        return {}
    return {
        "campaign_s": measure.median([r["campaign_s"] for r in good]),
        "programs_per_s": measure.median(
            [r["stats"]["corpus_size"] / r["campaign_s"] for r in good]),
        "bug_recall": statistics.mean(
            len(r["bugs_found"]) / len(r["injected"]) for r in corpora),
        "fp_groups": measure.median([r["fp_groups"] for r in corpora]),
        "peak_rss_mib": measure.median([r["peak_rss_mib"] for r in good]),
        "setup_s": measure.median([r["setup_s"] for r in good]),
    }


def per_layer(records: List[Dict[str, Any]]) -> Dict[str, float]:
    """Median of every per-layer metric over the traced campaigns, plus
    the tracing overhead: traced minus untraced ``campaign_s`` of the
    pairs run on the same corpus."""
    traced = [r for r in records if "error" not in r and r["traced"]]
    if not traced:
        return {}
    metrics = {name: measure.median([r["layers"][name] for r in traced])
               for name in traced[0]["layers"]}
    untraced = {r["corpus_seed"]: r for r in records
                if "error" not in r and not r["traced"]}
    overheads = [r["campaign_s"] - untraced[r["corpus_seed"]]["campaign_s"]
                 for r in traced if r["corpus_seed"] in untraced]
    metrics["trace.overhead_s"] = (measure.median(overheads)
                                   if overheads else 0.0)
    return metrics


def _bugs(labels) -> str:
    return ",".join(labels) or "-"


def report(name: str, seed: int, records: List[Dict[str, Any]],
           e2e: Dict[str, float], layer: Dict[str, float],
           attempted: int, failed: int, problems: List[str],
           doc: Dict[str, Any]) -> None:
    """The human-readable part of the output."""
    workload = WORKLOADS[name]
    good = [r for r in records if "error" not in r]
    untraced = [r for r in good if not r["traced"]]
    units = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    seeds = list(dict.fromkeys(r["corpus_seed"] for r in records))
    print(f"== {name}  seed {seed}  corpus seeds {seeds}  "
          f"campaigns {len(records)} "
          f"({sum(r['traced'] for r in records)} traced)")
    for record in per_corpus(good):
        print(f"   corpus seed {record['corpus_seed']}: digest "
              f"{record['corpus_digest']}, {record['stats']['cases_total']} "
              f"cases, {record['reports']} reports, bugs "
              f"{_bugs(record['bugs_found'])}, fingerprint "
              f"{record['fingerprint']}")
    print(f"   expected on seed 1: {_bugs(sorted(workload.expected))}; "
          f"known gaps: {_bugs(sorted(workload.known_gaps))}")
    if e2e:
        walls = [r["campaign_s"] for r in untraced]
        for metric in ("campaign_s", "programs_per_s", "bug_recall",
                       "fp_groups"):
            print(f"   {metric:<18} {e2e[metric]:>12.4f} {units[metric]}")
        print(f"   {'':<18} campaign_s {measure.describe(walls)}")
        print(f"   {'failed_case_ratio':<18} {failed / attempted:>12.4f} "
              f"ratio ({failed}/{attempted} cases)")
        print(f"   {'peak_rss_mib':<18} {e2e['peak_rss_mib']:>12.1f} MiB")
        if not workload.in_process:
            print(f"   {'':<18} largest shard child "
                  f"{max(r['child_rss_mib'] for r in untraced):.1f} MiB")
        print(f"   {'setup_s':<18} {e2e['setup_s']:>12.4f} s "
              f"({measure.describe([r['setup_s'] for r in untraced])})")
        stages = {k: measure.median([layers.stage_metrics(r['stats'])[k]
                                     for r in untraced])
                  for k in layers.stage_metrics(untraced[0]["stats"])}
        print("   stages (median s): " + "  ".join(
            f"{k.split('.')[1][:-2]} {v:.3f}" for k, v in stages.items()))
        if name == "df-ia-5k":
            _projection(untraced, stages)
    if layer:
        tails = next(r["tails"] for r in reversed(good) if r["traced"])
        print("   per-layer (median over traced campaigns):")
        for metric, unit in layers.UNITS.items():
            value = layer.get(metric, 0.0)
            note = ""
            if metric in tails:
                p, n = tails[metric]
                note = f"  (p{p:g} of n={n})" if p else f"  (n={n})"
            print(f"     {metric:<32} {value:>14.4f} {unit}{note}")
        if e2e:
            print(f"   tracing overhead: {layer['trace.overhead_s']:+.3f} s "
                  f"({layer['trace.overhead_s'] / e2e['campaign_s']:+.1%} "
                  f"of campaign_s)")
    print("   output check: " + ("ok" if not problems else
                                  "FAILED\n     " + "\n     ".join(problems)))


def _projection(untraced: List[Dict[str, Any]],
                stages: Dict[str, float]) -> None:
    """Informational: every stage at the paper's corpus size, linear in
    this workload's per-program rate."""
    corpus = untraced[0]["stats"]["corpus_size"]
    wall = measure.median([r["campaign_s"] for r in untraced])
    rows = {"generation+glue": wall - sum(stages.values())}
    rows.update({k.split(".")[1][:-2]: v for k, v in stages.items()})
    scale = PAPER_CORPUS / corpus
    print(f"   projection to {PAPER_CORPUS:,} programs (linear per-program "
          f"rate, informational): " + ", ".join(
              f"{k} {v * scale:.0f} s" for k, v in rows.items())
          + f"; total {wall * scale:.0f} s on one core (the corpus gate's "
          f"28 s figure omits profiling; execution saturates in practice, "
          f"so its figure is an upper bound)")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 doc: Dict[str, Any]) -> str:
    records = run_campaigns(name, seed, seconds, trace)
    problems = check(records)
    attempted, failed = case_counts(records)
    e2e = end_to_end(records)
    layer = per_layer(records) if trace else {}
    report(name, seed, records, e2e, layer, attempted, failed, problems, doc)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({"records": records, "end_to_end": e2e,
                   "per_layer": layer, "problems": problems}, handle)
    section = "per_layer" if trace else "end_to_end"
    wanted = [m["name"] for m in doc[section]]
    values = layer if trace else e2e
    correct = not problems and all(name in values for name in wanted)
    metrics = {metric: values.get(metric, 0.0) for metric in wanted}
    return schema.result_line(correct, attempted, failed, metrics, doc,
                              section)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro in this checkout; nothing to measure",
              file=sys.stderr)
        return 2
    try:
        doc = schema.load(os.path.join(ROOT, "BENCHMARK.json"))
    except (OSError, ValueError) as error:
        print(f"perfbench: bad BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    listed = [w["name"] for w in doc["workloads"]]
    names = listed if args.workload == "all" else [args.workload]
    for name in names:
        if name not in listed or name not in WORKLOADS:
            print(f"perfbench: unknown workload {name!r}; have {listed}",
                  file=sys.stderr)
            return 2
    seconds = args.seconds if args.seconds is not None else doc["run_seconds"]
    lines = [run_workload(name, args.seed, seconds, bool(args.trace), doc)
             for name in names]
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
