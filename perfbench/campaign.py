"""One benchmark campaign, run in a fresh process by ``run.py``.

    python3 perfbench/campaign.py --workload NAME --corpus-seed N
        --scratch DIR [--trace --spans FILE]

Imports ``repro`` from the checkout's ``src/``, builds the kernel
preset, boots one warm-up ``Machine``, then times one whole
``Kit(config).run()`` — corpus generation to aggregated reports — and
checks its outputs.  Prints one JSON object on its last stdout line.
With ``--trace`` the layers' entry points are wrapped first and the
spans are written as JSONL to ``--spans`` after the timed region.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import sys
import time

import layers
import measure
from spans import Tracer
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _rss_mib(who: int) -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(who).ru_maxrss / 1024.0


def fingerprint(reports, classify_all) -> str:
    """Digest of the ordered (sender hash, receiver hash, labels) list."""
    rows = [[r.case.sender.hash_hex, r.case.receiver.hash_hex,
             sorted(classify_all(r))] for r in reports]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--corpus-seed", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro import Kit, Machine, MachineConfig
    from repro.core import pipeline
    from repro.core.oracle import (FALSE_POSITIVE, REAL_BUG_LABELS,
                                   UNDER_INVESTIGATION, classify_all)

    workload = WORKLOADS[args.workload]
    flags = workload.preset()
    Machine(MachineConfig(bugs=flags))  # warm-up boot
    config = workload.config(args.corpus_seed, flags, args.scratch)

    tracer = root = None
    if args.trace:
        tracer = Tracer(f"{args.workload}-s{args.corpus_seed}-{os.getpid()}")
        layers.install(tracer)
        root = tracer.open("campaign")

    # Keep the generated corpus for its digest (shows the seed reached
    # it); the tap only stores the return value.
    corpora = []
    build_corpus = pipeline.build_corpus

    def tapped_build_corpus(*a, **k):
        corpus = build_corpus(*a, **k)
        corpora.append(corpus)
        return corpus

    pipeline.build_corpus = tapped_build_corpus

    ready = time.monotonic()
    result = Kit(config).run()
    wall = time.monotonic() - ready

    pipeline.build_corpus = build_corpus
    if tracer is not None:
        tracer.close(root)
        tracer.uninstall()

    stats = dataclasses.asdict(result.stats)
    injected = workload.injected(flags)
    found = result.bugs_found()
    problems = []
    known_labels = set(REAL_BUG_LABELS) | {FALSE_POSITIVE, UNDER_INVESTIGATION}
    for report in result.reports:
        labels = classify_all(report)
        if not labels or not labels <= known_labels:
            problems.append(f"report with unknown oracle labels: "
                            f"{sorted(labels)}")
    if not found <= injected:
        problems.append(f"bugs {sorted(found - injected)} not injected")
    if args.corpus_seed == DEFAULT_SEED and not workload.expected <= found:
        problems.append(f"expected bugs {sorted(workload.expected - found)} "
                        f"lost on the default seed")
    if sum(stats["outcomes"].values()) != stats["cases_total"]:
        problems.append(f"outcomes {stats['outcomes']} do not add up to "
                        f"{stats['cases_total']} cases")
    fp_groups = sum(
        1 for members in result.groups.agg_rs.values()
        if any(FALSE_POSITIVE in classify_all(r) for r in members))
    corpus_hashes = [p.hash_hex for p in corpora[0]]

    record = {
        "workload": args.workload,
        "corpus_seed": args.corpus_seed,
        "corpus_digest": hashlib.sha256(
            "".join(corpus_hashes).encode()).hexdigest()[:16],
        "ready": ready,
        "campaign_s": wall,
        "peak_rss_mib": _rss_mib(resource.RUSAGE_SELF),
        "child_rss_mib": _rss_mib(resource.RUSAGE_CHILDREN),
        "stats": stats,
        "bugs_found": sorted(found),
        "injected": sorted(injected),
        "fp_groups": fp_groups,
        "agg_rs_groups": result.groups.agg_rs_count,
        "reports": len(result.reports),
        "fingerprint": fingerprint(result.reports, classify_all),
        "problems": problems,
    }
    if tracer is not None:
        spans = tracer.spans
        record["layers"] = layers.layer_metrics(spans, stats,
                                                result.groups.agg_rs_count)
        record["tails"] = {
            metric: [measure.tail_percentile(len(durations)), len(durations)]
            for metric, durations in layers.tail_samples(spans).items()}
        if workload.in_process:
            problems.extend(layers.span_checks(spans, stats))
        record["span_count"] = len(spans)
        if args.spans:
            tracer.write_jsonl(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
