"""The benchmark's workloads: whole KIT campaigns, one config each.

Every workload is a :class:`Workload` whose :meth:`Workload.config`
turns a corpus seed into a ``CampaignConfig``.  Nothing here imports
``repro`` at module level: the orchestrator (``run.py``) never imports
the program under test, only the per-campaign child processes do.

``expected`` is the bug set a campaign on the default corpus seed
(:data:`DEFAULT_SEED`) finds, and ``known_gaps`` the injected bugs it
misses: #7 on both ``linux_5_13`` workloads (ROADMAP item 3) and T2 on
``interleave-race`` (never reached from a generated corpus).  On that
seed the output check requires ``expected`` to be found, so a lost bug
fails the check while a closed gap passes.  Other corpora miss or find
bugs 3, 5, 6, 7 and 9, or T1 and T3, from corpus to corpus, so there
recall is measured by ``bug_recall`` rather than checked.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import FrozenSet, Tuple

#: A run's corpora are ``seed + j * SEED_STRIDE`` for ``j < corpora``:
#: the first is the ``--seed`` itself, the rest are far enough apart
#: that runs with nearby seeds share no corpus.
SEED_STRIDE = 10007
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    kernel: str                      # "linux_5_13" | "race_kernel"
    strategy: str
    corpus_size: int
    #: Distinct corpora per run.  Recall and campaign time vary from
    #: corpus to corpus, so a run averages over as many as its time
    #: allows; ``df-ia-5k`` campaigns are long enough that three fill it.
    corpora: int
    workers: int = 0
    shard_mode: str = "thread"
    index_backend: str = "memory"
    interleave: bool = False
    stored: bool = False
    expected: FrozenSet[str] = field(default_factory=frozenset)
    known_gaps: FrozenSet[str] = field(default_factory=frozenset)

    @property
    def in_process(self) -> bool:
        return self.workers == 0

    def corpus_seeds(self, seed: int) -> Tuple[int, ...]:
        return tuple(seed + j * SEED_STRIDE for j in range(self.corpora))

    def preset(self):
        """The kernel preset's bug flags (imports ``repro``)."""
        from repro.kernel import bugs

        return getattr(bugs, self.kernel)()

    def injected(self, flags) -> FrozenSet[str]:
        """Oracle labels of the bugs *flags* injects."""
        from repro.kernel.bugs import RACE_BUGS, TABLE2_BUGS

        table = {str(n): row[0] for n, row in TABLE2_BUGS.items()}
        table.update({label: row[0] for label, row in RACE_BUGS.items()})
        return frozenset(label for label, flag in table.items()
                         if getattr(flags, flag))

    def config(self, corpus_seed: int, flags, scratch: str):
        """The campaign config; *scratch* receives every on-disk file."""
        from repro import CampaignConfig, MachineConfig

        return CampaignConfig(
            machine=MachineConfig(bugs=flags),
            corpus_size=self.corpus_size,
            corpus_seed=corpus_seed,
            strategy=self.strategy,
            workers=self.workers,
            shard_mode=self.shard_mode,
            index_backend=self.index_backend,
            interleave=self.interleave,
            store_dir=os.path.join(scratch, "store") if self.stored else None,
        )


#: Why each workload exists: BENCHMARK.md, and each ``why`` in
#: BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="df-ia-5k",
        kernel="linux_5_13", strategy="df-ia", corpus_size=5000, corpora=3,
        expected=frozenset("12345689"), known_gaps=frozenset("7"),
    ),
    Workload(
        name="interleave-race",
        kernel="race_kernel", strategy="df-st-2", corpus_size=600, corpora=8,
        interleave=True,
        expected=frozenset({"T1", "T3"}), known_gaps=frozenset({"T2"}),
    ),
    Workload(
        name="shards-columnar-2k",
        kernel="linux_5_13", strategy="df-ia", corpus_size=2000, corpora=6,
        workers=2, shard_mode="process", index_backend="columnar",
        stored=True,
        expected=frozenset("12345689"), known_gaps=frozenset("7"),
    ),
)}
