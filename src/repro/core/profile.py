"""Per-program kernel profiling (paper §4.1.1, §6.5).

"KIT executes each test program four times… KIT executes each test
program twice in both the sender and receiver container.  In one
execution KIT collects the system call trace and in another execution it
collects the execution trace… Two trace collections have to run
separately as collecting execution traces using instrumentation may
affect the system call trace."

Here one traced run per container collects both traces, so each program
is profiled in two runs instead of four.  The separation guards against
real GCC instrumentation perturbing syscall results; the simulated
:class:`~repro.kernel.ktrace.KernelTracer` only observes — it appends
accesses to its own buffer and never writes kernel state — so the
syscall trace of a traced run is field-for-field the plain run's.
``tests/core/test_profile_fidelity.py`` holds that claim: on every
Table-3 kernel and the race kernel, with jump labels on and off, it
compares traced records against a plain reference run and fails if a
tracer ever perturbs a result.

Every run restores the VM snapshot first, so profiles are functions of
the program alone (the stable execution environment of §4.1.1).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from ..corpus.program import TestProgram
from ..faults.plan import FaultPlan, call_with_fault_retries
from ..kernel.ktrace import KernelTracer
from ..vm.cluster import run_distributed
from ..vm.executor import CallAccesses, SyscallRecord
from ..vm.machine import RECEIVER, SENDER, Machine, MachineConfig


@dataclass
class ContainerProfile:
    """One container's view of a program: syscall trace + memory accesses."""

    records: List[Optional[SyscallRecord]]
    accesses: List[Optional[CallAccesses]]

    def total_accesses(self) -> int:
        return sum(len(a) for a in self.accesses if a is not None)


@dataclass
class ProgramProfile:
    """Both containers' profiles of one test program."""

    index: int
    program: TestProgram
    sender: ContainerProfile
    receiver: ContainerProfile


class Profiler:
    """Profiles a program with one traced run in each container.

    Two runs per program, not the paper's four: the syscall trace and
    the execution trace come from the same traced run, which is safe
    because the simulated tracer does not perturb syscall results (see
    the module docstring and ``tests/core/test_profile_fidelity.py``).
    """

    def __init__(self, machine: Machine):
        self._machine = machine
        self.runs_executed = 0

    def profile(self, program: TestProgram, index: int = 0) -> ProgramProfile:
        return ProgramProfile(
            index=index,
            program=program,
            sender=self._profile_container(SENDER, program),
            receiver=self._profile_container(RECEIVER, program),
        )

    def _profile_container(self, container: str,
                           program: TestProgram) -> ContainerProfile:
        machine = self._machine
        # One traced run yields both the syscall trace and the accesses.
        machine.reset()
        machine.attach_tracer(KernelTracer())
        traced = machine.run(container, program, profile=True)
        machine.attach_tracer(None)
        self.runs_executed += 1
        return ContainerProfile(records=traced.records,
                                accesses=traced.accesses or [])

    def profile_corpus(self, corpus: Sequence[TestProgram]) -> List[ProgramProfile]:
        return [self.profile(program, index) for index, program in enumerate(corpus)]


def iter_profiles_batched(profiler: Any, corpus: Iterable[TestProgram],
                          batch_size: int = 64) -> Iterator[ProgramProfile]:
    """Profile a program stream batch-wise, executions ordered by hash.

    Yields profiles in corpus order while, inside each batch, the actual
    profiling runs happen in ascending program-hash order — consecutive
    executions of hash-adjacent programs ride the sender-state cache and
    land in the same :class:`~repro.core.profile_store.ProfileStore`
    fan-out shard.  Safe because each profiling run restores the
    snapshot first: a profile is a pure function of the program, so
    execution order cannot change its content.  Peak memory is one
    batch of profiles, which is what lets a streamed corpus feed the
    columnar access index without materializing the profile list.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    batch: List[Tuple[int, TestProgram]] = []

    def drain() -> Iterator[ProgramProfile]:
        by_slot: Dict[int, ProgramProfile] = {}
        order = sorted(range(len(batch)),
                       key=lambda slot: batch[slot][1].hash_hex)
        for slot in order:
            index, program = batch[slot]
            by_slot[slot] = profiler.profile(program, index)
        for slot in range(len(batch)):
            yield by_slot[slot]
        batch.clear()

    for index, program in enumerate(corpus):
        batch.append((index, program))
        if len(batch) >= batch_size:
            yield from drain()
    if batch:
        yield from drain()


def profile_corpus_distributed(
        machine_config: MachineConfig, corpus: Sequence[TestProgram],
        workers: int, profile_dir: Optional[str] = None,
        faults: Optional[FaultPlan] = None,
) -> Tuple[List[ProgramProfile], List[Any], List[Machine]]:
    """Profile *corpus* on a cluster worker pool (one job per program).

    Profiles are pure functions of (program, snapshot), and every worker
    restores the same snapshot, so fanning the corpus out over the pool
    is semantics-preserving — each worker lazily builds its own
    :class:`Profiler` (or :class:`~repro.core.profile_store
    .CachingProfiler` when *profile_dir* is set), keyed by the worker id
    the cluster stamps on its machine.  Results come back in corpus
    order regardless of scheduling.

    Returns ``(profiles, profilers, machines)`` so the caller can sum
    run counts and fold restore telemetry into the campaign stats.
    """
    profilers: Dict[int, Any] = {}
    lock = threading.Lock()

    def make_profiler(machine: Machine) -> Any:
        if profile_dir is not None:
            from .profile_store import CachingProfiler

            return CachingProfiler(machine, profile_dir)
        return Profiler(machine)

    def runner(machine: Machine, payload: Tuple[int, TestProgram]
               ) -> ProgramProfile:
        index, program = payload
        with lock:
            profiler = profilers.get(machine.cluster_worker_id)
            if profiler is None:
                profiler = make_profiler(machine)
                profilers[machine.cluster_worker_id] = profiler
        # Profiles feed generation, so there is no graceful degradation
        # here: an injected fault retries from a fresh restore (pure
        # function of the snapshot), and exhaustion fails the job loudly.
        return call_with_fault_retries(faults, profiler.profile, program,
                                       index, context=f"profile {index}")

    machines: List[Machine] = []
    job_results = run_distributed(machine_config, list(enumerate(corpus)),
                                  runner, workers=workers,
                                  machines_out=machines, faults=faults,
                                  max_job_retries=(faults.max_job_retries
                                                   if faults else 0))
    profiles: List[ProgramProfile] = []
    for job in job_results:
        if job.error is not None:
            raise RuntimeError(
                f"profiling failed on job {job.job_id}: {job.error}")
        profiles.append(job.outcome)
    with lock:
        return profiles, list(profilers.values()), machines
