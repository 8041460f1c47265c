"""Differential guard for single-run profiling (paper §4.1.1).

The paper profiles each program in four runs: a plain run for the
syscall trace and a traced run for the execution trace, in each
container, because "collecting execution traces using instrumentation
may affect the system call trace".  :class:`~repro.core.profile.Profiler`
takes both traces from one traced run per container.  That is sound only
while the simulated tracer never perturbs a syscall result, so this
suite checks it directly: after a reset, a plain ``Machine.run`` is the
reference, and both a traced ``Machine.run`` and the records of
``Profiler.profile`` must equal it field for field — on every Table-3
kernel preset and the race kernel, with ``jump_label`` on and off, over
generated corpora for two seeds.

``TestGuardCatchesPerturbation`` shows the guard has teeth: a tracer
that writes kernel state (it advances the clock, as real instrumentation
slows a kernel) makes both comparisons fail.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Tuple

import pytest

from repro.core import profile as profile_module
from repro.core.known_bugs import SCENARIOS, TABLE3_ROWS, scenario_machine_config
from repro.core.profile import Profiler
from repro.corpus import build_corpus
from repro.kernel import KernelTracer, linux_5_13
from repro.kernel.bugs import race_kernel
from repro.vm import Machine, MachineConfig
from repro.vm.executor import SyscallRecord
from repro.vm.machine import RECEIVER, SENDER

CORPUS_SIZE = 60
SEEDS = (1, 2)
#: Every field of a SyscallRecord the pipeline reads downstream.
RECORD_FIELDS = tuple(field.name for field in
                      dataclasses.fields(SyscallRecord))

KERNELS: Dict[str, MachineConfig] = {
    row: scenario_machine_config(SCENARIOS[row]) for row in TABLE3_ROWS}
KERNELS["race"] = MachineConfig(bugs=race_kernel())


def _with_jump_label(config: MachineConfig, jump_label: bool) -> MachineConfig:
    kernel = dataclasses.replace(config.kernel, jump_label=jump_label)
    return dataclasses.replace(config, kernel=kernel)


@pytest.fixture(scope="module",
                params=[(name, jump_label) for name in KERNELS
                        for jump_label in (False, True)],
                ids=lambda param: f"{param[0]}-jl{int(param[1])}")
def machine(request) -> Machine:
    name, jump_label = request.param
    return Machine(_with_jump_label(KERNELS[name], jump_label))


@pytest.fixture(scope="module")
def corpora():
    return {seed: build_corpus(CORPUS_SIZE, seed=seed) for seed in SEEDS}


def plain_records(machine: Machine, container: str, program) -> List:
    machine.reset()
    return machine.run(container, program).records


def traced_records(machine: Machine, container: str, program,
                   make_tracer: Callable[[Machine], KernelTracer]) -> List:
    machine.reset()
    machine.attach_tracer(make_tracer(machine))
    try:
        return machine.run(container, program, profile=True).records
    finally:
        machine.attach_tracer(None)


def record_divergences(reference: List, candidate: List
                       ) -> List[Tuple[int, str]]:
    """(slot, field) for every field where *candidate* differs."""
    if len(reference) != len(candidate):
        return [(-1, "length")]
    diverging = []
    for slot, (want, got) in enumerate(zip(reference, candidate)):
        if want is None or got is None:
            if want is not got:
                diverging.append((slot, "presence"))
            continue
        diverging.extend((slot, name) for name in RECORD_FIELDS
                         if getattr(want, name) != getattr(got, name))
    return diverging


def traced_vs_plain(machine: Machine, corpus,
                    make_tracer: Callable[[Machine], KernelTracer]):
    found = []
    for program in corpus:
        for container in (SENDER, RECEIVER):
            plain = plain_records(machine, container, program)
            traced = traced_records(machine, container, program, make_tracer)
            found.extend((program.hash_hex[:12], container, slot, name)
                         for slot, name in record_divergences(plain, traced))
    return found


def profile_vs_plain(machine: Machine, corpus):
    profiler = Profiler(machine)
    found = []
    for index, program in enumerate(corpus):
        profile = profiler.profile(program, index)
        for container, view in ((SENDER, profile.sender),
                                (RECEIVER, profile.receiver)):
            plain = plain_records(machine, container, program)
            found.extend((program.hash_hex[:12], container, slot, name)
                         for slot, name in record_divergences(plain,
                                                               view.records))
    return found


def _observing_tracer(machine: Machine) -> KernelTracer:
    return KernelTracer()


class _ClockSkewTracer(KernelTracer):
    """Instrumentation that writes kernel state: each enabled window
    costs virtual time, the way real tracing slows a kernel."""

    def __init__(self, machine: Machine) -> None:
        super().__init__()
        self._clock = machine.kernel.clock

    def start(self) -> None:
        self._clock.tick(1000)
        super().start()


@pytest.mark.parametrize("seed", SEEDS)
class TestTracedRunMatchesPlainRun:
    def test_traced_records_equal_plain(self, machine, corpora, seed):
        assert traced_vs_plain(machine, corpora[seed],
                               _observing_tracer) == []

    def test_profile_records_equal_plain(self, machine, corpora, seed):
        assert profile_vs_plain(machine, corpora[seed]) == []

    def test_profile_collects_accesses(self, machine, corpora, seed):
        # The equality checks above are vacuous if nothing was traced.
        profile = Profiler(machine).profile(corpora[seed][0])
        assert profile.sender.total_accesses() > 0
        assert profile.receiver.total_accesses() > 0


class TestGuardCatchesPerturbation:
    @pytest.fixture
    def fresh_513(self) -> Machine:
        # Not the session machine: the skewed clock must not leak.
        return Machine(MachineConfig(bugs=linux_5_13()))

    def test_traced_comparison_flags_a_perturbing_tracer(self, fresh_513,
                                                         corpora):
        found = traced_vs_plain(fresh_513, corpora[1], _ClockSkewTracer)
        assert found, "a state-writing tracer went unnoticed"
        assert {name for __, __, __, name in found} <= set(RECORD_FIELDS)

    def test_profile_comparison_flags_a_perturbing_tracer(self, fresh_513,
                                                          corpora,
                                                          monkeypatch):
        monkeypatch.setattr(profile_module, "KernelTracer",
                            lambda: _ClockSkewTracer(fresh_513))
        assert profile_vs_plain(fresh_513, corpora[1])
